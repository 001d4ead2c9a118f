//! The litmus workloads: `litmus-native` and `litmus-stress`.
//!
//! A pass campaigns every cell (shape × chip × suite column) of the
//! workload's groups. The untraced pass calls `run_suite_with_cache`
//! once per cell, so each cell is one timed campaign; the traced pass
//! performs the same per-cell calls by hand and hands a spanned
//! [`Workload`] to the real `Campaign::run`.

use crate::trace::{Sink, Span, Totals};
use crate::clock::{CpuTime, RefTimer};
use crate::{attempted, failed, Bench, Metrics, Pass, Scale, WORKERS};
use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::campaign::{CampaignBuilder, RunCtx, SummaryValue, Workload};
use gpu_wmm::core::stress::{litmus_stress_threads, Scratchpad};
use gpu_wmm::core::suite::{run_suite_with_cache, StaticVerdict, SuiteConfig, SuiteStrategy};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::runner::mix_seed;
use gpu_wmm::litmus::{Histogram, LitmusInstance, LitmusLayout, LitmusOutcome, Placement};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::Gpu;
use rand::rngs::SmallRng;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice::from_ref;
use std::time::Instant;

/// The suite's instantiation distance and stressing-loop length.
const DISTANCE: u32 = 64;
const ITERS: u32 = 40;

fn pad() -> Scratchpad {
    SuiteConfig::default().pad
}

fn chip(short: &str) -> Chip {
    Chip::by_short(short).expect("chip is in the table")
}

/// Cells of one kind, campaigned with one execution count.
struct Group {
    name: &'static str,
    chips: Vec<Chip>,
    strategies: Vec<SuiteStrategy>,
    shapes: Vec<Shape>,
    execs: u32,
}

/// What one setup prepares: the static verdicts the checks use, and a
/// warm artifact cache.
struct Prepared {
    cache: ArtifactCache,
    /// `[group][shape][chip]`.
    verdicts: Vec<Vec<Vec<StaticVerdict>>>,
}

/// A litmus workload.
pub struct Litmus {
    groups: Vec<Group>,
    seed: u64,
    prepared: Option<Prepared>,
    /// Per setup: `(instance ms, verdict ms, artifact build ms, builds)`.
    setups: Vec<(f64, f64, f64, u64)>,
    /// One span sink per group.
    sinks: Vec<Sink>,
}

impl Litmus {
    fn new(groups: Vec<Group>, seed: u64) -> Self {
        let sinks = groups.iter().map(|_| Sink::default()).collect();
        Litmus {
            groups,
            seed,
            prepared: None,
            setups: Vec::new(),
            sinks,
        }
    }

    /// The 28 shapes on the Titan and the C2075, natively: fixed
    /// per-launch costs dominate.
    pub fn native(seed: u64, scale: Scale) -> Self {
        let execs = if scale == Scale::Full { 512 } else { 2 };
        Self::new(
            vec![Group {
                name: "native",
                chips: vec![chip("Titan"), chip("C2075")],
                strategies: vec![SuiteStrategy::native()],
                shapes: Shape::ALL.to_vec(),
                execs,
            }],
            seed,
        )
    }

    /// Three channel groups, each sized to roughly a third of a pass:
    /// the global window (Titan, `sys-str+` and `rand-str+`), the shared
    /// window (Titan, `shm+sys-str+`, intra-block shapes only) and the
    /// incoherent L1 (C2075, `l1-str+`).
    pub fn stress(seed: u64, scale: Scale) -> Self {
        let execs = |full: u32| if scale == Scale::Full { full } else { 2 };
        let titan = chip("Titan");
        let intra: Vec<Shape> = Shape::ALL
            .into_iter()
            .filter(|s| s.placement() == Placement::IntraBlock)
            .collect();
        Self::new(
            vec![
                Group {
                    name: "global",
                    chips: vec![titan.clone()],
                    strategies: vec![
                        SuiteStrategy::sys_str_plus(ITERS),
                        SuiteStrategy::rand_str_plus(ITERS),
                    ],
                    shapes: Shape::ALL.to_vec(),
                    execs: execs(20),
                },
                Group {
                    name: "shared",
                    chips: vec![titan],
                    strategies: vec![SuiteStrategy::shared_sys_str_plus(ITERS)],
                    shapes: intra,
                    execs: execs(8),
                },
                Group {
                    name: "l1",
                    chips: vec![chip("C2075")],
                    strategies: vec![SuiteStrategy::l1_str_plus(ITERS)],
                    shapes: Shape::ALL.to_vec(),
                    execs: execs(32),
                },
            ],
            seed,
        )
    }

    /// Every cell as `(group, shape, chip, strategy)` indices, in the
    /// canonical (digest) order.
    fn cells(&self) -> Vec<(usize, usize, usize, usize)> {
        let mut out = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            for si in 0..g.shapes.len() {
                for ci in 0..g.chips.len() {
                    for ki in 0..g.strategies.len() {
                        out.push((gi, si, ci, ki));
                    }
                }
            }
        }
        out
    }

    /// The `base_seed` a cell's suite call gets: derived from the
    /// workload seed and the cell's coordinates alone.
    fn cell_seed(&self, (gi, si, ci, ki): (usize, usize, usize, usize)) -> u64 {
        [gi, si, ci, ki]
            .into_iter()
            .fold(self.seed, |s, x| mix_seed(s, x as u64))
    }

    fn prepared(&self) -> &Prepared {
        self.prepared
            .as_ref()
            .expect("setup runs before every pass")
    }

    /// Check one cell's histogram and digest it.
    fn check(&self, cell: (usize, usize, usize, usize), hist: &Histogram) -> u64 {
        let (gi, si, ci, _) = cell;
        let g = &self.groups[gi];
        let name = || format!("{} on {} ({})", g.shapes[si], g.chips[ci].short, g.name);
        if hist.total() != u64::from(g.execs) {
            failed(
                1,
                &format!("{}: {} runs, requested {}", name(), hist.total(), g.execs),
            );
        } else if self.prepared().verdicts[gi][si][ci].quiet() && hist.weak() > 0 {
            failed(
                1,
                &format!("{}: statically quiet but {} weak", name(), hist.weak()),
            );
        }
        SummaryValue::Litmus(hist.clone()).digest()
    }
}

impl Bench for Litmus {
    fn setup(&mut self) -> f64 {
        let t = RefTimer::start();
        let mut verdicts = Vec::new();
        let (mut gen_s, mut analysis_s, mut build_s) = (0.0, 0.0, 0.0);
        let cache = ArtifactCache::new();
        for g in &self.groups {
            let t = CpuTime::now();
            let insts: Vec<LitmusInstance> = g
                .shapes
                .iter()
                .map(|s| s.instance(LitmusLayout::standard(DISTANCE, pad().required_words())))
                .collect();
            gen_s += t.elapsed_s();
            let t = CpuTime::now();
            verdicts.push(
                insts
                    .iter()
                    .map(|inst| {
                        g.chips
                            .iter()
                            .map(|c| StaticVerdict::of_chip(inst, c))
                            .collect()
                    })
                    .collect(),
            );
            analysis_s += t.elapsed_s();
            let t = CpuTime::now();
            for c in &g.chips {
                for s in &g.strategies {
                    let _ = cache.get(c, &s.environment(c), pad(), s.iters);
                }
            }
            build_s += t.elapsed_s();
        }
        let builds = cache.stats().builds;
        self.setups
            .push((gen_s * 1e3, analysis_s * 1e3, build_s * 1e3, builds));
        self.prepared = Some(Prepared { cache, verdicts });
        t.elapsed_s()
    }

    fn pass(&mut self) -> Pass {
        let p = self.prepared();
        let mut out = Pass::default();
        for cell in self.cells() {
            let (gi, si, ci, ki) = cell;
            let g = &self.groups[gi];
            let cfg = SuiteConfig {
                distances: vec![DISTANCE],
                execs: g.execs,
                pad: pad(),
                base_seed: self.cell_seed(cell),
                workers: WORKERS,
            };
            attempted(1);
            let t = RefTimer::start();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_suite_with_cache(
                    from_ref(&g.shapes[si]),
                    from_ref(&g.chips[ci]),
                    from_ref(&g.strategies[ki]),
                    &cfg,
                    &p.cache,
                )
            }));
            let ref_s = t.elapsed_s();
            out.ref_s += ref_s;
            out.job_ms.push(ref_s * 1e3);
            let digest = match result.as_deref() {
                Ok([c]) => {
                    if c.static_verdict != p.verdicts[gi][si][ci] {
                        failed(
                            1,
                            &format!("{}: suite verdict {}", c.shape, c.static_verdict),
                        );
                    }
                    out.runs += c.hist.total();
                    self.check(cell, &c.hist)
                }
                Ok(cells) => {
                    failed(1, &format!("suite call returned {} cells", cells.len()));
                    0
                }
                Err(_) => {
                    failed(1, "suite call panicked");
                    0
                }
            };
            out.digests.push(digest);
        }
        out
    }

    fn traced_pass(&mut self) -> Pass {
        let p = self.prepared();
        let mut out = Pass::default();
        for cell in self.cells() {
            let (gi, si, ci, ki) = cell;
            let g = &self.groups[gi];
            let (shape, chip, strat) = (&g.shapes[si], &g.chips[ci], &g.strategies[ki]);
            attempted(1);
            let t = RefTimer::start();
            // The calls one single-cell `run_suite_with_cache` makes, in
            // its order, with the cell seed it derives.
            let result = catch_unwind(AssertUnwindSafe(|| {
                let inst = shape.instance(LitmusLayout::standard(DISTANCE, pad().required_words()));
                let _ = StaticVerdict::of_chip(&inst, chip);
                let artifacts = p
                    .cache
                    .get(chip, &strat.environment(chip), pad(), strat.iters);
                let suite_seed = [0, u64::from(DISTANCE), 0, 0]
                    .into_iter()
                    .fold(self.cell_seed(cell), mix_seed);
                let campaign = CampaignBuilder::new(chip)
                    .stress((*artifacts).clone())
                    .randomize_ids(strat.randomize)
                    .count(g.execs)
                    .base_seed(suite_seed)
                    .parallelism(WORKERS)
                    .build();
                let stressed = campaign.litmus_instance(&inst);
                let workload = Traced {
                    inst: stressed.as_ref().unwrap_or(&inst),
                    sink: &self.sinks[gi],
                };
                let t = Instant::now();
                let hist = campaign.run(&workload);
                self.sinks[gi].campaign(t.elapsed());
                hist
            }));
            let ref_s = t.elapsed_s();
            out.ref_s += ref_s;
            out.job_ms.push(ref_s * 1e3);
            let digest = match result {
                Ok(hist) => {
                    out.runs += hist.total();
                    self.check(cell, &hist)
                }
                Err(_) => {
                    failed(1, "traced campaign panicked");
                    0
                }
            };
            out.digests.push(digest);
        }
        out
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let median = |f: fn(&(f64, f64, f64, u64)) -> f64| {
            crate::median(&self.setups.iter().map(f).collect::<Vec<_>>())
        };
        m.set("gen.instance_ms", median(|s| s.0));
        m.set("analysis.verdict_ms", median(|s| s.1));
        m.set("core.artifact_build_ms", median(|s| s.2));
        m.set("core.artifact_builds", median(|s| s.3 as f64));
        m.set(
            "core.cache_hit_rate",
            self.prepared().cache.stats().hit_rate(),
        );
        let mut all = Totals::default();
        for (g, sink) in self.groups.iter().zip(&self.sinks) {
            let t = sink.totals();
            all.add(&t);
            if g.name != "native" {
                t.sim_metrics(&format!("sim.{}", g.name), m);
            }
        }
        all.sim_metrics("sim", m);
        m.set(
            "core.stress_make_us_per_run",
            all.us_per_run(Span::StressMake),
        );
        m.set(
            "core.campaign_self_us_per_run",
            all.campaign_self_us_per_run(),
        );
        m.set("litmus.launch_us_per_run", all.us_per_run(Span::Launch));
        m.set("litmus.observe_us_per_run", all.us_per_run(Span::Observe));
        m.set("litmus.fold_us_per_run", all.us_per_run(Span::Fold));
    }

    fn workers(&self) -> String {
        format!("campaign_workers={WORKERS}")
    }
}

/// `LitmusWorkload` with a span around each public call of a run. It
/// draws from the run's RNG exactly what `LitmusWorkload::run_once`
/// draws, in the same order, so its histograms are bit-identical.
struct Traced<'a> {
    inst: &'a LitmusInstance,
    sink: &'a Sink,
}

impl Workload for Traced<'_> {
    type Verdict = LitmusOutcome;
    type Summary = Histogram;

    fn summary(&self) -> Histogram {
        Histogram::new()
    }

    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> LitmusOutcome {
        let sink = self.sink;
        let (groups, init) = if ctx.stress.is_native() {
            (Vec::new(), Vec::new())
        } else {
            sink.time(Span::StressMake, || {
                let threads = litmus_stress_threads(ctx.chip, rng);
                let s = ctx.stress.make(threads, rng);
                (s.groups, s.init)
            })
        };
        let seed = rng.gen();
        let spec = sink.time(Span::Launch, || {
            self.inst.launch(groups, init, ctx.randomize_ids)
        });
        let result = sink.time(Span::Sim, || gpu.run(&spec, seed));
        sink.launched(&result);
        let (obs, weak) = sink.time(Span::Observe, || {
            let obs = self.inst.observe(&result);
            let weak = self.inst.is_weak(&obs);
            (obs, weak)
        });
        sink.run_done();
        LitmusOutcome {
            obs,
            weak,
            channels: result.channels,
        }
    }

    fn fold(&self, into: &mut Histogram, verdict: LitmusOutcome) {
        self.sink.time(Span::Fold, || into.record(verdict));
    }

    fn merge(&self, into: &mut Histogram, shard: Histogram) {
        self.sink.time(Span::Fold, || into.merge(&shard));
    }
}
