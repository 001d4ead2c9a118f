//! Golden results: absolute digests of a fixed campaign grid.
//!
//! The other determinism tests compare the executor with itself (worker
//! counts, submission orders, cached against fresh artifacts), so a
//! hot-path rewrite that shifts a single RNG draw would pass every one
//! of them. This file pins results absolutely instead: it campaigns a
//! fixed grid through `run_suite_with_cache` (seed 2016, distance 64,
//! all cores, since results do not depend on the worker count) plus a
//! few application jobs, and compares each cell's `SummaryValue::digest`
//! with the committed [`GOLDEN`] table.
//!
//! The grid covers every relaxation channel:
//!
//! * all 28 shapes × {Titan, C2075, 980} under `no-str-`, `sys-str+`,
//!   `l1-str+` (incoherent L1) and `rand-str+` (the one environment
//!   that compiles a stress kernel per run);
//! * the 7 intra-block shapes on Titan under `shm+sys-str+` (shared
//!   window);
//! * [`APP_JOBS`] through `JobSpec::execute`, the application campaign
//!   path: `cbe-dot` and `cbe-ht` under `sys-str+` and `shm-pipe`
//!   natively, each at a run count where its verdict counts move if the
//!   campaign flips thread-id randomisation;
//! * every application (the ten of Tab. 4 plus `shm-pipe`) on Titan and
//!   the C2075 under `sys-str+`, and on the C2075 under `l1-str+`, at 2
//!   runs and seed 7. These rows digest what each run executed, its
//!   verdict and `app_turns`, not only the campaign's verdict counts:
//!   most app campaigns pass every run, so their counts are equal;
//! * all 28 shapes × {Titan, C2075, 980} under `cache-str-`, the one
//!   stress strategy no suite column runs, campaigned cell by cell with
//!   the suite's cell seeds, and every application's per-run rows under
//!   it on Titan and the C2075.
//!
//! A cell's seed derives from its index in its block's chip list, so a
//! chip joins a block at the end of the list: the cells already in the
//! table keep their digests. Rows that joined later are computed last,
//! so the recomputed table lists them in the order they were appended.
//!
//! A litmus row digests only what the runs observed, so an executor that
//! miscounts instructions or turns without moving an outcome would pass
//! it. A second table, [`WORK_GOLDEN`], pins that work: for a few shapes of
//! every stressed column (Titan `sys-str+`, `rand-str+`, `shm+sys-str+`
//! and `cache-str-`, C2075 `l1-str+`) it replays the first two runs of the
//! grid cell through a [`Workload`] that draws exactly what
//! `LitmusWorkload` draws, and digests each run's status, instructions,
//! application and total turns, and channel counters.
//!
//! A third table, [`ANALYSIS_GOLDEN`], pins the static analyzer the same
//! way: one row per shape × {chip-independent, Titan, C2075} at the suite
//! layout, and one per application (through `analyze_spec`). The analyzer
//! reads only `Chip::l1_weak()`, so the coherent Titan and the
//! incoherent C2075 cover every preset. A row digests the warnings, the
//! site verdicts and the count of ordered edges.
//!
//! A change that alters the model on purpose regenerates a table: the
//! failure message prints the recomputed one, ready to paste over
//! [`GOLDEN`], [`WORK_GOLDEN`] or [`ANALYSIS_GOLDEN`], and `CHANGES.md`
//! says why the results moved.

use gpu_wmm::analysis::{analyze_litmus, analyze_litmus_on_chip, ProgramAnalysis};
use gpu_wmm::apps::{app_by_name, app_names};
use gpu_wmm::core::analyze_spec;
use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::campaign::{Campaign, CampaignBuilder, Fnv64, RunCtx, SummaryValue, Workload};
use gpu_wmm::core::stress::{litmus_stress_threads, StressStrategy};
use gpu_wmm::core::suite::{
    cell_seed, litmus_pad, run_suite_with_cache, SuiteConfig, SuiteStrategy,
};
use gpu_wmm::core::{AppHarness, Application, Environment};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::runner::mix_seed;
use gpu_wmm::litmus::{Histogram, LitmusInstance, LitmusLayout, LitmusOutcome, Placement};
use gpu_wmm::server::{EnvKind, JobSpec};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::{Gpu, RunResult};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

const SEED: u64 = 2016;
const DISTANCE: u32 = 64;
const ITERS: u32 = 40;
/// The application jobs, run through `JobSpec::execute`: the grid's
/// first app job, then two whose verdict counts move when the
/// application campaign flips thread-id randomisation (the first job's
/// do not).
const APP_JOBS: [&str; 3] = [
    "app K20 sys-str+ cbe-dot 2 7",
    "app K20 sys-str+ cbe-ht 4 7",
    "app K20 no-str- shm-pipe 2 7",
];
/// `(chip, environment)` pairs of the per-run application rows, which
/// run every application twice at seed 7. The two `cache-str-` pairs
/// joined later: a litmus test retires before the `cache-str`
/// stressing thread that owns the scratchpad's last word gets there, so
/// only an application run shows where the sweep ends.
const APP_RUN_ENVS: [(&str, &str); 5] = [
    ("Titan", "sys-str+"),
    ("C2075", "sys-str+"),
    ("C2075", "l1-str+"),
    ("Titan", "cache-str-"),
    ("C2075", "cache-str-"),
];

/// `(chip, column, shapes)` of the work rows. Each shape's row replays
/// the first [`WORK_RUNS`] runs of its cell in the grid block of that
/// column.
const WORK_CELLS: [(&str, &str, &[&str]); 5] = [
    ("Titan", "sys-str+", &["MP", "SB", "CoRR", "MP+fences"]),
    ("Titan", "rand-str+", &["MP", "SB"]),
    (
        "Titan",
        "shm+sys-str+",
        &["MP.shared", "MP.shared+fence_block", "MP.mixed"],
    ),
    ("C2075", "l1-str+", &["CoRR", "MP", "CoRR+fence"]),
    ("Titan", "cache-str-", &["MP", "SB"]),
];
const WORK_RUNS: u32 = 2;

/// One block of the grid: shapes × chips × one column, at its own
/// execution count (stressed runs cost ~40× a native one).
struct Block {
    shapes: Vec<Shape>,
    chips: &'static [&'static str],
    column: Column,
    execs: u32,
}

/// A grid column: a suite column, campaigned through
/// `run_suite_with_cache`, or an environment no suite column runs,
/// campaigned cell by cell as the suite campaigns its cells.
enum Column {
    Suite(SuiteStrategy),
    Env(Environment),
}

impl Column {
    fn name(&self) -> String {
        match self {
            Column::Suite(s) => s.env.name().to_string(),
            Column::Env(env) => env.name(),
        }
    }
}

fn blocks() -> Vec<Block> {
    let intra: Vec<Shape> = Shape::ALL
        .into_iter()
        .filter(|s| s.placement() == Placement::IntraBlock)
        .collect();
    assert_eq!(intra.len(), 7, "the catalogue's intra-block shapes");
    vec![
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075", "980"],
            column: Column::Suite(SuiteStrategy::native()),
            execs: 64,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075", "980"],
            column: Column::Suite(SuiteStrategy::sys_str_plus(ITERS)),
            execs: 8,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["C2075", "Titan", "980"],
            column: Column::Suite(SuiteStrategy::l1_str_plus(ITERS)),
            execs: 8,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075", "980"],
            column: Column::Suite(SuiteStrategy::rand_str_plus(ITERS)),
            execs: 8,
        },
        Block {
            shapes: intra,
            chips: &["Titan"],
            column: Column::Suite(SuiteStrategy::shared_sys_str_plus(ITERS)),
            execs: 8,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075", "980"],
            column: Column::Env(cache_str_minus()),
            execs: 8,
        },
    ]
}

/// `cache-str-`: the L2-sized sweep, without thread-id randomisation.
fn cache_str_minus() -> Environment {
    Environment {
        stress: StressStrategy::CacheSized,
        randomize: false,
        shared: None,
    }
}

/// The campaign of cell (`si`, `ci`) of `block`, at `count` runs on
/// `workers` threads: the campaign `run_suite_with_cache` builds for
/// that cell.
fn cell_campaign<'a>(
    block: &Block,
    si: usize,
    ci: usize,
    chip: &'a Chip,
    cache: &ArtifactCache,
    count: u32,
    workers: usize,
) -> Campaign<'a> {
    let (env, iters, randomize) = match &block.column {
        Column::Suite(s) => (s.environment(chip), s.iters, s.randomize),
        Column::Env(env) => (env.clone(), ITERS, env.randomize),
    };
    CampaignBuilder::new(chip)
        .stress(cache.get(chip, &env, litmus_pad(), iters))
        .randomize_ids(randomize)
        .count(count)
        .base_seed(cell_seed(SEED, si, DISTANCE, ci, 0))
        .parallelism(workers)
        .build()
}

/// Campaign one block: `(cell name, digest)`, shape by shape, each in
/// chip order.
fn block_rows(block: &Block, cache: &ArtifactCache) -> Vec<(String, u64)> {
    let chips: Vec<Chip> = block
        .chips
        .iter()
        .map(|c| Chip::by_short(c).expect("known chip"))
        .collect();
    let cells: Vec<(String, Histogram)> = match &block.column {
        Column::Suite(column) => {
            let cfg = SuiteConfig {
                distances: vec![DISTANCE],
                execs: block.execs,
                base_seed: SEED,
                workers: 0,
                ..SuiteConfig::default()
            };
            run_suite_with_cache(
                &block.shapes,
                &chips,
                std::slice::from_ref(column),
                &cfg,
                cache,
            )
            .into_iter()
            .map(|c| (format!("{}@{} {}", c.shape, c.chip, c.strategy), c.hist))
            .collect()
        }
        Column::Env(env) => {
            let mut cells = Vec::new();
            for (si, shape) in block.shapes.iter().enumerate() {
                let inst = shape.instance(LitmusLayout::standard(
                    DISTANCE,
                    litmus_pad().required_words(),
                ));
                for (ci, chip) in chips.iter().enumerate() {
                    let hist =
                        cell_campaign(block, si, ci, chip, cache, block.execs, 0).run_litmus(&inst);
                    cells.push((format!("{shape}@{} {}", chip.short, env.name()), hist));
                }
            }
            cells
        }
    };
    cells
        .into_iter()
        .map(|(name, hist)| (name, SummaryValue::Litmus(hist).digest()))
        .collect()
}

/// Run an application job: `(job, digest)`.
fn job_row(job: &str) -> (String, u64) {
    let spec: JobSpec = job.parse().expect("valid job");
    let summary = spec.execute(1, None).expect("the app job runs");
    (job.to_string(), summary.digest())
}

/// Campaign the whole grid: `(cell name, digest)` in table order.
fn recompute() -> Vec<(String, u64)> {
    let cache = ArtifactCache::new();
    let (grid, later): (Vec<Block>, Vec<Block>) = blocks()
        .into_iter()
        .partition(|b| matches!(b.column, Column::Suite(_)));
    let mut out: Vec<(String, u64)> = grid.iter().flat_map(|b| block_rows(b, &cache)).collect();
    out.push(job_row(APP_JOBS[0]));
    out.extend(app_run_rows(&APP_RUN_ENVS[..3]));
    // The rows appended since, in the order they joined the table.
    out.extend(later.iter().flat_map(|b| block_rows(b, &cache)));
    out.extend(APP_JOBS[1..].iter().map(|job| job_row(job)));
    out.extend(app_run_rows(&APP_RUN_ENVS[3..]));
    out
}

/// The ten applications of Tab. 4 plus the scoped `shm-pipe`.
fn apps() -> Vec<Box<dyn Application>> {
    app_names()
        .map(|name| app_by_name(name).expect("a listed application"))
        .collect()
}

/// The per-run application rows of `envs`: every application under
/// each `(chip, environment)` pair.
fn app_run_rows(envs: &[(&str, &str)]) -> Vec<(String, u64)> {
    let apps = apps();
    let mut out = Vec::new();
    for &(chip, env) in envs {
        let chip = Chip::by_short(chip).expect("known chip");
        let env = if env == "cache-str-" {
            cache_str_minus()
        } else {
            env.parse::<EnvKind>()
                .expect("known environment")
                .environment(&chip)
        };
        for app in &apps {
            let job = format!("app {} {env} {} 2 7", chip.short, app.name());
            let digest = app_run_digest(&chip, &env, app.as_ref());
            out.push((format!("{job} / runs"), digest));
        }
    }
    out
}

/// Digest each of the two runs of an application job at seed 7, in run
/// order: its verdict and the scheduler turns its phases took. Run `i`
/// is the job campaign's run `i` (`AppHarness::run_once` at
/// `mix_seed(7, i)`).
fn app_run_digest(chip: &Chip, env: &Environment, app: &dyn Application) -> u64 {
    let harness = AppHarness::new(chip, app);
    let mut f = Fnv64::new();
    for i in 0..2 {
        let run = harness.run_once(env, mix_seed(7, i));
        f.write(format!("{:?}", run.verdict).as_bytes());
        f.write_u64(run.app_turns);
    }
    f.finish()
}

/// What one run did: its status, instructions, application and total
/// turns and channel counters, next to what it observed.
struct RunWork {
    result: RunResult,
    outcome: LitmusOutcome,
}

/// A litmus instance as a [`Workload`] that keeps each run's
/// [`RunResult`]. It draws exactly what `LitmusWorkload::run_once` draws
/// (the stress thread count, the stress set-up, the launch seed), so run
/// `i` is run `i` of the grid cell; [`recompute_work`] checks that its
/// outcomes fold into the cell's own histogram.
struct WorkOf<'a>(&'a LitmusInstance);

impl Workload for WorkOf<'_> {
    type Verdict = RunWork;
    type Summary = Vec<RunWork>;

    fn summary(&self) -> Vec<RunWork> {
        Vec::new()
    }

    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> RunWork {
        let (groups, init) = if ctx.stress.is_native() {
            (Vec::new(), Vec::new())
        } else {
            let threads = litmus_stress_threads(ctx.chip, rng);
            let s = ctx.stress.make(threads, rng);
            (s.groups, s.init)
        };
        let seed = rng.gen();
        let result = gpu.run(&self.0.launch(groups, init, ctx.randomize_ids), seed);
        let obs = self.0.observe(&result);
        let outcome = LitmusOutcome {
            weak: self.0.is_weak(&obs),
            obs,
            channels: result.channels,
        };
        RunWork { result, outcome }
    }

    fn fold(&self, into: &mut Vec<RunWork>, run: RunWork) {
        into.push(run);
    }

    fn merge(&self, into: &mut Vec<RunWork>, shard: Vec<RunWork>) {
        into.extend(shard);
    }
}

/// Replay the work rows: `(row name, digest)` in [`WORK_CELLS`] order.
fn recompute_work() -> Vec<(String, u64)> {
    let cache = ArtifactCache::new();
    let blocks = blocks();
    let mut out = Vec::new();
    for (chip_name, column, shapes) in WORK_CELLS {
        let block = blocks
            .iter()
            .find(|b| b.column.name() == column)
            .expect("a grid block per work column");
        let ci = block
            .chips
            .iter()
            .position(|&c| c == chip_name)
            .expect("the chip is in the block");
        let chip = Chip::by_short(chip_name).expect("known chip");
        for &name in shapes {
            let si = block
                .shapes
                .iter()
                .position(|s| s.to_string() == name)
                .expect("the shape is in the block");
            let inst = block.shapes[si].instance(LitmusLayout::standard(
                DISTANCE,
                litmus_pad().required_words(),
            ));
            // One worker, so the runs come back in index order.
            let campaign = cell_campaign(block, si, ci, &chip, &cache, WORK_RUNS, 1);
            let stressed = campaign.litmus_instance(&inst);
            let runs = campaign.run(&WorkOf(stressed.as_ref().unwrap_or(&inst)));
            let mut hist = Histogram::new();
            let mut f = Fnv64::new();
            for RunWork { result: r, outcome } in runs {
                f.write(format!("{:?}", r.status).as_bytes());
                for v in [r.instructions, r.app_turns, r.total_turns] {
                    f.write_u64(v);
                }
                for v in r.channels.as_array() {
                    f.write_u64(v);
                }
                hist.record(outcome);
            }
            let row = format!("{name}@{chip_name} {column} / runs");
            assert_eq!(
                hist,
                campaign.run_litmus(&inst),
                "{row}: not the cell's runs"
            );
            out.push((row, f.finish()));
        }
    }
    out
}

/// Digest one analysis: every warning (its pair, spaces, level and
/// threads), every site verdict, and the count of ordered edges.
fn digest_analysis(f: &mut Fnv64, a: &ProgramAnalysis) {
    f.write_u64(a.warnings.len() as u64);
    for w in &a.warnings {
        f.write_u64(w.from as u64);
        f.write_u64(w.to as u64);
        f.write(format!("{:?} {:?} {:?}", w.from_space, w.to_space, w.level).as_bytes());
        f.write_u64(w.threads.len() as u64);
        for &t in &w.threads {
            f.write_u64(t as u64);
        }
    }
    f.write_u64(a.sites.len() as u64);
    for s in &a.sites {
        f.write_u64(s.index as u64);
        f.write(format!("{:?} {:?}", s.space, s.verdict).as_bytes());
    }
    f.write_u64(a.ordered_edges as u64);
}

/// Analyze every shape at the suite layout, chip-independently and on
/// the Titan and the C2075, then every application phase by phase.
fn recompute_analysis() -> Vec<(String, u64)> {
    let words = SuiteConfig::default().pad.required_words();
    let chips = ["Titan", "C2075"].map(|c| Chip::by_short(c).expect("known chip"));
    let mut out = Vec::new();
    for shape in Shape::ALL {
        let li = shape.instance(LitmusLayout::standard(DISTANCE, words));
        let mut row = |name: String, a: ProgramAnalysis| {
            let mut f = Fnv64::new();
            digest_analysis(&mut f, &a);
            out.push((name, f.finish()));
        };
        row(format!("analyze {shape}"), analyze_litmus(&li));
        for chip in &chips {
            row(
                format!("analyze {shape}@{}", chip.short),
                analyze_litmus_on_chip(&li, chip),
            );
        }
    }
    for app in apps() {
        let mut f = Fnv64::new();
        for phase in &analyze_spec(app.spec()).phases {
            digest_analysis(&mut f, phase);
        }
        out.push((format!("analyze app {}", app.name()), f.finish()));
    }
    out
}

fn render(table: &str, cells: &[(String, u64)]) -> String {
    let mut s = format!("const {table}: &[(&str, u64)] = &[\n");
    for (name, digest) in cells {
        s.push_str(&format!("    ({name:?}, 0x{digest:016x}),\n"));
    }
    s.push_str("];\n");
    s
}

/// Fail naming every row of `cells` that differs from the committed
/// `golden` table, and print the recomputed table.
fn assert_matches(table: &str, golden: &[(&str, u64)], cells: &[(String, u64)]) {
    let want: HashMap<&str, u64> = golden.iter().copied().collect();
    let mut drift = Vec::new();
    for (name, digest) in cells {
        match want.get(name.as_str()) {
            Some(&want) if want == *digest => {}
            Some(&want) => drift.push(format!("{name}: 0x{digest:016x}, table 0x{want:016x}")),
            None => drift.push(format!("{name}: 0x{digest:016x}, not in the table")),
        }
    }
    for (name, _) in golden {
        if !cells.iter().any(|(n, _)| n == name) {
            drift.push(format!("{name}: in the table, no longer in the grid"));
        }
    }
    assert!(
        drift.is_empty(),
        "{} of {} golden cells drifted:\n  {}\n\nrecomputed table:\n{}",
        drift.len(),
        golden.len(),
        drift.join("\n  "),
        render(table, cells)
    );
}

#[test]
fn grid_digests_match_the_committed_table() {
    assert_matches("GOLDEN", GOLDEN, &recompute());
}

#[test]
fn work_digests_match_the_committed_table() {
    assert_matches("WORK_GOLDEN", WORK_GOLDEN, &recompute_work());
}

#[test]
fn analysis_digests_match_the_committed_table() {
    assert_matches("ANALYSIS_GOLDEN", ANALYSIS_GOLDEN, &recompute_analysis());
}

/// The Titan/C2075 rows of `no-str-`/`sys-str+`, the C2075 `l1-str+` rows,
/// the `shm+sys-str+` rows and the app job were recorded before the
/// allocation-free executor landed; the 980, Titan `l1-str+` and
/// `rand-str+` rows joined later on an unchanged model, and so did the
/// per-run application rows, before the executor stepped pc-uniform
/// warps as a batch. The `cache-str-` rows and the last two app jobs
/// joined on an unchanged model too, after the lane-step cuts. Every
/// later change must reproduce the table bit for bit.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("MP@Titan no-str-", 0x6831327bf4cbf280),
    ("MP@C2075 no-str-", 0x63b2e56d18dbe3d4),
    ("MP@980 no-str-", 0x7ac0089b9ae1049c),
    ("LB@Titan no-str-", 0xb5f0e063fa1b0bd3),
    ("LB@C2075 no-str-", 0x105a6886bab0e599),
    ("LB@980 no-str-", 0xf5324239d7efded3),
    ("SB@Titan no-str-", 0xa7ab546d2ecef2d1),
    ("SB@C2075 no-str-", 0x8a0dd80c30fd8f9b),
    ("SB@980 no-str-", 0xd75d39931b954691),
    ("S@Titan no-str-", 0xe5d14066c6d63c90),
    ("S@C2075 no-str-", 0xd929f9a6053f0410),
    ("S@980 no-str-", 0x71e42c9f35217e90),
    ("R@Titan no-str-", 0x35baf543bbd348b3),
    ("R@C2075 no-str-", 0x931478631140b4ff),
    ("R@980 no-str-", 0x898e3013ec462723),
    ("2+2W@Titan no-str-", 0x27fffd75198b8919),
    ("2+2W@C2075 no-str-", 0x3f002e0376d9ba51),
    ("2+2W@980 no-str-", 0x4ba0c0a8a2087219),
    ("WRC@Titan no-str-", 0x85c7440bd79dae84),
    ("WRC@C2075 no-str-", 0xe53ddea2d2c5e16e),
    ("WRC@980 no-str-", 0xa02b91c658f6f2c2),
    ("RWC@Titan no-str-", 0x34c2584bbb81469f),
    ("RWC@C2075 no-str-", 0x0b3964a3962912bf),
    ("RWC@980 no-str-", 0x8de4fda9bf47d5d1),
    ("ISA2@Titan no-str-", 0x8f8a3879042fcca0),
    ("ISA2@C2075 no-str-", 0x03b360c682463b08),
    ("ISA2@980 no-str-", 0x6a64cf9706b004d0),
    ("IRIW@Titan no-str-", 0x333f22d7a232e4fe),
    ("IRIW@C2075 no-str-", 0x7a3ee5af39cfae9d),
    ("IRIW@980 no-str-", 0x72f401cd4d911faf),
    ("CoRR@Titan no-str-", 0x137b991bbf893a20),
    ("CoRR@C2075 no-str-", 0xe544acf03335a460),
    ("CoRR@980 no-str-", 0x926cf8c47fd053a2),
    ("CoWW@Titan no-str-", 0xe926a25c4b62347e),
    ("CoWW@C2075 no-str-", 0xe926a25c4b62347e),
    ("CoWW@980 no-str-", 0xe926a25c4b62347e),
    ("MP+fences@Titan no-str-", 0xa9155b5b2cfacc40),
    ("MP+fences@C2075 no-str-", 0x5e478195e4899d3e),
    ("MP+fences@980 no-str-", 0x7bbd78636624d220),
    ("SB+fences@Titan no-str-", 0xff9ad3579f07b3c5),
    ("SB+fences@C2075 no-str-", 0xd59c03ea4d49e35f),
    ("SB+fences@980 no-str-", 0xd31ed039d58f02c3),
    ("MP.shared@Titan no-str-", 0xe81538c3a1aba2a2),
    ("MP.shared@C2075 no-str-", 0xc86c0004702a3680),
    ("MP.shared@980 no-str-", 0x66b6398194593480),
    ("SB.shared@Titan no-str-", 0x90d8ee76b3a07aa1),
    ("SB.shared@C2075 no-str-", 0x742c7a15df518691),
    ("SB.shared@980 no-str-", 0x7baffcc849d890c1),
    ("CoRR.shared@Titan no-str-", 0xe97798f778f1df30),
    ("CoRR.shared@C2075 no-str-", 0x7f79d8e3c38adce0),
    ("CoRR.shared@980 no-str-", 0xe937cb8b8db25522),
    ("MP+CAS@Titan no-str-", 0xc4806a51ff34a638),
    ("MP+CAS@C2075 no-str-", 0xe7a03409a5922484),
    ("MP+CAS@980 no-str-", 0x55fd3f39cbc9a384),
    ("2+2W.exch@Titan no-str-", 0xd614c2d6c1b99edd),
    ("2+2W.exch@C2075 no-str-", 0x507afbb626b68f5d),
    ("2+2W.exch@980 no-str-", 0xb3432b2d1f93a165),
    ("CoAdd@Titan no-str-", 0x1442e3c36ebf4b83),
    ("CoAdd@C2075 no-str-", 0xcdc58d7c026031a1),
    ("CoAdd@980 no-str-", 0xcdc58d7c026031a1),
    ("MP.shared+fence_block@Titan no-str-", 0xae5e65ce530e5070),
    ("MP.shared+fence_block@C2075 no-str-", 0xa5527e3dcde44870),
    ("MP.shared+fence_block@980 no-str-", 0xa1530b63bec2b87c),
    ("SB.shared+fence_block@Titan no-str-", 0x566a7ad8bac1d949),
    ("SB.shared+fence_block@C2075 no-str-", 0x76abd1652dd4b4fd),
    ("SB.shared+fence_block@980 no-str-", 0x215d551f752b2c81),
    ("MP.mixed@Titan no-str-", 0x75d56fcc0c7e5a90),
    ("MP.mixed@C2075 no-str-", 0x7331c0e74773288c),
    ("MP.mixed@980 no-str-", 0x7331c0e74773288c),
    ("ISA2.scoped@Titan no-str-", 0x7049a09ff9000762),
    ("ISA2.scoped@C2075 no-str-", 0x9050ef563a4f27b4),
    ("ISA2.scoped@980 no-str-", 0x367d716762460ef4),
    ("WRC+fences@Titan no-str-", 0xcd7ea7de2492e8a1),
    ("WRC+fences@C2075 no-str-", 0xc03b7b19488c6480),
    ("WRC+fences@980 no-str-", 0x02f7c9922cfe234e),
    ("ISA2+fences@Titan no-str-", 0x38c12b84747e5681),
    ("ISA2+fences@C2075 no-str-", 0xd5fb002052a7007f),
    ("ISA2+fences@980 no-str-", 0xc4cec936c1f6b0c3),
    ("IRIW+fences@Titan no-str-", 0x8d384d3ab628831f),
    ("IRIW+fences@C2075 no-str-", 0xe4bdffef1cfc119b),
    ("IRIW+fences@980 no-str-", 0xfd4a8502fdaf2f99),
    ("CoRR+fence@Titan no-str-", 0xc8cc9ec6aeb6a2e0),
    ("CoRR+fence@C2075 no-str-", 0x5c9a9b08bdd87aa2),
    ("CoRR+fence@980 no-str-", 0xda44c5ad0a895ba2),
    ("MP@Titan sys-str+", 0x0dcb5c4c0f2bf350),
    ("MP@C2075 sys-str+", 0x4c186b4cc0e0dcd6),
    ("MP@980 sys-str+", 0xdfd59a1495495952),
    ("LB@Titan sys-str+", 0x90a8096f382d7551),
    ("LB@C2075 sys-str+", 0x123edc56c1358732),
    ("LB@980 sys-str+", 0xac5cfdc88f85c6b1),
    ("SB@Titan sys-str+", 0x3497e66b07bd9cd3),
    ("SB@C2075 sys-str+", 0x13b1cd76bbd40a54),
    ("SB@980 sys-str+", 0x2aad19952696abb1),
    ("S@Titan sys-str+", 0xe80a25c1874a4a12),
    ("S@C2075 sys-str+", 0x9a0e30cc35ebe656),
    ("S@980 sys-str+", 0xf3dac3cd11d865d2),
    ("R@Titan sys-str+", 0xe46028b17ee88916),
    ("R@C2075 sys-str+", 0x02cc8ecb18d12212),
    ("R@980 sys-str+", 0xe46028b17ee88916),
    ("2+2W@Titan sys-str+", 0x7cd14296c26d9b11),
    ("2+2W@C2075 sys-str+", 0x55236ce87159c632),
    ("2+2W@980 sys-str+", 0xd25dfebcaa607270),
    ("WRC@Titan sys-str+", 0xab125e7b915399d6),
    ("WRC@C2075 sys-str+", 0x38f5cce68f1395f3),
    ("WRC@980 sys-str+", 0x483db19fe2107494),
    ("RWC@Titan sys-str+", 0xe76679c42bf2b1d7),
    ("RWC@C2075 sys-str+", 0x00c9157d1e07c635),
    ("RWC@980 sys-str+", 0x665600a31015ad72),
    ("ISA2@Titan sys-str+", 0x667a6c1fa50f6c94),
    ("ISA2@C2075 sys-str+", 0x50e9fbc4cf72f816),
    ("ISA2@980 sys-str+", 0x24540b9491fe8d77),
    ("IRIW@Titan sys-str+", 0x6824730750526056),
    ("IRIW@C2075 sys-str+", 0x03482afc3bc60775),
    ("IRIW@980 sys-str+", 0xa9676175e3b3cf33),
    ("CoRR@Titan sys-str+", 0xd016f82e0bbe5ad0),
    ("CoRR@C2075 sys-str+", 0xa0633cbbd2a2bdd2),
    ("CoRR@980 sys-str+", 0xa91fa3d472757550),
    ("CoWW@Titan sys-str+", 0x03cc23f71373907e),
    ("CoWW@C2075 sys-str+", 0x03cc23f71373907e),
    ("CoWW@980 sys-str+", 0x03cc23f71373907e),
    ("MP+fences@Titan sys-str+", 0x1133fbebd5176fbe),
    ("MP+fences@C2075 sys-str+", 0x1133fbebd5176fbe),
    ("MP+fences@980 sys-str+", 0xdfd59a1495495952),
    ("SB+fences@Titan sys-str+", 0x44257526a48162d2),
    ("SB+fences@C2075 sys-str+", 0x88887e403dd7b5df),
    ("SB+fences@980 sys-str+", 0x3b0436813b5eb371),
    ("MP.shared@Titan sys-str+", 0xb347e159079908d4),
    ("MP.shared@C2075 sys-str+", 0xfbd56911ec7db150),
    ("MP.shared@980 sys-str+", 0xa91fa3d472757550),
    ("SB.shared@Titan sys-str+", 0x09243277f9c78171),
    ("SB.shared@C2075 sys-str+", 0xd191f1286c3118d0),
    ("SB.shared@980 sys-str+", 0xee179c6f68a0d0b5),
    ("CoRR.shared@Titan sys-str+", 0x3be5bd18c5b931d0),
    ("CoRR.shared@C2075 sys-str+", 0x0c506351aeb93550),
    ("CoRR.shared@980 sys-str+", 0x0c506351aeb93550),
    ("MP+CAS@Titan sys-str+", 0x7e4db5de675fdb96),
    ("MP+CAS@C2075 sys-str+", 0x98c02040664dadb5),
    ("MP+CAS@980 sys-str+", 0xe4beedeb9a2a96f1),
    ("2+2W.exch@Titan sys-str+", 0x2bbef6f2c71ddc52),
    ("2+2W.exch@C2075 sys-str+", 0xafc6a53300ee8010),
    ("2+2W.exch@980 sys-str+", 0xf84d7fbc03db3815),
    ("CoAdd@Titan sys-str+", 0x18120b5188834591),
    ("CoAdd@C2075 sys-str+", 0x7e772c5aa0c61a55),
    ("CoAdd@980 sys-str+", 0xc00d999aad640011),
    ("MP.shared+fence_block@Titan sys-str+", 0x45a06e2104f420d2),
    ("MP.shared+fence_block@C2075 sys-str+", 0x768eb768d06d90b2),
    ("MP.shared+fence_block@980 sys-str+", 0x1133fbebd5176fbe),
    ("SB.shared+fence_block@Titan sys-str+", 0xd7f75457ac8e6fb1),
    ("SB.shared+fence_block@C2075 sys-str+", 0x3b2813d4e8d22fb1),
    ("SB.shared+fence_block@980 sys-str+", 0x3b0436813b5eb371),
    ("MP.mixed@Titan sys-str+", 0xbf3febec2e87d654),
    ("MP.mixed@C2075 sys-str+", 0x3be5bd18c5b931d0),
    ("MP.mixed@980 sys-str+", 0xde19772622659f90),
    ("ISA2.scoped@Titan sys-str+", 0x3228264128275db3),
    ("ISA2.scoped@C2075 sys-str+", 0x3d3e2830c99b7eb6),
    ("ISA2.scoped@980 sys-str+", 0x78be6e8397a37c73),
    ("WRC+fences@Titan sys-str+", 0x1847a0f34ac7c0f0),
    ("WRC+fences@C2075 sys-str+", 0xc29e3181164bd3f0),
    ("WRC+fences@980 sys-str+", 0x94020dc434ec17b4),
    ("ISA2+fences@Titan sys-str+", 0x162f602d19324a7f),
    ("ISA2+fences@C2075 sys-str+", 0x162f602d19324a7f),
    ("ISA2+fences@980 sys-str+", 0x47d32ef17882e032),
    ("IRIW+fences@Titan sys-str+", 0x3322e5d82e066cf9),
    ("IRIW+fences@C2075 sys-str+", 0xda5ef3eea1786e16),
    ("IRIW+fences@980 sys-str+", 0xa6abd0a203650a37),
    ("CoRR+fence@Titan sys-str+", 0xde5aa11a34d69b52),
    ("CoRR+fence@C2075 sys-str+", 0xd191f1286c3118d0),
    ("CoRR+fence@980 sys-str+", 0xd016f82e0bbe5ad0),
    ("MP@C2075 l1-str+", 0x31ee57f86f622510),
    ("MP@Titan l1-str+", 0x721b375e1e63fcd0),
    ("MP@980 l1-str+", 0xff503ff307c356d4),
    ("LB@C2075 l1-str+", 0x20e5d042722ba111),
    ("LB@Titan l1-str+", 0x90a8096f382d7551),
    ("LB@980 l1-str+", 0x603211b3e82c87ff),
    ("SB@C2075 l1-str+", 0x93455ccbaabe15f5),
    ("SB@Titan l1-str+", 0xc029d2c78307c6f1),
    ("SB@980 l1-str+", 0x2a893c4179232f71),
    ("S@C2075 l1-str+", 0x1a4f6129098a7252),
    ("S@Titan l1-str+", 0xe80a25c1874a4a12),
    ("S@980 l1-str+", 0xc1c20d9588a9cf92),
    ("R@C2075 l1-str+", 0x491a4e12f67e2051),
    ("R@Titan l1-str+", 0xd9311a375c2e4331),
    ("R@980 l1-str+", 0xfad871e4e2393fb1),
    ("2+2W@C2075 l1-str+", 0xb22ec82e9e65d091),
    ("2+2W@Titan l1-str+", 0x3a68126a402f7fd3),
    ("2+2W@980 l1-str+", 0x0c9d67318418deb6),
    ("WRC@C2075 l1-str+", 0x2f4958ad00666495),
    ("WRC@Titan l1-str+", 0x0506348941de4b72),
    ("WRC@980 l1-str+", 0x7468115bbffc8c16),
    ("RWC@C2075 l1-str+", 0x7939dd5b050569b5),
    ("RWC@Titan l1-str+", 0xc69af648b5438ab3),
    ("RWC@980 l1-str+", 0x71219b61095d93b4),
    ("ISA2@C2075 l1-str+", 0xb46365a32acdf9f7),
    ("ISA2@Titan l1-str+", 0x62cf9024f9a7b913),
    ("ISA2@980 l1-str+", 0x8be8b61f55a03850),
    ("IRIW@C2075 l1-str+", 0xdd84fc1654899956),
    ("IRIW@Titan l1-str+", 0x81c41c03f2c64813),
    ("IRIW@980 l1-str+", 0x3cbe3edf6e58cdf6),
    ("CoRR@C2075 l1-str+", 0xbf3febec2e87d654),
    ("CoRR@Titan l1-str+", 0xa91fa3d472757550),
    ("CoRR@980 l1-str+", 0xd764ef1a0de11753),
    ("CoWW@C2075 l1-str+", 0x03cc23f71373907e),
    ("CoWW@Titan l1-str+", 0x03cc23f71373907e),
    ("CoWW@980 l1-str+", 0x03cc23f71373907e),
    ("MP+fences@C2075 l1-str+", 0x1133fbebd5176fbe),
    ("MP+fences@Titan l1-str+", 0x1133fbebd5176fbe),
    ("MP+fences@980 l1-str+", 0xdfd59a1495495952),
    ("SB+fences@C2075 l1-str+", 0x88887e403dd7b5df),
    ("SB+fences@Titan l1-str+", 0x44257526a48162d2),
    ("SB+fences@980 l1-str+", 0x44257526a48162d2),
    ("MP.shared@C2075 l1-str+", 0xe92ff7db4bb0f5d0),
    ("MP.shared@Titan l1-str+", 0xeaaaf0d5ac23b3d0),
    ("MP.shared@980 l1-str+", 0xff503ff307c356d4),
    ("SB.shared@C2075 l1-str+", 0xc029d2c78307c6f1),
    ("SB.shared@Titan l1-str+", 0x51247e98f7711475),
    ("SB.shared@980 l1-str+", 0x01c878b74e29f773),
    ("CoRR.shared@C2075 l1-str+", 0x4cee650d0716dd55),
    ("CoRR.shared@Titan l1-str+", 0x8f8e06c641c18294),
    ("CoRR.shared@980 l1-str+", 0xa91fa3d472757550),
    ("MP+CAS@C2075 l1-str+", 0x189c6474de03ff35),
    ("MP+CAS@Titan l1-str+", 0xd6e143b87d403d70),
    ("MP+CAS@980 l1-str+", 0x97eda9ab3c1378b3),
    ("2+2W.exch@C2075 l1-str+", 0xf7bd1d4d201ef251),
    ("2+2W.exch@Titan l1-str+", 0x75d9a27416c87695),
    ("2+2W.exch@980 l1-str+", 0xee1e3bf5c6868ef3),
    ("CoAdd@C2075 l1-str+", 0x4909667de1680bb3),
    ("CoAdd@Titan l1-str+", 0x5e8f6198f4e25f73),
    ("CoAdd@980 l1-str+", 0x068aefe219c319f3),
    ("MP.shared+fence_block@C2075 l1-str+", 0xdfd59a1495495952),
    ("MP.shared+fence_block@Titan l1-str+", 0x43e44b3292106710),
    ("MP.shared+fence_block@980 l1-str+", 0x768eb768d06d90b2),
    ("SB.shared+fence_block@C2075 l1-str+", 0x88887e403dd7b5df),
    ("SB.shared+fence_block@Titan l1-str+", 0x01c878b74e29f773),
    ("SB.shared+fence_block@980 l1-str+", 0xa0f2e7e1587cf731),
    ("MP.mixed@C2075 l1-str+", 0xd016f82e0bbe5ad0),
    ("MP.mixed@Titan l1-str+", 0x721b375e1e63fcd0),
    ("MP.mixed@980 l1-str+", 0xa91fa3d472757550),
    ("ISA2.scoped@C2075 l1-str+", 0x32a6b9fa99b10552),
    ("ISA2.scoped@Titan l1-str+", 0x32eab11d5465f236),
    ("ISA2.scoped@980 l1-str+", 0xebce8d9888987a56),
    ("WRC+fences@C2075 l1-str+", 0x111db38fb7d74492),
    ("WRC+fences@Titan l1-str+", 0xa1b00d7d5c174191),
    ("WRC+fences@980 l1-str+", 0x111db38fb7d74492),
    ("ISA2+fences@C2075 l1-str+", 0x162f602d19324a7f),
    ("ISA2+fences@Titan l1-str+", 0x162f602d19324a7f),
    ("ISA2+fences@980 l1-str+", 0x6922254692f68a12),
    ("IRIW+fences@C2075 l1-str+", 0xa1d452f874406cb7),
    ("IRIW+fences@Titan l1-str+", 0xbfcecf84252e4bb7),
    ("IRIW+fences@980 l1-str+", 0xcf493b025ad665b5),
    ("CoRR+fence@C2075 l1-str+", 0x45a06e2104f420d2),
    ("CoRR+fence@Titan l1-str+", 0xd016f82e0bbe5ad0),
    ("CoRR+fence@980 l1-str+", 0x45a06e2104f420d2),
    ("MP@Titan rand-str+", 0xff503ff307c356d4),
    ("MP@C2075 rand-str+", 0x31ee57f86f622510),
    ("MP@980 rand-str+", 0xbf3febec2e87d654),
    ("LB@Titan rand-str+", 0x90a8096f382d7551),
    ("LB@C2075 rand-str+", 0xd9a2691faeed2fd1),
    ("LB@980 rand-str+", 0x32dbc37c94d9e311),
    ("SB@Titan rand-str+", 0x2aad19952696abb1),
    ("SB@C2075 rand-str+", 0xeb5637eb4232d3d4),
    ("SB@980 rand-str+", 0x209006f07f463111),
    ("S@Titan rand-str+", 0xbb9cb866f089a952),
    ("S@C2075 rand-str+", 0xdfd59a1495495952),
    ("S@980 rand-str+", 0xbb9cb866f089a952),
    ("R@Titan rand-str+", 0xbac45f7db848f5b3),
    ("R@C2075 rand-str+", 0x9cc5787b8a30b737),
    ("R@980 rand-str+", 0xd61962b94474c8b7),
    ("2+2W@Titan rand-str+", 0x7cd14296c26d9b11),
    ("2+2W@C2075 rand-str+", 0xd25dfebcaa607270),
    ("2+2W@980 rand-str+", 0xef17147bd5fb2751),
    ("WRC@Titan rand-str+", 0x4697dd8476f067f2),
    ("WRC@C2075 rand-str+", 0xac0b27c94ec0d015),
    ("WRC@980 rand-str+", 0x4b0069c17daaeb13),
    ("RWC@Titan rand-str+", 0x61b713efb077c737),
    ("RWC@C2075 rand-str+", 0xfd8d8d5bf4d3f072),
    ("RWC@980 rand-str+", 0x77d2372d659b9016),
    ("ISA2@Titan rand-str+", 0x1898e5960293aad5),
    ("ISA2@C2075 rand-str+", 0xe6e28b0340ed0416),
    ("ISA2@980 rand-str+", 0x8336b9125845ea37),
    ("IRIW@Titan rand-str+", 0x2b5f1a1b41ff6c35),
    ("IRIW@C2075 rand-str+", 0x2f82f870b39bdcb5),
    ("IRIW@980 rand-str+", 0xaf90d34d08e8e8b7),
    ("CoRR@Titan rand-str+", 0x42695238319da910),
    ("CoRR@C2075 rand-str+", 0x9b79d084e4f29117),
    ("CoRR@980 rand-str+", 0x0c506351aeb93550),
    ("CoWW@Titan rand-str+", 0x03cc23f71373907e),
    ("CoWW@C2075 rand-str+", 0x03cc23f71373907e),
    ("CoWW@980 rand-str+", 0x03cc23f71373907e),
    ("MP+fences@Titan rand-str+", 0xdfd59a1495495952),
    ("MP+fences@C2075 rand-str+", 0x1133fbebd5176fbe),
    ("MP+fences@980 rand-str+", 0x0dcb5c4c0f2bf350),
    ("SB+fences@Titan rand-str+", 0x88887e403dd7b5df),
    ("SB+fences@C2075 rand-str+", 0x88887e403dd7b5df),
    ("SB+fences@980 rand-str+", 0x88887e403dd7b5df),
    ("MP.shared@Titan rand-str+", 0x7ae8b7a8e621df90),
    ("MP.shared@C2075 rand-str+", 0x0dcb5c4c0f2bf350),
    ("MP.shared@980 rand-str+", 0x3eaabc20ddfe9cd3),
    ("SB.shared@Titan rand-str+", 0xcecd125e9812d553),
    ("SB.shared@C2075 rand-str+", 0xf384cfcb2511b6f1),
    ("SB.shared@980 rand-str+", 0xee179c6f68a0d0b5),
    ("CoRR.shared@Titan rand-str+", 0x0c506351aeb93550),
    ("CoRR.shared@C2075 rand-str+", 0xf10c9706deab1652),
    ("CoRR.shared@980 rand-str+", 0x0c506351aeb93550),
    ("MP+CAS@Titan rand-str+", 0x97eda9ab3c1378b3),
    ("MP+CAS@C2075 rand-str+", 0xa969ba568f5c40b5),
    ("MP+CAS@980 rand-str+", 0x5296829a0cb695b6),
    ("2+2W.exch@Titan rand-str+", 0x75d9a27416c87695),
    ("2+2W.exch@C2075 rand-str+", 0xf03fdb537bc56715),
    ("2+2W.exch@980 rand-str+", 0xd89d2d4781017a95),
    ("CoAdd@Titan rand-str+", 0x7e772c5aa0c61a55),
    ("CoAdd@C2075 rand-str+", 0x4909667de1680bb3),
    ("CoAdd@980 rand-str+", 0x18120b5188834591),
    ("MP.shared+fence_block@Titan rand-str+", 0x0dcb5c4c0f2bf350),
    ("MP.shared+fence_block@C2075 rand-str+", 0xf268f98da27be930),
    ("MP.shared+fence_block@980 rand-str+", 0x43e44b3292106710),
    ("SB.shared+fence_block@Titan rand-str+", 0xee179c6f68a0d0b5),
    ("SB.shared+fence_block@C2075 rand-str+", 0xe37d0b60f4cc2c73),
    ("SB.shared+fence_block@980 rand-str+", 0x3b2813d4e8d22fb1),
    ("MP.mixed@Titan rand-str+", 0xeaaaf0d5ac23b3d0),
    ("MP.mixed@C2075 rand-str+", 0x4cee650d0716dd55),
    ("MP.mixed@980 rand-str+", 0xe92ff7db4bb0f5d0),
    ("ISA2.scoped@Titan rand-str+", 0x2125b9374bf000b5),
    ("ISA2.scoped@C2075 rand-str+", 0x24540b9491fe8d77),
    ("ISA2.scoped@980 rand-str+", 0xb8c6d2b757a8d2f6),
    ("WRC+fences@Titan rand-str+", 0x43f043f732e45591),
    ("WRC+fences@C2075 rand-str+", 0xbe9ae56585d9a552),
    ("WRC+fences@980 rand-str+", 0x9f07a52481841c91),
    ("ISA2+fences@Titan rand-str+", 0x47d32ef17882e032),
    ("ISA2+fences@C2075 rand-str+", 0x162f602d19324a7f),
    ("ISA2+fences@980 rand-str+", 0x47d32ef17882e032),
    ("IRIW+fences@Titan rand-str+", 0x21516b3c61b15933),
    ("IRIW+fences@C2075 rand-str+", 0x06bd9f67e9f55277),
    ("IRIW+fences@980 rand-str+", 0x91e45a09ac0a4833),
    ("CoRR+fence@Titan rand-str+", 0x45a06e2104f420d2),
    ("CoRR+fence@C2075 rand-str+", 0xde5aa11a34d69b52),
    ("CoRR+fence@980 rand-str+", 0x45a06e2104f420d2),
    ("MP.shared@Titan shm+sys-str+", 0x84fbb1e96a2b6d50),
    ("SB.shared@Titan shm+sys-str+", 0x19f14ba685bcba37),
    ("CoRR.shared@Titan shm+sys-str+", 0x69bd7be20b3c2f51),
    ("MP.shared+fence_block@Titan shm+sys-str+", 0x8f8e06c641c18294),
    ("SB.shared+fence_block@Titan shm+sys-str+", 0xd016f82e0bbe5ad0),
    ("MP.mixed@Titan shm+sys-str+", 0x8f73b5e5e69000d6),
    ("ISA2.scoped@Titan shm+sys-str+", 0x387814a4e19607f4),
    ("app K20 sys-str+ cbe-dot 2 7", 0x033d41ffa19c284e),
    ("app Titan sys-str+ cbe-ht 2 7 / runs", 0x75ae495f0c8f912f),
    ("app Titan sys-str+ cbe-dot 2 7 / runs", 0x2af60bae8d96679e),
    ("app Titan sys-str+ ct-octree 2 7 / runs", 0xc3827794cafeedfd),
    ("app Titan sys-str+ tpo-tm 2 7 / runs", 0x2519c014d9e77608),
    ("app Titan sys-str+ sdk-red 2 7 / runs", 0x7d0b5917878ce08b),
    ("app Titan sys-str+ sdk-red-nf 2 7 / runs", 0x0231b43e04dab327),
    ("app Titan sys-str+ cub-scan 2 7 / runs", 0x5ea1c3a1be99f1a7),
    ("app Titan sys-str+ cub-scan-nf 2 7 / runs", 0x6db72e2dfda66bdc),
    ("app Titan sys-str+ ls-bh 2 7 / runs", 0xbb652896f2e281ce),
    ("app Titan sys-str+ ls-bh-nf 2 7 / runs", 0x739e2e69bbc7f315),
    ("app Titan sys-str+ shm-pipe 2 7 / runs", 0x7891dbad60375f21),
    ("app C2075 sys-str+ cbe-ht 2 7 / runs", 0x9316a2f85d182553),
    ("app C2075 sys-str+ cbe-dot 2 7 / runs", 0x9848346f92e7cef9),
    ("app C2075 sys-str+ ct-octree 2 7 / runs", 0xeac70aeda5b29780),
    ("app C2075 sys-str+ tpo-tm 2 7 / runs", 0x7987e7402bc918a8),
    ("app C2075 sys-str+ sdk-red 2 7 / runs", 0x7ed47518e041069c),
    ("app C2075 sys-str+ sdk-red-nf 2 7 / runs", 0x9775bf0ac67508b7),
    ("app C2075 sys-str+ cub-scan 2 7 / runs", 0xf522545fb074de9f),
    ("app C2075 sys-str+ cub-scan-nf 2 7 / runs", 0x35e9cd5cb81ff46c),
    ("app C2075 sys-str+ ls-bh 2 7 / runs", 0x9b4aac6385db29db),
    ("app C2075 sys-str+ ls-bh-nf 2 7 / runs", 0x187a4a62cd9c19b5),
    ("app C2075 sys-str+ shm-pipe 2 7 / runs", 0x51d18b480b6b5488),
    ("app C2075 l1-str+ cbe-ht 2 7 / runs", 0xc0dc6072362866b5),
    ("app C2075 l1-str+ cbe-dot 2 7 / runs", 0x4fba9b20e27404d4),
    ("app C2075 l1-str+ ct-octree 2 7 / runs", 0xbff4f4bdc23fd136),
    ("app C2075 l1-str+ tpo-tm 2 7 / runs", 0x7750dbf96376f3b3),
    ("app C2075 l1-str+ sdk-red 2 7 / runs", 0xaed3648fc3eb31aa),
    ("app C2075 l1-str+ sdk-red-nf 2 7 / runs", 0x314b180e7e0d00de),
    ("app C2075 l1-str+ cub-scan 2 7 / runs", 0x9c9bc9fc4c93fd62),
    ("app C2075 l1-str+ cub-scan-nf 2 7 / runs", 0x6056a82e7ba02c67),
    ("app C2075 l1-str+ ls-bh 2 7 / runs", 0xe3bef6f85acad754),
    ("app C2075 l1-str+ ls-bh-nf 2 7 / runs", 0xdd365c250cf2000c),
    ("app C2075 l1-str+ shm-pipe 2 7 / runs", 0xaba03b203bb767e0),
    ("MP@Titan cache-str-", 0x43e44b3292106710),
    ("MP@C2075 cache-str-", 0x9e816ae471ce94b7),
    ("MP@980 cache-str-", 0xff503ff307c356d4),
    ("LB@Titan cache-str-", 0xd599e2b89e569734),
    ("LB@C2075 cache-str-", 0xf3e3f28802eea730),
    ("LB@980 cache-str-", 0x90a8096f382d7551),
    ("SB@Titan cache-str-", 0xc029d2c78307c6f1),
    ("SB@C2075 cache-str-", 0x1ecadc0ecfb0a0f2),
    ("SB@980 cache-str-", 0x01c878b74e29f773),
    ("S@Titan cache-str-", 0xe80a25c1874a4a12),
    ("S@C2075 cache-str-", 0x4b61eeed586aecd0),
    ("S@980 cache-str-", 0xc9c015f222b23a16),
    ("R@Titan cache-str-", 0x2500997726c30c77),
    ("R@C2075 cache-str-", 0xaceafba964134617),
    ("R@980 cache-str-", 0xfd03fe8a24666b13),
    ("2+2W@Titan cache-str-", 0x9554279d62ebc470),
    ("2+2W@C2075 cache-str-", 0xec937bc3886f6f51),
    ("2+2W@980 cache-str-", 0x0c9d67318418deb6),
    ("WRC@Titan cache-str-", 0xdc171652a64259d3),
    ("WRC@C2075 cache-str-", 0x03de5f0cb4541ad1),
    ("WRC@980 cache-str-", 0x1bc722733cc772d0),
    ("RWC@Titan cache-str-", 0xf1d10eff8372a270),
    ("RWC@C2075 cache-str-", 0x15b6e3fc1a6f5876),
    ("RWC@980 cache-str-", 0x3fb070e4b2c3f5d5),
    ("ISA2@Titan cache-str-", 0xe71b7020080f2b94),
    ("ISA2@C2075 cache-str-", 0x5749ccd0398db3f1),
    ("ISA2@980 cache-str-", 0xf0e6e06684537f70),
    ("IRIW@Titan cache-str-", 0x175a40b85d1417f0),
    ("IRIW@C2075 cache-str-", 0x5fffa3b744beac10),
    ("IRIW@980 cache-str-", 0x82bcf4f5fd088234),
    ("CoRR@Titan cache-str-", 0x0c506351aeb93550),
    ("CoRR@C2075 cache-str-", 0x85f38fcf31fc5dd0),
    ("CoRR@980 cache-str-", 0xa91fa3d472757550),
    ("CoWW@Titan cache-str-", 0x03cc23f71373907e),
    ("CoWW@C2075 cache-str-", 0x03cc23f71373907e),
    ("CoWW@980 cache-str-", 0x03cc23f71373907e),
    ("MP+fences@Titan cache-str-", 0x1133fbebd5176fbe),
    ("MP+fences@C2075 cache-str-", 0x1133fbebd5176fbe),
    ("MP+fences@980 cache-str-", 0x1133fbebd5176fbe),
    ("SB+fences@Titan cache-str-", 0x44257526a48162d2),
    ("SB+fences@C2075 cache-str-", 0x88887e403dd7b5df),
    ("SB+fences@980 cache-str-", 0x44257526a48162d2),
    ("MP.shared@Titan cache-str-", 0x0dcb5c4c0f2bf350),
    ("MP.shared@C2075 cache-str-", 0x0dcb5c4c0f2bf350),
    ("MP.shared@980 cache-str-", 0xde19772622659f90),
    ("SB.shared@Titan cache-str-", 0xc029d2c78307c6f1),
    ("SB.shared@C2075 cache-str-", 0xe37d0b60f4cc2c73),
    ("SB.shared@980 cache-str-", 0x209006f07f463111),
    ("CoRR.shared@Titan cache-str-", 0xe92ff7db4bb0f5d0),
    ("CoRR.shared@C2075 cache-str-", 0x0c506351aeb93550),
    ("CoRR.shared@980 cache-str-", 0xa91fa3d472757550),
    ("MP+CAS@Titan cache-str-", 0x635af114e8d5739b),
    ("MP+CAS@C2075 cache-str-", 0x406afd0567f952d2),
    ("MP+CAS@980 cache-str-", 0x362c87c2e74a46b3),
    ("2+2W.exch@Titan cache-str-", 0x53036626e5fe6b15),
    ("2+2W.exch@C2075 cache-str-", 0xe8f0992e6a9193b5),
    ("2+2W.exch@980 cache-str-", 0xd89d2d4781017a95),
    ("CoAdd@Titan cache-str-", 0x18120b5188834591),
    ("CoAdd@C2075 cache-str-", 0x4909667de1680bb3),
    ("CoAdd@980 cache-str-", 0x18120b5188834591),
    ("MP.shared+fence_block@Titan cache-str-", 0x768eb768d06d90b2),
    ("MP.shared+fence_block@C2075 cache-str-", 0x5852640daec89bd2),
    ("MP.shared+fence_block@980 cache-str-", 0x0dcb5c4c0f2bf350),
    ("SB.shared+fence_block@Titan cache-str-", 0xd7f75457ac8e6fb1),
    ("SB.shared+fence_block@C2075 cache-str-", 0xfe885d15d7b878b0),
    ("SB.shared+fence_block@980 cache-str-", 0x3b0436813b5eb371),
    ("MP.mixed@Titan cache-str-", 0x8f8e06c641c18294),
    ("MP.mixed@C2075 cache-str-", 0x8f8e06c641c18294),
    ("MP.mixed@980 cache-str-", 0xff503ff307c356d4),
    ("ISA2.scoped@Titan cache-str-", 0xc3b30dd819ea3136),
    ("ISA2.scoped@C2075 cache-str-", 0xe24e641ac137bd16),
    ("ISA2.scoped@980 cache-str-", 0xf0e6e06684537f70),
    ("WRC+fences@Titan cache-str-", 0x6a99bfca3b2c8e70),
    ("WRC+fences@C2075 cache-str-", 0x6922254692f68a12),
    ("WRC+fences@980 cache-str-", 0x111db38fb7d74492),
    ("ISA2+fences@Titan cache-str-", 0x47d32ef17882e032),
    ("ISA2+fences@C2075 cache-str-", 0x162f602d19324a7f),
    ("ISA2+fences@980 cache-str-", 0x47d32ef17882e032),
    ("IRIW+fences@Titan cache-str-", 0xa6abd0a203650a37),
    ("IRIW+fences@C2075 cache-str-", 0x51b376430a38b437),
    ("IRIW+fences@980 cache-str-", 0xe6b956196361e512),
    ("CoRR+fence@Titan cache-str-", 0xde5aa11a34d69b52),
    ("CoRR+fence@C2075 cache-str-", 0xd191f1286c3118d0),
    ("CoRR+fence@980 cache-str-", 0xd016f82e0bbe5ad0),
    ("app K20 sys-str+ cbe-ht 4 7", 0x2a4616ebd638dea8),
    ("app K20 no-str- shm-pipe 2 7", 0xe1ee4baa87287e6e),
    ("app Titan cache-str- cbe-ht 2 7 / runs", 0x3274268640966710),
    ("app Titan cache-str- cbe-dot 2 7 / runs", 0xbe02ae37051d94cb),
    ("app Titan cache-str- ct-octree 2 7 / runs", 0x9bf5cf0f2c21dd17),
    ("app Titan cache-str- tpo-tm 2 7 / runs", 0xd6752493d9b00667),
    ("app Titan cache-str- sdk-red 2 7 / runs", 0x8483ece2ccc9a1de),
    ("app Titan cache-str- sdk-red-nf 2 7 / runs", 0x9dea49b18db461ed),
    ("app Titan cache-str- cub-scan 2 7 / runs", 0xcd74575a19613f47),
    ("app Titan cache-str- cub-scan-nf 2 7 / runs", 0xda4b36584f8e2330),
    ("app Titan cache-str- ls-bh 2 7 / runs", 0x7ec962f95046a5cf),
    ("app Titan cache-str- ls-bh-nf 2 7 / runs", 0x7828f475e2f33085),
    ("app Titan cache-str- shm-pipe 2 7 / runs", 0xc7d5ab2b3de995f0),
    ("app C2075 cache-str- cbe-ht 2 7 / runs", 0x968d31d775237d4e),
    ("app C2075 cache-str- cbe-dot 2 7 / runs", 0xe99a9123d833fabe),
    ("app C2075 cache-str- ct-octree 2 7 / runs", 0x1946d9c6eb29f0f6),
    ("app C2075 cache-str- tpo-tm 2 7 / runs", 0x39fa82b6b6f8c3a7),
    ("app C2075 cache-str- sdk-red 2 7 / runs", 0x7bf9b7f412508514),
    ("app C2075 cache-str- sdk-red-nf 2 7 / runs", 0x58f3681fc8f2590a),
    ("app C2075 cache-str- cub-scan 2 7 / runs", 0x68ce6fabc2e57174),
    ("app C2075 cache-str- cub-scan-nf 2 7 / runs", 0xbdb2c214d73b2707),
    ("app C2075 cache-str- ls-bh 2 7 / runs", 0xaff4634cc3d6b3ee),
    ("app C2075 cache-str- ls-bh-nf 2 7 / runs", 0xd0cd86b8502da1fd),
    ("app C2075 cache-str- shm-pipe 2 7 / runs", 0xadd1a5fb8632084a),
];

/// Recorded before the lane-by-lane memory step skipped the bypass scans
/// a one-line window cannot pass (the `cache-str-` rows joined later on
/// an unchanged model); every later change must reproduce it bit for
/// bit.
#[rustfmt::skip]
const WORK_GOLDEN: &[(&str, u64)] = &[
    ("MP@Titan sys-str+ / runs", 0xa1c95773f1f692ad),
    ("SB@Titan sys-str+ / runs", 0xccabc0cdc0740e50),
    ("CoRR@Titan sys-str+ / runs", 0xf448ea4ecf9a6dd7),
    ("MP+fences@Titan sys-str+ / runs", 0x45386222ffefecde),
    ("MP@Titan rand-str+ / runs", 0xcefafe29fdf568c6),
    ("SB@Titan rand-str+ / runs", 0xc79e303e6e452d0b),
    ("MP.shared@Titan shm+sys-str+ / runs", 0xc8eb5b6fe9e98e7d),
    ("MP.shared+fence_block@Titan shm+sys-str+ / runs", 0x7e26fcf783b1bdbe),
    ("MP.mixed@Titan shm+sys-str+ / runs", 0x403c830900aedece),
    ("CoRR@C2075 l1-str+ / runs", 0x62ee5481f7887595),
    ("MP@C2075 l1-str+ / runs", 0xf2052567890382f0),
    ("CoRR+fence@C2075 l1-str+ / runs", 0x300dc0a11625bd27),
    ("MP@Titan cache-str- / runs", 0x269a496858c4e176),
    ("SB@Titan cache-str- / runs", 0x35db6398b5475a07),
];

/// Recorded before the analyzer moved to inline value sets and a flat
/// fixpoint table; every later change must reproduce it bit for bit.
#[rustfmt::skip]
const ANALYSIS_GOLDEN: &[(&str, u64)] = &[
    ("analyze MP", 0x55bd0da55a3e1489),
    ("analyze MP@Titan", 0x55bd0da55a3e1489),
    ("analyze MP@C2075", 0x55bd0da55a3e1489),
    ("analyze LB", 0xae7ff34a793b4ea7),
    ("analyze LB@Titan", 0xae7ff34a793b4ea7),
    ("analyze LB@C2075", 0xae7ff34a793b4ea7),
    ("analyze SB", 0x85605e3e19e6fd8d),
    ("analyze SB@Titan", 0x85605e3e19e6fd8d),
    ("analyze SB@C2075", 0x85605e3e19e6fd8d),
    ("analyze S", 0x4a0fd7f4ac93167b),
    ("analyze S@Titan", 0x4a0fd7f4ac93167b),
    ("analyze S@C2075", 0x4a0fd7f4ac93167b),
    ("analyze R", 0xe9eb99ab6b98f277),
    ("analyze R@Titan", 0xe9eb99ab6b98f277),
    ("analyze R@C2075", 0xe9eb99ab6b98f277),
    ("analyze 2+2W", 0x4e27055e4fb4c0f5),
    ("analyze 2+2W@Titan", 0x4e27055e4fb4c0f5),
    ("analyze 2+2W@C2075", 0x4e27055e4fb4c0f5),
    ("analyze WRC", 0x02d485bb440c527d),
    ("analyze WRC@Titan", 0x02d485bb440c527d),
    ("analyze WRC@C2075", 0x02d485bb440c527d),
    ("analyze RWC", 0x26eedc91932dc38e),
    ("analyze RWC@Titan", 0x26eedc91932dc38e),
    ("analyze RWC@C2075", 0x26eedc91932dc38e),
    ("analyze ISA2", 0xf3407241c8cc9abc),
    ("analyze ISA2@Titan", 0xf3407241c8cc9abc),
    ("analyze ISA2@C2075", 0xf3407241c8cc9abc),
    ("analyze IRIW", 0x01619fbe6c1880f3),
    ("analyze IRIW@Titan", 0x01619fbe6c1880f3),
    ("analyze IRIW@C2075", 0x01619fbe6c1880f3),
    ("analyze CoRR", 0xbc78ff282e5d7ad1),
    ("analyze CoRR@Titan", 0xbc78ff282e5d7ad1),
    ("analyze CoRR@C2075", 0xace5476c7d3fc20f),
    ("analyze CoWW", 0x113935f3eb7524ef),
    ("analyze CoWW@Titan", 0x113935f3eb7524ef),
    ("analyze CoWW@C2075", 0x113935f3eb7524ef),
    ("analyze MP+fences", 0x941c5e39924b6153),
    ("analyze MP+fences@Titan", 0x941c5e39924b6153),
    ("analyze MP+fences@C2075", 0x941c5e39924b6153),
    ("analyze SB+fences", 0xefa1632874224481),
    ("analyze SB+fences@Titan", 0xefa1632874224481),
    ("analyze SB+fences@C2075", 0xefa1632874224481),
    ("analyze MP.shared", 0x21543e6fc55d9dcd),
    ("analyze MP.shared@Titan", 0x21543e6fc55d9dcd),
    ("analyze MP.shared@C2075", 0x21543e6fc55d9dcd),
    ("analyze SB.shared", 0x2db94f145caee33f),
    ("analyze SB.shared@Titan", 0x2db94f145caee33f),
    ("analyze SB.shared@C2075", 0x2db94f145caee33f),
    ("analyze CoRR.shared", 0xf93e3fd6a4657921),
    ("analyze CoRR.shared@Titan", 0xf93e3fd6a4657921),
    ("analyze CoRR.shared@C2075", 0xf93e3fd6a4657921),
    ("analyze MP+CAS", 0x0f9da21448fa11a4),
    ("analyze MP+CAS@Titan", 0x0f9da21448fa11a4),
    ("analyze MP+CAS@C2075", 0x0f9da21448fa11a4),
    ("analyze 2+2W.exch", 0x98c82f042951ed6b),
    ("analyze 2+2W.exch@Titan", 0x98c82f042951ed6b),
    ("analyze 2+2W.exch@C2075", 0x98c82f042951ed6b),
    ("analyze CoAdd", 0x83b61606b7c9a3c4),
    ("analyze CoAdd@Titan", 0x83b61606b7c9a3c4),
    ("analyze CoAdd@C2075", 0x83b61606b7c9a3c4),
    ("analyze MP.shared+fence_block", 0x7c7404cd44e1fd0f),
    ("analyze MP.shared+fence_block@Titan", 0x7c7404cd44e1fd0f),
    ("analyze MP.shared+fence_block@C2075", 0x7c7404cd44e1fd0f),
    ("analyze SB.shared+fence_block", 0x35c9325693b01e43),
    ("analyze SB.shared+fence_block@Titan", 0x35c9325693b01e43),
    ("analyze SB.shared+fence_block@C2075", 0x35c9325693b01e43),
    ("analyze MP.mixed", 0xd553d86902da6575),
    ("analyze MP.mixed@Titan", 0xd553d86902da6575),
    ("analyze MP.mixed@C2075", 0xd553d86902da6575),
    ("analyze ISA2.scoped", 0xf8fd94dfedc5de44),
    ("analyze ISA2.scoped@Titan", 0xf8fd94dfedc5de44),
    ("analyze ISA2.scoped@C2075", 0xf8fd94dfedc5de44),
    ("analyze WRC+fences", 0x62153a489fca3716),
    ("analyze WRC+fences@Titan", 0x62153a489fca3716),
    ("analyze WRC+fences@C2075", 0x62153a489fca3716),
    ("analyze ISA2+fences", 0x1f7121c2631fe0ff),
    ("analyze ISA2+fences@Titan", 0x1f7121c2631fe0ff),
    ("analyze ISA2+fences@C2075", 0x1f7121c2631fe0ff),
    ("analyze IRIW+fences", 0x4e777264dd8e5aa6),
    ("analyze IRIW+fences@Titan", 0x4e777264dd8e5aa6),
    ("analyze IRIW+fences@C2075", 0x4e777264dd8e5aa6),
    ("analyze CoRR+fence", 0x7b24a962a17e5dbe),
    ("analyze CoRR+fence@Titan", 0x7b24a962a17e5dbe),
    ("analyze CoRR+fence@C2075", 0x566541fc740a90d0),
    ("analyze app cbe-ht", 0xf0928e982bbcdecc),
    ("analyze app cbe-dot", 0x664b7f16419051d6),
    ("analyze app ct-octree", 0x0ccb0743ace18ac8),
    ("analyze app tpo-tm", 0xea9da8f9d624b25b),
    ("analyze app sdk-red", 0xd6e6e1b7f282ce39),
    ("analyze app sdk-red-nf", 0x7e9e8c31a0b4dac3),
    ("analyze app cub-scan", 0xa107059a4f3c1f60),
    ("analyze app cub-scan-nf", 0x0bc2a1b537a02f50),
    ("analyze app ls-bh", 0x509d483e9de07551),
    ("analyze app ls-bh-nf", 0x617f02bb8c4c1004),
    ("analyze app shm-pipe", 0x69741f3068c8e9e0),
];
