//! `repro trace` — replay one campaign with a bounded structured event
//! log, for answering "*why* did this cell go weak?" run by run.
//!
//! Replays a single `(shape, chip, environment)` campaign sequentially
//! through [`wmm_core::campaign::Campaign::run_litmus_observed`] — the
//! observed replay is bit-identical to the parallel campaign at any
//! worker count — on the suite's litmus scratchpad
//! ([`wmm_core::suite::litmus_pad`]) at the seed of the matching cell
//! of any `repro suite` run that lists CHIP first
//! ([`wmm_core::suite::cell_seed`]: the shape's position in the
//! catalogue, chip 0, and the environment's column among the default
//! strategies), and records one [`TraceEvent`] per execution
//! into a fixed-capacity ring buffer ([`wmm_obs::EventLog`], 256
//! events): the run index, the observed register values, the weak
//! verdict, and the weakness channels that fired during that run. The
//! printed table shows the buffered weak runs (the ones the provenance
//! column explains); `--json PATH` writes every buffered event.
//!
//! Everything this subcommand prints is deterministic in
//! `(shape, chip, env, execs, seed)` — there is no wall-clock anywhere
//! on this path.

use crate::suite::default_strategies;
use crate::{Failure, JsonFile, Scale};
use wmm_core::cache::ArtifactKey;
use wmm_core::campaign::CampaignBuilder;
use wmm_core::env::EnvKind;
use wmm_core::suite::{cell_seed, litmus_pad};
use wmm_gen::{Placement, Shape};
use wmm_litmus::LitmusLayout;
use wmm_obs::{ChannelCounts, EventLog, Json};
use wmm_sim::chip::Chip;

/// Ring-buffer capacity of the trace event log. A bound, not a budget:
/// a million-execution replay keeps the *last* 256 events and reports
/// how many it dropped.
pub const EVENT_CAPACITY: usize = 256;

/// Layout distance traced instances use (the suite's standard cell).
const DISTANCE: u32 = 64;

/// One traced execution.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Run index within the campaign (the seed derivation input).
    pub run: u64,
    /// Observed register values, in litmus observer order.
    pub obs: Vec<u32>,
    /// Whether the observation falls outside the SC-reachable set.
    pub weak: bool,
    /// The weakness channels that fired during this run (a channel can
    /// fire without the run going weak — stress keeps the window busy
    /// even when the final observation is SC).
    pub channels: ChannelCounts,
}

/// The full result of one traced replay.
pub struct TraceReport {
    /// Shape short name.
    pub shape: String,
    /// Chip short name.
    pub chip: String,
    /// Environment (suite strategy) name.
    pub env: String,
    /// The campaign histogram, bit-identical to the cell of any `repro
    /// suite` run (without `--placement`) whose chip list starts with
    /// CHIP, for the same shape, environment, execs and seed.
    pub hist: wmm_litmus::Histogram,
    /// The bounded event log (most recent `EVENT_CAPACITY` runs).
    pub events: EventLog<TraceEvent>,
    /// Executions and base seed the replay ran at.
    pub execs: u32,
    /// Base seed (the suite's `--seed`; the replay runs at the cell's
    /// seed derived from it).
    pub seed: u64,
}

/// Resolve the environment column's index among the default suite
/// strategies ([`EnvKind::ALL`]): an explicit `--env NAME` must name
/// one of them; otherwise the default is the column under which the
/// shape's placement actually relaxes (`shm+sys-str+` for intra-block
/// rows, `sys-str+` for the rest).
fn resolve_env(shape: Shape, env: Option<&str>) -> Result<usize, String> {
    let kind = match env {
        Some(name) => name.parse()?,
        None => match shape.placement() {
            Placement::IntraBlock => EnvKind::ShmSysStrPlus,
            Placement::InterBlock => EnvKind::SysStrPlus,
        },
    };
    Ok(EnvKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every environment"))
}

/// Replay the suite cell of `shape` on `chip` under default column
/// `column` and collect the trace.
pub fn trace(shape: Shape, chip: &Chip, column: usize, scale: Scale) -> TraceReport {
    let strategy = &default_strategies()[column];
    let row = Shape::ALL
        .iter()
        .position(|&s| s == shape)
        .expect("every shape is in the catalogue");
    let pad = litmus_pad();
    let inst = shape.instance(LitmusLayout::standard(DISTANCE, pad.required_words()));
    let artifacts =
        ArtifactKey::new(chip, &strategy.environment(chip), pad, strategy.iters).build();
    let mut events = EventLog::new(EVENT_CAPACITY);
    let hist = CampaignBuilder::new(chip)
        .stress(artifacts)
        .randomize_ids(strategy.randomize)
        .count(scale.execs)
        .base_seed(cell_seed(scale.seed, row, DISTANCE, 0, column))
        .build()
        .run_litmus_observed(&inst, |run, outcome| {
            events.push(TraceEvent {
                run,
                obs: outcome.obs.clone(),
                weak: outcome.weak,
                channels: outcome.channels,
            });
        });
    TraceReport {
        shape: shape.short().to_string(),
        chip: chip.short.to_string(),
        env: strategy.env.name().to_string(),
        hist,
        events,
        execs: scale.execs,
        seed: scale.seed,
    }
}

impl TraceReport {
    /// The report as a JSON document: the cell and its totals, then
    /// every buffered event, one per line.
    pub fn to_json(&self) -> Json {
        let events = self.events.iter().map(|e| {
            Json::Object(vec![
                ("run", e.run.into()),
                ("obs", e.obs.iter().copied().collect()),
                ("weak", e.weak.into()),
                ("channels", e.channels.to_json()),
            ])
        });
        Json::Object(vec![
            ("shape", self.shape.as_str().into()),
            ("chip", self.chip.as_str().into()),
            ("env", self.env.as_str().into()),
            ("execs", self.execs.into()),
            ("seed", self.seed.into()),
            ("weak", self.hist.weak().into()),
            ("total", self.hist.total().into()),
            ("channels", self.hist.channels().to_json()),
            ("provenance", self.hist.provenance_total().to_json()),
            ("dropped", self.events.dropped().into()),
            ("events", events.collect()),
        ])
    }
}

fn print_report(r: &TraceReport) {
    println!(
        "Trace: {} on {} under {} — {} execs, seed {}, event ring {}",
        r.shape, r.chip, r.env, r.execs, r.seed, EVENT_CAPACITY
    );
    println!("(deterministic replay; bit-identical to the parallel campaign)\n");
    let weak_events: Vec<&TraceEvent> = r.events.iter().filter(|e| e.weak).collect();
    if weak_events.is_empty() {
        println!("no weak executions in the buffered window");
    } else {
        println!("{:>8} {:>20} channels fired", "run", "obs");
        for e in &weak_events {
            let obs = e.obs.iter().copied().collect::<Json>().to_string();
            println!("{:>8} {obs:>20} {}", e.run, e.channels);
        }
    }
    if r.events.dropped() > 0 {
        println!(
            "({} earlier event(s) dropped by the {}-event ring)",
            r.events.dropped(),
            EVENT_CAPACITY
        );
    }
    println!(
        "\n{}/{} weak; channels: {}; provenance: {}",
        r.hist.weak(),
        r.hist.total(),
        r.hist.channels(),
        r.hist.provenance_total()
    );
}

/// `repro trace <shape>` entry point: resolve the shape (short name,
/// as in `repro analyze`), the chip (`--chips`, first chip; default
/// Titan), and the environment (`--env`, default by placement), create
/// the `--json` file if asked, replay, print, and write the JSON. An
/// unknown shape or environment is a [`Failure::Usage`], an unwritable
/// path a [`Failure::Write`] before the replay.
pub fn run(
    target: &str,
    chips: Option<Vec<Chip>>,
    env: Option<&str>,
    scale: Scale,
    json_path: Option<&str>,
) -> Result<(), Failure> {
    let shape: Shape = target
        .parse()
        .map_err(|_| format!("unknown trace target `{target}` (want a shape short name)"))?;
    let chip = chips
        .and_then(|c| c.into_iter().next())
        .unwrap_or_else(|| Chip::by_short("Titan").expect("chip"));
    let column = resolve_env(shape, env)?;
    let out = json_path.map(JsonFile::create).transpose()?;
    let report = trace(shape, &chip, column, scale);
    print_report(&report);
    out.map_or(Ok(()), |out| out.write(&report.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(execs: u32, seed: u64) -> Scale {
        Scale {
            execs,
            seed,
            ..Scale::quick()
        }
    }

    /// The default column named `env`.
    fn column(env: &str) -> usize {
        resolve_env(Shape::Mp, Some(env)).unwrap()
    }

    #[test]
    fn trace_replays_the_suite_cell() {
        let gtx980 = Chip::by_short("980").unwrap();
        for (shape, chip, env) in [
            (Shape::Mp, "Titan", "sys-str+"),
            (Shape::CoRR, "C2075", "l1-str+"),
        ] {
            let chip = Chip::by_short(chip).unwrap();
            let r = trace(shape, &chip, column(env), quick(24, 2016));
            assert!(
                r.hist.weak() > 0,
                "{shape}@{} {env}: {}",
                chip.short,
                r.hist
            );
            // The matching cell of `repro suite`, whether the chip runs
            // alone or with the 980 after it.
            for chips in [vec![chip.clone()], vec![chip.clone(), gtx980.clone()]] {
                let n = chips.len();
                let cells = crate::suite::run(Some(chips), None, quick(24, 2016), false);
                let cell = cells
                    .iter()
                    .find(|c| c.shape == shape && c.chip == chip.short && c.strategy == env)
                    .unwrap();
                assert_eq!(
                    r.hist, cell.hist,
                    "{shape}@{} {env} among {n} chip(s)",
                    chip.short
                );
            }
        }
    }

    #[test]
    fn trace_logs_every_run() {
        let chip = Chip::by_short("Titan").unwrap();
        let column = resolve_env(Shape::Mp, None).unwrap();
        assert_eq!(default_strategies()[column].env.name(), "sys-str+");
        let r = trace(Shape::Mp, &chip, column, quick(24, 2016));
        assert_eq!(r.hist.total(), 24);
        assert!(
            r.hist.weak() > 0,
            "MP under sys-str+ must go weak: {}",
            r.hist
        );
        assert_eq!(r.events.len(), 24, "every run under capacity is kept");
        assert_eq!(r.events.dropped(), 0);
        // The buffered weak events agree with the histogram's count.
        let weak_events = r.events.iter().filter(|e| e.weak).count() as u64;
        assert_eq!(weak_events, r.hist.weak());
        // Replays are deterministic.
        let again = trace(Shape::Mp, &chip, column, quick(24, 2016));
        assert_eq!(r.hist, again.hist);
        let runs: Vec<u64> = r.events.iter().map(|e| e.run).collect();
        let runs2: Vec<u64> = again.events.iter().map(|e| e.run).collect();
        assert_eq!(runs, runs2);
    }

    #[test]
    fn trace_ring_drops_the_oldest_runs() {
        let chip = Chip::by_short("Titan").unwrap();
        let execs = (EVENT_CAPACITY + 10) as u32;
        let r = trace(Shape::Mp, &chip, column("no-str-"), quick(execs, 1));
        assert_eq!(r.events.len(), EVENT_CAPACITY);
        assert_eq!(r.events.dropped(), 10);
        // The ring keeps the most recent runs.
        assert_eq!(r.events.iter().next().unwrap().run, 10);
    }

    #[test]
    fn scoped_shapes_default_to_the_shared_stress_column() {
        let column = resolve_env(Shape::MpShared, None).unwrap();
        assert_eq!(default_strategies()[column].env.name(), "shm+sys-str+");
        assert!(resolve_env(Shape::Mp, Some("nope")).is_err());
    }

    #[test]
    fn trace_json_carries_channels_and_events() {
        let chip = Chip::by_short("C2075").unwrap();
        let r = trace(Shape::CoRR, &chip, column("l1-str+"), quick(24, 2016));
        assert!(r.hist.weak() > 0, "CoRR@C2075 under l1-str+: {}", r.hist);
        // The structural channel is what fired.
        assert!(r.hist.channels().l1_stale > 0);
        assert!(r.hist.provenance_total().l1_stale > 0);
        let j = r.to_json().render();
        assert_eq!(j.matches("\n    {\"run\": ").count(), 24);
    }

    #[test]
    fn trace_renders_the_recorded_bytes() {
        let chip = Chip::by_short("C2075").unwrap();
        let r = trace(Shape::CoRR, &chip, column("l1-str+"), quick(4, 2016));
        let expected = r#"{
  "shape": "CoRR",
  "chip": "C2075",
  "env": "l1-str+",
  "execs": 4,
  "seed": 2016,
  "weak": 1,
  "total": 4,
  "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 9, "fence_inval": 0, "atomic_read_through": 8},
  "provenance": {"window_global": 0, "window_shared": 0, "l1_stale": 1, "atomic_read_through": 0, "fence_inval": 0, "unattributed": 0},
  "dropped": 0,
  "events": [
    {"run": 0, "obs": [1, 0], "weak": true, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 2, "fence_inval": 0, "atomic_read_through": 2}},
    {"run": 1, "obs": [0, 0], "weak": false, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 4, "fence_inval": 0, "atomic_read_through": 2}},
    {"run": 2, "obs": [0, 0], "weak": false, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 1, "fence_inval": 0, "atomic_read_through": 2}},
    {"run": 3, "obs": [0, 0], "weak": false, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 2, "fence_inval": 0, "atomic_read_through": 2}}
  ]
}
"#;
        assert_eq!(r.to_json().render(), expected);
    }

    #[test]
    fn run_rejects_unknown_targets_and_envs() {
        let scale = quick(4, 1);
        assert!(run("nope", None, None, scale, None).is_err());
        assert!(run("MP", None, Some("bogus"), scale, None).is_err());
    }
}
