//! Engine-vs-standalone equivalence: a campaign result coming off the
//! job queue must be **bit-identical** to running the same spec
//! standalone — regardless of worker count, submission order, or
//! whether the job's stress artifacts were a cache hit.
//!
//! The baseline is `JobSpec::execute(1, None)`: one job, no queue, no
//! pool, freshly built artifacts. Every engine configuration under test
//! (workers {1, 2, 8} × shuffled submission orders) must reproduce that
//! baseline per job, and the aggregate results digest must be a pure
//! function of the job set.
//!
//! The last property feeds generated job text, mostly valid and partly
//! malformed, through the parser and an engine: no input may panic
//! either one.

use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::env::AppHarness;
use gpu_wmm::core::suite::{cell_seed, run_suite_with_cache, SuiteConfig, SuiteStrategy};
use gpu_wmm::gen::Shape;
use gpu_wmm::server::soak::results_digest;
use gpu_wmm::server::{parse_jobs, serve, Engine, EngineConfig, EnvKind, JobSpec, WorkloadSpec};
use gpu_wmm::sim::chip::Chip;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A small but representative batch: litmus jobs across chips,
/// environments (including the rand-str and shared-memory ones, whose
/// artifact handling is the trickiest) and shapes, plus application
/// jobs — every workload kind the queue can carry. Each application
/// runs on both chips under two environments, so every (chip,
/// application) pair repeats: later jobs read a memoized calibration,
/// and at 8 workers first lookups race on cold keys.
fn job_set() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let envs = [
        EnvKind::Native,
        EnvKind::SysStrPlus,
        EnvKind::RandStrPlus,
        EnvKind::ShmSysStrPlus,
        EnvKind::L1StrPlus,
    ];
    for (ci, chip) in ["Titan", "C2075"].iter().enumerate() {
        for (ki, env) in envs.iter().enumerate() {
            for (si, shape) in [Shape::Mp, Shape::CoRR, Shape::MpShared].iter().enumerate() {
                jobs.push(JobSpec {
                    chip: (*chip).to_string(),
                    env: *env,
                    workload: WorkloadSpec::Litmus {
                        shape: *shape,
                        distance: 64,
                    },
                    execs: 8,
                    seed: 0x5EED ^ ((ci as u64) << 16 | (ki as u64) << 8 | si as u64),
                });
            }
        }
    }
    for (ai, app) in ["shm-pipe", "cbe-dot"].iter().enumerate() {
        for (ci, chip) in ["Titan", "C2075"].iter().enumerate() {
            for (ki, env) in [EnvKind::SysStrPlus, EnvKind::Native].iter().enumerate() {
                jobs.push(JobSpec {
                    chip: (*chip).to_string(),
                    env: *env,
                    workload: WorkloadSpec::App {
                        name: (*app).to_string(),
                    },
                    execs: 4,
                    seed: 0xA44 + ai as u64 + ((ci as u64) << 12 | (ki as u64) << 8),
                });
            }
        }
    }
    jobs
}

/// Standalone baseline: each job executed alone, uncached.
fn baseline(jobs: &[JobSpec]) -> HashMap<String, u64> {
    jobs.iter()
        .map(|j| {
            (
                j.to_string(),
                j.execute(1, None).expect("standalone execution").digest(),
            )
        })
        .collect()
}

fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// Serve a batch and index the result digests by spec. The engine
/// calibrates once per distinct (chip, application) pair.
fn engine_digests(jobs: &[JobSpec], workers: usize) -> HashMap<String, u64> {
    let batch = serve(jobs.to_vec(), workers).expect("valid batch");
    assert_eq!(batch.results.len(), jobs.len());
    let app_pairs: HashSet<(&str, &str)> = jobs
        .iter()
        .filter_map(|j| match &j.workload {
            WorkloadSpec::App { name } => Some((j.chip.as_str(), name.as_str())),
            WorkloadSpec::Litmus { .. } => None,
        })
        .collect();
    assert_eq!(
        batch.cache.calibrations,
        app_pairs.len() as u64,
        "{workers} workers"
    );
    batch
        .results
        .into_iter()
        .map(|r| (r.spec.to_string(), r.summary.digest()))
        .collect()
}

/// Worker counts 1, 2 and 8 all reproduce the standalone baseline bit
/// for bit — queueing, pooling and artifact caching are invisible to
/// every histogram and app verdict.
#[test]
fn queued_results_match_standalone_execution_at_every_worker_count() {
    let jobs = job_set();
    let expect = baseline(&jobs);
    for workers in WORKER_COUNTS {
        let got = engine_digests(&jobs, workers);
        assert_eq!(
            got, expect,
            "engine with {workers} workers diverged from the standalone path"
        );
    }
}

/// Shuffling the submission order changes which worker claims which
/// job and which jobs hit a warm cache — and must change nothing else.
#[test]
fn submission_order_cannot_change_any_result() {
    let jobs = job_set();
    let expect = baseline(&jobs);
    for shuffle_seed in [1u64, 2, 3] {
        let order = shuffled(jobs.clone(), shuffle_seed);
        let got = engine_digests(&order, 4);
        assert_eq!(
            got, expect,
            "shuffle seed {shuffle_seed} changed a job's result"
        );
    }
}

/// The batch exercises the cache as intended: one artifact build per
/// distinct chip × environment key for litmus jobs (app jobs key
/// separately through their own calibrated scratchpads).
#[test]
fn batched_jobs_share_artifact_builds() {
    let jobs = job_set();
    let litmus_jobs = jobs
        .into_iter()
        .filter(|j| matches!(j.workload, WorkloadSpec::Litmus { .. }))
        .collect::<Vec<_>>();
    let n = litmus_jobs.len() as u64;
    let stats = serve(litmus_jobs, 4).unwrap().cache;
    // 2 chips × 5 environments, 3 shapes each: builds bounded by the
    // key count, everything else is a hit.
    assert_eq!(stats.builds, 10, "one build per chip × environment");
    assert_eq!(stats.hits, n - 10);
    assert!(stats.hit_rate() > 0.6);
}

/// The memo hands back the calibration `AppHarness::new` makes on the
/// spot, the one the tables, the hardening search and the benchmark's
/// traced replay use, for every application on both chips.
#[test]
fn memoized_calibration_equals_calibrating_on_the_spot() {
    let cache = ArtifactCache::new();
    let names: Vec<&str> = gpu_wmm::apps::app_names().collect();
    for chip in ["Titan", "C2075"].map(|c| Chip::by_short(c).unwrap()) {
        for &name in &names {
            let app = gpu_wmm::apps::app_by_name(name).unwrap();
            let now = AppHarness::new(&chip, app.as_ref());
            let memo = AppHarness::with_cache(&chip, app.as_ref(), &cache);
            assert_eq!(
                (memo.calibrated_iters(), memo.scratchpad()),
                (now.calibrated_iters(), now.scratchpad()),
                "{name} on the {}",
                chip.short
            );
        }
    }
    assert_eq!(cache.stats().calibrations, 2 * names.len() as u64);
}

/// The suite and the job queue are two batch paths over one model: a
/// litmus job seeded with a suite cell's `cell_seed` returns exactly
/// that cell's histogram, and it finds every artifact it needs already
/// in the suite's cache (job and suite stress the same scratchpad).
#[test]
fn litmus_jobs_reproduce_their_suite_cells() {
    let shapes = [Shape::Mp, Shape::CoRR, Shape::MpShared];
    let chips = [
        Chip::by_short("Titan").unwrap(),
        Chip::by_short("C2075").unwrap(),
    ];
    // The suite's columns, in `EnvKind::ALL` order.
    let columns = [
        SuiteStrategy::native(),
        SuiteStrategy::sys_str_plus(40),
        SuiteStrategy::rand_str_plus(40),
        SuiteStrategy::shared_sys_str_plus(40),
        SuiteStrategy::l1_str_plus(40),
    ];
    let cfg = SuiteConfig {
        execs: 16,
        ..Default::default()
    };
    let distance = cfg.distances[0];
    let cache = ArtifactCache::new();
    let cells = run_suite_with_cache(&shapes, &chips, &columns, &cfg, &cache);
    let builds = cache.stats().builds;
    assert!(
        cells.iter().any(|c| c.hist.weak() > 0),
        "the grid must hold weak cells for the comparison to bite"
    );
    let mut cells = cells.iter();
    for (si, &shape) in shapes.iter().enumerate() {
        for (ci, chip) in chips.iter().enumerate() {
            for (ki, env) in EnvKind::ALL.into_iter().enumerate() {
                let cell = cells.next().expect("one cell per coordinate");
                assert_eq!(cell.strategy, env.name());
                let job = JobSpec {
                    chip: chip.short.to_string(),
                    env,
                    workload: WorkloadSpec::Litmus { shape, distance },
                    execs: cfg.execs,
                    seed: cell_seed(cfg.base_seed, si, distance, ci, ki),
                };
                let got = job.execute(1, Some(&cache)).expect("valid job");
                assert_eq!(got.as_litmus(), Some(&cell.hist), "{job}");
            }
        }
    }
    assert_eq!(cache.stats().builds, builds, "a job rebuilt an artifact");
}

/// The batch a proptest case shuffles: litmus-only (fast) but spanning
/// environments, shapes and a second chip, each job seeded apart.
fn litmus_batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for chip in ["Titan", "C2075"] {
        for env in [EnvKind::Native, EnvKind::SysStrPlus, EnvKind::L1StrPlus] {
            for shape in [Shape::Mp, Shape::Sb, Shape::CoRR] {
                jobs.push(JobSpec {
                    chip: chip.to_string(),
                    env,
                    workload: WorkloadSpec::Litmus {
                        shape,
                        distance: 64,
                    },
                    execs: 4,
                    seed: 2016 + jobs.len() as u64,
                });
            }
        }
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any shuffle of the submission order × any worker count in
    /// {1, 2, 8} yields the same per-job histograms and the same
    /// aggregate digest.
    #[test]
    fn any_shuffle_and_worker_count_reproduces_the_soak_digest(
        shuffle_seed in 0u64..u64::MAX,
        widx in 0usize..3,
    ) {
        let jobs = litmus_batch();
        let expect = baseline(&jobs);
        let batch = serve(shuffled(jobs.clone(), shuffle_seed), WORKER_COUNTS[widx]).expect("serve");

        // Per-job histograms match the standalone baseline...
        for r in &batch.results {
            prop_assert_eq!(
                r.summary.digest(),
                expect[&r.spec.to_string()],
                "job {} diverged (shuffle {}, {} workers)",
                r.spec,
                shuffle_seed,
                WORKER_COUNTS[widx]
            );
        }
        // ...and the aggregate digest is shuffle- and pool-invariant
        // (results_digest sorts by spec, so it hashes the result *set*):
        // an independent batch over the unshuffled order agrees.
        let reference = serve(jobs, 2).expect("serve");
        prop_assert_eq!(results_digest(&batch.results), results_digest(&reference.results));
    }
}

/// One job-text field: nine times in ten one of the slot's `valid`
/// values, else one of its `invalid` ones.
fn field(valid: Vec<String>, invalid: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0u32..10, 0usize..1 << 16).prop_map(move |(roll, i)| {
        if roll < 9 {
            valid[i % valid.len()].clone()
        } else {
            invalid[i % invalid.len()].to_string()
        }
    })
}

/// One job line, built field by field: kind, chip, environment, shape
/// or application name, then one to three numbers (5–7 fields), joined
/// by spaces or tabs. Nine lines in ten carry their kind's own number
/// count.
fn job_line() -> impl Strategy<Value = String> {
    let number = || {
        field(
            ["1", "2", "7", "64", "100", "255"]
                .map(String::from)
                .to_vec(),
            &[
                "0",
                "8192",
                "4294967295",
                "4294967296",
                "18446744073709551616",
                "-1",
                "x7",
            ],
        )
    };
    let kind = field(vec!["litmus".into(), "app".into()], &["serve", "LITMUS"]);
    let chip = field(
        Chip::all().iter().map(|c| c.short.to_string()).collect(),
        &["NoSuchChip", "GTX"],
    );
    let env = field(
        EnvKind::ALL.iter().map(|e| e.name().to_string()).collect(),
        &["mystery-str", "sys-str"],
    );
    let shape = field(
        Shape::ALL.iter().map(|s| s.to_string()).collect(),
        &["NOTASHAPE", "cbe-dot"],
    );
    let app = field(
        gpu_wmm::apps::app_names().map(String::from).collect(),
        &["no-such-app", "MP"],
    );
    let arity = (0u32..10, 1usize..4);
    let sep = (0usize..4).prop_map(|i| [" ", "\t", "  ", " \t "][i]);
    (
        (kind, chip, env),
        (shape, app),
        (number(), number(), number()),
        arity,
        sep,
    )
        .prop_map(
            |((kind, chip, env), (shape, app), (a, b, c), (roll, k), sep)| {
                let (name, own) = if kind == "app" { (app, 2) } else { (shape, 3) };
                let k = if roll < 9 { own } else { k };
                let fields = [kind, chip, env, name, a, b, c];
                fields[..4 + k].join(sep)
            },
        )
}

/// Job text: lines separated by newlines, `;`, blank and `# comment`
/// lines.
fn job_text() -> impl Strategy<Value = Vec<(String, &'static str)>> {
    let between = (0usize..5).prop_map(|i| ["\n", ";", " ; ", "\n# comment\n", "\n\t\n"][i]);
    collection::vec((job_line(), between), 4..13)
}

/// No job text panics the parser or the engine: each line parses to a
/// spec or an error, an accepted spec round-trips through its text
/// form, `parse_jobs` accepts a text exactly when it accepts every
/// line, and every accepted spec (at one execution) drains `Ok`.
#[test]
fn job_text_never_panics_the_parser_or_the_engine() {
    const CASES: u32 = 128;
    let engine = Engine::start(EngineConfig {
        workers: 2,
        job_parallelism: 1,
    });
    let mut accepted = 0;
    for case in 0..CASES {
        let mut rng = TestRng::from_name_and_case("job_text", case);
        let lines = job_text().new_value(&mut rng);
        let text: String = lines.iter().map(|(l, sep)| format!("{l}{sep}")).collect();
        let specs: Vec<JobSpec> = lines.iter().filter_map(|(l, _)| l.parse().ok()).collect();
        for spec in &specs {
            assert_eq!(spec.to_string().parse(), Ok(spec.clone()), "{spec}");
        }
        let every_line = specs.len() == lines.len();
        assert_eq!(
            parse_jobs(&text).ok(),
            every_line.then(|| specs.clone()),
            "{text:?}"
        );
        for spec in &specs {
            let one_run = JobSpec {
                execs: 1,
                ..spec.clone()
            };
            engine.submit(one_run).expect("a spec that parsed is valid");
        }
        let results = engine.drain().unwrap_or_else(|e| panic!("{e}: {text:?}"));
        assert_eq!(results.len(), specs.len(), "{text:?}");
        accepted += specs.len();
    }
    assert!(accepted >= 400, "only {accepted} specs accepted");
}
