//! Engine-vs-standalone equivalence: a campaign result coming off the
//! job queue must be **bit-identical** to running the same spec
//! standalone — regardless of worker count, submission order, or
//! whether the job's stress artifacts were a cache hit.
//!
//! The baseline is `JobSpec::execute(1, None)`: one job, no queue, no
//! pool, freshly built artifacts. Every engine configuration under test
//! (workers {1, 2, 8} × shuffled submission orders) must reproduce that
//! baseline per job, and the aggregate soak digest must be a pure
//! function of the (mix, seed) pair.
//!
//! The last property feeds generated job text, mostly valid and partly
//! malformed, through the parser and an engine: no input may panic
//! either one.

use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::suite::{cell_seed, run_suite_with_cache, SuiteConfig, SuiteStrategy};
use gpu_wmm::gen::Shape;
use gpu_wmm::server::soak::results_digest;
use gpu_wmm::server::{parse_jobs, Engine, EngineConfig, EnvKind, JobSpec, SoakMix, WorkloadSpec};
use gpu_wmm::sim::chip::Chip;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A small but representative batch: litmus jobs across chips,
/// environments (including the rand-str and shared-memory ones, whose
/// artifact handling is the trickiest) and shapes, plus application
/// jobs — every workload kind the queue can carry.
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
        jobs.push(JobSpec {
            chip: "Titan".to_string(),
            env: EnvKind::SysStrPlus,
            workload: WorkloadSpec::App {
                name: (*app).to_string(),
            },
            execs: 4,
            seed: 0xA44 + ai as u64,
        });
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

/// Run a batch through an engine and index the result digests by spec.
fn engine_digests(jobs: &[JobSpec], workers: usize) -> HashMap<String, u64> {
    let engine = Engine::start(EngineConfig {
        workers,
        job_parallelism: 1,
    });
    for j in jobs {
        engine.submit(j.clone()).expect("valid spec");
    }
    let results = engine.drain().expect("drain");
    assert_eq!(results.len(), jobs.len());
    results
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
        .iter()
        .filter(|j| matches!(j.workload, WorkloadSpec::Litmus { .. }))
        .cloned()
        .collect::<Vec<_>>();
    let engine = Engine::start(EngineConfig {
        workers: 4,
        job_parallelism: 1,
    });
    for j in &litmus_jobs {
        engine.submit(j.clone()).unwrap();
    }
    engine.drain().unwrap();
    let stats = engine.cache_stats();
    // 2 chips × 5 environments, 3 shapes each: builds bounded by the
    // key count, everything else is a hit.
    assert_eq!(stats.builds, 10, "one build per chip × environment");
    assert_eq!(stats.hits, litmus_jobs.len() as u64 - 10);
    assert!(stats.hit_rate() > 0.6);
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

/// The soak mix a proptest case runs: litmus-only (fast) but spanning
/// environments, shapes and a second chip.
fn tiny_mix() -> SoakMix {
    SoakMix {
        litmus_chips: vec!["Titan".to_string(), "C2075".to_string()],
        app_chips: vec![],
        envs: vec![EnvKind::Native, EnvKind::SysStrPlus, EnvKind::L1StrPlus],
        shapes: vec![Shape::Mp, Shape::Sb, Shape::CoRR],
        distances: vec![64],
        execs: 4,
        apps: vec![],
        app_runs: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite property: under a fixed SOAK_SEED, any shuffle of the
    /// submission order × any worker count in {1, 2, 8} yields the same
    /// per-job histograms and the same aggregate digest.
    #[test]
    fn any_shuffle_and_worker_count_reproduces_the_soak_digest(
        shuffle_seed in 0u64..u64::MAX,
        widx in 0usize..3,
    ) {
        const SOAK_SEED: u64 = 2016;
        let jobs = tiny_mix().jobs(SOAK_SEED);
        let expect = baseline(&jobs);

        let order = shuffled(jobs.clone(), shuffle_seed);
        let engine = Engine::start(EngineConfig {
            workers: WORKER_COUNTS[widx],
            job_parallelism: 1,
        });
        for j in &order {
            engine.submit(j.clone()).expect("valid spec");
        }
        let results = engine.drain().expect("drain");

        // Per-job histograms match the standalone baseline...
        for r in &results {
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
        // an independent engine over the unshuffled order agrees.
        let reference_engine = Engine::start(EngineConfig {
            workers: 2,
            job_parallelism: 1,
        });
        for j in &jobs {
            reference_engine.submit(j.clone()).expect("valid spec");
        }
        let reference = reference_engine.drain().expect("drain");
        prop_assert_eq!(results_digest(&results), results_digest(&reference));
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
