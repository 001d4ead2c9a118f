//! Job specifications: one queued campaign request.
//!
//! A [`JobSpec`] is everything the engine needs to run one campaign —
//! chip, environment, workload, execution count and the job's own seed
//! — and nothing more: results are a pure function of the spec, which
//! is what makes queue interleaving, worker count and cache hits
//! invisible (see the crate docs).
//!
//! Specs round-trip through a compact one-line text form for
//! `repro serve --jobs`:
//!
//! ```text
//! litmus <chip> <env> <shape> <distance> <execs> <seed>
//! app    <chip> <env> <name>  <runs>     <seed>
//! ```
//!
//! e.g. `litmus Titan sys-str+ MP 64 32 7` or
//! `app K20 shm+sys-str+ shm-pipe 40 3`; [`parse_jobs`] accepts many
//! jobs separated by newlines or `;`, and a `#` comments out the rest of
//! its line, `;`s included.
//!
//! A litmus job runs on [`litmus_pad`] at the layout
//! [`TestEvents::check_layout`](wmm_gen::TestEvents::check_layout)
//! admits, exactly like its `repro suite` cell; an application job names
//! an entry of [`wmm_apps::app_names`], and only [`JobSpec::execute`]
//! builds it.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use wmm_core::cache::{ArtifactCache, ArtifactKey};
use wmm_core::campaign::{CampaignBuilder, SummaryValue};
use wmm_core::env::AppHarness;
pub use wmm_core::env::EnvKind;
use wmm_core::stress::Scratchpad;
use wmm_core::suite::litmus_pad;
use wmm_gen::Shape;
use wmm_litmus::LitmusLayout;
use wmm_sim::chip::Chip;

/// What a job runs: a generated litmus test (a suite cell) or an
/// application campaign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// A generated litmus shape at an instantiation distance.
    Litmus {
        /// The shape (any of [`Shape::ALL`]).
        shape: Shape,
        /// Communication-location distance in words.
        distance: u32,
    },
    /// An application campaign, by Tab. 4 short name (or `shm-pipe`).
    App {
        /// The application's short name.
        name: String,
    },
}

/// One queued campaign request. See the module docs for the text form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Chip short name (e.g. `"Titan"`).
    pub chip: String,
    /// The testing environment.
    pub env: EnvKind,
    /// What to run.
    pub workload: WorkloadSpec,
    /// Executions (the paper's `C`; for apps, campaign runs).
    pub execs: u32,
    /// The job's own base seed — all of its randomness derives from
    /// this, so the result is a pure function of the spec.
    pub seed: u64,
}

impl JobSpec {
    /// Check the spec resolves (chip exists, application named in
    /// [`wmm_apps::app_names`], non-zero execution count, a litmus
    /// layout that fits) without running or building anything. The
    /// engine validates at submission so workers never meet an
    /// unrunnable job.
    pub fn validate(&self) -> Result<(), String> {
        Chip::by_short(&self.chip).ok_or_else(|| format!("unknown chip {:?}", self.chip))?;
        if self.execs == 0 {
            return Err(format!("{self}: execution count must be positive"));
        }
        match &self.workload {
            WorkloadSpec::Litmus { shape, distance } => {
                self.litmus_layout(*shape, *distance)?;
            }
            WorkloadSpec::App { name } => {
                if !wmm_apps::app_names().any(|n| n == name) {
                    return Err(format!("unknown application {name:?}"));
                }
            }
        }
        Ok(())
    }

    /// The layout a litmus job runs `shape` under at `distance`, or why
    /// it cannot: a job's distance must be positive, and the layout must
    /// pass the emitter's own rule, or emitting the kernel would panic a
    /// worker.
    fn litmus_layout(&self, shape: Shape, distance: u32) -> Result<LitmusLayout, String> {
        if distance == 0 {
            return Err(format!("{self}: distance must be positive"));
        }
        let layout = LitmusLayout::standard(distance, litmus_pad().required_words());
        shape
            .events()
            .check_layout(&layout)
            .map_err(|e| format!("{self}: {e}"))?;
        Ok(layout)
    }

    /// Execute the campaign this spec describes and summarise it.
    /// A litmus spec whose layout [`JobSpec::validate`] refuses is
    /// refused here too, never run.
    ///
    /// With a cache, the environment's stress artifacts are the cache's
    /// entry, shared with every other job keying to the same
    /// [`ArtifactKey`]; without one, they are built fresh. Both routes
    /// go through [`ArtifactKey::build`], and every per-run value is
    /// drawn from the run's own seeded RNG, so the result is identical
    /// either way — the equivalence the server's determinism guarantee
    /// rests on.
    pub fn execute(
        &self,
        parallelism: usize,
        cache: Option<&ArtifactCache>,
    ) -> Result<SummaryValue, String> {
        let chip =
            Chip::by_short(&self.chip).ok_or_else(|| format!("unknown chip {:?}", self.chip))?;
        let env = self.env.environment(&chip);
        let campaign = |pad: Scratchpad, iters: u32| {
            let key = ArtifactKey::new(&chip, &env, pad, iters);
            let artifacts = match cache {
                Some(c) => c.get_key(&key),
                None => Arc::new(key.build()),
            };
            CampaignBuilder::new(&chip)
                .stress(artifacts)
                .randomize_ids(env.randomize)
                .count(self.execs)
                .base_seed(self.seed)
                .parallelism(parallelism)
                .build()
        };
        match &self.workload {
            WorkloadSpec::Litmus { shape, distance } => {
                let inst = shape.instance(self.litmus_layout(*shape, *distance)?);
                let campaign = campaign(litmus_pad(), self.env.litmus_iters());
                Ok(SummaryValue::Litmus(campaign.run_litmus(&inst)))
            }
            WorkloadSpec::App { name } => {
                let app = wmm_apps::app_by_name(name)
                    .ok_or_else(|| format!("unknown application {name:?}"))?;
                let harness = AppHarness::new(&chip, app.as_ref());
                let campaign = campaign(harness.scratchpad(), harness.calibrated_iters());
                Ok(SummaryValue::App(campaign.run(&harness)))
            }
        }
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.workload {
            WorkloadSpec::Litmus { shape, distance } => write!(
                f,
                "litmus {} {} {} {} {} {}",
                self.chip, self.env, shape, distance, self.execs, self.seed
            ),
            WorkloadSpec::App { name } => write!(
                f,
                "app {} {} {} {} {}",
                self.chip, self.env, name, self.execs, self.seed
            ),
        }
    }
}

impl FromStr for JobSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields: Vec<&str> = s.split_whitespace().collect();
        let usage = "expected `litmus <chip> <env> <shape> <distance> <execs> <seed>` \
                     or `app <chip> <env> <name> <runs> <seed>`";
        fn num<T: FromStr>(field: &str, what: &str, job: &str) -> Result<T, String> {
            field
                .parse()
                .map_err(|_| format!("bad {what} {field:?} in job {job:?}"))
        }
        let spec = match fields.as_slice() {
            ["litmus", chip, env, shape, distance, execs, seed] => JobSpec {
                chip: (*chip).to_string(),
                env: env.parse()?,
                workload: WorkloadSpec::Litmus {
                    shape: shape.parse()?,
                    distance: num(distance, "distance", s)?,
                },
                execs: num(execs, "execution count", s)?,
                seed: num(seed, "seed", s)?,
            },
            ["app", chip, env, name, runs, seed] => JobSpec {
                chip: (*chip).to_string(),
                env: env.parse()?,
                workload: WorkloadSpec::App {
                    name: (*name).to_string(),
                },
                execs: num(runs, "run count", s)?,
                seed: num(seed, "seed", s)?,
            },
            _ => return Err(format!("cannot parse job {s:?}: {usage}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Parse a job list: one [`JobSpec`] per line or `;`-separated entry.
/// A `#` comments out the rest of its line, `;`s included; blank
/// entries are skipped.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    text.lines()
        .flat_map(|line| {
            line.split_once('#')
                .map_or(line, |(jobs, _)| jobs)
                .split(';')
        })
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(str::parse)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_text() {
        let jobs = [
            JobSpec {
                chip: "Titan".into(),
                env: EnvKind::SysStrPlus,
                workload: WorkloadSpec::Litmus {
                    shape: Shape::Mp,
                    distance: 64,
                },
                execs: 32,
                seed: 7,
            },
            JobSpec {
                chip: "K20".into(),
                env: EnvKind::ShmSysStrPlus,
                workload: WorkloadSpec::App {
                    name: "shm-pipe".into(),
                },
                execs: 40,
                seed: 3,
            },
        ];
        for job in jobs {
            let text = job.to_string();
            let back: JobSpec = text.parse().unwrap();
            assert_eq!(job, back, "{text}");
        }
    }

    #[test]
    fn parse_jobs_handles_separators_and_comments() {
        let text = "\
            # suite cells\n\
            litmus Titan sys-str+ MP 64 8 1; litmus Titan no-str- SB 64 8 2\n\
            \n\
            app Titan rand-str+ shm-pipe 4 3\n";
        let jobs = parse_jobs(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].env, EnvKind::SysStrPlus);
        assert_eq!(jobs[1].env, EnvKind::Native);
        assert!(matches!(&jobs[2].workload, WorkloadSpec::App { name } if name == "shm-pipe"));
        // A `#` comments out the rest of its line, `;`s included...
        assert_eq!(
            parse_jobs("# off; litmus Titan sys-str+ MP 64 8 1"),
            Ok(vec![])
        );
        // ...and may follow a job on its line.
        let jobs = parse_jobs("litmus Titan sys-str+ MP 64 8 1 # note").unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].seed, 1);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "litmus NoSuchChip sys-str+ MP 64 8 1",
            "litmus Titan mystery-str MP 64 8 1",
            "litmus Titan sys-str+ NOTASHAPE 64 8 1",
            "litmus Titan sys-str+ MP 64 0 1",
            "app Titan sys-str+ no-such-app 4 1",
            "serve Titan sys-str+ MP 64 8 1",
            "litmus Titan sys-str+ MP sixty-four 8 1",
            "litmus Titan sys-str+ MP 8192 2 1",
            "litmus Titan sys-str+ MP 4294967295 2 1",
            "litmus Titan sys-str+ MP 4294967297 2 1",
            "litmus Titan sys-str+ MP 64 4294967297 1",
        ] {
            assert!(bad.parse::<JobSpec>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validation_admits_exactly_the_distances_that_emit() {
        // At the largest distance `validate` admits, every shape's
        // instance builds; one word further, `validate` refuses it.
        let result_base = LitmusLayout::standard(1, 0).result_base;
        let words = litmus_pad().required_words();
        for shape in Shape::ALL {
            let last = shape.events().num_locs() - 1;
            let max = (result_base - 1).checked_div(last).unwrap_or(u32::MAX);
            let job = |distance| JobSpec {
                chip: "Titan".into(),
                env: EnvKind::Native,
                workload: WorkloadSpec::Litmus { shape, distance },
                execs: 1,
                seed: 0,
            };
            assert_eq!(job(max).validate(), Ok(()), "{shape} at {max}");
            let _ = shape.instance(LitmusLayout::standard(max, words));
            if max < u32::MAX {
                assert!(job(max + 1).validate().is_err(), "{shape} at {}", max + 1);
            }
        }
    }

    #[test]
    fn execution_refuses_what_validation_refuses() {
        // Every field is public, so a spec can reach `execute` without
        // passing `validate`: a layout past the result region must come
        // back as an error, not a panic in kernel emission.
        for distance in [8192, u32::MAX] {
            let spec = JobSpec {
                chip: "Titan".into(),
                env: EnvKind::SysStrPlus,
                workload: WorkloadSpec::Litmus {
                    shape: Shape::Mp,
                    distance,
                },
                execs: 2,
                seed: 1,
            };
            assert!(spec.validate().is_err(), "distance {distance}");
            assert!(spec.execute(1, None).is_err(), "distance {distance}");
        }
    }

    #[test]
    fn cached_and_uncached_execution_agree() {
        let spec = JobSpec {
            chip: "K20".into(),
            env: EnvKind::SysStrPlus,
            workload: WorkloadSpec::Litmus {
                shape: Shape::Mp,
                distance: 64,
            },
            execs: 24,
            seed: 11,
        };
        let cache = ArtifactCache::new();
        let cached = spec.execute(1, Some(&cache)).unwrap();
        let fresh = spec.execute(1, None).unwrap();
        assert_eq!(cached, fresh);
        assert!(cached.as_litmus().unwrap().total() == 24);
    }
}
