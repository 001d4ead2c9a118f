//! # wmm-core — the PLDI 2016 testing environment
//!
//! The paper's primary contribution, built on the `wmm-sim` substrate and
//! the `wmm-litmus` tests:
//!
//! * [`campaign`] — the unified campaign facade: the [`Workload`] trait
//!   ("run once, observe, classify") and the
//!   [`CampaignBuilder`]/[`Campaign`] driver every repeat-`C`-times loop
//!   in the workspace executes on, with stress artifacts built once per
//!   environment;
//! * [`cache`] — the shared, structurally-keyed [`ArtifactCache`] the
//!   campaign server and the one-shot suite runner deduplicate stress
//!   kernel builds through; [`ArtifactKey::build`] is the one place an
//!   environment becomes stress artifacts, and campaigns hold the
//!   cache's `Arc` rather than a copy;
//! * [`stress`] — the four memory stressing strategies (`no-str`,
//!   `rand-str`, `cache-str`, and the tuned `sys-str`) targeting a
//!   scratchpad disjoint from the application (Sec. 3, 4.2), plus the
//!   per-environment [`StressArtifacts`] cache;
//! * [`mod@env`] — the Tab. 5 testing environments, [`EnvKind`] (the
//!   one table from the five suite and job environment names to an
//!   [`Environment`], with the litmus iteration policy) and the
//!   application harness;
//! * [`tuning`] — the per-chip tuning pipeline (Sec. 3);
//! * [`suite`] — the generated-litmus-suite campaign runner, each row
//!   cross-checked against the static analyzer's verdict; a column
//!   ([`SuiteStrategy`]) is an [`EnvKind`] plus its iteration count;
//! * [`harden`] — empirical fence insertion (Alg. 1, Sec. 5): one search
//!   with two starting sets, every access fenced at device level or at
//!   the static analyzer's verdict level, where the cheap block-level
//!   rung is tried wherever communication is provably intra-block;
//! * [`analyze`] — glue binding the `wmm-analysis` static analyzer to
//!   application specs via representative launch threads.

pub mod analyze;
pub mod app;
pub mod cache;
pub mod campaign;
pub mod env;
pub mod harden;
pub mod stress;
pub mod suite;
pub mod tuning;

pub use analyze::{analyze_spec, representatives, SpecAnalysis};
pub use app::{AppSpec, Application, Phase};
pub use cache::{ArtifactCache, ArtifactKey, CacheStats};
pub use campaign::{Campaign, CampaignBuilder, Fnv64, LitmusWorkload, SummaryValue, Workload};
pub use env::{AppHarness, CampaignResult, EnvKind, Environment, RunVerdict};
pub use harden::{
    empirical_fence_insertion, empirical_fence_insertion_scoped, HardenConfig, HardenResult,
    LeveledFenceSite,
};
pub use stress::{Scratchpad, StressArtifacts, StressStrategy, SystematicParams};
pub use suite::{run_suite, StaticVerdict, SuiteCell, SuiteConfig, SuiteStrategy};
