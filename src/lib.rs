//! # gpu-wmm — exposing errors related to weak memory in GPU applications
//!
//! An umbrella crate re-exporting the full reproduction of Sorensen &
//! Donaldson, *"Exposing Errors Related to Weak Memory in GPU
//! Applications"* (PLDI 2016):
//!
//! * [`sim`] — the simulated GPU substrate (kernel IR, SIMT execution,
//!   per-chip weak memory model, cost model);
//! * [`litmus`] — the generic litmus-instance runtime and the
//!   deterministic parallel work-distribution layer;
//! * [`gen`] — the litmus-test generator: the communication-cycle shape
//!   catalogue (MP, LB, SB, …, IRIW, CoRR, CoWW, plus fenced variants)
//!   and the SC-enumeration oracle that derives each test's forbidden
//!   outcomes;
//! * [`analysis`] — the static scoped-communication analyzer: per-thread
//!   abstract interpretation, Shasha–Snir delay-set warnings with
//!   minimal fence levels, and per-site fence-scope verdicts;
//! * [`core`] — the paper's contribution: the unified campaign facade
//!   (`Workload` → `CampaignBuilder` → `Campaign`), tuned memory
//!   stressing with per-environment stress artifacts, thread
//!   randomisation, the per-chip tuning pipeline, testing environments,
//!   the generated-suite runner, and empirical fence insertion;
//! * [`apps`] — the ten application case studies with functional
//!   post-conditions;
//! * [`server`] — campaign-as-a-service: a batched job engine whose
//!   drain runs deterministic campaign jobs on the parallel layer
//!   with structurally-cached stress artifacts, plus the seeded
//!   soak/throughput harness behind `repro soak`;
//! * [`obs`] — the deterministic observability layer: per-channel
//!   weakness provenance counters threaded from the executor into every
//!   histogram, wall-clock span histograms for the server, and the
//!   bounded event log behind `repro trace`.
//!
//! See `README.md` for a guided tour. The `examples/` directory
//! exercises the public API end to end.

pub use wmm_analysis as analysis;
pub use wmm_apps as apps;
pub use wmm_core as core;
pub use wmm_gen as gen;
pub use wmm_litmus as litmus;
pub use wmm_obs as obs;
pub use wmm_server as server;
pub use wmm_sim as sim;
