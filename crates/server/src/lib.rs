//! # wmm-server — campaign-as-a-service
//!
//! The paper's methodology is a throughput game: weak behaviours only
//! surface at large execution counts, so the rate at which the system
//! grinds campaigns *is* its scientific power. Every other entry point
//! in the workspace is a one-shot CLI — build the world, run, exit.
//! This crate is the long-running form:
//!
//! * [`job`] — [`JobSpec`]: one queued campaign request (a litmus/suite
//!   cell or an application campaign) on a chip under one of the five
//!   suite environments ([`EnvKind`], defined in `wmm_core::env` and
//!   re-exported here, so a job and a suite column name and resolve an
//!   environment the same way), carrying its own seed; parse/display a
//!   compact text form for `repro serve --jobs`. A job runs on the
//!   cache's shared artifacts (an `Arc`, never a copy) and, for an
//!   application, the cache's memoized calibration; it returns an
//!   error for a litmus layout [`JobSpec::validate`] refuses instead of
//!   running it.
//! * [`engine`] — [`Engine`]: a batch of submitted jobs that
//!   [`Engine::drain`] runs on the deterministic parallel layer
//!   (`wmm_litmus::parallel`), yielding one outcome per job (a
//!   panicking job becomes that job's error). Stress artifacts are
//!   shared across jobs through a concurrent
//!   [`ArtifactCache`](wmm_core::cache::ArtifactCache) keyed
//!   structurally on chip × environment, so a thousand jobs against
//!   five environments compile stress kernels five times, not a
//!   thousand; the same cache runs each application's native
//!   calibration once per chip. [`serve`] is the one batch path: a job
//!   list through a fresh engine, summarised as a [`Batch`] (results,
//!   cache counters, wall-clock spans, deterministic weakness totals).
//! * [`soak`] — the deterministic soak/throughput harness behind
//!   `repro soak`: one seeded grid of jobs (all 28 shapes × two chips ×
//!   the five suite environments, plus applications) served as one
//!   batch, a standalone re-execution sample, and three fixed gates on
//!   throughput, cache effectiveness and determinism.
//!
//! # Determinism
//!
//! A job's result depends only on its [`JobSpec`] — never on queue
//! interleaving, worker count, or whether its artifacts or calibration
//! were a cache hit ([`StressArtifacts::make`](wmm_core::stress::StressArtifacts::make)
//! draws all per-run values from the run's own seeded RNG). Every
//! histogram coming off the queue is bit-identical to running the same
//! campaign standalone; `tests/server_equivalence.rs` pins this across
//! worker counts {1, 2, 8} and shuffled submission orders.

pub mod engine;
pub mod job;
pub mod soak;

pub use engine::{serve, Batch, Engine, EngineConfig, JobResult};
pub use job::{parse_jobs, EnvKind, JobSpec, WorkloadSpec};
pub use soak::{run_soak, GateReport, SoakReport};
