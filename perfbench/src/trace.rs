//! Span and work-count accumulation for the traced replay.
//!
//! The replay wraps each public call of a run — `StressArtifacts::make`,
//! launch building, `Gpu::run`, observation, the fold, the application
//! post-condition — in a span whose wall time lands in a [`Sink`]. The
//! sink also sums the exact work counts each `RunResult` reports, so
//! every wall-clock ratio has a deterministic denominator. The campaign
//! layer may call a workload from worker threads, so the sink's totals
//! are atomics; they are read only after the campaign has returned.

use crate::Metrics;
use gpu_wmm::sim::exec::RunResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The spans the replay records, one slot each in [`Totals::ns`].
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// `StressArtifacts::make` plus the stress-size draw before it.
    StressMake,
    /// Building the `LaunchSpec` (`LitmusInstance::launch`, or the
    /// application phase's groups including its program clone).
    Launch,
    /// `Gpu::run`.
    Sim,
    /// `LitmusInstance::observe` and `is_weak`.
    Observe,
    /// `Histogram::record`/`merge`, or the application verdict fold.
    Fold,
    /// `Application::check`.
    Check,
}

const SPANS: usize = 6;

/// Plain totals copied out of a [`Sink`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Nanoseconds per [`Span`], summed.
    pub ns: [u64; SPANS],
    /// Nanoseconds inside `Campaign::run`.
    pub campaign_ns: u64,
    /// Campaign runs executed.
    pub runs: u64,
    /// `Gpu::run` calls.
    pub launches: u64,
    /// `RunResult::instructions`, summed.
    pub insts: u64,
    /// `RunResult::total_turns`, summed.
    pub turns: u64,
    /// In-flight-window bypasses (`channels.window()`), summed.
    pub window: u64,
    /// Stale incoherent-L1 hits (`channels.l1_stale`), summed.
    pub l1_stale: u64,
}

impl Totals {
    /// Add another set of totals into this one.
    pub fn add(&mut self, o: &Totals) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.campaign_ns += o.campaign_ns;
        self.runs += o.runs;
        self.launches += o.launches;
        self.insts += o.insts;
        self.turns += o.turns;
        self.window += o.window;
        self.l1_stale += o.l1_stale;
    }

    /// Nanoseconds in one span.
    pub fn span_ns(&self, s: Span) -> u64 {
        self.ns[s as usize]
    }

    /// Microseconds of span `s` per campaign run.
    pub fn us_per_run(&self, s: Span) -> f64 {
        ratio(self.span_ns(s) as f64 / 1e3, self.runs as f64)
    }

    /// `Campaign::run` thread time not covered by any child span, in
    /// microseconds per run: the campaign layer's own dispatch and the
    /// simulator reuse around each run.
    pub fn campaign_self_us_per_run(&self) -> f64 {
        let children: u64 = self.ns.iter().sum();
        ratio(
            self.campaign_ns.saturating_sub(children) as f64 / 1e3,
            self.runs as f64,
        )
    }

    /// The `sim.*` metrics of these totals under `prefix`.
    pub fn sim_metrics(&self, prefix: &str, m: &mut Metrics) {
        let sim = self.span_ns(Span::Sim) as f64;
        let launches = self.launches as f64;
        let put = |m: &mut Metrics, name: &str, v: f64| m.set(&format!("{prefix}.{name}"), v);
        put(m, "us_per_launch", ratio(sim / 1e3, launches));
        put(m, "ns_per_inst", ratio(sim, self.insts as f64));
        put(m, "ns_per_turn", ratio(sim, self.turns as f64));
        put(m, "share", ratio(sim, self.campaign_ns as f64));
        put(m, "insts_per_launch", ratio(self.insts as f64, launches));
        put(m, "turns_per_launch", ratio(self.turns as f64, launches));
        put(m, "window_per_launch", ratio(self.window as f64, launches));
        put(
            m,
            "l1_stale_per_launch",
            ratio(self.l1_stale as f64, launches),
        );
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Thread-safe span and work-count totals.
///
/// Every field is a statistic that publishes no other data, so
/// `Relaxed` suffices: readers take a [`Sink::totals`] only after the
/// campaign that wrote it has returned.
#[derive(Debug, Default)]
pub struct Sink {
    ns: [AtomicU64; SPANS],
    campaign_ns: AtomicU64,
    runs: AtomicU64,
    launches: AtomicU64,
    insts: AtomicU64,
    turns: AtomicU64,
    window: AtomicU64,
    l1_stale: AtomicU64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Sink {
    /// Run `f` inside span `s`.
    pub fn time<T>(&self, s: Span, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns[s as usize].fetch_add(nanos(t.elapsed()), Ordering::Relaxed);
        out
    }

    /// Count one finished campaign run.
    pub fn run_done(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the work one `Gpu::run` reports.
    pub fn launched(&self, r: &RunResult) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.insts.fetch_add(r.instructions, Ordering::Relaxed);
        self.turns.fetch_add(r.total_turns, Ordering::Relaxed);
        self.window
            .fetch_add(r.channels.window(), Ordering::Relaxed);
        self.l1_stale
            .fetch_add(r.channels.l1_stale, Ordering::Relaxed);
    }

    /// Add a `Campaign::run` span.
    pub fn campaign(&self, wall: Duration) {
        self.campaign_ns.fetch_add(nanos(wall), Ordering::Relaxed);
    }

    /// Copy the totals out.
    pub fn totals(&self) -> Totals {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut ns = [0; SPANS];
        for (o, a) in ns.iter_mut().zip(&self.ns) {
            *o = load(a);
        }
        Totals {
            ns,
            campaign_ns: load(&self.campaign_ns),
            runs: load(&self.runs),
            launches: load(&self.launches),
            insts: load(&self.insts),
            turns: load(&self.turns),
            window: load(&self.window),
            l1_stale: load(&self.l1_stale),
        }
    }
}
