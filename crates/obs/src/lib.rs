//! # wmm-obs — deterministic observability primitives
//!
//! The telemetry layer for the weak-memory stack: provenance counters
//! for the executor's weakness channels, fixed-bucket latency
//! histograms for wall-clock spans, and a bounded structured event log
//! for `repro trace`. The crate sits at the bottom of the graph
//! (no dependencies) so every layer — simulator, litmus runner,
//! campaign facade, server, CLI — can share the same types.
//!
//! Two strictly separated kinds of data flow through here:
//!
//! * **Deterministic counters** ([`ChannelCounts`], [`Provenance`],
//!   [`MetricsRegistry`] counters): pure counts taken at existing
//!   decision points in the executor. They draw no randomness and are
//!   folded commutatively, so they are bit-identical across worker
//!   counts and reruns at a fixed seed — safe to assert on in tests
//!   and in CI.
//! * **Wall-clock spans** ([`LatencyHistogram`], [`MetricsRegistry`]
//!   spans): machine-dependent timings. They are kept out of every
//!   digest and every equivalence check, and every JSON rendering
//!   labels them as such (the soak report's `wall_clock_us`).
//!
//! Everything is allocation-light: counters are plain `u64` fields,
//! histograms are fixed arrays, and the event log is a bounded ring
//! buffer that drops (and counts) the oldest entries. Every JSON report
//! the program writes renders through the one writer in [`json`].

pub mod json;

pub use json::Json;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::iter::zip;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Channel provenance counters (deterministic)
// ---------------------------------------------------------------------------

/// Per-channel counts of the weakness events that fired during one run
/// (or, after merging, across a whole campaign).
///
/// Each field is incremented at exactly one pre-existing decision point
/// in the executor — no new randomness is drawn — so the counts are as
/// deterministic as the run itself. `window_global + window_shared`
/// ([`ChannelCounts::window`]) counts every out-of-order completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCounts {
    /// Global-space in-flight-window bypasses (out-of-order completions).
    pub window_global: u64,
    /// Shared-space in-flight-window bypasses (scoped chips only).
    pub window_shared: u64,
    /// Global loads served a stale line by an incoherent per-SM L1.
    pub l1_stale: u64,
    /// Device fences that invalidated (refreshed) the issuing SM's L1.
    pub fence_inval: u64,
    /// Atomic read halves performed fresh at the shared L2, bypassing
    /// an incoherent L1 (a *strengthening* event — it is why lock words
    /// stay exact on Tesla-class chips).
    pub atomic_read_through: u64,
}

impl ChannelCounts {
    /// Stable field names, in JSON rendering order.
    pub const NAMES: [&'static str; 5] = [
        "window_global",
        "window_shared",
        "l1_stale",
        "fence_inval",
        "atomic_read_through",
    ];

    /// The counts as an array, in [`ChannelCounts::NAMES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [
            self.window_global,
            self.window_shared,
            self.l1_stale,
            self.fence_inval,
            self.atomic_read_through,
        ]
    }

    /// Total in-flight-window bypasses (out-of-order completions) in
    /// both spaces.
    pub fn window(&self) -> u64 {
        self.window_global + self.window_shared
    }

    /// Sum over every channel.
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// True when no channel fired at all.
    pub fn is_zero(&self) -> bool {
        *self == ChannelCounts::default()
    }

    /// Accumulate another set of counts (commutative, so parallel
    /// fold order cannot change the result).
    pub fn add(&mut self, other: &ChannelCounts) {
        self.window_global += other.window_global;
        self.window_shared += other.window_shared;
        self.l1_stale += other.l1_stale;
        self.fence_inval += other.fence_inval;
        self.atomic_read_through += other.atomic_read_through;
    }

    /// The counts as a JSON object, keys in [`ChannelCounts::NAMES`]
    /// order.
    pub fn to_json(&self) -> Json {
        Json::Object(zip(Self::NAMES, self.as_array().map(Json::from)).collect())
    }
}

impl fmt::Display for ChannelCounts {
    /// Compact human form listing only the channels that fired, e.g.
    /// `41 window-global + 2 l1-stale`; `none` when all zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LABELS: [&str; 5] = [
            "window-global",
            "window-shared",
            "l1-stale",
            "fence-inval",
            "atomic-rt",
        ];
        write_nonzero(f, &LABELS, &self.as_array(), "none")
    }
}

/// Write the nonzero `counts` as `N label` terms joined by ` + `, or
/// `empty` when every count is zero.
fn write_nonzero(
    f: &mut fmt::Formatter<'_>,
    labels: &[&str],
    counts: &[u64],
    empty: &str,
) -> fmt::Result {
    let parts: Vec<String> = zip(labels, counts)
        .filter(|(_, v)| **v > 0)
        .map(|(l, v)| format!("{v} {l}"))
        .collect();
    if parts.is_empty() {
        f.write_str(empty)
    } else {
        f.write_str(&parts.join(" + "))
    }
}

/// Per-outcome weak-run attribution: how many weak runs each channel
/// *explains*.
///
/// Where [`ChannelCounts`] counts raw events (a single stressed run can
/// fire hundreds of window bypasses), `Provenance` attributes each
/// **weak run** to exactly one channel, chosen from the set of channels
/// that fired during that run by a fixed priority:
///
/// 1. [`l1_stale`](ChannelCounts::l1_stale) — a structural stale hit is
///    the rarest and most specific signal;
/// 2. [`window_shared`](ChannelCounts::window_shared) — scoped-channel
///    reordering;
/// 3. [`window_global`](ChannelCounts::window_global) — the common case
///    under global stress;
/// 4. [`atomic_read_through`](ChannelCounts::atomic_read_through), then
///    [`fence_inval`](ChannelCounts::fence_inval) — strengthening
///    events; a weak run explained only by these is suspicious but
///    still accounted;
/// 5. `unattributed` — no channel fired at all.
///
/// Attributing one run to one channel makes the invariant trivial and
/// testable: the buckets of an outcome's `Provenance` always sum to
/// that outcome's weak count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Weak runs attributed to a global-space window bypass.
    pub window_global: u64,
    /// Weak runs attributed to a shared-space window bypass.
    pub window_shared: u64,
    /// Weak runs attributed to an incoherent-L1 stale hit.
    pub l1_stale: u64,
    /// Weak runs in which only atomic read-throughs fired.
    pub atomic_read_through: u64,
    /// Weak runs in which only fence invalidations fired.
    pub fence_inval: u64,
    /// Weak runs during which no channel fired at all.
    pub unattributed: u64,
}

impl Provenance {
    /// Stable bucket names, in JSON rendering order.
    pub const NAMES: [&'static str; 6] = [
        "window_global",
        "window_shared",
        "l1_stale",
        "atomic_read_through",
        "fence_inval",
        "unattributed",
    ];

    /// The buckets as an array, in [`Provenance::NAMES`] order.
    pub fn as_array(&self) -> [u64; 6] {
        [
            self.window_global,
            self.window_shared,
            self.l1_stale,
            self.atomic_read_through,
            self.fence_inval,
            self.unattributed,
        ]
    }

    /// Attribute one weak run to the highest-priority channel that
    /// fired in `fired` (see the type docs for the priority order).
    pub fn attribute(&mut self, fired: &ChannelCounts) {
        if fired.l1_stale > 0 {
            self.l1_stale += 1;
        } else if fired.window_shared > 0 {
            self.window_shared += 1;
        } else if fired.window_global > 0 {
            self.window_global += 1;
        } else if fired.atomic_read_through > 0 {
            self.atomic_read_through += 1;
        } else if fired.fence_inval > 0 {
            self.fence_inval += 1;
        } else {
            self.unattributed += 1;
        }
    }

    /// Total attributed runs — always equals the weak count of the
    /// histogram entry this provenance belongs to.
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// True when no run has been attributed.
    pub fn is_zero(&self) -> bool {
        *self == Provenance::default()
    }

    /// Accumulate another attribution (commutative).
    pub fn add(&mut self, other: &Provenance) {
        self.window_global += other.window_global;
        self.window_shared += other.window_shared;
        self.l1_stale += other.l1_stale;
        self.atomic_read_through += other.atomic_read_through;
        self.fence_inval += other.fence_inval;
        self.unattributed += other.unattributed;
    }

    /// The buckets as a JSON object, keys in [`Provenance::NAMES`]
    /// order.
    pub fn to_json(&self) -> Json {
        Json::Object(zip(Self::NAMES, self.as_array().map(Json::from)).collect())
    }
}

impl fmt::Display for Provenance {
    /// Compact human form listing only the nonzero buckets, e.g.
    /// `39 window + 2 l1-stale`; `-` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LABELS: [&str; 6] = [
            "window",
            "shared-window",
            "l1-stale",
            "atomic-rt",
            "fence-inval",
            "unattributed",
        ];
        write_nonzero(f, &LABELS, &self.as_array(), "-")
    }
}

// ---------------------------------------------------------------------------
// Wall-clock latency histograms (non-deterministic)
// ---------------------------------------------------------------------------

/// Number of power-of-two latency buckets (bucket 31 tops out above
/// half an hour in microseconds — far beyond any span here).
const BUCKETS: usize = 32;

/// A fixed-bucket wall-clock latency histogram.
///
/// Bucket `i > 0` holds samples with `us` in `[2^(i-1), 2^i)`; bucket 0
/// holds zero-microsecond samples. Recording is allocation-free and
/// O(1); percentiles are reported as the upper edge of the covering
/// bucket (a deterministic function of the recorded samples, but the
/// samples themselves are wall-clock and therefore machine-dependent —
/// never fold these into a digest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    n: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            n: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(us: u64) -> usize {
        (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one sample in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.n += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Record one sample as a [`Duration`].
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.n).unwrap_or(0)
    }

    /// Largest recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `p`-th percentile (0.0–1.0) as the upper edge of the bucket
    /// containing it, clamped to the observed maximum; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return edge.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Merge another histogram into this one (commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// JSON summary: count, p50/p90/p99, mean and max, all in
    /// microseconds.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("n", self.n.into()),
            ("p50_us", self.percentile_us(0.50).into()),
            ("p90_us", self.percentile_us(0.90).into()),
            ("p99_us", self.percentile_us(0.99).into()),
            ("mean_us", self.mean_us().into()),
            ("max_us", self.max_us.into()),
        ])
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={}us p90={}us p99={}us max={}us",
            self.n,
            self.percentile_us(0.50),
            self.percentile_us(0.90),
            self.percentile_us(0.99),
            self.max_us
        )
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A named collection of counters (deterministic) and wall-clock span
/// histograms (non-deterministic), kept strictly apart.
///
/// The registry itself is plain data; callers that share one across
/// threads wrap it in a `Mutex` (the campaign server does). Counters
/// and spans live in separate maps with separate accessors, so a
/// wall-clock value can never be read back as a deterministic count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a wall-clock span sample under `name`.
    pub fn record_span(&mut self, name: &str, d: Duration) {
        if let Some(h) = self.spans.get_mut(name) {
            h.record(d);
        } else {
            let mut h = LatencyHistogram::new();
            h.record(d);
            self.spans.insert(name.to_string(), h);
        }
    }

    /// The span histogram for `name`, if any sample was recorded.
    pub fn span(&self, name: &str) -> Option<&LatencyHistogram> {
        self.spans.get(name)
    }
}

// ---------------------------------------------------------------------------
// Bounded event log
// ---------------------------------------------------------------------------

/// A bounded ring buffer of structured events.
///
/// When full, pushing drops the **oldest** entry and counts the drop,
/// so a trace of a long campaign keeps the most recent window and
/// reports exactly how much it shed — the log can never grow without
/// bound.
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> EventLog<T> {
    /// A log holding at most `cap` events (`cap` of 0 keeps nothing
    /// and counts every push as dropped).
    pub fn new(cap: usize) -> Self {
        EventLog {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap,
            dropped: 0,
        }
    }

    /// Append an event, evicting (and counting) the oldest when full.
    pub fn push(&mut self, ev: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many events were evicted (or rejected by a zero capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_counts_add_and_window_invariant() {
        let mut a = ChannelCounts {
            window_global: 3,
            window_shared: 1,
            ..Default::default()
        };
        let b = ChannelCounts {
            window_global: 2,
            l1_stale: 4,
            fence_inval: 1,
            atomic_read_through: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.window(), 6);
        assert_eq!(a.total(), 16);
        assert!(!a.is_zero());
        assert!(ChannelCounts::default().is_zero());
    }

    #[test]
    fn channel_counts_json_and_display() {
        let c = ChannelCounts {
            window_global: 39,
            l1_stale: 2,
            ..Default::default()
        };
        assert_eq!(
            c.to_json().to_string(),
            r#"{"window_global": 39, "window_shared": 0, "l1_stale": 2, "fence_inval": 0, "atomic_read_through": 0}"#
        );
        assert_eq!(c.to_string(), "39 window-global + 2 l1-stale");
        assert_eq!(ChannelCounts::default().to_string(), "none");
    }

    #[test]
    fn provenance_attribution_follows_the_priority_order() {
        let mut p = Provenance::default();
        // l1 wins over window.
        p.attribute(&ChannelCounts {
            window_global: 10,
            l1_stale: 1,
            ..Default::default()
        });
        // shared window wins over global window.
        p.attribute(&ChannelCounts {
            window_global: 10,
            window_shared: 1,
            ..Default::default()
        });
        // global window wins over the strengthening channels.
        p.attribute(&ChannelCounts {
            window_global: 1,
            atomic_read_through: 7,
            fence_inval: 3,
            ..Default::default()
        });
        // nothing fired.
        p.attribute(&ChannelCounts::default());
        assert_eq!(p.l1_stale, 1);
        assert_eq!(p.window_shared, 1);
        assert_eq!(p.window_global, 1);
        assert_eq!(p.unattributed, 1);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn provenance_json_and_display() {
        let mut p = Provenance::default();
        for _ in 0..39 {
            p.attribute(&ChannelCounts {
                window_global: 1,
                ..Default::default()
            });
        }
        for _ in 0..2 {
            p.attribute(&ChannelCounts {
                l1_stale: 1,
                ..Default::default()
            });
        }
        assert_eq!(p.to_string(), "39 window + 2 l1-stale");
        assert_eq!(
            p.to_json().to_string(),
            r#"{"window_global": 39, "window_shared": 0, "l1_stale": 2, "atomic_read_through": 0, "fence_inval": 0, "unattributed": 0}"#
        );
        assert_eq!(Provenance::default().to_string(), "-");
    }

    #[test]
    fn latency_histogram_percentiles_are_bucket_edges() {
        let mut h = LatencyHistogram::new();
        for us in [0, 1, 3, 3, 7, 100, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_us(), 1000);
        // p50 rank 4 of [0,1,3,3,7,100,1000] -> the [2,4) bucket, edge 3.
        assert_eq!(h.percentile_us(0.50), 3);
        // p100 clamps to the observed max, not the bucket edge (1023).
        assert_eq!(h.percentile_us(1.0), 1000);
        assert_eq!(LatencyHistogram::new().percentile_us(0.5), 0);
    }

    #[test]
    fn latency_histogram_merge_matches_sequential_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for us in [5, 10, 15] {
            a.record_us(us);
            both.record_us(us);
        }
        for us in [20, 1_000_000] {
            b.record_us(us);
            both.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(
            a.to_json().to_string(),
            r#"{"n": 5, "p50_us": 15, "p90_us": 1000000, "p99_us": 1000000, "mean_us": 200010, "max_us": 1000000}"#
        );
    }

    #[test]
    fn registry_separates_counters_from_spans() {
        let mut r = MetricsRegistry::new();
        r.incr("jobs", 2);
        r.incr("jobs", 1);
        r.record_span("execute", Duration::from_micros(150));
        assert_eq!(r.counter("jobs"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.span("execute").unwrap().count(), 1);
    }

    #[test]
    fn event_log_bounds_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        let mut zero = EventLog::new(0);
        zero.push(1);
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }
}
