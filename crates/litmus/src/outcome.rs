//! Litmus run outcomes and histograms, over N observer values.
//!
//! Until the generator subsystem landed, outcomes were hardwired to the
//! `(r1, r2)` register pair of the Fig. 2 trio. An outcome is now an
//! arbitrary-length vector of observed values — one entry per
//! [`Observer`](crate::Observer) of the instance — so the same histogram
//! machinery serves two-thread coherence tests and four-thread IRIW
//! alike.
//!
//! Each outcome also carries the [`ChannelCounts`] of the run that
//! produced it: how often each weakness channel (window bypass per
//! space, L1 stale hit, …) fired. The histogram folds these two ways —
//! raw event totals across every run ([`Histogram::channels`]), and a
//! per-outcome [`Provenance`] attribution of *weak* runs
//! ([`Histogram::provenance`]) whose buckets always sum to the
//! outcome's count. Both are pure counts merged commutatively, so they
//! are exactly as deterministic (and worker-count-invariant) as the
//! histogram itself.

use std::collections::BTreeMap;
use std::fmt;
use wmm_obs::{ChannelCounts, Provenance};

/// The observed values of one litmus execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusOutcome {
    /// One value per observer of the instance, in observer order.
    pub obs: Vec<u32>,
    /// Whether this outcome is outside the test's SC-reachable set.
    pub weak: bool,
    /// Per-channel weakness-event counts of the producing run.
    pub channels: ChannelCounts,
}

/// A histogram of observer-vector outcomes over many executions, in the
/// style of the `litmus` tool's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<Vec<u32>, u64>,
    weak: u64,
    total: u64,
    /// Raw channel-event totals summed over every recorded run.
    channels: ChannelCounts,
    /// Weak-run attribution per weak observer vector (only weak
    /// outcomes get an entry; its buckets sum to the vector's count).
    provenance: BTreeMap<Vec<u32>, Provenance>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one outcome.
    pub fn record(&mut self, outcome: LitmusOutcome) {
        self.total += 1;
        self.channels.add(&outcome.channels);
        if outcome.weak {
            self.weak += 1;
            self.provenance
                .entry(outcome.obs.clone())
                .or_default()
                .attribute(&outcome.channels);
        }
        *self.counts.entry(outcome.obs).or_insert(0) += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (k, &v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
        self.total += other.total;
        self.weak += other.weak;
        self.channels.add(&other.channels);
        for (k, p) in &other.provenance {
            self.provenance.entry(k.clone()).or_default().add(p);
        }
    }

    /// Number of weak outcomes.
    pub fn weak(&self) -> u64 {
        self.weak
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Weak outcomes as a fraction of total (0 when empty).
    pub fn weak_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.weak as f64 / self.total as f64
        }
    }

    /// Count for a specific observer vector.
    pub fn count(&self, obs: &[u32]) -> u64 {
        self.counts.get(obs).copied().unwrap_or(0)
    }

    /// Raw channel-event totals summed over every recorded run
    /// (weak and strong alike) — deterministic at a fixed seed.
    pub fn channels(&self) -> &ChannelCounts {
        &self.channels
    }

    /// Weak-run attribution for one observer vector — `None` unless
    /// that vector was recorded as a weak outcome. The returned
    /// buckets sum to [`Histogram::count`] for the vector.
    pub fn provenance(&self, obs: &[u32]) -> Option<&Provenance> {
        self.provenance.get(obs)
    }

    /// The attribution of every weak run, summed over all weak
    /// outcomes; its total always equals [`Histogram::weak`].
    pub fn provenance_total(&self) -> Provenance {
        let mut p = Provenance::default();
        for v in self.provenance.values() {
            p.add(v);
        }
        p
    }

    /// Iterate over `(observer vector, count)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.counts.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// Render with outcomes satisfying `is_weak` flagged `*`,
    /// litmus-style, labelling values with the provided observer names.
    pub fn display_flagged(
        &self,
        labels: &[String],
        mut is_weak: impl FnMut(&[u32]) -> bool,
    ) -> String {
        let mut s = String::new();
        for (obs, n) in self.iter() {
            let flag = if is_weak(obs) { "*" } else { " " };
            let cells: Vec<String> = obs
                .iter()
                .enumerate()
                .map(|(i, v)| match labels.get(i) {
                    Some(l) => format!("{l}={v}"),
                    None => format!("o{i}={v}"),
                })
                .collect();
            s.push_str(&format!("{flag} {} : {n}\n", cells.join(" ")));
        }
        s.push_str(&format!(
            "weak: {} / {} ({:.2}%)\n",
            self.weak,
            self.total,
            100.0 * self.weak_rate()
        ));
        s
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (obs, n) in self.iter() {
            let cells: Vec<String> = obs.iter().map(|v| v.to_string()).collect();
            writeln!(f, "({}) : {n}", cells.join(","))?;
        }
        writeln!(f, "weak: {} / {}", self.weak, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(obs: &[u32], weak: bool) -> LitmusOutcome {
        LitmusOutcome {
            obs: obs.to_vec(),
            weak,
            channels: ChannelCounts::default(),
        }
    }

    fn o_ch(obs: &[u32], weak: bool, channels: ChannelCounts) -> LitmusOutcome {
        LitmusOutcome {
            obs: obs.to_vec(),
            weak,
            channels,
        }
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(o(&[1, 0], true));
        h.record(o(&[1, 1], false));
        h.record(o(&[1, 0], true));
        assert_eq!(h.count(&[1, 0]), 2);
        assert_eq!(h.count(&[1, 1]), 1);
        assert_eq!(h.count(&[0, 0]), 0);
        assert_eq!(h.weak(), 2);
        assert_eq!(h.total(), 3);
        assert!((h.weak_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn vectors_of_any_width_are_keys() {
        let mut h = Histogram::new();
        h.record(o(&[1, 0, 1, 0], false));
        h.record(o(&[7], true));
        assert_eq!(h.count(&[1, 0, 1, 0]), 1);
        assert_eq!(h.count(&[7]), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = Histogram::new();
        a.record(o(&[0, 0], false));
        let mut b = Histogram::new();
        b.record(o(&[0, 0], false));
        b.record(o(&[1, 0], true));
        a.merge(&b);
        assert_eq!(a.count(&[0, 0]), 2);
        assert_eq!(a.weak(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn empty_weak_rate_is_zero() {
        assert_eq!(Histogram::new().weak_rate(), 0.0);
    }

    #[test]
    fn display_flags_weak_outcome() {
        let mut h = Histogram::new();
        h.record(o(&[1, 0], true));
        h.record(o(&[0, 0], false));
        let labels = vec!["r0".to_string(), "r1".to_string()];
        let s = h.display_flagged(&labels, |obs| obs == [1, 0]);
        assert!(s.contains("* r0=1 r1=0"));
        assert!(s.contains("  r0=0 r1=0"));
    }

    #[test]
    fn channels_accumulate_over_all_runs() {
        let mut h = Histogram::new();
        let win = ChannelCounts {
            window_global: 3,
            ..Default::default()
        };
        h.record(o_ch(&[0, 0], false, win));
        h.record(o_ch(&[1, 0], true, win));
        assert_eq!(h.channels().window_global, 6);
        assert_eq!(h.channels().window(), 6);
    }

    #[test]
    fn provenance_tracks_only_weak_outcomes_and_sums_to_their_counts() {
        let mut h = Histogram::new();
        let win = ChannelCounts {
            window_global: 5,
            ..Default::default()
        };
        let stale = ChannelCounts {
            window_global: 5,
            l1_stale: 1,
            ..Default::default()
        };
        h.record(o_ch(&[1, 0], true, win));
        h.record(o_ch(&[1, 0], true, stale));
        h.record(o_ch(&[1, 1], false, win));
        assert!(h.provenance(&[1, 1]).is_none(), "strong outcome tracked");
        let p = h.provenance(&[1, 0]).expect("weak outcome untracked");
        assert_eq!(p.total(), h.count(&[1, 0]));
        assert_eq!(p.window_global, 1);
        assert_eq!(p.l1_stale, 1, "stale hit must win the attribution");
        assert_eq!(h.provenance_total().total(), h.weak());
    }

    #[test]
    fn merge_folds_channels_and_provenance_commutatively() {
        let win = ChannelCounts {
            window_global: 2,
            ..Default::default()
        };
        let mut a = Histogram::new();
        a.record(o_ch(&[1, 0], true, win));
        let mut b = Histogram::new();
        b.record(o_ch(&[1, 0], true, win));
        b.record(o_ch(&[0, 1], true, ChannelCounts::default()));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.channels().window_global, 4);
        assert_eq!(ab.provenance(&[1, 0]).unwrap().window_global, 2);
        assert_eq!(ab.provenance(&[0, 1]).unwrap().unattributed, 1);
        assert_eq!(ab.provenance_total().total(), ab.weak());
    }
}
