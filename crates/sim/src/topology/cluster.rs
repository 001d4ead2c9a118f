//! Cluster/SM structure and deterministic home-SM assignment.

/// The structural layout of a chip: `clusters` clusters of
/// `sms_per_cluster` streaming multiprocessors each, with at most
/// `blocks_per_sm` resident blocks per SM.
///
/// Blocks are assigned a *home SM* round-robin over their launch
/// index ([`Topology::home_sm`]); when a grid exceeds the chip's
/// block capacity the assignment wraps deterministically, modelling
/// waves of blocks re-using the same SMs (and therefore the same
/// private L1s). The assignment draws no randomness, so topology is
/// invisible to runs that do not use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of SM clusters on the chip.
    pub clusters: u32,
    /// SMs per cluster.
    pub sms_per_cluster: u32,
    /// Maximum resident blocks per SM (the occupancy limit).
    pub blocks_per_sm: u32,
}

impl Topology {
    /// A uniform topology. Panics if any dimension is zero — a chip
    /// with no SMs cannot run anything.
    pub fn uniform(clusters: u32, sms_per_cluster: u32, blocks_per_sm: u32) -> Self {
        assert!(
            clusters > 0 && sms_per_cluster > 0 && blocks_per_sm > 0,
            "topology dimensions must be nonzero"
        );
        Topology {
            clusters,
            sms_per_cluster,
            blocks_per_sm,
        }
    }

    /// Total SMs on the chip.
    pub fn total_sms(&self) -> u32 {
        self.clusters * self.sms_per_cluster
    }

    /// Blocks the whole chip can hold resident at once.
    pub fn capacity_blocks(&self) -> u32 {
        self.total_sms() * self.blocks_per_sm
    }

    /// The home SM of the `launch_index`-th launched block:
    /// round-robin over all SMs, wrapping deterministically past the
    /// occupancy limit (later waves re-use earlier SMs' L1s).
    pub fn home_sm(&self, launch_index: u32) -> u32 {
        launch_index % self.total_sms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts_multiply() {
        let t = Topology::uniform(2, 4, 8);
        assert_eq!(t.total_sms(), 8);
        assert_eq!(t.capacity_blocks(), 64);
    }

    #[test]
    fn home_sm_round_robins_and_wraps() {
        let t = Topology::uniform(2, 2, 2);
        let homes: Vec<u32> = (0..6).map(|i| t.home_sm(i)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1], "wraps past total_sms");
    }

    #[test]
    fn consecutive_launches_land_on_distinct_sms() {
        // The launch queue interleaves app and stress blocks; the
        // round-robin guarantees consecutive blocks get distinct home
        // SMs whenever the chip has more than one.
        let t = Topology::uniform(2, 4, 8);
        for i in 0..t.total_sms() - 1 {
            assert_ne!(t.home_sm(i), t.home_sm(i + 1));
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_is_rejected() {
        Topology::uniform(0, 4, 8);
    }
}
