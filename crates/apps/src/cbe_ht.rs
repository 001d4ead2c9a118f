//! `cbe-ht`: the concurrent hashtable from *CUDA by Example* (ch. A1.3).
//!
//! Threads insert key/value nodes into per-bucket linked lists, each
//! bucket protected by a custom spinlock. The insertion writes the new
//! node's `next` pointer and then publishes the node by overwriting the
//! bucket head — all inside the critical section. On a weak machine the
//! head-publishing store can be reordered after the unlock, so the next
//! holder of the bucket lock reads a stale head and links its node over
//! the previous insertion, losing it.
//!
//! Post-condition: every inserted key is found in the final table
//! (traversing bucket lists on the host), each exactly once.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::word::Word;

/// Number of hash buckets.
pub const BUCKETS: u32 = 8;
/// Number of keys inserted (one per thread).
pub const KEYS: u32 = 64;

/// Word address of the bucket locks (one word each).
pub const LOCKS: u32 = 0;
/// Word address of the bucket head pointers (0 = null, else node index + 1).
pub const HEADS: u32 = 128;
/// Node-pool allocation counter.
pub const POOL_COUNTER: u32 = 192;
/// Base of the node pool: node `i` occupies `[NODES + 2i] = key`,
/// `[NODES + 2i + 1] = next`.
pub const NODES: u32 = 256;

/// Blocks in the grid.
pub const BLOCKS: u32 = 2;
/// Threads per block.
pub const TPB: u32 = 32;

/// The `cbe-ht` case study. See the module docs.
#[derive(Debug, Clone)]
pub struct CbeHt {
    spec: AppSpec,
}

impl CbeHt {
    /// Build the application; thread `t` inserts key `t + 1` (keys are
    /// non-zero so an unwritten node is distinguishable).
    pub fn new() -> Self {
        let spec = AppSpec {
            name: "cbe-ht".into(),
            phases: vec![Phase {
                program: kernel(),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: 0,
            }],
            global_words: NODES + 2 * KEYS + 8,
            init: Vec::new(),
            max_turns_per_phase: 900_000,
        };
        CbeHt { spec }
    }
}

impl Default for CbeHt {
    fn default() -> Self {
        CbeHt::new()
    }
}

impl Application for CbeHt {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        // Walk every bucket list, collecting keys.
        let mut seen = vec![false; (KEYS + 2) as usize];
        let mut found = 0u32;
        for bucket in 0..BUCKETS {
            let mut cursor = memory[(HEADS + bucket) as usize];
            let mut hops = 0;
            while cursor != 0 {
                hops += 1;
                if hops > KEYS + 1 {
                    return Err(format!("cycle detected in bucket {bucket}"));
                }
                let node = cursor - 1;
                let key = memory[(NODES + 2 * node) as usize];
                if key == 0 || key > KEYS {
                    return Err(format!("corrupt key {key} in bucket {bucket}"));
                }
                if key % BUCKETS != bucket {
                    return Err(format!("key {key} hashed to wrong bucket {bucket}"));
                }
                if seen[key as usize] {
                    return Err(format!("key {key} present twice"));
                }
                seen[key as usize] = true;
                found += 1;
                cursor = memory[(NODES + 2 * node + 1) as usize];
            }
        }
        if found != KEYS {
            return Err(format!(
                "hashtable holds {found} of {KEYS} inserted elements"
            ));
        }
        Ok(())
    }
}

/// The insertion kernel: every thread allocates a node from the pool and
/// links it into its key's bucket under the bucket lock.
fn kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("cbe-ht");
    let gtid = b.global_tid();
    let one = b.const_(1);
    let key = b.add(gtid, one);
    let buckets = b.const_(BUCKETS);
    let bucket = b.rem_u(key, buckets);

    // node = atomicAdd(&pool_counter, 1)
    let ctr = b.const_(POOL_COUNTER);
    let node = b.atomic_add_global(ctr, one);

    // node.key = key (private until published)
    let two = b.const_(2);
    let nodes_base = b.const_(NODES);
    let off = b.mul(node, two);
    let key_addr = b.add(nodes_base, off);
    let next_addr = b.add(key_addr, one);
    b.store_global(key_addr, key);

    // lock(bucket)
    let locks = b.const_(LOCKS);
    let lock_addr = b.add(locks, bucket);
    b.spin_lock(lock_addr);

    // node.next = head; head = node + 1
    let heads = b.const_(HEADS);
    let head_addr = b.add(heads, bucket);
    let head = b.load_global(head_addr);
    b.store_global(next_addr, head);
    let published = b.add(node, one);
    b.store_global(head_addr, published);

    // unlock(bucket)
    b.unlock(lock_addr);
    b.finish().expect("cbe-ht kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment, RunVerdict};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("770").unwrap().sequentially_consistent()
    }

    #[test]
    fn correct_under_sequential_consistency() {
        let app = CbeHt::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        for seed in 0..8 {
            let out = h.run_once(&Environment::native(), seed);
            assert_eq!(out.verdict, RunVerdict::Pass, "seed {seed}");
        }
    }

    #[test]
    fn checker_rejects_lost_insertions() {
        let app = CbeHt::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        // Obtain a correct memory image, then damage it.
        let chip = sc_chip();
        let mut gpu = wmm_sim::exec::Gpu::new(chip);
        let spec = wmm_sim::exec::LaunchSpec {
            groups: vec![wmm_sim::exec::KernelGroup {
                program: std::sync::Arc::new(app.spec().phases[0].program.clone()),
                blocks: BLOCKS,
                threads_per_block: TPB,
                role: wmm_sim::exec::Role::App,
            }],
            global_words: app.spec().global_words,
            shared_words: 0,
            init_image: vec![],
            init: vec![],
            max_turns: 900_000,
            randomize_ids: false,
        };
        let r = gpu.run(&spec, 3);
        assert!(app.check(&r.memory).is_ok());
        let mut broken = r.memory.clone();
        // Empty one bucket: its keys disappear.
        broken[HEADS as usize] = 0;
        assert!(app.check(&broken).is_err());
        let _ = h;
    }
}
