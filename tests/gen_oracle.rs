//! The generator + oracle contract, end to end:
//!
//! * property tests (vendored `proptest`): every generated program
//!   passes the IR validator, and programs are unique per
//!   `(shape, distance)`;
//! * the extended-oracle properties: RMW events never interleave
//!   internally (atomicAdd chains observe exact prefix sums),
//!   shared-space events on different blocks never communicate, and
//!   every derived outcome vector is unique, well-formed and accepted
//!   by its own instance's validator;
//! * the agreement tests: the SC oracle's derived weak predicates
//!   exactly reproduce the legacy hand-written `is_weak` of the Fig. 2
//!   trio at several distances, and the RMW cycles' derived sets equal
//!   their hand-enumerated SC sets at distance 0;
//! * suite determinism: campaign histograms are bit-identical across
//!   1/2/8 workers, including under stress.

use gpu_wmm::core::stress::Scratchpad;
use gpu_wmm::core::suite::{run_suite, SuiteConfig, SuiteStrategy};
use gpu_wmm::gen::{oracle, Event, Placement, Shape, TestEvents};
use gpu_wmm::litmus::LitmusLayout;
use gpu_wmm::sim::ir::validate::validate;
use gpu_wmm::sim::ir::Space;
use proptest::prelude::*;
use std::collections::BTreeSet;
use wmm_sim::chip::Chip;

fn shape_of(idx: usize) -> Shape {
    Shape::ALL[idx % Shape::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated program validates, at arbitrary distances.
    #[test]
    fn generated_programs_validate(si in 0usize..Shape::ALL.len(), d in 0u32..256) {
        let inst = shape_of(si).instance(LitmusLayout::standard(d, 8192));
        prop_assert!(validate(&inst.program).is_ok());
    }

    /// The derived SC set never covers the whole observed-value space:
    /// every instance retains at least one forbidden (weak) outcome over
    /// the 0/1/2 value range its writes could produce.
    #[test]
    fn every_instance_keeps_a_forbidden_outcome(si in 0usize..Shape::ALL.len(), d in 0u32..200) {
        let shape = shape_of(si);
        let inst = shape.instance(LitmusLayout::standard(d, 8192));
        let width = inst.observers.len();
        let mut found_weak = false;
        let mut v = vec![0u32; width];
        'outer: loop {
            if inst.is_weak(&v) {
                found_weak = true;
                break;
            }
            for slot in v.iter_mut() {
                *slot += 1;
                if *slot <= 2 {
                    continue 'outer;
                }
                *slot = 0;
            }
            break;
        }
        prop_assert!(found_weak, "{shape}: no weak outcome in value range");
    }

    /// RMW events never interleave internally: a chain of `atomicAdd`s
    /// on one location always observes exact prefix sums of the added
    /// values (each old value equals the pre-state of its own step), in
    /// *some* interleaving order, and memory ends at the full sum.
    #[test]
    fn rmw_adds_never_tear(nthreads in 2usize..5, val in 1u32..4) {
        let ev = TestEvents {
            name: "add-chain".into(),
            threads: (0..nthreads)
                .map(|_| vec![Event::Add { loc: 0, val, space: Space::Global }])
                .collect(),
            placement: Placement::InterBlock,
        };
        let outcomes = oracle::sc_outcomes(&ev);
        // nthreads! interleavings all collapse to the same multiset of
        // olds {0, v, 2v, …}; the outcome vectors are its permutations.
        for obs in &outcomes {
            let olds = &obs[..nthreads];
            let mut sorted = olds.to_vec();
            sorted.sort_unstable();
            let expected: Vec<u32> = (0..nthreads as u32).map(|i| i * val).collect();
            prop_assert_eq!(&sorted, &expected, "torn RMW: {:?}", obs);
            // Final memory (the multi-written location's observer).
            prop_assert_eq!(obs[nthreads], nthreads as u32 * val);
        }
    }

    /// Shared-space events on different blocks never communicate: under
    /// inter-block placement each thread owns a private copy, so a
    /// thread that writes then reads a shared location always sees its
    /// own write — and nothing else — no matter how threads interleave.
    #[test]
    fn inter_block_shared_events_are_isolated(nthreads in 2usize..5, seed in 0u32..1000) {
        let vals: Vec<u32> = (0..nthreads as u32).map(|t| 1 + (seed + t) % 7).collect();
        let ev = TestEvents {
            name: "shared-isolated".into(),
            threads: vals
                .iter()
                .map(|&v| vec![
                    Event::W { loc: 0, val: v, space: Space::Shared },
                    Event::R { loc: 0, space: Space::Shared },
                ])
                .collect(),
            placement: Placement::InterBlock,
        };
        let outcomes = oracle::sc_outcomes(&ev);
        // One reachable outcome: every thread reads its own value.
        prop_assert_eq!(outcomes.len(), 1, "{:?}", outcomes);
        prop_assert!(outcomes.contains(&vals));
        // The same program intra-block *does* communicate: later
        // readers may observe other threads' writes too.
        let intra = TestEvents { placement: Placement::IntraBlock, ..ev };
        prop_assert!(oracle::sc_outcomes(&intra).len() > 1);
    }

    /// `Event::FenceBlock` is a no-op for the SC-enumeration oracle,
    /// exactly like `Event::Fence`: inserting a block fence at *any*
    /// position of *any* thread of *any* catalogue shape leaves the
    /// derived SC outcome set unchanged (fences only exist on the weak
    /// hardware; under SC nothing is unordered for them to order).
    #[test]
    fn fence_block_is_oracle_invisible(
        si in 0usize..Shape::ALL.len(),
        tsel in 0usize..64,
        psel in 0usize..64,
    ) {
        let shape = shape_of(si);
        let base = shape.events();
        let expected = oracle::sc_outcomes(&base);
        let mut fenced = base.clone();
        let t = tsel % fenced.threads.len();
        let pos = psel % (fenced.threads[t].len() + 1);
        fenced.threads[t].insert(pos, Event::FenceBlock);
        prop_assert_eq!(
            oracle::sc_outcomes(&fenced),
            expected,
            "{} with a block fence at thread {} pos {}",
            shape, t, pos
        );
    }

    /// Every derived outcome vector is unique, has the instance's
    /// observer width, and is accepted by the instance's own weak
    /// predicate (the validator of observed runs).
    #[test]
    fn derived_outcomes_are_unique_and_validator_accepted(
        si in 0usize..Shape::ALL.len(),
        d in 0u32..200,
    ) {
        let shape = shape_of(si);
        let inst = shape.instance(LitmusLayout::standard(d, 8192));
        let unique: BTreeSet<&Vec<u32>> = inst.allowed.iter().collect();
        prop_assert_eq!(unique.len(), inst.allowed.len());
        for obs in inst.allowed.iter() {
            prop_assert_eq!(obs.len(), inst.observers.len(), "{} d={d}", shape);
            prop_assert!(!inst.is_weak(obs), "{} flags its own SC outcome", shape);
        }
    }
}

/// Distinct `(shape, distance)` pairs yield distinct programs — the
/// generator does not collapse the catalogue. Full disassembly
/// (including the distance-tagged kernel name) is unique everywhere;
/// for shapes with more than one location the *instruction stream*
/// itself must also change with the distance, because the embedded
/// location addresses move.
#[test]
fn programs_unique_per_shape_and_distance() {
    let distances = [0u32, 16, 32, 64, 128];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut n = 0;
    for shape in Shape::ALL {
        let mut bodies: BTreeSet<String> = BTreeSet::new();
        for &d in &distances {
            let inst = shape.instance(LitmusLayout::standard(d, 8192));
            // The disassembly is a faithful fingerprint of the program.
            seen.insert(inst.program.to_string());
            n += 1;
            bodies.insert(format!("{:?}", inst.program.insts));
        }
        if shape.events().num_locs() >= 2 {
            assert_eq!(
                bodies.len(),
                distances.len(),
                "{shape}: instruction streams collapsed across distances"
            );
        }
    }
    assert_eq!(seen.len(), n, "two (shape, distance) pairs share a program");
}

/// The oracle-derived weak predicates agree *exactly* with the legacy
/// hand-written Fig. 2 predicates, for every observable register pair
/// and several distances. (The legacy predicates are restated here —
/// they no longer exist in the library, which is the point.)
#[test]
fn oracle_agrees_with_legacy_trio_predicates() {
    type LegacyPredicate = fn(u32, u32) -> bool;
    let legacy: [(&str, Shape, LegacyPredicate); 3] = [
        ("MP", Shape::Mp, |r1, r2| r1 == 1 && r2 == 0),
        ("LB", Shape::Lb, |r1, r2| r1 == 1 && r2 == 1),
        ("SB", Shape::Sb, |r1, r2| r1 == 0 && r2 == 0),
    ];
    for (name, shape, is_weak) in legacy {
        for d in [0u32, 1, 16, 64, 128, 255] {
            let inst = shape.instance(LitmusLayout::standard(d, 8192));
            for r1 in 0..=1u32 {
                for r2 in 0..=1u32 {
                    assert_eq!(
                        inst.is_weak(&[r1, r2]),
                        is_weak(r1, r2),
                        "{name} d={d} at ({r1},{r2})"
                    );
                }
            }
        }
    }
}

/// The oracle-derived SC sets of the RMW cycles equal small
/// hand-enumerated expected sets — the `Cas`/`Exch`/`Add` trio at
/// distance 0, worked out on paper the way the legacy trio predicates
/// were. (Distance moves addresses, not interleavings, so these sets
/// pin the semantics of the RMW events themselves.)
#[test]
fn oracle_agrees_with_hand_enumerated_rmw_sets() {
    let set = |vs: &[&[u32]]| -> BTreeSet<Vec<u32>> { vs.iter().map(|v| v.to_vec()).collect() };
    // MP+CAS, observers (T0 CAS old, T1 CAS old, T1 Rx, final y):
    //   T0: Wx1; CAS(y,0→1)   T1: CAS(y,1→2); Rx
    // T0's CAS always sees 0 (nobody else can make y non-zero first);
    // T1's CAS succeeds only after T0's, by which point x = 1.
    let mp_cas = set(&[&[0, 0, 0, 1], &[0, 0, 1, 1], &[0, 1, 1, 2]]);
    // 2+2W.exch, observers (r0..r3 olds, final x, final y): the six
    // interleavings of two two-exchange threads collapse to three
    // outcomes — all-T0-first, all-T1-first, and the interleaved band.
    let two_exch = set(&[
        &[0, 0, 2, 1, 2, 1],
        &[0, 1, 0, 1, 2, 2],
        &[2, 1, 0, 0, 1, 2],
    ]);
    // CoAdd, observers (old0, old1, final x): the olds are some
    // permutation of {0, 1} and the final value is always 2.
    let co_add = set(&[&[0, 1, 2], &[1, 0, 2]]);
    for (shape, expected) in [
        (Shape::MpCas, mp_cas),
        (Shape::TwoPlusTwoWExch, two_exch),
        (Shape::CoAdd, co_add),
    ] {
        let inst = shape.instance(LitmusLayout::standard(0, 8192));
        assert_eq!(*inst.allowed, expected, "{shape} at d=0");
        // And the weak predicate is exactly the complement.
        for obs in &expected {
            assert!(!inst.is_weak(obs), "{shape}: SC outcome flagged weak");
        }
        assert!(
            inst.is_weak(&vec![9; inst.observers.len()]),
            "{shape}: out-of-set outcome not weak"
        );
    }
}

/// Suite histograms are bit-identical across 1/2/8 workers, under both
/// the native and the tuned systematic stressing strategy.
#[test]
fn suite_is_deterministic_across_worker_counts() {
    let chips = [
        Chip::by_short("Titan").unwrap(),
        Chip::by_short("K20").unwrap(),
    ];
    let strategies = vec![SuiteStrategy::native(), SuiteStrategy::sys_str_plus(40)];
    let shapes = [
        Shape::Mp,
        Shape::Sb,
        Shape::TwoPlusTwoW,
        Shape::Iriw,
        Shape::MpShared,
        Shape::TwoPlusTwoWExch,
    ];
    let run = |workers: usize| {
        run_suite(
            &shapes,
            &chips,
            &strategies,
            &SuiteConfig {
                execs: 16,
                pad: Scratchpad::new(2048, 2048),
                workers,
                ..Default::default()
            },
        )
    };
    let reference = run(1);
    assert_eq!(reference.len(), shapes.len() * chips.len() * 2);
    for workers in [2usize, 8] {
        let got = run(workers);
        assert_eq!(reference.len(), got.len());
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(
                a.hist, b.hist,
                "{}/{}/{} diverged at {workers} workers",
                a.shape, a.chip, a.strategy
            );
        }
    }
}
