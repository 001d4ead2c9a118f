//! # wmm-gen — litmus-test generation and the SC-enumeration oracle
//!
//! The paper's testing environment is exercised on the three Fig. 2
//! idioms, each historically hand-written with a hardcoded weak-outcome
//! predicate. This crate replaces that trio with a *generator*:
//!
//! * [`shape`] — a catalogue of classic communication-cycle litmus
//!   shapes (MP, LB, SB, S, R, 2+2W, WRC, RWC, ISA2, IRIW, the
//!   coherence tests CoRR and CoWW, the device-fenced variants
//!   MP/SB/WRC/ISA2/IRIW+fences, the scoped variants MP.shared,
//!   SB.shared and CoRR.shared with their block-fenced twins
//!   `+fence_block`, the mixed-scope shapes MP.mixed and ISA2.scoped,
//!   and the atomic-RMW cycles MP+CAS, 2+2W.exch and CoAdd), each an
//!   abstract list of read, write, fence (device- or block-level) and
//!   read-modify-write events per thread plus a thread [`Placement`];
//! * [`oracle`] — a small-step sequential-consistency semantics that
//!   exhaustively interleaves a shape's events to compute the set of
//!   SC-reachable outcomes (RMWs as single indivisible steps,
//!   shared-space locations as per-block state); an observed outcome is
//!   **weak** exactly when it is outside that set, so every weak
//!   predicate is *derived*;
//! * [`emit`] — lowering to runnable kernels as `wmm-sim` IR through
//!   `KernelBuilder`.
//!
//! [`TestEvents::instance`] ties the three together: it emits the kernel
//! of any event list, catalogue shape or not, and derives its forbidden
//! outcomes. [`Shape::instance`] calls it on the shape's events, and
//! [`TestEvents::check_layout`] says beforehand whether a layout can
//! host them.
//!
//! Campaigning generated instances — across chips, stress strategies and
//! worker counts — is the job of the unified campaign facade in
//! `wmm-core` (`wmm_core::campaign` and the suite runner
//! `wmm_core::suite`), which sits above this crate.
//!
//! ```
//! use wmm_gen::Shape;
//! use wmm_litmus::LitmusLayout;
//!
//! // Build IRIW at distance 64; its forbidden outcomes come from the
//! // SC oracle, not from a hand-written predicate.
//! let inst = Shape::Iriw.instance(LitmusLayout::standard(64, 4096));
//! assert_eq!(inst.threads, 4);
//! assert!(inst.is_weak(&[1, 0, 1, 0])); // the classic IRIW violation
//! assert!(!inst.is_weak(&[1, 1, 1, 1]));
//! ```

pub mod emit;
pub mod oracle;
pub mod shape;

pub use shape::{Event, Shape, TestEvents};
pub use wmm_litmus::Placement;

use wmm_litmus::{LitmusInstance, LitmusLayout};

impl TestEvents {
    /// Build a runnable instance of these events under `layout`: the
    /// kernel is emitted through `KernelBuilder` and the weak predicate
    /// is derived by the SC oracle.
    ///
    /// # Panics
    ///
    /// Panics if [`TestEvents::check_layout`] refuses `layout`.
    pub fn instance(&self, layout: LitmusLayout) -> LitmusInstance {
        LitmusInstance::with_placement(
            self.name.clone(),
            layout,
            emit::build_program(self, &layout),
            self.threads.len() as u32,
            self.num_locs(),
            self.observers(),
            oracle::sc_outcomes(self),
            self.placement,
            self.shared_words_for(&layout),
        )
    }
}

impl Shape {
    /// Build a runnable instance of this shape under `layout` (see
    /// [`TestEvents::instance`]).
    ///
    /// # Panics
    ///
    /// Panics if the layout cannot host the shape.
    pub fn instance(&self, layout: LitmusLayout) -> LitmusInstance {
        self.events().instance(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trio_instances_carry_the_legacy_predicates() {
        let layout = LitmusLayout::standard(64, 4096);
        let mp = Shape::Mp.instance(layout);
        assert!(mp.is_weak(&[1, 0]) && !mp.is_weak(&[0, 1]));
        let lb = Shape::Lb.instance(layout);
        assert!(lb.is_weak(&[1, 1]) && !lb.is_weak(&[1, 0]));
        let sb = Shape::Sb.instance(layout);
        assert!(sb.is_weak(&[0, 0]) && !sb.is_weak(&[0, 1]));
    }

    #[test]
    fn instances_build_for_all_shapes_and_distances() {
        for s in Shape::ALL {
            for d in [0, 1, 31, 32, 64, 255] {
                let i = s.instance(LitmusLayout::standard(d, 8192));
                assert!(i.program.len() > 8);
                assert_eq!(i.threads as usize, s.events().threads.len());
                assert!(!i.allowed.is_empty(), "{s}: empty SC set");
            }
        }
    }

    #[test]
    fn scoped_instances_carry_intra_placement_and_shared_memory() {
        let layout = LitmusLayout::standard(64, 4096);
        for s in Shape::SCOPED {
            let i = s.instance(layout);
            assert_eq!(i.placement, Placement::IntraBlock, "{s}");
            assert!(i.shared_words > 0, "{s}");
            let spec = i.launch(Vec::new(), Vec::new(), false);
            assert_eq!(spec.groups[0].blocks, 1, "{s}");
            assert_eq!(spec.groups[0].threads_per_block, i.threads * 32, "{s}");
            assert_eq!(spec.shared_words, i.shared_words, "{s}");
        }
        for s in [Shape::Mp, Shape::MpCas, Shape::CoAdd] {
            let i = s.instance(layout);
            assert_eq!(i.placement, Placement::InterBlock, "{s}");
            assert_eq!(i.shared_words, 0, "{s}");
        }
    }

    #[test]
    fn rmw_instances_flag_torn_outcomes_as_weak() {
        let layout = LitmusLayout::standard(64, 4096);
        let co = Shape::CoAdd.instance(layout);
        // Both adds observing 0 (a torn increment) is not SC-reachable.
        assert!(co.is_weak(&[0, 0, 1]));
        assert!(co.is_weak(&[0, 0, 2]));
        assert!(!co.is_weak(&[0, 1, 2]));
        assert!(!co.is_weak(&[1, 0, 2]));
        let mpc = Shape::MpCas.instance(layout);
        // CAS claimed the flag (old = 1) but the payload read missed.
        assert!(mpc.is_weak(&[0, 1, 0, 2]));
        assert!(!mpc.is_weak(&[0, 1, 1, 2]));
    }
}
