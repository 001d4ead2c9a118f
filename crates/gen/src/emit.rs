//! Lowering abstract shapes to runnable kernels.
//!
//! [`build_program`] constructs `wmm-sim` IR directly through
//! [`KernelBuilder`], in the structure the paper's hand-written kernels
//! used: under [`Placement::InterBlock`] every test thread is lane 0 of
//! its own block; under [`Placement::IntraBlock`] all test threads
//! share one block, test thread `t` being lane 0 of warp `t` (so scoped
//! shapes can communicate through the block's shared memory). The
//! threads rendezvous on a global atomic counter before racing
//! (maximising temporal overlap, as the GPU LITMUS tool does); each
//! thread issues its test events in program order — plain accesses and
//! atomics in the event's space, RMW old values captured — and only then
//! writes its observed values to the result region, keeping the test's
//! accesses adjacent in the in-flight window exactly like the legacy
//! trio kernels, which is what makes their reorderings observable.
//!
//! [`TestEvents::check_layout`] is the one rule for which layouts can
//! host a test: [`build_program`] panics on its `Err`, and a caller that
//! must not panic (the campaign server validating a job) asks it first.

use crate::shape::{Event, TestEvents};
use wmm_litmus::{LitmusLayout, Placement, MAX_OBSERVERS};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::Program;

impl TestEvents {
    /// Whether `layout` can host these events: at least one location,
    /// the last location's address (computed without overflow) below
    /// the result region, and no more reads than observer slots.
    ///
    /// # Panics
    ///
    /// Panics if a location is accessed in both memory spaces (see
    /// [`TestEvents::space_of`]), a malformed test rather than a layout
    /// that does not fit.
    pub fn check_layout(&self, layout: &LitmusLayout) -> Result<(), String> {
        let last = self
            .num_locs()
            .checked_sub(1)
            .ok_or("a shape must touch at least one location")?;
        let fits = last
            .checked_mul(layout.distance.max(1))
            .and_then(|offset| offset.checked_add(layout.comm_base))
            .is_some_and(|addr| addr < layout.result_base);
        if !fits {
            return Err(format!(
                "{} at distance {}: communication locations must sit below \
                 the result region at word {}, and location {last} does not",
                self.name, layout.distance, layout.result_base
            ));
        }
        if self.num_reads() > MAX_OBSERVERS {
            return Err(format!("{} has more reads than observer slots", self.name));
        }
        for l in 0..=last {
            let _ = self.space_of(l);
        }
        Ok(())
    }
}

/// Emit the shape as `wmm-sim` IR under `layout`.
///
/// # Panics
///
/// Panics if [`TestEvents::check_layout`] refuses the layout;
/// builder-produced programs always validate.
pub fn build_program(events: &TestEvents, layout: &LitmusLayout) -> Program {
    if let Err(e) = events.check_layout(layout) {
        panic!("{e}");
    }
    let nthreads = events.threads.len() as u32;
    let mut b = KernelBuilder::new(format!("litmus-{}-d{}", events.name, layout.distance));
    let zero = b.const_(0);
    // Under inter-block placement only lane 0 of each block runs the
    // test (tid == 0 in its one-warp block); under intra-block
    // placement lane 0 of every warp does.
    let is_active = match events.placement {
        Placement::InterBlock => {
            let tid = b.tid();
            b.eq(tid, zero)
        }
        Placement::IntraBlock => {
            let lane = b.lane();
            b.eq(lane, zero)
        }
    };
    b.if_(is_active, |b| {
        // Start alignment: all test threads rendezvous on a counter
        // before racing (without it most runs have the threads executing
        // far apart in time and no interesting interleavings occur).
        let sync = b.const_(layout.sync_addr());
        let one = b.const_(1);
        let n = b.const_(nthreads);
        let _ = b.atomic_add_global(sync, one);
        b.while_(
            |b| {
                let seen = b.load_global(sync);
                b.ne(seen, n)
            },
            |_| {},
        );
        // Which test thread am I: the block index inter-block, the warp
        // index intra-block.
        let me = match events.placement {
            Placement::InterBlock => b.bid(),
            Placement::IntraBlock => {
                let tid = b.tid();
                let warp = b.const_(32);
                b.div_u(tid, warp)
            }
        };
        let mut next_read = 0u32;
        for (t, evs) in events.threads.iter().enumerate() {
            let tk = b.const_(t as u32);
            let is_t = b.eq(me, tk);
            // Compute this thread's read indices before entering the
            // closure; reads are numbered thread-major across the test.
            let first_read = next_read;
            next_read += evs.iter().filter(|e| e.is_read_like()).count() as u32;
            b.if_(is_t, |b| {
                let mut read_regs = Vec::new();
                for ev in evs {
                    match *ev {
                        Event::W { loc, val, space } => {
                            let a = b.const_(layout.loc_addr(loc));
                            let v = b.const_(val);
                            b.store_in(space, a, v);
                        }
                        Event::R { loc, space } => {
                            let a = b.const_(layout.loc_addr(loc));
                            read_regs.push(b.load_in(space, a));
                        }
                        Event::Fence => b.fence_device(),
                        Event::FenceBlock => b.fence_block(),
                        Event::Cas {
                            loc,
                            cmp,
                            val,
                            space,
                        } => {
                            let a = b.const_(layout.loc_addr(loc));
                            let c = b.const_(cmp);
                            let v = b.const_(val);
                            read_regs.push(b.atomic_cas_in(space, a, c, v));
                        }
                        Event::Exch { loc, val, space } => {
                            let a = b.const_(layout.loc_addr(loc));
                            let v = b.const_(val);
                            read_regs.push(b.atomic_exch_in(space, a, v));
                        }
                        Event::Add { loc, val, space } => {
                            let a = b.const_(layout.loc_addr(loc));
                            let v = b.const_(val);
                            read_regs.push(b.atomic_add_in(space, a, v));
                        }
                    }
                }
                // Result stores last, so the test's own accesses stay
                // adjacent in the in-flight window.
                for (i, r) in read_regs.into_iter().enumerate() {
                    let res = b.const_(layout.result_base + first_read + i as u32);
                    b.store_global(res, r);
                }
            });
        }
    });
    b.finish()
        .expect("generated litmus kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use wmm_sim::ir::validate::validate;
    use wmm_sim::ir::{Inst, Space};

    fn layout(d: u32) -> LitmusLayout {
        LitmusLayout::standard(d, 4096)
    }

    #[test]
    fn every_shape_builds_and_validates() {
        for shape in Shape::ALL {
            for d in [0, 1, 32, 64, 255] {
                let p = build_program(&shape.events(), &layout(d));
                validate(&p).unwrap_or_else(|e| panic!("{shape} d={d}: {e:?}"));
                assert!(p.len() > 8, "{shape} d={d} suspiciously small");
            }
        }
    }

    #[test]
    fn scoped_kernels_access_shared_space() {
        for shape in Shape::SCOPED {
            let p = build_program(&shape.events(), &layout(64));
            let shared_accesses = p
                .insts
                .iter()
                .filter(|i| i.space() == Some(Space::Shared))
                .count();
            // One per data event: the rendezvous and result stores stay
            // global.
            let data_events: usize = shape
                .events()
                .threads
                .iter()
                .flatten()
                .filter(|e| e.loc().is_some())
                .count();
            assert_eq!(shared_accesses, data_events, "{shape}\n{p}");
        }
        // Non-scoped shapes touch shared memory nowhere.
        let p = build_program(&Shape::MpCas.events(), &layout(64));
        assert!(p.insts.iter().all(|i| i.space() != Some(Space::Shared)));
    }

    #[test]
    fn rmw_kernels_carry_the_atomics() {
        let p = build_program(&Shape::MpCas.events(), &layout(64));
        // Two test CASes plus the rendezvous atomicAdd.
        let cas = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::AtomicCas { .. }))
            .count();
        assert_eq!(cas, 2, "{p}");
        let p = build_program(&Shape::TwoPlusTwoWExch.events(), &layout(64));
        let exch = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::AtomicExch { .. }))
            .count();
        assert_eq!(exch, 4, "{p}");
    }

    #[test]
    #[should_panic(expected = "communication locations")]
    fn oversized_distance_rejected() {
        // d so large location 2 collides with the result region.
        let _ = build_program(&Shape::Isa2.events(), &layout(600));
    }

    #[test]
    fn layout_rule_bounds_the_last_location_without_wrapping() {
        let isa2 = Shape::Isa2.events();
        // ISA2's location 2 sits at 2·d: 511, the largest distance the
        // campaign server admits, puts it at word 1022, below the result
        // region at 1024...
        let largest = (layout(1).result_base - 1) / 2;
        assert_eq!(isa2.check_layout(&layout(largest)), Ok(()));
        assert!(isa2.check_layout(&layout(largest + 1)).is_err());
        // ...and at 2^31 + 1 the address 2^32 + 2 overflows rather than
        // wrapping to word 2.
        let err = isa2.check_layout(&layout((1 << 31) + 1)).unwrap_err();
        assert!(err.contains("communication locations"), "{err}");
    }
}
