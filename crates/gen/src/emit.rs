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

use crate::shape::{Event, TestEvents};
use wmm_litmus::{LitmusLayout, Placement, MAX_OBSERVERS};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::Program;

/// Check the layout can host the shape (locations below the result
/// region, reads within the observer slots, every location in a single
/// memory space).
fn check_layout(events: &TestEvents, layout: &LitmusLayout) {
    let locs = events.num_locs();
    assert!(locs >= 1, "a shape must touch at least one location");
    assert!(
        layout.loc_addr(locs - 1) < layout.result_base,
        "communication locations must sit below the result region"
    );
    assert!(
        events.num_reads() <= MAX_OBSERVERS,
        "shape has more reads than observer slots"
    );
    for l in 0..locs {
        // Panics on a location accessed in both spaces.
        let _ = events.space_of(l);
    }
}

/// Emit the shape as `wmm-sim` IR under `layout`.
///
/// # Panics
///
/// Panics if the layout cannot host the shape (see the module docs);
/// builder-produced programs always validate.
pub fn build_program(events: &TestEvents, layout: &LitmusLayout) -> Program {
    check_layout(events, layout);
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
    use wmm_sim::ir::Inst;

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
                .filter(|i| i.is_memory_access() && !i.is_global_access())
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
        assert!(p
            .insts
            .iter()
            .all(|i| !i.is_memory_access() || i.is_global_access()));
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
}
