//! Cross-thread conflict graph and Shasha–Snir delay-set detection.
//!
//! Events are (analysis thread, instruction) pairs over the reachable
//! memory accesses of each thread's pruned CFG. Two events *conflict*
//! when they come from different threads, touch the same [`Space`],
//! may overlap in address, and at least one may write; shared-space
//! conflicts additionally require the two threads to share a block,
//! because shared memory is per-block.
//!
//! A program-order pair (a, b) in one thread is a *delay* when a mixed
//! path b ⇝ a exists through the union of program-order and conflict
//! edges using at least one conflict edge — the critical-cycle
//! condition of Shasha & Snir. Same-address pairs are exempt from this
//! *reordering* channel: the in-flight window, like real chips'
//! store buffers, preserves per-location coherence, so only
//! cross-location reorderings can break sequential consistency there.
//!
//! Per-location coherence is **not** a chip-independent guarantee,
//! though. On chips whose SM-private L1 caches are incoherent, a plain
//! global load may hit a stale line created by a remote SM's write, so
//! a same-address load-load pair (`CoRR` and friends) can observe new
//! then old. [`l1_read_read_edges`] computes those pairs as an extra,
//! chip-gated edge set: callers with an incoherent-L1
//! [`Chip`](wmm_sim::chip::Chip) union it into the delay set (see
//! `analyze_litmus_on_chip`), while the chip-independent analysis keeps
//! the coherence exemption.
//!
//! Each delay edge carries the *minimal* fence level that orders it:
//! [`FenceLevel::Block`] when both endpoints are provably shared-space
//! (every conflict partner then lives in the same block), otherwise
//! [`FenceLevel::Device`]. An edge already separated by a sufficient
//! fence — or by a [`Inst::Barrier`], which drains the whole in-flight
//! window — on every CFG path is reported as `fenced`.

use crate::absint::{analyze_thread, AbsVal, ThreadAbs, ThreadCtx};
use wmm_sim::ir::{FenceLevel, Inst, Program, Space};

/// One analysis thread: concrete identity plus its abstraction.
#[derive(Debug, Clone)]
pub struct ThreadModel {
    /// The thread's concrete special registers.
    pub ctx: ThreadCtx,
    /// Its abstract execution.
    pub abs: ThreadAbs,
    /// Reachable memory-access instruction indices, in program order.
    pub accesses: Vec<usize>,
    /// Row-major bit matrix, `row_words` words per instruction: bit `j`
    /// of row `i` is set when a CFG path of length ≥ 1 leads from `i` to
    /// `j`.
    reach: Vec<u64>,
    row_words: usize,
}

impl ThreadModel {
    /// Abstractly execute `p` as the thread `ctx`.
    pub fn build(p: &Program, ctx: ThreadCtx) -> Self {
        let abs = analyze_thread(p, &ctx);
        let n = p.insts.len();
        let accesses: Vec<usize> = p
            .memory_access_indices()
            .into_iter()
            .filter(|&i| abs.reachable[i])
            .collect();
        let row_words = n.div_ceil(64);
        let mut reach = vec![0u64; n * row_words];
        // The least fixpoint of reach(i) = ∪ {s} ∪ reach(s) over the
        // feasible successors s of i. Sweeping backwards settles every
        // forward edge in one pass; back edges take another.
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                for &s in abs.succs[i].iter().filter(|&&s| s < n) {
                    for w in 0..row_words {
                        let mut add = reach[s * row_words + w];
                        if w == s / 64 {
                            add |= 1 << (s % 64);
                        }
                        let cur = &mut reach[i * row_words + w];
                        changed |= *cur | add != *cur;
                        *cur |= add;
                    }
                }
            }
        }
        ThreadModel {
            ctx,
            abs,
            accesses,
            reach,
            row_words,
        }
    }

    /// Is there a program-order path (length ≥ 1) from `i` to `j`?
    pub fn po(&self, i: usize, j: usize) -> bool {
        let n = self.abs.reachable.len();
        assert!(
            i < n && j < n,
            "po({i}, {j}) outside a {n}-instruction program"
        );
        self.reach[i * self.row_words + j / 64] & (1 << (j % 64)) != 0
    }
}

/// A memory event: instruction `inst` executed by analysis thread
/// `thread` (an index into the thread-model slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Index of the analysis thread.
    pub thread: usize,
    /// Instruction index in the program.
    pub inst: usize,
}

/// A program-order pair that participates in a critical cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayEdge {
    /// Index of the analysis thread the pair belongs to.
    pub thread: usize,
    /// First access of the pair (fence site: "fence after this").
    pub from: usize,
    /// Second access of the pair.
    pub to: usize,
    /// Minimal fence level that orders the pair.
    pub level: FenceLevel,
    /// True when every CFG path `from` → `to` already crosses a
    /// sufficient fence or barrier.
    pub fenced: bool,
}

fn addr_of(t: &ThreadModel, i: usize) -> &AbsVal {
    t.abs.addr_at[i]
        .as_ref()
        .expect("memory accesses carry an address")
}

/// Do events `(ta, ia)` and `(tb, ib)` conflict?
fn conflicts(p: &Program, ts: &[ThreadModel], a: Event, b: Event) -> bool {
    if a.thread == b.thread {
        return false;
    }
    let (ia, ib) = (&p.insts[a.inst], &p.insts[b.inst]);
    let (Some(sa), Some(sb)) = (ia.space(), ib.space()) else {
        return false;
    };
    if sa != sb || !(ia.may_write() || ib.may_write()) {
        return false;
    }
    if sa == Space::Shared && ts[a.thread].ctx.bid != ts[b.thread].ctx.bid {
        return false; // shared memory is per-block
    }
    addr_of(&ts[a.thread], a.inst).overlaps(addr_of(&ts[b.thread], b.inst))
}

/// Are the two accesses provably the same single address?
fn provably_same_addr(ts: &[ThreadModel], t: usize, i: usize, j: usize) -> bool {
    match (
        addr_of(&ts[t], i).as_singleton(),
        addr_of(&ts[t], j).as_singleton(),
    ) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Is a fence instruction sufficient to order an edge of `level`?
fn orders(inst: &Inst, level: FenceLevel) -> bool {
    match inst {
        // A barrier drains the thread's entire in-flight window before
        // any later access issues, so it orders everything a device
        // fence would.
        Inst::Barrier => true,
        Inst::Fence(FenceLevel::Device) => true,
        Inst::Fence(FenceLevel::Block) => level == FenceLevel::Block,
        _ => false,
    }
}

/// A visited set and a stack, reused across searches.
#[derive(Default)]
struct Dfs {
    seen: Vec<bool>,
    stack: Vec<usize>,
}

/// True when every feasible CFG path `from` → `to` in thread `t`
/// crosses an instruction that [`orders`] the edge.
fn edge_fenced(
    p: &Program,
    t: &ThreadModel,
    from: usize,
    to: usize,
    level: FenceLevel,
    dfs: &mut Dfs,
) -> bool {
    let n = p.insts.len();
    dfs.seen.clear();
    dfs.seen.resize(n, false);
    dfs.stack.clear();
    dfs.stack.extend_from_slice(&t.abs.succs[from]);
    while let Some(i) = dfs.stack.pop() {
        if i >= n || dfs.seen[i] {
            continue;
        }
        dfs.seen[i] = true;
        if i == to {
            return false; // found an unordered path
        }
        if orders(&p.insts[i], level) {
            continue; // paths through here are ordered
        }
        dfs.stack.extend_from_slice(&t.abs.succs[i]);
    }
    true
}

/// Compute the incoherent-L1 read-read edges of `p`: program-order
/// pairs of **plain global loads** in one thread that may read the same
/// address, where a conflicting global write exists in a thread of
/// another block. On a chip with incoherent SM-private L1s the second
/// load may hit a stale line the remote write left behind, observing
/// new-then-old — the structural violation of `CoRR` — so the pair
/// needs a device fence (which refreshes the home SM's L1) just like a
/// reordering delay.
///
/// Only plain loads participate: atomics read through to L2 (always
/// fresh), and the emitted kernels' rendezvous counters are atomic
/// RMWs, so synchronisation idioms produce no edges here. Same-block
/// writers are excluded — threads of one block share a home SM, and a
/// writer invalidates its own SM's line, so staleness needs the writer
/// on a *different* SM (conservatively: a different block).
///
/// Chip-gated by the caller: these edges exist only where
/// `Chip::l1_weak()` holds; the chip-independent [`delay_edges`] never
/// includes them.
pub fn l1_read_read_edges(p: &Program, ts: &[ThreadModel]) -> Vec<DelayEdge> {
    let is_plain_global_load = |i: usize| {
        matches!(
            p.insts[i],
            Inst::Load {
                space: Space::Global,
                ..
            }
        )
    };
    let mut out = Vec::new();
    let mut dfs = Dfs::default();
    for (t, tm) in ts.iter().enumerate() {
        for &i in &tm.accesses {
            if !is_plain_global_load(i) {
                continue;
            }
            for &j in &tm.accesses {
                if i == j || !tm.po(i, j) || !is_plain_global_load(j) {
                    continue;
                }
                if !addr_of(tm, i).overlaps(addr_of(tm, j)) {
                    continue;
                }
                // A stale hit needs a remote-SM write to create the
                // stale line.
                let remote_writer = ts.iter().enumerate().any(|(u, um)| {
                    u != t
                        && um.ctx.bid != tm.ctx.bid
                        && um.accesses.iter().any(|&k| {
                            p.insts[k].may_write()
                                && p.insts[k].space() == Some(Space::Global)
                                && addr_of(um, k).overlaps(addr_of(tm, i))
                        })
                });
                if !remote_writer {
                    continue;
                }
                out.push(DelayEdge {
                    thread: t,
                    from: i,
                    to: j,
                    level: FenceLevel::Device,
                    fenced: edge_fenced(p, tm, i, j, FenceLevel::Device, &mut dfs),
                });
            }
        }
    }
    out
}

/// Compute all delay edges of `p` under the given thread models.
pub fn delay_edges(p: &Program, ts: &[ThreadModel]) -> Vec<DelayEdge> {
    // All events, grouped by thread in access order: thread `t`'s `k`-th
    // access is event `base[t] + k`.
    let mut base = Vec::with_capacity(ts.len());
    let mut events = Vec::new();
    for (t, tm) in ts.iter().enumerate() {
        base.push(events.len());
        events.extend(tm.accesses.iter().map(|&i| Event { thread: t, inst: i }));
    }
    let ne = events.len();
    let mut conflict_adj: Vec<Vec<usize>> = vec![Vec::new(); ne];
    for x in 0..ne {
        for y in x + 1..ne {
            if conflicts(p, ts, events[x], events[y]) {
                conflict_adj[x].push(y);
                conflict_adj[y].push(x);
            }
        }
    }
    // Program-order adjacency over the reachability closure.
    let mut po_adj: Vec<Vec<usize>> = vec![Vec::new(); ne];
    for (x, e) in events.iter().enumerate() {
        let tm = &ts[e.thread];
        for (k, &j) in tm.accesses.iter().enumerate() {
            if tm.po(e.inst, j) {
                po_adj[x].push(base[e.thread] + k);
            }
        }
    }

    // A po pair (a, b) is a delay iff a mixed path b ⇝ a uses at least
    // one conflict edge. DFS over (event, used-conflict) states.
    let mut seen = vec![[false; 2]; ne];
    let mut stack: Vec<(usize, bool)> = Vec::new();
    let mut is_delay = |a: usize, b: usize| -> bool {
        seen.fill([false; 2]);
        stack.clear();
        stack.push((b, false));
        seen[b][0] = true;
        while let Some((x, used)) = stack.pop() {
            if x == a && used {
                return true;
            }
            for &y in &po_adj[x] {
                if !seen[y][usize::from(used)] {
                    seen[y][usize::from(used)] = true;
                    stack.push((y, used));
                }
            }
            for &y in &conflict_adj[x] {
                if !seen[y][1] {
                    seen[y][1] = true;
                    stack.push((y, true));
                }
            }
        }
        false
    };

    let mut out = Vec::new();
    let mut dfs = Dfs::default();
    for (t, tm) in ts.iter().enumerate() {
        for (ki, &i) in tm.accesses.iter().enumerate() {
            for (kj, &j) in tm.accesses.iter().enumerate() {
                if !tm.po(i, j) || provably_same_addr(ts, t, i, j) {
                    continue;
                }
                if !is_delay(base[t] + ki, base[t] + kj) {
                    continue;
                }
                let level = match (p.insts[i].space(), p.insts[j].space()) {
                    (Some(Space::Shared), Some(Space::Shared)) => FenceLevel::Block,
                    _ => FenceLevel::Device,
                };
                out.push(DelayEdge {
                    thread: t,
                    from: i,
                    to: j,
                    level,
                    fenced: edge_fenced(p, tm, i, j, level, &mut dfs),
                });
            }
        }
    }
    out
}
