//! Per-thread abstract interpretation of register dataflow.
//!
//! The domain is deliberately small: a register holds either a bounded
//! set of concrete words ([`AbsVal::Vals`]) or ⊤ ([`AbsVal::Top`]).
//! Special registers (`tid`, `bid`, `blockDim`, …) are *concrete* for a
//! given analysis thread, so SPMD role selection (`if me == t`) prunes
//! the CFG and each analysis thread only sees its own role's accesses.
//! Loads and atomic result registers go straight to ⊤: the analyzer
//! never guesses what memory holds.
//!
//! Binary operations are evaluated with [`wmm_sim::exec::eval_bin`] —
//! the simulator's own operational semantics — so the abstraction can
//! only lose precision, never diverge from execution.
//!
//! A value set lives inline ([`ValSet`], at most [`CONST_CAP`] words), so
//! an [`AbsVal`] is `Copy`. The fixpoint keeps one flat table of register
//! states and transfers each visit in one reused buffer, so no
//! instruction visit allocates a register state.

use std::cmp::Ordering;
use std::fmt;

use wmm_sim::exec::eval_bin;
use wmm_sim::ir::{Inst, Program, SpecialReg};
use wmm_sim::Word;

/// Cap on the size of a concrete value set before widening to ⊤.
pub const CONST_CAP: usize = 16;

/// A sorted, duplicate-free set of at most [`CONST_CAP`] words, held
/// inline. Equality compares the live words only.
#[derive(Clone, Copy)]
pub struct ValSet {
    len: u8,
    words: [Word; CONST_CAP],
}

const _: () = assert!(CONST_CAP <= u8::MAX as usize, "ValSet::len is a u8");

impl ValSet {
    const EMPTY: ValSet = ValSet {
        len: 0,
        words: [0; CONST_CAP],
    };

    /// The words, ascending.
    pub fn as_slice(&self) -> &[Word] {
        &self.words[..usize::from(self.len)]
    }

    /// Add `v`; false, leaving the set unchanged, when `v` is new and the
    /// set already holds [`CONST_CAP`] words.
    fn insert(&mut self, v: Word) -> bool {
        let n = usize::from(self.len);
        match self.as_slice().binary_search(&v) {
            Ok(_) => true,
            Err(_) if n == CONST_CAP => false,
            Err(at) => {
                self.words.copy_within(at..n, at + 1);
                self.words[at] = v;
                self.len += 1;
                true
            }
        }
    }

    /// The union of two sets, or `None` past [`CONST_CAP`] words.
    fn union(&self, other: &ValSet) -> Option<ValSet> {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        let mut out = ValSet::EMPTY;
        loop {
            let v = match (a.get(i), b.get(j)) {
                (None, None) => return Some(out),
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), Some(&y)) => {
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                    x.min(y)
                }
            };
            if usize::from(out.len) == CONST_CAP {
                return None;
            }
            out.words[usize::from(out.len)] = v;
            out.len += 1;
        }
    }

    /// Do the two sets share a word?
    fn intersects(&self, other: &ValSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

impl PartialEq for ValSet {
    fn eq(&self, other: &ValSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValSet {}

impl fmt::Debug for ValSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

/// Abstract value: a bounded set of possible words, or ⊤ (anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Unknown: any word.
    Top,
    /// One of finitely many concrete words.
    Vals(ValSet),
}

impl AbsVal {
    /// The abstract value holding exactly `v`.
    pub fn singleton(v: Word) -> Self {
        AbsVal::of([v])
    }

    /// The set of `words`, or ⊤ as soon as it exceeds [`CONST_CAP`]
    /// distinct words.
    pub fn of(words: impl IntoIterator<Item = Word>) -> Self {
        let mut s = ValSet::EMPTY;
        for v in words {
            if !s.insert(v) {
                return AbsVal::Top;
            }
        }
        AbsVal::Vals(s)
    }

    /// Is this ⊤?
    pub fn is_top(&self) -> bool {
        matches!(self, AbsVal::Top)
    }

    /// The single concrete value, if there is exactly one.
    pub fn as_singleton(&self) -> Option<Word> {
        match self {
            AbsVal::Vals(s) if s.len == 1 => Some(s.words[0]),
            _ => None,
        }
    }

    /// Least upper bound; widens to ⊤ past [`CONST_CAP`] values.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Vals(a), AbsVal::Vals(b)) => a.union(b).map_or(AbsVal::Top, AbsVal::Vals),
            _ => AbsVal::Top,
        }
    }

    /// May the two values denote a common word? ⊤ overlaps everything.
    pub fn overlaps(&self, other: &AbsVal) -> bool {
        match (self, other) {
            (AbsVal::Vals(a), AbsVal::Vals(b)) => a.intersects(b),
            _ => true,
        }
    }
}

/// The concrete identity of one analysis thread: its special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Logical thread id within the block.
    pub tid: Word,
    /// Logical block id.
    pub bid: Word,
    /// Threads per block of the launch.
    pub block_dim: Word,
    /// Blocks of the launch.
    pub grid_dim: Word,
}

impl ThreadCtx {
    fn special(&self, sr: SpecialReg) -> Word {
        match sr {
            SpecialReg::Tid => self.tid,
            SpecialReg::Bid => self.bid,
            SpecialReg::BlockDim => self.block_dim,
            SpecialReg::GridDim => self.grid_dim,
            SpecialReg::Lane => self.tid % 32,
            SpecialReg::GlobalTid => self.tid + self.bid * self.block_dim,
        }
    }
}

/// The result of abstractly executing a [`Program`] as one thread.
#[derive(Debug, Clone)]
pub struct ThreadAbs {
    /// Is instruction `i` reachable for this thread?
    pub reachable: Vec<bool>,
    /// For each reachable memory access: the abstract address.
    pub addr_at: Vec<Option<AbsVal>>,
    /// Feasible CFG successors per reachable instruction (pruned by
    /// constant branch conditions).
    pub succs: Vec<Vec<usize>>,
}

/// The `entry` offset of an instruction the fixpoint has not reached.
const UNREACHED: usize = usize::MAX;

/// Run the worklist fixpoint for one thread. Registers start at zero,
/// matching the simulator.
pub fn analyze_thread(p: &Program, ctx: &ThreadCtx) -> ThreadAbs {
    let n = p.insts.len();
    let nregs = usize::from(p.num_regs);
    // One flat table of register states: instruction `i`'s entry state
    // is `table[entry[i]..][..nregs]`, appended when `i` is first
    // reached, so unreached instructions cost no row.
    let mut table: Vec<AbsVal> = Vec::with_capacity(n * nregs);
    let mut entry = vec![UNREACHED; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    if n > 0 {
        table.resize(nregs, AbsVal::singleton(0));
        entry[0] = 0;
        let mut st = vec![AbsVal::Top; nregs];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            st.copy_from_slice(&table[entry[i]..][..nregs]);
            for j in transfer(p, ctx, i, &mut st).into_iter().flatten() {
                if let Err(at) = succs[i].binary_search(&j) {
                    succs[i].insert(at, j);
                }
                if j >= n {
                    continue; // fell off the end: implicit halt
                }
                let changed = if entry[j] == UNREACHED {
                    entry[j] = table.len();
                    table.extend_from_slice(&st);
                    true
                } else {
                    join_states(&mut table[entry[j]..][..nregs], &st)
                };
                if changed {
                    work.push(j);
                }
            }
        }
    }
    let addr_at = p
        .insts
        .iter()
        .zip(&entry)
        .map(|(inst, &e)| {
            let r = inst.addr_reg()?;
            (e != UNREACHED).then(|| table[e + usize::from(r)])
        })
        .collect();
    ThreadAbs {
        reachable: entry.iter().map(|&e| e != UNREACHED).collect(),
        addr_at,
        succs,
    }
}

/// Join `out` into `cur`; true if `cur` grew.
fn join_states(cur: &mut [AbsVal], out: &[AbsVal]) -> bool {
    let mut changed = false;
    for (c, o) in cur.iter_mut().zip(out) {
        if c == o {
            continue;
        }
        let j = c.join(o);
        if j != *c {
            *c = j;
            changed = true;
        }
    }
    changed
}

fn abs_bin(op: wmm_sim::ir::BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Vals(va), AbsVal::Vals(vb)) => AbsVal::of(
            va.as_slice()
                .iter()
                .flat_map(|&x| vb.as_slice().iter().map(move |&y| eval_bin(op, x, y))),
        ),
        _ => AbsVal::Top,
    }
}

/// Which way can a branch go, given the abstract condition?
fn branch_ways(cond: &AbsVal) -> (bool, bool) {
    // (may be zero, may be nonzero)
    match cond {
        AbsVal::Top => (true, true),
        AbsVal::Vals(s) => (
            s.as_slice().contains(&0),
            s.as_slice().iter().any(|&v| v != 0),
        ),
    }
}

/// Apply instruction `i` to the register state `st` in place, and return
/// its feasible successors in order.
fn transfer(p: &Program, ctx: &ThreadCtx, i: usize, st: &mut [AbsVal]) -> [Option<usize>; 2] {
    let fall = i + 1;
    match &p.insts[i] {
        Inst::Const { dst, value } => st[*dst as usize] = AbsVal::singleton(*value),
        Inst::Mov { dst, src } => st[*dst as usize] = st[*src as usize],
        Inst::Bin { op, dst, a, b } => {
            st[*dst as usize] = abs_bin(*op, &st[*a as usize], &st[*b as usize]);
        }
        Inst::Special { dst, sr } => st[*dst as usize] = AbsVal::singleton(ctx.special(*sr)),
        Inst::Load { dst, .. }
        | Inst::AtomicCas { dst, .. }
        | Inst::AtomicExch { dst, .. }
        | Inst::AtomicAdd { dst, .. } => st[*dst as usize] = AbsVal::Top,
        Inst::Store { .. } | Inst::Fence(_) | Inst::Barrier => {}
        Inst::Jump { target } => return [Some(*target), None],
        Inst::BranchZ { cond, target } => {
            let (zero, nonzero) = branch_ways(&st[*cond as usize]);
            return [nonzero.then_some(fall), zero.then_some(*target)];
        }
        Inst::BranchNZ { cond, target } => {
            let (zero, nonzero) = branch_ways(&st[*cond as usize]);
            return [zero.then_some(fall), nonzero.then_some(*target)];
        }
        Inst::Halt => return [None, None],
    }
    [Some(fall), None]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use wmm_sim::ir::{BinOp, Space};
    use wmm_sim::KernelBuilder;

    fn ctx(tid: Word) -> ThreadCtx {
        ThreadCtx {
            tid,
            bid: 0,
            block_dim: 64,
            grid_dim: 1,
        }
    }

    #[test]
    fn constant_addresses_resolve_to_singletons() {
        let mut b = KernelBuilder::new("t");
        let a = b.const_(7);
        let v = b.const_(1);
        b.store_global(a, v);
        let p = b.finish().unwrap();
        let abs = analyze_thread(&p, &ctx(0));
        let store = p.memory_access_indices()[0];
        assert_eq!(abs.addr_at[store].as_ref().unwrap().as_singleton(), Some(7));
    }

    #[test]
    fn tid_derived_addresses_are_concrete_per_thread() {
        let mut b = KernelBuilder::new("t");
        let tid = b.tid();
        let base = b.const_(16);
        let addr = b.add(base, tid);
        let v = b.const_(1);
        b.store_shared(addr, v);
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[0];
        for t in [0, 5, 63] {
            let abs = analyze_thread(&p, &ctx(t));
            assert_eq!(
                abs.addr_at[store].as_ref().unwrap().as_singleton(),
                Some(16 + t)
            );
        }
    }

    #[test]
    fn constant_branches_prune_the_other_role() {
        // if tid == 0 { store g[0] } else { store g[1] }
        let mut b = KernelBuilder::new("t");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        let v = b.const_(9);
        b.if_else(
            is0,
            |k| {
                let a = k.const_(0);
                k.store_global(a, v);
            },
            |k| {
                let a = k.const_(1);
                k.store_global(a, v);
            },
        );
        let p = b.finish().unwrap();
        let accesses = p.memory_access_indices();
        assert_eq!(accesses.len(), 2);
        let abs0 = analyze_thread(&p, &ctx(0));
        let abs1 = analyze_thread(&p, &ctx(1));
        // Each thread reaches exactly one of the two stores.
        let reached = |abs: &ThreadAbs| {
            accesses
                .iter()
                .filter(|&&i| abs.reachable[i])
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(reached(&abs0).len(), 1);
        assert_eq!(reached(&abs1).len(), 1);
        assert_ne!(reached(&abs0), reached(&abs1));
    }

    #[test]
    fn loop_counters_widen_to_top() {
        // for i in 0..40 { store g[i] } — 40 > CONST_CAP, so the address
        // must widen to ⊤ rather than enumerate.
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        let start = b.const_(0);
        let end = b.const_(40);
        let v = b.const_(1);
        b.for_range(i, start, end, |k, iv| {
            k.store_in(Space::Global, iv, v);
        });
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[0];
        let abs = analyze_thread(&p, &ctx(0));
        assert!(abs.addr_at[store].as_ref().unwrap().is_top());
    }

    #[test]
    fn loads_produce_top() {
        let mut b = KernelBuilder::new("t");
        let a = b.const_(0);
        let x = b.load_global(a);
        b.store_global(x, x); // address comes from memory: ⊤
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[1];
        let abs = analyze_thread(&p, &ctx(0));
        assert!(abs.addr_at[store].as_ref().unwrap().is_top());
    }

    #[test]
    fn small_joins_stay_finite() {
        let a = AbsVal::singleton(1).join(&AbsVal::singleton(2));
        assert_eq!(a, AbsVal::of([2, 1]));
        assert!(a.overlaps(&AbsVal::singleton(2)));
        assert!(!a.overlaps(&AbsVal::singleton(3)));
        assert!(a.overlaps(&AbsVal::Top));
    }

    #[test]
    fn eval_matches_simulator_for_branch_conditions() {
        let x = AbsVal::singleton(5);
        let y = AbsVal::singleton(5);
        let eq = abs_bin(BinOp::CmpEq, &x, &y);
        assert_eq!(eq.as_singleton(), Some(1));
        let ne = abs_bin(BinOp::CmpNe, &x, &y);
        assert_eq!(ne.as_singleton(), Some(0));
    }

    /// Up to `max_len` words from a narrow range, so that sets overlap
    /// and unions straddle [`CONST_CAP`].
    fn words(max_len: usize) -> impl Strategy<Value = Vec<Word>> {
        collection::vec(0u32..24, 0..max_len + 1)
    }

    /// Does `v` abstract the reference set `m`: ⊤ exactly when `m`
    /// exceeds [`CONST_CAP`], and otherwise `m`'s words in order?
    fn agrees(v: AbsVal, m: &BTreeSet<Word>) -> bool {
        match v {
            AbsVal::Top => m.len() > CONST_CAP,
            AbsVal::Vals(s) => s.as_slice().iter().eq(m),
        }
    }

    const OPS: [BinOp; 14] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::DivU,
        BinOp::RemU,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::MinU,
        BinOp::MaxU,
        BinOp::CmpEq,
        BinOp::CmpLtU,
    ];

    proptest! {
        #[test]
        fn value_sets_follow_the_btreeset_model(a in words(20), b in words(20)) {
            let ma: BTreeSet<Word> = a.iter().copied().collect();
            let mb: BTreeSet<Word> = b.iter().copied().collect();
            let (va, vb) = (AbsVal::of(a), AbsVal::of(b));
            prop_assert!(agrees(va, &ma), "{va:?} vs {ma:?}");
            let union: BTreeSet<Word> = ma.union(&mb).copied().collect();
            prop_assert!(agrees(va.join(&vb), &union), "{va:?} ⊔ {vb:?} vs {union:?}");
            let both_finite = ma.len() <= CONST_CAP && mb.len() <= CONST_CAP;
            prop_assert_eq!(va.overlaps(&vb), !both_finite || !ma.is_disjoint(&mb));
            let single = if ma.len() == 1 { ma.first().copied() } else { None };
            prop_assert_eq!(va.as_singleton(), single);
        }

        #[test]
        fn abs_bin_widens_exactly_past_the_cap(a in words(6), b in words(6), k in 0..OPS.len()) {
            let op = OPS[k];
            let product: BTreeSet<Word> = a
                .iter()
                .flat_map(|&x| b.iter().map(move |&y| eval_bin(op, x, y)))
                .collect();
            let v = abs_bin(op, &AbsVal::of(a), &AbsVal::of(b));
            prop_assert!(agrees(v, &product), "{op:?}: {v:?} vs {product:?}");
        }
    }
}
