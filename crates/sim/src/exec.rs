//! The SIMT execution engine.
//!
//! A [`Gpu`] executes a [`LaunchSpec`]: one or more *kernel groups*
//! (application blocks plus, optionally, stressing blocks — the paper
//! partitions the two at block level, Sec. 3). Threads are grouped into
//! warps of 32 that advance in near-lockstep; warps are scheduled by a
//! seeded random scheduler subject to the chip's occupancy limit, with
//! excess blocks queued in launch waves.
//!
//! Weak memory behaviour comes from the per-thread **in-flight window**:
//! memory operations *issue* in program order but *complete* (become
//! visible) possibly out of order. A younger operation may bypass older
//! ones only if it targets a different line (critical patch) than every
//! same-space operation it passes and no fence in its scope intervenes;
//! the probability of a bypass is the chip's base rate for that
//! [`ReorderKind`] amplified by contention. The window is **scoped**, the
//! paper's central axis:
//!
//! * *Global-space* operations always enter the window; their contention
//!   factor comes from the per-channel trackers in [`crate::mem`].
//! * *Shared-space* operations enter the window only on chips whose
//!   shared-space reorder matrix ([`Chip::shared_reorder`]) is nonzero;
//!   their contention factor comes from the owning **block's** shared
//!   traffic tracker (shared memory is per-block, so only block-mates can
//!   pressure it). With all-zero shared rates they complete immediately —
//!   the pre-scoped behaviour, bit for bit.
//! * Operations in *different* spaces travel different datapaths and may
//!   complete out of order with each other (subject to fences), which is
//!   what makes mixed-scope litmus shapes observable.
//!
//! Orthogonal to the window, the chip's [`topology`](crate::topology)
//! adds a *structural* weakness channel: every block is assigned a home
//! SM at launch, and on chips with incoherent per-SM L1s
//! ([`Chip::l1_weak`]) a completed global store leaves the pre-write
//! value visible as a stale line to every **other** SM. A later global
//! load may hit that stale line with a probability driven by cross-SM
//! write pressure — which is how same-address load-load pairs (`CoRR`)
//! go weak even though the window can never reorder them. A device
//! fence refreshes the issuing SM's L1; chips with zero staleness rates
//! never touch any of this (no state, no RNG draws — the legacy path,
//! bit for bit).
//!
//! The fence hierarchy is two-level, mirroring `membar.cta`/`membar.gl`:
//! a **device** fence ([`FenceLevel::Device`]) orders everything in the
//! window, while a **block** fence ([`FenceLevel::Block`]) orders only the
//! thread's shared-space operations (the simulator models global
//! visibility device-wide, so the cheaper fence buys only intra-block
//! ordering — exactly the gap the paper's scoped tests probe). Atomics
//! are atomic at completion but do **not** order other accesses — the
//! pre-Volta NVIDIA behaviour that makes spinlock idioms without fences
//! incorrect, which is precisely what the paper's case studies exercise.
//!
//! A drain turn looks for a bypass candidate among window slots 1–3 and
//! draws from the RNG only when it finds one. A slot cannot pass an older
//! access on its own space and line, so a window whose slots are all
//! non-fence accesses on the head's space and line has no candidate at
//! all. Each thread flags that state (`ThreadCtx::one_line`), and the
//! drain skips the scan while the flag is set. This is exact: the skipped
//! scan would have found nothing and drawn nothing. It is also the common
//! case, because a stressing thread hammers one location per patch. The
//! flag costs O(1) when a slot enters the window. When a slot leaves, it
//! is recomputed only while clear, since removing a slot from a one-line
//! window leaves a one-line window.
//!
//! A lane step computes only what its result depends on, and each of the
//! following is exact (the golden tables pin every result bit for bit):
//!
//! * **Operand readiness from a mask.** Each thread keeps `busy`, whose
//!   bit `r` is set exactly while register `r < 64` has a nonzero
//!   pending id; an operand check reads the mask instead of the pending
//!   file, which registers from 64 on still use. The ids themselves stay,
//!   because landing a value and a demand drain need them.
//! * **The drain decision as an integer compare.** The vendored `f64`
//!   sample of a draw `x` is `(x >> 11) · 2^-53`, exactly, so `sample <
//!   drain_q` holds exactly when `x >> 11 < ceil(drain_q · 2^53)`. The
//!   threshold is computed once per run; the draw is the same, and so is
//!   the decision for every `drain_q`, NaN included.
//! * **No tracker work that nothing reads.** The all-channel pressure is
//!   kept only on chips with the LB broadband quirk (see [`crate::mem`]),
//!   and a completion reads its block's home SM only on chips with an
//!   incoherent L1.

use crate::chip::{Chip, ReorderKind};
use crate::ir::{BinOp, FenceLevel, Inst, Program, Reg, Space, SpecialReg};
use crate::mem::{MemSystem, OobError, MAX_CHANNELS};
use crate::topology::L1System;
use crate::word::{from_f32, to_f32, Word};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use wmm_obs::ChannelCounts;

/// Threads per warp, as on all NVIDIA architectures in the study.
pub const WARP_SIZE: u32 = 32;

/// Maximum in-flight window depth any chip may declare.
pub const MAX_WINDOW: usize = 8;

/// Extra completion delay (in the owning thread's drain turns) applied to
/// operations that a younger operation bypassed: the congested memory
/// system holds them back, which is what makes the inversion observable
/// by other threads.
pub const BYPASS_DELAY_TURNS: u32 = 16;

/// Same-thread instruction-count gap within which two accesses to the same
/// channel count as "back-to-back" for the transition profile. Loop
/// control (increment, compare, branch) exceeds the gap, so the
/// wrap-around pair of a stressing loop is not recorded — the mechanism
/// behind the paper's observation that rotations of an access sequence
/// are not equivalent (Sec. 3.3).
pub const TRANSITION_GAP: u32 = 3;

/// Whether a kernel group is part of the application under test or of the
/// testing environment's memory stress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Application blocks: the run completes when all of them retire.
    App,
    /// Stressing blocks: killed when the application finishes.
    Stress,
}

/// A set of blocks executing one program.
#[derive(Debug, Clone)]
pub struct KernelGroup {
    /// The kernel to execute.
    pub program: Arc<Program>,
    /// Number of blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Application or stress.
    pub role: Role,
}

/// A complete launch: kernel groups, memory sizes, initial values, and
/// run limits.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// The kernel groups (typically one application group and zero or one
    /// stress group).
    pub groups: Vec<KernelGroup>,
    /// Words of global memory (zero-initialised, then `init` applied).
    pub global_words: u32,
    /// Words of shared memory per block.
    pub shared_words: u32,
    /// Initial memory image (zero-extended or truncated to
    /// `global_words`); empty means all zeros. Applied before `init`.
    pub init_image: Vec<Word>,
    /// Initial (address, value) writes applied before the run.
    pub init: Vec<(u32, Word)>,
    /// Scheduler-turn budget; exceeding it reports
    /// [`RunStatus::TimedOut`] (the paper's 30-second timeout analogue).
    pub max_turns: u64,
    /// Apply block/warp-respecting thread-id randomisation (Sec. 3.5).
    pub randomize_ids: bool,
}

impl LaunchSpec {
    /// A single-group application launch with defaults: no stress, no
    /// randomisation, and a generous turn budget.
    pub fn app(program: Program, blocks: u32, threads_per_block: u32, global_words: u32) -> Self {
        LaunchSpec {
            groups: vec![KernelGroup {
                program: Arc::new(program),
                blocks,
                threads_per_block,
                role: Role::App,
            }],
            global_words,
            shared_words: 0,
            init_image: Vec::new(),
            init: Vec::new(),
            max_turns: 4_000_000,
            randomize_ids: false,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// All application blocks retired.
    Completed,
    /// The turn budget was exhausted first.
    TimedOut,
    /// A thread exited while block-mates waited at a barrier (undefined
    /// behaviour in CUDA, detected here).
    BarrierDivergence,
    /// An out-of-bounds global or shared access.
    OutOfBounds(OobError),
}

impl RunStatus {
    /// True for [`RunStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        *self == RunStatus::Completed
    }
}

/// The outcome of one kernel execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completion status.
    pub status: RunStatus,
    /// Final global-memory image (fully drained and consistent).
    pub memory: Vec<Word>,
    /// Scheduler turns until the last application block retired.
    pub app_turns: u64,
    /// Total scheduler turns executed.
    pub total_turns: u64,
    /// Instructions executed across all threads.
    pub instructions: u64,
    /// Per-channel provenance counters: which weakness (and
    /// strengthening) channels fired during this run, and how often.
    /// Pure counts at existing decision points — no extra RNG draws —
    /// so they are exactly as deterministic as the run itself.
    /// [`ChannelCounts::window`] is the number of out-of-order
    /// completions (weak-memory events) in the in-flight windows.
    pub channels: ChannelCounts,
    /// Simulated kernel runtime in milliseconds (cycles / clock).
    pub runtime_ms: f64,
    /// Estimated energy in joules — `None` on chips without power-query
    /// support (Sec. 6 reports energy only for K5200, Titan, K20, C2075).
    pub energy_j: Option<f64>,
}

impl RunResult {
    /// Read a word of the final memory image.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn word(&self, addr: u32) -> Word {
        self.memory[addr as usize]
    }

    /// Read a word of the final memory image as an `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn f32(&self, addr: u32) -> f32 {
        to_f32(self.word(addr))
    }
}

// ---------------------------------------------------------------------------
// Internal machine state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Load,
    Store,
    Cas,
    Exch,
    Add,
    /// Device-level fence: nothing bypasses it.
    Fence,
    /// Block-level fence: only shared-space operations are held by it;
    /// global operations pass it freely (its visibility guarantee is
    /// intra-block only).
    FenceBlock,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: SlotKind,
    /// Stores and atomics classify as "store-class" for reorder kinds.
    store_class: bool,
    /// The memory space the operation targets; same-line ordering and
    /// block-fence scoping apply per space.
    space: Space,
    addr: u32,
    line: u32,
    v1: Word,
    v2: Word,
    dst: Reg,
    id: u32,
    stall: u32,
}

impl Slot {
    /// True for a fence of either level.
    #[inline]
    fn is_fence(&self) -> bool {
        matches!(self.kind, SlotKind::Fence | SlotKind::FenceBlock)
    }

    /// True if this slot is a non-fence access on `head`'s space and
    /// line: a window of such slots behind a non-fence head can pass
    /// nothing out of order.
    #[inline]
    fn on_line_of(&self, head: &Slot) -> bool {
        !self.is_fence() && self.space == head.space && self.line == head.line
    }
}

/// True if every slot of `win` is a non-fence access on the head's space
/// and line (vacuously, for an empty window): the from-scratch value of
/// [`ThreadCtx::one_line`].
fn one_line(win: &[Slot]) -> bool {
    win.iter().all(|s| s.on_line_of(&win[0]))
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            kind: SlotKind::Fence,
            store_class: false,
            space: Space::Global,
            addr: 0,
            line: 0,
            v1: 0,
            v2: 0,
            dst: 0,
            id: 0,
            stall: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Running,
    BarrierDrain,
    BarrierWait,
    HaltDrain,
    Dead,
}

#[derive(Debug, Clone)]
struct ThreadCtx {
    group: u32,
    block: u32,
    /// The thread's warp; its lane is `t - warps[warp].first`.
    warp: u32,
    pc: u32,
    state: TState,
    regs_at: u32,
    tid: u32,
    bid: u32,
    icount: u32,
    last_is_store: bool,
    last_channel: u32,
    last_icount: u32,
    has_last: bool,
    stalled: bool,
    stalled_reg: Reg,
    /// Bit `r` is set exactly while register `r < 64` has a nonzero
    /// pending id: [`Lane::need`] tests these registers here instead of
    /// in the pending file. Kept by [`Lane::pend`], [`Lane::land`] and
    /// [`Lane::write`], the only places a pending id changes.
    busy: u64,
    /// Occupied slots of the thread's in-flight window (see
    /// [`Lanes::windows`]).
    win_len: u8,
    /// True exactly when every window slot is a non-fence access on the
    /// head's space and line ([`one_line`]): then no slot may bypass the
    /// head, and a drain turn skips its bypass scan. Kept by
    /// [`Lane::enter`] and [`Lane::remove`], the only two places the
    /// window changes length.
    one_line: bool,
}

#[derive(Debug, Clone)]
struct BlockState {
    group: u32,
    threads: std::ops::Range<u32>,
    shared_at: u32,
    /// Threads that have not halted yet.
    alive: u32,
    waiting: u32,
    /// Threads that halted and drained their window; the block retires
    /// when this reaches its size.
    dead: u32,
    /// The SM this block is resident on (deterministic round-robin over
    /// the launch order, see [`crate::topology::Topology::home_sm`]);
    /// selects which private L1 the block's global loads consult.
    home_sm: u32,
    /// Decaying read/write pressure on this block's shared memory — the
    /// per-block analogue of a channel tracker, feeding the shared-space
    /// contention factor χ. Only updated on chips with a live shared
    /// reorder matrix.
    sh_r: f64,
    sh_w: f64,
    sh_turn: u64,
}

impl BlockState {
    #[inline]
    fn decay_shared(&mut self, chip: &Chip, turn: u64) {
        if turn > self.sh_turn {
            let f = (-((turn - self.sh_turn) as f64) / chip.pressure_tau).exp();
            self.sh_r *= f;
            self.sh_w *= f;
            self.sh_turn = turn;
        }
    }

    /// Record a shared-space access issue (atomics count as both).
    #[inline]
    fn note_shared(&mut self, chip: &Chip, reads: bool, writes: bool, turn: u64) {
        self.decay_shared(chip, turn);
        if reads {
            self.sh_r += 1.0;
        }
        if writes {
            self.sh_w += 1.0;
        }
    }

    /// The shared-space contention factor χ ∈ [0, 1] for this block:
    /// zero below the pressure floor (a litmus test's own few accesses
    /// cannot self-provoke), then a saturating geometric mix of read and
    /// write pressure — like the channel gate, both kinds must be
    /// present for the scratchpad traffic to count as contention.
    fn shared_chi(&mut self, chip: &Chip, turn: u64) -> f64 {
        self.decay_shared(chip, turn);
        if self.sh_r + self.sh_w < chip.shared_pressure_floor {
            return 0.0;
        }
        let half = chip.shared_pressure_half;
        let rhat = self.sh_r / (self.sh_r + half);
        let what = self.sh_w / (self.sh_w + half);
        if rhat <= 0.0 || what <= 0.0 {
            return 0.0;
        }
        (rhat * what).sqrt().clamp(0.0, 1.0)
    }
}

/// Up to [`WARP_SIZE`] consecutive threads: lane `l` is thread
/// `first + l`, and bit `l` of `live` is set until that lane dies.
#[derive(Debug, Clone, Copy)]
struct Warp {
    first: u32,
    live: u32,
}

/// Every lane's private state: thread contexts, register files, the ids
/// of the in-flight ops that will write each register, and in-flight
/// windows. A step borrows one lane of it ([`Lanes::lane`]) apart from
/// the [`Machine`].
#[derive(Debug, Clone, Default)]
struct Lanes {
    threads: Vec<ThreadCtx>,
    /// Register files: thread `t`'s starts at `threads[t].regs_at`.
    regs: Vec<Word>,
    /// Per register, the id of the in-flight op that will write it (0
    /// for none).
    pending: Vec<u32>,
    /// In-flight windows, one per thread. The store only grows and is
    /// never cleared or re-initialised: `ThreadCtx::win_len` guards every
    /// read, so slots left over from an earlier run are never observed.
    windows: Vec<[Slot; MAX_WINDOW]>,
}

impl Lanes {
    /// Thread `t`'s state.
    #[inline]
    fn lane(&mut self, t: u32) -> Lane<'_> {
        Lane {
            th: &mut self.threads[t as usize],
            regs: &mut self.regs,
            pending: &mut self.pending,
            win: &mut self.windows[t as usize],
        }
    }
}

/// Register `r`'s bit in [`ThreadCtx::busy`]; 0 for registers from 64
/// on, which only the pending file tracks.
#[inline]
fn busy_bit(r: Reg) -> u64 {
    1u64.checked_shl(u32::from(r)).unwrap_or(0)
}

/// One lane's state, borrowed apart from the [`Machine`]: all that a
/// step of this lane reads and writes of its own. `regs` and `pending`
/// are every thread's files; a lane touches only its own registers,
/// from `th.regs_at` on ([`Lane::reg`]).
struct Lane<'l> {
    th: &'l mut ThreadCtx,
    regs: &'l mut [Word],
    pending: &'l mut [u32],
    win: &'l mut [Slot; MAX_WINDOW],
}

impl Lane<'_> {
    /// The in-flight operations, oldest first.
    #[inline]
    fn window(&self) -> &[Slot] {
        &self.win[..usize::from(self.th.win_len)]
    }

    /// The index of this lane's register `r` in the register files.
    #[inline]
    fn reg(&self, r: Reg) -> usize {
        self.th.regs_at as usize + usize::from(r)
    }

    #[inline]
    fn read(&self, r: Reg) -> Word {
        self.regs[self.reg(r)]
    }

    /// True while register `r` has a nonzero pending id: read from the
    /// busy mask for the first 64 registers, from the pending file above.
    #[inline]
    fn busy(&self, r: Reg) -> bool {
        match busy_bit(r) {
            0 => self.pending[self.reg(r)] != 0,
            bit => self.th.busy & bit != 0,
        }
    }

    /// Register `r` now awaits the in-flight op `id` (never 0).
    #[inline]
    fn pend(&mut self, r: Reg, id: u32) {
        let i = self.reg(r);
        self.pending[i] = id;
        self.th.busy |= busy_bit(r);
    }

    /// The op `id` completed with `v` for register `r`: the value lands
    /// only if the register still awaits that op.
    #[inline]
    fn land(&mut self, r: Reg, id: u32, v: Word) {
        let i = self.reg(r);
        if self.pending[i] == id {
            self.regs[i] = v;
            self.pending[i] = 0;
            self.th.busy &= !busy_bit(r);
        }
    }

    /// Write a register; a load still in flight to it no longer lands.
    /// Every caller needs the register first, so it is never pending and
    /// the pending file is left alone.
    #[inline]
    fn write(&mut self, r: Reg, v: Word) {
        let i = self.reg(r);
        self.regs[i] = v;
        if self.busy(r) {
            self.pending[i] = 0;
            self.th.busy &= !busy_bit(r);
        }
    }

    /// Require registers ready; otherwise stall on the first pending one
    /// and return `None`.
    #[inline]
    fn need(&mut self, rs: &[Reg]) -> Option<()> {
        for &r in rs {
            if self.busy(r) {
                self.th.stalled = true;
                self.th.stalled_reg = r;
                return None;
            }
            debug_assert_eq!(self.pending[self.reg(r)], 0, "register {r} is pending");
        }
        Some(())
    }

    /// Leave the current instruction for `next_pc`.
    #[inline]
    fn retire(&mut self, next_pc: u32) {
        self.th.pc = next_pc;
        self.th.icount += 1;
    }

    /// Append `slot` to a window with room for it. The flag costs O(1):
    /// the new slot keeps it set only if it shares the head's line.
    #[inline]
    fn enter(&mut self, slot: Slot) {
        let len = usize::from(self.th.win_len);
        self.th.one_line = if len == 0 {
            !slot.is_fence()
        } else {
            self.th.one_line && slot.on_line_of(&self.win[0])
        };
        self.win[len] = slot;
        self.th.win_len += 1;
    }

    /// Remove window slot `j`, shifting the younger slots down. Removing
    /// a slot from a one-line window leaves a one-line window, so the
    /// flag is recomputed only while it is clear.
    #[inline]
    fn remove(&mut self, j: usize) {
        let len = usize::from(self.th.win_len);
        // Slot by slot: `copy_within` compiles to a library `memmove`
        // call, which costs more than moving the few younger slots.
        for i in j + 1..len {
            self.win[i - 1] = self.win[i];
        }
        self.th.win_len -= 1;
        if !self.th.one_line {
            self.th.one_line = one_line(self.window());
        }
    }
}

/// True for the instructions that read and write only their own lane's
/// registers, `pc` and `icount`: the ones [`Run::step_uniform`] runs
/// for a whole warp at once.
fn register_local(inst: Inst) -> bool {
    matches!(
        inst,
        Inst::Const { .. }
            | Inst::Mov { .. }
            | Inst::Bin { .. }
            | Inst::Special { .. }
            | Inst::Jump { .. }
            | Inst::BranchZ { .. }
            | Inst::BranchNZ { .. }
    )
}

/// The lanes that execute one decoded instruction: a single lane (the
/// lane-by-lane path) or the chosen lanes of a warp
/// ([`Run::step_uniform`]).
trait LaneSet {
    /// Apply `f` to each lane in lane order. A lane for which `f`
    /// returns the next `pc` retires the instruction; returns how many
    /// did.
    fn each(&mut self, f: impl FnMut(&mut Lane<'_>) -> Option<u32>) -> u64;
}

impl LaneSet for Lane<'_> {
    #[inline(always)]
    fn each(&mut self, mut f: impl FnMut(&mut Lane<'_>) -> Option<u32>) -> u64 {
        f(self).map_or(0, |next_pc| {
            self.retire(next_pc);
            1
        })
    }
}

/// The lanes in `mask` of the warp whose lane 0 is thread `first`.
struct WarpLanes<'r> {
    lanes: &'r mut Lanes,
    first: u32,
    mask: u32,
}

impl LaneSet for WarpLanes<'_> {
    #[inline(always)]
    fn each(&mut self, mut f: impl FnMut(&mut Lane<'_>) -> Option<u32>) -> u64 {
        let mut retired = 0;
        for l in lanes_of(self.mask) {
            let mut lane = self.lanes.lane(self.first + l);
            if let Some(next_pc) = f(&mut lane) {
                lane.retire(next_pc);
                retired += 1;
            }
        }
        retired
    }
}

/// Execute a [`register_local`] instruction of group `g`, decoded
/// once, on every lane of `lanes`. A lane that needs a pending register
/// stalls instead. Returns how many lanes retired the instruction.
#[inline(always)]
fn exec_local(inst: Inst, g: &KernelGroup, lanes: &mut impl LaneSet) -> u64 {
    match inst {
        Inst::Const { dst, value } => lanes.each(|l| {
            l.need(&[dst])?;
            l.write(dst, value);
            Some(l.th.pc + 1)
        }),
        Inst::Mov { dst, src } => lanes.each(|l| {
            l.need(&[src, dst])?;
            l.write(dst, l.read(src));
            Some(l.th.pc + 1)
        }),
        Inst::Bin { op, dst, a, b } => lanes.each(|l| {
            l.need(&[a, b, dst])?;
            l.write(dst, eval_bin(op, l.read(a), l.read(b)));
            Some(l.th.pc + 1)
        }),
        Inst::Special { dst, sr } => lanes.each(|l| {
            l.need(&[dst])?;
            let th = &l.th;
            let v = match sr {
                SpecialReg::Tid => th.tid,
                SpecialReg::Bid => th.bid,
                SpecialReg::BlockDim => g.threads_per_block,
                SpecialReg::GridDim => g.blocks,
                SpecialReg::Lane => th.tid % WARP_SIZE,
                SpecialReg::GlobalTid => th.tid + th.bid * g.threads_per_block,
            };
            l.write(dst, v);
            Some(l.th.pc + 1)
        }),
        Inst::Jump { target } => lanes.each(|_| Some(target as u32)),
        Inst::BranchZ { cond, target } => lanes.each(|l| {
            l.need(&[cond])?;
            Some(if l.read(cond) == 0 {
                target as u32
            } else {
                l.th.pc + 1
            })
        }),
        Inst::BranchNZ { cond, target } => lanes.each(|l| {
            l.need(&[cond])?;
            Some(if l.read(cond) != 0 {
                target as u32
            } else {
                l.th.pc + 1
            })
        }),
        _ => unreachable!("{inst:?} is not register-local"),
    }
}

/// True if window slot `j` may complete before every older in-flight
/// op: no fence of its scope in the way and no same-space same-line
/// older op. A device fence holds everything; a block fence holds only
/// shared-space operations (its visibility guarantee is intra-block,
/// and global completion is modelled device-wide).
fn can_bypass(win: &[Slot], j: usize) -> bool {
    let sj = win[j];
    if sj.is_fence() {
        return false;
    }
    win[..j].iter().all(|si| match si.kind {
        SlotKind::Fence => false,
        SlotKind::FenceBlock => sj.space != Space::Shared,
        _ => si.space != sj.space || si.line != sj.line,
    })
}

/// Perform a shared-space access on its word and return the value it
/// reads (loads and atomics only): the one implementation of the
/// shared-space semantics, used at completion and, on chips whose
/// shared memory is strongly ordered, at issue.
fn apply_shared(cell: &mut Word, kind: SlotKind, v1: Word, v2: Word) -> Option<Word> {
    let old = *cell;
    match kind {
        SlotKind::Load => Some(old),
        SlotKind::Store => {
            *cell = v1;
            None
        }
        SlotKind::Cas => {
            if old == v1 {
                *cell = v2;
            }
            Some(old)
        }
        SlotKind::Exch => {
            *cell = v1;
            Some(old)
        }
        SlotKind::Add => {
            *cell = old.wrapping_add(v1);
            Some(old)
        }
        SlotKind::Fence | SlotKind::FenceBlock => unreachable!("a fence accesses no word"),
    }
}

/// Every per-run buffer, kept by a [`Gpu`] between launches so that the
/// runs of a warm campaign allocate nothing but the memory image they
/// return. [`Run::new`] clears and refills it; [`Run::into_result`]
/// hands it back.
#[derive(Debug, Clone, Default)]
struct Arena {
    lanes: Lanes,
    shared: Vec<Word>,
    blocks: Vec<BlockState>,
    warps: Vec<Warp>,
    live_warps: Vec<u32>,
    queue: VecDeque<(u32, u32)>,
    /// Per-group logical block-id permutations, concatenated: group
    /// `g`'s starts at `bid_at[g]`.
    bid_maps: Vec<u32>,
    bid_at: Vec<u32>,
    /// One block's warp permutation, rebuilt at each block launch.
    warp_map: Vec<u32>,
    /// Incoherent-L1 state, kept only on chips that have one.
    l1: Option<L1System>,
}

impl Arena {
    /// Empty every per-run buffer, keeping its capacity (the window
    /// store is left as it is, see [`Lanes::windows`]).
    fn clear(&mut self) {
        self.lanes.threads.clear();
        self.lanes.regs.clear();
        self.lanes.pending.clear();
        self.shared.clear();
        self.blocks.clear();
        self.warps.clear();
        self.live_warps.clear();
        self.queue.clear();
        self.bid_maps.clear();
        self.bid_at.clear();
        if let Some(l1) = &mut self.l1 {
            l1.reset();
        }
    }
}

/// A simulated GPU: construct once per chip, run many launches.
///
/// Runs are deterministic in the `(spec, seed)` pair.
///
/// # Examples
///
/// ```
/// use wmm_sim::chip::Chip;
/// use wmm_sim::exec::{Gpu, LaunchSpec};
/// use wmm_sim::ir::builder::KernelBuilder;
///
/// let mut b = KernelBuilder::new("store-tid");
/// let tid = b.global_tid();
/// b.store_global(tid, tid);
/// let program = b.finish().unwrap();
///
/// let mut gpu = Gpu::new(Chip::by_short("K20").unwrap());
/// let result = gpu.run(&LaunchSpec::app(program, 2, 32, 64), 42);
/// assert!(result.status.is_completed());
/// assert_eq!(result.word(63), 63);
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    chip: Chip,
    /// Buffers reused by every run; their contents never outlive a run.
    arena: Arena,
}

impl Gpu {
    /// Create a GPU for the given chip profile.
    ///
    /// # Panics
    ///
    /// Panics if the chip's window is empty or deeper than
    /// [`MAX_WINDOW`], if its lines are empty (`patch_words == 0`), if
    /// its channel count is outside `1..=`[`MAX_CHANNELS`], or if its
    /// topology has no SMs. The first issue into an empty window would
    /// complete a slot that does not exist; the address decode of every
    /// global access divides by the line size and indexes the trackers by
    /// the channel; and each block's home SM is its launch index modulo
    /// the SM count.
    pub fn new(chip: Chip) -> Self {
        assert!(
            (1..=MAX_WINDOW).contains(&chip.window),
            "{}: window {}, outside 1..=MAX_WINDOW",
            chip.short,
            chip.window
        );
        assert!(chip.patch_words > 0, "{}: patch_words is 0", chip.short);
        assert!(
            (1..=MAX_CHANNELS as u32).contains(&chip.channels),
            "{}: {} channels, outside 1..=MAX_CHANNELS",
            chip.short,
            chip.channels
        );
        assert!(
            chip.topology.total_sms() > 0,
            "{}: topology has no SMs",
            chip.short
        );
        Gpu {
            chip,
            arena: Arena::default(),
        }
    }

    /// The chip profile.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Execute a launch to completion (or timeout/fault) with the given
    /// seed. All scheduling and reordering randomness derives from the
    /// seed, so identical `(spec, seed)` pairs produce identical results.
    ///
    /// Every per-run buffer is reused from the previous call, so once a
    /// `Gpu` has run its largest launch, a run allocates only the memory
    /// image it returns.
    pub fn run(&mut self, spec: &LaunchSpec, seed: u64) -> RunResult {
        let arena = std::mem::take(&mut self.arena);
        let mut run = Run::new(&self.chip, spec, seed, arena);
        run.execute();
        let (result, arena) = run.into_result();
        self.arena = arena;
        result
    }
}

struct Run<'a> {
    spec: &'a LaunchSpec,
    lanes: Lanes,
    m: Machine<'a>,
    warps: Vec<Warp>,
    live_warps: Vec<u32>,
    queue: VecDeque<(u32, u32)>,
    bid_maps: Vec<u32>,
    bid_at: Vec<u32>,
    warp_map: Vec<u32>,
    resident_threads: u32,
    app_blocks_left: u32,
    status: Option<RunStatus>,
    app_turns: u64,
}

/// The state every lane's step shares: memory, the blocks (with their
/// shared-memory trackers), the incoherent L1s, the RNG and the run's
/// counters. A step takes it apart from the [`Lane`] it steps.
struct Machine<'a> {
    chip: &'a Chip,
    /// Words of shared memory per block.
    shared_words: u32,
    /// Whether this chip routes shared-space accesses through the
    /// in-flight window (any nonzero shared reorder rate).
    shared_weak: bool,
    mem: MemSystem,
    shared: Vec<Word>,
    blocks: Vec<BlockState>,
    /// Incoherent-L1 state — `Some` only on chips with a nonzero L1
    /// staleness rate ([`Chip::l1_weak`]). `None` means global loads
    /// read straight from memory with no L1 bookkeeping and no extra
    /// RNG draws (the pre-topology behaviour, bit for bit).
    l1: Option<L1System>,
    rng: SmallRng,
    /// [`drain_threshold`] of the chip's `drain_q`: a drain turn
    /// completes the head of a non-full window when the top 53 bits of
    /// its draw fall below it.
    drain_below: u64,
    turn: u64,
    instructions: u64,
    channels: ChannelCounts,
    next_op_id: u32,
}

/// The integer form of the head-completion test `rng.gen::<f64>() < q`.
/// The vendored sample of a draw `x` is `(x >> 11) · 2^-53`, computed
/// exactly, and `q · 2^53` is exact too, so for the integer `x >> 11`
/// the test holds exactly when `x >> 11 < ceil(q · 2^53)`. The cast
/// saturates: NaN and every `q ≤ 0` give 0 (never, like the float test),
/// and every `q ≥ 1` gives at least 2^53 (always).
fn drain_threshold(q: f64) -> u64 {
    (q * (1u64 << 53) as f64).ceil() as u64
}

/// The lanes set in a warp's lane mask, in lane order.
fn lanes_of(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros();
            mask &= mask - 1;
            l
        })
    })
}

impl<'a> Run<'a> {
    fn new(chip: &'a Chip, spec: &'a LaunchSpec, seed: u64, mut arena: Arena) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mem = if spec.init_image.is_empty() {
            MemSystem::new(spec.global_words)
        } else {
            // Sized for the whole memory up front, so zero-extending it
            // does not reallocate.
            let words = spec.global_words as usize;
            let mut image = Vec::with_capacity(words);
            image.extend_from_slice(&spec.init_image[..spec.init_image.len().min(words)]);
            MemSystem::from_image(image, spec.global_words)
        };
        // A bad init address faults the run before it starts.
        let status = spec
            .init
            .iter()
            .find_map(|&(addr, value)| mem.write(addr, value).err())
            .map(RunStatus::OutOfBounds);
        arena.clear();
        let Arena {
            lanes,
            shared,
            blocks,
            warps,
            live_warps,
            mut queue,
            mut bid_maps,
            mut bid_at,
            warp_map,
            l1,
        } = arena;
        // Interleave the launch queue application-first so stressing
        // blocks can never starve the application.
        let max_blocks = spec.groups.iter().map(|g| g.blocks).max().unwrap_or(0);
        for b in 0..max_blocks {
            for (gi, g) in spec.groups.iter().enumerate() {
                if b < g.blocks {
                    queue.push_back((gi as u32, b));
                }
            }
        }
        // Per-group logical block-id permutations (thread randomisation).
        for g in &spec.groups {
            let at = bid_maps.len();
            bid_at.push(at as u32);
            bid_maps.extend(0..g.blocks);
            if spec.randomize_ids {
                shuffle(&mut bid_maps[at..], &mut rng);
            }
        }
        let app_blocks_left = spec
            .groups
            .iter()
            .filter(|g| g.role == Role::App)
            .map(|g| g.blocks)
            .sum();
        Run {
            spec,
            lanes,
            m: Machine {
                chip,
                shared_words: spec.shared_words,
                shared_weak: chip.shared_weak(),
                mem,
                shared,
                blocks,
                l1: chip.l1_weak().then(|| {
                    l1.unwrap_or_else(|| L1System::new(chip.topology.total_sms(), chip.l1))
                }),
                rng,
                drain_below: drain_threshold(chip.drain_q),
                turn: 0,
                instructions: 0,
                channels: ChannelCounts::default(),
                next_op_id: 1,
            },
            warps,
            live_warps,
            queue,
            bid_maps,
            bid_at,
            warp_map,
            resident_threads: 0,
            app_blocks_left,
            status,
            app_turns: 0,
        }
    }

    fn execute(&mut self) {
        if self.status.is_none() {
            self.try_launch();
        }
        loop {
            if self.status.is_some() {
                break;
            }
            if self.app_blocks_left == 0 {
                self.status = Some(RunStatus::Completed);
                break;
            }
            if self.m.turn >= self.spec.max_turns {
                self.status = Some(RunStatus::TimedOut);
                break;
            }
            let Some(w) = self.pick_warp() else {
                // No live warps but application blocks remain: the queue
                // must have unlaunched blocks; capacity is free, so this
                // launches or we are wedged (treated as timeout).
                self.try_launch();
                if self.live_warps.is_empty() {
                    self.status = Some(RunStatus::TimedOut);
                    break;
                }
                continue;
            };
            let Warp { first, live } = self.warps[w as usize];
            // Every lane of a warp is in one block, so the group and its
            // program are resolved once for the whole step.
            let spec = self.spec;
            let g = &spec.groups[self.lanes.threads[first as usize].group as usize];
            let insts = g.program.insts.as_slice();
            if !self.step_uniform(first, live, g, insts) {
                // Step the live lanes in lane order. Skipping dead lanes
                // changes nothing but the cost: a dead lane's step is a
                // no-op, and a lane dies only during its own step.
                for l in lanes_of(live) {
                    self.step_thread(first + l, g, insts);
                    if self.status.is_some() {
                        break;
                    }
                }
            }
            // Advance the clock in *time* units: the machine executes all
            // resident warps concurrently, so with fewer live warps each
            // scheduler step covers more wall-clock time. This keeps the
            // contention trackers calibrated in absolute time — a lightly
            // occupied (native) launch generates far less memory traffic
            // per unit time than a fully stressed one.
            // Warp ids are `u32`, so the live count fits one too.
            let live = (self.live_warps.len() as u32).max(1);
            let full = (self.m.chip.max_concurrent_threads / WARP_SIZE).max(1);
            self.m.turn += u64::from((full / live).max(1));
        }
        if self.app_turns == 0 {
            self.app_turns = self.m.turn;
        }
    }

    /// The run's result, and the buffers to hand back to the [`Gpu`].
    fn into_result(mut self) -> (RunResult, Arena) {
        let status = self.status.take().unwrap_or(RunStatus::TimedOut);
        let chip = self.m.chip;
        let runtime_ms = self.app_turns as f64 / (chip.clock_ghz * 1e6);
        let energy_j = chip
            .supports_power
            .then(|| chip.power_watts * runtime_ms / 1e3);
        let result = RunResult {
            status,
            memory: self.m.mem.take_image(),
            app_turns: self.app_turns,
            total_turns: self.m.turn,
            instructions: self.m.instructions,
            channels: self.m.channels,
            runtime_ms,
            energy_j,
        };
        let arena = Arena {
            lanes: self.lanes,
            shared: self.m.shared,
            blocks: self.m.blocks,
            warps: self.warps,
            live_warps: self.live_warps,
            queue: self.queue,
            bid_maps: self.bid_maps,
            bid_at: self.bid_at,
            warp_map: self.warp_map,
            l1: self.m.l1,
        };
        (result, arena)
    }

    // -- scheduling --------------------------------------------------------

    fn pick_warp(&mut self) -> Option<u32> {
        while !self.live_warps.is_empty() {
            let i = self.m.rng.gen_range(0..self.live_warps.len());
            let w = self.live_warps[i];
            if self.warps[w as usize].live == 0 {
                self.live_warps.swap_remove(i);
            } else {
                return Some(w);
            }
        }
        None
    }

    fn try_launch(&mut self) {
        while let Some(&(gi, bid_phys)) = self.queue.front() {
            let g = &self.spec.groups[gi as usize];
            if self.resident_threads + g.threads_per_block > self.m.chip.max_concurrent_threads
                && self.resident_threads > 0
            {
                break;
            }
            self.queue.pop_front();
            self.launch_block(gi, bid_phys);
        }
    }

    fn launch_block(&mut self, gi: u32, bid_phys: u32) {
        let g = &self.spec.groups[gi as usize];
        let tpb = g.threads_per_block;
        let num_regs = usize::from(g.program.num_regs);
        let logical_bid = self.bid_maps[(self.bid_at[gi as usize] + bid_phys) as usize];
        let block_index = self.m.blocks.len() as u32;
        // Home-SM assignment is total: launch indices past the chip's
        // block capacity wrap onto earlier SMs deterministically, so
        // oversubscribed grids share (and re-pollute) the same L1s.
        let home_sm = self.m.chip.topology.home_sm(block_index);
        debug_assert!(home_sm < self.m.chip.topology.total_sms());
        let lanes = &mut self.lanes;
        let t0 = lanes.threads.len() as u32;
        let w0 = self.warps.len() as u32;
        let shared_at = self.m.shared.len() as u32;
        self.m
            .shared
            .extend(std::iter::repeat_n(0, self.spec.shared_words as usize));
        let threads = (t0 + tpb) as usize;
        if lanes.windows.len() < threads {
            lanes.windows.resize(threads, [Slot::default(); MAX_WINDOW]);
        }

        // Warp/lane randomisation respecting warp membership: full warps
        // are permuted among themselves; lanes permute within each warp.
        let full_warps = tpb / WARP_SIZE;
        self.warp_map.clear();
        self.warp_map.extend(0..full_warps);
        if self.spec.randomize_ids {
            shuffle(&mut self.warp_map, &mut self.m.rng);
        }

        for i in 0..tpb {
            let (w, l) = (i / WARP_SIZE, i % WARP_SIZE);
            let logical_tid = if w < full_warps {
                let lw = self.warp_map[w as usize];
                lw * WARP_SIZE + l
            } else {
                i // partial trailing warp keeps its ids
            };
            let regs_at = lanes.regs.len() as u32;
            lanes.regs.extend(std::iter::repeat_n(0, num_regs));
            lanes.pending.extend(std::iter::repeat_n(0, num_regs));
            lanes.threads.push(ThreadCtx {
                group: gi,
                block: block_index,
                warp: w0 + w,
                pc: 0,
                state: TState::Running,
                regs_at,
                tid: logical_tid,
                bid: logical_bid,
                icount: 0,
                last_is_store: false,
                last_channel: 0,
                last_icount: 0,
                has_last: false,
                stalled: false,
                stalled_reg: 0,
                busy: 0,
                win_len: 0,
                one_line: true,
            });
        }
        self.m.blocks.push(BlockState {
            group: gi,
            threads: t0..t0 + tpb,
            shared_at,
            alive: tpb,
            waiting: 0,
            dead: 0,
            home_sm,
            sh_r: 0.0,
            sh_w: 0.0,
            sh_turn: 0,
        });
        let mut i = t0;
        while i < t0 + tpb {
            let end = (i + WARP_SIZE).min(t0 + tpb);
            self.warps.push(Warp {
                first: i,
                live: u32::MAX >> (WARP_SIZE - (end - i)),
            });
            self.live_warps.push(self.warps.len() as u32 - 1);
            i = end;
        }
        self.resident_threads += tpb;
    }

    // -- thread stepping ---------------------------------------------------

    /// Step a warp of group `g`, whose program is `insts`, as a batch
    /// when its live lanes are all running, unstalled and at the same
    /// [`register_local`] instruction: drain every lane in lane order,
    /// then decode the instruction once and execute it lane by lane.
    /// Returns false, having done nothing, for any other warp, which
    /// steps lane by lane instead.
    ///
    /// This is exact. Such an instruction reads and writes only its own
    /// lane's registers, `pc` and `icount`, plus the instruction counter,
    /// and a drain reads nothing that belongs to another lane, so the RNG
    /// draws and the final state are those of stepping lane by lane. A
    /// drain that faults stops the batch at its lane, just as the lane
    /// loop breaks there: only the lanes before it execute.
    fn step_uniform(&mut self, first: u32, live: u32, g: &KernelGroup, insts: &[Inst]) -> bool {
        let pc = self.lanes.threads[(first + live.trailing_zeros()) as usize].pc;
        let Some(&inst) = insts.get(pc as usize) else {
            return false;
        };
        let threads = &self.lanes.threads;
        let uniform = register_local(inst)
            && lanes_of(live).all(|l| {
                let th = &threads[(first + l) as usize];
                th.state == TState::Running && !th.stalled && th.pc == pc
            });
        if !uniform {
            return false;
        }
        let mut ran = live;
        for l in lanes_of(live) {
            // An empty window's drain turn does nothing and draws
            // nothing, so it is skipped without borrowing the lane.
            if self.lanes.threads[(first + l) as usize].win_len == 0 {
                continue;
            }
            let mut lane = self.lanes.lane(first + l);
            if let Err(e) = self.m.drain(&mut lane) {
                self.status = Some(RunStatus::OutOfBounds(e));
                ran &= (1 << l) - 1;
                break;
            }
        }
        let mut lanes = WarpLanes {
            lanes: &mut self.lanes,
            first,
            mask: ran,
        };
        self.m.instructions += exec_local(inst, g, &mut lanes);
        true
    }

    /// Step thread `t` of group `g`, whose program is `insts`, on its
    /// own: a drain turn (a demand drain while it is stalled), then, if
    /// it is running and ready, the instruction at its `pc`.
    fn step_thread(&mut self, t: u32, g: &KernelGroup, insts: &[Inst]) {
        let state = self.lanes.threads[t as usize].state;
        if matches!(state, TState::Dead | TState::BarrierWait) {
            return;
        }
        let mut lane = self.lanes.lane(t);
        let drained = if lane.th.stalled {
            let reg = lane.reg(lane.th.stalled_reg);
            let demanded = lane.pending[reg];
            let drained = self.m.demand_drain(&mut lane, demanded);
            if lane.pending[reg] == 0 {
                lane.th.stalled = false;
            }
            drained
        } else {
            self.m.drain(&mut lane)
        };
        if let Err(e) = drained {
            self.status = Some(RunStatus::OutOfBounds(e));
        }
        let empty = lane.th.win_len == 0;
        match state {
            TState::Running => {
                if lane.th.stalled || self.status.is_some() {
                    return;
                }
                match insts.get(lane.th.pc as usize) {
                    Some(&inst) if register_local(inst) => {
                        self.m.instructions += exec_local(inst, g, &mut lane);
                    }
                    Some(Inst::Barrier) => {
                        lane.th.state = TState::BarrierDrain;
                        lane.retire(lane.th.pc + 1);
                        self.m.instructions += 1;
                    }
                    Some(Inst::Halt) => {
                        self.m.instructions += 1;
                        self.halt_thread(t);
                    }
                    Some(&inst) => match self.m.exec_mem(inst, &mut lane) {
                        Ok(true) => self.m.instructions += 1,
                        Ok(false) => {}
                        Err(e) => self.status = Some(RunStatus::OutOfBounds(e)),
                    },
                    // Past the end of its program, a thread halts.
                    None => self.halt_thread(t),
                }
            }
            TState::HaltDrain => {
                if empty {
                    lane.th.state = TState::Dead;
                    self.on_thread_dead(t);
                }
            }
            TState::BarrierDrain => {
                if empty {
                    lane.th.state = TState::BarrierWait;
                    let b = lane.th.block;
                    self.m.blocks[b as usize].waiting += 1;
                    self.check_barrier_release(b);
                }
            }
            TState::Dead | TState::BarrierWait => unreachable!("returned above"),
        }
    }

    /// Called exactly once per thread, in its own step, when it dies.
    fn on_thread_dead(&mut self, t: u32) {
        let th = &self.lanes.threads[t as usize];
        let (b, w) = (th.block as usize, th.warp as usize);
        let warp = &mut self.warps[w];
        warp.live &= !(1 << (t - warp.first));
        let blk = &mut self.m.blocks[b];
        blk.dead += 1;
        if blk.dead == blk.threads.end - blk.threads.start {
            let gi = blk.group as usize;
            let g = &self.spec.groups[gi];
            self.resident_threads -= g.threads_per_block;
            if g.role == Role::App {
                self.app_blocks_left -= 1;
                if self.app_blocks_left == 0 {
                    self.app_turns = self.m.turn;
                }
            }
            self.try_launch();
        }
    }

    fn check_barrier_release(&mut self, b: u32) {
        let blk = &mut self.m.blocks[b as usize];
        if blk.waiting > 0 && blk.waiting == blk.alive {
            let total = blk.threads.end - blk.threads.start;
            if blk.alive < total {
                // Every remaining thread is at the barrier but some
                // block-mates already exited: they would wait forever.
                self.status = Some(RunStatus::BarrierDivergence);
                return;
            }
            blk.waiting = 0;
            for th in &mut self.lanes.threads[blk.threads.start as usize..blk.threads.end as usize]
            {
                if th.state == TState::BarrierWait {
                    th.state = TState::Running;
                }
            }
        }
    }

    fn halt_thread(&mut self, t: u32) {
        let th = &mut self.lanes.threads[t as usize];
        th.state = TState::HaltDrain;
        let empty = th.win_len == 0;
        let blk = &mut self.m.blocks[th.block as usize];
        blk.alive -= 1;
        if blk.waiting > 0 {
            // Some block-mates are at a barrier this thread will never
            // reach: barrier divergence.
            self.status = Some(RunStatus::BarrierDivergence);
            return;
        }
        // Fast path: if the window is already empty the thread dies now.
        if empty {
            self.lanes.threads[t as usize].state = TState::Dead;
            self.on_thread_dead(t);
        }
    }
}

impl Machine<'_> {
    /// One drain turn of a lane: possibly complete a younger op out of
    /// order (a weak-memory event), otherwise maybe complete the head.
    #[inline(always)]
    fn drain(&mut self, lane: &mut Lane<'_>) -> Result<(), OobError> {
        let win = lane.window();
        let len = win.len();
        if len == 0 {
            return Ok(());
        }
        // One bypass attempt per turn, by the oldest candidate that may
        // pass every older in-flight op; only slots 1–3 are candidates.
        // In a one-line window the head blocks every candidate, so the
        // scan would find none and draw nothing: it is skipped.
        if !lane.th.one_line {
            if let Some(j) = (1..len.min(4)).find(|&j| can_bypass(win, j)) {
                let p = self.bypass_prob(lane.th.block, win[0], win[j]);
                if self.rng.gen::<f64>() < p {
                    return self.bypass(lane, j);
                }
            }
        }
        // Head completion. `stall` covers both fence latency and the
        // contention delay applied to bypassed-over operations.
        let head = &mut lane.win[0];
        if head.stall > 0 {
            head.stall -= 1;
            return Ok(());
        }
        if len == self.chip.window || self.rng.gen::<u64>() >> 11 < self.drain_below {
            return self.complete(lane, 0);
        }
        Ok(())
    }

    /// One drain turn of a lane stalled on a register produced by the
    /// in-flight op `demanded`. The pipeline *demands* that op: like a
    /// real memory system returning an atomic or load result while older
    /// plain stores sit in the write buffer, the demanded op may complete
    /// out of order (with the usual contention-dependent probability —
    /// this is exactly the reordering that breaks `sdk-red-nf`'s
    /// partial/counter protocol). Otherwise the head drains in order.
    fn demand_drain(&mut self, lane: &mut Lane<'_>, demanded: u32) -> Result<(), OobError> {
        let win = lane.window();
        if win.is_empty() {
            return Ok(());
        }
        if let Some(j) = win.iter().position(|s| s.id == demanded) {
            if j > 0 && can_bypass(win, j) {
                let p = self.bypass_prob(lane.th.block, win[0], win[j]);
                if self.rng.gen::<f64>() < p {
                    return self.bypass(lane, j);
                }
            }
        }
        // Otherwise resolve in order: complete the head (respecting its
        // stall delay).
        let head = &mut lane.win[0];
        if head.stall > 0 {
            head.stall -= 1;
            return Ok(());
        }
        self.complete(lane, 0)
    }

    /// Complete window slot `j` ahead of every older op, and count the
    /// bypass in the channel of its space. The older ops are the ones the
    /// congested memory system is sitting on: delaying them widens the
    /// visibility inversion, which is what makes a stale value
    /// observable by other threads.
    fn bypass(&mut self, lane: &mut Lane<'_>, j: usize) -> Result<(), OobError> {
        for s in &mut lane.win[..j] {
            s.stall += BYPASS_DELAY_TURNS;
        }
        let space = lane.win[j].space;
        let done = self.complete(lane, j);
        match space {
            Space::Global => self.channels.window_global += 1,
            Space::Shared => self.channels.window_shared += 1,
        }
        done
    }

    /// The probability that window slot `sj` (younger) of a thread of
    /// block `b` completes before `head` (older). The younger
    /// operation's space selects the reorder matrix and contention
    /// source: global bypasses are driven by the channel trackers,
    /// shared bypasses by the block's shared traffic. When the head is
    /// in the other space — or is a fence the candidate may legitimately
    /// pass (a global op passing a block fence) — the two sides travel
    /// different datapaths, so only the younger side's address feeds its
    /// contention lookup.
    fn bypass_prob(&mut self, b: u32, head: Slot, sj: Slot) -> f64 {
        let kind = classify(head.store_class, sj.store_class);
        let head_is_fence = matches!(head.kind, SlotKind::Fence | SlotKind::FenceBlock);
        match sj.space {
            Space::Global => {
                let addr_old = if head.space == Space::Global && !head_is_fence {
                    head.addr
                } else {
                    sj.addr
                };
                self.mem
                    .reorder_prob(self.chip, kind, addr_old, sj.addr, self.turn)
            }
            Space::Shared => {
                let chip = self.chip;
                let chi = self.blocks[b as usize].shared_chi(chip, self.turn);
                let k = kind.idx();
                (chip.shared_reorder.base[k] + chip.shared_reorder.gain[k] * chi).clamp(0.0, 0.95)
            }
        }
    }

    /// Complete (make visible in its space) the lane's window slot `j`,
    /// land the value it reads if the op still owns its destination
    /// register, and shift the younger slots down. Shared-space slots
    /// land in the owning block's shared array (bounds were checked at
    /// issue).
    fn complete(&mut self, lane: &mut Lane<'_>, j: usize) -> Result<(), OobError> {
        let slot = lane.win[j];
        let b = lane.th.block;
        let value = if slot.space == Space::Shared && !slot.is_fence() {
            self.shared_index(b, slot.addr)
                .map(|i| apply_shared(&mut self.shared[i], slot.kind, slot.v1, slot.v2))
        } else {
            // Only an incoherent L1 reads the block's home SM.
            let home = match self.l1 {
                Some(_) => self.blocks[b as usize].home_sm,
                None => 0,
            };
            self.complete_global(home, slot)
        };
        lane.remove(j);
        if let Some(v) = value? {
            lane.land(slot.dst, slot.id, v);
        }
        Ok(())
    }

    /// Complete a global-space slot of a block homed on SM `home` against
    /// memory and, on chips with an incoherent L1 ([`Chip::l1_weak`]),
    /// against that SM's cache:
    ///
    /// * a **load** reads fresh memory, then may be served the stale
    ///   pre-write value instead when a live remote-written line covers
    ///   the address (one RNG draw, made only when the hit probability
    ///   is positive);
    /// * a **store** (or the write half of an atomic) records the
    ///   overwritten value as the stale line every *other* SM may still
    ///   see — the writing SM's own L1 is updated in place;
    /// * the **read half of an atomic always reads fresh**: RMWs are
    ///   performed at the shared L2, bypassing the L1, which is what
    ///   keeps lock words and counters exact even on incoherent chips;
    /// * a **device fence** refreshes the issuing SM's entire L1.
    ///
    /// With `l1` absent every arm reduces to the plain memory access.
    fn complete_global(&mut self, home: u32, slot: Slot) -> Result<Option<Word>, OobError> {
        match slot.kind {
            SlotKind::Fence => {
                if let Some(l1) = self.l1.as_mut() {
                    l1.note_fence(home);
                    self.channels.fence_inval += 1;
                }
                Ok(None)
            }
            SlotKind::FenceBlock => Ok(None),
            SlotKind::Load => {
                let fresh = self.mem.read(slot.addr)?;
                if let Some(l1) = self.l1.as_mut() {
                    if let Some((stale, p)) = l1.stale_candidate(slot.addr, home, self.turn) {
                        if self.rng.gen::<f64>() < p {
                            self.channels.l1_stale += 1;
                            return Ok(Some(stale));
                        }
                    }
                }
                Ok(Some(fresh))
            }
            SlotKind::Store => {
                let old = if self.l1.is_some() {
                    Some(self.mem.read(slot.addr)?)
                } else {
                    None
                };
                self.mem.write(slot.addr, slot.v1)?;
                if let (Some(l1), Some(old)) = (self.l1.as_mut(), old) {
                    l1.record_write(slot.addr, old, home, self.turn);
                }
                Ok(None)
            }
            SlotKind::Cas => {
                if self.l1.is_some() {
                    self.channels.atomic_read_through += 1;
                }
                let old = self.mem.read(slot.addr)?;
                if old == slot.v1 {
                    self.mem.write(slot.addr, slot.v2)?;
                    if let Some(l1) = self.l1.as_mut() {
                        l1.record_write(slot.addr, old, home, self.turn);
                    }
                }
                Ok(Some(old))
            }
            SlotKind::Exch => {
                if self.l1.is_some() {
                    self.channels.atomic_read_through += 1;
                }
                let old = self.mem.read(slot.addr)?;
                self.mem.write(slot.addr, slot.v1)?;
                if let Some(l1) = self.l1.as_mut() {
                    l1.record_write(slot.addr, old, home, self.turn);
                }
                Ok(Some(old))
            }
            SlotKind::Add => {
                if self.l1.is_some() {
                    self.channels.atomic_read_through += 1;
                }
                let old = self.mem.read(slot.addr)?;
                self.mem.write(slot.addr, old.wrapping_add(slot.v1))?;
                if let Some(l1) = self.l1.as_mut() {
                    l1.record_write(slot.addr, old, home, self.turn);
                }
                Ok(Some(old))
            }
        }
    }

    /// Execute a memory instruction (load, store, atomic or fence) at
    /// the lane's `pc`. Global operations and fences enter the lane's
    /// window. Shared-space operations do too on chips with a live
    /// shared reorder matrix (atomics stay indivisible, the
    /// read-modify-write happening in one completion step, but like
    /// global atomics do not order *other* accesses); with all-zero
    /// shared rates they complete at once, the legacy strongly-ordered
    /// behaviour. Returns `Ok(false)`, not retiring the instruction,
    /// when a register it needs is pending or a stalling fence heads a
    /// full window.
    fn exec_mem(&mut self, inst: Inst, lane: &mut Lane<'_>) -> Result<bool, OobError> {
        let (kind, space, addr, v1, v2, dst) = match inst {
            Inst::Load { dst, space, addr } => {
                if lane.need(&[addr, dst]).is_none() {
                    return Ok(false);
                }
                (SlotKind::Load, space, lane.read(addr), 0, 0, dst)
            }
            Inst::Store { space, addr, src } => {
                if lane.need(&[addr, src]).is_none() {
                    return Ok(false);
                }
                let (a, v) = (lane.read(addr), lane.read(src));
                (SlotKind::Store, space, a, v, 0, 0)
            }
            Inst::AtomicCas {
                dst,
                space,
                addr,
                cmp,
                val,
            } => {
                if lane.need(&[addr, cmp, val, dst]).is_none() {
                    return Ok(false);
                }
                let (a, c, v) = (lane.read(addr), lane.read(cmp), lane.read(val));
                (SlotKind::Cas, space, a, c, v, dst)
            }
            Inst::AtomicExch {
                dst,
                space,
                addr,
                val,
            } => {
                if lane.need(&[addr, val, dst]).is_none() {
                    return Ok(false);
                }
                let (a, v) = (lane.read(addr), lane.read(val));
                (SlotKind::Exch, space, a, v, 0, dst)
            }
            Inst::AtomicAdd {
                dst,
                space,
                addr,
                val,
            } => {
                if lane.need(&[addr, val, dst]).is_none() {
                    return Ok(false);
                }
                let (a, v) = (lane.read(addr), lane.read(val));
                (SlotKind::Add, space, a, v, 0, dst)
            }
            Inst::Fence(level) => {
                let (kind, stall) = match level {
                    FenceLevel::Device => (SlotKind::Fence, self.chip.fence_stall),
                    FenceLevel::Block => (SlotKind::FenceBlock, self.chip.block_fence_stall),
                };
                let slot = Slot {
                    kind,
                    store_class: false,
                    space: Space::Global,
                    addr: 0,
                    line: u32::MAX,
                    v1: 0,
                    v2: 0,
                    dst: 0,
                    id: self.fresh_op_id(),
                    stall,
                };
                if !self.push(lane, slot)? {
                    return Ok(false);
                }
                lane.retire(lane.th.pc + 1);
                return Ok(true);
            }
            _ => unreachable!("{inst:?} is not a memory instruction"),
        };
        let (reads, writes) = (kind != SlotKind::Store, kind != SlotKind::Load);
        let b = lane.th.block;
        if space == Space::Shared {
            let i = self.shared_index(b, addr)?;
            if !self.shared_weak {
                if let Some(v) = apply_shared(&mut self.shared[i], kind, v1, v2) {
                    lane.write(dst, v);
                }
                lane.retire(lane.th.pc + 1);
                return Ok(true);
            }
        }
        let line = self.chip.line_of(addr);
        let slot = Slot {
            kind,
            store_class: writes,
            space,
            addr,
            line,
            v1,
            v2,
            dst,
            id: self.fresh_op_id(),
            stall: 0,
        };
        if !self.push(lane, slot)? {
            return Ok(false);
        }
        if reads {
            lane.pend(dst, slot.id);
        }
        match space {
            Space::Global => {
                let channel = self.chip.line_channel(line);
                self.note_global_issue(lane.th, channel, writes)
            }
            Space::Shared => {
                self.blocks[b as usize].note_shared(self.chip, reads, writes, self.turn)
            }
        }
        lane.retire(lane.th.pc + 1);
        Ok(true)
    }

    /// Enter `slot` into the lane's window. A full window first forces
    /// its head out; a stalling fence at the head blocks the issue this
    /// turn (`Ok(false)`).
    fn push(&mut self, lane: &mut Lane<'_>, slot: Slot) -> Result<bool, OobError> {
        if usize::from(lane.th.win_len) == self.chip.window {
            let head = &mut lane.win[0];
            if head.stall > 0 {
                head.stall -= 1;
                return Ok(false);
            }
            self.complete(lane, 0)?;
        }
        // `Gpu::new` checked `chip.window <= MAX_WINDOW`, so the new slot
        // fits in the lane's window.
        lane.enter(slot);
        Ok(true)
    }

    /// Record contention-tracker state for a global access issue by
    /// thread `th` on `channel`: a back-to-back transition when its
    /// previous access is within the gap, or a loop-boundary (last/first)
    /// event when it is not.
    fn note_global_issue(&mut self, th: &mut ThreadCtx, channel: u32, is_store: bool) {
        let within_gap = th.icount.wrapping_sub(th.last_icount) <= TRANSITION_GAP;
        let transition = (th.has_last && th.last_channel == channel && within_gap)
            .then_some((th.last_is_store, is_store));
        if th.has_last && !within_gap {
            self.mem.note_boundary(
                self.chip,
                th.last_channel,
                th.last_is_store,
                channel,
                is_store,
                self.turn,
            );
        }
        self.mem
            .note_access(self.chip, channel, is_store, transition, self.turn);
        th.has_last = true;
        th.last_channel = channel;
        th.last_is_store = is_store;
        th.last_icount = th.icount;
    }

    /// The index of word `addr` of block `b`'s shared memory.
    fn shared_index(&self, b: u32, addr: u32) -> Result<usize, OobError> {
        if addr >= self.shared_words {
            return Err(OobError {
                addr,
                len: self.shared_words,
            });
        }
        Ok((self.blocks[b as usize].shared_at + addr) as usize)
    }

    fn fresh_op_id(&mut self) -> u32 {
        let id = self.next_op_id;
        self.next_op_id += 1;
        id
    }
}

/// Classify an (older, younger) store-class pair as a reorder kind.
#[inline]
fn classify(older_store: bool, younger_store: bool) -> ReorderKind {
    match (older_store, younger_store) {
        (true, true) => ReorderKind::StSt,
        (false, false) => ReorderKind::LdLd,
        (true, false) => ReorderKind::StLd,
        (false, true) => ReorderKind::LdSt,
    }
}

/// Evaluate a [`BinOp`] on two words with the simulator's exact
/// semantics (wrapping integer arithmetic, trap-free division, 5-bit
/// shift masks, IEEE-754 bit-pattern floats). Public so static analyses
/// can share the operational semantics instead of re-implementing them.
#[inline]
pub fn eval_bin(op: BinOp, a: Word, b: Word) -> Word {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => a.checked_div(b).unwrap_or(0),
        BinOp::RemU => a.checked_rem(b).unwrap_or(0),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a << (b & 31),
        BinOp::Shr => a >> (b & 31),
        BinOp::MinU => a.min(b),
        BinOp::MaxU => a.max(b),
        BinOp::FAdd => from_f32(to_f32(a) + to_f32(b)),
        BinOp::FSub => from_f32(to_f32(a) - to_f32(b)),
        BinOp::FMul => from_f32(to_f32(a) * to_f32(b)),
        BinOp::FDiv => from_f32(to_f32(a) / to_f32(b)),
        BinOp::CmpEq => (a == b) as Word,
        BinOp::CmpNe => (a != b) as Word,
        BinOp::CmpLtU => (a < b) as Word,
        BinOp::CmpLeU => (a <= b) as Word,
        BinOp::CmpLtS => ((a as i32) < (b as i32)) as Word,
        BinOp::CmpLeS => ((a as i32) <= (b as i32)) as Word,
        BinOp::FCmpLt => (to_f32(a) < to_f32(b)) as Word,
    }
}

/// Fisher–Yates shuffle using the run's RNG (avoids pulling in the `rand`
/// `SliceRandom` trait for a single call site, and keeps the shuffle
/// order stable across `rand` versions).
fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::ir::builder::KernelBuilder;

    /// A chip with all weak behaviour disabled — in both memory spaces —
    /// so the simulator is sequentially consistent under this profile.
    fn sc_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    fn run_simple(program: Program, blocks: u32, tpb: u32, words: u32, seed: u64) -> RunResult {
        let mut gpu = Gpu::new(sc_chip());
        gpu.run(&LaunchSpec::app(program, blocks, tpb, words), seed)
    }

    #[test]
    fn every_thread_stores_its_gtid() {
        let mut b = KernelBuilder::new("gtid");
        let g = b.global_tid();
        b.store_global(g, g);
        let p = b.finish().unwrap();
        let r = run_simple(p, 4, 32, 128, 1);
        assert!(r.status.is_completed());
        for i in 0..128 {
            assert_eq!(r.word(i), i, "word {i}");
        }
    }

    #[test]
    fn alu_arithmetic() {
        let mut b = KernelBuilder::new("alu");
        let x = b.const_(10);
        let y = b.const_(3);
        let sum = b.add(x, y);
        let dif = b.sub(x, y);
        let prod = b.mul(x, y);
        let quot = b.div_u(x, y);
        let rem = b.rem_u(x, y);
        let a0 = b.const_(0);
        let a1 = b.const_(1);
        let a2 = b.const_(2);
        let a3 = b.const_(3);
        let a4 = b.const_(4);
        b.store_global(a0, sum);
        b.store_global(a1, dif);
        b.store_global(a2, prod);
        b.store_global(a3, quot);
        b.store_global(a4, rem);
        let p = b.finish().unwrap();
        let r = run_simple(p, 1, 1, 8, 7);
        assert_eq!(
            (r.word(0), r.word(1), r.word(2), r.word(3), r.word(4)),
            (13, 7, 30, 3, 1)
        );
    }

    #[test]
    fn float_math_via_bits() {
        let mut b = KernelBuilder::new("float");
        let x = b.const_f32(1.5);
        let y = b.const_f32(2.0);
        let s = b.fadd(x, y);
        let m = b.fmul(x, y);
        let a0 = b.const_(0);
        let a1 = b.const_(1);
        b.store_global(a0, s);
        b.store_global(a1, m);
        let p = b.finish().unwrap();
        let r = run_simple(p, 1, 1, 4, 3);
        assert_eq!(r.f32(0), 3.5);
        assert_eq!(r.f32(1), 3.0);
    }

    #[test]
    fn while_loop_sums() {
        // sum 0..10 into global[0] via a register accumulator.
        let mut b = KernelBuilder::new("loop");
        let acc = b.const_(0);
        let i = b.const_(0);
        let n = b.const_(10);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                b.bin_into(acc, BinOp::Add, acc, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        let a0 = b.const_(0);
        b.store_global(a0, acc);
        let p = b.finish().unwrap();
        let r = run_simple(p, 1, 1, 4, 5);
        assert_eq!(r.word(0), 45);
    }

    #[test]
    fn atomic_add_counts_all_threads() {
        let mut b = KernelBuilder::new("count");
        let a0 = b.const_(0);
        let one = b.const_(1);
        let _ = b.atomic_add_global(a0, one);
        let p = b.finish().unwrap();
        let r = run_simple(p, 4, 32, 4, 11);
        assert!(r.status.is_completed());
        assert_eq!(r.word(0), 128);
    }

    #[test]
    fn spinlock_mutual_exclusion_under_sc() {
        // Non-atomic increment under a spinlock: correct when the memory
        // model is strong.
        let mut b = KernelBuilder::new("mutex");
        let lock = b.const_(0);
        let cell = b.const_(64);
        b.spin_lock(lock);
        let v = b.load_global(cell);
        let one = b.const_(1);
        let v1 = b.add(v, one);
        b.store_global(cell, v1);
        b.unlock(lock);
        let p = b.finish().unwrap();
        for seed in 0..5 {
            let r = run_simple(p.clone(), 4, 8, 128, seed);
            assert!(r.status.is_completed());
            assert_eq!(r.word(64), 32, "seed {seed}");
        }
    }

    #[test]
    fn barrier_orders_shared_memory() {
        // Thread 0 writes shared[1]; all threads barrier; thread 1 copies
        // shared[1] to global. Requires barrier to work.
        let mut b = KernelBuilder::new("barrier");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        let a1 = b.const_(1);
        let v = b.const_(99);
        b.if_(is0, |b| {
            b.store_shared(a1, v);
        });
        b.barrier();
        let one = b.const_(1);
        let is1 = b.eq(tid, one);
        b.if_(is1, |b| {
            let got = b.load_shared(a1);
            b.store_global(zero, got);
        });
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let mut spec = LaunchSpec::app(p, 1, 32, 4);
        spec.shared_words = 8;
        for seed in 0..10 {
            let r = gpu.run(&spec, seed);
            assert!(r.status.is_completed());
            assert_eq!(r.word(0), 99, "seed {seed}");
        }
    }

    #[test]
    fn shared_atomic_add_counts_block_mates_only() {
        // Each block's 32 threads atomically bump shared[0]; lane 0
        // publishes the final count after a barrier. Shared memory is
        // per-block, so every block reports 32 — not 64.
        let mut b = KernelBuilder::new("shared-count");
        let a0 = b.const_(0);
        let one = b.const_(1);
        let _ = b.atomic_add_shared(a0, one);
        b.barrier();
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        b.if_(is0, |b| {
            let v = b.load_shared(a0);
            let bid = b.bid();
            b.store_global(bid, v);
        });
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let mut spec = LaunchSpec::app(p, 2, 32, 8);
        spec.shared_words = 4;
        for seed in 0..5 {
            let r = gpu.run(&spec, seed);
            assert!(r.status.is_completed());
            assert_eq!((r.word(0), r.word(1)), (32, 32), "seed {seed}");
        }
    }

    #[test]
    fn barrier_divergence_detected() {
        // Half the block skips the barrier and exits.
        let mut b = KernelBuilder::new("diverge");
        let tid = b.tid();
        let half = b.const_(16);
        let low = b.lt_u(tid, half);
        b.if_(low, |b| {
            b.barrier();
        });
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let spec = LaunchSpec::app(p, 1, 32, 4);
        let mut saw_divergence = false;
        for seed in 0..20 {
            let r = gpu.run(&spec, seed);
            if r.status == RunStatus::BarrierDivergence {
                saw_divergence = true;
            }
        }
        assert!(saw_divergence);
    }

    #[test]
    fn timeout_reported() {
        // Infinite loop.
        let mut b = KernelBuilder::new("spin");
        let one = b.const_(1);
        b.while_(|b| b.mov(one), |_| {});
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let mut spec = LaunchSpec::app(p, 1, 1, 4);
        spec.max_turns = 10_000;
        let r = gpu.run(&spec, 0);
        assert_eq!(r.status, RunStatus::TimedOut);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut b = KernelBuilder::new("oob");
        let a = b.const_(1 << 20);
        let v = b.const_(1);
        b.store_global(a, v);
        let p = b.finish().unwrap();
        let r = run_simple(p, 1, 1, 16, 0);
        assert!(matches!(r.status, RunStatus::OutOfBounds(_)));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut b = KernelBuilder::new("det");
        let a0 = b.const_(0);
        let one = b.const_(1);
        let _ = b.atomic_add_global(a0, one);
        let g = b.global_tid();
        b.store_global(g, g);
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(Chip::by_short("Titan").unwrap());
        let spec = LaunchSpec::app(p, 4, 32, 256);
        let a = gpu.run(&spec, 1234);
        let b2 = gpu.run(&spec, 1234);
        assert_eq!(a.memory, b2.memory);
        assert_eq!(a.total_turns, b2.total_turns);
        assert_eq!(a.channels, b2.channels);
    }

    #[test]
    fn init_values_applied() {
        let mut b = KernelBuilder::new("copy");
        let src = b.const_(0);
        let dst = b.const_(1);
        let v = b.load_global(src);
        b.store_global(dst, v);
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let mut spec = LaunchSpec::app(p, 1, 1, 4);
        spec.init = vec![(0, 77)];
        let r = gpu.run(&spec, 0);
        assert_eq!(r.word(1), 77);
    }

    #[test]
    fn bad_init_address_is_a_run_fault() {
        let mut b = KernelBuilder::new("copy");
        let src = b.const_(0);
        let dst = b.const_(1);
        let v = b.load_global(src);
        b.store_global(dst, v);
        let p = b.finish().unwrap();
        let chip = Chip::by_short("Titan").unwrap();
        let mut gpu = Gpu::new(chip.clone());
        let mut spec = LaunchSpec::app(p, 1, 1, 4);
        spec.init = vec![(0, 77), (4, 1)];
        let r = gpu.run(&spec, 0);
        assert_eq!(
            r.status,
            RunStatus::OutOfBounds(OobError { addr: 4, len: 4 })
        );
        assert_eq!((r.instructions, r.total_turns), (0, 0));
        // The same GPU then runs a valid launch exactly like a fresh one.
        spec.init.pop();
        let r = gpu.run(&spec, 0);
        assert_same_run(&r, &Gpu::new(chip).run(&spec, 0), "valid launch");
        assert_eq!(r.word(1), 77);
    }

    #[test]
    fn fences_cost_cycles() {
        // The same kernel with many fences takes longer.
        fn kernel(fences: bool) -> Program {
            let mut b = KernelBuilder::new("f");
            let a0 = b.const_(0);
            let i = b.const_(0);
            let n = b.const_(20);
            let one = b.const_(1);
            b.while_(
                |b| b.lt_u(i, n),
                |b| {
                    b.store_global(a0, i);
                    if fences {
                        b.fence_device();
                    }
                    b.bin_into(i, BinOp::Add, i, one);
                },
            );
            b.finish().unwrap()
        }
        let mut gpu = Gpu::new(sc_chip());
        let plain = gpu.run(&LaunchSpec::app(kernel(false), 1, 32, 4), 5);
        let fenced = gpu.run(&LaunchSpec::app(kernel(true), 1, 32, 4), 5);
        assert!(
            fenced.app_turns > plain.app_turns * 2,
            "fenced {} vs plain {}",
            fenced.app_turns,
            plain.app_turns
        );
    }

    #[test]
    fn wave_scheduling_handles_oversubscription() {
        // More blocks than the occupancy limit admits at once.
        let mut b = KernelBuilder::new("wave");
        let g = b.global_tid();
        let bid = b.bid();
        let one = b.const_(1);
        let _ = b.mov(bid);
        let v = b.add(g, one);
        b.store_global(g, v);
        let p = b.finish().unwrap();
        let mut chip = sc_chip();
        chip.max_concurrent_threads = 64;
        let mut gpu = Gpu::new(chip);
        let r = gpu.run(&LaunchSpec::app(p, 16, 32, 512), 3);
        assert!(r.status.is_completed());
        for i in 0..512 {
            assert_eq!(r.word(i), i + 1);
        }
    }

    #[test]
    fn randomized_ids_still_cover_all_work() {
        let mut b = KernelBuilder::new("rand-ids");
        let g = b.global_tid();
        let one = b.const_(1);
        let v = b.add(g, one);
        b.store_global(g, v);
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        let mut spec = LaunchSpec::app(p, 4, 64, 256);
        spec.randomize_ids = true;
        let r = gpu.run(&spec, 99);
        assert!(r.status.is_completed());
        for i in 0..256 {
            assert_eq!(r.word(i), i + 1, "word {i}");
        }
    }

    #[test]
    fn stress_group_does_not_change_app_result_under_sc() {
        let mut b = KernelBuilder::new("app");
        let g = b.global_tid();
        b.store_global(g, g);
        let app = b.finish().unwrap();

        let mut s = KernelBuilder::new("stress");
        let base = b_stress_addr();
        let i = s.const_(0);
        let n = s.const_(50);
        let one = s.const_(1);
        let addr = s.const_(base);
        s.while_(
            |s| s.lt_u(i, n),
            |s| {
                let v = s.load_global(addr);
                s.store_global(addr, v);
                s.bin_into(i, BinOp::Add, i, one);
            },
        );
        let stress = s.finish().unwrap();

        let mut gpu = Gpu::new(sc_chip());
        let spec = LaunchSpec {
            groups: vec![
                KernelGroup {
                    program: Arc::new(app),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::App,
                },
                KernelGroup {
                    program: Arc::new(stress),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::Stress,
                },
            ],
            global_words: 1024,
            shared_words: 0,
            init_image: vec![],
            init: vec![],
            max_turns: 4_000_000,
            randomize_ids: false,
        };
        let r = gpu.run(&spec, 21);
        assert!(r.status.is_completed());
        for i in 0..64 {
            assert_eq!(r.word(i), i);
        }
        fn b_stress_addr() -> u32 {
            512
        }
    }

    /// A scoped MP kernel: lane 0 of warp 0 writes shared x then y
    /// (optionally fenced between), lane 0 of warp 1 reads y then x into
    /// global results, and every other lane hammers a shared scratchpad
    /// region with loads and stores — the intra-block pressure that feeds
    /// the shared contention factor.
    fn scoped_mp_kernel(fence: Option<FenceLevel>) -> Program {
        let mut b = KernelBuilder::new("scoped-mp");
        let lane = b.lane();
        let zero = b.const_(0);
        let is_lane0 = b.eq(lane, zero);
        b.if_else(
            is_lane0,
            |b| {
                let tid = b.tid();
                let warp = b.const_(32);
                let me = b.div_u(tid, warp);
                let zero = b.const_(0);
                let one = b.const_(1);
                let is_writer = b.eq(me, zero);
                let x = b.const_(0);
                let y = b.const_(64);
                let emit_fence = |b: &mut KernelBuilder| match fence {
                    Some(FenceLevel::Block) => b.fence_block(),
                    Some(FenceLevel::Device) => b.fence_device(),
                    None => {}
                };
                b.if_else(
                    is_writer,
                    |b| {
                        b.store_shared(x, one);
                        emit_fence(b);
                        b.store_shared(y, one);
                    },
                    |b| {
                        let r0 = b.load_shared(y);
                        emit_fence(b);
                        let r1 = b.load_shared(x);
                        let res0 = b.const_(0);
                        let res1 = b.const_(1);
                        b.store_global(res0, r0);
                        b.store_global(res1, r1);
                    },
                );
            },
            |b| {
                let tid = b.tid();
                let base = b.const_(128);
                let m = b.const_(64);
                let off = b.rem_u(tid, m);
                let addr = b.add(base, off);
                let i = b.reg();
                b.assign_const(i, 0);
                let n = b.const_(60);
                let one = b.const_(1);
                b.while_(
                    |b| b.lt_u(i, n),
                    |b| {
                        let v = b.load_shared(addr);
                        b.store_shared(addr, v);
                        b.bin_into(i, BinOp::Add, i, one);
                    },
                );
            },
        );
        b.finish().unwrap()
    }

    fn scoped_mp_weak_count(chip: Chip, fence: Option<FenceLevel>, seeds: u64) -> u32 {
        let p = scoped_mp_kernel(fence);
        let mut gpu = Gpu::new(chip);
        let mut spec = LaunchSpec::app(p, 1, 64, 16);
        spec.shared_words = 192;
        let mut weak = 0;
        for seed in 0..seeds {
            let r = gpu.run(&spec, seed);
            assert!(r.status.is_completed(), "seed {seed}: {:?}", r.status);
            if (r.word(0), r.word(1)) == (1, 0) {
                weak += 1;
            }
        }
        weak
    }

    #[test]
    fn shared_stores_reorder_under_intra_block_pressure() {
        // With the block's idle lanes hammering the shared scratchpad,
        // the scoped relaxation engine makes the writer's shared stores
        // complete out of order often enough for the reader to observe
        // flag-without-data.
        let weak = scoped_mp_weak_count(Chip::by_short("Titan").unwrap(), None, 200);
        assert!(weak > 0, "scoped MP never went weak under shared pressure");
    }

    #[test]
    fn block_fence_orders_shared_space() {
        // The same kernel with a __threadfence_block between each test
        // thread's shared accesses: the cheap fence is enough to forbid
        // the intra-block reordering entirely.
        let weak = scoped_mp_weak_count(
            Chip::by_short("Titan").unwrap(),
            Some(FenceLevel::Block),
            200,
        );
        assert_eq!(weak, 0, "fence_block must order shared-space accesses");
        // ...and so is the stronger device fence.
        let weak = scoped_mp_weak_count(
            Chip::by_short("Titan").unwrap(),
            Some(FenceLevel::Device),
            200,
        );
        assert_eq!(weak, 0);
    }

    #[test]
    fn sc_chip_keeps_shared_memory_strongly_ordered() {
        // sequentially_consistent() zeroes the shared-space matrix too:
        // the very kernel that goes weak on the Titan never does here.
        let weak = scoped_mp_weak_count(sc_chip(), None, 200);
        assert_eq!(weak, 0, "SC chip exhibited scoped weak behaviour");
    }

    #[test]
    fn zeroed_shared_rates_complete_immediately() {
        // With the shared matrix zeroed, shared accesses take the legacy
        // immediate path: a shared store is visible to a block-mate the
        // turn it issues, with no in-flight delay and no bypasses.
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.shared_reorder.base = [0.0; 4];
        chip.shared_reorder.gain = [0.0; 4];
        assert!(!chip.shared_weak());
        let weak = scoped_mp_weak_count(chip, None, 120);
        assert_eq!(weak, 0);
    }

    #[test]
    fn block_fence_is_transparent_to_global_accesses() {
        // Two-level hierarchy: on a chip with extreme global reorder
        // rates, a block fence between two global stores does *not*
        // prevent the device-wide inversion — only a device fence does.
        fn kernel(level: FenceLevel) -> Program {
            let mut b = KernelBuilder::new("global-mp");
            let tid = b.tid();
            let zero = b.const_(0);
            let is0 = b.eq(tid, zero);
            b.if_(is0, |b| {
                let bid = b.bid();
                let zero = b.const_(0);
                let one = b.const_(1);
                let x = b.const_(0);
                let y = b.const_(64);
                let is_writer = b.eq(bid, zero);
                fn emit(b: &mut KernelBuilder, level: FenceLevel) {
                    match level {
                        FenceLevel::Block => b.fence_block(),
                        FenceLevel::Device => b.fence_device(),
                    }
                }
                b.if_else(
                    is_writer,
                    |b| {
                        b.store_global(x, one);
                        emit(b, level);
                        b.store_global(y, one);
                    },
                    |b| {
                        let r0 = b.load_global(y);
                        emit(b, level);
                        let r1 = b.load_global(x);
                        let res0 = b.const_(128);
                        let res1 = b.const_(129);
                        b.store_global(res0, r0);
                        b.store_global(res1, r1);
                    },
                );
            });
            b.finish().unwrap()
        }
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.reorder.base = [0.9; 4];
        let mut gpu = Gpu::new(chip);
        let mut weak_block = 0;
        let mut weak_device = 0;
        for seed in 0..150 {
            let spec = LaunchSpec::app(kernel(FenceLevel::Block), 2, 32, 256);
            let r = gpu.run(&spec, seed);
            if (r.word(128), r.word(129)) == (1, 0) {
                weak_block += 1;
            }
            let spec = LaunchSpec::app(kernel(FenceLevel::Device), 2, 32, 256);
            let r = gpu.run(&spec, seed);
            if (r.word(128), r.word(129)) == (1, 0) {
                weak_device += 1;
            }
        }
        assert!(
            weak_block > 0,
            "a block fence must not order global accesses"
        );
        assert_eq!(weak_device, 0, "a device fence must order everything");
    }

    #[test]
    fn shared_atomics_stay_indivisible_in_the_window() {
        // 64 block-mates atomically bump shared[0] while their windows
        // churn under self-generated pressure: the count must still be
        // exact — RMWs complete in one indivisible step.
        let mut b = KernelBuilder::new("shared-count-weak");
        let a0 = b.const_(0);
        let one = b.const_(1);
        let _ = b.atomic_add_shared(a0, one);
        b.barrier();
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        b.if_(is0, |b| {
            let v = b.load_shared(a0);
            b.store_global(zero, v);
        });
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(Chip::by_short("Titan").unwrap());
        let mut spec = LaunchSpec::app(p, 1, 64, 8);
        spec.shared_words = 4;
        for seed in 0..20 {
            let r = gpu.run(&spec, seed);
            assert!(r.status.is_completed());
            assert_eq!(r.word(0), 64, "seed {seed}");
        }
    }

    #[test]
    fn sc_chip_never_bypasses() {
        let mut b = KernelBuilder::new("two-stores");
        let a0 = b.const_(0);
        let a1 = b.const_(64);
        let v = b.const_(1);
        b.store_global(a0, v);
        b.store_global(a1, v);
        let p = b.finish().unwrap();
        let mut gpu = Gpu::new(sc_chip());
        for seed in 0..50 {
            let r = gpu.run(&LaunchSpec::app(p.clone(), 2, 32, 128), seed);
            assert_eq!(r.channels.window(), 0, "seed {seed}");
            assert!(r.channels.is_zero(), "seed {seed}: {}", r.channels);
        }
    }

    /// A global CoRR kernel across two blocks: block 0 writes x once,
    /// block 1 reads x twice (optionally with a device fence between)
    /// and publishes both reads. The in-flight window can never reorder
    /// the same-address loads, so any (1, 0) outcome comes from the
    /// incoherent-L1 channel.
    fn corr_kernel(fence: bool) -> Program {
        let mut b = KernelBuilder::new("corr");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        b.if_(is0, |b| {
            let bid = b.bid();
            let zero = b.const_(0);
            let one = b.const_(1);
            let x = b.const_(0);
            let is_writer = b.eq(bid, zero);
            b.if_else(
                is_writer,
                |b| {
                    b.store_global(x, one);
                },
                |b| {
                    let r0 = b.load_global(x);
                    if fence {
                        b.fence_device();
                    }
                    let r1 = b.load_global(x);
                    let res0 = b.const_(128);
                    let res1 = b.const_(129);
                    b.store_global(res0, r0);
                    b.store_global(res1, r1);
                },
            );
        });
        b.finish().unwrap()
    }

    /// Write-heavy stress kernel: every thread hammers stores across a
    /// scratchpad region — the cross-SM writer traffic that pressures
    /// remote L1s without feeding the (load+store-gated) channel χ.
    fn write_stress_kernel() -> Program {
        let mut b = KernelBuilder::new("wstress");
        let g = b.global_tid();
        let base = b.const_(256);
        let m = b.const_(256);
        let off = b.rem_u(g, m);
        let addr = b.add(base, off);
        let i = b.reg();
        b.assign_const(i, 0);
        let n = b.const_(120);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                b.store_global(addr, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    /// Count (1, 0) outcomes of the CoRR kernel under cross-SM write
    /// stress. The launch queue interleaves app and stress blocks, so
    /// the round-robin puts the writer on SM 0, stress on SMs 1 and 3,
    /// and the reader on SM 2 — reader and writer never share an L1.
    fn corr_weak_count(chip: Chip, fence: bool, stressed: bool, seeds: u64) -> u32 {
        let mut groups = vec![KernelGroup {
            program: Arc::new(corr_kernel(fence)),
            blocks: 2,
            threads_per_block: 32,
            role: Role::App,
        }];
        if stressed {
            groups.push(KernelGroup {
                program: Arc::new(write_stress_kernel()),
                blocks: 2,
                threads_per_block: 32,
                role: Role::Stress,
            });
        }
        let spec = LaunchSpec {
            groups,
            global_words: 1024,
            shared_words: 0,
            init_image: vec![],
            init: vec![],
            max_turns: 4_000_000,
            randomize_ids: false,
        };
        let mut gpu = Gpu::new(chip);
        let mut weak = 0;
        for seed in 0..seeds {
            let r = gpu.run(&spec, seed);
            assert!(r.status.is_completed(), "seed {seed}: {:?}", r.status);
            if (r.word(128), r.word(129)) == (1, 0) {
                weak += 1;
            }
        }
        weak
    }

    #[test]
    fn incoherent_l1_makes_corr_weak_under_cross_sm_writes() {
        let weak = corr_weak_count(Chip::by_short("C2075").unwrap(), false, true, 200);
        assert!(weak > 0, "CoRR never went weak on the incoherent-L1 chip");
    }

    #[test]
    fn device_fence_refreshes_the_readers_l1() {
        let weak = corr_weak_count(Chip::by_short("C2075").unwrap(), true, true, 200);
        assert_eq!(weak, 0, "a device fence between the reads must refresh");
    }

    #[test]
    fn coherent_l1_chips_keep_corr_strong() {
        // Kepler parts read-coherently through L2, and the SC control
        // zeroes the staleness rates explicitly.
        let weak = corr_weak_count(Chip::by_short("K20").unwrap(), false, true, 200);
        assert_eq!(weak, 0, "K20's L1 is coherent");
        let sc = Chip::by_short("C2075").unwrap().sequentially_consistent();
        let weak = corr_weak_count(sc, false, true, 200);
        assert_eq!(weak, 0, "sequentially_consistent() must zero the L1 too");
    }

    #[test]
    fn l1_staleness_needs_cross_sm_write_pressure() {
        // Without stress traffic the test's own single write stays far
        // below the pressure floor: native C2075 CoRR is coherent.
        let weak = corr_weak_count(Chip::by_short("C2075").unwrap(), false, false, 200);
        assert_eq!(weak, 0, "staleness must be pressure-provoked only");
    }

    #[test]
    fn zeroed_l1_rates_take_the_legacy_path() {
        // With the staleness rates zeroed, no L1 state is consulted at
        // all: the structural knobs (capacity, TTL) cannot influence the
        // run, so wildly different values produce bit-identical results.
        let mut a = Chip::by_short("C2075").unwrap();
        a.l1.stale_gain = 0.0;
        assert!(!a.l1_weak());
        let mut b = a.clone();
        b.l1.words = 1;
        b.l1.ttl_turns = 1;
        let mut gpu_a = Gpu::new(a);
        let mut gpu_b = Gpu::new(b);
        let spec = LaunchSpec {
            groups: vec![
                KernelGroup {
                    program: Arc::new(corr_kernel(false)),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::App,
                },
                KernelGroup {
                    program: Arc::new(write_stress_kernel()),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::Stress,
                },
            ],
            global_words: 1024,
            shared_words: 0,
            init_image: vec![],
            init: vec![],
            max_turns: 4_000_000,
            randomize_ids: false,
        };
        for seed in 0..40 {
            let ra = gpu_a.run(&spec, seed);
            let rb = gpu_b.run(&spec, seed);
            assert_eq!(ra.memory, rb.memory, "seed {seed}");
            assert_eq!(ra.total_turns, rb.total_turns, "seed {seed}");
            assert_eq!(ra.channels, rb.channels, "seed {seed}");
            // The coherent (rate-zeroed) path never consults the L1, so
            // every L1-specific channel must stay exactly zero.
            assert_eq!(ra.channels.l1_stale, 0, "seed {seed}");
            assert_eq!(ra.channels.fence_inval, 0, "seed {seed}");
            assert_eq!(ra.channels.atomic_read_through, 0, "seed {seed}");
        }
    }

    #[test]
    fn channels_count_the_l1_events() {
        // On an incoherent-L1 chip under cross-SM write stress the CoRR
        // kernel exercises the structural channel: over enough seeds the
        // stale-hit counter must light up.
        let spec = LaunchSpec {
            groups: vec![
                KernelGroup {
                    program: Arc::new(corr_kernel(false)),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::App,
                },
                KernelGroup {
                    program: Arc::new(write_stress_kernel()),
                    blocks: 2,
                    threads_per_block: 32,
                    role: Role::Stress,
                },
            ],
            global_words: 1024,
            shared_words: 0,
            init_image: vec![],
            init: vec![],
            max_turns: 4_000_000,
            randomize_ids: false,
        };
        let mut gpu = Gpu::new(Chip::by_short("C2075").unwrap());
        let mut total = ChannelCounts::default();
        for seed in 0..200 {
            total.add(&gpu.run(&spec, seed).channels);
        }
        assert!(total.l1_stale > 0, "stale hits never fired: {total}");
        // The fenced variant exercises the invalidation channel.
        let mut fence_spec = spec.clone();
        fence_spec.groups[0].program = Arc::new(corr_kernel(true));
        let r = gpu.run(&fence_spec, 7);
        assert!(r.channels.fence_inval > 0, "device fence not counted");
    }

    fn assert_same_run(a: &RunResult, b: &RunResult, what: &str) {
        assert_eq!(a.status, b.status, "{what}: status");
        assert_eq!(a.memory, b.memory, "{what}: memory");
        assert_eq!(a.instructions, b.instructions, "{what}: instructions");
        assert_eq!(a.app_turns, b.app_turns, "{what}: app turns");
        assert_eq!(a.total_turns, b.total_turns, "{what}: total turns");
        assert_eq!(a.channels, b.channels, "{what}: channels");
    }

    /// Every thread loads and stores across the `words` words from word
    /// 256 for `iters` iterations — the mixed traffic that feeds the
    /// channel χ.
    fn mixed_stress_kernel(iters: u32, words: u32) -> Program {
        let mut b = KernelBuilder::new("mstress");
        let g = b.global_tid();
        let base = b.const_(256);
        let m = b.const_(words);
        let off = b.rem_u(g, m);
        let addr = b.add(base, off);
        let i = b.reg();
        b.assign_const(i, 0);
        let n = b.const_(iters);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                let v = b.load_global(addr);
                let v = b.add(v, one);
                b.store_global(addr, v);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    /// Every thread stores its id twice, then thread 37 stores far out
    /// of bounds — a fault with other windows still in flight.
    fn faulting_kernel() -> Program {
        let mut b = KernelBuilder::new("fault");
        let g = b.global_tid();
        b.store_global(g, g);
        let far = b.const_(1 << 20);
        let off = b.add(g, far);
        b.store_global(g, off);
        let bad = b.const_(37);
        let is_bad = b.eq(g, bad);
        b.if_(is_bad, |b| {
            b.store_global(far, g);
        });
        b.finish().unwrap()
    }

    #[test]
    fn reused_buffers_never_leak_between_runs() {
        // One GPU runs launches of every shape in turn — inter- and
        // intra-block, growing, shrinking, faulting mid-run, on both
        // relaxation windows and the incoherent L1 — twice over. Each
        // result must equal a fresh GPU's, field by field.
        let chip = Chip::by_short("C2075").unwrap();
        let with_stress = |app: Program, stress: Program, blocks: u32, randomize: bool| {
            let mut spec = LaunchSpec::app(app, 2, 32, 1024);
            spec.groups.push(KernelGroup {
                program: Arc::new(stress),
                blocks,
                threads_per_block: 64,
                role: Role::Stress,
            });
            spec.randomize_ids = randomize;
            spec
        };
        let mut intra = LaunchSpec::app(scoped_mp_kernel(None), 1, 64, 16);
        intra.shared_words = 192;
        let launches = [
            (
                "inter-block",
                LaunchSpec::app(corr_kernel(false), 2, 32, 256),
            ),
            ("intra-block, shared stress", intra),
            (
                "large, stressed",
                with_stress(corr_kernel(false), mixed_stress_kernel(24, 512), 24, true),
            ),
            (
                "mid-run fault",
                LaunchSpec::app(faulting_kernel(), 2, 64, 256),
            ),
            (
                "small, partial warp",
                LaunchSpec::app(faulting_kernel(), 1, 7, 64),
            ),
            (
                "L1 stress",
                with_stress(corr_kernel(false), write_stress_kernel(), 2, true),
            ),
        ];
        let mut gpu = Gpu::new(chip.clone());
        for pass in 0..2 {
            for (seed, (what, spec)) in launches.iter().enumerate() {
                let seed = seed as u64 + 10 * pass;
                let reused = gpu.run(spec, seed);
                let fresh = Gpu::new(chip.clone()).run(spec, seed);
                assert_same_run(&reused, &fresh, &format!("pass {pass}, {what}"));
            }
        }
        let fault = gpu.run(&launches[3].1, 0);
        assert!(matches!(fault.status, RunStatus::OutOfBounds(_)));
    }

    /// What an edge-case run pins: status, instructions, app and total
    /// turns, channels, and an FNV-1a digest of the memory image.
    type Pin = (RunStatus, u64, u64, u64, ChannelCounts, u64);

    fn pin(r: &RunResult) -> Pin {
        let digest = r
            .memory
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        (
            r.status.clone(),
            r.instructions,
            r.app_turns,
            r.total_turns,
            r.channels,
            digest,
        )
    }

    /// Every lane loads its own word, except lane 31, whose load is far
    /// out of bounds; then the warp runs a long stretch of register-only
    /// instructions, during which the loads drain and lane 31 faults.
    fn lane31_oob_kernel() -> Program {
        let mut b = KernelBuilder::new("lane31-oob");
        let tid = b.tid();
        let c31 = b.const_(31);
        let is31 = b.eq(tid, c31);
        let far = b.const_(1 << 20);
        let off = b.mul(is31, far);
        let addr = b.add(tid, off);
        let v = b.load_global(addr);
        let mut x = b.const_(1);
        for _ in 0..24 {
            x = b.add(x, tid);
        }
        b.store_global(tid, x);
        let c64 = b.const_(64);
        let at = b.add(tid, c64);
        b.store_global(at, v);
        b.finish().unwrap()
    }

    /// Every thread stores its id, then half of each block takes the
    /// barrier while the other half exits.
    fn diverging_kernel() -> Program {
        let mut b = KernelBuilder::new("diverge-store");
        let g = b.global_tid();
        b.store_global(g, g);
        let tid = b.tid();
        let half = b.const_(16);
        let low = b.lt_u(tid, half);
        b.if_(low, |b| {
            b.barrier();
        });
        let one = b.const_(1);
        let v = b.add(g, one);
        b.store_global(g, v);
        b.finish().unwrap()
    }

    /// Every thread bumps its own word forever.
    fn endless_kernel() -> Program {
        let mut b = KernelBuilder::new("endless");
        let g = b.global_tid();
        let one = b.const_(1);
        b.while_(
            |b| b.mov(one),
            |b| {
                let v = b.load_global(g);
                let v = b.add(v, one);
                b.store_global(g, v);
            },
        );
        b.finish().unwrap()
    }

    /// Every thread bumps a word shared with other blocks, bumps a global
    /// counter atomically and fences, `iters` times.
    fn wave_kernel(iters: u32) -> Program {
        let mut b = KernelBuilder::new("waves");
        let g = b.global_tid();
        let base = b.const_(256);
        let m = b.const_(128);
        let off = b.rem_u(g, m);
        let addr = b.add(base, off);
        let counter = b.const_(0);
        let i = b.reg();
        b.assign_const(i, 0);
        let n = b.const_(iters);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                let v = b.load_global(addr);
                let v = b.add(v, one);
                b.store_global(addr, v);
                let _ = b.atomic_add_global(counter, one);
                b.fence_device();
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    #[test]
    #[should_panic(expected = "patch_words is 0")]
    fn chips_with_empty_lines_are_rejected() {
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.patch_words = 0;
        Gpu::new(chip);
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_CHANNELS")]
    fn chips_with_too_many_channels_are_rejected() {
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.channels = MAX_CHANNELS as u32 + 1;
        Gpu::new(chip);
    }

    #[test]
    #[should_panic(expected = "Titan: window 0, outside 1..=MAX_WINDOW")]
    fn chips_with_an_empty_window_are_rejected() {
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.window = 0;
        Gpu::new(chip);
    }

    #[test]
    #[should_panic(expected = "Titan: topology has no SMs")]
    fn chips_without_sms_are_rejected() {
        let mut chip = Chip::by_short("Titan").unwrap();
        chip.topology.clusters = 0;
        Gpu::new(chip);
    }

    /// A window slot as `exec_mem` builds one: `kind` 0–4 is a load, a
    /// store, a CAS, a device fence or a block fence; an access is on
    /// `line` of the global (`space` 0) or shared space.
    fn window_slot(kind: usize, space: u32, line: u32) -> Slot {
        let kind = [
            SlotKind::Load,
            SlotKind::Store,
            SlotKind::Cas,
            SlotKind::Fence,
            SlotKind::FenceBlock,
        ][kind];
        let fence = matches!(kind, SlotKind::Fence | SlotKind::FenceBlock);
        Slot {
            kind,
            store_class: kind != SlotKind::Load && !fence,
            space: if space == 0 || fence {
                Space::Global
            } else {
                Space::Shared
            },
            addr: line * 32,
            line: if fence { u32::MAX } else { line },
            ..Slot::default()
        }
    }

    /// A running thread as `Run::launch_block` starts one: registers
    /// from 0, nothing pending, an empty window.
    fn fresh_thread() -> ThreadCtx {
        ThreadCtx {
            group: 0,
            block: 0,
            warp: 0,
            pc: 0,
            state: TState::Running,
            regs_at: 0,
            tid: 0,
            bid: 0,
            icount: 0,
            last_is_store: false,
            last_channel: 0,
            last_icount: 0,
            has_last: false,
            stalled: false,
            stalled_reg: 0,
            busy: 0,
            win_len: 0,
            one_line: true,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random pushes and completions through the update code of
        /// `Machine::push` and `Machine::complete`: after every step the
        /// flag must equal its definition, and a set flag must leave no
        /// bypass candidate for the drain's skipped scan to find.
        #[test]
        fn one_line_flag_tracks_the_window(
            steps in proptest::collection::vec(
                (0u32..3, 0usize..5, 0u32..2, 0u32..3, 0usize..MAX_WINDOW),
                1..48,
            )
        ) {
            let mut th = fresh_thread();
            let mut win = [Slot::default(); MAX_WINDOW];
            let mut lane = Lane {
                th: &mut th,
                regs: &mut [],
                pending: &mut [],
                win: &mut win,
            };
            for (op, kind, space, line, j) in steps {
                let len = usize::from(lane.th.win_len);
                // Two pushes to one completion, so windows fill up; a
                // push into a full window first completes the head, as
                // `Machine::push` does.
                if op < 2 || len == 0 {
                    if len == MAX_WINDOW {
                        lane.remove(0);
                    }
                    lane.enter(window_slot(kind, space, line));
                } else {
                    lane.remove(j % len);
                }
                let win = lane.window();
                let head = win.first();
                let scratch = win.iter().all(|s| {
                    !matches!(s.kind, SlotKind::Fence | SlotKind::FenceBlock)
                        && head.is_some_and(|h| s.space == h.space && s.line == h.line)
                });
                proptest::prop_assert_eq!(lane.th.one_line, scratch, "{:?}", win);
                if lane.th.one_line {
                    for j in 1..win.len().min(4) {
                        proptest::prop_assert!(!can_bypass(win, j), "slot {} of {:?}", j, win);
                    }
                }
            }
        }

        /// Random issues, landings and register writes through the
        /// `Lane` code the executor uses, over registers on both sides of
        /// the busy mask's 64: after every step, bit `r < 64` of the mask
        /// must be set exactly when `r` has a pending id, and `need` on
        /// the step's operands must answer what a loop over the pending
        /// file answers, stalling on the same register. A landing picks
        /// any op still outstanding, so an op whose register a newer
        /// issue took over lands too.
        #[test]
        fn busy_mask_tracks_the_pending_file(
            steps in proptest::collection::vec(
                (0u32..3, 0u16..80, 0usize..64, proptest::collection::vec(0u16..80, 1..5)),
                1..96,
            )
        ) {
            const REGS: usize = 80;
            let mut th = fresh_thread();
            let (mut regs, mut pending) = ([0; REGS], [0; REGS]);
            let mut win = [Slot::default(); MAX_WINDOW];
            let mut lane = Lane {
                th: &mut th,
                regs: &mut regs,
                pending: &mut pending,
                win: &mut win,
            };
            let mut in_flight: Vec<(Reg, u32)> = Vec::new();
            let mut next_id = 1;
            for (op, r, k, operands) in steps {
                match op {
                    0 => {
                        lane.pend(r, next_id);
                        in_flight.push((r, next_id));
                        next_id += 1;
                    }
                    1 if !in_flight.is_empty() => {
                        let (r, id) = in_flight.remove(k % in_flight.len());
                        lane.land(r, id, id);
                    }
                    _ => lane.write(r, Word::from(r)),
                }
                for r in 0..64u16 {
                    proptest::prop_assert_eq!(
                        lane.th.busy >> r & 1 == 1,
                        lane.pending[usize::from(r)] != 0,
                        "register {}", r
                    );
                }
                let stall = operands.iter().copied().find(|&r| lane.pending[usize::from(r)] != 0);
                lane.th.stalled = false;
                lane.th.stalled_reg = Reg::MAX;
                proptest::prop_assert_eq!(lane.need(&operands).is_none(), stall.is_some());
                proptest::prop_assert_eq!(lane.th.stalled, stall.is_some());
                proptest::prop_assert_eq!(lane.th.stalled_reg, stall.unwrap_or(Reg::MAX));
            }
        }
    }

    /// A generator whose every draw is `x`.
    struct Draw(u64);

    impl rand::RngCore for Draw {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_drain_test_matches_the_float_one() {
        let mut qs: Vec<f64> = Chip::all().iter().map(|c| c.drain_q).collect();
        qs.extend([
            0.0,
            0.5,
            1.0,
            f64::from_bits(1.0f64.to_bits() - 1),
            1e-300,
            1.5,
            f64::NAN,
        ]);
        let mut rng = SmallRng::seed_from_u64(2016);
        for q in qs {
            let t = drain_threshold(q);
            // Draws whose top 53 bits sit at the threshold and beside it,
            // with all-zero and all-one low bits.
            let edges = [t.wrapping_sub(1), t, t.wrapping_add(1)]
                .into_iter()
                .filter(|&top| top < 1 << 53)
                .flat_map(|top| [top << 11, top << 11 | 0x7ff]);
            let random: Vec<u64> = (0..100_000).map(|_| rng.gen()).collect();
            for x in edges.chain(random) {
                assert_eq!(
                    x >> 11 < t,
                    Draw(x).gen::<f64>() < q,
                    "drain_q {q:e}, threshold {t}, draw {x:#018x}"
                );
            }
        }
    }

    /// Every thread stores twice to one line with a block fence between,
    /// `iters` times: once the first store completes, the second may
    /// pass the fence, which orders only shared-space operations.
    fn block_fenced_line_kernel(iters: u32) -> Program {
        let mut b = KernelBuilder::new("block-fenced-line");
        let g = b.global_tid();
        let two = b.const_(2);
        let at = b.mul(g, two);
        let one = b.const_(1);
        let next = b.add(at, one);
        let i = b.reg();
        b.assign_const(i, 0);
        let n = b.const_(iters);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                b.store_global(at, i);
                b.fence_block();
                b.store_global(next, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    #[test]
    fn edge_case_runs_are_pinned() {
        // Absolute results of launches at the executor's edges, recorded
        // on the lane-at-a-time executor: every later executor must
        // reproduce them exactly.
        let titan = Chip::by_short("Titan").unwrap();
        // Extreme global rates, so the second store does pass the fence.
        let mut titan_fenced = titan.clone();
        titan_fenced.reorder.base = [0.9; 4];
        let c2075 = Chip::by_short("C2075").unwrap();
        let mut timeout = LaunchSpec::app(endless_kernel(), 2, 64, 256);
        timeout.max_turns = 3_000;
        let mut odd_block = LaunchSpec::app(mixed_stress_kernel(16, 512), 1, 40, 1024);
        odd_block.groups.push(KernelGroup {
            program: Arc::new(mixed_stress_kernel(24, 512)),
            blocks: 12,
            threads_per_block: 64,
            role: Role::Stress,
        });
        odd_block.randomize_ids = true;
        let cases = [
            (
                "lane-31 fault amid register-only steps",
                titan.clone(),
                LaunchSpec::app(lane31_oob_kernel(), 1, 32, 128),
            ),
            (
                "barrier divergence",
                titan.clone(),
                LaunchSpec::app(diverging_kernel(), 2, 64, 256),
            ),
            ("timeout", titan.clone(), timeout),
            ("40-thread block, randomized, stressed", titan, odd_block),
            (
                "oversubscribed grid in waves",
                c2075,
                LaunchSpec::app(wave_kernel(6), 12, 64, 512),
            ),
            (
                "global stores passing a block fence",
                titan_fenced,
                LaunchSpec::app(block_fenced_line_kernel(12), 2, 64, 256),
            ),
        ];
        let quiet = ChannelCounts::default();
        let expected: [Pin; 6] = [
            (
                RunStatus::OutOfBounds(OobError {
                    addr: (1 << 20) + 31,
                    len: 128,
                }),
                351,
                176,
                176,
                quiet,
                0x7da1_44b9_7d05_4b25,
            ),
            (
                RunStatus::BarrierDivergence,
                961,
                128,
                128,
                quiet,
                0xb7f9_4a57_5505_fbe6,
            ),
            (
                RunStatus::TimedOut,
                20_839,
                3_000,
                3_000,
                quiet,
                0x9d81_e0d0_2f58_b551,
            ),
            (
                RunStatus::Completed,
                61_260,
                2_244,
                2_245,
                quiet,
                0x7226_1fc4_0905_0a9b,
            ),
            (
                RunStatus::Completed,
                50_688,
                14_194,
                14_210,
                ChannelCounts {
                    window_global: 12,
                    window_shared: 0,
                    l1_stale: 133,
                    fence_inval: 4_608,
                    atomic_read_through: 4_608,
                },
                0x078f_5c04_8ac4_4c04,
            ),
            (
                RunStatus::Completed,
                12_032,
                12_470,
                12_486,
                ChannelCounts {
                    window_global: 2_944,
                    ..quiet
                },
                0x3b82_6f2d_54cc_fb25,
            ),
        ];
        for (seed, ((what, chip, spec), want)) in cases.into_iter().zip(expected).enumerate() {
            let r = Gpu::new(chip).run(&spec, 40 + seed as u64);
            assert_eq!(pin(&r), want, "{what}");
        }
    }

    /// Every thread loads word `g % 32` of line 0 and stores to the same
    /// word of line 1, 64 words on, `iters` times: on the GTX 980 an
    /// `LdSt` pair inside its LB broadband band.
    fn lb_pair_kernel(iters: u32) -> Program {
        let mut b = KernelBuilder::new("lb-pair");
        let g = b.global_tid();
        let words = b.const_(32);
        let x = b.rem_u(g, words);
        let off = b.const_(64);
        let y = b.add(x, off);
        let i = b.reg();
        b.assign_const(i, 0);
        let n = b.const_(iters);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                b.load_global(x);
                b.store_global(y, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    #[test]
    fn lb_broadband_launch_is_pinned() {
        // The GTX 980's LB broadband quirk is the only reader of global
        // pressure, and no golden row depends on it: skipping global
        // pressure on every chip leaves all of them unchanged. Here it
        // decides every bypass. The pair's own channels see only loads or
        // only stores, so their χ is 0; the stress covers words 256–511,
        // lines 4–7 and so channels 4–7, and reaches the pair only
        // through global pressure. Without the quirk the same launch
        // makes no bypass. Recorded before global pressure was skipped on
        // chips without the quirk.
        let gtx980 = Chip::by_short("980").unwrap();
        let mut spec = LaunchSpec::app(lb_pair_kernel(24), 1, 64, 1024);
        spec.groups.push(KernelGroup {
            program: Arc::new(mixed_stress_kernel(48, 256)),
            blocks: 6,
            threads_per_block: 64,
            role: Role::Stress,
        });
        let mut plain = gtx980.clone();
        plain.lb_broadband = None;
        let quirk = Gpu::new(gtx980).run(&spec, 46);
        let want: Pin = (
            RunStatus::Completed,
            94_598,
            3_450,
            3_451,
            ChannelCounts {
                window_global: 159,
                ..ChannelCounts::default()
            },
            0xf53e_b230_f5df_4619,
        );
        assert_eq!(pin(&quirk), want);
        let plain = Gpu::new(plain).run(&spec, 46);
        assert_eq!(plain.channels.window_global, 0);
    }
}
