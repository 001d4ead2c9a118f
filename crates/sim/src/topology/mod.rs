//! Structural chip topology: SMs with private, incoherent L1 caches.
//!
//! The paper's headline observation is *structural*: GPUs are built
//! from streaming multiprocessors (SMs), each with a private L1 cache
//! that is **not coherent** with its peers — which is why even
//! read-read coherence (`CoRR`) is observably weak on the Tesla-class
//! chips of Tab. 1.
//!
//! A chip has [`SMS`](crate::chip::SMS) SMs, and every
//! launched block is deterministically assigned a **home SM**: its
//! launch index modulo the SM count (round-robin over the launch order,
//! wrapping past the last SM). This module holds the per-SM L1s:
//!
//! * [`L1Params`] — the per-chip knobs of the incoherent-L1 weakness
//!   channel: staleness rates, capacity, time-to-live, and the
//!   write-pressure coupling.
//! * [`L1System`] — the per-run runtime state: the stale-line store,
//!   per-SM invalidation epochs, and per-SM decaying write pressure.
//!
//! The weakness channel is entirely distinct from the in-flight-window
//! reorderings: a *completed* global store leaves the pre-write value
//! visible as a potentially stale line in every **other** SM's L1
//! (invalidation-on-own-write: the writing SM's own cache is updated),
//! and a later global load on a remote SM may hit that stale line with
//! a probability driven by cross-SM write pressure. A device fence
//! invalidates the issuing SM's entire stale view. Chips with all-zero
//! staleness rates never consult any of this state — the legacy
//! execution path, bit for bit.

mod l1;

pub use l1::{L1Params, L1System};
