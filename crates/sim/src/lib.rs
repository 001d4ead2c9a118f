//! # wmm-sim — a simulated GPU with a configurable weak memory model
//!
//! The substrate for reproducing *"Exposing Errors Related to Weak Memory
//! in GPU Applications"* (Sorensen & Donaldson, PLDI 2016). The paper
//! tests real CUDA applications on seven NVIDIA GPUs; this crate provides
//! the equivalent surface in software:
//!
//! * a CUDA-like kernel [IR](ir) with a structured
//!   [builder](ir::builder::KernelBuilder), a validator, a disassembler,
//!   and the [fence-insertion passes](ir::transform) the paper's fencing
//!   strategies are built from;
//! * a SIMT [execution engine](exec) — threads, warps, blocks, barriers,
//!   atomics, occupancy-limited wave scheduling — whose global memory
//!   operations complete out of order according to per-chip probabilities
//!   amplified by [channel contention](mem);
//! * the seven [chip profiles](chip) of the paper's Tab. 1, calibrated so
//!   that the black-box tuning pipeline in `wmm-core` rediscovers the
//!   paper's Tab. 2 parameters;
//! * a cost model (cycles and energy) for the fence-overhead study of
//!   Sec. 6.
//!
//! ## Quick start
//!
//! ```
//! use wmm_sim::chip::Chip;
//! use wmm_sim::exec::{Gpu, LaunchSpec};
//! use wmm_sim::ir::builder::KernelBuilder;
//!
//! // A kernel in which every thread increments a shared counter
//! // atomically.
//! let mut b = KernelBuilder::new("counter");
//! let addr = b.const_(0);
//! let one = b.const_(1);
//! let _ = b.atomic_add_global(addr, one);
//! let program = b.finish().expect("valid kernel");
//!
//! let mut gpu = Gpu::new(Chip::by_short("Titan").expect("known chip"));
//! let result = gpu.run(&LaunchSpec::app(program, 4, 32, 16), 7);
//! assert_eq!(result.word(0), 4 * 32);
//! ```

pub mod chip;
pub mod exec;
pub mod ir;
pub mod mem;
pub mod seq;
pub mod topology;
pub mod word;

pub use chip::{Arch, Chip, ReorderKind};
pub use exec::{Gpu, KernelGroup, LaunchSpec, Role, RunResult, RunStatus};
pub use ir::{builder::KernelBuilder, Program};
pub use topology::L1Params;
pub use word::Word;
