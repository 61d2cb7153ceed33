//! Cycle-accounted, signal-level model of a Leon3-like SPARC V8
//! microcontroller with injectable nets.
//!
//! This is the suite's stand-in for the paper's RTL Leon3 description: a
//! structural model in which **every architectural and micro-architectural
//! value flows through named nets** of an [`rtl_sim::NetPool`], so a
//! permanent fault injected on any net bit perturbs real execution of real
//! machine code — activation and propagation are emergent, not modelled.
//!
//! Like the paper's target, the model has two injection domains:
//!
//! * the **integer unit (IU)**: a 7-stage pipeline (fetch, decode, register
//!   access, execute, memory, exception, write-back) including the windowed
//!   register file, ALU adder/logic paths, barrel shifter, multiply/divide
//!   unit, branch unit and special registers;
//! * the **cache memory (CMEM)**: write-through, no-write-allocate,
//!   direct-mapped instruction and data caches (tag, valid and data arrays
//!   all made of nets) plus the bus controller.
//!
//! ## Modelling decisions (vs. the Gaisler VHDL)
//!
//! Instructions traverse all seven stages *sequentially*; pipeline overlap
//! is folded into per-instruction cycle accounting instead of being
//! simulated structurally. For the paper's **permanent** fault models this
//! is behaviour-preserving: the paper itself demonstrates (its Figure 5,
//! "temporal behaviour") that permanent-fault propagation is insensitive to
//! instruction timing/order, and the spatial routing of every value through
//! unit-specific nets — which *is* what determines propagation — is fully
//! modelled.
//!
//! Golden (fault-free) runs are bit-exact with the `sparc-iss` functional
//! emulator: both decode through [`sparc_isa`] and share its datapath
//! helpers, and a cross-crate lockstep test enforces equality of final
//! architectural state and off-core write streams.
//!
//! # Example
//!
//! ```
//! use leon3_model::{Leon3, Leon3Config};
//! use sparc_asm::assemble;
//! use sparc_iss::RunOutcome;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("_start: mov 21, %o0\n add %o0, %o0, %o0\n halt\n")?;
//! let mut cpu = Leon3::new(Leon3Config::default());
//! cpu.load(&program);
//! assert_eq!(cpu.run(100), RunOutcome::Halted { code: 42 });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod core;
mod execute;
pub mod graph;
mod nets;

pub use config::{cycles_to_us, Leon3Config, CLOCK_HZ};
pub use core::{Leon3, LoopMark, Snapshot};
pub use nets::NetMap;
