//! Signal-level RTL simulation substrate with bit-granular fault injection.
//!
//! The reproduced paper injects permanent faults into "VHDL signals, ports
//! and variables" of an RTL Leon3 description through simulator commands
//! (the MEFISTO technique). This crate provides the equivalent abstraction
//! for a Rust-native model:
//!
//! * a [`NetPool`] of named, multi-bit **nets**, each tagged with the
//!   functional unit it belongs to (the tag type is generic so this crate
//!   stays independent of any particular processor);
//! * a bit-granular **fault overlay** ([`Fault`], [`FaultKind`]): stuck-at-0,
//!   stuck-at-1 and open-line, becoming active at a configurable injection
//!   cycle and permanent from then on;
//! * net enumeration for building fault lists and for computing per-unit
//!   injectable-node counts (the paper's area proxy for its `α_m` weights).
//!
//! Open-line faults model a disconnected driver: the net *holds the value it
//! carried at the injection instant* (capacitive hold), which is why they
//! consistently propagate less than forced stuck-at values in the paper's
//! Figures 5 and 6.
//!
//! # Example
//!
//! ```
//! use rtl_sim::{Fault, FaultKind, NetPool};
//!
//! let mut pool: NetPool<&'static str> = NetPool::new();
//! let alu = pool.net("iu.ex.alu_result", 32, "alu");
//! pool.inject(Fault { net: alu, bit: 3, kind: FaultKind::StuckAt1, from_cycle: 0 });
//! pool.tick(); // activate faults for cycle 0
//! pool.write(alu, 0);
//! assert_eq!(pool.read(alu), 0b1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod graph;
mod net;
mod wave;

pub use fault::{Bridge, BridgeKind, Fault, FaultKind, FaultState};
pub use graph::{observed_edges, NetEvent, NetGraph};
pub use net::{NetId, NetMeta, NetPool, PoolCheckpoint, ShadowTable};
pub use wave::Waveform;
