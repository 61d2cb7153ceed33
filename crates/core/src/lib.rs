//! RTL/ISS fault-injection correlation — the primary contribution of
//! *Espinosa et al., DAC 2015*.
//!
//! The paper's claim: for **permanent** fault models, the probability `Pf`
//! that a fault injected in the RTL propagates to the off-core boundary is
//! a function of the *set* of instructions the workload executes — not
//! their order, count or input data — and is well captured by **instruction
//! diversity** `D` (unique opcodes) through `Pf = a·ln(D) + b`.
//!
//! This crate assembles the paper's evaluation around that claim:
//!
//! * [`area_weights`] computes the `α_m` unit weights of the paper's Eq. 1
//!   from the RTL model's injectable-node populations, and [`weighted_pf`]
//!   combines per-unit `Pf_m` with them;
//! * [`experiments`] re-runs every table and figure of the paper's
//!   evaluation section — Fig. 7 as one `fault_inject::CorrelationSpec`
//!   sweep, whose ISS side is `fault_inject::CorrelationCell::measure`
//!   (`D` and `D_m`) and whose fit is [`analysis::FittedModel`];
//! * [`extensions`] goes beyond it: time-varying faults, bridging,
//!   dual-point faults, the register-file ISS baseline and the Eq. 1
//!   ablation.
//!
//! # Example
//!
//! ```
//! use analysis::{CorrelationPoint, FittedModel};
//!
//! // Calibration points: (diversity, measured Pf).
//! let points = [(8.0, 0.12), (11.0, 0.18), (18.0, 0.22), (47.0, 0.30)]
//!     .map(|(diversity, pf)| CorrelationPoint { label: String::new(), diversity, pf });
//! let model = FittedModel::fit(&points).unwrap();
//! assert!(model.r2 > 0.9);
//! let predicted = model.predict(30.0);
//! assert!(predicted > 0.22 && predicted < 0.30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod extensions;
mod model;

pub use model::{area_weights, weighted_pf};
