//! Permanent-fault injection campaigns over the RTL model's nets.
//!
//! This crate implements the experimental methodology of the reproduced
//! paper (§4.1): single permanent hardware faults (stuck-at-1, stuck-at-0,
//! open-line) applied to all available points of the IU and CMEM units of
//! the Leon3-like model, with failures detected as **any mismatch of the
//! off-core memory-write stream** against the golden run — the
//! light-lockstep comparison boundary.
//!
//! * [`fault_sites`] enumerates the injectable universe (every bit of every
//!   net of the target domain) and [`sample_sites`] draws seeded, stratified
//!   samples from it (the paper used 25,478 CPU-hours for exhaustive
//!   campaigns; sampling makes the same study laptop-sized while exhaustive
//!   mode remains available).
//! * [`Campaign`] runs one workload against a fault list across all three
//!   fault models, multi-threaded, stopping each faulty run at its first
//!   observable divergence. [`Campaign::execute`] is its one entry point;
//!   its [`ExecOptions`] choose the injection instants, single or
//!   dual-point faults, a write-ahead journal, and a reused golden run
//!   ([`Campaign::try_run`] and [`Campaign::run`] are single-instant
//!   shorthands). The default [`Execution::Fork`] engine steps one
//!   golden run per worker with every job's faults armed as shadows, runs
//!   a job alone only while it differs from the golden run, and skips jobs
//!   whose nets the golden run never exercises after the injection
//!   instant; [`CampaignStats`] accounts for the cycles saved.
//!   [`Execution::FullReexecution`] re-runs every job from reset and
//!   produces bit-identical records.
//! * [`CampaignResult`] aggregates `Pf` (fraction of injected faults that
//!   become failures) and propagation-latency statistics per fault model.
//!
//! Campaigns are **crash-safe**: every job runs under panic isolation
//! (a panicking job retries once, then records as
//! [`FaultOutcome::EngineAnomaly`] instead of aborting the campaign), an
//! optional wall-clock watchdog ([`Campaign::with_deadline`]) bounds
//! runaway jobs, and [`JournalMode::Create`] / [`JournalMode::Resume`]
//! persist completed jobs to an append-only write-ahead [`journal`] so a
//! killed campaign picks up where it left off. Configuration mistakes
//! surface as structured [`CampaignError`]s from [`Campaign::execute`].
//!
//! Campaigns can additionally model the chip's **safety mechanisms**
//! ([`SafetyConfig`]): a windowed lockstep comparator, CMEM parity and a
//! simulated hardware watchdog. Every record then carries a [`Detection`]
//! verdict and classifies into an ISO 26262 bucket ([`IsoBucket`]:
//! safe / detected / residual / latent); [`CampaignResult::coverage`]
//! aggregates per-mechanism diagnostic coverage and the residual-fault
//! fraction. With all mechanisms disabled (the default) campaigns are
//! bit-identical to the pre-safety suite.
//!
//! # Example
//!
//! ```
//! use fault_inject::{fault_sites, sample_sites, Campaign, Target};
//! use rtl_sim::FaultKind;
//! use workloads::{Benchmark, Params};
//!
//! let program = Benchmark::Intbench.program(&Params::default());
//! let campaign = Campaign::new(program, Target::IntegerUnit)
//!     .with_sample(40, 0xed)
//!     .with_kinds(&[FaultKind::StuckAt1]);
//! let result = campaign.run(2);
//! let pf = result.pf(FaultKind::StuckAt1);
//! assert!((0.0..=1.0).contains(&pf));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bridging;
mod campaign;
mod correlation;
mod error;
mod explain;
mod iss_campaign;
pub mod journal;
mod result;
mod safety;
mod sites;
mod static_analysis;
pub mod wire;

pub use bridging::{bridge_pairs, bridge_pf, BridgeRecord, BridgingCampaign};
pub use campaign::{
    host_cycles, Campaign, ExecOptions, Execution, GoldenRun, InjectionInstant, JournalMode,
    PreparedWorkload, MAX_POOL_CHECKPOINTS,
};
pub use correlation::{
    fitted_model_from_obj, fitted_model_to_json, merge_correlation_shards, CellMeasurement,
    CorrelationCell, CorrelationReport, CorrelationShard, CorrelationSpec, DatasetSelection,
    DomainFit, PredictRequest, Prediction, SweepPoint,
};
pub use error::{CampaignError, JournalError};
pub use explain::{explain, explain_with_safety};
pub use iss_campaign::{arch_pf, ArchRecord, IssCampaign};
pub use result::{
    CampaignResult, CampaignStats, CoverageSummary, FaultOutcome, FaultRecord, ModelSummary,
};
pub use safety::{Detection, IsoBucket, Mechanism, SafetyConfig};
pub use sites::{
    fault_sites, sample_sites, targeted_sites, unit_bit_counts, AttackTarget, FaultSite, Target,
};
pub use static_analysis::{PrunedBy, StaticAnalysis, UnitObservability};
pub use wire::{merge_shards, ShardResult};
