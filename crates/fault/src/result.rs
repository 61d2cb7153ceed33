//! Campaign outcomes and aggregation.

use crate::safety::{Detection, IsoBucket, Mechanism};
use crate::sites::FaultSite;
use crate::static_analysis::PrunedBy;
use leon3_model::cycles_to_us;
use rtl_sim::FaultKind;
use sparc_isa::Unit;
use std::collections::BTreeMap;
use std::fmt;

/// How one faulty run ended, relative to the golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The run halted with an off-core write stream identical to the
    /// golden run's (and the same exit code): the fault did not manifest
    /// at the lockstep boundary.
    NoEffect,
    /// The write stream diverged — the lockstep comparators fire. This is
    /// the paper's *failure*.
    Failure {
        /// Index of the first diverging write.
        divergence: usize,
        /// Cycles from the injection instant to the divergence.
        latency_cycles: u64,
    },
    /// The run neither halted nor diverged within the budget; a watchdog
    /// catches this in a real system. Counted as a failure.
    Hang {
        /// Cycles from the injection instant to budget exhaustion (for a
        /// wall-clock timeout, to wherever the deadline interrupted the
        /// run — host-load dependent, like the timeout itself).
        latency_cycles: u64,
    },
    /// The core entered SPARC error mode (double trap) before diverging;
    /// the resulting silence is detected at the lockstep boundary.
    /// Counted as a failure.
    ErrorModeStop {
        /// Cycles from injection to the stop.
        latency_cycles: u64,
    },
    /// The *simulator* — not the simulated core — panicked while running
    /// this job, twice (once on the first attempt and again after one
    /// automatic retry from a fresh model restore). The job's verdict is
    /// unknown; the record preserves the panic payload so campaign-scale
    /// runs lose at most this one job instead of aborting. Excluded from
    /// `Pf` (it is evidence about the engine, not the fault).
    EngineAnomaly {
        /// The panic payload (message), when it was a string.
        payload: String,
    },
}

impl FaultOutcome {
    /// Whether the paper counts this outcome as a propagated failure.
    /// [`FaultOutcome::EngineAnomaly`] is neither a failure nor a
    /// no-effect: the engine crashed before reaching a verdict.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            FaultOutcome::Failure { .. }
                | FaultOutcome::Hang { .. }
                | FaultOutcome::ErrorModeStop { .. }
        )
    }

    /// Propagation latency in cycles — `Some` for every outcome except
    /// `NoEffect` (nothing propagated) and `EngineAnomaly` (no verdict).
    pub fn latency_cycles(&self) -> Option<u64> {
        match *self {
            FaultOutcome::Failure { latency_cycles, .. }
            | FaultOutcome::Hang { latency_cycles }
            | FaultOutcome::ErrorModeStop { latency_cycles } => Some(latency_cycles),
            FaultOutcome::NoEffect | FaultOutcome::EngineAnomaly { .. } => None,
        }
    }
}

/// One injection experiment's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Where the fault was injected.
    pub site: FaultSite,
    /// Which fault model.
    pub kind: FaultKind,
    /// What happened.
    pub outcome: FaultOutcome,
    /// Whether the golden run ever reads the injected net from the
    /// injection instant on — the site-activation notion that separates
    /// *latent* from *safe* no-effect faults.
    pub activated: bool,
    /// Whether a modelled safety mechanism caught the fault (always
    /// [`Detection::Undetected`] when no mechanism is configured).
    pub detection: Detection,
    /// `Some` when the static net-graph analyzer classified this job
    /// without a dedicated simulation run (see
    /// [`crate::StaticAnalysis`]); `None` for every simulated record.
    pub pruned_by: Option<PrunedBy>,
}

impl FaultRecord {
    /// The ISO 26262 class this record lands in, or `None` for an
    /// [`FaultOutcome::EngineAnomaly`] (no verdict, excluded — as from
    /// `Pf`). Detection takes precedence over the outcome: a detected
    /// fault is *detected* even if it never went on to diverge (e.g. a
    /// parity hit on a line the program never consumes), because the
    /// mechanism would have flagged it in the field either way.
    pub fn bucket(&self) -> Option<IsoBucket> {
        if matches!(self.outcome, FaultOutcome::EngineAnomaly { .. }) {
            return None;
        }
        if self.detection.is_detected() {
            return Some(IsoBucket::Detected);
        }
        if self.outcome.is_failure() {
            return Some(IsoBucket::Residual);
        }
        Some(if self.activated {
            IsoBucket::Safe
        } else {
            IsoBucket::Latent
        })
    }
}

/// Aggregate statistics for one fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSummary {
    /// Injections performed.
    pub injections: usize,
    /// Failures observed.
    pub failures: usize,
    /// Hangs among the failures.
    pub hangs: usize,
    /// Engine anomalies (worker panics) among the injections — excluded
    /// from both the failure count and the `Pf` denominator.
    pub anomalies: usize,
    /// Maximum propagation latency (µs at the model clock) over the
    /// failures that reached the lockstep boundary (divergences and
    /// error-mode stops), if any did. A hang's latency is where its budget
    /// or deadline ran out, not a propagation time, so hangs are left out.
    pub max_latency_us: Option<f64>,
    /// Mean propagation latency (µs) over the same failures.
    pub mean_latency_us: Option<f64>,
}

impl ModelSummary {
    /// `Pf`: the fraction of injected faults that became failures.
    /// Engine anomalies are removed from the denominator — their verdict
    /// is unknown, so counting them either way would bias the estimate.
    pub fn pf(&self) -> f64 {
        let valid = self.injections.saturating_sub(self.anomalies);
        if valid == 0 {
            0.0
        } else {
            self.failures as f64 / valid as f64
        }
    }

    /// Wilson score interval for `Pf` at the given confidence level —
    /// the sampling uncertainty a sub-exhaustive campaign carries.
    ///
    /// Returns `None` for zero injections or unsupported levels (supported:
    /// 0.90, 0.95, 0.99).
    pub fn pf_interval(&self, confidence: f64) -> Option<(f64, f64)> {
        analysis::wilson_interval(
            self.failures,
            self.injections.saturating_sub(self.anomalies),
            confidence,
        )
    }
}

/// Execution-cost accounting for one campaign run.
///
/// The classification in [`CampaignResult::records`] is independent of the
/// execution engine (fork-based and full-reexecution campaigns produce
/// bit-identical records); these counters expose what the
/// checkpoint-and-fork engine *saved*. All cycle figures count faulty-run
/// simulation work only — the golden reference run is common to both
/// engines and excluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Total (site, kind) jobs in the campaign.
    pub jobs: usize,
    /// Fork-engine jobs whose pool ancestor is the checkpoint at their own
    /// injection boundary (no gap to replay). The count is the same
    /// whether the job ran on its own from a sweep window or never left
    /// the golden-shadow sweep.
    pub forked: usize,
    /// Jobs simulated from cycle 0 (the full-reexecution engine).
    pub full_reexecutions: usize,
    /// Jobs classified `NoEffect` without any simulation because the
    /// golden run never reads the injected net from the injection instant
    /// on (the site-activation tracker).
    pub skipped_inactive: usize,
    /// Runs terminated at the first diverging write, before the faulty
    /// core reached its own halt or budget.
    pub short_circuited: usize,
    /// Jobs classified [`crate::FaultOutcome::Hang`] because they overran
    /// the per-job wall-clock deadline (see `Campaign::with_deadline`)
    /// rather than the architectural cycle budget.
    pub timed_out: usize,
    /// Jobs that panicked once and were re-run (successfully or not) from
    /// a fresh model restore.
    pub retried: usize,
    /// Jobs whose retry also panicked, recorded as
    /// [`crate::FaultOutcome::EngineAnomaly`].
    pub anomalies: usize,
    /// Jobs whose records were reconstituted from a write-ahead journal
    /// (a run with [`crate::JournalMode::Resume`]) instead of being
    /// simulated in this process.
    pub resumed: usize,
    /// Jobs restored from a strict-ancestor checkpoint (the nearest one at
    /// or before their injection boundary) that replayed the gap up to the
    /// boundary before activation.
    pub restored_from_checkpoint: usize,
    /// Fault-free gap cycles replayed between an ancestor checkpoint and
    /// the injection boundary, summed over
    /// [`CampaignStats::restored_from_checkpoint`] jobs. Also included in
    /// [`CampaignStats::cycles_simulated`] — the price of a sparse pool.
    pub replay_cycles: u64,
    /// Snapshots captured into the checkpoint pool while building it
    /// (once per campaign under the fork engine; zero under full
    /// re-execution).
    pub checkpoints_taken: usize,
    /// Approximate resident bytes of the whole checkpoint pool (resident
    /// memory pages, net-pool values and trace events across every
    /// snapshot) — the memory side of the stride's memory-vs-replay
    /// trade-off. Campaign-level like `checkpoints_taken`.
    pub checkpoint_bytes: u64,
    /// Cycles simulated to build the checkpoint pool — the deepest
    /// checkpoint's cycle, paid exactly once per campaign by the fork
    /// engine (zero under full re-execution).
    pub prefix_cycles: u64,
    /// The golden run's cycle count, for scale.
    pub golden_cycles: u64,
    /// Faulty-machine cycles, including the one-off prefix: each job
    /// counts the cycles from its pool ancestor (reset under full
    /// re-execution) to its end, whether they were stepped on its own
    /// model or on the shared golden-shadow sweep. Batch fault simulators
    /// count lane cycles the same way. Host-stepped cycles are fewer: a
    /// sweep steps the golden prefix once for all of its jobs.
    pub cycles_simulated: u64,
    /// Cycles a full-reexecution engine would have simulated on top of
    /// `cycles_simulated`: each forked job's pool ancestor cycle (the
    /// prefix a run from reset repeats), plus one whole golden-length run
    /// per activation-skipped or statically pruned job.
    pub cycles_avoided: u64,
    /// ISO 26262 *safe* faults: activated, no observable effect, nothing
    /// to detect.
    pub safe: usize,
    /// Faults caught by the windowed lockstep comparator.
    pub detected_lockstep: usize,
    /// Faults caught by cache parity.
    pub detected_parity: usize,
    /// Faults caught by the simulated-time watchdog.
    pub detected_watchdog: usize,
    /// The dangerous class: diverged, no mechanism noticed.
    pub residual: usize,
    /// Faults whose site the workload never exercised.
    pub latent: usize,
    /// Jobs classified by the static net-graph analyzer without a
    /// dedicated simulation run: provably-unobservable or transient-safe
    /// sites recorded as benign, plus equivalence-class members that
    /// copied their representative's outcome.
    pub statically_pruned: usize,
    /// Stuck-at equivalence classes that were collapsed to a single
    /// simulated representative (campaign-level, like
    /// [`CampaignStats::checkpoints_taken`]).
    pub collapsed_classes: usize,
}

impl CampaignStats {
    /// Fraction of jobs that ended by early divergence detection.
    pub fn short_circuit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.short_circuited as f64 / self.jobs as f64
        }
    }

    /// Accumulate another run's counters (used when merging shards).
    pub fn merge(&mut self, other: &CampaignStats) {
        self.jobs += other.jobs;
        self.forked += other.forked;
        self.full_reexecutions += other.full_reexecutions;
        self.skipped_inactive += other.skipped_inactive;
        self.short_circuited += other.short_circuited;
        self.timed_out += other.timed_out;
        self.retried += other.retried;
        self.anomalies += other.anomalies;
        self.resumed += other.resumed;
        self.restored_from_checkpoint += other.restored_from_checkpoint;
        self.replay_cycles += other.replay_cycles;
        self.checkpoints_taken += other.checkpoints_taken;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.prefix_cycles += other.prefix_cycles;
        self.golden_cycles = self.golden_cycles.max(other.golden_cycles);
        self.cycles_simulated += other.cycles_simulated;
        self.cycles_avoided += other.cycles_avoided;
        self.safe += other.safe;
        self.detected_lockstep += other.detected_lockstep;
        self.detected_parity += other.detected_parity;
        self.detected_watchdog += other.detected_watchdog;
        self.residual += other.residual;
        self.latent += other.latent;
        self.statically_pruned += other.statically_pruned;
        self.collapsed_classes += other.collapsed_classes;
    }

    /// Tally one record's ISO 26262 class into the counters. Used by the
    /// campaign worker, the journal replay and the shard merge — all three
    /// reconstruct identical counters because the class is a pure function
    /// of the record.
    pub fn count_bucket(&mut self, record: &FaultRecord) {
        match (record.bucket(), record.detection) {
            (Some(IsoBucket::Detected), Detection::Detected { mechanism, .. }) => match mechanism {
                Mechanism::Lockstep => self.detected_lockstep += 1,
                Mechanism::CmemParity => self.detected_parity += 1,
                Mechanism::Watchdog => self.detected_watchdog += 1,
            },
            (Some(IsoBucket::Safe), _) => self.safe += 1,
            (Some(IsoBucket::Residual), _) => self.residual += 1,
            (Some(IsoBucket::Latent), _) => self.latent += 1,
            _ => {} // EngineAnomaly: counted in `anomalies`, not classified.
        }
    }

    /// Faults caught by any mechanism.
    pub fn detected(&self) -> usize {
        self.detected_lockstep + self.detected_parity + self.detected_watchdog
    }

    /// Classified injections (everything except engine anomalies).
    pub fn classified(&self) -> usize {
        self.safe + self.detected() + self.residual + self.latent
    }

    /// Diagnostic coverage: detected / (detected + residual), over the
    /// faults that needed detecting. `None` when no such fault occurred.
    pub fn diagnostic_coverage(&self) -> Option<f64> {
        let dangerous = self.detected() + self.residual;
        (dangerous > 0).then(|| self.detected() as f64 / dangerous as f64)
    }

    /// One mechanism's detections.
    pub fn mechanism_detections(&self, mechanism: Mechanism) -> usize {
        match mechanism {
            Mechanism::Lockstep => self.detected_lockstep,
            Mechanism::CmemParity => self.detected_parity,
            Mechanism::Watchdog => self.detected_watchdog,
        }
    }

    /// The residual-fault fraction: residual / classified. `None` when
    /// nothing was classified.
    pub fn residual_fraction(&self) -> Option<f64> {
        let classified = self.classified();
        (classified > 0).then(|| self.residual as f64 / classified as f64)
    }
}

/// ISO 26262 classification of a slice of records (one fault kind, one
/// unit, or a whole campaign).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageSummary {
    /// Records in the slice.
    pub injections: usize,
    /// Activated, no effect, nothing to detect.
    pub safe: usize,
    /// Caught by the lockstep comparator.
    pub detected_lockstep: usize,
    /// Caught by cache parity.
    pub detected_parity: usize,
    /// Caught by the watchdog.
    pub detected_watchdog: usize,
    /// Diverged undetected.
    pub residual: usize,
    /// Never exercised.
    pub latent: usize,
    /// Engine anomalies, excluded from the classification.
    pub anomalies: usize,
    /// Summed detection latencies over all detected faults, for
    /// [`CoverageSummary::mean_detection_latency_cycles`].
    pub detection_latency_cycles_total: u64,
}

impl CoverageSummary {
    fn tally<'a>(records: impl Iterator<Item = &'a FaultRecord>) -> CoverageSummary {
        let mut s = CoverageSummary::default();
        for r in records {
            s.injections += 1;
            match (r.bucket(), r.detection) {
                (
                    Some(IsoBucket::Detected),
                    Detection::Detected {
                        mechanism,
                        latency_cycles,
                        ..
                    },
                ) => {
                    s.detection_latency_cycles_total += latency_cycles;
                    match mechanism {
                        Mechanism::Lockstep => s.detected_lockstep += 1,
                        Mechanism::CmemParity => s.detected_parity += 1,
                        Mechanism::Watchdog => s.detected_watchdog += 1,
                    }
                }
                (Some(IsoBucket::Safe), _) => s.safe += 1,
                (Some(IsoBucket::Residual), _) => s.residual += 1,
                (Some(IsoBucket::Latent), _) => s.latent += 1,
                _ => s.anomalies += 1,
            }
        }
        s
    }

    /// Faults caught by any mechanism.
    pub fn detected(&self) -> usize {
        self.detected_lockstep + self.detected_parity + self.detected_watchdog
    }

    /// One mechanism's detections.
    pub fn mechanism_detections(&self, mechanism: Mechanism) -> usize {
        match mechanism {
            Mechanism::Lockstep => self.detected_lockstep,
            Mechanism::CmemParity => self.detected_parity,
            Mechanism::Watchdog => self.detected_watchdog,
        }
    }

    /// Diagnostic coverage: detected / (detected + residual). `None` when
    /// no fault needed detecting.
    pub fn diagnostic_coverage(&self) -> Option<f64> {
        let dangerous = self.detected() + self.residual;
        (dangerous > 0).then(|| self.detected() as f64 / dangerous as f64)
    }

    /// One mechanism's share of the dangerous faults.
    pub fn mechanism_coverage(&self, mechanism: Mechanism) -> Option<f64> {
        let dangerous = self.detected() + self.residual;
        (dangerous > 0).then(|| self.mechanism_detections(mechanism) as f64 / dangerous as f64)
    }

    /// The residual-fault fraction: residual / classified. `None` when
    /// nothing was classified.
    pub fn residual_fraction(&self) -> Option<f64> {
        let classified = self.injections - self.anomalies;
        (classified > 0).then(|| self.residual as f64 / classified as f64)
    }

    /// Mean fault-detection latency in cycles (the fault-handling
    /// time-interval budget of ISO 26262's FTTI decomposition). `None`
    /// when nothing was detected.
    pub fn mean_detection_latency_cycles(&self) -> Option<f64> {
        let detected = self.detected();
        (detected > 0).then(|| self.detection_latency_cycles_total as f64 / detected as f64)
    }
}

/// The full result of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    records: Vec<FaultRecord>,
    stats: CampaignStats,
}

impl CampaignResult {
    #[cfg(test)]
    pub(crate) fn new(records: Vec<FaultRecord>) -> CampaignResult {
        CampaignResult {
            records,
            stats: CampaignStats::default(),
        }
    }

    /// Assemble a result from records plus cost accounting. Public for
    /// the service layer: the fleet coordinator rebuilds an accepted
    /// shard result with its `resumed` counter normalized to zero (the
    /// recovery count is operational truth about the *fleet*, surfaced
    /// in `/stats`, not about the campaign — a recovered shard must stay
    /// bit-identical to a never-interrupted one).
    pub fn with_stats(records: Vec<FaultRecord>, stats: CampaignStats) -> CampaignResult {
        CampaignResult { records, stats }
    }

    /// All records.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Execution-cost accounting for this run (how much work the engine
    /// actually did, and what the fork/short-circuit machinery saved).
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// Records for one fault model.
    pub fn records_for(&self, kind: FaultKind) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Aggregate statistics for one fault model.
    pub fn summary(&self, kind: FaultKind) -> ModelSummary {
        let records: Vec<&FaultRecord> = self.records_for(kind).collect();
        let failures = records.iter().filter(|r| r.outcome.is_failure()).count();
        let hangs = records
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::Hang { .. }))
            .count();
        let anomalies = records
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::EngineAnomaly { .. }))
            .count();
        let latencies = propagation_latencies_us(records.iter().copied());
        ModelSummary {
            injections: records.len(),
            failures,
            hangs,
            anomalies,
            max_latency_us: latencies
                .iter()
                .copied()
                .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v)))),
            mean_latency_us: if latencies.is_empty() {
                None
            } else {
                Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
            },
        }
    }

    /// `Pf` for one fault model.
    pub fn pf(&self, kind: FaultKind) -> f64 {
        self.summary(kind).pf()
    }

    /// Per-unit `Pf` for one fault model (the `P_f^m` of the paper's
    /// Eq. 1).
    pub fn pf_per_unit(&self, kind: FaultKind) -> BTreeMap<Unit, f64> {
        let mut per_unit: BTreeMap<Unit, (usize, usize)> = BTreeMap::new();
        for r in self.records_for(kind) {
            let entry = per_unit.entry(r.site.unit).or_insert((0, 0));
            entry.0 += 1;
            if r.outcome.is_failure() {
                entry.1 += 1;
            }
        }
        per_unit
            .into_iter()
            .map(|(unit, (n, f))| (unit, if n == 0 { 0.0 } else { f as f64 / n as f64 }))
            .collect()
    }

    /// Merge two campaign results (e.g. per-dataset shards). Records are
    /// concatenated and cost counters accumulated.
    pub fn merge(&mut self, other: CampaignResult) {
        self.records.extend(other.records);
        self.stats.merge(&other.stats);
    }

    /// ISO 26262 classification for one fault model.
    pub fn coverage(&self, kind: FaultKind) -> CoverageSummary {
        CoverageSummary::tally(self.records_for(kind))
    }

    /// ISO 26262 classification over every record.
    pub fn coverage_all(&self) -> CoverageSummary {
        CoverageSummary::tally(self.records.iter())
    }

    /// Per-unit ISO 26262 classification for one fault model.
    pub fn coverage_per_unit(&self, kind: FaultKind) -> BTreeMap<Unit, CoverageSummary> {
        let mut per_unit: BTreeMap<Unit, Vec<&FaultRecord>> = BTreeMap::new();
        for r in self.records_for(kind) {
            per_unit.entry(r.site.unit).or_default().push(r);
        }
        per_unit
            .into_iter()
            .map(|(unit, records)| (unit, CoverageSummary::tally(records.into_iter())))
            .collect()
    }

    /// Human-readable diagnostic-coverage report (per fault kind, with
    /// per-mechanism attribution and the ISO 26262 coverage grade).
    pub fn coverage_report(&self) -> String {
        let mut out = String::new();
        for kind in FaultKind::ALL {
            let c = self.coverage(kind);
            if c.injections == 0 {
                continue;
            }
            out.push_str(&format!(
                "{kind}: safe={} detected={} residual={} latent={}",
                c.safe,
                c.detected(),
                c.residual,
                c.latent
            ));
            if c.anomalies > 0 {
                out.push_str(&format!(" anomalies={}", c.anomalies));
            }
            out.push('\n');
            if let Some(dc) = c.diagnostic_coverage() {
                out.push_str(&format!(
                    "{kind}: diagnostic coverage {:.1}% ({})",
                    dc * 100.0,
                    analysis::dc_grade(dc)
                ));
                if let Some(rf) = c.residual_fraction() {
                    out.push_str(&format!(", residual fraction {:.1}%", rf * 100.0));
                }
                out.push('\n');
                if let Some(lat) = c.mean_detection_latency_cycles() {
                    out.push_str(&format!(
                        "{kind}: mean detection latency {lat:.0} cycles ({:.2} µs)\n",
                        cycles_to_us(lat as u64)
                    ));
                }
                for mechanism in Mechanism::ALL {
                    let n = c.mechanism_detections(mechanism);
                    if n > 0 {
                        out.push_str(&format!(
                            "{kind}:   {mechanism} caught {n} ({:.1}%)\n",
                            c.mechanism_coverage(mechanism).unwrap_or(0.0) * 100.0
                        ));
                    }
                }
            }
        }
        out
    }

    /// Histogram of propagation latencies (µs) for one fault model, over
    /// the same failures as [`ModelSummary::max_latency_us`], or `None`
    /// when fewer than two distinct latencies were observed.
    pub fn latency_histogram(
        &self,
        kind: FaultKind,
        buckets: usize,
    ) -> Option<analysis::Histogram> {
        analysis::Histogram::auto(&propagation_latencies_us(self.records_for(kind)), buckets)
    }

    /// Outcome counts per category for one fault model:
    /// `(no_effect, divergences, hangs, error_mode_stops, anomalies)`.
    pub fn outcome_breakdown(&self, kind: FaultKind) -> (usize, usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0, 0);
        for r in self.records_for(kind) {
            match r.outcome {
                FaultOutcome::NoEffect => counts.0 += 1,
                FaultOutcome::Failure { .. } => counts.1 += 1,
                FaultOutcome::Hang { .. } => counts.2 += 1,
                FaultOutcome::ErrorModeStop { .. } => counts.3 += 1,
                FaultOutcome::EngineAnomaly { .. } => counts.4 += 1,
            }
        }
        counts
    }

    /// Export every record as CSV (`unit,net,bit,model,outcome,divergence,
    /// latency_cycles,bucket,detected_by,detection_latency_cycles,
    /// pruned_by`) for external analysis tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "unit,net,bit,model,outcome,divergence,latency_cycles,\
             bucket,detected_by,detection_latency_cycles,pruned_by\n",
        );
        for r in &self.records {
            let (outcome, divergence) = match &r.outcome {
                FaultOutcome::NoEffect => ("no_effect", String::new()),
                FaultOutcome::Failure { divergence, .. } => ("failure", divergence.to_string()),
                FaultOutcome::Hang { .. } => ("hang", String::new()),
                FaultOutcome::ErrorModeStop { .. } => ("error_mode", String::new()),
                FaultOutcome::EngineAnomaly { .. } => ("engine_anomaly", String::new()),
            };
            let latency = r
                .outcome
                .latency_cycles()
                .map(|l| l.to_string())
                .unwrap_or_default();
            let bucket = r.bucket().map_or("", IsoBucket::name);
            let (detected_by, det_latency) = match r.detection {
                Detection::Detected {
                    mechanism,
                    latency_cycles,
                    ..
                } => (mechanism.name(), latency_cycles.to_string()),
                Detection::Undetected => ("", String::new()),
            };
            let pruned_by = r.pruned_by.map_or("", PrunedBy::name);
            out.push_str(&format!(
                "{},{},{},{},{outcome},{divergence},{latency},{bucket},{detected_by},{det_latency},{pruned_by}\n",
                r.site.unit,
                r.site.net.raw(),
                r.site.bit,
                r.kind.name().replace(' ', "-"),
            ));
        }
        out
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in FaultKind::ALL {
            let s = self.summary(kind);
            if s.injections > 0 {
                match s.pf_interval(0.95) {
                    Some((lo, hi)) => writeln!(
                        f,
                        "{kind}: {}/{} failures (Pf = {:.1}%, 95% CI [{:.1}%, {:.1}%])",
                        s.failures,
                        s.injections,
                        s.pf() * 100.0,
                        lo * 100.0,
                        hi * 100.0
                    )?,
                    None => writeln!(
                        f,
                        "{kind}: {}/{} failures (Pf = {:.1}%)",
                        s.failures,
                        s.injections,
                        s.pf() * 100.0
                    )?,
                }
                if s.anomalies > 0 {
                    writeln!(
                        f,
                        "{kind}: {} engine anomalies excluded from Pf",
                        s.anomalies
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Latencies (µs) of the failures among `records` that reached the
/// lockstep boundary: divergences and error-mode stops, not hangs.
fn propagation_latencies_us<'a>(records: impl Iterator<Item = &'a FaultRecord>) -> Vec<f64> {
    records
        .filter(|r| !matches!(r.outcome, FaultOutcome::Hang { .. }))
        .filter_map(|r| r.outcome.latency_cycles())
        .map(cycles_to_us)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_sim::NetId;

    fn record(kind: FaultKind, outcome: FaultOutcome) -> FaultRecord {
        FaultRecord {
            site: FaultSite {
                net: NetId::from_raw(0),
                bit: 0,
                unit: Unit::Fetch,
            },
            kind,
            outcome,
            activated: true,
            detection: Detection::Undetected,
            pruned_by: None,
        }
    }

    #[test]
    fn pf_counts_all_failure_kinds() {
        let result = CampaignResult::new(vec![
            record(FaultKind::StuckAt1, FaultOutcome::NoEffect),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Failure {
                    divergence: 0,
                    latency_cycles: 80,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Hang {
                    latency_cycles: 120,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::ErrorModeStop {
                    latency_cycles: 160,
                },
            ),
        ]);
        let s = result.summary(FaultKind::StuckAt1);
        assert_eq!(s.injections, 4);
        assert_eq!(s.failures, 3);
        assert_eq!(s.hangs, 1);
        assert!((s.pf() - 0.75).abs() < 1e-12);
        // 160 cycles at 80 MHz = 2 µs; the latencies are those of the
        // divergence and the error-mode stop, {80, 160}, mean 1.5 µs.
        assert!((s.max_latency_us.unwrap() - 2.0).abs() < 1e-9);
        assert!((s.mean_latency_us.unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn hangs_do_not_set_the_propagation_latency() {
        // The hang's latency is where its budget ran out, far beyond any
        // propagation; it still counts as a failure but not as a latency.
        let result = CampaignResult::new(vec![
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Failure {
                    divergence: 0,
                    latency_cycles: 80,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::ErrorModeStop {
                    latency_cycles: 160,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Hang {
                    latency_cycles: 80_000,
                },
            ),
        ]);
        let s = result.summary(FaultKind::StuckAt1);
        assert_eq!((s.failures, s.hangs), (3, 1));
        assert!((s.max_latency_us.unwrap() - 2.0).abs() < 1e-9);
        assert!((s.mean_latency_us.unwrap() - 1.5).abs() < 1e-9);
        let h = result.latency_histogram(FaultKind::StuckAt1, 4).unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn summaries_are_per_model() {
        let result = CampaignResult::new(vec![
            record(FaultKind::StuckAt0, FaultOutcome::NoEffect),
            record(
                FaultKind::OpenLine,
                FaultOutcome::Hang { latency_cycles: 9 },
            ),
        ]);
        assert_eq!(result.summary(FaultKind::StuckAt0).failures, 0);
        assert_eq!(result.summary(FaultKind::OpenLine).failures, 1);
        assert_eq!(result.summary(FaultKind::StuckAt1).injections, 0);
        assert_eq!(result.pf(FaultKind::StuckAt1), 0.0);
    }

    #[test]
    fn pf_interval_shrinks_with_sample_size() {
        let small = ModelSummary {
            injections: 20,
            failures: 5,
            hangs: 0,
            anomalies: 0,
            max_latency_us: None,
            mean_latency_us: None,
        };
        let large = ModelSummary {
            injections: 2000,
            failures: 500,
            ..small
        };
        let (lo_s, hi_s) = small.pf_interval(0.95).unwrap();
        let (lo_l, hi_l) = large.pf_interval(0.95).unwrap();
        assert!(hi_l - lo_l < hi_s - lo_s);
        assert!(lo_s <= 0.25 && 0.25 <= hi_s);
    }

    #[test]
    fn anomalies_do_not_bias_pf() {
        // One failure, one no-effect, one anomaly: Pf must be computed
        // over the two *valid* injections only.
        let result = CampaignResult::new(vec![
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Failure {
                    divergence: 0,
                    latency_cycles: 80,
                },
            ),
            record(FaultKind::StuckAt1, FaultOutcome::NoEffect),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::EngineAnomaly {
                    payload: "worker panicked".to_string(),
                },
            ),
        ]);
        let s = result.summary(FaultKind::StuckAt1);
        assert_eq!(s.injections, 3);
        assert_eq!(s.failures, 1);
        assert_eq!(s.anomalies, 1);
        assert!((s.pf() - 0.5).abs() < 1e-12);
        assert!(!FaultOutcome::EngineAnomaly {
            payload: String::new()
        }
        .is_failure());
        assert_eq!(
            result.outcome_breakdown(FaultKind::StuckAt1),
            (1, 1, 0, 0, 1)
        );
        assert!(result.to_csv().contains("engine_anomaly"));
        assert!(result.to_string().contains("1 engine anomalies"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CampaignResult::new(vec![record(
            FaultKind::StuckAt1,
            FaultOutcome::Hang { latency_cycles: 1 },
        )]);
        let b = CampaignResult::new(vec![record(FaultKind::StuckAt1, FaultOutcome::NoEffect)]);
        a.merge(b);
        assert_eq!(a.summary(FaultKind::StuckAt1).injections, 2);
    }

    #[test]
    fn latency_histogram_buckets_failures() {
        let records: Vec<FaultRecord> = (1..=20)
            .map(|i| {
                record(
                    FaultKind::StuckAt1,
                    FaultOutcome::Failure {
                        divergence: 0,
                        latency_cycles: i * 80,
                    },
                )
            })
            .collect();
        let result = CampaignResult::new(records);
        let h = result.latency_histogram(FaultKind::StuckAt1, 5).unwrap();
        assert_eq!(h.count(), 20);
        assert!(result.latency_histogram(FaultKind::OpenLine, 5).is_none());
    }

    #[test]
    fn outcome_breakdown_and_csv() {
        let result = CampaignResult::new(vec![
            record(FaultKind::StuckAt1, FaultOutcome::NoEffect),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Failure {
                    divergence: 3,
                    latency_cycles: 80,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Hang {
                    latency_cycles: 120,
                },
            ),
            record(
                FaultKind::StuckAt1,
                FaultOutcome::ErrorModeStop {
                    latency_cycles: 160,
                },
            ),
        ]);
        assert_eq!(
            result.outcome_breakdown(FaultKind::StuckAt1),
            (1, 1, 1, 1, 0)
        );
        assert_eq!(
            result.outcome_breakdown(FaultKind::OpenLine),
            (0, 0, 0, 0, 0)
        );
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 5, "{csv}");
        assert!(csv.starts_with("unit,net,bit,model,outcome"));
        assert!(
            csv.contains("fetch,0,0,stuck-at-1,failure,3,80,residual,,"),
            "{csv}"
        );
        assert!(
            csv.contains("fetch,0,0,stuck-at-1,hang,,120,residual,,"),
            "{csv}"
        );
        assert!(csv.contains("error_mode,,160,residual,,"), "{csv}");
        assert!(csv.contains("no_effect,,,safe,,"), "{csv}");
    }

    #[test]
    fn buckets_partition_the_outcomes() {
        let mut detected = record(
            FaultKind::StuckAt1,
            FaultOutcome::Failure {
                divergence: 4,
                latency_cycles: 80,
            },
        );
        detected.detection = Detection::Detected {
            mechanism: Mechanism::Lockstep,
            latency_cycles: 40,
            latency_writes: 2,
        };
        let mut latent = record(FaultKind::StuckAt1, FaultOutcome::NoEffect);
        latent.activated = false;
        let records = vec![
            detected,
            latent,
            record(FaultKind::StuckAt1, FaultOutcome::NoEffect), // safe
            record(
                FaultKind::StuckAt1,
                FaultOutcome::Hang { latency_cycles: 10 },
            ), // residual
            record(
                FaultKind::StuckAt1,
                FaultOutcome::EngineAnomaly {
                    payload: String::new(),
                },
            ),
        ];
        assert_eq!(records[0].bucket(), Some(IsoBucket::Detected));
        assert_eq!(records[1].bucket(), Some(IsoBucket::Latent));
        assert_eq!(records[2].bucket(), Some(IsoBucket::Safe));
        assert_eq!(records[3].bucket(), Some(IsoBucket::Residual));
        assert_eq!(records[4].bucket(), None);

        let mut stats = CampaignStats::default();
        for r in &records {
            stats.count_bucket(r);
        }
        assert_eq!(stats.detected_lockstep, 1);
        assert_eq!(stats.safe, 1);
        assert_eq!(stats.residual, 1);
        assert_eq!(stats.latent, 1);
        assert_eq!(stats.classified(), 4, "anomaly stays unclassified");
        assert!((stats.diagnostic_coverage().unwrap() - 0.5).abs() < 1e-12);
        assert!((stats.residual_fraction().unwrap() - 0.25).abs() < 1e-12);

        let result = CampaignResult::new(records);
        let c = result.coverage(FaultKind::StuckAt1);
        assert_eq!(c.injections, 5);
        assert_eq!(c.detected(), 1);
        assert_eq!(c.mechanism_detections(Mechanism::Lockstep), 1);
        assert_eq!(c.anomalies, 1);
        assert_eq!(
            c.safe + c.detected() + c.residual + c.latent + c.anomalies,
            c.injections,
            "every injection lands in exactly one bucket"
        );
        assert!((c.diagnostic_coverage().unwrap() - 0.5).abs() < 1e-12);
        assert!((c.mechanism_coverage(Mechanism::Lockstep).unwrap() - 0.5).abs() < 1e-12);
        assert!(c.mechanism_coverage(Mechanism::Watchdog).unwrap() == 0.0);
        let report = result.coverage_report();
        assert!(report.contains("diagnostic coverage 50.0%"), "{report}");
        assert!(report.contains("lockstep caught 1"), "{report}");
        assert!(report.contains("residual fraction 25.0%"), "{report}");
    }

    #[test]
    fn detection_beats_the_raw_outcome() {
        // A parity hit on a line the program never consumes: NoEffect
        // outcome, but the mechanism still flagged it -> Detected.
        let mut r = record(FaultKind::StuckAt1, FaultOutcome::NoEffect);
        r.detection = Detection::Detected {
            mechanism: Mechanism::CmemParity,
            latency_cycles: 12,
            latency_writes: 0,
        };
        assert_eq!(r.bucket(), Some(IsoBucket::Detected));
        let csv = CampaignResult::new(vec![r]).to_csv();
        assert!(csv.contains("no_effect,,,detected,cmem-parity,12"), "{csv}");
    }

    #[test]
    fn display_lists_models() {
        let result = CampaignResult::new(vec![record(
            FaultKind::StuckAt1,
            FaultOutcome::Failure {
                divergence: 0,
                latency_cycles: 1,
            },
        )]);
        let text = result.to_string();
        assert!(text.contains("stuck-at-1"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("95% CI"), "{text}");
    }
}
