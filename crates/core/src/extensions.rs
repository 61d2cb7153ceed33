//! Extension experiments beyond the paper's evaluation:
//!
//! 1. [`inject_study`] — the paper's declared *future work*: transient
//!    bit-flips (and the other time-varying models), showing that (unlike
//!    permanent faults) their propagation probability depends strongly on
//!    the injection instant — which is exactly why the paper could drop
//!    `time` from `Pf = f(Is, inputs, time)` only for permanent models.
//! 2. [`iss_baseline`] — the "typical ISS-based fault injection" of the
//!    paper's introduction (register-file injection) compared against RTL
//!    injection, quantifying why it "cannot be used to estimate failure
//!    rate metrics".
//! 3. [`eq1_ablation`] — the paper's Eq. 1 (`Pf = Σ α_m · Pf_m`) evaluated
//!    as a predictor against the single global-diversity model.

use crate::experiments::{ExperimentConfig, FigCampaign, INJECTION_FRACTION};
use crate::model::{area_weights, weighted_pf};
use analysis::{pearson, CorrelationPoint, FittedModel};
use fault_inject::wire::kind_to_token;
use fault_inject::{
    arch_pf, bridge_pf, AttackTarget, BridgingCampaign, Campaign, CellMeasurement, CorrelationCell,
    ExecOptions, InjectionInstant, IssCampaign, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::BridgeKind;
use rtl_sim::FaultKind;
use sparc_isa::Unit;
use std::collections::BTreeMap;
use std::fmt;
use workloads::{Benchmark, Params};

// --------------------------------------------------------------- Injection

/// Pf of an arbitrary (possibly time-varying, possibly targeted) fault
/// model across injection instants, against the permanent stuck-at-1
/// reference — the generalization behind `repro inject`.
#[derive(Debug, Clone)]
pub struct InjectStudy {
    /// The fault model under study.
    pub kind: FaultKind,
    /// Attack-surface classes restricting the site universe (empty:
    /// full domain enumeration).
    pub targets: Vec<AttackTarget>,
    /// Fault sites the sweep injected per instant per kind.
    pub sites: usize,
    /// Injection instants as fractions of the golden run.
    pub fractions: Vec<f64>,
    /// Pf of the stuck-at-1 reference at each instant.
    pub reference_pf: Vec<f64>,
    /// Pf of the studied kind at each instant.
    pub kind_pf: Vec<f64>,
    /// Jobs that fell back to full re-execution across the whole sweep —
    /// zero by construction on the checkpoint-tree engine.
    pub full_reexecutions: usize,
    /// Checkpoints the sweep's pool held.
    pub checkpoints_taken: usize,
}

/// Spread (max − min) of a Pf series in percentage points.
fn spread_pp(series: &[f64]) -> f64 {
    let max = series.iter().copied().fold(0.0, f64::max);
    let min = series.iter().copied().fold(1.0, f64::min);
    (max - min) * 100.0
}

impl InjectStudy {
    /// Spread (max − min) of the studied kind's Pf series in percentage
    /// points — the instant-dependence the permanent reference lacks.
    pub fn kind_spread_pp(&self) -> f64 {
        spread_pp(&self.kind_pf)
    }
}

/// Run the generalized injection study on `rspeed`: the same fault list
/// injected at a dense grid of instants, once with the stuck-at-1
/// reference and once with `kind`. A non-empty `targets` list restricts
/// the universe to the named attack-surface nets (branch condition,
/// status register, program counter), the InjectV-style campaign shape.
///
/// All instants run as **one** multi-instant campaign sharing a single
/// golden run and one checkpoint pool, so the sweep completes with zero
/// full re-executions. Records are engine-independent, so each series is
/// identical to one dedicated campaign per instant.
///
/// # Panics
///
/// Panics if `kind` carries invalid parameters (the CLI validates them
/// first and exits 2 instead).
pub fn inject_study(
    config: &ExperimentConfig,
    kind: FaultKind,
    targets: &[AttackTarget],
) -> InjectStudy {
    let fractions: Vec<f64> = (1..=9).map(|i| f64::from(i) / 10.0).collect();
    let program = Benchmark::Rspeed.program(&Params::default());
    let instants: Vec<InjectionInstant> = fractions
        .iter()
        .map(|&f| InjectionInstant::Fraction(f))
        .collect();
    let kinds = if kind == FaultKind::StuckAt1 {
        vec![FaultKind::StuckAt1]
    } else {
        vec![FaultKind::StuckAt1, kind]
    };
    let mut campaign = Campaign::new(program, Target::IntegerUnit)
        .with_kinds(&kinds)
        .with_sample(config.sample_per_campaign, config.seed);
    if !targets.is_empty() {
        campaign = campaign.with_attack_targets(targets);
    }
    let sites = campaign.sites().len();
    let results = campaign
        .execute(
            config.threads,
            &ExecOptions {
                instants: Some(&instants),
                ..ExecOptions::default()
            },
        )
        .expect("the injection study's configuration is statically valid");
    InjectStudy {
        kind,
        targets: targets.to_vec(),
        sites,
        reference_pf: results.iter().map(|r| r.pf(FaultKind::StuckAt1)).collect(),
        kind_pf: results.iter().map(|r| r.pf(kind)).collect(),
        fractions,
        full_reexecutions: results.iter().map(|r| r.stats().full_reexecutions).sum(),
        checkpoints_taken: results.iter().map(|r| r.stats().checkpoints_taken).sum(),
    }
}

impl fmt::Display for InjectStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Injection study: {} vs stuck-at-1 across injection instants ==",
            kind_to_token(self.kind)
        )?;
        if self.targets.is_empty() {
            writeln!(
                f,
                "sites: {} (full integer-unit enumeration + sample)",
                self.sites
            )?;
        } else {
            let list: Vec<&str> = self.targets.iter().map(|t| t.token()).collect();
            writeln!(f, "sites: {} (targeted: {})", self.sites, list.join(","))?;
        }
        writeln!(
            f,
            "{:>10} {:>12} {:>12}",
            "instant",
            "stuck-at-1",
            self.kind.name()
        )?;
        for (i, fraction) in self.fractions.iter().enumerate() {
            writeln!(
                f,
                "{:>9.0}% {:>11.2}% {:>11.2}%",
                fraction * 100.0,
                self.reference_pf[i] * 100.0,
                self.kind_pf[i] * 100.0
            )?;
        }
        writeln!(
            f,
            "spread: stuck-at-1 {:.2} pp, {} {:.2} pp",
            spread_pp(&self.reference_pf),
            self.kind.name(),
            self.kind_spread_pp()
        )?;
        writeln!(
            f,
            "engine: {} pool checkpoints, {} full re-executions",
            self.checkpoints_taken, self.full_reexecutions
        )
    }
}

// ---------------------------------------------------------------- Bridging

/// Pf of bridging (short-circuit) faults vs the single stuck-at models.
#[derive(Debug, Clone)]
pub struct BridgingStudy {
    /// Wired-AND short Pf.
    pub wired_and_pf: f64,
    /// Wired-OR short Pf.
    pub wired_or_pf: f64,
    /// Single stuck-at-1 Pf on the same workload/domain for reference.
    pub stuck_at_1_pf: f64,
    /// Pairs injected per wired kind.
    pub pairs: usize,
}

/// Run the bridging study on `rspeed` at IU nodes: adjacent-wire shorts
/// against the single-fault stuck-at-1 reference.
pub fn bridging_study(config: &ExperimentConfig) -> BridgingStudy {
    let program = Benchmark::Rspeed.program(&Params::default());
    let records = BridgingCampaign::new(program.clone(), Target::IntegerUnit)
        .with_sample(config.sample_per_campaign, config.seed)
        .run(config.threads);
    let reference = Campaign::new(program, Target::IntegerUnit)
        .with_kinds(&[FaultKind::StuckAt1])
        .with_sample(config.sample_per_campaign, config.seed)
        .with_injection_fraction(INJECTION_FRACTION)
        .run(config.threads);
    BridgingStudy {
        wired_and_pf: bridge_pf(&records, Some(BridgeKind::WiredAnd)),
        wired_or_pf: bridge_pf(&records, Some(BridgeKind::WiredOr)),
        stuck_at_1_pf: reference.pf(FaultKind::StuckAt1),
        pairs: records.len() / 2,
    }
}

impl fmt::Display for BridgingStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Extension: bridging (short-circuit) faults, {} pairs @ IU ==",
            self.pairs
        )?;
        writeln!(f, "wired-AND short: {:6.2}%", self.wired_and_pf * 100.0)?;
        writeln!(f, "wired-OR  short: {:6.2}%", self.wired_or_pf * 100.0)?;
        writeln!(f, "stuck-at-1 ref.: {:6.2}%", self.stuck_at_1_pf * 100.0)
    }
}

// ------------------------------------------------------- Latent/dual-point

/// Single- vs dual-point fault propagation (the ISO 26262 latent-fault
/// angle the paper's §1/§3 motivate: single-point and latent fault metrics
/// both rest on permanent stuck-at campaigns).
#[derive(Debug, Clone)]
pub struct LatentStudy {
    /// Single-fault Pf (stuck-at-1 @ IU).
    pub single_pf: f64,
    /// Dual-point Pf over chained pairs of the same site list.
    pub dual_pf: f64,
    /// Injections per arm.
    pub injections: usize,
}

/// Run the latent study on `rspeed`: the same sampled site list injected
/// singly and in overlapping pairs.
pub fn latent_study(config: &ExperimentConfig) -> LatentStudy {
    let program = Benchmark::Rspeed.program(&Params::default());
    let base = Campaign::new(program, Target::IntegerUnit)
        .with_kinds(&[FaultKind::StuckAt1])
        .with_sample(config.sample_per_campaign, config.seed)
        .with_injection_fraction(INJECTION_FRACTION);
    let single = base.run(config.threads);
    let dual = base
        .execute(
            config.threads,
            &ExecOptions {
                pairs: true,
                ..ExecOptions::default()
            },
        )
        .expect("the latent study's configuration is statically valid")
        .remove(0);
    LatentStudy {
        single_pf: single.pf(FaultKind::StuckAt1),
        dual_pf: dual.pf(FaultKind::StuckAt1),
        injections: single.records().len(),
    }
}

impl fmt::Display for LatentStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Extension: single- vs dual-point faults ({} sites @ IU) ==",
            self.injections
        )?;
        writeln!(f, "single-point Pf: {:6.2}%", self.single_pf * 100.0)?;
        writeln!(f, "dual-point   Pf: {:6.2}%", self.dual_pf * 100.0)?;
        writeln!(
            f,
            "(a second resident fault raises manifestation by {:.2} pp — the margin the
 ISO 26262 latent-fault metric exists to bound)",
            (self.dual_pf - self.single_pf) * 100.0
        )
    }
}

// ------------------------------------------------------------ ISS baseline

/// Register-file-only ISS injection vs RTL IU injection, per benchmark.
#[derive(Debug, Clone)]
pub struct IssBaseline {
    /// `(benchmark, ISS register-file Pf, RTL IU Pf)` rows.
    pub rows: Vec<(Benchmark, f64, f64)>,
}

impl IssBaseline {
    /// Pearson correlation between the ISS and RTL Pf columns (`None` if
    /// degenerate).
    pub fn correlation(&self) -> Option<f64> {
        let iss: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let rtl: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        pearson(&iss, &rtl)
    }
}

/// Run the baseline comparison over the six Table 1 benchmarks.
pub fn iss_baseline(config: &ExperimentConfig) -> IssBaseline {
    let rows = Benchmark::TABLE1_AUTOMOTIVE
        .iter()
        .chain(&Benchmark::TABLE1_SYNTHETIC)
        .map(|&bench| {
            let program = bench.program(&Params::default());
            let iss_records = IssCampaign::new(program.clone())
                .with_sample(config.sample_per_campaign, config.seed)
                .run();
            let rtl = Campaign::new(program, Target::IntegerUnit)
                .with_kinds(&[FaultKind::StuckAt1])
                .with_sample(config.sample_per_campaign, config.seed)
                .with_injection_fraction(INJECTION_FRACTION)
                .run(config.threads);
            (bench, arch_pf(&iss_records), rtl.pf(FaultKind::StuckAt1))
        })
        .collect();
    IssBaseline { rows }
}

impl fmt::Display for IssBaseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Extension: register-file ISS injection vs RTL injection =="
        )?;
        writeln!(
            f,
            "{:>10} {:>14} {:>12}",
            "benchmark", "ISS regfile Pf", "RTL IU Pf"
        )?;
        for &(bench, iss, rtl) in &self.rows {
            writeln!(
                f,
                "{:>10} {:>13.2}% {:>11.2}%",
                bench.name(),
                iss * 100.0,
                rtl * 100.0
            )?;
        }
        match self.correlation() {
            Some(r) => writeln!(f, "Pearson(ISS, RTL) = {r:.3}"),
            None => writeln!(f, "Pearson(ISS, RTL) undefined"),
        }
    }
}

// ------------------------------------------------------------ Eq.1 ablation

/// Leave-one-out prediction errors of the global-diversity model vs the
/// per-unit Eq. 1 model.
#[derive(Debug, Clone)]
pub struct Eq1Ablation {
    /// `(benchmark, measured, global-model prediction, Eq. 1 prediction)`.
    pub rows: Vec<(Benchmark, f64, f64, f64)>,
}

impl Eq1Ablation {
    /// Mean absolute error of the global model (pp).
    pub fn global_mae_pp(&self) -> f64 {
        self.rows.iter().map(|r| (r.1 - r.2).abs()).sum::<f64>() / self.rows.len() as f64 * 100.0
    }

    /// Mean absolute error of the Eq. 1 per-unit model (pp).
    pub fn eq1_mae_pp(&self) -> f64 {
        self.rows.iter().map(|r| (r.1 - r.3).abs()).sum::<f64>() / self.rows.len() as f64 * 100.0
    }
}

/// Evaluate both predictors by leave-one-out over a Figure 5 campaign.
///
/// For each held-out benchmark, the global model is fitted on the other
/// benchmarks' `(D, Pf)` points; the Eq. 1 model fits one log-model per
/// functional unit on `(D_m, Pf_m)` points and combines them with the
/// `α_m` area weights.
///
/// # Panics
///
/// Panics if the campaign has fewer than three benchmarks.
pub fn eq1_ablation(fig5: &FigCampaign) -> Eq1Ablation {
    assert!(
        fig5.rows.len() >= 3,
        "need at least three calibration benchmarks"
    );
    let sa1 = 0; // FaultKind::ALL[0] == StuckAt1
    let cpu = Leon3::new(Leon3Config::default());
    let alphas = area_weights(&cpu, sparc_isa::Unit::is_iu);

    // Per-benchmark measurements: one ISS run gives both D and D_m.
    let measured: Vec<_> = fig5
        .rows
        .iter()
        .map(|r| {
            let cell = CorrelationCell {
                benchmark: r.benchmark,
                dataset: 0,
                excerpt: false,
            };
            let pfm = r.result.pf_per_unit(FaultKind::StuckAt1);
            (r.benchmark, cell.measure(), r.pf[sa1], pfm)
        })
        .collect();
    // D_m of one measurement (zero for a unit it never exercised).
    let unit_d = |m: &CellMeasurement, unit: Unit| {
        m.unit_diversity
            .iter()
            .find(|(name, _)| name == unit.name())
            .map_or(0.0, |&(_, d)| d as f64)
    };

    let rows = measured
        .iter()
        .enumerate()
        .map(|(held, (bench, m, pf, _))| {
            let others = || {
                measured
                    .iter()
                    .enumerate()
                    .filter(move |&(i, _)| i != held)
                    .map(|(_, x)| x)
            };
            // Global model on the remaining benchmarks.
            let global_points: Vec<CorrelationPoint> = others()
                .map(|(_, m, pf, _)| CorrelationPoint {
                    label: m.label.clone(),
                    diversity: m.diversity as f64,
                    pf: *pf,
                })
                .collect();
            let global = FittedModel::fit(&global_points).expect("fit global");
            let global_pred = global.predict(m.diversity as f64);

            // Eq. 1: one model per unit, on (D_m, Pf_m) of the remaining
            // benchmarks; units whose D_m is constant fall back to the
            // mean Pf_m.
            let mut per_unit_pred: BTreeMap<Unit, f64> = BTreeMap::new();
            for unit in Unit::IU {
                let pts: Vec<CorrelationPoint> = others()
                    .filter_map(|(_, m, _, pfms)| {
                        let dm = unit_d(m, unit);
                        let pfm = *pfms.get(&unit)?;
                        (dm > 0.0).then(|| CorrelationPoint {
                            label: m.label.clone(),
                            diversity: dm,
                            pf: pfm,
                        })
                    })
                    .collect();
                if pts.is_empty() {
                    continue;
                }
                let here = unit_d(m, unit);
                let prediction = match FittedModel::fit(&pts) {
                    Ok(model) if here > 0.0 => model.predict(here),
                    _ => pts.iter().map(|p| p.pf).sum::<f64>() / pts.len() as f64,
                };
                per_unit_pred.insert(unit, prediction);
            }
            let eq1_pred = weighted_pf(&alphas, &per_unit_pred).clamp(0.0, 1.0);
            (*bench, *pf, global_pred, eq1_pred)
        })
        .collect();
    Eq1Ablation { rows }
}

impl fmt::Display for Eq1Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Extension: Eq. 1 per-unit model vs global diversity model (LOO) =="
        )?;
        writeln!(
            f,
            "{:>10} {:>10} {:>10} {:>10}",
            "benchmark", "measured", "global", "eq1"
        )?;
        for &(bench, measured, global, eq1) in &self.rows {
            writeln!(
                f,
                "{:>10} {:>9.2}% {:>9.2}% {:>9.2}%",
                bench.name(),
                measured * 100.0,
                global * 100.0,
                eq1 * 100.0
            )?;
        }
        writeln!(
            f,
            "MAE: global {:.2} pp, eq1 {:.2} pp",
            self.global_mae_pp(),
            self.eq1_mae_pp()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig_campaign;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            sample_per_campaign: 12,
            seed: 0xE7,
            threads: 2,
        }
    }

    #[test]
    fn transient_is_rarer_and_time_dependent() {
        let config = ExperimentConfig {
            sample_per_campaign: 60,
            ..tiny()
        };
        let study = inject_study(&config, FaultKind::TransientFlip, &[]);
        // Transient flips propagate far less often than permanent faults
        // at every instant.
        for (p, t) in study.reference_pf.iter().zip(&study.kind_pf) {
            assert!(t < p, "transient {t} >= permanent {p}");
        }
        let _ = study.to_string();
    }

    #[test]
    fn dual_point_faults_dominate_single() {
        let config = ExperimentConfig {
            sample_per_campaign: 50,
            ..tiny()
        };
        let study = latent_study(&config);
        assert!((0.0..=1.0).contains(&study.single_pf));
        assert!((0.0..=1.0).contains(&study.dual_pf));
        // Two faults can mask each other in principle, but statistically
        // the union dominates.
        assert!(
            study.dual_pf + 0.03 >= study.single_pf,
            "single {} vs dual {}",
            study.single_pf,
            study.dual_pf
        );
        let _ = study.to_string();
    }

    #[test]
    fn bridging_study_bounded() {
        let study = bridging_study(&tiny());
        for pf in [study.wired_and_pf, study.wired_or_pf, study.stuck_at_1_pf] {
            assert!((0.0..=1.0).contains(&pf));
        }
        assert_eq!(study.pairs, 12);
        let _ = study.to_string();
    }

    #[test]
    fn iss_baseline_structure() {
        let baseline = iss_baseline(&tiny());
        assert_eq!(baseline.rows.len(), 6);
        for &(_, iss, rtl) in &baseline.rows {
            assert!((0.0..=1.0).contains(&iss));
            assert!((0.0..=1.0).contains(&rtl));
        }
        let _ = baseline.to_string();
    }

    #[test]
    fn eq1_rows_match_the_recorded_sample() {
        // An FNV-1a digest over the bits of every row value, recorded from
        // this sample; any change to a measured or predicted value changes
        // it.
        let ablation = eq1_ablation(&fig_campaign(&tiny(), Target::IntegerUnit));
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for &(_, measured, global, eq1) in &ablation.rows {
            for value in [measured, global, eq1] {
                for byte in value.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x9e87_55ed_975b_b9bc, "{digest:#018x}");
    }

    #[test]
    fn eq1_ablation_produces_bounded_predictions() {
        let f5 = fig_campaign(&tiny(), Target::IntegerUnit);
        let ablation = eq1_ablation(&f5);
        assert_eq!(ablation.rows.len(), 6);
        for &(_, measured, global, eq1) in &ablation.rows {
            assert!((0.0..=1.0).contains(&measured));
            assert!((0.0..=1.0).contains(&global));
            assert!((0.0..=1.0).contains(&eq1));
        }
        let _ = ablation.to_string();
    }
}
