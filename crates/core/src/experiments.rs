//! Experiment drivers: one function per table/figure of the paper's
//! evaluation section (§4). Each returns a structured result that the
//! `repro` binary renders as text; `Display` implementations produce the
//! paper-style charts.

use analysis::{grouped_bar_chart, scatter_plot, Series};
use fault_inject::{
    Campaign, CampaignResult, CorrelationCell, CorrelationSpec, DomainFit, InjectionInstant, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_iss::{Iss, IssConfig, RunOutcome};
use std::fmt;
use std::time::Instant;
use workloads::{characterize, Benchmark, Characterization, Params};

/// Sizing and determinism knobs shared by all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Fault sites sampled per campaign (per benchmark and target).
    pub sample_per_campaign: usize,
    /// RNG seed for fault-list sampling.
    pub seed: u64,
    /// Worker threads per campaign.
    pub threads: usize,
}

impl ExperimentConfig {
    /// Small sample sizes for smoke tests and CI.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            sample_per_campaign: 60,
            seed: 0xDAC_2015,
            threads: default_threads(),
        }
    }

    /// The sizes used for the recorded EXPERIMENTS.md results.
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            sample_per_campaign: 400,
            seed: 0xDAC_2015,
            threads: default_threads(),
        }
    }
}

/// The paper injects at "a fixed injection instant"; all drivers place it
/// 5% into the golden run, so open-line faults capture live (non-reset)
/// values and behave distinctly from stuck-at-0.
pub(crate) const INJECTION_FRACTION: f64 = 0.05;

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
}

// ---------------------------------------------------------------- Table 1

/// The paper's Table 1: benchmark characterisation.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per benchmark (automotive then synthetic).
    pub rows: Vec<Characterization>,
}

/// Run Table 1: characterise the four automotive and two synthetic
/// benchmarks on the ISS (2 iterations, dataset 0 — the paper's
/// configuration).
pub fn table1() -> Table1 {
    let rows = Benchmark::TABLE1_AUTOMOTIVE
        .iter()
        .chain(&Benchmark::TABLE1_SYNTHETIC)
        .map(|&b| characterize(b, &Params::default()))
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table 1: benchmark characterisation ==")?;
        write!(f, "{:14}", "Instructions")?;
        for row in &self.rows {
            write!(f, "{:>10}", row.benchmark.name())?;
        }
        writeln!(f)?;
        write!(f, "{:14}", "Total")?;
        for row in &self.rows {
            write!(f, "{:>10}", row.total)?;
        }
        writeln!(f)?;
        write!(f, "{:14}", "Integer Unit")?;
        for row in &self.rows {
            write!(f, "{:>10}", row.iu)?;
        }
        writeln!(f)?;
        write!(f, "{:14}", "Memory")?;
        for row in &self.rows {
            write!(f, "{:>10}", row.memory)?;
        }
        writeln!(f)?;
        write!(f, "{:14}", "Diversity")?;
        for row in &self.rows {
            write!(f, "{:>10}", row.diversity)?;
        }
        writeln!(f)
    }
}

// ---------------------------------------------------------------- Figure 3

/// One excerpt instance of the Fig. 3 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExcerptPf {
    /// Which benchmark supplied the input data.
    pub benchmark: Benchmark,
    /// Measured Pf (stuck-at-1 at IU nodes).
    pub pf: f64,
    /// The excerpt's instruction diversity.
    pub diversity: usize,
}

/// The paper's Figure 3: input-data variability on benchmark excerpts.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Subset A (8 instruction types): a2time, ttsprk, bitmnp.
    pub subset_a: Vec<ExcerptPf>,
    /// Subset B (11 instruction types): rspeed, tblook, basefp.
    pub subset_b: Vec<ExcerptPf>,
}

impl Fig3 {
    /// Maximum Pf spread (percentage points) within a subset — the paper
    /// observes up to ~4 pp.
    pub fn max_spread_pp(&self) -> f64 {
        let spread = |v: &[ExcerptPf]| {
            let max = v.iter().map(|e| e.pf).fold(0.0, f64::max);
            let min = v.iter().map(|e| e.pf).fold(1.0, f64::min);
            (max - min) * 100.0
        };
        spread(&self.subset_a).max(spread(&self.subset_b))
    }
}

/// Run Figure 3: stuck-at-1 injection at IU nodes into the six excerpt
/// instances (identical code within a subset, benchmark-specific data).
pub fn fig3(config: &ExperimentConfig) -> Fig3 {
    let run_subset = |benches: &[Benchmark]| {
        benches
            .iter()
            .map(|&b| {
                let cell = CorrelationCell {
                    benchmark: b,
                    dataset: 0,
                    excerpt: true,
                };
                // Excerpt runs are two orders of magnitude shorter than
                // full benchmarks, so Fig. 3 affords a much denser sample —
                // needed to resolve differences of a few percentage points.
                let result = Campaign::new(cell.program(), Target::IntegerUnit)
                    .with_kinds(&[FaultKind::StuckAt1])
                    .with_sample(config.sample_per_campaign * 10, config.seed)
                    .with_injection_fraction(INJECTION_FRACTION)
                    .run(config.threads);
                ExcerptPf {
                    benchmark: b,
                    pf: result.pf(FaultKind::StuckAt1),
                    diversity: cell.measure().diversity as usize,
                }
            })
            .collect()
    };
    Fig3 {
        subset_a: run_subset(&Benchmark::EXCERPT_SUBSET_A),
        subset_b: run_subset(&Benchmark::EXCERPT_SUBSET_B),
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (title, subset) in [
            (
                "Fig 3(a): excerpts, 8 instruction types (SA1 @ IU)",
                &self.subset_a,
            ),
            (
                "Fig 3(b): excerpts, 11 instruction types (SA1 @ IU)",
                &self.subset_b,
            ),
        ] {
            let cats: Vec<&str> = subset.iter().map(|e| e.benchmark.name()).collect();
            let vals: Vec<f64> = subset.iter().map(|e| e.pf).collect();
            write!(f, "{}", analysis::bar_chart(title, &cats, &vals, true))?;
        }
        writeln!(
            f,
            "max within-subset spread: {:.1} pp",
            self.max_spread_pp()
        )
    }
}

// ---------------------------------------------------------------- Figure 4

/// The paper's Figure 4: iteration-count study on `rspeed`.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Iteration counts (the paper uses 2, 4 and 10).
    pub iterations: Vec<u32>,
    /// Measured Pf per iteration count (should be flat).
    pub pf: Vec<f64>,
    /// Maximum propagation latency per iteration count, in µs (should
    /// grow).
    pub max_latency_us: Vec<f64>,
}

/// Run Figure 4: stuck-at-1 at IU nodes on `rspeed` with 2, 4 and 10
/// iterations, same fault list for all three runs.
pub fn fig4(config: &ExperimentConfig) -> Fig4 {
    let iterations = vec![2u32, 4, 10];
    let mut pf = Vec::new();
    let mut lat = Vec::new();
    for &iters in &iterations {
        let program = Benchmark::Rspeed.program(&Params::with_iterations(iters));
        let result = Campaign::new(program, Target::IntegerUnit)
            .with_kinds(&[FaultKind::StuckAt1])
            .with_sample(config.sample_per_campaign, config.seed)
            .with_injection_fraction(INJECTION_FRACTION)
            .run(config.threads);
        let summary = result.summary(FaultKind::StuckAt1);
        pf.push(summary.pf());
        lat.push(summary.max_latency_us.unwrap_or(0.0));
    }
    Fig4 {
        iterations,
        pf,
        max_latency_us: lat,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cats: Vec<String> = self
            .iterations
            .iter()
            .map(|i| format!("rspeed{i}"))
            .collect();
        let cat_refs: Vec<&str> = cats.iter().map(String::as_str).collect();
        write!(
            f,
            "{}",
            analysis::bar_chart(
                "Fig 4(a): Pf vs iterations (SA1 @ IU)",
                &cat_refs,
                &self.pf,
                true
            )
        )?;
        write!(
            f,
            "{}",
            analysis::bar_chart(
                "Fig 4(b): max propagation latency (µs)",
                &cat_refs,
                &self.max_latency_us,
                false
            )
        )
    }
}

// ------------------------------------------------------- Figures 5 and 6

/// Per-benchmark Pf for the three fault models.
#[derive(Debug, Clone)]
pub struct BenchmarkPf {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Pf per fault model, indexed like [`FaultKind::ALL`].
    pub pf: [f64; 3],
    /// The full campaign result (latencies, per-unit breakdown).
    pub result: CampaignResult,
}

/// The paper's Figure 5 or 6: full-benchmark campaigns over one injection
/// domain.
#[derive(Debug, Clone)]
pub struct FigCampaign {
    /// IU (Fig. 5) or CMEM (Fig. 6).
    pub target: Target,
    /// One entry per benchmark (4 automotive + 2 synthetic).
    pub rows: Vec<BenchmarkPf>,
}

/// Run a Figure 5/6-style campaign over `target` for the six Table 1
/// benchmarks and all three fault models.
pub fn fig_campaign(config: &ExperimentConfig, target: Target) -> FigCampaign {
    let rows = Benchmark::TABLE1_AUTOMOTIVE
        .iter()
        .chain(&Benchmark::TABLE1_SYNTHETIC)
        .map(|&b| {
            let program = b.program(&Params::default());
            let result = Campaign::new(program, target)
                .with_sample(config.sample_per_campaign, config.seed)
                .with_injection_fraction(INJECTION_FRACTION)
                .run(config.threads);
            let pf = [
                result.pf(FaultKind::ALL[0]),
                result.pf(FaultKind::ALL[1]),
                result.pf(FaultKind::ALL[2]),
            ];
            BenchmarkPf {
                benchmark: b,
                pf,
                result,
            }
        })
        .collect();
    FigCampaign { target, rows }
}

/// Figure 5: IU-node injection.
pub fn fig5(config: &ExperimentConfig) -> FigCampaign {
    fig_campaign(config, Target::IntegerUnit)
}

/// Figure 6: CMEM-node injection.
pub fn fig6(config: &ExperimentConfig) -> FigCampaign {
    fig_campaign(config, Target::CacheMemory)
}

impl FigCampaign {
    /// Spread of Pf across the automotive benchmarks (pp), per fault
    /// model; the paper observes near-flat automotive bars.
    pub fn automotive_spread_pp(&self, kind: FaultKind) -> f64 {
        let idx = FaultKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known kind");
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.benchmark.kind() == workloads::Kind::Automotive)
            .map(|r| r.pf[idx])
            .collect();
        let max = values.iter().copied().fold(0.0, f64::max);
        let min = values.iter().copied().fold(1.0, f64::min);
        (max - min) * 100.0
    }
}

impl fmt::Display for FigCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cats: Vec<&str> = self.rows.iter().map(|r| r.benchmark.name()).collect();
        let series: Vec<Series> = FaultKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| Series::new(kind.name(), self.rows.iter().map(|r| r.pf[i]).collect()))
            .collect();
        let figure = if self.target == Target::IntegerUnit {
            "Fig 5"
        } else {
            "Fig 6"
        };
        write!(
            f,
            "{}",
            grouped_bar_chart(
                &format!("{figure}: propagated faults at {} nodes", self.target),
                &cats,
                &series,
                true
            )
        )
    }
}

// ---------------------------------------------------------------- Figure 7

/// The paper's Figure 7: Pf vs instruction diversity with the logarithmic
/// fit.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// The sweep's stuck-at-1 @ IU slice: its calibration points and the
    /// fitted `Pf = a·ln(D) + b` model.
    pub fit: DomainFit,
}

/// Run Figure 7 as one correlation sweep ([`CorrelationSpec::new`]): the
/// six Table 1 kernels plus the ttsprk and rspeed excerpts (one per
/// Fig. 3 subset), stuck-at-1 at IU nodes, sampled and injected like
/// Figs. 3–6, each cell's diversity measured on the ISS.
///
/// # Panics
///
/// Panics if a campaign fails or the fit degenerates — neither happens on
/// the fixed, statically valid spec.
pub fn fig7(config: &ExperimentConfig) -> Fig7 {
    let mut spec = CorrelationSpec::new();
    spec.sample = Some((config.sample_per_campaign, config.seed));
    spec.injection = InjectionInstant::Fraction(INJECTION_FRACTION);
    let report = spec
        .run_report(config.threads)
        .expect("the Fig. 7 sweep is statically valid");
    let fit = report
        .domain(Target::IntegerUnit, FaultKind::StuckAt1)
        .expect("the sweep fits stuck-at-1 @ IU")
        .clone();
    Fig7 { fit }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pts: Vec<(f64, f64)> = self
            .fit
            .points
            .iter()
            .map(|p| (p.diversity as f64, p.pf))
            .collect();
        let reg = self.fit.model.regression();
        let fit_fn = move |x: f64| reg.predict(x);
        write!(
            f,
            "{}",
            scatter_plot(
                "Fig 7: Pf vs instruction diversity (SA1 @ IU)",
                &pts,
                Some(&fit_fn),
                16,
                60
            )
        )?;
        writeln!(
            f,
            "fit: Pf {}, n = {}, band ±{:.4}",
            reg.equation(),
            self.fit.model.n,
            self.fit.model.band()
        )
    }
}

// ------------------------------------------------- Temporal behaviour (§4.2)

/// The paper's temporal-behaviour check: `ttsprk` vs `puwmod` (same
/// diversity, different instruction order) must show near-identical Pf for
/// every permanent fault model.
#[derive(Debug, Clone)]
pub struct TemporalStudy {
    /// Pf per fault model for `ttsprk`.
    pub ttsprk: [f64; 3],
    /// Pf per fault model for `puwmod`.
    pub puwmod: [f64; 3],
}

impl TemporalStudy {
    /// Extract the study from a Figure 5 result.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is missing either benchmark.
    pub fn from_fig5(fig5: &FigCampaign) -> TemporalStudy {
        let find = |b: Benchmark| {
            fig5.rows
                .iter()
                .find(|r| r.benchmark == b)
                .unwrap_or_else(|| panic!("{b} missing from campaign"))
                .pf
        };
        TemporalStudy {
            ttsprk: find(Benchmark::Ttsprk),
            puwmod: find(Benchmark::Puwmod),
        }
    }

    /// The largest |Pf(ttsprk) − Pf(puwmod)| across fault models, in pp.
    pub fn max_delta_pp(&self) -> f64 {
        self.ttsprk
            .iter()
            .zip(&self.puwmod)
            .map(|(a, b)| (a - b).abs() * 100.0)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for TemporalStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Temporal behaviour: same diversity, different order =="
        )?;
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            writeln!(
                f,
                "{kind:>12}: ttsprk {:5.2}%  puwmod {:5.2}%  (Δ {:.2} pp)",
                self.ttsprk[i] * 100.0,
                self.puwmod[i] * 100.0,
                (self.ttsprk[i] - self.puwmod[i]).abs() * 100.0
            )?;
        }
        writeln!(f, "max Δ: {:.2} pp", self.max_delta_pp())
    }
}

// ------------------------------------------------------ Simulation time (§4.2)

/// The paper's simulation-time comparison (25,478 h RTL vs < 300 h ISS).
#[derive(Debug, Clone, Copy)]
pub struct SimTime {
    /// ISS throughput in instructions per second.
    pub iss_insn_per_s: f64,
    /// RTL-model throughput in instructions per second.
    pub rtl_insn_per_s: f64,
    /// Workload instructions measured over.
    pub instructions: u64,
    /// Extrapolated CPU-hours for an exhaustive IU+CMEM campaign (all
    /// sites × 3 models × 6 benchmarks) on the RTL model.
    pub rtl_campaign_hours: f64,
    /// The same experiment count on the ISS.
    pub iss_campaign_hours: f64,
}

impl SimTime {
    /// RTL-to-ISS slowdown.
    pub fn ratio(&self) -> f64 {
        self.iss_insn_per_s / self.rtl_insn_per_s
    }
}

/// Timed runs of each engine in [`simtime`]. They alternate, so a change
/// in host load reaches both engines, and each engine keeps its median.
const SIMTIME_RUNS: usize = 5;

/// Time both engines on `rspeed`, `SIMTIME_RUNS` runs each, and
/// extrapolate to the paper's exhaustive-campaign scale.
pub fn simtime() -> SimTime {
    let program = Benchmark::Rspeed.program(&Params::default());
    let (mut iss_times, mut rtl_times) = (Vec::new(), Vec::new());
    let mut instructions = 0;
    for _ in 0..SIMTIME_RUNS {
        let start = Instant::now();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        assert!(matches!(iss.run(u64::MAX / 2), RunOutcome::Halted { .. }));
        iss_times.push(start.elapsed().as_secs_f64());
        instructions = iss.stats().instructions;

        // The RTL leg pays the per-cycle process-evaluation cost an
        // event-driven RTL simulator pays (campaigns use the semantically
        // identical fast mode).
        let start = Instant::now();
        let mut rtl = Leon3::new(Leon3Config {
            faithful_clocking: true,
            ..Leon3Config::default()
        });
        rtl.load(&program);
        assert!(matches!(rtl.run(u64::MAX / 2), RunOutcome::Halted { .. }));
        rtl_times.push(start.elapsed().as_secs_f64());
    }
    let per_s = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        instructions as f64 / times[times.len() / 2].max(1e-9)
    };
    let iss_insn_per_s = per_s(&mut iss_times);
    let rtl_insn_per_s = per_s(&mut rtl_times);

    // Exhaustive-campaign extrapolation: every injectable bit of IU+CMEM,
    // three fault models, six benchmarks, full runs.
    let cpu = Leon3::new(Leon3Config::default());
    let sites = cpu.pool().bit_count() as f64;
    let runs = sites * 3.0 * 6.0;
    let avg_insns = instructions as f64;
    SimTime {
        iss_insn_per_s,
        rtl_insn_per_s,
        instructions,
        rtl_campaign_hours: runs * avg_insns / rtl_insn_per_s / 3600.0,
        iss_campaign_hours: runs * avg_insns / iss_insn_per_s / 3600.0,
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Simulation time ==")?;
        writeln!(
            f,
            "ISS: {:.2} Minsn/s   RTL model: {:.2} Minsn/s   slowdown: {:.1}x",
            self.iss_insn_per_s / 1e6,
            self.rtl_insn_per_s / 1e6,
            self.ratio()
        )?;
        writeln!(
            f,
            "exhaustive IU+CMEM campaign (3 models x 6 benchmarks): RTL {:.1} h vs ISS {:.1} h",
            self.rtl_campaign_hours, self.iss_campaign_hours
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            sample_per_campaign: 12,
            seed: 7,
            threads: default_threads(),
        }
    }

    #[test]
    fn table1_has_six_rows_in_paper_order() {
        let t = table1();
        let names: Vec<&str> = t.rows.iter().map(|r| r.benchmark.name()).collect();
        assert_eq!(
            names,
            vec!["puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench"]
        );
        let text = t.to_string();
        assert!(text.contains("Diversity"));
    }

    #[test]
    fn fig3_structure() {
        let f3 = fig3(&tiny());
        assert_eq!(f3.subset_a.len(), 3);
        assert_eq!(f3.subset_b.len(), 3);
        for e in &f3.subset_a {
            assert_eq!(e.diversity, 8);
            assert!((0.0..=1.0).contains(&e.pf));
        }
        for e in &f3.subset_b {
            assert_eq!(e.diversity, 11);
        }
        let _ = f3.to_string();
    }

    #[test]
    fn temporal_study_needs_both_benchmarks() {
        // Construct from a synthetic FigCampaign.
        let cfg = tiny();
        let f5 = fig_campaign(&cfg, Target::IntegerUnit);
        let t = TemporalStudy::from_fig5(&f5);
        assert!(t.max_delta_pp() <= 100.0);
        let _ = t.to_string();
    }

    #[test]
    fn simtime_measures_positive_throughput() {
        let s = simtime();
        assert!(s.iss_insn_per_s > 0.0);
        assert!(s.rtl_insn_per_s > 0.0);
        assert!(s.rtl_campaign_hours > s.iss_campaign_hours);
        let _ = s.to_string();
    }
}
