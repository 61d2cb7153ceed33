//! Shared helpers for the benchmark harness and the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use correlation::experiments::ExperimentConfig;

/// Resolve the experiment sizing from explicit variable lookups; the
/// testable core of [`config_from_env`].
///
/// A variable that is set but unusable (non-numeric, or zero where zero
/// would wedge the run) is ignored with one warning line naming the
/// variable and the value actually used.
pub fn config_from_vars(get: impl Fn(&str) -> Option<String>) -> (ExperimentConfig, Vec<String>) {
    let mut config = ExperimentConfig::full();
    let mut warnings = Vec::new();
    let mut resolve = |name: &str, fallback: u64, min: u64| -> Option<u64> {
        let raw = get(name)?;
        match raw.parse::<u64>() {
            Ok(n) if n >= min => Some(n),
            Ok(_) => {
                warnings.push(format!(
                    "[repro] ignoring {name}={raw:?} (must be at least {min}); using {fallback}"
                ));
                None
            }
            Err(_) => {
                warnings.push(format!(
                    "[repro] ignoring {name}={raw:?} (not a non-negative integer); using {fallback}"
                ));
                None
            }
        }
    };
    if let Some(n) = resolve("REPRO_SAMPLE", config.sample_per_campaign as u64, 1) {
        config.sample_per_campaign = n as usize;
    }
    if let Some(n) = resolve("REPRO_SEED", config.seed, 0) {
        config.seed = n;
    }
    if let Some(n) = resolve("REPRO_THREADS", config.threads as u64, 1) {
        config.threads = n as usize;
    }
    (config, warnings)
}

/// Resolve the experiment sizing from the environment:
/// `REPRO_SAMPLE` (sites per campaign), `REPRO_SEED`, `REPRO_THREADS`.
/// Defaults to [`ExperimentConfig::full`] sizing; unusable values are
/// ignored with a warning on stderr (see [`config_from_vars`]).
pub fn config_from_env() -> ExperimentConfig {
    let (config, warnings) = config_from_vars(|name| std::env::var(name).ok());
    for warning in &warnings {
        eprintln!("{warning}");
    }
    config
}

/// The CI bench-regression gate over the campaign engine.
///
/// Wall-clock throughput is runner-dependent, so the gate compares
/// **simulated cycle counts** instead: the fork/full-re-execution cycle
/// ratio of a fixed smoke campaign is deterministic (independent of
/// thread count, load and machine), making the committed baseline
/// noise-proof. The baseline and its tolerance live in the `gate`
/// section of `BENCH_campaign.json`, written by the `campaign_engine`
/// bench and checked by `repro benchgate`.
pub mod gate {
    use fault_inject::wire::Json;
    use fault_inject::{
        merge_correlation_shards, Campaign, CorrelationSpec, ExecOptions, Execution, GoldenRun,
        InjectionInstant, Target,
    };
    use leon3_model::Leon3Config;
    use rtl_sim::FaultKind;
    use std::fmt::Write as _;
    use workloads::{Benchmark, Params};

    /// Relative tolerance on the cycle ratio recorded into the baseline
    /// file. The committed value in the file is authoritative at check
    /// time; this constant only seeds newly written baselines.
    pub const DEFAULT_TOLERANCE: f64 = 0.25;

    /// One gate case: a small deterministic campaign in smoke config.
    pub struct GateCase {
        /// Stable name keying the baseline entry.
        pub name: &'static str,
        /// Workload under injection.
        pub benchmark: Benchmark,
        /// Fault domain.
        pub target: Target,
    }

    /// The smoke cases the gate runs — one per fault domain the engine
    /// optimizes differently.
    pub const CASES: [GateCase; 2] = [
        GateCase {
            name: "intbench-iu",
            benchmark: Benchmark::Intbench,
            target: Target::IntegerUnit,
        },
        GateCase {
            name: "rspeed-cmem",
            benchmark: Benchmark::Rspeed,
            target: Target::CacheMemory,
        },
    ];

    fn campaign(case: &GateCase) -> Campaign {
        Campaign::new(case.benchmark.program(&Params::default()), case.target)
            .with_sample(12, 0xbe)
            .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
            .with_injection_fraction(0.3)
    }

    /// A case's deterministic measurement.
    pub struct GateMeasurement {
        /// The case name.
        pub name: &'static str,
        /// Cycles the fork engine simulated.
        pub fork_cycles: u64,
        /// Cycles full re-execution simulated.
        pub full_cycles: u64,
    }

    impl GateMeasurement {
        /// Fork cycles as a fraction of full-re-execution cycles (lower
        /// is better; 1.0 = the fork engine saves nothing).
        pub fn cycles_ratio(&self) -> f64 {
            self.fork_cycles as f64 / self.full_cycles as f64
        }
    }

    /// Run one gate case on both engines.
    ///
    /// # Panics
    ///
    /// Panics if the statically valid smoke campaign fails to run.
    pub fn measure(case: &GateCase, threads: usize) -> GateMeasurement {
        let base = campaign(case);
        let fork = base
            .clone()
            .with_execution(Execution::Fork)
            .try_run(threads)
            .expect("gate campaign is statically valid");
        let full = base
            .with_execution(Execution::FullReexecution)
            .try_run(threads)
            .expect("gate campaign is statically valid");
        GateMeasurement {
            name: case.name,
            fork_cycles: fork.stats().cycles_simulated,
            full_cycles: full.stats().cycles_simulated,
        }
    }

    /// Serialize the `gate` section for `BENCH_campaign.json`.
    pub fn baseline_json(measurements: &[GateMeasurement]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n    \"tolerance\": {DEFAULT_TOLERANCE},\n    \"cases\": [\n"
        );
        for (i, m) in measurements.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                concat!(
                    "      {{\n",
                    "        \"name\": \"{}\",\n",
                    "        \"fork_cycles\": {},\n",
                    "        \"full_cycles\": {},\n",
                    "        \"cycles_ratio\": {:.4}\n",
                    "      }}"
                ),
                m.name,
                m.fork_cycles,
                m.full_cycles,
                m.cycles_ratio(),
            );
        }
        s.push_str("\n    ]\n  }");
        s
    }

    /// Re-measure every committed case and compare against the baseline.
    ///
    /// `perturb` multiplies each measured ratio before comparison — `1.0`
    /// for a real check; larger values let CI prove the gate actually
    /// fails on a regression.
    ///
    /// # Errors
    ///
    /// A malformed baseline, an unknown case name, or any case whose
    /// (perturbed) ratio exceeds `baseline * (1 + tolerance)` fails the
    /// gate; the error lines describe every failure.
    pub fn check(
        bench_json: &str,
        threads: usize,
        perturb: f64,
    ) -> Result<Vec<String>, Vec<String>> {
        check_cases(bench_json, "campaign_engine", None, |name| {
            CASES
                .iter()
                .find(|c| c.name == name)
                .map(|case| (measure(case, threads).cycles_ratio() * perturb, None))
        })
    }

    /// The checkpoint-tree gate case: a **dense intermittent sweep** —
    /// twelve injection instants of the two time-varying fault models
    /// over one checkpoint pool with a stride grid. Time-varying masks
    /// must survive every restore/replay boundary, so this case pins the
    /// fork engine's cycle economics on exactly the schedule shapes the
    /// permanent-fault gate cases never exercise.
    pub const CHECKPOINT_CASE: &str = "rspeed-iu-intermittent-dense";

    /// Instants of the dense sweep (shared by measure and tests).
    pub fn checkpoint_case_instants() -> Vec<InjectionInstant> {
        (1..=12)
            .map(|i| InjectionInstant::Fraction(f64::from(i) / 13.0))
            .collect()
    }

    /// The dense-sweep campaign, parameterized by engine.
    fn checkpoint_case_campaign() -> Campaign {
        let program = Benchmark::Rspeed.program(&Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        Campaign::new(program, Target::IntegerUnit)
            .with_sample(8, 0xc4)
            .with_kinds(&[
                FaultKind::IntermittentStuck {
                    level: true,
                    period: 500,
                    duty: 125,
                    phase: 0,
                },
                FaultKind::TransientBurst {
                    flips: 3,
                    spacing: 100,
                },
            ])
            .with_checkpoint_stride((golden.cycles / 8).max(1))
    }

    /// Measure the dense intermittent sweep on both engines.
    ///
    /// # Panics
    ///
    /// Panics if the statically valid sweep fails to run.
    pub fn measure_checkpoint(threads: usize) -> GateMeasurement {
        let instants = checkpoint_case_instants();
        let base = checkpoint_case_campaign();
        let sum = |results: Vec<fault_inject::CampaignResult>| -> u64 {
            results.iter().map(|r| r.stats().cycles_simulated).sum()
        };
        let options = ExecOptions {
            instants: Some(&instants),
            ..ExecOptions::default()
        };
        let fork = base
            .clone()
            .with_execution(Execution::Fork)
            .execute(threads, &options)
            .expect("checkpoint gate sweep is statically valid");
        let full = base
            .with_execution(Execution::FullReexecution)
            .execute(threads, &options)
            .expect("checkpoint gate sweep is statically valid");
        GateMeasurement {
            name: CHECKPOINT_CASE,
            fork_cycles: sum(fork),
            full_cycles: sum(full),
        }
    }

    /// Serialize the `gate` section for `BENCH_checkpoint.json`.
    pub fn checkpoint_baseline_json(m: &GateMeasurement) -> String {
        baseline_json(std::slice::from_ref(m))
    }

    /// Check `BENCH_checkpoint.json`'s `gate` section: re-measure the
    /// dense intermittent sweep and compare its fork/full cycle ratio.
    ///
    /// # Errors
    ///
    /// As [`check`].
    pub fn check_checkpoint(
        bench_json: &str,
        threads: usize,
        perturb: f64,
    ) -> Result<Vec<String>, Vec<String>> {
        check_cases(bench_json, "checkpoint_tree", None, |name| {
            (name == CHECKPOINT_CASE)
                .then(|| (measure_checkpoint(threads).cycles_ratio() * perturb, None))
        })
    }

    /// The correlation gate case: the paper's Table 1 sweep (six kernels
    /// plus their low-diversity excerpts), sampled small, stuck-at-1 at
    /// IU nodes. One case gates two quantities — the sweep's fork/full
    /// cycle economics and the fitted model's R².
    pub const CORRELATION_CASE: &str = "table1-iu-stuck1";

    /// Minimum acceptable R² of the gate sweep's best-correlating
    /// domain, seeded into newly written baselines. As with the cycle
    /// tolerance, the committed value in the file is authoritative at
    /// check time.
    pub const R2_FLOOR: f64 = 0.85;

    /// The gate sweep: the default Fig. 7 cross-product under small
    /// deterministic sampling and a mid-run injection instant (so the
    /// fork engine has golden prefix to save).
    pub fn correlation_gate_spec() -> CorrelationSpec {
        let mut spec = CorrelationSpec::new();
        spec.sample = Some((48, 0xd1));
        spec.injection = InjectionInstant::Fraction(0.3);
        spec
    }

    /// The correlation case's deterministic measurement: cycle economics
    /// plus fit quality.
    pub struct CorrelationMeasurement {
        /// The case name ([`CORRELATION_CASE`]).
        pub name: &'static str,
        /// Cycles the fork engine simulated across every sweep cell.
        pub fork_cycles: u64,
        /// Cycles full re-execution simulated across every sweep cell.
        pub full_cycles: u64,
        /// R² of the sweep's best-correlating fitted domain.
        pub r2: f64,
    }

    impl CorrelationMeasurement {
        /// Fork cycles as a fraction of full-re-execution cycles.
        pub fn cycles_ratio(&self) -> f64 {
            self.fork_cycles as f64 / self.full_cycles as f64
        }
    }

    /// Run the correlation gate sweep on both engines and fit its model.
    ///
    /// # Panics
    ///
    /// Panics if the statically valid gate sweep fails to run or fit.
    pub fn measure_correlation(threads: usize) -> CorrelationMeasurement {
        let spec = correlation_gate_spec();
        let shard = spec
            .run(threads)
            .expect("correlation gate sweep is statically valid");
        let fork_cycles = shard
            .results
            .iter()
            .map(|r| r.result.stats().cycles_simulated)
            .sum();
        let mut full_cycles = 0u64;
        for (cell, target) in spec.jobs() {
            let full = spec
                .campaign(&cell, target)
                .with_execution(Execution::FullReexecution)
                .try_run(threads)
                .expect("correlation gate sweep is statically valid");
            full_cycles += full.stats().cycles_simulated;
        }
        let report = merge_correlation_shards(vec![shard]).expect("the gate sweep fits a model");
        CorrelationMeasurement {
            name: CORRELATION_CASE,
            fork_cycles,
            full_cycles,
            r2: report.best_domain().model.r2,
        }
    }

    /// Serialize the `gate` section for `BENCH_correlation.json`.
    pub fn correlation_baseline_json(m: &CorrelationMeasurement) -> String {
        format!(
            concat!(
                "{{\n    \"tolerance\": {},\n    \"r2_floor\": {},\n    \"cases\": [\n",
                "      {{\n",
                "        \"name\": \"{}\",\n",
                "        \"fork_cycles\": {},\n",
                "        \"full_cycles\": {},\n",
                "        \"cycles_ratio\": {:.4},\n",
                "        \"r2\": {:.4}\n",
                "      }}\n    ]\n  }}"
            ),
            DEFAULT_TOLERANCE,
            R2_FLOOR,
            m.name,
            m.fork_cycles,
            m.full_cycles,
            m.cycles_ratio(),
            m.r2,
        )
    }

    /// Check `BENCH_correlation.json`'s `gate` section: re-measure the
    /// gate sweep and compare its cycle ratio against the committed
    /// baseline **and** its fitted R² against the committed floor.
    ///
    /// `perturb` degrades both gated quantities — the measured ratio is
    /// multiplied (a slower engine), the measured R² divided (a worse
    /// fit) — so CI can prove both directions of the gate fire.
    ///
    /// # Errors
    ///
    /// A malformed baseline, an unknown case name, a (perturbed) ratio
    /// above `baseline * (1 + tolerance)`, or a (perturbed) R² below
    /// `r2_floor` fails the gate.
    pub fn check_correlation(
        bench_json: &str,
        threads: usize,
        perturb: f64,
    ) -> Result<Vec<String>, Vec<String>> {
        check_cases(bench_json, "correlation_sweep", Some("r2"), |name| {
            (name == CORRELATION_CASE).then(|| {
                let m = measure_correlation(threads);
                (m.cycles_ratio() * perturb, Some(m.r2 / perturb))
            })
        })
    }

    /// Shared gate walk: parse a baseline's `gate` section and compare
    /// each committed case against `measure` (which returns `None` for
    /// names unknown to this binary). A case's measured cycle ratio must
    /// stay within the baseline's tolerance. With `floored`, a gate also
    /// holds the named quantity (e.g. `r2`) of every case to the floor its
    /// section commits under `<quantity>_floor`; `measure` returns that
    /// quantity's value alongside the ratio.
    fn check_cases(
        bench_json: &str,
        source_bench: &str,
        floored: Option<&str>,
        measure: impl Fn(&str) -> Option<(f64, Option<f64>)>,
    ) -> Result<Vec<String>, Vec<String>> {
        let v = Json::parse(bench_json).map_err(|e| vec![format!("baseline unreadable: {e}")])?;
        let gate = v.get("gate").ok_or_else(|| {
            vec![format!(
                "baseline has no `gate` section (re-run the {source_bench} bench)"
            )]
        })?;
        let tolerance = gate
            .get_f64("tolerance")
            .ok_or_else(|| vec!["gate section has no `tolerance`".to_string()])?;
        let floor = match floored {
            Some(quantity) => {
                let key = format!("{quantity}_floor");
                let floor = gate
                    .get_f64(&key)
                    .ok_or_else(|| vec![format!("gate section has no `{key}`")])?;
                Some((quantity, floor))
            }
            None => None,
        };
        let cases = gate
            .get_array("cases")
            .ok_or_else(|| vec!["gate section has no `cases`".to_string()])?;
        let mut report = Vec::new();
        let mut failures = Vec::new();
        for entry in cases {
            let Some(name) = entry.get_str("name") else {
                failures.push("gate case without a name".to_string());
                continue;
            };
            let Some(baseline) = entry.get_f64("cycles_ratio") else {
                failures.push(format!("gate case `{name}` has no cycles_ratio"));
                continue;
            };
            let Some((measured, value)) = measure(name) else {
                failures.push(format!("gate case `{name}` is unknown to this binary"));
                continue;
            };
            let limit = baseline * (1.0 + tolerance);
            let line = format!(
                "{name}: cycles_ratio {measured:.4} vs baseline {baseline:.4} (limit {limit:.4})"
            );
            if measured > limit {
                failures.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
            if let (Some((quantity, floor)), Some(value)) = (floor, value) {
                let line = format!("{name}: {quantity} {value:.4} (floor {floor:.4})");
                if value < floor {
                    failures.push(format!("REGRESSION {line}"));
                } else {
                    report.push(format!("ok {line}"));
                }
            }
        }
        if failures.is_empty() {
            Ok(report)
        } else {
            Err(failures)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn env_defaults_are_positive() {
        let (c, warnings) = config_from_vars(|_| None);
        assert!(c.sample_per_campaign > 0);
        assert!(c.threads > 0);
        assert!(warnings.is_empty());
    }

    #[test]
    fn usable_overrides_apply_silently() {
        let (c, warnings) =
            config_from_vars(vars(&[("REPRO_SAMPLE", "12"), ("REPRO_THREADS", "3")]));
        assert_eq!(c.sample_per_campaign, 12);
        assert_eq!(c.threads, 3);
        assert!(warnings.is_empty());
    }

    #[test]
    fn unusable_threads_fall_back_with_one_warning_each() {
        let fallback = ExperimentConfig::full().threads;
        for bad in ["0", "abc", "-2", "1.5"] {
            let (c, warnings) = config_from_vars(vars(&[("REPRO_THREADS", bad)]));
            assert_eq!(c.threads, fallback, "REPRO_THREADS={bad}");
            assert_eq!(warnings.len(), 1, "REPRO_THREADS={bad}");
            assert!(
                warnings[0].contains("REPRO_THREADS") && warnings[0].contains(bad),
                "warning names the variable and value: {}",
                warnings[0]
            );
            assert!(
                warnings[0].contains(&fallback.to_string()),
                "warning names the fallback: {}",
                warnings[0]
            );
        }
        // A zero sample would run an empty campaign; it warns too.
        let (c, warnings) = config_from_vars(vars(&[("REPRO_SAMPLE", "0")]));
        assert_eq!(
            c.sample_per_campaign,
            ExperimentConfig::full().sample_per_campaign
        );
        assert_eq!(warnings.len(), 1);
        // Seed zero is a perfectly good seed.
        let (c, warnings) = config_from_vars(vars(&[("REPRO_SEED", "0")]));
        assert_eq!(c.seed, 0);
        assert!(warnings.is_empty());
    }
}
