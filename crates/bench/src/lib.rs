//! Shared helpers for the `repro` binary: experiment sizing from the
//! environment, and the bench-regression gate behind `repro benchgate`.

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

/// The CI bench-regression gate, `repro benchgate`: one table of cases,
/// one measurement per case on both engines, and one committed baseline,
/// `BENCH_gate.json`.
///
/// Wall-clock throughput is runner-dependent, so the gate compares cycle
/// counts, which are deterministic (independent of load and machine).
/// Each case gates two ratios of the fork engine to full re-execution:
/// the *billed* cycles ratio (`cycles_simulated`, each job counted as if
/// it ran alone from its pool ancestor) and the *host* ratio
/// ([`fault_inject::host_cycles`], what the host actually stepped). A
/// correlation case also holds its fitted R² to
/// [`R2_FLOOR`](gate::R2_FLOOR). Every case runs on one thread: the billed
/// ratio does not depend on the thread count, but the host count does,
/// since each worker sweeps the golden run once.
pub mod gate {
    use fault_inject::wire::Json;
    use fault_inject::{
        host_cycles, merge_correlation_shards, Campaign, CorrelationSpec, ExecOptions, Execution,
        GoldenRun, InjectionInstant, Target,
    };
    use leon3_model::Leon3Config;
    use rtl_sim::FaultKind;
    use std::fmt::Write as _;
    use workloads::{Benchmark, Params};

    /// The committed baseline, relative to the repository root.
    pub const BASELINE: &str = "BENCH_gate.json";

    /// Relative tolerance on every gated ratio: a measured ratio above
    /// `baseline * (1 + TOLERANCE)` is a regression.
    pub const TOLERANCE: f64 = 0.25;

    /// Minimum R² of a correlation case's best-fitting domain.
    pub const R2_FLOOR: f64 = 0.85;

    /// What a gate case runs on each engine.
    pub enum Workload {
        /// A campaign, run at every listed instant (at its own instant
        /// when the list is empty).
        Campaign(fn() -> (Campaign, Vec<InjectionInstant>)),
        /// A correlation sweep; the case also gates the fitted R².
        Correlation(fn() -> CorrelationSpec),
    }

    /// One gate case: a small deterministic workload under a stable name.
    pub struct GateCase {
        /// Stable name keying the baseline entry.
        pub name: &'static str,
        /// What the case runs.
        pub workload: Workload,
    }

    /// Every gate case, in report order.
    pub const CASES: [GateCase; 6] = [
        // Permanent faults, one case per fault domain the engine treats
        // differently.
        GateCase {
            name: "intbench-iu",
            workload: Workload::Campaign(|| {
                (
                    smoke(Benchmark::Intbench, Target::IntegerUnit, 0xbe),
                    vec![],
                )
            }),
        },
        GateCase {
            name: "rspeed-cmem",
            workload: Workload::Campaign(|| {
                (smoke(Benchmark::Rspeed, Target::CacheMemory, 0xbe), vec![])
            }),
        },
        // Most of this sample's own-run cycles are stuck-at hangs in exact
        // loops: a change that stopped closing them would step about
        // seven times the host cycles.
        GateCase {
            name: "canrdr-iu-hang-loop",
            workload: Workload::Campaign(|| {
                (smoke(Benchmark::Canrdr, Target::IntegerUnit, 7), vec![])
            }),
        },
        // Time-varying faults over twelve instants and a stride grid: the
        // schedules must survive every restore and replay boundary.
        GateCase {
            name: "rspeed-iu-intermittent-dense",
            workload: Workload::Campaign(intermittent_dense),
        },
        // Static pruning on both engines: a change that stops pruning
        // doubles the billed ratio.
        GateCase {
            name: "rspeed-iu-transient-static",
            workload: Workload::Campaign(|| {
                let program = Benchmark::Rspeed.program(&Params::default());
                let campaign = Campaign::new(program, Target::IntegerUnit)
                    .with_sample(60, 0xdac)
                    .with_kinds(&[FaultKind::TransientFlip])
                    .with_injection_fraction(0.3)
                    .with_static_analysis(true);
                (campaign, vec![])
            }),
        },
        // The paper's Table 1 sweep (six kernels plus their low-diversity
        // excerpts), stuck-at-1 at IU nodes, injected at 30% of each run.
        GateCase {
            name: "table1-iu-stuck1",
            workload: Workload::Correlation(|| {
                let mut spec = CorrelationSpec::new();
                spec.sample = Some((48, 0xd1));
                spec.injection = InjectionInstant::Fraction(0.3);
                spec
            }),
        },
    ];

    /// Stuck-at-1 and open-line faults on twelve sites sampled with
    /// `seed`, at 30% of the golden run.
    fn smoke(benchmark: Benchmark, target: Target, seed: u64) -> Campaign {
        Campaign::new(benchmark.program(&Params::default()), target)
            .with_sample(12, seed)
            .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
            .with_injection_fraction(0.3)
    }

    /// Intermittent stuck-at and burst faults at twelve instants, over a
    /// pool with a checkpoint every eighth of the golden run.
    fn intermittent_dense() -> (Campaign, Vec<InjectionInstant>) {
        let program = Benchmark::Rspeed.program(&Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let campaign = Campaign::new(program, Target::IntegerUnit)
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
            .with_checkpoint_stride((golden.cycles / 8).max(1));
        let instants = (1..=12)
            .map(|i| InjectionInstant::Fraction(f64::from(i) / 13.0))
            .collect();
        (campaign, instants)
    }

    /// A case's deterministic measurement.
    #[derive(Debug)]
    pub struct GateMeasurement {
        /// The case name.
        pub name: &'static str,
        /// Cycles the fork engine billed.
        pub fork_cycles: u64,
        /// Cycles full re-execution billed, which are the cycles it
        /// stepped.
        pub full_cycles: u64,
        /// Cycles the fork engine stepped on the host.
        pub host_cycles: u64,
        /// R² of a correlation sweep's best-fitting domain.
        pub r2: Option<f64>,
    }

    impl GateMeasurement {
        /// Billed fork cycles over full re-execution cycles (lower is
        /// better; 1.0 = the fork engine saves nothing).
        pub fn cycles_ratio(&self) -> f64 {
            self.fork_cycles as f64 / self.full_cycles as f64
        }

        /// Host-stepped fork cycles over full re-execution cycles.
        pub fn host_ratio(&self) -> f64 {
            self.host_cycles as f64 / self.full_cycles as f64
        }
    }

    /// Run one case on both engines, on one thread.
    ///
    /// # Panics
    ///
    /// Panics if the statically valid case fails to run or to fit.
    pub fn measure(case: &GateCase) -> GateMeasurement {
        let before = host_cycles();
        let (fork_cycles, r2) = run(case, Execution::Fork);
        let host = host_cycles() - before;
        let (full_cycles, _) = run(case, Execution::FullReexecution);
        GateMeasurement {
            name: case.name,
            fork_cycles,
            full_cycles,
            host_cycles: host,
            r2,
        }
    }

    /// Run a case on one engine: its billed cycles and, for a correlation
    /// sweep on the fork engine, the fitted R².
    fn run(case: &GateCase, execution: Execution) -> (u64, Option<f64>) {
        const VALID: &str = "gate cases are statically valid";
        match case.workload {
            Workload::Campaign(build) => {
                let (campaign, instants) = build();
                let options = ExecOptions {
                    instants: (!instants.is_empty()).then_some(instants.as_slice()),
                    ..ExecOptions::default()
                };
                let results = campaign
                    .with_execution(execution)
                    .execute(1, &options)
                    .expect(VALID);
                (
                    results.iter().map(|r| r.stats().cycles_simulated).sum(),
                    None,
                )
            }
            // The sweep itself always forks, so full re-execution runs its
            // cell campaigns one by one.
            Workload::Correlation(spec) => {
                let spec = spec();
                if execution == Execution::Fork {
                    let shard = spec.run(1).expect(VALID);
                    let cycles = shard
                        .results
                        .iter()
                        .map(|r| r.result.stats().cycles_simulated)
                        .sum();
                    let report = merge_correlation_shards(vec![shard]).expect(VALID);
                    return (cycles, Some(report.best_domain().model.r2));
                }
                let cycles = spec
                    .jobs()
                    .iter()
                    .map(|(cell, target)| {
                        let campaign = spec.campaign(cell, *target).with_execution(execution);
                        campaign.try_run(1).expect(VALID).stats().cycles_simulated
                    })
                    .sum();
                (cycles, None)
            }
        }
    }

    /// Serialize measurements as the baseline file (`repro benchgate
    /// --write`).
    pub fn baseline_json(measurements: &[GateMeasurement]) -> String {
        let mut s = String::from("{\n  \"cases\": [\n");
        for (i, m) in measurements.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                concat!(
                    "    {{\n",
                    "      \"name\": \"{}\",\n",
                    "      \"fork_cycles\": {},\n",
                    "      \"full_cycles\": {},\n",
                    "      \"host_cycles\": {},\n",
                    "      \"cycles_ratio\": {:.4},\n",
                    "      \"host_ratio\": {:.4}"
                ),
                m.name,
                m.fork_cycles,
                m.full_cycles,
                m.host_cycles,
                m.cycles_ratio(),
                m.host_ratio(),
            );
            if let Some(r2) = m.r2 {
                let _ = write!(s, ",\n      \"r2\": {r2:.4}");
            }
            s.push_str("\n    }");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Compare measurements against the baseline: each case's cycles and
    /// host ratios must stay within [`TOLERANCE`] of its committed values,
    /// and a fitted R² must reach [`R2_FLOOR`].
    ///
    /// `perturb` degrades every measured quantity before the comparison —
    /// ratios multiplied, R² divided — so CI can prove each gate fires.
    ///
    /// # Errors
    ///
    /// A malformed baseline, a case measured but missing from it (or the
    /// reverse), or any regression fails the gate; the error lines
    /// describe every failure. On success, one line per gated quantity.
    pub fn check(
        baseline: &str,
        measurements: &[GateMeasurement],
        perturb: f64,
    ) -> Result<Vec<String>, Vec<String>> {
        let v = Json::parse(baseline).map_err(|e| vec![format!("baseline unreadable: {e}")])?;
        let entries = v
            .get_array("cases")
            .ok_or_else(|| vec!["baseline has no `cases`".to_string()])?;
        let mut report = Vec::new();
        let mut failures = Vec::new();
        let mut judge = |failed: bool, line: String| {
            if failed {
                failures.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        };
        let mut missing = Vec::new();
        for entry in entries {
            let name = entry.get_str("name").unwrap_or("");
            if !measurements.iter().any(|m| m.name == name) {
                missing.push(format!("gate case `{name}` is unknown to this binary"));
            }
        }
        for m in measurements {
            let name = m.name;
            let Some(entry) = entries.iter().find(|e| e.get_str("name") == Some(name)) else {
                missing.push(format!("gate case `{name}` has no baseline"));
                continue;
            };
            for (quantity, measured) in [
                ("cycles_ratio", m.cycles_ratio()),
                ("host_ratio", m.host_ratio()),
            ] {
                let Some(baseline) = entry.get_f64(quantity) else {
                    missing.push(format!("gate case `{name}` has no {quantity}"));
                    continue;
                };
                let measured = measured * perturb;
                let limit = baseline * (1.0 + TOLERANCE);
                judge(
                    measured > limit,
                    format!(
                        "{name}: {quantity} {measured:.4} vs baseline {baseline:.4} (limit {limit:.4})"
                    ),
                );
            }
            if let Some(r2) = m.r2 {
                let r2 = r2 / perturb;
                judge(
                    r2 < R2_FLOOR,
                    format!("{name}: r2 {r2:.4} (floor {R2_FLOOR:.4})"),
                );
            }
        }
        failures.extend(missing);
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

    fn measured(name: &'static str, r2: Option<f64>) -> gate::GateMeasurement {
        gate::GateMeasurement {
            name,
            fork_cycles: 300,
            full_cycles: 1000,
            host_cycles: 100,
            r2,
        }
    }

    #[test]
    fn a_written_baseline_passes_and_every_quantity_fails_perturbed() {
        let cases = [measured("a", None), measured("b", Some(0.97))];
        let baseline = gate::baseline_json(&cases);
        let report = gate::check(&baseline, &cases, 1.0).expect("unchanged measurements pass");
        assert_eq!(report.len(), 5, "{report:?}");
        let failures = gate::check(&baseline, &cases, 1.5).expect_err("perturbed run fails");
        assert_eq!(failures.len(), 5, "{failures:?}");
        assert!(failures.iter().all(|line| line.starts_with("REGRESSION ")));
        assert!(
            failures[4].contains("b: r2 0.6467 (floor 0.8500)"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_case_missing_from_either_side_fails_the_gate() {
        let baseline = gate::baseline_json(&[measured("a", None), measured("gone", None)]);
        let failures = gate::check(
            &baseline,
            &[measured("a", None), measured("new", None)],
            1.0,
        )
        .expect_err("mismatched case lists fail");
        assert_eq!(
            failures,
            [
                "gate case `gone` is unknown to this binary",
                "gate case `new` has no baseline"
            ]
        );
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
