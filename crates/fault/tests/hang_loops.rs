//! Closed hang loops against their oracle. A fork-engine job that proves
//! its faulty machine repeats an exact state skips the whole passes through
//! that loop its hang budget has room for; full re-execution steps every
//! cycle. Both must give the same records, with every safety mechanism
//! configured and under faithful clocking.

use fault_inject::{Campaign, CampaignResult, Execution, FaultOutcome, GoldenRun, Target};
use leon3_model::Leon3Config;
use rtl_sim::FaultKind;
use workloads::{Benchmark, Params};

/// Samples with stuck-at jobs that hang in exact loops.
const HANGING: [(Benchmark, u64); 3] = [
    (Benchmark::Canrdr, 7),
    (Benchmark::Ttsprk, 12),
    (Benchmark::Puwmod, 3),
];

fn campaign(benchmark: Benchmark, seed: u64) -> Campaign {
    Campaign::new(benchmark.program(&Params::default()), Target::IntegerUnit)
        .with_sample(12, seed)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3)
}

/// Run `campaign` on both engines and demand identical records, the same
/// outcome and safety buckets, and the per-job fork ledger. Returns the
/// fork engine's result.
fn assert_matches_oracle(campaign: &Campaign, threads: usize) -> CampaignResult {
    let fork = campaign.try_run(threads).expect("valid campaign");
    let full = campaign
        .clone()
        .with_execution(Execution::FullReexecution)
        .try_run(threads)
        .expect("valid campaign");
    assert_eq!(fork.records(), full.records(), "records differ");
    let (s, f) = (fork.stats(), full.stats());
    let buckets = |s: &fault_inject::CampaignStats| {
        [
            s.jobs,
            s.short_circuited,
            s.timed_out,
            s.anomalies,
            s.safe,
            s.detected_lockstep,
            s.detected_parity,
            s.detected_watchdog,
            s.residual,
            s.latent,
        ]
    };
    assert_eq!(buckets(s), buckets(f), "{s:?} vs {f:?}");
    assert_eq!(
        s.cycles_simulated + s.cycles_avoided,
        f.cycles_simulated + f.cycles_avoided + s.prefix_cycles,
        "cycle ledgers disagree: {s:?} vs {f:?}"
    );
    fork
}

fn hangs(result: &CampaignResult) -> usize {
    result
        .records()
        .iter()
        .filter(|r| matches!(r.outcome, FaultOutcome::Hang { .. }))
        .count()
}

#[test]
fn closed_loops_give_the_records_of_full_reexecution() {
    for (benchmark, seed) in HANGING {
        let campaign = campaign(benchmark, seed);
        for threads in [1, 3] {
            let fork = assert_matches_oracle(&campaign, threads);
            assert!(hangs(&fork) > 0, "{benchmark:?} has no hang to close");
        }
    }
}

#[test]
fn closed_loops_keep_every_safety_detection() {
    for (benchmark, seed) in HANGING {
        let program = benchmark.program(&Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        // The lockstep comparator catches a hang before the watchdog
        // starves, so each gets a campaign of its own.
        let watched = campaign(benchmark, seed)
            .with_watchdog_cycles(golden.max_write_gap * 2)
            .with_parity(true);
        let compared = campaign(benchmark, seed)
            .with_lockstep_window(4)
            .with_parity(true);
        for threads in [1, 3] {
            let s = *assert_matches_oracle(&watched, threads).stats();
            assert!(s.detected_watchdog > 0, "{benchmark:?}: {s:?}");
            let s = *assert_matches_oracle(&compared, threads).stats();
            assert!(s.detected_lockstep > 0, "{benchmark:?}: {s:?}");
        }
    }
}

#[test]
fn closed_loops_match_under_faithful_clocking() {
    // Faithful clocking only adds per-cycle work that no record observes,
    // so plain full re-execution stays the oracle: with a fault injected,
    // that work costs full re-execution of one hang close to a minute.
    for (benchmark, seed) in HANGING {
        let campaign = campaign(benchmark, seed);
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .run(1);
        for threads in [1, 3] {
            let faithful = campaign
                .clone()
                .with_config(Leon3Config {
                    faithful_clocking: true,
                    ..Leon3Config::default()
                })
                .run(threads);
            assert_eq!(faithful.records(), full.records(), "{benchmark:?}");
            assert!(hangs(&faithful) > 0, "{benchmark:?}");
        }
    }
}
