//! Late jobs re-joining the golden-shadow sweep, against their oracle. A
//! fork-engine job whose faulty machine is back in the golden state at the
//! end of the window it left in, apart from the clock, rides the sweep
//! again with its fault state and its cycle offset; full re-execution
//! steps every cycle. Both must give the same records, with the safety
//! mechanisms configured and under faithful clocking.

use fault_inject::{Campaign, CampaignResult, Execution, FaultOutcome, Target};
use leon3_model::Leon3Config;
use rtl_sim::FaultKind;
use workloads::{Benchmark, Params};

/// Cache-memory samples whose masked jobs run late and re-join. On the
/// membench sample, an open line that re-joins holds a bit the raw net no
/// longer carries when the sweep takes it back.
const LATE: [(Benchmark, u64); 2] = [(Benchmark::Rspeed, 0x44), (Benchmark::Membench, 10)];

fn campaign(benchmark: Benchmark, seed: u64) -> Campaign {
    Campaign::new(benchmark.program(&Params::default()), Target::CacheMemory)
        .with_sample(12, seed)
        .with_kinds(&[
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
        ])
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

/// Masked jobs that still simulated: the ones that can have re-joined.
fn late_no_effects(result: &CampaignResult) -> usize {
    result
        .records()
        .iter()
        .filter(|r| r.activated && r.outcome == FaultOutcome::NoEffect)
        .count()
}

#[test]
fn rejoined_jobs_give_the_records_of_full_reexecution() {
    for (benchmark, seed) in LATE {
        let campaign = campaign(benchmark, seed);
        for threads in [1, 3] {
            let fork = assert_matches_oracle(&campaign, threads);
            assert!(late_no_effects(&fork) > 0, "{benchmark:?}");
        }
    }
}

#[test]
fn rejoined_jobs_keep_every_safety_detection() {
    for (benchmark, seed) in LATE {
        let checked = campaign(benchmark, seed)
            .with_lockstep_window(4)
            .with_parity(true);
        for threads in [1, 3] {
            let s = *assert_matches_oracle(&checked, threads).stats();
            assert!(s.detected_lockstep + s.detected_parity > 0, "{s:?}");
        }
    }
}

#[test]
fn rejoined_jobs_match_under_faithful_clocking() {
    // Faithful clocking only adds per-cycle work that no record observes,
    // so plain full re-execution stays the oracle, as for closed loops.
    for (benchmark, seed) in LATE {
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
        }
    }
}

#[test]
fn intermittent_jobs_match_the_oracle_without_rejoining() {
    // This fault makes membench jobs late, and some are back in the golden
    // state at their window end; but its duty cycle follows the clock, so
    // such a job is not closable and must not ride the sweep again.
    let campaign = Campaign::new(
        Benchmark::Membench.program(&Params::default()),
        Target::CacheMemory,
    )
    .with_sample(12, 5)
    .with_kinds(&[FaultKind::IntermittentStuck {
        level: true,
        period: 64,
        duty: 8,
        phase: 0,
    }])
    .with_injection_fraction(0.3);
    for threads in [1, 3] {
        assert_matches_oracle(&campaign, threads);
    }
}
