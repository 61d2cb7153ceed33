//! The fork engine's correctness bar: checkpoint-and-fork campaigns must
//! produce **bit-identical records** to full re-execution — across
//! workloads and across both injection domains — while simulating
//! measurably fewer cycles.

use fault_inject::{fault_sites, Campaign, ExecOptions, Execution, FaultOutcome, Target};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use workloads::{Benchmark, Params};

fn assert_equivalent(benchmark: Benchmark, target: Target, seed: u64) {
    let program = benchmark.program(&Params::default());
    let campaign = Campaign::new(program, target)
        .with_sample(12, seed)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3);
    let fork = campaign.run(4);
    let full = campaign
        .clone()
        .with_execution(Execution::FullReexecution)
        .run(4);

    assert_eq!(
        fork.records(),
        full.records(),
        "{} on {target:?}: fork and full re-execution must agree record-for-record",
        benchmark.name(),
    );
    let (f, r) = (fork.stats(), full.stats());
    assert_eq!(f.jobs, r.jobs);
    assert_eq!(f.forked + f.skipped_inactive, f.jobs);
    assert!(
        f.cycles_simulated < r.cycles_simulated,
        "{} on {target:?}: fork must simulate fewer cycles ({} vs {})",
        benchmark.name(),
        f.cycles_simulated,
        r.cycles_simulated,
    );
    assert!(
        f.cycles_avoided > 0,
        "{} on {target:?}: no savings reported",
        benchmark.name()
    );
    // Exact cycle ledger: both engines stop every non-skipped run at the
    // identical step, a skipped run would have re-traced the golden run in
    // full, and the fork engine pays the shared prefix exactly once — so
    // fork-simulated + fork-avoided exceeds the full engine's bill by
    // precisely that one prefix.
    assert_eq!(
        f.cycles_simulated + f.cycles_avoided,
        r.cycles_simulated + f.prefix_cycles,
        "{} on {target:?}: cycle ledgers disagree",
        benchmark.name(),
    );
}

#[test]
fn intbench_integer_unit() {
    assert_equivalent(Benchmark::Intbench, Target::IntegerUnit, 0x11);
}

#[test]
fn intbench_cache_memory() {
    assert_equivalent(Benchmark::Intbench, Target::CacheMemory, 0x22);
}

#[test]
fn rspeed_integer_unit() {
    assert_equivalent(Benchmark::Rspeed, Target::IntegerUnit, 0x33);
}

#[test]
fn rspeed_cache_memory() {
    assert_equivalent(Benchmark::Rspeed, Target::CacheMemory, 0x44);
}

#[test]
fn pair_campaigns_are_equivalent_too() {
    let program = Benchmark::Membench.program(&Params::default());
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sample(8, 0x55)
        .with_kinds(&[FaultKind::StuckAt0])
        .with_injection_fraction(0.2);
    let pairs = ExecOptions {
        pairs: true,
        ..ExecOptions::default()
    };
    let fork = campaign
        .execute(4, &pairs)
        .expect("valid campaign")
        .remove(0);
    let full = campaign
        .clone()
        .with_execution(Execution::FullReexecution)
        .execute(4, &pairs)
        .expect("valid campaign")
        .remove(0);
    assert_eq!(fork.records(), full.records());
    assert!(fork.stats().cycles_simulated < full.stats().cycles_simulated);
}

#[test]
fn faulted_store_bus_address_is_a_bus_error_not_a_panic() {
    // A stuck bit on the cache's bus address can carry a store that the
    // memory stage validated outside RAM or off alignment. The model must
    // treat it as a bus error (the write still leaves the core at the
    // corrupted address), never panic into an engine anomaly.
    let reference = Leon3::new(Leon3Config::default());
    let sites: Vec<_> = fault_sites(&reference, Target::CacheMemory)
        .into_iter()
        .filter(|site| reference.pool().meta(site.net).name == "cmem.bus.addr")
        .collect();
    assert_eq!(sites.len(), 32);
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::CacheMemory,
    )
    .with_sites(sites)
    .with_kinds(&[
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::OpenLine,
    ])
    .with_injection_fraction(0.3);
    let fork = campaign.run(2);
    let anomalies: Vec<_> = fork
        .records()
        .iter()
        .filter(|r| matches!(r.outcome, FaultOutcome::EngineAnomaly { .. }))
        .collect();
    assert!(anomalies.is_empty(), "engine anomalies: {anomalies:?}");
    assert!(fork
        .records()
        .iter()
        .any(|r| matches!(r.outcome, FaultOutcome::Failure { .. })));
    let full = campaign.with_execution(Execution::FullReexecution).run(2);
    assert_eq!(fork.records(), full.records());
}
