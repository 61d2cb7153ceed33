//! `fault_inject::host_cycles` counts what the host steps, which the
//! billed `cycles_simulated` does not show. The counter is process-wide
//! and the tests of one binary run in parallel, so this binary holds one
//! test and nothing else steps a campaign while it reads the counter.

use fault_inject::{host_cycles, Campaign, CampaignResult, Execution, Target};
use rtl_sim::FaultKind;
use workloads::{Benchmark, Params};

/// Run `campaign` on one thread: its result and the cycles it stepped.
fn counted(campaign: Campaign) -> (CampaignResult, u64) {
    let before = host_cycles();
    let result = campaign.try_run(1).expect("the campaign is valid");
    (result, host_cycles() - before)
}

#[test]
fn full_reexecution_steps_what_it_bills_and_the_sweep_steps_less() {
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::CacheMemory,
    )
    .with_sample(12, 0xbe)
    .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
    .with_injection_fraction(0.3);

    let (full, full_host) = counted(campaign.clone().with_execution(Execution::FullReexecution));
    assert_eq!(full_host, full.stats().cycles_simulated);

    let (fork, fork_host) = counted(campaign.with_execution(Execution::Fork));
    assert_eq!(fork.records(), full.records());
    let billed = fork.stats().cycles_simulated;
    assert!(
        fork_host < billed,
        "the golden-shadow sweep stepped {fork_host} cycles of the {billed} it billed"
    );
    // The pool prefix alone is stepped, so the count is never zero.
    assert!(fork_host >= fork.stats().prefix_cycles);
}
