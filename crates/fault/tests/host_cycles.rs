//! `fault_inject::host_cycles` counts what the host steps, which the
//! billed `cycles_simulated` does not show. The counter is process-wide
//! and the tests of one binary run in parallel, so this binary steps
//! campaigns only in its own tests, and they take turns reading it.

use fault_inject::{host_cycles, Campaign, CampaignResult, Execution, Target};
use rtl_sim::FaultKind;
use std::sync::{Mutex, PoisonError};
use workloads::{Benchmark, Params};

/// Held while a test reads the counter around a campaign.
static COUNTER: Mutex<()> = Mutex::new(());

/// Run `campaign` on one thread: its result and the cycles it stepped.
fn counted(campaign: Campaign) -> (CampaignResult, u64) {
    // A failed test's panic poisons the lock; the counter is still sound.
    let _turn = COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
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

#[test]
fn closed_hang_loops_step_a_fraction_of_what_they_bill() {
    // The `canrdr-iu-hang-loop` gate case: most of its billed cycles are
    // stuck-at hangs that loop exactly until their budget runs out.
    let campaign = Campaign::new(
        Benchmark::Canrdr.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(12, 7)
    .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
    .with_injection_fraction(0.3);
    let (fork, host) = counted(campaign);
    let billed = fork.stats().cycles_simulated;
    assert!(
        host * 5 < billed,
        "the fork engine stepped {host} cycles of the {billed} it billed"
    );
}

#[test]
fn rejoined_cache_jobs_step_under_three_tenths_of_what_they_bill() {
    // The `rspeed-cmem` gate case: most masked jobs run late with every
    // net back at its golden value, and ride the sweep again instead of
    // stepping to their end alone. Without re-joining the host steps over
    // a third of the bill.
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::CacheMemory,
    )
    .with_sample(12, 0xbe)
    .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
    .with_injection_fraction(0.3);
    let (fork, host) = counted(campaign);
    let billed = fork.stats().cycles_simulated;
    assert!(
        host * 10 < billed * 3,
        "the fork engine stepped {host} cycles of the {billed} it billed"
    );
}

#[test]
fn riding_transients_step_under_half_of_what_they_bill() {
    // Most flips on the integer unit are masked, and such a job re-joins
    // the sweep at the end of the window its flip lands in instead of
    // stepping to the golden halt alone. A job that ran alone from its
    // pool ancestor would step exactly what it bills.
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(12, 0xbe)
    .with_kinds(&[FaultKind::TransientFlip])
    .with_injection_fraction(0.3);
    let (fork, host) = counted(campaign);
    let billed = fork.stats().cycles_simulated;
    assert!(
        host * 2 < billed,
        "the fork engine stepped {host} cycles of the {billed} it billed"
    );
}
