//! Checkpoint-tree engine equivalence: a dense any-instant transient
//! sweep on the fork engine must produce records bit-identical to full
//! re-execution with **zero** full-re-execution fallbacks, exercising
//! both billing paths (exact-boundary fork and ancestor replay once the
//! pool is thinned past `MAX_POOL_CHECKPOINTS`; every job rides the
//! golden-shadow sweep on the host), and a multi-instant journal must
//! resume only into the sweep that wrote it.

use fault_inject::{
    Campaign, CampaignError, ExecOptions, Execution, GoldenRun, InjectionInstant, JournalError,
    JournalMode, Target, MAX_POOL_CHECKPOINTS,
};
use rtl_sim::FaultKind;
use std::fs;
use std::path::PathBuf;
use workloads::{Benchmark, Params};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fault-checkpoint-itests");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Options for one sweep over `instants`, journaled as `journal` says.
fn sweep<'a>(instants: &'a [InjectionInstant], journal: JournalMode<'a>) -> ExecOptions<'a> {
    ExecOptions {
        instants: Some(instants),
        journal,
        ..ExecOptions::default()
    }
}

/// A dense sweep: one instant every ~2% of the golden run, comfortably
/// more boundaries than the pool cap so some jobs must replay.
fn dense_instants(n: usize) -> Vec<InjectionInstant> {
    (1..=n)
        .map(|i| InjectionInstant::Fraction(i as f64 / (n + 1) as f64))
        .collect()
}

fn transient_campaign(target: Target, sample: usize, seed: u64) -> Campaign {
    Campaign::new(Benchmark::Rspeed.program(&Params::default()), target)
        .with_sample(sample, seed)
        .with_kinds(&[FaultKind::TransientFlip])
}

/// The tentpole acceptance property: a dense transient sweep on the fork
/// engine matches full re-execution record-for-record, with zero
/// full-re-execution fallbacks and a genuinely exercised replay path.
fn assert_dense_sweep_equivalence(target: Target, seed: u64) {
    let instants = dense_instants(MAX_POOL_CHECKPOINTS + 4);
    let forked = transient_campaign(target, 4, seed)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("fork sweep");
    let full = transient_campaign(target, 4, seed)
        .with_execution(Execution::FullReexecution)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("full sweep");
    assert_eq!(forked.len(), instants.len());
    let mut restored_total = 0;
    let mut forked_total = 0;
    for (f, r) in forked.iter().zip(&full) {
        assert_eq!(
            f.records(),
            r.records(),
            "fork and full re-execution must agree record-for-record"
        );
        assert_eq!(
            f.stats().full_reexecutions,
            0,
            "no job may fall back to full re-execution: {:?}",
            f.stats()
        );
        restored_total += f.stats().restored_from_checkpoint;
        forked_total += f.stats().forked;
    }
    // More distinct boundaries than pool slots: thinning must have forced
    // some jobs onto the ancestor-replay path, and the surviving
    // checkpoints still serve others exactly.
    assert!(restored_total > 0, "replay path never exercised");
    assert!(forked_total > 0, "exact-boundary forks never exercised");
    let pool = forked[0].stats().checkpoints_taken;
    assert!(
        pool <= MAX_POOL_CHECKPOINTS,
        "pool must be thinned to the cap, got {pool}"
    );
    assert!(forked[0].stats().checkpoint_bytes > 0);
    // Replay is bounded by construction: the gaps replayed are part of
    // cycles_simulated, and the whole sweep still simulates strictly less
    // than full re-execution.
    let fork_cycles: u64 = forked.iter().map(|r| r.stats().cycles_simulated).sum();
    let full_cycles: u64 = full.iter().map(|r| r.stats().cycles_simulated).sum();
    assert!(
        fork_cycles < full_cycles,
        "fork {fork_cycles} >= full {full_cycles}"
    );
}

#[test]
fn dense_transient_sweep_matches_full_reexecution_on_iu() {
    assert_dense_sweep_equivalence(Target::IntegerUnit, 0xC3);
}

#[test]
fn dense_transient_sweep_matches_full_reexecution_on_cmem() {
    assert_dense_sweep_equivalence(Target::CacheMemory, 0xD4);
}

fn time_varying_campaign(sample: usize, seed: u64) -> Campaign {
    Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(sample, seed)
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
}

/// The time-varying acceptance property: a dense **intermittent + burst**
/// sweep under `Execution::Fork` with a stride checkpoint grid is
/// bit-identical to full re-execution. This is the restore-boundary
/// stress: a restored job's fault schedule is a pure function of
/// `(params, from_cycle, clock)` for intermittents and re-armed flip
/// counters for bursts, so a checkpoint taken mid-window, mid-release or
/// mid-train must replay the exact same assertion schedule the straight
/// run saw.
#[test]
fn dense_intermittent_sweep_matches_full_reexecution_with_stride_grid() {
    let instants = dense_instants(MAX_POOL_CHECKPOINTS + 4);
    let golden = GoldenRun::capture(
        &Benchmark::Rspeed.program(&Params::default()),
        &leon3_model::Leon3Config::default(),
    );
    let forked = time_varying_campaign(4, 0xB7)
        .with_checkpoint_stride(golden.cycles / 8)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("fork sweep");
    let full = time_varying_campaign(4, 0xB7)
        .with_execution(Execution::FullReexecution)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("full sweep");
    let mut restored_total = 0;
    for (f, r) in forked.iter().zip(&full) {
        assert_eq!(
            f.records(),
            r.records(),
            "time-varying fork and full re-execution must agree record-for-record"
        );
        assert_eq!(f.stats().full_reexecutions, 0);
        restored_total += f.stats().restored_from_checkpoint;
    }
    assert!(
        restored_total > 0,
        "the restore/replay path must be genuinely exercised"
    );
    // Both kinds produced activity somewhere in the sweep — the
    // equivalence above is not vacuous.
    let kinds_seen: Vec<FaultKind> = forked
        .iter()
        .flat_map(|r| r.records().iter().map(|rec| rec.kind))
        .collect();
    assert!(kinds_seen
        .iter()
        .any(|k| matches!(k, FaultKind::IntermittentStuck { .. })));
    assert!(kinds_seen
        .iter()
        .any(|k| matches!(k, FaultKind::TransientBurst { .. })));
}

#[test]
fn stride_grid_shortens_replay_without_changing_records() {
    // Same dense sweep with a stride: extra grid checkpoints change only
    // the cost ledger (records and outcome classes stay bit-identical).
    let instants = dense_instants(MAX_POOL_CHECKPOINTS + 4);
    let plain = transient_campaign(Target::IntegerUnit, 4, 0xE5)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("plain sweep");
    let golden = GoldenRun::capture(
        &Benchmark::Rspeed.program(&Params::default()),
        &leon3_model::Leon3Config::default(),
    );
    let strided = transient_campaign(Target::IntegerUnit, 4, 0xE5)
        .with_checkpoint_stride(golden.cycles / 8)
        .execute(4, &sweep(&instants, JournalMode::None))
        .expect("strided sweep");
    for (p, s) in plain.iter().zip(&strided) {
        assert_eq!(p.records(), s.records());
        assert_eq!(p.stats().full_reexecutions, 0);
        assert_eq!(s.stats().full_reexecutions, 0);
    }
}

#[test]
fn multi_instant_journal_resumes_bit_identically() {
    let path = temp_path("multi-resume.jsonl");
    let instants = [
        InjectionInstant::Fraction(0.2),
        InjectionInstant::Fraction(0.5),
        InjectionInstant::Fraction(0.8),
    ];
    let campaign = transient_campaign(Target::IntegerUnit, 8, 0xF6)
        .with_kinds(&[FaultKind::TransientFlip, FaultKind::StuckAt1]);
    let uninterrupted = campaign
        .execute(4, &sweep(&instants, JournalMode::Create(&path)))
        .expect("journaled sweep");

    // Simulate a kill: keep the header, half the entries, and a torn tail.
    let text = fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 4, "need enough jobs to interrupt");
    let keep = 1 + (lines.len() - 1) / 2;
    let mut killed = lines[..keep].join("\n");
    killed.push('\n');
    killed.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &killed).expect("truncate journal");

    let resumed = campaign
        .execute(4, &sweep(&instants, JournalMode::Resume(&path)))
        .expect("resume");
    assert_eq!(resumed.len(), uninterrupted.len());
    let mut resumed_jobs = 0;
    for (r, u) in resumed.iter().zip(&uninterrupted) {
        assert_eq!(r.records(), u.records(), "resume must be bit-identical");
        assert_eq!(r.stats().full_reexecutions, 0);
        resumed_jobs += r.stats().resumed;
    }
    assert_eq!(resumed_jobs, keep - 1, "every intact line replays");

    // Resuming again replays everything and simulates nothing new.
    let replayed = campaign
        .execute(4, &sweep(&instants, JournalMode::Resume(&path)))
        .expect("again");
    let total: usize = replayed.iter().map(|r| r.stats().resumed).sum();
    let jobs: usize = replayed.iter().map(|r| r.stats().jobs).sum();
    assert_eq!(total, jobs);
}

#[test]
fn resume_refuses_a_different_instant_list_or_stride() {
    let path = temp_path("multi-foreign.jsonl");
    let instants = [
        InjectionInstant::Fraction(0.3),
        InjectionInstant::Fraction(0.7),
    ];
    let campaign = transient_campaign(Target::IntegerUnit, 6, 0xA7);
    campaign
        .execute(2, &sweep(&instants, JournalMode::Create(&path)))
        .expect("journaled sweep");

    // Same instant count, different values: the instants hash refuses.
    let shifted = [
        InjectionInstant::Fraction(0.3),
        InjectionInstant::Fraction(0.9),
    ];
    match campaign.execute(2, &sweep(&shifted, JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "instants_hash");
        }
        other => panic!("expected an instants_hash mismatch, got {other:?}"),
    }

    // A different instant count changes the job universe first.
    match campaign.execute(2, &sweep(&instants[..1], JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "jobs");
        }
        other => panic!("expected a jobs mismatch, got {other:?}"),
    }

    // A different checkpoint stride changes every entry's cost delta —
    // refused by name, before the opaque fingerprint.
    match campaign
        .clone()
        .with_checkpoint_stride(1_000)
        .execute(2, &sweep(&instants, JournalMode::Resume(&path)))
    {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "checkpoint_stride");
        }
        other => panic!("expected a checkpoint_stride mismatch, got {other:?}"),
    }

    // A single-instant journal of the same campaign is likewise foreign
    // to the sweep.
    let single = temp_path("single.jsonl");
    campaign
        .clone()
        .with_injection_fraction(0.3)
        .execute(
            2,
            &ExecOptions {
                journal: JournalMode::Create(&single),
                ..ExecOptions::default()
            },
        )
        .expect("single journal");
    match campaign.execute(2, &sweep(&instants, JournalMode::Resume(&single))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { .. })) => {}
        other => panic!("expected a header mismatch, got {other:?}"),
    }
}
