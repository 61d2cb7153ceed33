//! Crash-safety integration tests: a campaign killed mid-run and resumed
//! from its write-ahead journal reconstitutes a bit-identical result; a
//! deliberately poisoned fault site costs one job, not the campaign; and
//! configuration mistakes surface as structured errors, not panics.

use fault_inject::{
    Campaign, CampaignError, ExecOptions, Execution, FaultOutcome, FaultSite, InjectionInstant,
    JournalError, JournalMode, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_isa::Unit;
use std::fs;
use std::path::PathBuf;
use workloads::{Benchmark, Params};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fault-journal-itests");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Options for a run at the campaign's own instant, journaled as
/// `journal` says.
fn journaled(journal: JournalMode<'_>) -> ExecOptions<'_> {
    ExecOptions {
        journal,
        ..ExecOptions::default()
    }
}

fn campaign(target: Target, seed: u64) -> Campaign {
    Campaign::new(Benchmark::Rspeed.program(&Params::default()), target)
        .with_sample(10, seed)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3)
}

/// Journal an uninterrupted run, then simulate a kill: truncate the file
/// to its header plus half the entries plus a *torn* final line, resume,
/// and demand a record- and stats-identical result (modulo `resumed`).
fn assert_kill_and_resume(target: Target, seed: u64, name: &str) {
    let path = temp_path(name);
    let campaign = campaign(target, seed);
    let uninterrupted = campaign
        .execute(4, &journaled(JournalMode::Create(&path)))
        .expect("journaled run")
        .remove(0);

    let text = fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > 4,
        "need enough jobs to interrupt meaningfully"
    );
    let keep = 1 + (lines.len() - 1) / 2;
    let mut killed = lines[..keep].join("\n");
    killed.push('\n');
    // The kill lands mid-append: half a JSON line, no newline.
    killed.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &killed).expect("truncate journal");

    let resumed = campaign
        .execute(4, &journaled(JournalMode::Resume(&path)))
        .expect("resume")
        .remove(0);
    assert_eq!(
        resumed.records(),
        uninterrupted.records(),
        "resume must reconstitute identical records"
    );
    let mut stats = *resumed.stats();
    assert_eq!(
        stats.resumed,
        keep - 1,
        "every intact journal line must be replayed, the torn one re-run"
    );
    stats.resumed = 0;
    assert_eq!(
        stats,
        *uninterrupted.stats(),
        "stats must match modulo the resumed counter"
    );

    // The resumed journal is complete: resuming again replays everything
    // and simulates nothing.
    let replayed = campaign
        .execute(4, &journaled(JournalMode::Resume(&path)))
        .expect("second resume")
        .remove(0);
    assert_eq!(replayed.records(), uninterrupted.records());
    assert_eq!(replayed.stats().resumed, replayed.stats().jobs);
}

#[test]
fn kill_and_resume_is_equivalent_on_iu() {
    assert_kill_and_resume(Target::IntegerUnit, 0xA1, "resume-iu.jsonl");
}

#[test]
fn kill_and_resume_is_equivalent_on_cmem() {
    assert_kill_and_resume(Target::CacheMemory, 0xB2, "resume-cmem.jsonl");
}

#[test]
fn a_journaled_dual_point_sweep_on_a_prepared_golden_run_resumes_to_the_oracle() {
    // Every execution option at once: dual-point faults at two instants,
    // the golden run taken from `prepare()`, journaled, then killed and
    // resumed. Each instant's records must equal full re-execution's.
    let path = temp_path("pairs-two-instants.jsonl");
    let campaign = campaign(Target::IntegerUnit, 0xC3);
    let prepared = campaign.prepare().expect("valid campaign");
    let instants = [
        InjectionInstant::Fraction(0.2),
        InjectionInstant::Fraction(0.6),
    ];
    let options = |journal| ExecOptions {
        instants: Some(&instants),
        pairs: true,
        journal,
        golden: Some(&prepared),
    };
    let uninterrupted = campaign
        .execute(2, &options(JournalMode::Create(&path)))
        .expect("journaled run");
    let oracle = campaign
        .clone()
        .with_execution(Execution::FullReexecution)
        .execute(
            2,
            &ExecOptions {
                instants: Some(&instants),
                pairs: true,
                ..ExecOptions::default()
            },
        )
        .expect("oracle run");
    assert_eq!(uninterrupted.len(), 2);
    for (result, full) in uninterrupted.iter().zip(&oracle) {
        // 10 sites chain into 9 pairs, under two fault models.
        assert_eq!(result.records().len(), 18);
        assert_eq!(result.records(), full.records());
    }

    let text = fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + (lines.len() - 1) / 2;
    let mut killed = lines[..keep].join("\n");
    killed.push('\n');
    killed.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &killed).expect("truncate journal");

    let resumed = campaign
        .execute(2, &options(JournalMode::Resume(&path)))
        .expect("resume");
    assert_eq!(
        resumed.iter().map(|r| r.stats().resumed).sum::<usize>(),
        keep - 1
    );
    for (result, live) in resumed.iter().zip(&uninterrupted) {
        assert_eq!(result.records(), live.records());
        let mut stats = *result.stats();
        stats.resumed = 0;
        assert_eq!(stats, *live.stats());
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn poisoned_site_costs_one_job_not_the_campaign() {
    // bit 63 on a 32-bit net: `NetPool::inject` panics inside the worker.
    // Panic isolation must retry once, classify the job EngineAnomaly and
    // let every other job complete normally.
    let cpu = Leon3::new(Leon3Config::default());
    let pc = cpu.nets().pc;
    let good = FaultSite {
        net: pc,
        bit: 2,
        unit: Unit::Fetch,
    };
    let poisoned = FaultSite {
        net: pc,
        bit: 63,
        unit: Unit::Fetch,
    };
    let result = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sites(vec![good, poisoned])
    .with_kinds(&[FaultKind::StuckAt1])
    .try_run(2)
    .expect("the campaign itself must complete");

    assert_eq!(result.records().len(), 2);
    let stats = result.stats();
    assert_eq!(stats.anomalies, 1, "{stats:?}");
    assert_eq!(stats.retried, 1, "one retry before giving up: {stats:?}");

    let healthy = &result.records()[0];
    assert!(
        !matches!(healthy.outcome, FaultOutcome::EngineAnomaly { .. }),
        "the healthy job must classify normally: {healthy:?}"
    );
    let anomaly = &result.records()[1];
    match &anomaly.outcome {
        FaultOutcome::EngineAnomaly { payload } => {
            assert!(
                payload.contains("outside net"),
                "the panic message must be preserved: {payload}"
            );
        }
        other => panic!("poisoned job must be an EngineAnomaly, got {other:?}"),
    }

    // Anomalies are excluded from the Pf denominator rather than counted
    // as either failures or no-effects.
    let summary = result.summary(FaultKind::StuckAt1);
    assert_eq!(summary.injections, 2);
    assert_eq!(summary.anomalies, 1);
}

#[test]
fn poisoned_jobs_survive_the_journal_round_trip() {
    let cpu = Leon3::new(Leon3Config::default());
    let pc = cpu.nets().pc;
    let path = temp_path("anomaly.jsonl");
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sites(vec![
        FaultSite {
            net: pc,
            bit: 1,
            unit: Unit::Fetch,
        },
        FaultSite {
            net: pc,
            bit: 63,
            unit: Unit::Fetch,
        },
    ])
    .with_kinds(&[FaultKind::StuckAt1]);
    let live = campaign
        .execute(2, &journaled(JournalMode::Create(&path)))
        .expect("journaled run")
        .remove(0);
    // A complete journal replays entirely — including the anomaly record
    // with its panic payload.
    let replayed = campaign
        .execute(2, &journaled(JournalMode::Resume(&path)))
        .expect("resume")
        .remove(0);
    assert_eq!(replayed.records(), live.records());
    assert_eq!(replayed.stats().resumed, 2);
}

#[test]
fn resume_refuses_a_foreign_journal() {
    let path = temp_path("foreign.jsonl");
    campaign(Target::IntegerUnit, 1)
        .execute(2, &journaled(JournalMode::Create(&path)))
        .expect("journaled run");

    // A different sample seed is a different campaign fingerprint.
    match campaign(Target::IntegerUnit, 2).execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "fingerprint");
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }

    // A different workload is caught even before the fingerprint.
    let other_program = Benchmark::Intbench.program(&Params::default());
    let foreign = Campaign::new(other_program, Target::IntegerUnit)
        .with_sample(10, 1)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3);
    match foreign.execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "workload");
        }
        other => panic!("expected a workload mismatch, got {other:?}"),
    }

    // A missing journal is an I/O error, not a panic.
    assert!(matches!(
        campaign(Target::IntegerUnit, 1).execute(
            2,
            &journaled(JournalMode::Resume(&temp_path("missing.jsonl")))
        ),
        Err(CampaignError::Journal(JournalError::Io { .. }))
    ));
}

#[test]
fn resume_refuses_a_foreign_fault_schedule_by_field_name() {
    // A journal carries the campaign's fault-kind wire tokens (journal
    // v5); resuming under a different time-varying schedule must be
    // refused naming the exact mismatched parameter, not the opaque
    // fingerprint.
    let with_kind = |kind: FaultKind| {
        Campaign::new(
            Benchmark::Rspeed.program(&Params::default()),
            Target::IntegerUnit,
        )
        .with_sample(6, 9)
        .with_kinds(&[kind])
        .with_injection_fraction(0.3)
    };
    let intermittent = |duty: u64, phase: u64| FaultKind::IntermittentStuck {
        level: true,
        period: 400,
        duty,
        phase,
    };
    let path = temp_path("schedule.jsonl");
    with_kind(intermittent(100, 0))
        .execute(2, &journaled(JournalMode::Create(&path)))
        .expect("journaled run");

    // Same kind, different duty cycle: named down to the parameter.
    match with_kind(intermittent(200, 0)).execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch {
            field,
            expected,
            found,
        })) => {
            assert_eq!(field, "kinds.duty");
            assert_eq!(expected, "200");
            assert_eq!(found, "100");
        }
        other => panic!("expected a kinds.duty mismatch, got {other:?}"),
    }
    match with_kind(intermittent(100, 7)).execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "kinds.phase");
        }
        other => panic!("expected a kinds.phase mismatch, got {other:?}"),
    }

    // A different kind altogether reports the kind lists.
    match with_kind(FaultKind::TransientBurst {
        flips: 3,
        spacing: 50,
    })
    .execute(2, &journaled(JournalMode::Resume(&path)))
    {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "kinds");
        }
        other => panic!("expected a kinds mismatch, got {other:?}"),
    }

    // Burst parameters are named the same way.
    let burst = |spacing: u64| FaultKind::TransientBurst { flips: 2, spacing };
    let path = temp_path("schedule-burst.jsonl");
    with_kind(burst(60))
        .execute(2, &journaled(JournalMode::Create(&path)))
        .expect("journaled run");
    match with_kind(burst(90)).execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "kinds.spacing");
        }
        other => panic!("expected a kinds.spacing mismatch, got {other:?}"),
    }

    // And the matching schedule still resumes cleanly.
    let resumed = with_kind(burst(60))
        .execute(2, &journaled(JournalMode::Resume(&path)))
        .expect("resume")
        .remove(0);
    assert_eq!(resumed.stats().resumed, resumed.stats().jobs);
}

#[test]
fn config_mistakes_error_instead_of_panicking() {
    let c = campaign(Target::IntegerUnit, 3);
    assert_eq!(c.try_run(0), Err(CampaignError::ZeroThreads));
    assert_eq!(
        c.clone().with_kinds(&[]).try_run(2),
        Err(CampaignError::NoFaultKinds)
    );
    assert_eq!(
        c.clone().with_sites(Vec::new()).try_run(2),
        Err(CampaignError::NoFaultSites)
    );
    assert!(matches!(
        c.clone().with_injection_fraction(2.0).try_run(2),
        Err(CampaignError::InjectionPastEnd { .. })
    ));
}
