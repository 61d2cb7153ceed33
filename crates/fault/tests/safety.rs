//! Safety-mechanism integration tests.
//!
//! The load-bearing invariant is **degeneration**: with every mechanism
//! disabled (the default), campaigns must be bit-identical to the
//! pre-safety suite. The golden hashes below were computed on the suite
//! before the safety layer existed; the projection deliberately renders
//! only the fields that existed then, so the hash detects any behavioral
//! drift the new code could introduce while ignoring the new fields.
//!
//! On top sit the classification invariants: every injection lands in
//! exactly one ISO 26262 bucket, detection survives the journal
//! round-trip (kill-and-resume), resume refuses a journal written under a
//! different safety configuration, and each mechanism demonstrably
//! catches the fault class it exists for.

use fault_inject::{
    Campaign, CampaignError, Detection, ExecOptions, Execution, FaultOutcome, GoldenRun,
    JournalError, JournalMode, Mechanism, SafetyConfig, Target,
};
use leon3_model::Leon3Config;
use rtl_sim::FaultKind;
use std::fs;
use std::path::PathBuf;
use workloads::{Benchmark, Params};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fault-safety-itests");
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

/// The same campaign shape as the crash-safety fixtures: `rspeed`, a
/// 10-site seeded sample, two fault models, injection at 30%.
fn campaign(target: Target, seed: u64) -> Campaign {
    Campaign::new(Benchmark::Rspeed.program(&Params::default()), target)
        .with_sample(10, seed)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3)
}

/// A watchdog timeout the golden run can never trip: twice its largest
/// inter-write gap.
fn safe_watchdog_timeout() -> u64 {
    let program = Benchmark::Rspeed.program(&Params::default());
    let golden = GoldenRun::capture(&program, &Leon3Config::default());
    golden.max_write_gap * 2 + 2
}

fn all_mechanisms() -> SafetyConfig {
    SafetyConfig {
        lockstep_window: Some(64),
        parity: true,
        watchdog_cycles: Some(safe_watchdog_timeout()),
    }
}

/// FNV-1a over the pre-safety projection of a record list.
fn fixture_hash(result: &fault_inject::CampaignResult) -> u64 {
    let mut text = String::new();
    for r in result.records() {
        let outcome = match &r.outcome {
            FaultOutcome::NoEffect => "no_effect".to_string(),
            FaultOutcome::Failure {
                divergence,
                latency_cycles,
            } => format!("failure:{divergence}:{latency_cycles}"),
            // Rendered without its (new) latency so the hash matches the
            // pre-safety fixture even for hanging jobs.
            FaultOutcome::Hang { .. } => "hang".to_string(),
            FaultOutcome::ErrorModeStop { latency_cycles } => {
                format!("error_mode:{latency_cycles}")
            }
            FaultOutcome::EngineAnomaly { .. } => "anomaly".to_string(),
        };
        text.push_str(&format!(
            "{}|{}|{}|{}|{outcome}\n",
            r.site.unit.name(),
            r.site.net.raw(),
            r.site.bit,
            r.kind.name()
        ));
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn assert_degenerates(target: Target, seed: u64, expected_hash: u64) {
    let result = campaign(target, seed).run(4);
    assert_eq!(result.records().len(), 20);
    assert_eq!(fixture_hash(&result), expected_hash, "behavioral drift");
    for r in result.records() {
        assert_eq!(
            r.detection,
            Detection::Undetected,
            "no mechanism may fire when all are disabled: {r:?}"
        );
    }
    let stats = result.stats();
    assert_eq!(stats.detected(), 0, "{stats:?}");
}

#[test]
fn disabled_mechanisms_degenerate_on_iu() {
    assert_degenerates(Target::IntegerUnit, 0xA1, 0x6416e4a783c22280);
}

#[test]
fn disabled_mechanisms_degenerate_on_cmem() {
    assert_degenerates(Target::CacheMemory, 0xB2, 0x7137880a92c9ba8b);
}

#[test]
fn buckets_partition_every_injection() {
    let result = campaign(Target::IntegerUnit, 0xA1)
        .with_safety(all_mechanisms())
        .run(4);
    let stats = result.stats();
    assert_eq!(
        stats.safe + stats.detected() + stats.residual + stats.latent + stats.anomalies,
        result.records().len(),
        "every injection must land in exactly one bucket: {stats:?}"
    );
    // The record-derived coverage summary and the incrementally-counted
    // campaign stats are two paths to the same classification.
    let coverage = result.coverage_all();
    assert_eq!(coverage.injections, result.records().len());
    assert_eq!(coverage.detected(), stats.detected());
    assert_eq!(coverage.residual_fraction(), stats.residual_fraction());
    assert_eq!(coverage.diagnostic_coverage(), stats.diagnostic_coverage());
    for mechanism in Mechanism::ALL {
        assert_eq!(
            coverage.mechanism_detections(mechanism),
            stats.mechanism_detections(mechanism)
        );
    }
    // Outcomes themselves are classification-invariant: the armed
    // campaign replays the exact pre-safety behavior.
    assert_eq!(fixture_hash(&result), 0x6416e4a783c22280);
}

#[test]
fn parity_detects_cmem_faults() {
    let result = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::CacheMemory,
    )
    .with_sample(40, 0xB2)
    .with_kinds(&[FaultKind::StuckAt1])
    .with_injection_fraction(0.3)
    .with_parity(true)
    .run(4);
    let stats = result.stats();
    assert!(
        stats.mechanism_detections(Mechanism::CmemParity) > 0,
        "CMEM parity must catch cache faults: {stats:?}"
    );
    for r in result.records() {
        if let Detection::Detected { mechanism, .. } = r.detection {
            assert_eq!(mechanism, Mechanism::CmemParity);
            assert_eq!(r.bucket(), Some(fault_inject::IsoBucket::Detected));
        }
    }
}

#[test]
fn watchdog_detects_silent_stops() {
    // The IU fixture campaign contains error-mode stops: the core goes
    // quiet without halting, which only the watchdog can convert into a
    // detection (lockstep sees no diverging write, parity sees no CMEM).
    let result = campaign(Target::IntegerUnit, 0xA1)
        .with_watchdog_cycles(safe_watchdog_timeout())
        .run(4);
    let stats = result.stats();
    assert!(
        stats.mechanism_detections(Mechanism::Watchdog) > 0,
        "the watchdog must catch silent stops: {stats:?}"
    );
    for r in result.records() {
        if let Detection::Detected {
            mechanism: Mechanism::Watchdog,
            latency_cycles,
            ..
        } = r.detection
        {
            assert!(
                r.outcome.latency_cycles().is_some(),
                "watchdog-detected outcomes carry a latency: {r:?}"
            );
            assert!(latency_cycles > 0);
        }
    }
}

#[test]
fn tighter_lockstep_windows_detect_no_less() {
    let detections = |window: u64| {
        let result = campaign(Target::IntegerUnit, 0xA1)
            .with_lockstep_window(window)
            .run(4);
        let stats = *result.stats();
        (stats.mechanism_detections(Mechanism::Lockstep), result)
    };
    let (tight, tight_result) = detections(1);
    let (loose, _) = detections(256);
    assert!(tight > 0, "a per-write comparator must catch failures");
    assert!(
        tight >= loose,
        "a tighter window can only detect more: {tight} < {loose}"
    );
    // With W=1 every detected failure is caught at the very next write.
    for r in tight_result.records() {
        if let Detection::Detected {
            mechanism: Mechanism::Lockstep,
            latency_writes,
            ..
        } = r.detection
        {
            assert_eq!(latency_writes, 1, "{r:?}");
        }
    }
}

#[test]
fn fork_and_full_reexecution_classify_identically() {
    let armed = campaign(Target::IntegerUnit, 0xA1).with_safety(all_mechanisms());
    let forked = armed.clone().run(4);
    let full = armed.with_execution(Execution::FullReexecution).run(4);
    assert_eq!(forked.records(), full.records());
}

#[test]
fn kill_and_resume_preserves_detection() {
    let path = temp_path("resume-safety.jsonl");
    let armed = campaign(Target::IntegerUnit, 0xA1).with_safety(all_mechanisms());
    let uninterrupted = armed
        .execute(4, &journaled(JournalMode::Create(&path)))
        .expect("journaled run")
        .remove(0);
    assert!(
        uninterrupted.stats().detected() > 0,
        "the fixture must exercise detection for this test to mean anything"
    );

    let text = fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + (lines.len() - 1) / 2;
    let mut killed = lines[..keep].join("\n");
    killed.push('\n');
    killed.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &killed).expect("truncate journal");

    let resumed = armed
        .execute(4, &journaled(JournalMode::Resume(&path)))
        .expect("resume")
        .remove(0);
    assert_eq!(resumed.records(), uninterrupted.records());
    let mut stats = *resumed.stats();
    assert_eq!(stats.resumed, keep - 1);
    stats.resumed = 0;
    assert_eq!(
        stats,
        *uninterrupted.stats(),
        "bucket counters must reconstitute from the journal"
    );
}

#[test]
fn resume_refuses_a_different_safety_config() {
    let path = temp_path("foreign-safety.jsonl");
    campaign(Target::IntegerUnit, 0xA1)
        .with_safety(all_mechanisms())
        .execute(2, &journaled(JournalMode::Create(&path)))
        .expect("journaled run");

    // Same campaign, mechanisms disabled: the classification (and with
    // parity, the fault-site universe) would differ — refuse.
    match campaign(Target::IntegerUnit, 0xA1).execute(2, &journaled(JournalMode::Resume(&path))) {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "fingerprint");
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }

    // A different window size alone is also a different campaign.
    match campaign(Target::IntegerUnit, 0xA1)
        .with_safety(SafetyConfig {
            lockstep_window: Some(65),
            ..all_mechanisms()
        })
        .execute(2, &journaled(JournalMode::Resume(&path)))
    {
        Err(CampaignError::Journal(JournalError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "fingerprint");
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
}

#[test]
fn safety_config_mistakes_are_structured_errors() {
    assert_eq!(
        campaign(Target::IntegerUnit, 0xA1)
            .with_lockstep_window(0)
            .try_run(2),
        Err(CampaignError::ZeroLockstepWindow)
    );
    match campaign(Target::IntegerUnit, 0xA1)
        .with_watchdog_cycles(1)
        .try_run(2)
    {
        Err(CampaignError::WatchdogTooTight {
            timeout_cycles: 1,
            golden_max_gap,
        }) => assert!(golden_max_gap >= 1),
        other => panic!("expected WatchdogTooTight, got {other:?}"),
    }
}
