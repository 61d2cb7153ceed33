//! Static-analysis campaigns must be **observationally equivalent** to
//! plain campaigns: identical ISO buckets and `Pf`, bit-identical records
//! for every job that is actually simulated, zero simulation spent on
//! pruned or collapsed jobs, and an audit sample that re-simulates the
//! analyzer's verdicts in full and confirms them.

use fault_inject::{
    fault_sites, sample_sites, Campaign, CampaignError, ExecOptions, FaultRecord, FaultSite,
    JournalMode, PrunedBy, StaticAnalysis, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use std::collections::BTreeSet;
use workloads::{Benchmark, Params};

/// Every site (all bits) on a net involved in a stuck-at equivalence
/// class of size > 1 — members and their representatives — within
/// `target`.
fn class_sites(cpu: &Leon3, sa: &StaticAnalysis, target: Target) -> Vec<FaultSite> {
    let mut nets = BTreeSet::new();
    for (id, _) in cpu.pool().iter() {
        let root = sa.class_root(id);
        if root != id {
            nets.insert(id.raw());
            nets.insert(root.raw());
        }
    }
    fault_sites(cpu, target)
        .into_iter()
        .filter(|s| nets.contains(&s.net.raw()))
        .collect()
}

/// A seeded stratified sample plus the full equivalence-class population,
/// de-duplicated.
fn sites_with_classes(target: Target, n: usize, seed: u64) -> Vec<FaultSite> {
    let config = Leon3Config::default();
    let cpu = Leon3::new(config.clone());
    let sa = StaticAnalysis::for_config(&config);
    let universe = fault_sites(&cpu, target);
    let mut sites = sample_sites(&universe, n, seed);
    sites.extend(class_sites(&cpu, &sa, target));
    let mut seen = BTreeSet::new();
    sites.retain(|s| seen.insert((s.net.raw(), s.bit)));
    sites
}

/// Same record, ignoring provenance.
fn same_modulo_provenance(a: &FaultRecord, b: &FaultRecord) {
    assert_eq!(a.site, b.site);
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.outcome, b.outcome, "outcome differs at {:?}", a.site);
    assert_eq!(
        a.activated, b.activated,
        "activated differs at {:?}",
        a.site
    );
    assert_eq!(
        a.detection, b.detection,
        "detection differs at {:?}",
        a.site
    );
}

fn assert_static_equivalent(campaign: &Campaign, kinds: &[FaultKind]) {
    let plain = campaign.run(4);
    let pruned = campaign
        .clone()
        .with_static_analysis(true)
        .with_static_audit(6, 0x5151)
        .run(4);

    let (p, s) = (plain.stats(), pruned.stats());
    assert_eq!(p.jobs, s.jobs);
    assert_eq!(plain.records().len(), pruned.records().len());

    // The static engine ledger: every job is forked, skipped as inert, or
    // statically classified — never silently dropped.
    assert_eq!(
        s.forked + s.skipped_inactive + s.statically_pruned,
        s.jobs,
        "static-run job ledger does not balance"
    );
    assert_eq!(p.statically_pruned, 0);
    assert_eq!(p.collapsed_classes, 0);

    // Zero simulation for pruned jobs: the static run spends strictly
    // fewer cycles, and each synthesized record banks the golden length.
    assert!(
        s.statically_pruned > 0,
        "nothing was pruned — test is vacuous"
    );
    assert!(
        s.cycles_simulated < p.cycles_simulated,
        "static analysis must reduce simulated cycles ({} vs {})",
        s.cycles_simulated,
        p.cycles_simulated,
    );

    let mut observed_pruned = 0;
    for (a, b) in plain.records().iter().zip(pruned.records()) {
        match b.pruned_by {
            // Simulated jobs (including every class representative) are
            // bit-identical to the plain run.
            None => assert_eq!(a, b),
            // Synthesized jobs agree with what the plain run actually
            // simulated — the analyzer's verdicts are empirically sound.
            Some(_) => {
                observed_pruned += 1;
                same_modulo_provenance(a, b);
            }
        }
    }
    assert_eq!(observed_pruned, s.statically_pruned);

    // Per-model aggregates are preserved exactly.
    for &kind in kinds {
        assert_eq!(plain.pf(kind), pruned.pf(kind));
        assert_eq!(plain.coverage(kind), pruned.coverage(kind));
    }
    assert_eq!(plain.coverage_all(), pruned.coverage_all());
}

#[test]
fn iu_stuck_at_collapsing_matches_uncollapsed_run() {
    let program = Benchmark::Intbench.program(&Params::default());
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sites(sites_with_classes(Target::IntegerUnit, 10, 0x71))
        .with_kinds(&[FaultKind::StuckAt0, FaultKind::StuckAt1])
        .with_injection_fraction(0.3);
    assert_static_equivalent(&campaign, &[FaultKind::StuckAt0, FaultKind::StuckAt1]);

    // The IU has the fetch→decode pass-through, so collapsing must have
    // found at least one class.
    let result = campaign.clone().with_static_analysis(true).run(4);
    assert!(result.stats().collapsed_classes > 0);
    assert!(result
        .records()
        .iter()
        .any(|r| r.pruned_by == Some(PrunedBy::Collapsed)));
}

#[test]
fn iu_transient_flips_on_safe_latches_are_pruned() {
    let program = Benchmark::Rspeed.program(&Params::default());
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sample(24, 0x72)
        .with_kinds(&[FaultKind::TransientFlip])
        .with_injection_fraction(0.5);
    assert_static_equivalent(&campaign, &[FaultKind::TransientFlip]);

    // Transient-safe pruning synthesizes benign records with `static`
    // provenance; flips never collapse.
    let result = campaign.clone().with_static_analysis(true).run(4);
    assert_eq!(result.stats().collapsed_classes, 0);
    assert!(result
        .records()
        .iter()
        .any(|r| r.pruned_by == Some(PrunedBy::Static)));
}

#[test]
fn time_varying_campaign_with_audit_matches_and_never_collapses() {
    // The time-varying kinds flow through the static engine soundly:
    // unobservable-net pruning still applies (and the audit re-simulates
    // a sample of those verdicts in full), bursts prune on
    // transient-safe latches, but *neither* kind ever joins a stuck-at
    // equivalence class — an intermittent releases between windows and a
    // burst is a train of rewrites, so the pass-through argument that
    // justifies collapsing does not hold for them.
    let intermittent = FaultKind::IntermittentStuck {
        level: true,
        period: 400,
        duty: 100,
        phase: 0,
    };
    let burst = FaultKind::TransientBurst {
        flips: 3,
        spacing: 80,
    };
    let program = Benchmark::Intbench.program(&Params::default());
    // Include the equivalence-class population deliberately: were
    // collapsing (unsoundly) applied to time-varying kinds, these are
    // exactly the sites where the copied outcome would diverge.
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sites(sites_with_classes(Target::IntegerUnit, 12, 0x75))
        .with_kinds(&[intermittent, burst])
        .with_injection_fraction(0.3);
    assert_static_equivalent(&campaign, &[intermittent, burst]);

    let result = campaign.clone().with_static_analysis(true).run(4);
    assert_eq!(
        result.stats().collapsed_classes,
        0,
        "time-varying kinds must be excluded from stuck-at collapsing"
    );
    assert!(result
        .records()
        .iter()
        .all(|r| r.pruned_by != Some(PrunedBy::Collapsed)));
    // The analyzer-level invariant the campaign behavior rests on.
    assert!(!StaticAnalysis::collapsible(intermittent));
    assert!(!StaticAnalysis::collapsible(burst));

    // Mixed with stuck-ats on the same sites, collapsing returns for the
    // stuck-at jobs only.
    let mixed = campaign
        .clone()
        .with_kinds(&[FaultKind::StuckAt1, intermittent])
        .with_static_analysis(true)
        .run(4);
    assert!(mixed.stats().collapsed_classes > 0);
    for record in mixed.records() {
        if record.pruned_by == Some(PrunedBy::Collapsed) {
            assert_eq!(
                record.kind,
                FaultKind::StuckAt1,
                "only the stuck-at jobs may collapse"
            );
        }
    }
}

#[test]
fn cmem_campaign_with_mixed_kinds_matches() {
    let program = Benchmark::Membench.program(&Params::default());
    let campaign = Campaign::new(program, Target::CacheMemory)
        .with_sample(16, 0x73)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::TransientFlip])
        .with_injection_fraction(0.4)
        .with_parity(true);
    let plain = campaign.run(4);
    let pruned = campaign.clone().with_static_analysis(true).run(4);
    assert_eq!(plain.records().len(), pruned.records().len());
    for (a, b) in plain.records().iter().zip(pruned.records()) {
        same_modulo_provenance(a, b);
    }
    assert_eq!(plain.coverage_all(), pruned.coverage_all());
    let s = pruned.stats();
    assert_eq!(s.forked + s.skipped_inactive + s.statically_pruned, s.jobs);
}

#[test]
fn journaled_static_run_resumes_to_identical_records() {
    let dir = std::env::temp_dir().join("static_prune_journal_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("static.journal");
    let _ = std::fs::remove_file(&path);

    let program = Benchmark::Intbench.program(&Params::default());
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sites(sites_with_classes(Target::IntegerUnit, 6, 0x74))
        .with_kinds(&[FaultKind::StuckAt1])
        .with_injection_fraction(0.3)
        .with_static_analysis(true);
    let first = campaign
        .execute(
            4,
            &ExecOptions {
                journal: JournalMode::Create(&path),
                ..ExecOptions::default()
            },
        )
        .unwrap()
        .remove(0);
    // Resume over the complete journal: nothing re-runs, yet buckets,
    // provenance and the collapsed-class count are all reconstructed.
    let resumed = campaign
        .execute(
            4,
            &ExecOptions {
                journal: JournalMode::Resume(&path),
                ..ExecOptions::default()
            },
        )
        .unwrap()
        .remove(0);
    assert_eq!(first.records(), resumed.records());
    assert_eq!(
        first.stats().statically_pruned,
        resumed.stats().statically_pruned
    );
    assert_eq!(
        first.stats().collapsed_classes,
        resumed.stats().collapsed_classes
    );
    // Every job came back from the journal (the replayed deltas also
    // reconstruct the original forked/pruned counters, so `resumed` is
    // the signal that nothing was re-simulated).
    assert_eq!(resumed.stats().resumed, resumed.stats().jobs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn static_config_errors_are_structured() {
    let program = Benchmark::Intbench.program(&Params::default());
    let audit_without_static = Campaign::new(program.clone(), Target::IntegerUnit)
        .with_sample(4, 1)
        .with_static_audit(4, 2)
        .try_run(2);
    assert_eq!(
        audit_without_static.unwrap_err(),
        CampaignError::AuditWithoutStaticAnalysis
    );

    let static_with_pairs = Campaign::new(program, Target::IntegerUnit)
        .with_sample(4, 1)
        .with_static_analysis(true)
        .execute(
            2,
            &ExecOptions {
                pairs: true,
                ..ExecOptions::default()
            },
        );
    assert_eq!(
        static_with_pairs.unwrap_err(),
        CampaignError::StaticWithPairs
    );
}
