//! The golden-shadow sweep against its oracle: every fork-engine campaign
//! classifies its jobs on one golden run with shadow faults, and must
//! still produce **bit-identical records** to full re-execution, with the
//! exact cycle ledger of a per-job fork, for every fault model that acts
//! through reads (stuck-at, open-line, intermittent) and for the transient
//! and burst faults that leave the sweep at activation.

use fault_inject::{
    fault_sites, sample_sites, Campaign, CampaignResult, ExecOptions, Execution, FaultOutcome,
    FaultSite, InjectionInstant, JournalMode, StaticAnalysis, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_asm::assemble;
use sparc_isa::{Reg, Unit, WindowedRegs};
use std::collections::BTreeSet;
use std::fs;
use workloads::{Benchmark, Params};

const INTERMITTENT: FaultKind = FaultKind::IntermittentStuck {
    level: true,
    period: 8,
    duty: 3,
    phase: 1,
};

const BURST: FaultKind = FaultKind::TransientBurst {
    flips: 3,
    spacing: 5,
};

/// Run `campaign` on the sweep and on full re-execution and demand
/// identical records and the per-job fork ledger: both engines end every
/// simulated job at the same cycle, and the sweep bills each job from its
/// own pool ancestor, so simulated plus avoided cycles exceed the full
/// engine's bill by exactly the one pool pass.
fn assert_matches_oracle(campaign: &Campaign, threads: usize, pairs: bool) -> CampaignResult {
    let oracle = campaign.clone().with_execution(Execution::FullReexecution);
    let options = ExecOptions {
        pairs,
        ..ExecOptions::default()
    };
    let sweep = campaign
        .execute(threads, &options)
        .expect("valid campaign")
        .remove(0);
    let full = oracle
        .execute(threads, &options)
        .expect("valid campaign")
        .remove(0);
    assert_eq!(sweep.records(), full.records(), "records differ");
    let (s, f) = (sweep.stats(), full.stats());
    assert_eq!(s.jobs, f.jobs);
    assert_eq!(
        s.forked + s.restored_from_checkpoint + s.skipped_inactive + s.statically_pruned,
        s.jobs,
        "{s:?}"
    );
    assert_eq!(
        s.cycles_simulated + s.cycles_avoided,
        f.cycles_simulated + f.cycles_avoided + s.prefix_cycles,
        "cycle ledgers disagree: {s:?} vs {f:?}"
    );
    sweep
}

fn single_campaign(benchmark: Benchmark, target: Target, seed: u64) -> Campaign {
    Campaign::new(benchmark.program(&Params::default()), target)
        .with_sample(10, seed)
        .with_kinds(&[
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
            INTERMITTENT,
        ])
        .with_injection_fraction(0.3)
}

#[test]
fn every_read_fault_model_matches_on_both_domains_and_benchmarks() {
    for (benchmark, seed) in [(Benchmark::Rspeed, 0x5a), (Benchmark::Intbench, 0x5b)] {
        for target in [Target::IntegerUnit, Target::CacheMemory] {
            for threads in [1, 4] {
                let campaign = single_campaign(benchmark, target, seed);
                let sweep = assert_matches_oracle(&campaign, threads, false);
                assert!(sweep.stats().forked > 0, "{:?}", sweep.stats());
            }
        }
    }
}

#[test]
fn faithful_clocking_runs_match_the_oracle() {
    // Faithful clocking reads every net each cycle into an accumulator
    // no outcome observes; the sweep must classify such runs exactly as
    // full re-execution does.
    let config = Leon3Config {
        faithful_clocking: true,
        ..Leon3Config::default()
    };
    let campaign = single_campaign(Benchmark::Intbench, Target::IntegerUnit, 0x60)
        .with_sample(6, 0x60)
        .with_config(config);
    assert_matches_oracle(&campaign, 1, false);
}

#[test]
fn pair_jobs_leave_when_either_fault_changes_a_read() {
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(9, 0x5c)
    .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
    .with_injection_fraction(0.25);
    for threads in [1, 4] {
        assert_matches_oracle(&campaign, threads, true);
    }
}

#[test]
fn one_sweep_serves_a_multi_instant_mix_of_transient_and_permanent_faults() {
    let campaign = Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(8, 0x5d)
    .with_kinds(&[
        FaultKind::StuckAt1,
        FaultKind::OpenLine,
        FaultKind::TransientFlip,
        BURST,
    ])
    .with_checkpoint_stride(5_000);
    let instants = [
        InjectionInstant::Cycle(0),
        InjectionInstant::Fraction(0.15),
        InjectionInstant::Fraction(0.5),
        InjectionInstant::Fraction(0.85),
    ];
    for threads in [1, 4] {
        let sweep = campaign
            .execute(
                threads,
                &ExecOptions {
                    instants: Some(&instants),
                    ..ExecOptions::default()
                },
            )
            .expect("valid");
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .execute(
                threads,
                &ExecOptions {
                    instants: Some(&instants),
                    ..ExecOptions::default()
                },
            )
            .expect("valid");
        for (s, f) in sweep.iter().zip(&full) {
            assert_eq!(s.records(), f.records());
            assert_eq!(s.stats().full_reexecutions, 0);
        }
        let billed = |results: &[CampaignResult]| -> u64 {
            results
                .iter()
                .map(|r| r.stats().cycles_simulated + r.stats().cycles_avoided)
                .sum()
        };
        assert_eq!(
            billed(&sweep),
            billed(&full) + sweep[0].stats().prefix_cycles,
            "cycle ledgers disagree"
        );
    }
}

#[test]
fn a_truncated_journal_resumes_to_the_oracle() {
    let dir = std::env::temp_dir().join("fault-shadow-itests");
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sweep-resume.jsonl");
    let campaign = single_campaign(Benchmark::Rspeed, Target::CacheMemory, 0x5e);
    let uninterrupted = campaign
        .execute(
            1,
            &ExecOptions {
                journal: JournalMode::Create(&path),
                ..ExecOptions::default()
            },
        )
        .expect("journaled run")
        .remove(0);
    let text = fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + (lines.len() - 1) / 3;
    let mut killed = lines[..keep].join("\n");
    killed.push('\n');
    killed.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &killed).expect("truncate journal");
    let resumed = campaign
        .execute(
            4,
            &ExecOptions {
                journal: JournalMode::Resume(&path),
                ..ExecOptions::default()
            },
        )
        .expect("resume")
        .remove(0);
    assert_eq!(resumed.records(), uninterrupted.records());
    let full = campaign
        .clone()
        .with_execution(Execution::FullReexecution)
        .run(2);
    assert_eq!(resumed.records(), full.records());
}

#[test]
fn static_analysis_leaves_the_sweep_its_simulated_jobs() {
    // A sample plus the low bits of every net in a stuck-at equivalence
    // class, so the analyzer collapses some jobs.
    let config = Leon3Config::default();
    let cpu = Leon3::new(config.clone());
    let sa = StaticAnalysis::for_config(&config);
    let mut classed = BTreeSet::new();
    for (id, _) in cpu.pool().iter() {
        if sa.class_root(id) != id {
            classed.extend([id, sa.class_root(id)]);
        }
    }
    let universe = fault_sites(&cpu, Target::IntegerUnit);
    let mut sites = sample_sites(&universe, 12, 0x5f);
    sites.extend(
        universe
            .iter()
            .filter(|s| s.bit < 2 && classed.contains(&s.net)),
    );
    let campaign = single_campaign(Benchmark::Intbench, Target::IntegerUnit, 0x5f)
        .with_sites(sites)
        .with_static_analysis(true);
    let sweep = assert_matches_oracle(&campaign, 1, false);
    assert!(sweep.stats().statically_pruned > 0, "{:?}", sweep.stats());
}

#[test]
fn an_open_line_carries_the_bit_it_held_before_the_window() {
    // `%l3` holds 1 when the open line on its bit 0 activates, then is
    // overwritten with 0 without being read, and is read again (by the
    // store) thousands of steps later, several sweep windows on. The job
    // leaves the sweep in the store's window and must still hold 1 there:
    // re-capturing the bit at the window start would store 0 and miss the
    // failure.
    let program = assemble(
        r#"
        _start:
            set 0x40001000, %l0
            mov 1, %l3
            set 3000, %l1
        spin1:
            subcc %l1, 1, %l1
            bne spin1
             nop
            mov 0, %l3
            set 3000, %l1
        spin2:
            subcc %l1, 1, %l1
            bne spin2
             nop
            st %l3, [%l0]
            halt
        "#,
    )
    .expect("assembles");
    let cpu = Leon3::new(Leon3Config::default());
    let site = FaultSite {
        net: cpu.nets().rf[WindowedRegs::physical_index(0, Reg::l(3))],
        bit: 0,
        unit: Unit::RegFile,
    };
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_sites(vec![site])
        .with_kinds(&[FaultKind::OpenLine])
        .with_injection_fraction(0.1);
    let sweep = assert_matches_oracle(&campaign, 1, false);
    assert!(
        matches!(sweep.records()[0].outcome, FaultOutcome::Failure { .. }),
        "{:?}",
        sweep.records()[0]
    );
}
