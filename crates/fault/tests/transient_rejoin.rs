//! Transient flips and bursts on the golden-shadow sweep, against their
//! oracle. Such a job rides the sweep until its fault activates, runs on
//! its own from that window's start, and re-joins the sweep with its
//! fault state if its last flip has landed and it is back in the golden
//! state at the window end; full re-execution steps every cycle. Both
//! must give the same records and ISO 26262 buckets, at one instant and
//! at more instants than the pool keeps checkpoints, with the safety
//! mechanisms configured and under faithful clocking.

use fault_inject::{
    fault_sites, sample_sites, Campaign, CampaignResult, CampaignStats, ExecOptions, Execution,
    FaultOutcome, FaultSite, GoldenRun, InjectionInstant, Target, MAX_POOL_CHECKPOINTS,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use workloads::{Benchmark, Params};

/// The benchmark and domain of each campaign.
const CELLS: [(Benchmark, Target); 4] = [
    (Benchmark::Rspeed, Target::IntegerUnit),
    (Benchmark::Rspeed, Target::CacheMemory),
    (Benchmark::Membench, Target::IntegerUnit),
    (Benchmark::Membench, Target::CacheMemory),
];

/// How large each cell's two sweeps are.
struct Sizing {
    /// Sites at the one instant.
    sites: usize,
    /// Sites at the dense instants.
    dense_sites: usize,
    /// The one instant and the first dense one, as a fraction of the
    /// golden run; the dense instants spread from there to its end.
    from: f64,
}

const PLAIN: Sizing = Sizing {
    sites: 12,
    dense_sites: 3,
    from: 0.3,
};

/// Faithful clocking steps a faulty machine about a hundred times slower,
/// so its sweeps are small and start late.
const FAITHFUL: Sizing = Sizing {
    sites: 3,
    dense_sites: 1,
    from: 0.95,
};

/// Each cell's two sweeps of transient flips and bursts with their
/// injection instants: one instant, and more instants than the pool keeps
/// checkpoints for. Their sites are sampled from those the golden run
/// reads after the first instant.
fn sweeps(sizing: &Sizing) -> Vec<(Benchmark, Campaign, Vec<InjectionInstant>)> {
    let dense = MAX_POOL_CHECKPOINTS + 4;
    let at = |i: usize| sizing.from + (1.0 - sizing.from) * i as f64 / dense as f64;
    let mut sweeps = Vec::new();
    for (seed, (benchmark, target)) in (0x78..).zip(CELLS) {
        let program = benchmark.program(&Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let cycle = (golden.cycles as f64 * sizing.from) as u64;
        let read: Vec<FaultSite> = fault_sites(&Leon3::new(Leon3Config::default()), target)
            .into_iter()
            .filter(|site| golden.net_exercised_from(site.net, cycle))
            .collect();
        let campaign = |n| {
            Campaign::new(program.clone(), target)
                .with_sites(sample_sites(&read, n, seed))
                .with_kinds(&[
                    FaultKind::TransientFlip,
                    FaultKind::TransientBurst {
                        flips: 3,
                        spacing: 100,
                    },
                ])
        };
        sweeps.push((
            benchmark,
            campaign(sizing.sites),
            vec![InjectionInstant::Fraction(sizing.from)],
        ));
        sweeps.push((
            benchmark,
            campaign(sizing.dense_sites),
            (0..dense)
                .map(|i| InjectionInstant::Fraction(at(i)))
                .collect(),
        ));
    }
    sweeps
}

/// The outcome and ISO 26262 buckets of a result.
fn buckets(s: &CampaignStats) -> [usize; 10] {
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
}

/// Run `campaign` at `instants` on the fork engine with 1 and 3 threads,
/// and `oracle` on full re-execution, and demand identical records and
/// buckets with no fallback to full re-execution. Returns the fork
/// engine's results on one thread.
fn assert_matches_oracle(
    campaign: &Campaign,
    oracle: &Campaign,
    instants: &[InjectionInstant],
) -> Vec<CampaignResult> {
    let options = ExecOptions {
        instants: Some(instants),
        ..ExecOptions::default()
    };
    let full = oracle
        .clone()
        .with_execution(Execution::FullReexecution)
        .execute(1, &options)
        .expect("valid campaign");
    let mut first = None;
    for threads in [1, 3] {
        let fork = campaign.execute(threads, &options).expect("valid campaign");
        assert_eq!(fork.len(), full.len());
        for (f, r) in fork.iter().zip(&full) {
            assert_eq!(
                f.records(),
                r.records(),
                "records differ, {threads} threads"
            );
            let (s, o) = (f.stats(), r.stats());
            assert_eq!(buckets(s), buckets(o), "{s:?} vs {o:?}");
            assert_eq!(s.full_reexecutions, 0, "{s:?}");
        }
        first.get_or_insert(fork);
    }
    first.expect("one thread count ran")
}

/// Masked jobs that still simulated: the ones that can have re-joined.
fn late_no_effects(results: &[CampaignResult]) -> usize {
    results
        .iter()
        .flat_map(CampaignResult::records)
        .filter(|r| r.activated && r.outcome == FaultOutcome::NoEffect)
        .count()
}

fn total(results: &[CampaignResult], count: impl Fn(&CampaignStats) -> usize) -> usize {
    results.iter().map(|r| count(r.stats())).sum()
}

#[test]
fn riding_transients_give_the_records_of_full_reexecution() {
    for (benchmark, campaign, instants) in sweeps(&PLAIN) {
        let fork = assert_matches_oracle(&campaign, &campaign, &instants);
        assert!(late_no_effects(&fork) > 0, "{benchmark:?}");
        if instants.len() > MAX_POOL_CHECKPOINTS {
            // Thinning left some boundaries without a checkpoint.
            assert!(total(&fork, |s| s.restored_from_checkpoint) > 0);
        }
    }
}

#[test]
fn riding_transients_keep_every_safety_detection() {
    let (mut compared, mut watchdog) = (0, 0);
    for (benchmark, campaign, instants) in sweeps(&PLAIN) {
        let checked = campaign.clone().with_lockstep_window(4).with_parity(true);
        let fork = assert_matches_oracle(&checked, &checked, &instants);
        compared += total(&fork, |s| s.detected_lockstep + s.detected_parity);
        let golden = GoldenRun::capture(
            &benchmark.program(&Params::default()),
            &Leon3Config::default(),
        );
        let watched = campaign.with_watchdog_cycles(golden.max_write_gap * 2);
        let fork = assert_matches_oracle(&watched, &watched, &instants);
        watchdog += total(&fork, |s| s.detected_watchdog);
    }
    assert!(compared > 0 && watchdog > 0, "{compared} and {watchdog}");
}

#[test]
fn riding_transients_match_under_faithful_clocking() {
    // Faithful clocking only adds per-cycle work that no record observes,
    // so plain full re-execution stays the oracle, as for closed loops.
    for (benchmark, campaign, instants) in sweeps(&FAITHFUL) {
        let faithful = campaign.clone().with_config(Leon3Config {
            faithful_clocking: true,
            ..Leon3Config::default()
        });
        let fork = assert_matches_oracle(&faithful, &campaign, &instants);
        assert!(late_no_effects(&fork) > 0, "{benchmark:?}");
    }
}
