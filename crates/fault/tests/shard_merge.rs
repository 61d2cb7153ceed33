//! Sharding end to end: real campaigns split `i/n`, merged back, and
//! compared bit-for-bit against the unsharded run.

use fault_inject::{
    merge_shards, Campaign, CampaignError, ExecOptions, JournalMode, ShardResult, Target,
};
use workloads::{Benchmark, Params};

fn base() -> Campaign {
    Campaign::new(
        Benchmark::Rspeed.program(&Params::default()),
        Target::IntegerUnit,
    )
    .with_sample(15, 11)
    .with_injection_fraction(0.3)
}

fn run_shard(index: u32, count: u32) -> ShardResult {
    let campaign = base().with_shard(index, count);
    ShardResult {
        fingerprint: campaign.fingerprint(),
        index,
        count,
        result: campaign.try_run(2).expect("shard run"),
    }
}

/// Three shards merged equal the unsharded campaign — records in the
/// original order and stats to the cycle (the shared-prefix cycles each
/// shard re-simulated are deduplicated by the merge).
#[test]
fn sharded_run_merges_to_the_unsharded_result() {
    let unsharded = base().try_run(2).expect("unsharded run");
    let shards: Vec<ShardResult> = (0..3).map(|i| run_shard(i, 3)).collect();
    let merged = merge_shards(shards).expect("merge");
    assert_eq!(merged.result, unsharded);
    assert_eq!(merged.fingerprint, base().fingerprint());
    assert_eq!((merged.index, merged.count), (0, 1));
}

/// A lone shard `0/1` is the unsharded campaign.
#[test]
fn one_shard_is_the_whole_campaign() {
    let unsharded = base().try_run(1).expect("unsharded run");
    let merged = merge_shards(vec![run_shard(0, 1)]).expect("merge");
    assert_eq!(merged.result, unsharded);
}

/// Out-of-range shard coordinates are refused before any simulation.
#[test]
fn bad_shard_coordinates_are_refused() {
    for (index, count) in [(0, 0), (2, 2), (5, 3)] {
        match base().with_shard(index, count).try_run(1) {
            Err(CampaignError::BadShard { index: i, count: n }) => {
                assert_eq!((i, n), (index, count));
            }
            other => panic!("shard {index}/{count}: expected BadShard, got {other:?}"),
        }
    }
}

/// The public fingerprint is pinned to the journal header: the same two
/// hashes, in the same order, as the write-ahead journal records them.
/// If one moves without the other, caches and journals disagree about
/// campaign identity.
#[test]
fn fingerprint_matches_the_journal_header() {
    let dir = std::env::temp_dir().join(format!("fp-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campaign.jsonl");

    let campaign = base();
    let fingerprint = campaign.fingerprint();
    campaign
        .execute(
            2,
            &ExecOptions {
                journal: JournalMode::Create(&path),
                ..ExecOptions::default()
            },
        )
        .expect("journaled run");
    let (header, _, truncated) = fault_inject::journal::read(&path).expect("read journal");
    assert!(!truncated);
    assert_eq!(
        fingerprint,
        format!("{:016x}-{:016x}", header.workload, header.fingerprint)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The injection instant is part of campaign identity: two campaigns
/// differing only there must not share a fingerprint (their results
/// differ, so a shared cache key would serve wrong bytes).
#[test]
fn injection_instant_is_part_of_the_fingerprint() {
    let a = base().fingerprint();
    let b = base().with_injection_fraction(0.7).fingerprint();
    assert_ne!(a, b);
}
