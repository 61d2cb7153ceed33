//! Chaos schedules never produce wrong results.
//!
//! Two chaos-armed runners work a sharded campaign while their injector
//! randomly crashes leases mid-shard (uploading truncated journals),
//! stalls them past the TTL, or abandons them outright. The property
//! under test, proptest-style over several seeds: every chaos schedule
//! ends in a *terminal* campaign whose completed shards are bit-identical
//! to their local single-process counterparts — chaos may cost retries
//! or, at worst, poisoned shards (a **degraded** campaign), but it can
//! never change a byte of a result that is reported.

use fault_inject::{InjectionInstant, Target};
use rtl_sim::FaultKind;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use verifd::{
    client, CampaignSpec, FleetConfig, LeasePolicy, Runner, RunnerConfig, Server, ServerConfig,
};
use workloads::Benchmark;

const SHARDS: u32 = 3;

fn chaos_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    spec.kinds = vec![FaultKind::StuckAt1, FaultKind::StuckAt0];
    spec.sample = Some((6, 3));
    spec.injection = InjectionInstant::Fraction(0.25);
    spec
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verifd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Wait for the campaign to go terminal, with a hard timeout — a chaos
/// schedule that hangs the fleet is itself a failure.
fn wait_terminal(addr: &str, id: u64) -> verifd::FleetStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client::fleet_status(addr, id).expect("status");
        if status.status == "done" || status.status == "degraded" {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "campaign not terminal before the deadline (status {})",
            status.status
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn intermittent_chaos_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    spec.kinds = vec![
        FaultKind::IntermittentStuck {
            level: true,
            period: 400,
            duty: 100,
            phase: 0,
        },
        FaultKind::TransientBurst {
            flips: 3,
            spacing: 80,
        },
    ];
    spec.sample = Some((5, 11));
    spec.injection = InjectionInstant::Fraction(0.3);
    spec
}

/// The time-varying chaos property: crashes, stalls and truncated-journal
/// uploads mid-shard may never change a reported byte of an intermittent
/// campaign. A re-leased shard resumes from its partial journal, so this
/// is exactly where a restore that mis-reconstructed a duty-cycle window
/// or a flip train would surface as divergence.
#[test]
fn no_chaos_schedule_changes_an_intermittent_byte() {
    run_chaos_schedules(&intermittent_chaos_spec(), &[23u64]);
}

#[test]
fn no_chaos_schedule_produces_wrong_results() {
    run_chaos_schedules(&chaos_spec(), &[7u64, 19, 42]);
}

fn run_chaos_schedules(base: &CampaignSpec, seeds: &[u64]) {
    // The ground truth each stored shard must match, computed once.
    let local_shards: Vec<_> = (0..SHARDS)
        .map(|index| {
            let mut sharded = base.clone();
            sharded.shard = Some((index, SHARDS));
            sharded.to_campaign().try_run(2).expect("local shard run")
        })
        .collect();
    let local_full = base.to_campaign().try_run(2).expect("local full run");

    for &seed in seeds {
        let dir = tempdir(&format!("seed{seed}"));
        let coordinator = Server::start_fleet(
            ServerConfig {
                workers: 0,
                queue_depth: 256,
                ..ServerConfig::default()
            },
            FleetConfig {
                lease: LeasePolicy {
                    ttl_ms: 300,
                    max_attempts: 6,
                    backoff_base_ms: 10,
                    backoff_cap_ms: 50,
                },
                heartbeat_ms: 50,
                poll_ms: 25,
                store_path: dir.join("store"),
            },
        )
        .expect("bind coordinator");
        let addr = coordinator.addr().to_string();
        let submitted = client::fleet_submit(&addr, base, SHARDS).expect("submit");

        let runners: Vec<Runner> = (0..2)
            .map(|i| {
                Runner::start(RunnerConfig {
                    coordinator: addr.clone(),
                    name: format!("chaos-{seed}-{i}"),
                    job_threads: 2,
                    workdir: dir.join(format!("runner-{i}")),
                    chaos: Some(seed.wrapping_add(i)),
                    hold_ms: 0,
                })
                .expect("start chaos runner")
            })
            .collect();

        let status = wait_terminal(&addr, submitted.id);
        // Terminal, never hung; every reported shard is bit-identical
        // to its single-process counterpart.
        for index in 0..SHARDS {
            if status.missing.contains(&index) {
                continue;
            }
            let stored = client::fleet_shard(&addr, submitted.id, index).expect("stored shard");
            assert_eq!(
                stored.result, local_shards[index as usize],
                "seed {seed}: shard {index} diverged under chaos"
            );
            assert_eq!(
                stored.result.stats().resumed,
                0,
                "recovery counter normalized"
            );
        }
        if status.status == "done" {
            let merged = status.campaign.as_ref().expect("merged result");
            assert_eq!(
                merged.result, local_full,
                "seed {seed}: merged campaign diverged under chaos"
            );
        } else {
            assert!(
                !status.missing.is_empty(),
                "degraded campaigns name their missing shards"
            );
        }

        for runner in runners {
            runner.stop();
        }
        coordinator.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
