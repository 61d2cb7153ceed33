//! Fleet end-to-end tests: a real coordinator and real runners on
//! loopback, including the kill-recovery acceptance test.

use fault_inject::{AttackTarget, ExecOptions, InjectionInstant, JournalMode, Target};
use rtl_sim::FaultKind;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use verifd::http::{IO_TIMEOUT, REQUEST_DEADLINE};
use verifd::{client, CampaignSpec, Coordinator, CoordinatorConfig, Runner, RunnerConfig};
use workloads::Benchmark;

fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    spec.sample = Some((8, 3));
    spec.injection = InjectionInstant::Fraction(0.25);
    spec
}

/// A targeted intermittent campaign: the time-varying schedule plus the
/// attack-surface restriction both ride the spec wire form, so a fleet
/// shard of this spec must reconstruct the exact duty-cycle assertion
/// windows the unsharded run sees.
fn time_varying_spec() -> CampaignSpec {
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
    spec.targets = Some(vec![
        AttackTarget::BranchCondition,
        AttackTarget::StatusRegister,
    ]);
    spec.sample = Some((8, 5));
    spec.injection = InjectionInstant::Fraction(0.3);
    spec
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verifd-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A coordinator tuned for tests: short leases, fast retries.
fn fast_config(dir: &std::path::Path) -> CoordinatorConfig {
    CoordinatorConfig {
        lease_ttl_ms: 250,
        heartbeat_ms: 50,
        max_attempts: 5,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        poll_ms: 25,
        store_path: dir.join("store"),
        drain_path: Some(dir.join("drain.jsonl")),
        ..CoordinatorConfig::default()
    }
}

fn runner_config(addr: &str, dir: &std::path::Path, name: &str) -> RunnerConfig {
    RunnerConfig {
        coordinator: addr.to_string(),
        name: name.to_string(),
        job_threads: 2,
        workdir: dir.join(name),
        chaos: None,
        hold_ms: 0,
    }
}

fn stat(addr: &str, key: &str) -> u64 {
    client::stats(addr)
        .expect("stats")
        .get_u64(key)
        .unwrap_or_else(|| panic!("missing stat `{key}`"))
}

fn wait_for_stat(addr: &str, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat(addr, key) != want {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {key}={want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killed_runner_recovers_bit_identically() {
    let dir = tempdir("kill");
    let coordinator = Coordinator::start(fast_config(&dir)).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = small_spec();

    let submitted = client::fleet_submit(&addr, &base, 2).expect("submit fleet");
    assert_eq!(submitted.status, "queued");
    assert_eq!(submitted.cached, 0);

    // Runner A takes the first lease (shard 0, FIFO) and holds it
    // without simulating — the window in which we kill it.
    let holder = Runner::start(RunnerConfig {
        hold_ms: 120_000,
        ..runner_config(&addr, &dir, "holder")
    })
    .expect("start holder");
    wait_for_stat(&addr, "leases_active", 1);

    // Runner B does the real work.
    let worker = Runner::start(runner_config(&addr, &dir, "worker")).expect("start worker");
    holder.kill();

    // The campaign completes despite the death: B finishes shard 1,
    // the lease on shard 0 expires, B picks it up on retry.
    let status = client::fleet_wait(&addr, submitted.id).expect("wait");
    assert_eq!(status.status, "done");
    assert_eq!((status.done, status.total), (2, 2));
    assert!(status.missing.is_empty());
    let merged = status.campaign.expect("done campaign carries the merge");

    // Bit-identical to the unsharded single-process run: records,
    // stats, ledger — everything.
    let local = base.to_campaign().try_run(2).expect("local run");
    assert_eq!(merged.result, local);
    assert_eq!(merged.fingerprint, base.fingerprint());
    // Byte-level too: the canonical wire form is byte-stable.
    let local_wire = fault_inject::wire::ShardResult {
        fingerprint: base.fingerprint(),
        index: 0,
        count: 1,
        result: local.clone(),
    };
    assert_eq!(merged.to_json(), local_wire.to_json());

    // /stats accounts for the retried lease, and the store holds no
    // duplicate simulated shard.
    assert!(
        stat(&addr, "leases_expired") >= 1,
        "the kill expired a lease"
    );
    assert!(
        stat(&addr, "leases_retried") >= 1,
        "the shard was re-queued"
    );
    assert_eq!(
        stat(&addr, "store_dedup_hits"),
        0,
        "no shard simulated twice"
    );
    // 2 shards + the memoized merge.
    assert_eq!(stat(&addr, "store_puts"), 3);
    assert_eq!(stat(&addr, "shards_done"), 2);

    worker.stop();
    coordinator.shutdown().expect("shutdown");

    // A fresh coordinator over the same store serves the whole campaign
    // from disk: zero new leases, all shards prefilled.
    let revived = Coordinator::start(fast_config(&dir)).expect("restart coordinator");
    let addr = revived.addr().to_string();
    let resubmitted = client::fleet_submit(&addr, &base, 2).expect("resubmit");
    assert_eq!(resubmitted.status, "done");
    assert_eq!(resubmitted.cached, 2);
    let status = client::fleet_wait(&addr, resubmitted.id).expect("cached wait");
    assert_eq!(status.campaign.expect("merged").result, local);
    assert_eq!(stat(&addr, "leases_granted"), 0);
    revived.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn intermittent_targeted_campaign_survives_a_mid_shard_kill_bit_identically() {
    // The time-varying acceptance property at fleet scope: an
    // intermittent + burst spec with attack targets, sharded across two
    // runners with one killed mid-shard, merges bit-identical to the
    // unsharded single-process run. The shard that dies is re-leased and
    // re-run from its journal grant — any drift in how a restored shard
    // reconstructs the duty-cycle schedule or flip train would change a
    // merged byte here.
    let dir = tempdir("tv-kill");
    let coordinator = Coordinator::start(fast_config(&dir)).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = time_varying_spec();

    let submitted = client::fleet_submit(&addr, &base, 2).expect("submit fleet");
    assert_eq!(submitted.status, "queued");

    // Runner A takes shard 0 and holds without simulating — the kill
    // window; runner B does the real work, including the retried shard.
    let holder = Runner::start(RunnerConfig {
        hold_ms: 120_000,
        ..runner_config(&addr, &dir, "holder")
    })
    .expect("start holder");
    wait_for_stat(&addr, "leases_active", 1);
    let worker = Runner::start(runner_config(&addr, &dir, "worker")).expect("start worker");
    holder.kill();

    let status = client::fleet_wait(&addr, submitted.id).expect("wait");
    assert_eq!(status.status, "done");
    assert_eq!((status.done, status.total), (2, 2));
    let merged = status.campaign.expect("done campaign carries the merge");

    let local = base.to_campaign().try_run(2).expect("local run");
    assert_eq!(merged.result, local);
    assert_eq!(merged.fingerprint, base.fingerprint());
    // Byte-level: the canonical wire form of the merge equals the local
    // run's, so no reported byte moved under the kill.
    let local_wire = fault_inject::wire::ShardResult {
        fingerprint: base.fingerprint(),
        index: 0,
        count: 1,
        result: local.clone(),
    };
    assert_eq!(merged.to_json(), local_wire.to_json());
    // The equivalence is not vacuous: both time-varying kinds appear in
    // the merged records, and the kill really did expire a lease.
    let kinds: Vec<FaultKind> = merged.result.records().iter().map(|r| r.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, FaultKind::IntermittentStuck { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, FaultKind::TransientBurst { .. })));
    assert!(
        stat(&addr, "leases_expired") >= 1,
        "the kill expired a lease"
    );
    assert!(
        stat(&addr, "leases_retried") >= 1,
        "the shard was re-queued"
    );

    worker.stop();
    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uploaded_partial_journal_resumes_without_resimulating_finished_jobs() {
    let dir = tempdir("resume");
    // Long TTL: this test drives the runner protocol by hand, without
    // heartbeats.
    let coordinator = Coordinator::start(CoordinatorConfig {
        lease_ttl_ms: 60_000,
        ..fast_config(&dir)
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = small_spec();

    let submitted = client::fleet_submit(&addr, &base, 1).expect("submit fleet");
    let me = client::fleet_register(&addr, "manual", 2).expect("register");

    // First lease holder: runs the shard journaled, then "dies" —
    // reports failure with a mid-line-truncated journal, exactly what a
    // kill leaves on disk.
    let grant = match client::fleet_lease(&addr, me.runner_id).expect("lease") {
        fault_inject::wire::fleet::LeaseReply::Grant(grant) => grant,
        other => panic!("expected a grant, got {other:?}"),
    };
    assert!(grant.journal.is_none(), "first attempt starts fresh");
    let leased_spec = CampaignSpec::from_obj(&grant.spec).expect("granted spec parses");
    assert_eq!(leased_spec.shard, Some((0, 1)));
    let journal_path = dir.join("manual.journal");
    let full = leased_spec
        .to_campaign()
        .execute(
            2,
            &ExecOptions {
                journal: JournalMode::Create(&journal_path),
                ..ExecOptions::default()
            },
        )
        .expect("journaled run")
        .remove(0);
    let text = std::fs::read_to_string(&journal_path).expect("journal text");
    let header_end = text.find('\n').expect("header line") + 1;
    let cut = header_end + (text.len() - header_end) / 2;
    client::fleet_fail(
        &addr,
        me.runner_id,
        grant.lease_id,
        "simulated death",
        Some(&text[..cut]),
    )
    .expect("fail upload");

    // Second holder: the grant carries the partial journal; resuming it
    // re-runs only the missing jobs. (The first failure put the shard
    // behind a short backoff, so poll for the grant.)
    let retry = loop {
        match client::fleet_lease(&addr, me.runner_id).expect("re-lease") {
            fault_inject::wire::fleet::LeaseReply::Grant(grant) => break grant,
            fault_inject::wire::fleet::LeaseReply::NoWork { retry_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 100)));
            }
        }
    };
    assert_eq!(retry.attempt, 2);
    let uploaded = retry.journal.as_deref().expect("retry carries the journal");
    std::fs::write(&journal_path, uploaded).expect("write journal");
    let resumed = leased_spec
        .to_campaign()
        .execute(
            2,
            &ExecOptions {
                journal: JournalMode::Resume(&journal_path),
                ..ExecOptions::default()
            },
        )
        .expect("resume")
        .remove(0);
    let recovered = resumed.stats().resumed;
    assert!(recovered > 0, "the resume recovered journaled jobs");
    let ack = client::fleet_complete(
        &addr,
        &fault_inject::wire::fleet::Complete {
            runner_id: me.runner_id,
            lease_id: retry.lease_id,
            shard: fault_inject::wire::ShardResult {
                fingerprint: base.fingerprint(),
                index: 0,
                count: 1,
                result: resumed,
            },
        },
    )
    .expect("complete");
    assert!(ack.ok);

    // The accepted result is bit-identical to the uninterrupted run —
    // the coordinator normalized the recovery counter out of the stats
    // and surfaces it in /stats instead.
    let status = client::fleet_wait(&addr, submitted.id).expect("wait");
    assert_eq!(status.status, "done");
    let stored = status.campaign.expect("merged");
    assert_eq!(stored.result, full);
    assert_eq!(stored.result.stats().resumed, 0);
    assert_eq!(stat(&addr, "jobs_recovered_total"), recovered as u64);

    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_says_503_with_retry_after() {
    let dir = tempdir("busy");
    let coordinator = Coordinator::start(CoordinatorConfig {
        queue_depth: 1,
        retry_after_s: 7,
        ..fast_config(&dir)
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let spec = small_spec();

    // Four shards cannot fit a one-slot queue: refused immediately,
    // with honest retry advice — not accepted-then-stalled.
    let json = spec.to_json();
    let body = format!("{},\"shards\":4}}", &json[..json.len() - 1]);
    let refused = client::request_full(&addr, "POST", "/fleet", &body).expect("request");
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("7"));
    assert!(refused.body.contains("queue full"));

    // One shard fits.
    let accepted = client::fleet_submit(&addr, &spec, 1).expect("submit");
    assert_eq!(accepted.status, "queued");
    // Now the queue is full: a different spec is refused too.
    let mut other = spec.clone();
    other.sample = Some((8, 4));
    match client::fleet_submit(&addr, &other, 1) {
        Err(verifd::ClientError::Http { status: 503, .. }) => {}
        other => panic!("expected 503, got {other:?}"),
    }
    assert_eq!(stat(&addr, "rejected_busy"), 2);
    assert_eq!(stat(&addr, "queue_depth"), 1);

    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_drain_file_resubmits_on_startup() {
    let dir = tempdir("drain");
    let config = fast_config(&dir);
    let coordinator = Coordinator::start(config.clone()).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = small_spec();

    // No runners: the submission sits queued; shutdown drains it.
    client::fleet_submit(&addr, &base, 2).expect("submit");
    let drained = coordinator.shutdown().expect("shutdown");
    assert_eq!(drained, 1, "one incomplete campaign drained");
    let drain_file = dir.join("drain.jsonl");
    assert!(drain_file.exists(), "drain journal written");

    // Startup re-enqueues it automatically — no manual resubmission —
    // and a runner then completes it.
    let revived = Coordinator::start(config).expect("restart coordinator");
    let addr = revived.addr().to_string();
    assert!(!drain_file.exists(), "drain journal consumed");
    assert_eq!(stat(&addr, "drain_resubmitted"), 1);
    let resubmitted = client::fleet_submit(&addr, &base, 2).expect("idempotent resubmit");
    let runner = Runner::start(runner_config(&addr, &dir, "r")).expect("start runner");
    let status = client::fleet_wait(&addr, resubmitted.id).expect("wait");
    assert_eq!(status.status, "done");
    let local = base.to_campaign().try_run(2).expect("local run");
    assert_eq!(status.campaign.expect("merged").result, local);

    runner.stop();
    revived.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_drain_file_resubmits_on_startup() {
    use verifd::{Server, ServerConfig};
    let dir = tempdir("server-drain");
    let drain = dir.join("drain.jsonl");
    // Zero workers: everything queues; shutdown drains it all.
    let server = Server::start(ServerConfig {
        workers: 0,
        drain_path: Some(drain.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut specs = Vec::new();
    for seed in [11, 12] {
        let mut spec = small_spec();
        spec.sample = Some((8, seed));
        client::submit(&addr, &spec).expect("submit");
        specs.push(spec);
    }
    assert_eq!(server.shutdown().expect("shutdown"), 2);

    // The restart picks the drained specs up and runs them without any
    // client involvement.
    let server = Server::start(ServerConfig {
        workers: 1,
        drain_path: Some(drain.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind");
    let addr = server.addr().to_string();
    assert!(!drain.exists(), "drain journal consumed");
    assert_eq!(stat(&addr, "drain_resubmitted"), 2);
    wait_for_stat(&addr, "completed", 2);
    // Resubmitting one of them hits the cache the recovered jobs filled.
    let reply = client::submit(&addr, &specs[0]).expect("resubmit");
    assert!(reply.cached, "recovered job populated the cache");
    let result = client::wait(&addr, reply.id).expect("recovered job result");
    let local = specs[0].to_campaign().try_run(1).expect("local");
    assert_eq!(result.result, local);
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_shard_poisons_and_the_campaign_degrades() {
    let dir = tempdir("poison");
    let coordinator = Coordinator::start(CoordinatorConfig {
        max_attempts: 1,
        ..fast_config(&dir)
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = small_spec();

    let submitted = client::fleet_submit(&addr, &base, 2).expect("submit");
    // The holder takes shard 0 and dies; with a one-attempt budget the
    // expiry poisons the shard instead of re-queuing it.
    let holder = Runner::start(RunnerConfig {
        hold_ms: 120_000,
        ..runner_config(&addr, &dir, "holder")
    })
    .expect("start holder");
    wait_for_stat(&addr, "leases_active", 1);
    holder.kill();
    let worker = Runner::start(runner_config(&addr, &dir, "worker")).expect("start worker");

    // The campaign terminates *degraded* — it does not hang, and it
    // says exactly what is missing.
    let status = client::fleet_wait(&addr, submitted.id).expect("wait");
    assert_eq!(status.status, "degraded");
    assert_eq!(status.missing, vec![0]);
    assert_eq!((status.done, status.total), (1, 2));
    assert!(status.campaign.is_none(), "no merge without every shard");
    assert_eq!(stat(&addr, "shards_poisoned"), 1);

    // The shard that did complete is still bit-identical to its local
    // counterpart — degradation never means wrong.
    let shard1 = client::fleet_shard(&addr, submitted.id, 1).expect("stored shard");
    let mut sharded = base.clone();
    sharded.shard = Some((1, 2));
    let local = sharded.to_campaign().try_run(2).expect("local shard run");
    assert_eq!(shard1.result, local);

    worker.stop();
    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_watch_streams_chunks_until_terminal() {
    let dir = tempdir("watch");
    let coordinator = Coordinator::start(fast_config(&dir)).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    let base = small_spec();

    let submitted = client::fleet_submit(&addr, &base, 2).expect("submit");
    let runner = Runner::start(runner_config(&addr, &dir, "r")).expect("start runner");
    let mut lines = Vec::new();
    let status = client::fleet_watch(&addr, submitted.id, &mut |line| {
        lines.push(line.to_string());
    })
    .expect("watch");
    assert_eq!(status.status, "done");
    // The stream emitted monotone progress lines before the final
    // status line.
    assert!(lines.len() >= 2, "progress then final: {lines:?}");
    let mut last_done = 0;
    for line in &lines[..lines.len() - 1] {
        let v = fault_inject::wire::Json::parse(line).expect("progress line parses");
        let done = v.get_u64("done").expect("done");
        assert!(done >= last_done, "monotone progress: {lines:?}");
        last_done = done;
        assert_eq!(v.get_u64("total"), Some(2));
    }
    assert_eq!(last_done, 2);

    // An unknown id is a clean 404, not a hung stream.
    match client::fleet_watch(&addr, 999, &mut |_| {}) {
        Err(verifd::ClientError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    runner.stop();
    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_connection_does_not_stall_the_coordinator() {
    let dir = tempdir("idle");
    let coordinator = Coordinator::start(fast_config(&dir)).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    // Connects, then sends nothing: the accept loop takes it first. The
    // health check runs on a thread of its own so a stalled coordinator
    // fails the test instead of hanging it.
    let idle = TcpStream::connect(&addr).expect("idle connection");
    let (tx, rx) = std::sync::mpsc::channel();
    let probe = addr.clone();
    std::thread::spawn(move || {
        let _ = tx.send(client::healthz(&probe));
    });
    let reply = rx
        .recv_timeout(IO_TIMEOUT + Duration::from_secs(2))
        .expect("/healthz must answer within the I/O timeout plus slack");
    assert!(!reply.expect("healthz"), "not draining");
    drop(idle);
    coordinator.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trickling_client_does_not_stall_the_coordinator() {
    let dir = tempdir("trickle");
    let coordinator = Coordinator::start(fast_config(&dir)).expect("bind coordinator");
    let addr = coordinator.addr().to_string();
    // Connects, then sends a request head one byte per second until the
    // coordinator hangs up; the accept loop takes it first.
    let mut stream = TcpStream::connect(&addr).expect("trickling connection");
    let slow = std::thread::spawn(move || {
        let head = b"GET /healthz HTTP/1.1\r\nx-slow: ";
        for &byte in head.iter().chain(std::iter::repeat(&b'x')).take(60) {
            if stream.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let probe = addr.clone();
    std::thread::spawn(move || {
        let _ = tx.send(client::healthz(&probe));
    });
    let reply = rx
        .recv_timeout(REQUEST_DEADLINE + IO_TIMEOUT + Duration::from_secs(2))
        .expect("/healthz must answer within the request deadline plus slack");
    assert!(!reply.expect("healthz"), "not draining");
    coordinator.shutdown().expect("shutdown");
    slow.join().expect("trickling client");
    let _ = std::fs::remove_dir_all(&dir);
}
