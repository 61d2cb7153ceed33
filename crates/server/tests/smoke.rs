//! End-to-end smoke tests: a real `verifd` on loopback, driven through
//! the real client.

use fault_inject::{CorrelationSpec, InjectionInstant, PredictRequest, Target};
use rtl_sim::FaultKind;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;
use verifd::http::{read_response, IO_TIMEOUT, MAX_HEAD, REQUEST_DEADLINE};
use verifd::{client, CampaignSpec, Server, ServerConfig};
use workloads::Benchmark;

fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    spec.sample = Some((8, 3));
    spec.injection = InjectionInstant::Fraction(0.25);
    spec
}

fn start(workers: usize, drain: Option<std::path::PathBuf>) -> (Server, String) {
    let server = Server::start(ServerConfig {
        workers,
        drain_path: drain,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

#[test]
fn resubmitted_spec_is_served_from_cache_without_simulating() {
    let (server, addr) = start(1, None);
    let spec = small_spec();

    let first = client::submit(&addr, &spec).expect("submit");
    assert!(!first.cached);
    // The service answers /healthz while the campaign runs: the accept
    // thread never blocks on a simulation.
    assert!(!client::healthz(&addr).expect("healthz during run"));
    let first_result = client::wait(&addr, first.id).expect("first run");

    let cycles_after_first = client::stats(&addr)
        .expect("stats")
        .get_u64("cycles_simulated_total")
        .expect("counter");
    assert!(cycles_after_first > 0, "the first run simulated something");

    let second = client::submit(&addr, &spec).expect("resubmit");
    assert!(second.cached, "identical spec must hit the cache");
    assert_eq!(second.status, "done");
    assert_eq!(second.id, first.id);
    let second_result = client::wait(&addr, second.id).expect("cached fetch");

    // Bit-identical: the canonical wire form is byte-stable.
    assert_eq!(second_result.to_json(), first_result.to_json());

    // Zero simulated cycles for the hit, and the counters agree.
    let stats = client::stats(&addr).expect("stats");
    assert_eq!(
        stats.get_u64("cycles_simulated_total"),
        Some(cycles_after_first),
        "a cache hit must not simulate a cycle"
    );
    assert_eq!(stats.get_u64("cache_hits"), Some(1));
    assert_eq!(stats.get_u64("cache_misses"), Some(1));

    server.shutdown().expect("shutdown");
}

#[test]
fn sharded_submissions_merge_to_the_unsharded_result() {
    let (server, addr) = start(2, None);
    let base = small_spec();

    let ids: Vec<u64> = (0..2)
        .map(|index| {
            let mut shard = base.clone();
            shard.shard = Some((index, 2));
            client::submit(&addr, &shard).expect("submit shard").id
        })
        .collect();
    for &id in &ids {
        client::wait(&addr, id).expect("shard run");
    }
    let merged = client::merge(&addr, &ids).expect("merge");

    // The merged shards equal the unsharded campaign bit-for-bit,
    // records and stats both.
    let local = base.to_campaign().try_run(2).expect("local run");
    assert_eq!(merged.result, local);
    assert_eq!(merged.fingerprint, base.fingerprint());

    // A shard of a *different* campaign is refused with a structured 409.
    let mut foreign = base.clone();
    foreign.benchmark = Benchmark::Tblook;
    foreign.shard = Some((0, 2));
    let foreign_id = client::submit(&addr, &foreign).expect("submit foreign").id;
    client::wait(&addr, foreign_id).expect("foreign run");
    match client::merge(&addr, &[foreign_id, ids[1]]) {
        Err(verifd::ClientError::Http { status: 409, body }) => {
            assert!(
                body.contains("fingerprint"),
                "names the mismatched field: {body}"
            );
        }
        other => panic!("expected a 409 refusal, got {other:?}"),
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn transient_campaigns_share_one_golden_run() {
    let (server, addr) = start(1, None);

    // A transient sweep instant: flips at 40% of the golden run, with a
    // stride grid thickening the checkpoint pool.
    let mut transient = small_spec();
    transient.kinds = vec![FaultKind::TransientFlip];
    transient.injection = InjectionInstant::Fraction(0.4);
    transient.checkpoint_stride = Some(10_000);

    let first = client::submit(&addr, &transient).expect("submit");
    let first_result = client::wait(&addr, first.id).expect("transient run");
    // The service result matches a local run of the same spec bit-for-bit.
    let local = transient.to_campaign().try_run(1).expect("local run");
    assert_eq!(first_result.result, local);
    assert_eq!(first_result.result.stats().full_reexecutions, 0);
    assert!(first_result.result.stats().checkpoints_taken > 0);

    let stats = client::stats(&addr).expect("stats");
    assert_eq!(stats.get_u64("golden_cache_misses"), Some(1));
    assert_eq!(stats.get_u64("golden_cache_hits"), Some(0));

    // A different instant on the same workload re-uses the cached golden
    // run instead of re-executing it.
    let mut second = transient.clone();
    second.injection = InjectionInstant::Fraction(0.7);
    let reply = client::submit(&addr, &second).expect("submit");
    assert!(!reply.cached, "different instant is a different campaign");
    client::wait(&addr, reply.id).expect("second run");

    let stats = client::stats(&addr).expect("stats");
    assert_eq!(stats.get_u64("golden_cache_hits"), Some(1));
    assert_eq!(stats.get_u64("golden_cache_misses"), Some(1));
    assert_eq!(stats.get_u64("golden_cache_entries"), Some(1));

    // A parity-armed spec changes the golden classification config and
    // must not share the cached run.
    let mut parity = transient.clone();
    parity.safety.parity = true;
    let reply = client::submit(&addr, &parity).expect("submit");
    client::wait(&addr, reply.id).expect("parity run");
    let stats = client::stats(&addr).expect("stats");
    assert_eq!(stats.get_u64("golden_cache_misses"), Some(2));
    assert_eq!(stats.get_u64("golden_cache_entries"), Some(2));

    server.shutdown().expect("shutdown");
}

#[test]
fn correlation_sweep_fits_a_model_and_predictions_cost_nothing() {
    let (server, addr) = start(2, None);

    // A tiny two-cell sweep: the synthetic benchmarks have cheap golden
    // runs and distinct diversities, enough for a well-defined fit.
    let mut sweep = CorrelationSpec::new();
    sweep.benchmarks = vec![Benchmark::Membench, Benchmark::Intbench];
    sweep.sample = Some((6, 0xc0ffee));

    let reply = client::correlate(&addr, &sweep).expect("correlate");
    assert!(!reply.cached);
    let report = client::wait_report(&addr, reply.id).expect("fitted report");
    assert_eq!(report.fingerprint, sweep.fingerprint());
    assert!(report.best_domain().model.r2.is_finite());
    // The report matches a local run of the same sweep bit for bit.
    let local = sweep.run_report(2).expect("local sweep");
    assert_eq!(report.to_json(), local.to_json());

    let stats = client::stats(&addr).expect("stats");
    let cycles_after_sweep = stats.get_u64("cycles_simulated_total").expect("counter");
    assert!(cycles_after_sweep > 0);
    assert_eq!(stats.get_u64("models_cached"), Some(1));

    // Predictions — by histogram and by swept label — answer from the
    // cached model without simulating a cycle.
    let by_histogram = PredictRequest::from_histogram(vec![
        ("add".to_string(), 500),
        ("bne".to_string(), 40),
        ("ld".to_string(), 80),
        ("st".to_string(), 60),
    ]);
    let p = client::predict(&addr, &by_histogram).expect("predict");
    assert!((0.0..=1.0).contains(&p.pf), "Pf = {}", p.pf);
    assert_eq!(p.diversity, 4);
    assert_eq!(p.fingerprint, sweep.fingerprint());

    let by_label = client::predict(&addr, &PredictRequest::from_benchmark("intbench"))
        .expect("predict by label");
    assert!((0.0..=1.0).contains(&by_label.pf));
    assert!(by_label.diversity > 0, "diversity comes from the sweep");

    // Resubmitting the identical sweep is a cache hit.
    let again = client::correlate(&addr, &sweep).expect("resubmit");
    assert!(again.cached);
    assert_eq!(again.id, reply.id);

    let stats = client::stats(&addr).expect("stats");
    assert_eq!(
        stats.get_u64("cycles_simulated_total"),
        Some(cycles_after_sweep),
        "predictions and cache hits must not simulate"
    );
    assert_eq!(stats.get_u64("predictions"), Some(2));

    // An unknown label and an unknown model are clean 404s.
    match client::predict(&addr, &PredictRequest::from_benchmark("puwmod")) {
        Err(verifd::ClientError::Http { status: 404, .. }) => {}
        other => panic!("expected 404 for unswept label, got {other:?}"),
    }
    let mut foreign = PredictRequest::from_benchmark("intbench");
    foreign.fingerprint = Some("corr-0000000000000000".to_string());
    match client::predict(&addr, &foreign) {
        Err(verifd::ClientError::Http { status: 404, .. }) => {}
        other => panic!("expected 404 for unknown model, got {other:?}"),
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn golden_store_deduplicates_across_different_specs() {
    let (server, addr) = start(1, None);

    // A campaign over membench, then a correlation sweep whose membench
    // cell generates the identical program image: the sweep must reuse
    // the campaign's golden capture (and vice versa for intbench).
    let mut campaign = CampaignSpec::new(Benchmark::Membench, Target::IntegerUnit);
    campaign.kinds = vec![FaultKind::StuckAt1];
    campaign.sample = Some((4, 9));
    let reply = client::submit(&addr, &campaign).expect("submit");
    client::wait(&addr, reply.id).expect("campaign run");

    let stats = client::stats(&addr).expect("stats");
    assert_eq!(stats.get_u64("golden_cache_misses"), Some(1));
    assert_eq!(stats.get_u64("golden_store_hits"), Some(0));

    // A different seed: a different campaign spec (different config
    // fingerprint) over the same workload image (same workload hash).
    let mut sweep = CorrelationSpec::new();
    sweep.benchmarks = vec![Benchmark::Membench, Benchmark::Intbench];
    sweep.sample = Some((4, 10));
    let reply = client::correlate(&addr, &sweep).expect("correlate");
    client::wait_report(&addr, reply.id).expect("report");

    let stats = client::stats(&addr).expect("stats");
    // The membench cell hit the campaign's capture — a cross-spec store
    // hit; only intbench needed a fresh one.
    assert_eq!(stats.get_u64("golden_cache_misses"), Some(2));
    assert!(stats.get_u64("golden_store_hits").expect("counter") >= 1);
    assert_eq!(stats.get_u64("golden_cache_entries"), Some(2));

    server.shutdown().expect("shutdown");
}

#[test]
fn sharded_correlation_merges_into_a_served_model() {
    let (server, addr) = start(2, None);
    let mut sweep = CorrelationSpec::new();
    sweep.benchmarks = vec![Benchmark::Membench, Benchmark::Intbench];
    sweep.sample = Some((6, 0xc0ffee));

    let ids: Vec<u64> = (0..2)
        .map(|index| {
            let mut shard = sweep.clone();
            shard.shard = Some((index, 2));
            client::correlate(&addr, &shard)
                .expect("correlate shard")
                .id
        })
        .collect();
    for &id in &ids {
        // Shards finish as partials (no report of their own).
        loop {
            let (status, body) =
                client::request(&addr, "GET", &format!("/campaign/{id}"), "").expect("poll");
            assert_eq!(status, 200);
            if body.contains("\"status\":\"done\"") {
                assert!(body.contains("\"shard\":"), "partial carries its shard");
                break;
            }
            assert!(!body.contains("\"status\":\"failed\""), "{body}");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }
    let body = format!(
        "{{\"ids\":[{}]}}",
        ids.iter()
            .map(u64::to_string)
            .collect::<Vec<String>>()
            .join(",")
    );
    let (status, merged) = client::request(&addr, "POST", "/merge", &body).expect("merge");
    assert_eq!(status, 200, "{merged}");
    // Bit-identical to the local unsharded sweep, and immediately
    // servable: the merge registered the fitted model.
    let local = sweep.run_report(2).expect("local sweep");
    assert_eq!(merged, local.to_json());
    let p = client::predict(&addr, &PredictRequest::from_benchmark("membench"))
        .expect("predict after merge");
    assert_eq!(p.fingerprint, sweep.fingerprint());

    server.shutdown().expect("shutdown");
}

#[test]
fn graceful_shutdown_journals_the_queued_specs() {
    let dir = std::env::temp_dir().join(format!("verifd-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let drain = dir.join("drain.jsonl");
    // Zero workers: everything queues, nothing runs — the drain must
    // capture all of it.
    let (server, addr) = start(0, Some(drain.clone()));

    let mut specs = Vec::new();
    for seed in [1, 2, 3] {
        let mut spec = small_spec();
        spec.sample = Some((8, seed));
        let reply = client::submit(&addr, &spec).expect("submit");
        assert_eq!(reply.status, "queued");
        specs.push(spec);
    }

    let drained = server.shutdown().expect("shutdown");
    assert_eq!(drained, 3);

    let journal = std::fs::read_to_string(&drain).expect("drain file");
    let recovered: Vec<CampaignSpec> = journal
        .lines()
        .map(|line| CampaignSpec::parse(line).expect("drained spec parses"))
        .collect();
    assert_eq!(recovered, specs, "the drain journal preserves the queue");

    // A drained spec resubmits cleanly to a fresh server: the round trip
    // loses nothing the campaign engine needs.
    assert_eq!(recovered[0].to_json(), specs[0].to_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_submissions_and_unknown_routes_are_refused() {
    let (server, addr) = start(0, None);

    match client::request(&addr, "POST", "/campaign", "{\"benchmark\":\"rspeed\"}") {
        Ok((400, body)) => assert!(body.contains("target"), "{body}"),
        other => panic!("expected 400, got {other:?}"),
    }
    match client::request(&addr, "GET", "/nope", "") {
        Ok((404, _)) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    match client::request(&addr, "DELETE", "/campaign", "") {
        Ok((405, _)) => {}
        other => panic!("expected 405, got {other:?}"),
    }
    match client::request(&addr, "GET", "/campaign/999", "") {
        Ok((404, _)) => {}
        other => panic!("expected 404 for unknown id, got {other:?}"),
    }
    // A server started without a fleet has no fleet routes.
    for path in [
        "/fleet",
        "/register",
        "/lease",
        "/heartbeat",
        "/complete",
        "/fail",
    ] {
        match client::request(&addr, "POST", path, "{}") {
            Ok((404, _)) => {}
            other => panic!("expected 404 for {path}, got {other:?}"),
        }
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn an_unwritable_drain_journal_loses_no_queued_work() {
    let dir = std::env::temp_dir().join(format!("verifd-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A directory where the drain file belongs: the journal cannot be
    // written.
    let drain = dir.join("drain.jsonl");
    std::fs::create_dir_all(&drain).expect("temp dir");
    let (server, addr) = start(0, Some(drain.clone()));
    let mut first = small_spec();
    first.sample = Some((8, 21));
    let queued = client::submit(&addr, &first).expect("submit");

    let refused = client::request_full(&addr, "POST", "/shutdown", "").expect("shutdown request");
    assert_eq!(refused.status, 503, "{}", refused.body);
    // Nothing changed: the job is still queued, and the server still
    // takes work.
    assert_eq!(
        client::status(&addr, queued.id).expect("status").status,
        "queued"
    );
    assert!(!client::healthz(&addr).expect("healthz"), "not draining");
    let mut second = small_spec();
    second.sample = Some((8, 22));
    assert_eq!(
        client::submit(&addr, &second).expect("submit").status,
        "queued"
    );

    // Once the journal can be written, shutdown drains both.
    std::fs::remove_dir(&drain).expect("clear the drain path");
    assert_eq!(server.shutdown().expect("shutdown"), 2);
    let journal = std::fs::read_to_string(&drain).expect("drain file");
    let drained: Vec<CampaignSpec> = journal
        .lines()
        .map(|line| CampaignSpec::parse(line).expect("drained spec parses"))
        .collect();
    assert_eq!(drained, vec![first, second]);
    std::fs::remove_dir_all(&dir).ok();
}

/// `GET /healthz` on a thread of its own, so a stalled server fails the
/// test instead of hanging it: `Some(reply)` if it answered within
/// `limit`.
fn healthz_within(addr: &str, limit: Duration) -> Option<Result<bool, client::ClientError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(client::healthz(&addr));
    });
    rx.recv_timeout(limit).ok()
}

#[test]
fn an_idle_connection_does_not_stall_the_service() {
    let (server, addr) = start(1, None);
    // Connects, then sends nothing: the accept loop takes it first.
    let idle = TcpStream::connect(&addr).expect("idle connection");
    let reply = healthz_within(&addr, IO_TIMEOUT + Duration::from_secs(2))
        .expect("/healthz must answer within the I/O timeout plus slack");
    assert!(!reply.expect("healthz"), "not draining");
    drop(idle);
    server.shutdown().expect("shutdown");
}

#[test]
fn an_over_long_header_line_is_refused_and_the_service_goes_on() {
    let (server, addr) = start(1, None);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    // Exactly `MAX_HEAD` bytes, ending inside one header line: the server
    // refuses the head at its cap having read all that was sent, so it
    // closes without unread input and its 400 is not lost to a reset.
    let head = "GET /healthz HTTP/1.1\r\nx-padding: ";
    let padding = "x".repeat(MAX_HEAD - head.len());
    write!(stream, "{head}{padding}").expect("send");
    let (status, body) = read_response(&stream).expect("a response, not a hang-up");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("too large"), "{body}");
    drop(stream);
    let reply = healthz_within(&addr, IO_TIMEOUT).expect("/healthz answers");
    assert!(!reply.expect("healthz"), "not draining");
    server.shutdown().expect("shutdown");
}

#[test]
fn a_trickling_client_does_not_stall_the_service() {
    let (server, addr) = start(1, None);
    // Connects, then sends a request head one byte per second until the
    // service hangs up; the accept loop takes it first.
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
    let limit = REQUEST_DEADLINE + IO_TIMEOUT + Duration::from_secs(2);
    let reply = healthz_within(&addr, limit)
        .expect("/healthz must answer within the request deadline plus slack");
    assert!(!reply.expect("healthz"), "not draining");
    server.shutdown().expect("shutdown");
    slow.join().expect("trickling client");
}

#[test]
fn a_deeply_nested_body_is_refused_and_the_service_goes_on() {
    let (server, addr) = start(1, None);
    let body = "[".repeat(10_000);
    match client::request(&addr, "POST", "/campaign", &body) {
        Ok((400, _)) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    let reply = healthz_within(&addr, IO_TIMEOUT).expect("/healthz answers");
    assert!(!reply.expect("healthz"), "not draining");
    server.shutdown().expect("shutdown");
}
