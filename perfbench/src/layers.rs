//! The traced run: the workload's operations with spans around every
//! call into a layer, then a probe of each layer's public functions.
//! Every workload reports the same per-layer metrics; `NOTES.md` maps
//! each one to the end-to-end metric and workload it should move.

use crate::trace::Tracer;
use crate::workload::{
    self, cmem_campaign, correlate_spec, transient_campaign, OpReport, Prepared, Workload, THREADS,
};
use crate::{calib_ns, median, Metric, Tally};
use fault_inject::journal::{self, Entry, Header, Journal};
use fault_inject::wire::kind_to_token;
use fault_inject::{
    Campaign, CampaignResult, CampaignStats, CorrelationCell, CorrelationReport, ShardResult,
};
use leon3_model::{Leon3, Leon3Config, Snapshot};
use rtl_sim::{Fault, NetId};
use sparc_asm::Program;
use sparc_iss::{Iss, IssConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use verifd::{client, Server, ServerConfig};
use workloads::{Benchmark, Params};

/// Passes over every net of the pool per read/write probe.
const NET_PASSES: usize = 200;
/// Fault sites probed for the faulted read path and the faulty run.
const FAULT_PROBES: usize = 16;
/// Checkpoint/restore repetitions of the net pool.
const RESTORE_REPS: usize = 2000;
/// Passes over the text words per decode probe.
const DECODE_PASSES: usize = 200;
/// Round trips per server probe.
const RTT_REPS: usize = 300;

/// Collects the per-layer metrics in report order.
struct Report(Vec<Metric>);

impl Report {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// The traced run: untraced and traced operations alternate (two of
/// each at least) so `trace.overhead_pct` compares like with like, then
/// the layer probes run on the last traced operation's outputs.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut first = None;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut r = Report(Vec::new());
    let golden_cycles = loop {
        let (prepared, op) = once(workload, seed, &mut untraced, &mut tally)?;
        workload::teardown(prepared)?;
        workload::check(workload, seed, &mut first, &op, &mut tally);
        plain_s.push(op.seconds);
        let (prepared, op) = once(workload, seed, &mut tracer, &mut tally)?;
        workload::check(workload, seed, &mut first, &op, &mut tally);
        traced_s.push(op.seconds);
        // Spend at most half the budget on operations; the probes take
        // the rest.
        if traced_s.len() >= 2 && start.elapsed() * 2 >= budget {
            let probed = probe_outputs(&prepared, &op, &mut tracer, &mut tally, &mut r);
            workload::teardown(prepared)?;
            break probed?;
        }
        workload::teardown(prepared)?;
    };
    let overhead = (median(&traced_s) / median(&plain_s) - 1.0) * 100.0;
    r.add("trace.overhead_pct", "%", overhead);
    r.add("host.calib_ns", "ns", calib_ns());
    probe_models(workload, seed, &mut tracer, &mut r)?;
    probe_fault_setup(workload, seed, golden_cycles, &mut tracer, &mut r)?;
    probe_server(&mut tracer, &mut tally, &mut r)?;
    let path = workload::work_dir()?.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{} seed {seed} (traced): spans in {}",
        workload.name(),
        path.display()
    );
    for m in &r.0 {
        println!("  {} = {:.6} {}", m.name, m.value, m.unit);
    }
    Ok((tally, r.0))
}

/// A fresh set-up (a fresh service, so no sweep is a cache hit) and one
/// operation on it.
fn once(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Prepared, OpReport), String> {
    let prepared = workload::setup(workload, seed)?;
    match workload::run_op(&prepared, tracer, tally) {
        Ok(op) => Ok((prepared, op)),
        Err(e) => {
            workload::teardown(prepared)?;
            Err(e)
        }
    }
}

/// The campaigns a workload runs (one for the campaign workloads, one
/// per cell and domain for the sweep).
fn campaigns(workload: Workload, seed: u64) -> Vec<Campaign> {
    match workload {
        Workload::CmemCampaign => vec![cmem_campaign(seed)],
        Workload::TransientSweep => vec![transient_campaign(seed).0],
        Workload::CorrelateServe => {
            let spec = correlate_spec();
            spec.jobs()
                .iter()
                .map(|(cell, target)| spec.campaign(cell, *target))
                .collect()
        }
    }
}

/// Probes fed by the workload's own outputs: campaign statistics, the
/// journal, the wire encoding and (for the service) its counters.
/// Returns the summed golden-run length of the workload's campaigns.
fn probe_outputs(
    prepared: &Prepared,
    op: &OpReport,
    tracer: &mut Tracer,
    tally: &mut Tally,
    r: &mut Report,
) -> Result<u64, String> {
    let (results, report) = match (prepared, &op.serve) {
        (Prepared::Correlate { spec, addr, .. }, Some(serve)) => {
            // The service runs its campaigns out of reach; an in-process
            // run of the same spec gives their statistics, and the
            // difference in wall time is the service's overhead.
            let start = Instant::now();
            let shard = tracer
                .span("fault.correlation_run", |_| spec.run(THREADS))
                .map_err(|e| format!("in-process sweep: {e}"))?;
            let in_process = start.elapsed().as_secs_f64();
            print_service(addr, spec, op.seconds - in_process, tracer, tally)?;
            let results: Vec<CampaignResult> =
                shard.results.into_iter().map(|s| s.result).collect();
            (results, Some(&serve.report))
        }
        _ => (op.results.clone(), None),
    };
    let mut stats = CampaignStats::default();
    for result in &results {
        stats.merge(result.stats());
    }
    let jobs = stats.jobs.max(1) as f64;
    r.add(
        "fault.host_ns_per_cycle",
        "ns",
        op.seconds * 1e9 / op.cycles.max(1) as f64,
    );
    r.add("fault.jobs", "count", stats.jobs as f64);
    r.add(
        "fault.cycles_simulated",
        "cycles",
        stats.cycles_simulated as f64,
    );
    r.add("fault.prefix_cycles", "cycles", stats.prefix_cycles as f64);
    r.add("fault.replay_cycles", "cycles", stats.replay_cycles as f64);
    r.add("fault.forked", "count", stats.forked as f64);
    r.add(
        "fault.restored_from_checkpoint",
        "count",
        stats.restored_from_checkpoint as f64,
    );
    r.add(
        "fault.skipped_inactive",
        "count",
        stats.skipped_inactive as f64,
    );
    r.add(
        "fault.short_circuited",
        "count",
        stats.short_circuited as f64,
    );
    r.add(
        "fault.checkpoints_taken",
        "count",
        stats.checkpoints_taken as f64,
    );
    r.add("fault.checkpoint_bytes", "B", stats.checkpoint_bytes as f64);
    r.add(
        "fault.full_reexecutions",
        "count",
        stats.full_reexecutions as f64,
    );
    r.add("fault.retried", "count", stats.retried as f64);
    r.add(
        "fault.skip_ratio",
        "ratio",
        stats.skipped_inactive as f64 / jobs,
    );
    r.add(
        "fault.short_circuit_rate",
        "ratio",
        stats.short_circuit_rate(),
    );
    r.add(
        "fault.cycles_per_job",
        "cycles",
        stats.cycles_simulated as f64 / jobs,
    );
    r.add(
        "fault.replay_cycles_per_restore",
        "cycles",
        stats.replay_cycles as f64 / stats.restored_from_checkpoint.max(1) as f64,
    );
    let journal_file = match prepared {
        Prepared::Transient { journal, .. } => Some(journal.as_path()),
        _ => None,
    };
    probe_journal(journal_file, &results, tracer, r)?;
    probe_wire(&results, report, tracer, r)?;
    // A sweep's results are one per campaign; a multi-instant sweep's
    // results share one campaign.
    Ok(match prepared {
        Prepared::Transient { .. } => results.first().map_or(0, |res| res.stats().golden_cycles),
        _ => results.iter().map(|res| res.stats().golden_cycles).sum(),
    })
}

/// Re-append the workload's journal entries (or, for a workload without
/// a journal, one entry per record) to a fresh journal, then read it.
fn probe_journal(
    existing: Option<&Path>,
    results: &[CampaignResult],
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let (header, entries) = match existing {
        Some(path) => {
            let (header, entries, _) =
                journal::read(path).map_err(|e| format!("read journal: {e}"))?;
            (header, entries)
        }
        None => {
            let records: Vec<_> = results.iter().flat_map(CampaignResult::records).collect();
            let mut kinds: Vec<String> =
                records.iter().map(|rec| kind_to_token(rec.kind)).collect();
            kinds.sort();
            kinds.dedup();
            let header = Header {
                workload: 0,
                fingerprint: 0,
                jobs: records.len(),
                injection_cycle: 0,
                golden_cycles: results.first().map_or(0, |res| res.stats().golden_cycles),
                instants: 1,
                instants_hash: 0,
                checkpoint_stride: 0,
                kinds,
            };
            let entries = records
                .into_iter()
                .enumerate()
                .map(|(job, record)| Entry {
                    job,
                    record: record.clone(),
                    delta: CampaignStats::default(),
                })
                .collect();
            (header, entries)
        }
    };
    let path = workload::work_dir()?.join("journal-probe.jsonl");
    let mut fresh = Journal::create(&path, &header).map_err(|e| format!("create journal: {e}"))?;
    for entry in &entries {
        tracer
            .span("journal.append", |_| fresh.append(entry))
            .map_err(|e| format!("append journal: {e}"))?;
    }
    drop(fresh);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (_, reread, _) = tracer
        .span("journal.read", |_| journal::read(&path))
        .map_err(|e| format!("re-read journal: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let jobs_and_records =
        |list: &[Entry]| -> Vec<_> { list.iter().map(|e| (e.job, e.record.clone())).collect() };
    if jobs_and_records(&reread) != jobs_and_records(&entries) {
        return Err("journal re-read differs from the appended entries".to_string());
    }
    let n = entries.len().max(1) as f64;
    r.add(
        "journal.append_us",
        "us",
        tracer.total("journal.append") * 1e6 / n,
    );
    r.add("journal.bytes_per_job", "B", bytes as f64 / n);
    r.add("journal.read_ms", "ms", tracer.total("journal.read") * 1e3);
    Ok(())
}

/// Encode and parse the workload's results (and the sweep's report) in
/// their canonical wire form.
fn probe_wire(
    results: &[CampaignResult],
    report: Option<&CorrelationReport>,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let mut kb = 0.0;
    for result in results {
        let shard = ShardResult {
            fingerprint: "perfbench".to_string(),
            index: 0,
            count: 1,
            result: result.clone(),
        };
        let text = tracer.span("wire.encode", |_| shard.to_json());
        kb += text.len() as f64 / 1024.0;
        let parsed = tracer
            .span("wire.parse", |_| ShardResult::parse(&text))
            .map_err(|e| format!("parse result: {e}"))?;
        if parsed != shard {
            return Err("wire round trip changed a campaign result".to_string());
        }
    }
    if let Some(report) = report {
        let text = tracer.span("wire.encode", |_| report.to_json());
        kb += text.len() as f64 / 1024.0;
        let parsed = tracer
            .span("wire.parse", |_| CorrelationReport::parse(&text))
            .map_err(|e| format!("parse report: {e}"))?;
        if parsed.to_json() != text {
            return Err("wire round trip changed the fitted report".to_string());
        }
    }
    r.add(
        "wire.encode_us_per_kb",
        "us/kB",
        tracer.total("wire.encode") * 1e6 / kb,
    );
    r.add(
        "wire.parse_us_per_kb",
        "us/kB",
        tracer.total("wire.parse") * 1e6 / kb,
    );
    Ok(())
}

/// Print the service figures only `correlate-serve` has: the cached
/// resubmission, the engine overhead and the `/stats` counters.
fn print_service(
    addr: &str,
    spec: &fault_inject::CorrelationSpec,
    engine_overhead_s: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let start = Instant::now();
    let reply = tracer.span("server.correlate", |_| client::correlate(addr, spec));
    tally.attempted += 1;
    let reply = reply.map_err(|e| format!("cached correlate: {e}"))?;
    tally.attempted += 1;
    tracer
        .span("server.wait_report", |_| {
            client::wait_report(addr, reply.id)
        })
        .map_err(|e| format!("cached report: {e}"))?;
    let cached_ms = start.elapsed().as_secs_f64() * 1e3;
    tally.attempted += 1;
    let stats = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    let counter = |name: &str| stats.get_u64(name).unwrap_or(0);
    println!(
        "  server.cached_correlate_ms = {cached_ms:.3} ms (cached: {})",
        reply.cached
    );
    println!("  server.engine_overhead_s = {engine_overhead_s:.6} s");
    for name in [
        "cache_hits",
        "golden_cache_misses",
        "cycles_simulated_total",
        "predictions",
    ] {
        println!("  server.{name} = {} count", counter(name));
    }
    Ok(())
}

/// Probes of the simulators on fixed inputs: the net pool, the Leon3
/// model, the decoder and the ISS.
fn probe_models(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let config = Leon3Config::default();
    let rspeed = Benchmark::Rspeed.program(&Params::default());
    let cpu = Leon3::new(config.clone());
    let nets: Vec<NetId> = cpu.pool().iter().map(|(id, _)| id).collect();

    // Net pool reads and writes, fault-free, over Leon3's nets.
    let mut pool = cpu.pool().clone();
    let reads = (NET_PASSES * nets.len()) as f64;
    tracer.span("rtl.read", |_| {
        for _ in 0..NET_PASSES {
            for &net in &nets {
                black_box(pool.read(black_box(net)));
            }
        }
    });
    tracer.span("rtl.write", |_| {
        for pass in 0..NET_PASSES {
            for &net in &nets {
                pool.write(net, black_box(pass as u32));
            }
        }
    });
    r.add("rtl.read_ns", "ns", tracer.total("rtl.read") * 1e9 / reads);
    r.add(
        "rtl.write_ns",
        "ns",
        tracer.total("rtl.write") * 1e9 / reads,
    );

    // Reads with one of cmem-campaign's faults armed, as a job runs.
    let sites = cmem_campaign(seed).sites();
    let probes: Vec<Fault> = sites
        .iter()
        .take(FAULT_PROBES)
        .map(|site| Fault {
            net: site.net,
            bit: site.bit,
            kind: rtl_sim::FaultKind::StuckAt1,
            from_cycle: 0,
        })
        .collect();
    let passes = NET_PASSES / FAULT_PROBES.max(1);
    for &fault in &probes {
        let mut faulty = cpu.pool().clone();
        faulty.inject(fault);
        tracer.span("rtl.read_faulted", |_| {
            for _ in 0..passes {
                for &net in &nets {
                    black_box(faulty.read(black_box(net)));
                }
            }
        });
    }
    r.add(
        "rtl.read_faulted_ns",
        "ns",
        tracer.total("rtl.read_faulted") * 1e9 / (passes * nets.len() * probes.len()) as f64,
    );
    let checkpoint = pool.checkpoint();
    tracer.span("rtl.restore", |_| {
        for _ in 0..RESTORE_REPS {
            pool.restore(black_box(&checkpoint));
        }
    });
    r.add(
        "rtl.restore_us",
        "us",
        tracer.total("rtl.restore") * 1e6 / RESTORE_REPS as f64,
    );

    // Leon3: a fault-free run of rspeed, then faulty runs of the same
    // cmem sites.
    let mut golden = Leon3::new(config.clone());
    golden.load(&rspeed);
    let outcome = tracer.span("leon3.run", |_| golden.run(u64::MAX));
    if !matches!(outcome, sparc_iss::RunOutcome::Halted { .. }) {
        return Err(format!("rspeed did not halt on Leon3: {outcome:?}"));
    }
    let golden_cycles = golden.cycles();
    let budget = golden.stats().instructions * 2;
    r.add(
        "leon3.mcycles_per_s",
        "Mcycles/s",
        golden_cycles as f64 / tracer.total("leon3.run") / 1e6,
    );
    let mut faulty_cycles = 0;
    for &fault in probes.iter().take(4) {
        let mut cpu = Leon3::new(config.clone());
        cpu.load(&rspeed);
        cpu.inject(fault);
        tracer.span("leon3.faulty_run", |_| black_box(cpu.run(budget)));
        faulty_cycles += cpu.cycles();
    }
    r.add(
        "leon3.faulty_mcycles_per_s",
        "Mcycles/s",
        faulty_cycles as f64 / tracer.total("leon3.faulty_run") / 1e6,
    );

    // Snapshot and restore at transient-sweep's instants.
    let (_, fractions) = transient_campaign(seed);
    let mut cpu = Leon3::new(config);
    cpu.load(&rspeed);
    let mut snapshots = Vec::with_capacity(fractions.len());
    for f in fractions {
        let target = (golden_cycles as f64 * f) as u64;
        while cpu.cycles() < target {
            cpu.step();
        }
        snapshots.push(tracer.span("leon3.snapshot", |_| cpu.snapshot()));
    }
    for snapshot in &snapshots {
        tracer.span("leon3.restore", |_| cpu.restore(snapshot));
    }
    let n = snapshots.len().max(1) as f64;
    r.add(
        "leon3.snapshot_us",
        "us",
        tracer.total("leon3.snapshot") * 1e6 / n,
    );
    r.add(
        "leon3.restore_us",
        "us",
        tracer.total("leon3.restore") * 1e6 / n,
    );
    r.add(
        "leon3.snapshot_kb",
        "kB",
        snapshots.iter().map(Snapshot::approx_bytes).sum::<usize>() as f64 / 1024.0 / n,
    );

    // Decoder over the text words of the workload's programs; ISS over
    // the sweep's programs.
    let sweep: Vec<Program> = correlate_spec()
        .cells()
        .iter()
        .map(CorrelationCell::program)
        .collect();
    let programs = if workload == Workload::CorrelateServe {
        sweep.clone()
    } else {
        vec![rspeed]
    };
    let words: Vec<u32> = programs.iter().flat_map(text_words).collect();
    tracer.span("sparc.decode", |_| {
        for _ in 0..DECODE_PASSES {
            for &word in &words {
                let _ = black_box(sparc_isa::decode(black_box(word)));
            }
        }
    });
    r.add(
        "sparc.decode_ns",
        "ns",
        tracer.total("sparc.decode") * 1e9 / (DECODE_PASSES * words.len()) as f64,
    );
    // `correlate-serve`'s operations record `iss.run` spans too, so the
    // probe times its own calls.
    let (mut instructions, mut iss_s) = (0, 0.0);
    for program in &sweep {
        let mut iss = Iss::new(IssConfig::default());
        iss.load(program);
        let start = Instant::now();
        tracer.span("iss.run", |_| black_box(iss.run(200_000_000)));
        iss_s += start.elapsed().as_secs_f64();
        instructions += iss.stats().instructions;
    }
    r.add(
        "iss.minsn_per_s",
        "Minsn/s",
        instructions as f64 / iss_s / 1e6,
    );

    Ok(())
}

/// The fault layer's set-up calls on the workload's campaigns: site
/// enumeration and the golden capture. `golden_cycles` is the summed
/// golden-run length of those campaigns.
fn probe_fault_setup(
    workload: Workload,
    seed: u64,
    golden_cycles: u64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    for campaign in &campaigns(workload, seed) {
        tracer.span("fault.sites", |_| black_box(campaign.sites()));
        tracer
            .span("fault.prepare", |_| campaign.prepare())
            .map_err(|e| format!("prepare: {e}"))?;
    }
    let golden_s = tracer.total("fault.prepare");
    r.add("fault.golden_s", "s", golden_s);
    r.add(
        "fault.golden_mcycles_per_s",
        "Mcycles/s",
        golden_cycles as f64 / golden_s / 1e6,
    );
    r.add("fault.sites_ms", "ms", tracer.total("fault.sites") * 1e3);
    Ok(())
}

/// The 32-bit words of the segment holding the entry point.
fn text_words(program: &Program) -> Vec<u32> {
    program
        .segments
        .iter()
        .filter(|s| (s.base..s.end()).contains(&program.entry))
        .flat_map(|s| {
            s.bytes
                .chunks_exact(4)
                .map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
        })
        .collect()
}

/// The HTTP floor: `/healthz` and `/stats` round trips on a verifd of
/// one worker.
fn probe_server(tracer: &mut Tracer, tally: &mut Tally, r: &mut Report) -> Result<(), String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        job_threads: THREADS,
        drain_path: None,
    })
    .map_err(|e| format!("start verifd: {e}"))?;
    let addr = server.addr().to_string();
    let mut healthz = Vec::with_capacity(RTT_REPS);
    let mut stats = Vec::with_capacity(RTT_REPS);
    let mut failure = None;
    for _ in 0..RTT_REPS {
        let t = Instant::now();
        let reply = tracer.span("server.healthz", |_| client::healthz(&addr));
        healthz.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let reply = reply.and_then(|_| tracer.span("server.stats", |_| client::stats(&addr)));
        stats.push(t.elapsed().as_secs_f64() * 1e6);
        tally.attempted += 2;
        if let Err(e) = reply {
            tally.failed += 1;
            failure = Some(e.to_string());
        }
    }
    server.shutdown().map_err(|e| format!("stop verifd: {e}"))?;
    if let Some(e) = failure {
        return Err(format!("server probe: {e}"));
    }
    r.add("server.healthz_rtt_us", "us", median(&healthz));
    r.add("server.stats_rtt_us", "us", median(&stats));
    Ok(())
}
