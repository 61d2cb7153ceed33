//! The three workloads: set-up, one timed operation, and the output
//! digest each operation is checked against.

use crate::trace::Tracer;
use crate::{derive_seed, fnv1a64, median, peak_rss_mb, Metric, Tally, FNV_OFFSET};
use fault_inject::wire::result_to_json;
use fault_inject::{
    fault_sites, Campaign, CampaignResult, CampaignStats, CorrelationCell, CorrelationReport,
    CorrelationSpec, DatasetSelection, FaultOutcome, FaultSite, GoldenRun, InjectionInstant,
    PredictRequest, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_asm::Program;
use sparc_iss::{Iss, IssConfig, RunOutcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use verifd::{client, Server, ServerConfig};
use workloads::{Benchmark, Params};

/// Worker threads handed to every campaign (and to verifd's one worker).
pub const THREADS: usize = 1;
/// Sites sampled for `cmem-campaign` (three fault models each).
pub const CMEM_SAMPLE: usize = 400;
/// Sites sampled for `transient-sweep` (48 instants each).
pub const TRANSIENT_SAMPLE: usize = 16;
/// Instants of `transient-sweep`, evenly spaced over the golden run.
pub const TRANSIENT_INSTANTS: usize = 48;
/// Sites sampled per cell of `correlate-serve`'s sweep.
pub const CORRELATE_SAMPLE: usize = 48;
/// The sweep's sample seed (the `repro` default). Every cell shares one
/// site sample, so a seeded sample would swing the sweep's cost by 2x
/// between seeds; the sweep is pinned and the seed orders the closed
/// loop instead.
pub const SWEEP_SEED: u64 = 0x0dac_2015;
/// Closed-loop `/predict` requests per `correlate-serve` operation.
pub const PREDICT_LOOP: usize = 2000;
/// Injection instant of `cmem-campaign` and of the sweep, as a fraction
/// of the golden run.
pub const INJECTION_FRACTION: f64 = 0.3;
/// ISS instruction budget for a sweep program.
const ISS_BUDGET: u64 = 200_000_000;

/// Output digests recorded for chosen seeds (`workload seed digest`).
const RECORDED: &str = include_str!("../digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CmemCampaign,
    TransientSweep,
    CorrelateServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CmemCampaign,
        Workload::TransientSweep,
        Workload::CorrelateServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CmemCampaign => "cmem-campaign",
            Workload::TransientSweep => "transient-sweep",
            Workload::CorrelateServe => "correlate-serve",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::CmemCampaign => 1,
            Workload::TransientSweep => 2,
            Workload::CorrelateServe => 3,
        }
    }

    /// The digest recorded for this workload and seed, if any.
    pub fn recorded_digest(self, seed: u64) -> Option<u64> {
        RECORDED.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, s, digest) = (fields.next()?, fields.next()?, fields.next()?);
            (name == self.name() && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(digest, 16).ok())
                .flatten()
        })
    }
}

/// Where journals and trace files go: inside the build directory of the
/// checkout (`CARGO_TARGET_DIR`, else `perfbench/target`).
pub fn work_dir() -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = base.join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A workload's inputs, built by set-up.
pub enum Prepared {
    Cmem {
        campaign: Campaign,
    },
    Transient {
        campaign: Campaign,
        instants: Vec<InjectionInstant>,
        journal: PathBuf,
    },
    Correlate {
        spec: CorrelationSpec,
        programs: Vec<Program>,
        server: Server,
        addr: String,
        /// Orders the closed loop's requests.
        loop_seed: u64,
    },
}

/// The Fig. 7 sweep of `correlate-serve`: every dataset of the Table 1
/// benchmarks plus excerpts (24 cells), the pinned sample per cell.
pub fn correlate_spec() -> CorrelationSpec {
    let mut spec = CorrelationSpec::new();
    spec.datasets = DatasetSelection::All;
    spec.sample = Some((CORRELATE_SAMPLE, SWEEP_SEED));
    spec.injection = InjectionInstant::Fraction(INJECTION_FRACTION);
    spec
}

/// A seeded sample of `n` sites balanced on an estimated cost: the
/// universe sorted by cost is cut into `n` slices of equal length and one
/// site is drawn from each, so every seed gets the same mix of cheap and
/// dear jobs. A plain random sample of a few hundred sites swings a
/// campaign's cost by a quarter between seeds.
fn balanced_sample(mut costed: Vec<(u64, FaultSite)>, n: usize, seed: u64) -> Vec<FaultSite> {
    costed.sort_by_key(|&(cost, site)| (cost, site.net.raw(), site.bit));
    let n = n.min(costed.len()).max(1);
    (0..n)
        .map(|bin| {
            let lo = bin * costed.len() / n;
            let hi = (bin + 1) * costed.len() / n;
            let pick = derive_seed(seed, bin as u64) % (hi - lo) as u64;
            costed[lo + pick as usize].1
        })
        .collect()
}

/// Golden cycles a job injected at `cycle` on `site` would simulate if
/// the site is ever read again; zero if the job is classified without
/// simulation.
fn job_cost(golden: &GoldenRun, site: FaultSite, cycle: u64) -> u64 {
    if golden.net_exercised_from(site.net, cycle) {
        golden.cycles - cycle
    } else {
        0
    }
}

/// CMEM nets left out of `cmem-campaign`'s universe: a stuck bit on the
/// cache's bus address can send a store outside RAM, and the Leon3 model
/// panics on it instead of trapping, so those jobs end as engine
/// anomalies whatever the engine's speed.
pub const CMEM_EXCLUDED_NETS: [&str; 1] = ["cmem.bus.addr"];

/// `cmem-campaign`: rspeed's cache memory, stuck-at-0/1 and open-line at
/// 30% of the golden run, on a seeded cost-balanced sample of the CMEM
/// universe without [`CMEM_EXCLUDED_NETS`].
pub fn cmem_campaign(seed: u64) -> Campaign {
    let program = Benchmark::Rspeed.program(&Params::default());
    let golden = GoldenRun::capture(&program, &Leon3Config::default());
    let cycle = (golden.cycles as f64 * INJECTION_FRACTION) as u64;
    let reference = Leon3::new(Leon3Config::default());
    let universe: Vec<(u64, FaultSite)> = fault_sites(&reference, Target::CacheMemory)
        .into_iter()
        .filter(|site| !CMEM_EXCLUDED_NETS.contains(&reference.pool().meta(site.net).name.as_str()))
        .map(|site| (job_cost(&golden, site, cycle), site))
        .collect();
    let sites = balanced_sample(
        universe,
        CMEM_SAMPLE,
        derive_seed(seed, Workload::CmemCampaign.salt()),
    );
    Campaign::new(program, Target::CacheMemory)
        .with_kinds(&[
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
        ])
        .with_injection_fraction(INJECTION_FRACTION)
        .with_sites(sites)
}

/// The transient sweep's campaign and instants, on a seeded
/// cost-balanced sample of the IU sites the golden run reads after at
/// least one instant (two thirds of the IU universe is never read again,
/// and a handful of sites drawn from all of it swings the sweep's cost by
/// a third between seeds). The checkpoint stride is a quarter of the
/// golden run, so the set-up captures the golden run once to learn its
/// length.
pub fn transient_campaign(seed: u64) -> (Campaign, Vec<f64>) {
    let program = Benchmark::Rspeed.program(&Params::default());
    let golden = GoldenRun::capture(&program, &Leon3Config::default());
    let fractions: Vec<f64> = (1..=TRANSIENT_INSTANTS)
        .map(|i| i as f64 / (TRANSIENT_INSTANTS + 1) as f64)
        .collect();
    let cycles: Vec<u64> = fractions
        .iter()
        .map(|f| (golden.cycles as f64 * f) as u64)
        .collect();
    let reference = Leon3::new(Leon3Config::default());
    let universe: Vec<(u64, FaultSite)> = fault_sites(&reference, Target::IntegerUnit)
        .into_iter()
        .map(|site| {
            (
                cycles.iter().map(|&c| job_cost(&golden, site, c)).sum(),
                site,
            )
        })
        .filter(|&(cost, _)| cost > 0)
        .collect();
    let sites = balanced_sample(
        universe,
        TRANSIENT_SAMPLE,
        derive_seed(seed, Workload::TransientSweep.salt()),
    );
    let campaign = Campaign::new(program, Target::IntegerUnit)
        .with_kinds(&[FaultKind::TransientFlip])
        .with_sites(sites)
        .with_checkpoint_stride(golden.cycles / 4);
    (campaign, fractions)
}

pub fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
    Ok(match workload {
        Workload::CmemCampaign => Prepared::Cmem {
            campaign: cmem_campaign(seed),
        },
        Workload::TransientSweep => {
            let (campaign, fractions) = transient_campaign(seed);
            Prepared::Transient {
                campaign,
                instants: fractions
                    .into_iter()
                    .map(InjectionInstant::Fraction)
                    .collect(),
                journal: work_dir()?.join(format!("transient-{seed}.jsonl")),
            }
        }
        Workload::CorrelateServe => {
            let spec = correlate_spec();
            let programs = spec.cells().iter().map(CorrelationCell::program).collect();
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: 4,
                job_threads: THREADS,
                drain_path: None,
            })
            .map_err(|e| format!("start verifd: {e}"))?;
            let addr = server.addr().to_string();
            Prepared::Correlate {
                spec,
                programs,
                server,
                addr,
                loop_seed: derive_seed(seed, Workload::CorrelateServe.salt()),
            }
        }
    })
}

/// What one timed operation measured.
pub struct OpReport {
    /// Host seconds of the campaign call, or of `/correlate` until the
    /// fitted report is in hand.
    pub seconds: f64,
    /// Fault jobs classified.
    pub jobs: u64,
    /// RTL cycles simulated (`CampaignStats::cycles_simulated`, or the
    /// service's `cycles_simulated_total`).
    pub cycles: u64,
    /// The output digest.
    pub digest: u64,
    /// The campaign results, in order (empty for the service).
    pub results: Vec<CampaignResult>,
    /// `correlate-serve` only.
    pub serve: Option<ServeReport>,
}

pub struct ServeReport {
    pub report: CorrelationReport,
    /// ISS run, histogram and `/predict` for every sweep program.
    pub iss_predict_s: f64,
    /// Closed-loop `/predict` round trips, in seconds.
    pub predict_rtts: Vec<f64>,
    /// Wall time of the closed loop.
    pub loop_s: f64,
}

/// Digest of a campaign workload: FNV-1a over the canonical
/// `wire::result_to_json` of every result, in order.
pub fn campaign_digest(results: &[CampaignResult]) -> u64 {
    results
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a64(h, result_to_json(r).as_bytes()))
}

/// Digest of the sweep: FNV-1a over every domain's fitted `a`, `b`, `r2`
/// bit patterns, then every phase-2 prediction's `pf` and diversity.
pub fn serve_digest(report: &CorrelationReport, predictions: &[(f64, u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for domain in &report.domains {
        for x in [domain.model.a, domain.model.b, domain.model.r2] {
            h = fnv1a64(h, &x.to_bits().to_le_bytes());
        }
    }
    for &(pf, diversity) in predictions {
        h = fnv1a64(h, &pf.to_bits().to_le_bytes());
        h = fnv1a64(h, &diversity.to_le_bytes());
    }
    h
}

/// Count a campaign result's failed jobs: engine anomalies and wall-clock
/// timeouts.
fn job_failures(stats: &CampaignStats, results: &[CampaignResult]) -> u64 {
    let anomalies = results
        .iter()
        .flat_map(CampaignResult::records)
        .filter(|r| matches!(r.outcome, FaultOutcome::EngineAnomaly { .. }))
        .count();
    (anomalies.max(stats.anomalies) + stats.timed_out) as u64
}

fn merged(results: &[CampaignResult]) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for r in results {
        stats.merge(r.stats());
    }
    stats
}

/// Run one operation of a prepared workload, tallying attempts and
/// failures. A `CampaignError` or refused request fails the operation.
pub fn run_op(
    prepared: &Prepared,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<OpReport, String> {
    match prepared {
        Prepared::Cmem { campaign } => {
            let start = Instant::now();
            let outcome = tracer.span("fault.try_run", |_| campaign.try_run(THREADS));
            let seconds = start.elapsed().as_secs_f64();
            let result = outcome.map_err(|e| {
                tally.attempted += 1;
                tally.failed += 1;
                format!("campaign: {e}")
            })?;
            Ok(campaign_report(seconds, vec![result], tally))
        }
        Prepared::Transient {
            campaign,
            instants,
            journal,
        } => {
            let _ = std::fs::remove_file(journal);
            let start = Instant::now();
            let outcome = tracer.span("fault.run_multi_journaled", |_| {
                campaign.run_multi_journaled(THREADS, instants, journal)
            });
            let seconds = start.elapsed().as_secs_f64();
            let results = outcome.map_err(|e| {
                tally.attempted += 1;
                tally.failed += 1;
                format!("sweep: {e}")
            })?;
            Ok(campaign_report(seconds, results, tally))
        }
        Prepared::Correlate {
            spec,
            programs,
            addr,
            loop_seed,
            ..
        } => serve_op(spec, programs, addr, *loop_seed, tracer, tally),
    }
}

fn campaign_report(seconds: f64, results: Vec<CampaignResult>, tally: &mut Tally) -> OpReport {
    let stats = merged(&results);
    tally.attempted += stats.jobs as u64;
    tally.failed += job_failures(&stats, &results);
    OpReport {
        seconds,
        jobs: stats.jobs as u64,
        cycles: stats.cycles_simulated,
        digest: campaign_digest(&results),
        results,
        serve: None,
    }
}

/// Count one request and pass its result through.
fn counted<T>(tally: &mut Tally, reply: Result<T, client::ClientError>) -> Result<T, String> {
    tally.attempted += 1;
    reply.map_err(|e| {
        tally.failed += 1;
        e.to_string()
    })
}

fn serve_op(
    spec: &CorrelationSpec,
    programs: &[Program],
    addr: &str,
    loop_seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<OpReport, String> {
    // Phase 1: the sweep, from POST until the fitted report is in hand.
    let start = Instant::now();
    let reply = tracer.span("server.correlate", |_| client::correlate(addr, spec));
    let reply = counted(tally, reply)?;
    let report = tracer.span("server.wait_report", |_| {
        client::wait_report(addr, reply.id)
    });
    let report = counted(tally, report)?;
    let seconds = start.elapsed().as_secs_f64();
    let stats = tracer.span("server.stats", |_| client::stats(addr));
    let cycles = counted(tally, stats)?
        .get_u64("cycles_simulated_total")
        .ok_or("stats reply missing cycles_simulated_total")?;
    let jobs = (spec.jobs().len() * CORRELATE_SAMPLE * spec.kinds.len()) as u64;
    tally.attempted += jobs;

    // Phase 2: each sweep program on the ISS, its histogram to /predict.
    let start = Instant::now();
    let mut requests = Vec::with_capacity(programs.len());
    let mut predictions = Vec::with_capacity(programs.len());
    for program in programs {
        let histogram = tracer.span("iss.run", |_| {
            let mut iss = Iss::new(IssConfig::default());
            iss.load(program);
            match iss.run(ISS_BUDGET) {
                RunOutcome::Halted { .. } => Ok(iss
                    .stats()
                    .named_histogram()
                    .into_iter()
                    .map(|(name, count)| (name.to_string(), count))
                    .collect::<Vec<(String, u64)>>()),
                other => Err(format!("sweep program did not halt on the ISS: {other:?}")),
            }
        })?;
        let request = PredictRequest::from_histogram(histogram);
        let prediction = tracer.span("server.predict", |_| client::predict(addr, &request));
        let prediction = counted(tally, prediction)?;
        predictions.push((prediction.pf, prediction.diversity));
        requests.push(request);
    }
    let iss_predict_s = start.elapsed().as_secs_f64();

    // Phase 3: a closed loop of /predict over those histograms, in a
    // seeded order; every reply must repeat its phase-2 prediction.
    let mut predict_rtts = Vec::with_capacity(PREDICT_LOOP);
    let loop_start = Instant::now();
    for i in 0..PREDICT_LOOP {
        let k = (derive_seed(loop_seed, i as u64) % requests.len() as u64) as usize;
        let sent = Instant::now();
        let reply = tracer.span("server.predict", |_| client::predict(addr, &requests[k]));
        predict_rtts.push(sent.elapsed().as_secs_f64());
        if let Ok(p) = counted(tally, reply) {
            tally.check_digest("predict reply", predictions[k].0.to_bits(), p.pf.to_bits());
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    Ok(OpReport {
        seconds,
        jobs,
        cycles,
        digest: serve_digest(&report, &predictions),
        results: Vec::new(),
        serve: Some(ServeReport {
            report,
            iss_predict_s,
            predict_rtts,
            loop_s,
        }),
    })
}

/// Stop whatever set-up started.
pub fn teardown(prepared: Prepared) -> Result<(), String> {
    match prepared {
        Prepared::Correlate { server, .. } => server
            .shutdown()
            .map(drop)
            .map_err(|e| format!("stop verifd: {e}")),
        Prepared::Transient { journal, .. } => {
            let _ = std::fs::remove_file(journal);
            Ok(())
        }
        Prepared::Cmem { .. } => Ok(()),
    }
}

/// Check an operation's digest: against the recorded one for this seed,
/// else against the run's first operation.
pub fn check(
    workload: Workload,
    seed: u64,
    first: &mut Option<u64>,
    op: &OpReport,
    tally: &mut Tally,
) {
    let expected = workload
        .recorded_digest(seed)
        .or(*first)
        .unwrap_or(op.digest);
    first.get_or_insert(op.digest);
    tally.check_digest(workload.name(), expected, op.digest);
}

/// One set-up and one operation, for recording digests.
pub fn digest_once(workload: Workload, seed: u64) -> Result<u64, String> {
    let prepared = setup(workload, seed)?;
    let mut tally = Tally::default();
    let op = run_op(&prepared, &mut Tracer::new(false), &mut tally);
    teardown(prepared)?;
    let op = op?;
    if tally.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    Ok(op.digest)
}

/// The untraced run: set up, run one operation, tear down, repeated
/// until the budget is spent (at least three times); every metric is the
/// median over repetitions.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut first = None;
    let (mut setup_s, mut jobs_per_s, mut mcycles_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut serve = Vec::new();
    let start = Instant::now();
    while setup_s.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let prepared = setup(workload, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let op = run_op(&prepared, &mut tracer, &mut tally);
        teardown(prepared)?;
        let op = op?;
        check(workload, seed, &mut first, &op, &mut tally);
        jobs_per_s.push(op.jobs as f64 / op.seconds);
        mcycles_per_s.push(op.cycles as f64 / op.seconds / 1e6);
        if let Some(s) = op.serve {
            serve.push((op.seconds, s));
        }
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_s),
        },
        Metric {
            name: "jobs_per_s",
            unit: "jobs/s",
            value: median(&jobs_per_s),
        },
        Metric {
            name: "mcycles_per_s",
            unit: "Mcycles/s",
            value: median(&mcycles_per_s),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb(),
        },
    ];
    println!(
        "{} seed {seed}: {} repetitions, {} jobs attempted, {} failed, error_rate {:.6}",
        workload.name(),
        setup_s.len(),
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for m in &metrics {
        println!("  {} = {:.6} {}", m.name, m.value, m.unit);
    }
    let per_rep: Vec<String> = jobs_per_s.iter().map(|v| format!("{v:.1}")).collect();
    println!("  jobs_per_s by repetition: {}", per_rep.join(" "));
    println!("  host.calib_ns = {:.4} ns", crate::calib_ns());
    if !serve.is_empty() {
        print_serve(&serve);
    }
    Ok((tally, metrics))
}

/// Print `correlate-serve`'s own figures (medians over repetitions).
fn print_serve(serve: &[(f64, ServeReport)]) {
    let correlate_s: Vec<f64> = serve.iter().map(|(s, _)| *s).collect();
    let iss_ms: Vec<f64> = serve.iter().map(|(_, r)| r.iss_predict_s * 1e3).collect();
    let rtts: Vec<f64> = serve
        .iter()
        .flat_map(|(_, r)| r.predict_rtts.iter().map(|s| s * 1e6))
        .collect();
    let per_s: Vec<f64> = serve
        .iter()
        .map(|(_, r)| r.predict_rtts.len() as f64 / r.loop_s)
        .collect();
    let r2 = serve[0].1.report.best_domain().model.r2;
    println!("  correlate_s = {:.6} s", median(&correlate_s));
    println!("  fit_r2 = {r2:.6} 1");
    println!("  iss_predict_ms = {:.6} ms", median(&iss_ms));
    println!(
        "  predict_p50_us = {:.3} us, predict_p99_us = {:.3} us ({} requests)",
        median(&rtts),
        crate::quantile(&rtts, 0.99),
        rtts.len()
    );
    println!("  predict_per_s = {:.3} req/s", median(&per_s));
}
