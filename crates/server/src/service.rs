//! The verifd server: bounded queue, fixed worker pool,
//! fingerprint-keyed result cache, graceful drain — and, when started
//! with [`Server::start_fleet`], the fleet ([`crate::fleet`]) that leases
//! campaign shards to remote runners.
//!
//! Concurrency model: one accept thread handles HTTP requests serially —
//! every route is a queue/cache/table operation under one mutex, never a
//! simulation, so `/healthz` answers while every worker is busy. The
//! workers block on a condvar and run campaigns; each completed result
//! is published into the job table and the cache under the same mutex.
//! A fleet adds a reaper thread that expires dead leases, and one thread
//! per `?watch` progress stream (at most [`crate::fleet::MAX_WATCHES`]).
//!
//! Local jobs and fleet campaigns share one id space, one queue bound
//! (`queue_depth` covers queued jobs plus queued shards), one `/stats`
//! and one drain file.

use crate::fleet::{self, Fleet, FleetConfig};
use crate::http::{accept, read_request, write_response_with, Request};
use crate::spec::CampaignSpec;
use fault_inject::wire::{escape_json, merge_shards, Json, ShardResult};
use fault_inject::{
    merge_correlation_shards, Campaign, CampaignError, CorrelationReport, CorrelationShard,
    CorrelationSpec, ExecOptions, PredictRequest, Prediction, PreparedWorkload,
};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Campaign worker threads. Zero is accepted (accept-only mode:
    /// everything queues until drained) — useful for tests and staging,
    /// and what a fleet coordinator runs with.
    pub workers: usize,
    /// Queue depth bound on queued jobs plus queued fleet shards;
    /// submissions beyond it are refused with 503.
    pub queue_depth: usize,
    /// Threads each worker hands to `Campaign::execute` (campaigns are
    /// deterministic in this, so it is a pure throughput knob).
    pub job_threads: usize,
    /// Where a graceful shutdown journals the still-queued work (one
    /// line per job or fleet campaign), re-enqueued automatically on the
    /// next startup. `None` disables both.
    pub drain_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            job_threads: 4,
            drain_path: None,
        }
    }
}

/// A job's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
    Failed,
    Drained,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
            Status::Drained => "drained",
        }
    }
}

/// What a queued job names: one campaign shard, or one correlation
/// sweep (itself possibly one shard of a fleet-split sweep).
#[derive(Clone)]
enum JobSpec {
    Campaign(CampaignSpec),
    Correlation(CorrelationSpec),
}

impl JobSpec {
    fn cache_key(&self) -> String {
        match self {
            JobSpec::Campaign(spec) => spec.cache_key(),
            JobSpec::Correlation(spec) => spec.cache_key(),
        }
    }

    fn to_json(&self) -> String {
        match self {
            JobSpec::Campaign(spec) => spec.to_json(),
            JobSpec::Correlation(spec) => spec.to_json(),
        }
    }
}

/// What a completed job holds: a campaign shard, a fitted correlation
/// report (unsharded sweep), or one shard of a sweep awaiting `/merge`.
#[derive(Clone)]
enum JobOutput {
    Shard(ShardResult),
    Report(CorrelationReport),
    Partial(CorrelationShard),
}

struct JobState {
    spec: JobSpec,
    status: Status,
    error: Option<String>,
    result: Option<JobOutput>,
}

/// The `Retry-After` value (seconds) sent with every 503, so a refused
/// client knows when the queue is worth trying again.
pub const RETRY_AFTER_S: u64 = 2;

#[derive(Default)]
struct Counters {
    /// Local jobs and fleet campaigns accepted.
    submitted: u64,
    completed: u64,
    failed: u64,
    /// Drain-file lines written.
    drained: u64,
    /// Drain-file lines re-enqueued at startup.
    drain_resubmitted: u64,
    /// Submissions refused because the queue was full.
    rejected_busy: u64,
    cache_hits: u64,
    cache_misses: u64,
    golden_cache_hits: u64,
    golden_cache_misses: u64,
    /// Golden-cache hits where the stored capture came from a *different*
    /// campaign spec — the workload-hash dedup paying off across specs.
    golden_store_hits: u64,
    predictions: u64,
    cycles_simulated_total: u64,
    statically_pruned_total: u64,
    collapsed_classes_total: u64,
}

pub(crate) struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobState>,
    /// `CampaignSpec::cache_key` of every completed spec → the job id
    /// holding its result.
    cache: HashMap<String, u64>,
    /// Fitted correlation models by sweep fingerprint, ready to answer
    /// `/predict` with zero simulated cycles.
    models: HashMap<String, CorrelationReport>,
    /// The fingerprint of the most recently fitted model (`/predict`'s
    /// default when the request names none).
    latest_model: Option<String>,
    /// The next id of a local job or a fleet campaign (one id space).
    next_id: u64,
    busy: usize,
    pub(crate) draining: bool,
    counters: Counters,
    pub(crate) fleet: Option<Fleet>,
}

impl Inner {
    /// Allocate the id of an accepted job or fleet campaign.
    pub(crate) fn new_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.counters.submitted += 1;
        id
    }

    /// Refuse `more` queued items when they would take the queued work —
    /// local jobs plus fleet shards — past `queue_depth`.
    pub(crate) fn admit(&mut self, more: usize, queue_depth: usize) -> Result<(), (u16, String)> {
        if self.queued() + more > queue_depth {
            self.counters.rejected_busy += 1;
            return Err((503, err_json("queue full")));
        }
        Ok(())
    }

    fn queued(&self) -> usize {
        let shards = self
            .fleet
            .as_ref()
            .map_or(0, |fleet| fleet.table.snapshot().queued);
        self.queue.len() + shards as usize
    }
}

pub(crate) struct Shared {
    inner: Mutex<Inner>,
    /// One golden run per (workload hash, platform config), shared
    /// read-only across campaigns: any two specs whose programs hash the
    /// same — a kind sweep of one benchmark, a correlation cell, a
    /// resubmitted drain — reuse one capture. Keyed by the workload-hash
    /// half of the campaign fingerprint, so the dedup works across
    /// *different* campaign specs; the value remembers the full
    /// fingerprint that populated it, so cross-spec hits are countable.
    /// Separate from `inner` so a capture in flight never blocks routes.
    golden: Mutex<HashMap<String, (Arc<PreparedWorkload>, String)>>,
    work: Condvar,
    pub(crate) shutdown: AtomicBool,
    /// The lease table's clock starts here.
    epoch: Instant,
    /// Open `?watch` streams.
    pub(crate) watches: AtomicUsize,
    pub(crate) config: ServerConfig,
}

impl Shared {
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Workers panic-isolate campaigns and every update is
        // whole-record, so recovery from a poisoned lock is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Milliseconds since the server started — the lease table's clock.
    pub(crate) fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Journal the still-queued work to the drain file — queued jobs and
    /// every fleet campaign with a queued or leased shard, one line each
    /// in id order — then stop accepting, drop that work from the queue
    /// and the lease table, and wake every worker so the pool can exit
    /// once in-flight jobs finish. Returns how many lines were drained.
    ///
    /// The journal is written under the lock before anything changes, so
    /// a write that fails leaves the server as it was.
    fn begin_shutdown(&self) -> std::io::Result<usize> {
        let mut inner = self.lock();
        let mut lines: Vec<(u64, String)> = inner
            .queue
            .iter()
            .map(|id| (*id, inner.jobs[id].spec.to_json()))
            .collect();
        if let Some(fleet) = &inner.fleet {
            lines.extend(fleet.drain_lines());
        }
        lines.sort_unstable_by_key(|(id, _)| *id);
        if let (Some(path), false) = (&self.config.drain_path, lines.is_empty()) {
            if let Err(e) = write_journal(path, &lines) {
                // A torn journal must not be replayed by a later start.
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
        let Inner {
            queue,
            jobs,
            fleet,
            counters,
            draining,
            ..
        } = &mut *inner;
        *draining = true;
        for id in queue.drain(..) {
            jobs.get_mut(&id).expect("queued job exists").status = Status::Drained;
        }
        if let Some(fleet) = fleet {
            fleet.table.drain();
        }
        counters.drained += lines.len() as u64;
        drop(inner);
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        Ok(lines.len())
    }
}

/// Write the drain journal and make it durable.
fn write_journal(path: &Path, lines: &[(u64, String)]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for (_, line) in lines {
        writeln!(file, "{line}")?;
    }
    file.sync_all()
}

/// A running service. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or hit `POST /shutdown`) for a graceful stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept thread, the workers and, with a fleet, the reaper.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, re-enqueue the drain file's work, spawn the accept thread
    /// and the worker pool, and return.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        Server::launch(config, None)
    }

    /// [`Server::start`] plus a fleet: the lease table, the shard store,
    /// the runner roster and a reaper thread that expires dead leases.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the store directory
    /// cannot be created.
    pub fn start_fleet(config: ServerConfig, fleet: FleetConfig) -> std::io::Result<Server> {
        Server::launch(config, Some(fleet))
    }

    fn launch(config: ServerConfig, fleet: Option<FleetConfig>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let fleet = fleet.map(Fleet::open).transpose()?;
        let reaper_poll_ms = fleet.as_ref().map(|fleet| fleet.config.poll_ms);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: HashMap::new(),
                models: HashMap::new(),
                latest_model: None,
                next_id: 1,
                busy: 0,
                draining: false,
                counters: Counters::default(),
                fleet,
            }),
            golden: Mutex::new(HashMap::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            watches: AtomicUsize::new(0),
            config,
        });
        resubmit_drained(&shared);
        let mut threads = vec![{
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        }];
        threads.extend((0..shared.config.workers).map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        }));
        if let Some(poll_ms) = reaper_poll_ms {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                fleet::reaper_loop(&shared, poll_ms);
            }));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: journal the queued work to the drain file,
    /// refuse new work, let in-flight jobs finish, join every thread.
    /// Returns how many drain-file lines were written.
    ///
    /// # Errors
    ///
    /// Fails if the drain journal cannot be written; the server then
    /// keeps running with its queue intact.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked (nothing in any is expected
    /// to — campaigns are panic-isolated).
    pub fn shutdown(self) -> std::io::Result<usize> {
        let drained = self.shared.begin_shutdown()?;
        // The accept thread may be blocked in accept(); one throwaway
        // connection gets it to its shutdown check.
        let _ = TcpStream::connect(self.addr);
        self.join();
        Ok(drained)
    }

    /// Block until the service stops (via `POST /shutdown`).
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(self) {
        for thread in self.threads {
            thread.join().expect("server thread");
        }
    }
}

/// Re-enqueue the work journaled by the previous process's graceful
/// shutdown, in its order, then remove the file (a later shutdown
/// rewrites it). A line is a fleet body (it has `"shards"`), a
/// correlation spec (it has `"benchmarks"`) or a campaign spec, and is
/// submitted as its route would be. Runs before the threads start, so
/// resubmitted work is ordinary queued work by the time anything can
/// observe it.
fn resubmit_drained(shared: &Shared) {
    let Some(path) = &shared.config.drain_path else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let mut resubmitted = 0;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        let Ok(parsed) = Json::parse(line) else {
            continue;
        };
        let (status, _) = if parsed.get("shards").is_some() {
            fleet::handle(shared, "/fleet", line)
        } else if parsed.get("benchmarks").is_some() {
            submit_correlation(shared, line)
        } else {
            submit(shared, line)
        };
        if status == 200 {
            resubmitted += 1;
        }
    }
    shared.lock().counters.drain_resubmitted += resubmitted;
    let _ = std::fs::remove_file(path);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = accept(listener) else {
            continue;
        };
        // Requests are handled inline: every route is a table operation,
        // so the accept thread never waits on a simulation, and a client
        // that sends nothing holds it for at most the I/O timeout. A
        // progress watch streams until its campaign ends, so it gets a
        // thread of its own.
        let (status, body) = match read_request(&stream) {
            Ok(request) => match fleet::watch_request(&request) {
                Some(id) => match fleet::admit_watch(shared, id) {
                    Ok(()) => {
                        let shared = Arc::clone(shared);
                        std::thread::spawn(move || fleet::stream_progress(&shared, stream, id));
                        continue;
                    }
                    Err(refused) => refused,
                },
                None => route(shared, &request),
            },
            Err(e) => (400, err_json(&e.to_string())),
        };
        // Every refusal is honest about when to try again.
        let retry_after = RETRY_AFTER_S.to_string();
        let headers: &[(&str, &str)] = if status == 503 {
            &[("retry-after", retry_after.as_str())]
        } else {
            &[]
        };
        let _ = write_response_with(&mut stream, status, headers, &body);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec) = {
            let mut inner = shared.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.status = Status::Running;
                    let spec = job.spec.clone();
                    inner.busy += 1;
                    break (id, spec);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                inner = shared
                    .work
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = match &spec {
            JobSpec::Campaign(spec) => isolate("campaign", || run_campaign(spec, shared)),
            JobSpec::Correlation(spec) => {
                isolate("correlation sweep", || run_correlation(spec, shared))
            }
        };
        let mut inner = shared.lock();
        inner.busy -= 1;
        match outcome {
            Ok((output, (cycles, pruned, collapsed))) => {
                inner.counters.completed += 1;
                inner.counters.cycles_simulated_total += cycles;
                inner.counters.statically_pruned_total += pruned;
                inner.counters.collapsed_classes_total += collapsed;
                inner.cache.insert(spec.cache_key(), id);
                if let JobOutput::Report(report) = &output {
                    // A freshly fitted sweep becomes the predictor's
                    // model — `/predict` answers from here on without
                    // simulating a cycle.
                    inner
                        .models
                        .insert(report.fingerprint.clone(), report.clone());
                    inner.latest_model = Some(report.fingerprint.clone());
                }
                let job = inner.jobs.get_mut(&id).expect("running job exists");
                job.status = Status::Done;
                job.result = Some(output);
            }
            Err(error) => {
                inner.counters.failed += 1;
                let job = inner.jobs.get_mut(&id).expect("running job exists");
                job.status = Status::Failed;
                job.error = Some(error);
            }
        }
    }
}

/// The counter contributions of a batch of shard results: simulated
/// cycles, statically pruned jobs, collapsed equivalence classes.
fn results_totals(results: &[ShardResult]) -> (u64, u64, u64) {
    results.iter().fold((0, 0, 0), |(c, p, k), shard| {
        let stats = shard.result.stats();
        (
            c + stats.cycles_simulated,
            p + stats.statically_pruned as u64,
            k + stats.collapsed_classes as u64,
        )
    })
}

/// Run `run` with a panic net: the engine already panic-isolates each
/// job, so this catches golden-run panics, which are workload bugs — a
/// bad spec fails its own job or lease, never the thread that runs it.
pub(crate) fn isolate<T>(what: &str, run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("{what} panicked: {message}"))
    })
}

/// Run one campaign spec — one shard of it when the spec names one —
/// under `options`, and wrap its result. Workers and fleet runners both
/// run campaigns through here.
pub(crate) fn run_shard(
    spec: &CampaignSpec,
    threads: usize,
    options: &ExecOptions,
) -> Result<ShardResult, String> {
    let campaign = spec.to_campaign();
    let (index, count) = spec.shard.unwrap_or((0, 1));
    let mut results = campaign
        .execute(threads, options)
        .map_err(|e| e.to_string())?;
    Ok(ShardResult {
        fingerprint: campaign.fingerprint(),
        index,
        count,
        result: results.remove(0),
    })
}

/// Run one queued campaign spec. The golden run comes from the
/// service's prepared cache when a previous campaign over the same
/// workload and platform configuration already captured it — the result
/// is byte-identical to an uncached run.
fn run_campaign(
    spec: &CampaignSpec,
    shared: &Shared,
) -> Result<(JobOutput, (u64, u64, u64)), String> {
    let prepared = prepare_golden(&spec.to_campaign(), spec.safety.parity, shared)
        .map_err(|e| e.to_string())?;
    let options = ExecOptions {
        golden: Some(&prepared),
        ..ExecOptions::default()
    };
    let shard = run_shard(spec, shared.config.job_threads, &options)?;
    let totals = results_totals(std::slice::from_ref(&shard));
    Ok((JobOutput::Shard(shard), totals))
}

/// Fetch or capture a golden run for one campaign. The cache key is
/// exactly the inputs that reach the capture: the **workload hash** (the
/// first half of the campaign fingerprint — so any two specs generating
/// the same program image share one capture, whatever else differs) and
/// the classification config (parity is its only spec-controlled field).
fn prepare_golden(
    campaign: &Campaign,
    parity: bool,
    shared: &Shared,
) -> Result<Arc<PreparedWorkload>, CampaignError> {
    let fingerprint = campaign.fingerprint();
    let workload_hash = fingerprint.split('-').next().unwrap_or(&fingerprint);
    let golden_key = format!("{workload_hash}|parity={parity}");
    let cached = shared
        .golden
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&golden_key)
        .cloned();
    match cached {
        Some((p, captured_by)) => {
            let mut inner = shared.lock();
            inner.counters.golden_cache_hits += 1;
            if captured_by != fingerprint {
                inner.counters.golden_store_hits += 1;
            }
            Ok(p)
        }
        None => {
            let p = Arc::new(campaign.prepare()?);
            shared
                .golden
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(golden_key, (Arc::clone(&p), fingerprint));
            shared.lock().counters.golden_cache_misses += 1;
            Ok(p)
        }
    }
}

/// Run one correlation sweep with its golden runs from the shared golden
/// store, then — when the spec is unsharded — merge and fit in-process.
/// A sharded spec parks its slice as a [`JobOutput::Partial`] for a
/// later `/merge`.
fn run_correlation(
    spec: &CorrelationSpec,
    shared: &Shared,
) -> Result<(JobOutput, (u64, u64, u64)), String> {
    // Correlation campaigns run no safety mechanisms, so parity is
    // always off in the golden key — and a plain `/campaign` over the
    // same workload shares the capture.
    let shard = spec
        .run_with(shared.config.job_threads, |_, campaign| {
            prepare_golden(campaign, false, shared)
        })
        .map_err(|e| e.to_string())?;
    let totals = results_totals(&shard.results);
    if shard.count == 1 {
        let report = merge_correlation_shards(vec![shard])?;
        Ok((JobOutput::Report(report), totals))
    } else {
        Ok((JobOutput::Partial(shard), totals))
    }
}

fn route(shared: &Shared, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let inner = shared.lock();
            (
                200,
                format!("{{\"ok\":true,\"draining\":{}}}", inner.draining),
            )
        }
        ("GET", "/stats") => (200, stats_json(shared)),
        ("POST", "/campaign") => submit(shared, &request.body),
        ("GET", path) if path.starts_with("/campaign/") => {
            campaign_status(shared, &path["/campaign/".len()..])
        }
        ("POST", "/correlate") => submit_correlation(shared, &request.body),
        ("POST", "/predict") => predict(shared, &request.body),
        ("POST", "/merge") => merge(shared, &request.body),
        (
            "POST",
            path @ ("/fleet" | "/register" | "/lease" | "/heartbeat" | "/complete" | "/fail"),
        ) => fleet::handle(shared, path, &request.body),
        ("POST", "/shutdown") => match shared.begin_shutdown() {
            Ok(drained) => (200, format!("{{\"ok\":true,\"drained\":{drained}}}")),
            Err(e) => (503, err_json(&format!("drain journal failed: {e}"))),
        },
        ("GET" | "POST", _) => (404, err_json("no such endpoint")),
        _ => (405, err_json("method not allowed")),
    }
}

pub(crate) fn err_json(message: &str) -> String {
    format!("{{\"error\":{}}}", escape_json(message))
}

/// `/stats`: the local service's counters and the fleet's, which read
/// zero (`"fleet":[]`) on a server without one. `queue_depth` counts
/// queued jobs plus queued shards; `submitted` counts jobs plus fleet
/// campaigns; `drained` and `drain_resubmitted` count drain-file lines.
fn stats_json(shared: &Shared) -> String {
    let golden_entries = shared
        .golden
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len();
    let inner = shared.lock();
    let c = &inner.counters;
    let workers = shared.config.workers;
    let utilization = if workers == 0 {
        0.0
    } else {
        inner.busy as f64 / workers as f64
    };
    let fleet = inner.fleet.as_ref();
    let leases = fleet.map(|f| f.table.counters()).unwrap_or_default();
    let slots = fleet.map(|f| f.table.snapshot()).unwrap_or_default();
    let count = |read: fn(&Fleet) -> u64| fleet.map_or(0, read);
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{workers},\
         \"busy\":{},\"utilization\":{utilization},\"submitted\":{},\
         \"completed\":{},\"failed\":{},\"drained\":{},\"drain_resubmitted\":{},\
         \"cache_entries\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"golden_cache_entries\":{},\
         \"golden_cache_hits\":{},\"golden_cache_misses\":{},\
         \"golden_store_hits\":{},\
         \"cycles_simulated_total\":{},\"statically_pruned\":{},\
         \"collapsed_classes\":{},\"models_cached\":{},\"predictions\":{},\
         \"draining\":{},\"campaigns\":{},\
         \"runners\":{},\"rejected_busy\":{},\
         \"leases_active\":{},\"leases_granted\":{},\"leases_expired\":{},\
         \"leases_failed\":{},\"leases_retried\":{},\"shards_done\":{},\
         \"shards_poisoned\":{},\"stale_uploads\":{},\
         \"jobs_recovered_total\":{},\
         \"store_puts\":{},\"store_dedup_hits\":{},\"fleet\":[",
        inner.queued(),
        shared.config.queue_depth,
        inner.busy,
        c.submitted,
        c.completed,
        c.failed,
        c.drained,
        c.drain_resubmitted,
        inner.cache.len(),
        c.cache_hits,
        c.cache_misses,
        golden_entries,
        c.golden_cache_hits,
        c.golden_cache_misses,
        c.golden_store_hits,
        c.cycles_simulated_total,
        c.statically_pruned_total,
        c.collapsed_classes_total,
        inner.models.len(),
        c.predictions,
        inner.draining,
        count(|f| f.campaigns() as u64),
        count(|f| f.runners.len() as u64),
        c.rejected_busy,
        slots.leased,
        leases.granted,
        leases.expired,
        leases.failed,
        leases.retried,
        leases.completed,
        leases.poisoned,
        count(|f| f.stale_uploads),
        count(|f| f.jobs_recovered_total),
        count(|f| f.store.puts()),
        count(|f| f.store.dedup_hits()),
    );
    // The registered runners, ids ascending.
    for (i, (id, runner)) in fleet.iter().flat_map(|f| &f.runners).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"runner_id\":{id},\"name\":{},\"threads\":{}}}",
            escape_json(&runner.name),
            runner.threads,
        );
    }
    s.push_str("]}");
    s
}

/// `GET /campaign/{id}`: a local job or a fleet campaign — whichever
/// holds the id — in that kind's body. `/campaign/{id}/shard/{k}` reads
/// one stored fleet shard.
fn campaign_status(shared: &Shared, rest: &str) -> (u16, String) {
    let mut inner = shared.lock();
    let no_campaign = || (404, err_json("no such campaign"));
    if let Some((id, shard)) = rest.split_once("/shard/") {
        let (Ok(id), Ok(shard)) = (id.parse::<u64>(), shard.parse::<u32>()) else {
            return (400, err_json("campaign and shard ids are integers"));
        };
        return inner
            .fleet
            .as_ref()
            .map_or_else(no_campaign, |fleet| fleet.shard_status(id, shard));
    }
    let Ok(id) = rest.parse::<u64>() else {
        return (400, err_json("campaign ids are integers"));
    };
    match inner.jobs.get(&id) {
        Some(job) => job_status(id, job),
        None => inner
            .fleet
            .as_mut()
            .map_or_else(no_campaign, |fleet| fleet.campaign_status(id)),
    }
}

fn submit(shared: &Shared, body: &str) -> (u16, String) {
    let spec = match CampaignSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return (400, err_json(&e)),
    };
    if let Err(reply) = check_shard(spec.shard) {
        return reply;
    }
    enqueue(shared, JobSpec::Campaign(spec))
}

/// `POST /correlate`: run (or attach to) a correlation sweep. An
/// unsharded spec produces a fitted report; a sharded one produces a
/// partial for `/merge`. Resubmitting a completed spec is a cache hit —
/// zero simulated cycles.
fn submit_correlation(shared: &Shared, body: &str) -> (u16, String) {
    let spec = match CorrelationSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return (400, err_json(&e)),
    };
    if let Err(reply) = check_shard(spec.shard) {
        return reply;
    }
    enqueue(shared, JobSpec::Correlation(spec))
}

/// Validate shard coordinates up front so a bad spec fails the
/// submission, not the worker.
fn check_shard(shard: Option<(u32, u32)>) -> Result<(), (u16, String)> {
    if let Some((index, count)) = shard {
        if count == 0 || index >= count {
            return Err((
                400,
                err_json(&format!("shard {index}/{count} out of range")),
            ));
        }
    }
    Ok(())
}

fn enqueue(shared: &Shared, spec: JobSpec) -> (u16, String) {
    let key = spec.cache_key();
    let mut inner = shared.lock();
    if inner.draining {
        return (503, err_json("server is draining"));
    }
    if let Some(&id) = inner.cache.get(&key) {
        // Served from the cache: bit-identical result, zero simulated
        // cycles.
        inner.counters.cache_hits += 1;
        return (
            200,
            format!("{{\"id\":{id},\"status\":\"done\",\"cached\":true}}"),
        );
    }
    if let Err(refused) = inner.admit(1, shared.config.queue_depth) {
        return refused;
    }
    inner.counters.cache_misses += 1;
    let id = inner.new_id();
    inner.jobs.insert(
        id,
        JobState {
            spec,
            status: Status::Queued,
            error: None,
            result: None,
        },
    );
    inner.queue.push_back(id);
    drop(inner);
    shared.work.notify_one();
    (
        200,
        format!("{{\"id\":{id},\"status\":\"queued\",\"cached\":false}}"),
    )
}

/// `POST /predict`: evaluate a cached fitted model — an opcode histogram
/// or a swept benchmark label in, predicted `Pf` with its residual band
/// out. This route never simulates: histogram requests are arithmetic on
/// the fitted coefficients, label requests read the diversity the sweep
/// already measured.
fn predict(shared: &Shared, body: &str) -> (u16, String) {
    let request = match PredictRequest::parse(body) {
        Ok(request) => request,
        Err(e) => return (400, err_json(&e)),
    };
    let mut inner = shared.lock();
    let fingerprint = match &request.fingerprint {
        Some(fp) => fp.clone(),
        None => match &inner.latest_model {
            Some(fp) => fp.clone(),
            None => return (404, err_json("no fitted model; run /correlate first")),
        },
    };
    let Some(report) = inner.models.get(&fingerprint) else {
        return (404, err_json(&format!("no model for sweep {fingerprint}")));
    };
    let Some(domain) = report.domain(request.target, request.kind) else {
        return (404, err_json("the model was not fitted for that domain"));
    };
    let diversity = match request.diversity() {
        Some(d) => d,
        None => {
            let label = request.benchmark.as_deref().unwrap_or_default();
            match report.cells.iter().find(|cell| cell.label == label) {
                Some(cell) => cell.diversity,
                None => {
                    return (
                        404,
                        err_json(&format!("`{label}` was not part of the sweep")),
                    )
                }
            }
        }
    };
    let prediction = Prediction::evaluate(&fingerprint, domain, diversity);
    inner.counters.predictions += 1;
    (200, prediction.to_json())
}

fn job_status(id: u64, job: &JobState) -> (u16, String) {
    let mut s = format!("{{\"id\":{id},\"status\":\"{}\"", job.status.name());
    if let Some(error) = &job.error {
        let _ = write!(s, ",\"error\":{}", escape_json(error));
    }
    match &job.result {
        Some(JobOutput::Shard(result)) => {
            let _ = write!(s, ",\"campaign\":{}", result.to_json());
        }
        Some(JobOutput::Report(report)) => {
            let _ = write!(s, ",\"report\":{}", report.to_json());
        }
        Some(JobOutput::Partial(shard)) => {
            let _ = write!(s, ",\"shard\":{}", shard.to_json());
        }
        None => {}
    }
    s.push('}');
    (200, s)
}

fn merge(shared: &Shared, body: &str) -> (u16, String) {
    let ids: Vec<u64> = match Json::parse(body) {
        Ok(v) => match v.get_array("ids") {
            Some(items) => match items.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>() {
                Some(ids) => ids,
                None => return (400, err_json("`ids` items must be integers")),
            },
            None => return (400, err_json("missing `ids`")),
        },
        Err(e) => return (400, err_json(&e)),
    };
    let outputs: Result<Vec<JobOutput>, (u16, String)> = {
        let inner = shared.lock();
        ids.iter()
            .map(|id| {
                let job = inner
                    .jobs
                    .get(id)
                    .ok_or_else(|| (404, err_json(&format!("no such campaign {id}"))))?;
                job.result.clone().ok_or_else(|| {
                    (
                        400,
                        err_json(&format!("campaign {id} is {}", job.status.name())),
                    )
                })
            })
            .collect()
    };
    let outputs = match outputs {
        Ok(outputs) => outputs,
        Err(reply) => return reply,
    };
    // Every id is a campaign shard, or every id is a correlation
    // partial — the two merges are different algebras.
    if outputs.iter().all(|o| matches!(o, JobOutput::Partial(_))) && !outputs.is_empty() {
        let shards: Vec<CorrelationShard> = outputs
            .into_iter()
            .map(|o| match o {
                JobOutput::Partial(shard) => shard,
                _ => unreachable!("checked above"),
            })
            .collect();
        return match merge_correlation_shards(shards) {
            Ok(report) => {
                // The merged fit is a model like any other: register it
                // so `/predict` can serve it.
                let mut inner = shared.lock();
                inner
                    .models
                    .insert(report.fingerprint.clone(), report.clone());
                inner.latest_model = Some(report.fingerprint.clone());
                (200, report.to_json())
            }
            Err(e) => (
                409,
                format!("{{\"error\":{},\"kind\":\"correlation\"}}", escape_json(&e)),
            ),
        };
    }
    let shards: Result<Vec<ShardResult>, (u16, String)> = outputs
        .into_iter()
        .map(|o| match o {
            JobOutput::Shard(shard) => Ok(shard),
            _ => Err((
                400,
                err_json("cannot merge campaign shards with correlation jobs"),
            )),
        })
        .collect();
    let shards = match shards {
        Ok(shards) => shards,
        Err(reply) => return reply,
    };
    match merge_shards(shards) {
        Ok(merged) => (200, merged.to_json()),
        // Refusals reuse the journal's header-mismatch semantics; they
        // are conflicts between the supplied shards, not bad syntax.
        Err(e) => (
            409,
            format!(
                "{{\"error\":{},\"kind\":{}}}",
                escape_json(&e.to_string()),
                escape_json(mismatch_kind(&e)),
            ),
        ),
    }
}

fn mismatch_kind(e: &fault_inject::JournalError) -> &'static str {
    match e {
        fault_inject::JournalError::HeaderMismatch { field, .. } => field,
        _ => "malformed",
    }
}
