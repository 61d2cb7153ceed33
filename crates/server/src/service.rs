//! The resident campaign service: bounded queue, fixed worker pool,
//! fingerprint-keyed result cache, graceful drain.
//!
//! Concurrency model: one accept thread handles HTTP requests serially —
//! every route is a queue/cache/table operation under one mutex, never a
//! simulation, so `/healthz` answers while every worker is busy. The
//! workers block on a condvar and run campaigns; each completed result
//! is published into the job table and the cache under the same mutex.

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
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Campaign worker threads. Zero is accepted (accept-only mode:
    /// everything queues until drained) — useful for tests and staging.
    pub workers: usize,
    /// Queue depth bound; submissions beyond it are refused with 503.
    pub queue_depth: usize,
    /// Threads each worker hands to `Campaign::execute` (campaigns are
    /// deterministic in this, so it is a pure throughput knob).
    pub job_threads: usize,
    /// Where a graceful shutdown journals the still-queued specs (one
    /// canonical spec JSON per line). `None` disables the drain journal.
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
    submitted: u64,
    completed: u64,
    failed: u64,
    drained: u64,
    drain_resubmitted: u64,
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

struct Inner {
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
    next_id: u64,
    busy: usize,
    draining: bool,
    counters: Counters,
}

struct Shared {
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
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Workers panic-isolate campaigns and every update is
        // whole-record, so recovery from a poisoned lock is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stop accepting, journal the still-queued specs to the drain file,
    /// and wake every worker so the pool can exit once in-flight jobs
    /// finish. Returns how many queued jobs were drained.
    fn begin_shutdown(&self) -> std::io::Result<usize> {
        let drained: Vec<(u64, JobSpec)> = {
            let mut inner = self.lock();
            inner.draining = true;
            let ids: Vec<u64> = inner.queue.drain(..).collect();
            ids.iter()
                .map(|&id| {
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.status = Status::Drained;
                    (id, job.spec.clone())
                })
                .collect()
        };
        if let (Some(path), false) = (&self.config.drain_path, drained.is_empty()) {
            let mut file = std::fs::File::create(path)?;
            for (_, spec) in &drained {
                writeln!(file, "{}", spec.to_json())?;
            }
            file.flush()?;
        }
        let mut inner = self.lock();
        inner.counters.drained += drained.len() as u64;
        drop(inner);
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        Ok(drained.len())
    }
}

/// A running service. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or hit `POST /shutdown`) for a graceful stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and the worker pool, and return.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
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
            }),
            golden: Mutex::new(HashMap::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            config,
        });
        resubmit_drained(&shared);
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: refuse new work, journal the queued specs to
    /// the drain file, let in-flight jobs finish, join every thread.
    /// Returns how many queued jobs were drained.
    ///
    /// # Errors
    ///
    /// Fails if the drain journal cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread or a worker panicked (nothing in
    /// either is expected to — campaigns are panic-isolated).
    pub fn shutdown(mut self) -> std::io::Result<usize> {
        let drained = self.shared.begin_shutdown()?;
        // The accept thread may be blocked in accept(); one throwaway
        // connection gets it to its shutdown check.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
        Ok(drained)
    }

    /// Block until the service stops (via `POST /shutdown`).
    ///
    /// # Panics
    ///
    /// Panics if the accept thread or a worker panicked.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
    }
}

/// Re-enqueue specs journaled by the previous process's graceful
/// shutdown, then remove the file (a later shutdown rewrites it). Runs
/// before the worker pool starts, so resubmitted jobs are ordinary
/// queued jobs by the time anything can observe them.
fn resubmit_drained(shared: &Shared) {
    let Some(path) = &shared.config.drain_path else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let mut inner = shared.lock();
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        // A correlation spec is the only drained shape with a
        // `benchmarks` list; everything else is a campaign spec.
        let Ok(parsed) = Json::parse(line) else {
            continue;
        };
        let spec = if parsed.get("benchmarks").is_some() {
            match CorrelationSpec::from_obj(&parsed) {
                Ok(spec) => JobSpec::Correlation(spec),
                Err(_) => continue,
            }
        } else {
            match CampaignSpec::from_obj(&parsed) {
                Ok(spec) => JobSpec::Campaign(spec),
                Err(_) => continue,
            }
        };
        if inner.cache.contains_key(&spec.cache_key()) {
            continue;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.counters.submitted += 1;
        inner.counters.drain_resubmitted += 1;
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
    }
    drop(inner);
    let _ = std::fs::remove_file(path);
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = accept(listener) else {
            continue;
        };
        // Requests are handled inline: every route is a table operation,
        // so the accept thread never waits on a simulation, and a client
        // that sends nothing holds it for at most the I/O timeout.
        let (status, body) = match read_request(&stream) {
            Ok(request) => route(shared, &request),
            Err(e) => (
                400,
                format!("{{\"error\":{}}}", escape_json(&e.to_string())),
            ),
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
            JobSpec::Campaign(spec) => {
                run_spec(spec, shared.config.job_threads, shared).map(|shard| {
                    let totals = results_totals(std::slice::from_ref(&shard));
                    (JobOutput::Shard(shard), totals)
                })
            }
            JobSpec::Correlation(spec) => run_correlation(spec, shared.config.job_threads, shared),
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

/// Run one spec with an extra panic net around the whole campaign (the
/// engine already panic-isolates each job; this catches golden-run
/// panics, which are workload bugs, so a bad spec cannot take a worker
/// down with it). The golden run comes from the service's prepared
/// cache when a previous campaign over the same workload and platform
/// configuration already captured it — the result is byte-identical to
/// an uncached run.
fn run_spec(
    spec: &CampaignSpec,
    job_threads: usize,
    shared: &Shared,
) -> Result<ShardResult, String> {
    let spec = spec.clone();
    let run = catch_unwind(AssertUnwindSafe(move || {
        let campaign = spec.to_campaign();
        let (index, count) = spec.shard.unwrap_or((0, 1));
        let prepared =
            prepare_golden(&campaign, spec.safety.parity, shared).map_err(|e| e.to_string())?;
        let options = ExecOptions {
            golden: Some(&prepared),
            ..ExecOptions::default()
        };
        campaign
            .execute(job_threads, &options)
            .map(|mut results| ShardResult {
                fingerprint: campaign.fingerprint(),
                index,
                count,
                result: results.remove(0),
            })
            .map_err(|e| e.to_string())
    }));
    unwrap_run(run, "campaign")
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
    job_threads: usize,
    shared: &Shared,
) -> Result<(JobOutput, (u64, u64, u64)), String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        // Correlation campaigns run no safety mechanisms, so parity is
        // always off in the golden key — and a plain `/campaign` over the
        // same workload shares the capture.
        let shard = spec
            .run_with(job_threads, |_, campaign| {
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
    }));
    unwrap_run(run, "correlation sweep")
}

/// Turn a `catch_unwind` result into the job outcome, stringifying a
/// panic payload (a workload bug must not take a worker down).
fn unwrap_run<T>(run: std::thread::Result<Result<T, String>>, what: &str) -> Result<T, String> {
    match run {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("{what} panicked: {message}"))
        }
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
            match path["/campaign/".len()..].parse::<u64>() {
                Ok(id) => job_status(shared, id),
                Err(_) => (400, err_json("campaign ids are integers")),
            }
        }
        ("POST", "/correlate") => submit_correlation(shared, &request.body),
        ("POST", "/predict") => predict(shared, &request.body),
        ("POST", "/merge") => merge(shared, &request.body),
        ("POST", "/shutdown") => match shared.begin_shutdown() {
            Ok(drained) => (200, format!("{{\"ok\":true,\"drained\":{drained}}}")),
            Err(e) => (503, err_json(&format!("drain journal failed: {e}"))),
        },
        ("GET" | "POST", _) => (404, err_json("no such endpoint")),
        _ => (405, err_json("method not allowed")),
    }
}

fn err_json(message: &str) -> String {
    format!("{{\"error\":{}}}", escape_json(message))
}

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
    let mut s = String::with_capacity(256);
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
         \"draining\":{}}}",
        inner.queue.len(),
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
    );
    s
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
    if inner.queue.len() >= shared.config.queue_depth {
        return (503, err_json("queue full"));
    }
    inner.counters.cache_misses += 1;
    inner.counters.submitted += 1;
    let id = inner.next_id;
    inner.next_id += 1;
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

fn job_status(shared: &Shared, id: u64) -> (u16, String) {
    let inner = shared.lock();
    let Some(job) = inner.jobs.get(&id) else {
        return (404, err_json("no such campaign"));
    };
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
