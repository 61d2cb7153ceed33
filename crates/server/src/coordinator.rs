//! The fleet coordinator: owns the shard queue and the lease table,
//! never simulates a cycle itself.
//!
//! A fleet submission (`POST /fleet`: a campaign spec plus `"shards":n`)
//! is cut into `n` shard slots. Runners register (`POST /register`) and
//! pull shard leases (`POST /lease`); a lease is wall-clock bounded and
//! renewed by heartbeat, so a runner that dies — cleanly or not — gives
//! its shard back within one TTL, with capped retry + exponential
//! backoff ([`crate::lease`]). Completed shards land in a persistent
//! content-addressed store ([`crate::store`]), which also serves as the
//! fleet-wide dedup: a shard simulated once is never simulated again,
//! across campaigns and across coordinator restarts.
//!
//! Honesty properties:
//!
//! * over capacity → `503` with `Retry-After`, never accept-then-stall;
//! * a shard that burns `max_attempts` leases is poisoned and the
//!   campaign completes **degraded**, reporting exactly which shards are
//!   missing instead of hanging;
//! * an accepted shard's `resumed` counter is normalized to zero (the
//!   recovery count moves to `/stats` as `jobs_recovered_total`), so a
//!   campaign that survived runner deaths is bit-identical to one that
//!   never saw a fault;
//! * graceful shutdown drains incomplete campaigns to the drain file,
//!   and startup re-enqueues them automatically — already-done shards
//!   are served from the store, so a drained campaign resumes where the
//!   fleet left off.

use crate::http::{
    accept, finish_chunks, read_request, write_chunk, write_chunked_head, write_response,
    write_response_with, Request,
};
use crate::lease::{LeasePolicy, LeaseTable, ShardKey};
use crate::spec::CampaignSpec;
use crate::store::ResultStore;
use fault_inject::wire::fleet::{
    Ack, Complete, Fail, Heartbeat, LeaseGrant, LeaseReply, LeaseRequest, Register, Registered,
};
use fault_inject::wire::{escape_json, merge_shards, Json, ShardResult};
use fault_inject::{journal, CampaignResult};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address; port 0 picks a free port (see [`Coordinator::addr`]).
    pub addr: String,
    /// Bound on queued shard slots across all campaigns; a submission
    /// that would exceed it is refused with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Lease TTL in milliseconds.
    pub lease_ttl_ms: u64,
    /// Heartbeat interval handed to runners (and the `NoWork` retry
    /// hint). Should be a few times smaller than the TTL.
    pub heartbeat_ms: u64,
    /// Leases a shard may consume before it is poisoned.
    pub max_attempts: u64,
    /// First re-queue backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// The `Retry-After` value (seconds) sent with `503`.
    pub retry_after_s: u64,
    /// How often the reaper thread expires dead leases, and how often a
    /// streaming progress watch polls, in milliseconds.
    pub poll_ms: u64,
    /// The content-addressed shard result store directory.
    pub store_path: PathBuf,
    /// Where graceful shutdown journals incomplete campaigns (one fleet
    /// submission body per line), re-enqueued automatically on the next
    /// startup. `None` disables both.
    pub drain_path: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 256,
            lease_ttl_ms: 10_000,
            heartbeat_ms: 2_000,
            max_attempts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
            retry_after_s: 2,
            poll_ms: 100,
            store_path: PathBuf::from("verifd-store"),
            drain_path: None,
        }
    }
}

impl CoordinatorConfig {
    fn policy(&self) -> LeasePolicy {
        LeasePolicy {
            ttl_ms: self.lease_ttl_ms,
            max_attempts: self.max_attempts,
            backoff_base_ms: self.backoff_base_ms,
            backoff_cap_ms: self.backoff_cap_ms,
        }
    }
}

/// One fleet campaign's bookkeeping.
struct FleetCampaign {
    /// The base spec, shard coordinates cleared.
    spec: CampaignSpec,
    /// The shard geometry.
    shards: u32,
    /// The campaign's public fingerprint (shared by all shards).
    fingerprint: String,
    /// Shards that were already in the store at submission (never
    /// entered the lease table).
    prefilled: u32,
}

struct RunnerInfo {
    name: String,
    threads: u64,
}

#[derive(Default)]
struct FleetCounters {
    submitted: u64,
    rejected_busy: u64,
    /// Jobs recovered from uploaded partial journals (the `resumed`
    /// counts normalized out of accepted shard results).
    jobs_recovered_total: u64,
    /// Campaigns re-enqueued from the drain file at startup.
    drain_resubmitted: u64,
    /// Shard uploads rejected because their lease was no longer live.
    stale_uploads: u64,
}

struct Inner {
    campaigns: HashMap<u64, FleetCampaign>,
    table: LeaseTable,
    store: ResultStore,
    runners: HashMap<u64, RunnerInfo>,
    next_campaign: u64,
    next_runner: u64,
    draining: bool,
    counters: FleetCounters,
}

struct Shared {
    inner: Mutex<Inner>,
    shutdown: AtomicBool,
    epoch: Instant,
    config: CoordinatorConfig,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Milliseconds since the coordinator started — the lease table's
    /// clock.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// One campaign's externally visible progress, as served by
/// `GET /campaign/{id}` (and parsed back by the fleet client).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStatus {
    /// The campaign id.
    pub id: u64,
    /// `"running"`, `"done"` or `"degraded"`.
    pub status: String,
    /// Shards finished (store-prefilled ones included).
    pub done: u32,
    /// The shard geometry.
    pub total: u32,
    /// Poisoned shard indices (non-empty exactly when degraded).
    pub missing: Vec<u32>,
    /// The merged unsharded result, present when `status == "done"`.
    pub campaign: Option<ShardResult>,
}

impl FleetStatus {
    /// Parse from an already-parsed status object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<FleetStatus, String> {
        let missing = match v.get_array("missing") {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|item| {
                    item.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or("`missing` items must be shard indices")
                })
                .collect::<Result<Vec<u32>, &str>>()?,
        };
        Ok(FleetStatus {
            id: v.get_u64("id").ok_or("missing `id`")?,
            status: v.get_str("status").ok_or("missing `status`")?.to_string(),
            done: v
                .get_u64("done")
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("missing `done`")?,
            total: v
                .get_u64("total")
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("missing `total`")?,
            missing,
            campaign: match v.get("campaign") {
                Some(obj) => Some(ShardResult::from_obj(obj)?),
                None => None,
            },
        })
    }
}

/// A running coordinator. Dropping the handle does **not** stop it; call
/// [`Coordinator::shutdown`] (or hit `POST /shutdown`) for a graceful
/// stop.
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Bind, re-enqueue any drained campaigns from the drain file, spawn
    /// the accept and reaper threads, and return.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the store directory
    /// cannot be created.
    pub fn start(config: CoordinatorConfig) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(&config.store_path)?;
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                campaigns: HashMap::new(),
                table: LeaseTable::new(config.policy()),
                store,
                runners: HashMap::new(),
                next_campaign: 1,
                next_runner: 1,
                draining: false,
                counters: FleetCounters::default(),
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            config,
        });
        resubmit_drained(&shared);
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reaper_loop(&shared))
        };
        Ok(Coordinator {
            addr,
            shared,
            accept: Some(accept),
            reaper: Some(reaper),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop granting leases, journal incomplete
    /// campaigns to the drain file, join every thread. Returns how many
    /// campaigns were drained.
    ///
    /// # Errors
    ///
    /// Fails if the drain journal cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the accept or reaper thread panicked (nothing in either
    /// is expected to).
    pub fn shutdown(mut self) -> std::io::Result<usize> {
        let drained = begin_shutdown(&self.shared)?;
        // The accept thread may be blocked in accept(); one throwaway
        // connection gets it to its shutdown check.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        if let Some(reaper) = self.reaper.take() {
            reaper.join().expect("reaper thread");
        }
        Ok(drained)
    }

    /// Block until the coordinator stops (via `POST /shutdown`).
    ///
    /// # Panics
    ///
    /// Panics if the accept or reaper thread panicked.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        if let Some(reaper) = self.reaper.take() {
            reaper.join().expect("reaper thread");
        }
    }
}

/// Re-enqueue fleet submissions journaled by the previous process's
/// graceful shutdown, then remove the file (its content now lives in
/// the lease table; a later shutdown rewrites it).
fn resubmit_drained(shared: &Arc<Shared>) {
    let Some(path) = &shared.config.drain_path else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let mut resubmitted = 0;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        if submit_fleet(shared, line).0 == 200 {
            resubmitted += 1;
        }
    }
    shared.lock().counters.drain_resubmitted += resubmitted;
    let _ = std::fs::remove_file(path);
}

/// Stop granting leases, journal every incomplete campaign to the drain
/// file, release the accept/reaper threads. Returns the campaigns
/// drained.
fn begin_shutdown(shared: &Shared) -> std::io::Result<usize> {
    let drained: Vec<String> = {
        let mut inner = shared.lock();
        inner.draining = true;
        let keys = inner.table.drain();
        let ids: std::collections::HashSet<u64> = keys.iter().map(|k| k.campaign).collect();
        let mut lines: Vec<(u64, String)> = ids
            .iter()
            .filter_map(|id| {
                let campaign = inner.campaigns.get(id)?;
                Some((*id, fleet_body(&campaign.spec, campaign.shards)))
            })
            .collect();
        lines.sort_unstable();
        lines.into_iter().map(|(_, line)| line).collect()
    };
    if let (Some(path), false) = (&shared.config.drain_path, drained.is_empty()) {
        let mut file = std::fs::File::create(path)?;
        for line in &drained {
            writeln!(file, "{line}")?;
        }
        file.flush()?;
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    Ok(drained.len())
}

/// The fleet submission body for a spec + geometry (also the drain-file
/// line format).
fn fleet_body(spec: &CampaignSpec, shards: u32) -> String {
    let json = spec.to_json();
    format!("{},\"shards\":{shards}}}", &json[..json.len() - 1])
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = accept(listener) else {
            continue;
        };
        let request = match read_request(&stream) {
            Ok(request) => request,
            Err(e) => {
                let body = err_json(&e.to_string());
                let _ = write_response(&mut stream, 400, &body);
                continue;
            }
        };
        // A progress watch streams until the campaign is terminal; it
        // gets its own thread so the accept loop stays responsive.
        if let Some(id) = watch_request(&request) {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || stream_progress(&shared, &mut stream, id));
            continue;
        }
        let (status, headers, body) = route(shared, &request);
        let header_refs: Vec<(&str, &str)> = headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let _ = write_response_with(&mut stream, status, &header_refs, &body);
    }
}

fn reaper_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(shared.config.poll_ms));
        let now = shared.now_ms();
        shared.lock().table.reap(now);
    }
}

/// `GET /campaign/{id}?watch` → the id to stream.
fn watch_request(request: &Request) -> Option<u64> {
    let path = request.path.strip_prefix("/campaign/")?;
    let id = path.strip_suffix("?watch")?;
    if request.method == "GET" {
        id.parse().ok()
    } else {
        None
    }
}

/// Stream progress lines (one JSON object per chunk) until the campaign
/// is terminal, then a final status line.
fn stream_progress(shared: &Shared, stream: &mut TcpStream, id: u64) {
    if !shared.lock().campaigns.contains_key(&id) {
        let _ = write_response(stream, 404, &err_json("no such campaign"));
        return;
    }
    if write_chunked_head(stream, 200).is_err() {
        return;
    }
    let mut last = String::new();
    loop {
        let (progress, terminal) = {
            let inner = shared.lock();
            let Some(campaign) = inner.campaigns.get(&id) else {
                return;
            };
            let (done, poisoned, _) = inner.table.campaign_progress(id);
            let done = done + campaign.prefilled;
            let terminal = done + poisoned == campaign.shards;
            (
                format!(
                    "{{\"done\":{done},\"poisoned\":{poisoned},\"total\":{}}}\n",
                    campaign.shards
                ),
                terminal,
            )
        };
        if progress != last {
            if write_chunk(stream, &progress).is_err() {
                return;
            }
            last = progress;
        }
        if terminal {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(shared.config.poll_ms));
    }
    let (_, _, final_status) = campaign_status(shared, id);
    let _ = write_chunk(stream, &format!("{final_status}\n"));
    let _ = finish_chunks(stream);
}

type Reply = (u16, Vec<(String, String)>, String);

fn plain(status: u16, body: String) -> Reply {
    (status, Vec::new(), body)
}

fn err_json(message: &str) -> String {
    format!("{{\"error\":{}}}", escape_json(message))
}

fn route(shared: &Arc<Shared>, request: &Request) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.lock().draining;
            plain(200, format!("{{\"ok\":true,\"draining\":{draining}}}"))
        }
        ("GET", "/stats") => plain(200, stats_json(shared)),
        ("POST", "/fleet") => {
            let (status, headers, body) = submit_fleet(shared, &request.body);
            (status, headers, body)
        }
        ("GET", path) if path.starts_with("/campaign/") => {
            let rest = &path["/campaign/".len()..];
            if let Some((id, shard)) = rest.split_once("/shard/") {
                match (id.parse::<u64>(), shard.parse::<u32>()) {
                    (Ok(id), Ok(shard)) => shard_status(shared, id, shard),
                    _ => plain(400, err_json("campaign and shard ids are integers")),
                }
            } else {
                match rest.parse::<u64>() {
                    Ok(id) => campaign_status(shared, id),
                    Err(_) => plain(400, err_json("campaign ids are integers")),
                }
            }
        }
        ("POST", "/register") => register(shared, &request.body),
        ("POST", "/lease") => lease(shared, &request.body),
        ("POST", "/heartbeat") => heartbeat(shared, &request.body),
        ("POST", "/complete") => complete(shared, &request.body),
        ("POST", "/fail") => fail(shared, &request.body),
        ("POST", "/shutdown") => match begin_shutdown(shared) {
            Ok(drained) => plain(200, format!("{{\"ok\":true,\"drained\":{drained}}}")),
            Err(e) => plain(503, err_json(&format!("drain journal failed: {e}"))),
        },
        ("GET" | "POST", _) => plain(404, err_json("no such endpoint")),
        _ => plain(405, err_json("method not allowed")),
    }
}

fn stats_json(shared: &Shared) -> String {
    let inner = shared.lock();
    let counters = inner.table.counters();
    let snapshot = inner.table.snapshot();
    let c = &inner.counters;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"queue_depth\":{},\"queue_capacity\":{},\"campaigns\":{},\
         \"runners\":{},\"submitted\":{},\"rejected_busy\":{},\
         \"leases_active\":{},\"leases_granted\":{},\"leases_expired\":{},\
         \"leases_failed\":{},\"leases_retried\":{},\"shards_done\":{},\
         \"shards_poisoned\":{},\"stale_uploads\":{},\
         \"jobs_recovered_total\":{},\"drain_resubmitted\":{},\
         \"store_puts\":{},\"store_dedup_hits\":{},\"draining\":{}}}",
        snapshot.queued,
        shared.config.queue_depth,
        inner.campaigns.len(),
        inner.runners.len(),
        c.submitted,
        c.rejected_busy,
        snapshot.leased,
        counters.granted,
        counters.expired,
        counters.failed,
        counters.retried,
        counters.completed,
        counters.poisoned,
        c.stale_uploads,
        c.jobs_recovered_total,
        c.drain_resubmitted,
        inner.store.puts(),
        inner.store.dedup_hits(),
        inner.draining,
    );
    // The registered fleet, ids ascending.
    let mut roster: Vec<(&u64, &RunnerInfo)> = inner.runners.iter().collect();
    roster.sort_unstable_by_key(|(id, _)| **id);
    s.truncate(s.len() - 1);
    s.push_str(",\"fleet\":[");
    for (i, (id, info)) in roster.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"runner_id\":{id},\"name\":{},\"threads\":{}}}",
            escape_json(&info.name),
            info.threads,
        );
    }
    s.push_str("]}");
    s
}

/// `POST /fleet`: a campaign spec plus `"shards":n`.
fn submit_fleet(shared: &Arc<Shared>, body: &str) -> Reply {
    let v = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return plain(400, err_json(&e)),
    };
    let spec = match CampaignSpec::from_obj(&v) {
        Ok(spec) => spec,
        Err(e) => return plain(400, err_json(&e)),
    };
    if spec.shard.is_some() {
        return plain(
            400,
            err_json("fleet specs carry `shards`, not `shard_index`/`shard_count` (the coordinator cuts the shards)"),
        );
    }
    let shards = match v.get_u64("shards") {
        Some(n) if (1..=4096).contains(&n) => u32::try_from(n).expect("bounded above"),
        Some(_) => return plain(400, err_json("`shards` must be between 1 and 4096")),
        None => return plain(400, err_json("missing `shards`")),
    };
    let fingerprint = spec.fingerprint();
    let mut inner = shared.lock();
    if inner.draining {
        return retry_later(shared, "coordinator is draining");
    }
    // Idempotent resubmission: same spec + geometry → the same campaign.
    if let Some((&id, _)) = inner
        .campaigns
        .iter()
        .find(|(_, c)| c.fingerprint == fingerprint && c.shards == shards && c.spec == spec)
    {
        let (done, poisoned, _) = inner.table.campaign_progress(id);
        let done = done + inner.campaigns[&id].prefilled;
        let status = fleet_phase(done, poisoned, shards);
        return plain(
            200,
            format!(
                "{{\"id\":{id},\"status\":\"{status}\",\"shards\":{shards},\"cached\":{done}}}"
            ),
        );
    }
    // Which shards does the store already hold?
    let mut missing: Vec<u32> = Vec::new();
    let mut prefilled = 0;
    for index in 0..shards {
        if inner
            .store
            .get(&fingerprint, index, shards, spec.deadline_ms)
            .is_some()
        {
            prefilled += 1;
        } else {
            missing.push(index);
        }
    }
    // Honest backpressure: refuse what we cannot queue.
    let queued = inner.table.snapshot().queued as usize;
    if queued + missing.len() > shared.config.queue_depth {
        inner.counters.rejected_busy += 1;
        return retry_later(shared, "queue full");
    }
    let id = inner.next_campaign;
    inner.next_campaign += 1;
    inner.counters.submitted += 1;
    for index in &missing {
        inner.table.enqueue(ShardKey {
            campaign: id,
            shard: *index,
        });
    }
    inner.campaigns.insert(
        id,
        FleetCampaign {
            spec,
            shards,
            fingerprint,
            prefilled,
        },
    );
    let status = if missing.is_empty() { "done" } else { "queued" };
    plain(
        200,
        format!(
            "{{\"id\":{id},\"status\":\"{status}\",\"shards\":{shards},\"cached\":{prefilled}}}"
        ),
    )
}

fn retry_later(shared: &Shared, message: &str) -> Reply {
    (
        503,
        vec![(
            "retry-after".to_string(),
            shared.config.retry_after_s.to_string(),
        )],
        err_json(message),
    )
}

fn fleet_phase(done: u32, poisoned: u32, total: u32) -> &'static str {
    if done == total {
        "done"
    } else if done + poisoned == total {
        "degraded"
    } else {
        "running"
    }
}

fn campaign_status(shared: &Shared, id: u64) -> Reply {
    let mut inner = shared.lock();
    let Some(campaign) = inner.campaigns.get(&id) else {
        return plain(404, err_json("no such campaign"));
    };
    let fingerprint = campaign.fingerprint.clone();
    let shards = campaign.shards;
    let deadline = campaign.spec.deadline_ms;
    let prefilled = campaign.prefilled;
    let (table_done, poisoned, _) = inner.table.campaign_progress(id);
    let done = table_done + prefilled;
    let status = fleet_phase(done, poisoned, shards);
    let mut s = format!("{{\"id\":{id},\"status\":\"{status}\",\"done\":{done},\"total\":{shards}");
    let missing = inner.table.poisoned_shards(id);
    if !missing.is_empty() {
        let _ = write!(
            s,
            ",\"missing\":[{}]",
            missing
                .iter()
                .map(u32::to_string)
                .collect::<Vec<String>>()
                .join(",")
        );
    }
    if status == "done" {
        // All shards are in the store; merge (and memoize the merged
        // result under the unsharded geometry, 0/1).
        match merged_result(&mut inner, &fingerprint, shards, deadline) {
            Ok(merged) => {
                let _ = write!(s, ",\"campaign\":{}", merged.to_json());
            }
            Err(e) => return plain(503, err_json(&e)),
        }
    }
    s.push('}');
    plain(200, s)
}

/// Merge all stored shards of a done campaign, storing the merged result
/// under geometry `0/1` so the next status (or an unsharded fleet
/// submission of the same spec) reads one file.
fn merged_result(
    inner: &mut Inner,
    fingerprint: &str,
    shards: u32,
    deadline: Option<u64>,
) -> Result<ShardResult, String> {
    if shards == 1 {
        return inner
            .store
            .get(fingerprint, 0, 1, deadline)
            .ok_or_else(|| "shard 0 missing from store".to_string());
    }
    if let Some(merged) = inner.store.get(fingerprint, 0, 1, deadline) {
        return Ok(merged);
    }
    let mut parts = Vec::with_capacity(shards as usize);
    for index in 0..shards {
        parts.push(
            inner
                .store
                .get(fingerprint, index, shards, deadline)
                .ok_or_else(|| format!("shard {index} missing from store"))?,
        );
    }
    let merged = merge_shards(parts).map_err(|e| e.to_string())?;
    let _ = inner.store.put(&merged, deadline);
    Ok(merged)
}

fn shard_status(shared: &Shared, id: u64, shard: u32) -> Reply {
    let inner = shared.lock();
    let Some(campaign) = inner.campaigns.get(&id) else {
        return plain(404, err_json("no such campaign"));
    };
    if shard >= campaign.shards {
        return plain(404, err_json("shard index out of range"));
    }
    match inner.store.get(
        &campaign.fingerprint,
        shard,
        campaign.shards,
        campaign.spec.deadline_ms,
    ) {
        Some(result) => plain(200, result.to_json()),
        None => plain(404, err_json("shard not complete")),
    }
}

fn register(shared: &Shared, body: &str) -> Reply {
    let request = match Json::parse(body).and_then(|v| Register::from_obj(&v)) {
        Ok(request) => request,
        Err(e) => return plain(400, err_json(&e)),
    };
    let mut inner = shared.lock();
    let runner_id = inner.next_runner;
    inner.next_runner += 1;
    inner.runners.insert(
        runner_id,
        RunnerInfo {
            name: request.name,
            threads: request.threads,
        },
    );
    let reply = Registered {
        runner_id,
        lease_ms: shared.config.lease_ttl_ms,
        heartbeat_ms: shared.config.heartbeat_ms,
    };
    plain(200, reply.to_json())
}

fn lease(shared: &Shared, body: &str) -> Reply {
    let request = match Json::parse(body).and_then(|v| LeaseRequest::from_obj(&v)) {
        Ok(request) => request,
        Err(e) => return plain(400, err_json(&e)),
    };
    let now = shared.now_ms();
    let mut inner = shared.lock();
    if !inner.runners.contains_key(&request.runner_id) {
        return plain(400, err_json("unknown runner (register first)"));
    }
    let no_work = |draining: bool| {
        LeaseReply::NoWork {
            retry_ms: shared.config.heartbeat_ms,
            draining,
        }
        .to_json()
    };
    if inner.draining {
        return plain(200, no_work(true));
    }
    // Lazy reap on the grant path: a lease request never waits a poll
    // interval behind a dead runner.
    inner.table.reap(now);
    let Some(granted) = inner.table.acquire(now, request.runner_id) else {
        return plain(200, no_work(false));
    };
    let campaign = inner
        .campaigns
        .get(&granted.key.campaign)
        .expect("leased shard has a campaign");
    let mut spec = campaign.spec.clone();
    spec.shard = Some((granted.key.shard, campaign.shards));
    let spec_json = Json::parse(&spec.to_json()).expect("canonical spec parses");
    let reply = LeaseReply::Grant(LeaseGrant {
        lease_id: granted.lease_id,
        campaign_id: granted.key.campaign,
        attempt: granted.attempt,
        spec: spec_json,
        journal: granted.journal,
    });
    plain(200, reply.to_json())
}

fn heartbeat(shared: &Shared, body: &str) -> Reply {
    let request = match Json::parse(body).and_then(|v| Heartbeat::from_obj(&v)) {
        Ok(request) => request,
        Err(e) => return plain(400, err_json(&e)),
    };
    let now = shared.now_ms();
    let mut inner = shared.lock();
    let ok = inner.table.heartbeat(now, request.lease_id);
    let draining = inner.draining;
    plain(200, Ack { ok, draining }.to_json())
}

fn complete(shared: &Shared, body: &str) -> Reply {
    let request = match Json::parse(body).and_then(|v| Complete::from_obj(&v)) {
        Ok(request) => request,
        Err(e) => return plain(400, err_json(&e)),
    };
    let mut inner = shared.lock();
    let draining = inner.draining;
    let stale = || {
        plain(
            200,
            Ack {
                ok: false,
                draining,
            }
            .to_json(),
        )
    };
    let Some(key) = inner.table.complete(request.lease_id) else {
        inner.counters.stale_uploads += 1;
        return stale();
    };
    let campaign = inner
        .campaigns
        .get(&key.campaign)
        .expect("completed shard has a campaign");
    // The upload must be the shard the lease covered.
    if request.shard.fingerprint != campaign.fingerprint
        || request.shard.index != key.shard
        || request.shard.count != campaign.shards
    {
        // A wrong upload is a runner bug, not a stale race; poison-path
        // accounting would hide it, so refuse loudly. The shard stays
        // Done-less: fail the lease so it is retried.
        return plain(
            400,
            err_json("uploaded shard does not match the leased shard"),
        );
    }
    let deadline = campaign.spec.deadline_ms;
    // Normalize the recovery counter: a resumed shard must be
    // bit-identical to a never-interrupted one. The count is fleet
    // truth, so it moves to /stats.
    let mut stats = *request.shard.result.stats();
    let recovered = stats.resumed;
    stats.resumed = 0;
    let shard = ShardResult {
        result: CampaignResult::with_stats(request.shard.result.records().to_vec(), stats),
        ..request.shard
    };
    inner.counters.jobs_recovered_total += recovered as u64;
    let _ = inner.store.put(&shard, deadline);
    plain(200, Ack { ok: true, draining }.to_json())
}

fn fail(shared: &Shared, body: &str) -> Reply {
    let request = match Json::parse(body).and_then(|v| Fail::from_obj(&v)) {
        Ok(request) => request,
        Err(e) => return plain(400, err_json(&e)),
    };
    let now = shared.now_ms();
    let mut inner = shared.lock();
    let draining = inner.draining;
    // Only a journal that parses (torn final line allowed — that is the
    // recovery path) is handed to the next holder.
    let journal = request
        .journal
        .filter(|text| journal::read_str(text).is_ok());
    let ok = inner.table.fail(now, request.lease_id, journal).is_some();
    if !ok {
        inner.counters.stale_uploads += 1;
    }
    plain(200, Ack { ok, draining }.to_json())
}
