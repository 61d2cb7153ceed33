//! The fleet: the optional half of the server that leases campaign
//! shards to remote runners and never simulates a cycle itself.
//!
//! A fleet submission (`POST /fleet`: a campaign spec plus `"shards":n`)
//! is cut into `n` shard slots. Runners register (`POST /register`) and
//! pull shard leases (`POST /lease`); a lease is wall-clock bounded and
//! renewed by heartbeat, so a runner that dies — cleanly or not — gives
//! its shard back within one TTL, with capped retry + exponential
//! backoff ([`crate::lease`]). Completed shards land in a persistent
//! content-addressed store ([`crate::store`]), which also serves as the
//! fleet-wide dedup: a shard simulated once is never simulated again,
//! across campaigns and across restarts.
//!
//! Honesty properties:
//!
//! * a shard that burns `max_attempts` leases is poisoned and the
//!   campaign completes **degraded**, reporting exactly which shards are
//!   missing instead of hanging;
//! * a shard reads done only once its result is in the store: an upload
//!   that is not the leased shard, or a store write that fails, fails the
//!   lease instead, so the shard is retried;
//! * an accepted shard's `resumed` counter is normalized to zero (the
//!   recovery count moves to `/stats` as `jobs_recovered_total`), so a
//!   campaign that survived runner deaths is bit-identical to one that
//!   never saw a fault.
//!
//! Everything a fleet shares with local work lives in [`crate::service`]:
//! the accept loop, the id space, the queue bound with its `503` +
//! `Retry-After`, `/stats`, and the drain file that carries incomplete
//! fleet campaigns across a restart.

use crate::http::{finish_chunks, write_chunk, write_chunked_head, Request};
use crate::lease::{LeasePolicy, LeaseTable, ShardKey};
use crate::service::{err_json, Inner, Shared};
use crate::spec::CampaignSpec;
use crate::store::ResultStore;
use fault_inject::wire::fleet::{
    Ack, Complete, Fail, Heartbeat, LeaseGrant, LeaseReply, LeaseRequest, Register, Registered,
};
use fault_inject::wire::{merge_shards, Json, ShardResult};
use fault_inject::{journal, CampaignResult};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The most `?watch` progress streams open at once. Each holds a thread
/// until its campaign ends, and a campaign without runners never ends,
/// so a watch past this many is refused with `503`.
pub const MAX_WATCHES: usize = 16;

/// What a server needs on top of its [`crate::ServerConfig`] to run a
/// fleet (see [`crate::Server::start_fleet`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Lease TTL, and the attempt budget and backoff of a shard whose
    /// lease expires or fails.
    pub lease: LeasePolicy,
    /// Heartbeat interval handed to runners (and the `NoWork` retry
    /// hint). Should be a few times smaller than the TTL.
    pub heartbeat_ms: u64,
    /// How often the reaper thread expires dead leases, and how often a
    /// streaming progress watch polls, in milliseconds.
    pub poll_ms: u64,
    /// The content-addressed shard result store directory.
    pub store_path: PathBuf,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            lease: LeasePolicy::default(),
            heartbeat_ms: 2_000,
            poll_ms: 100,
            store_path: PathBuf::from("verifd-store"),
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

pub(crate) struct RunnerInfo {
    pub(crate) name: String,
    pub(crate) threads: u64,
}

/// The fleet half of a server's state, held under the server's one
/// mutex.
pub(crate) struct Fleet {
    pub(crate) config: FleetConfig,
    campaigns: HashMap<u64, FleetCampaign>,
    pub(crate) table: LeaseTable,
    pub(crate) store: ResultStore,
    /// The registered runners, ids ascending.
    pub(crate) runners: BTreeMap<u64, RunnerInfo>,
    next_runner: u64,
    /// Jobs recovered from uploaded partial journals (the `resumed`
    /// counts normalized out of accepted shard results).
    pub(crate) jobs_recovered_total: u64,
    /// Shard uploads rejected because their lease was no longer live.
    pub(crate) stale_uploads: u64,
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

impl Fleet {
    /// An empty fleet over the store at `config.store_path`.
    ///
    /// # Errors
    ///
    /// Fails if the store directory cannot be created.
    pub(crate) fn open(config: FleetConfig) -> std::io::Result<Fleet> {
        Ok(Fleet {
            table: LeaseTable::new(config.lease),
            store: ResultStore::open(&config.store_path)?,
            config,
            campaigns: HashMap::new(),
            runners: BTreeMap::new(),
            next_runner: 1,
            jobs_recovered_total: 0,
            stale_uploads: 0,
        })
    }

    /// How many fleet campaigns the server holds.
    pub(crate) fn campaigns(&self) -> usize {
        self.campaigns.len()
    }

    /// A campaign's `(done, poisoned)` shard counts, store-prefilled
    /// shards counted done.
    fn progress(&self, id: u64, campaign: &FleetCampaign) -> (u32, u32) {
        let (done, poisoned, _) = self.table.campaign_progress(id);
        (done + campaign.prefilled, poisoned)
    }

    /// The drain-file line of every campaign with a queued or leased
    /// shard, keyed by campaign id. A later [`LeaseTable::drain`] removes
    /// exactly those shards.
    pub(crate) fn drain_lines(&self) -> Vec<(u64, String)> {
        self.campaigns
            .iter()
            .filter(|(&id, _)| {
                let (done, poisoned, total) = self.table.campaign_progress(id);
                done + poisoned < total
            })
            .map(|(&id, campaign)| (id, fleet_body(&campaign.spec, campaign.shards)))
            .collect()
    }

    /// `GET /campaign/{id}` for a fleet campaign.
    pub(crate) fn campaign_status(&mut self, id: u64) -> (u16, String) {
        let Some(campaign) = self.campaigns.get(&id) else {
            return (404, err_json("no such campaign"));
        };
        let (done, poisoned) = self.progress(id, campaign);
        let shards = campaign.shards;
        let status = fleet_phase(done, poisoned, shards);
        let mut s =
            format!("{{\"id\":{id},\"status\":\"{status}\",\"done\":{done},\"total\":{shards}");
        let missing = self.table.poisoned_shards(id);
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
            let fingerprint = campaign.fingerprint.clone();
            let deadline = campaign.spec.deadline_ms;
            match self.merged_result(&fingerprint, shards, deadline) {
                Ok(merged) => {
                    let _ = write!(s, ",\"campaign\":{}", merged.to_json());
                }
                Err(e) => return (503, err_json(&e)),
            }
        }
        s.push('}');
        (200, s)
    }

    /// Merge all stored shards of a done campaign, storing the merged
    /// result under geometry `0/1` so the next status (or an unsharded
    /// fleet submission of the same spec) reads one file.
    fn merged_result(
        &mut self,
        fingerprint: &str,
        shards: u32,
        deadline: Option<u64>,
    ) -> Result<ShardResult, String> {
        if let Some(merged) = self.store.get(fingerprint, 0, 1, deadline) {
            return Ok(merged);
        }
        if shards == 1 {
            return Err("shard 0 missing from store".to_string());
        }
        let mut parts = Vec::with_capacity(shards as usize);
        for index in 0..shards {
            parts.push(
                self.store
                    .get(fingerprint, index, shards, deadline)
                    .ok_or_else(|| format!("shard {index} missing from store"))?,
            );
        }
        let merged = merge_shards(parts).map_err(|e| e.to_string())?;
        let _ = self.store.put(&merged, deadline);
        Ok(merged)
    }

    /// `GET /campaign/{id}/shard/{k}`: one stored shard result.
    pub(crate) fn shard_status(&self, id: u64, shard: u32) -> (u16, String) {
        let Some(campaign) = self.campaigns.get(&id) else {
            return (404, err_json("no such campaign"));
        };
        if shard >= campaign.shards {
            return (404, err_json("shard index out of range"));
        }
        match self.store.get(
            &campaign.fingerprint,
            shard,
            campaign.shards,
            campaign.spec.deadline_ms,
        ) {
            Some(result) => (200, result.to_json()),
            None => (404, err_json("shard not complete")),
        }
    }

    fn register(&mut self, body: &str) -> (u16, String) {
        let request = match Json::parse(body).and_then(|v| Register::from_obj(&v)) {
            Ok(request) => request,
            Err(e) => return (400, err_json(&e)),
        };
        let runner_id = self.next_runner;
        self.next_runner += 1;
        self.runners.insert(
            runner_id,
            RunnerInfo {
                name: request.name,
                threads: request.threads,
            },
        );
        let reply = Registered {
            runner_id,
            lease_ms: self.config.lease.ttl_ms,
            heartbeat_ms: self.config.heartbeat_ms,
        };
        (200, reply.to_json())
    }

    fn lease(&mut self, now: u64, draining: bool, body: &str) -> (u16, String) {
        let request = match Json::parse(body).and_then(|v| LeaseRequest::from_obj(&v)) {
            Ok(request) => request,
            Err(e) => return (400, err_json(&e)),
        };
        if !self.runners.contains_key(&request.runner_id) {
            return (400, err_json("unknown runner (register first)"));
        }
        let no_work = |draining: bool| {
            LeaseReply::NoWork {
                retry_ms: self.config.heartbeat_ms,
                draining,
            }
            .to_json()
        };
        if draining {
            return (200, no_work(true));
        }
        // Lazy reap on the grant path: a lease request never waits a poll
        // interval behind a dead runner.
        self.table.reap(now);
        let Some(granted) = self.table.acquire(now, request.runner_id) else {
            return (200, no_work(false));
        };
        let campaign = self
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
        (200, reply.to_json())
    }

    fn heartbeat(&mut self, now: u64, draining: bool, body: &str) -> (u16, String) {
        let request = match Json::parse(body).and_then(|v| Heartbeat::from_obj(&v)) {
            Ok(request) => request,
            Err(e) => return (400, err_json(&e)),
        };
        let ok = self.table.heartbeat(now, request.lease_id);
        (200, Ack { ok, draining }.to_json())
    }

    /// `POST /complete`: check the upload against its live lease, store
    /// it, and only then mark the shard done.
    fn complete(&mut self, now: u64, draining: bool, body: &str) -> (u16, String) {
        let request = match Json::parse(body).and_then(|v| Complete::from_obj(&v)) {
            Ok(request) => request,
            Err(e) => return (400, err_json(&e)),
        };
        let Some(key) = self.table.leased(request.lease_id) else {
            self.stale_uploads += 1;
            return (
                200,
                Ack {
                    ok: false,
                    draining,
                }
                .to_json(),
            );
        };
        let campaign = self
            .campaigns
            .get(&key.campaign)
            .expect("leased shard has a campaign");
        if request.shard.fingerprint != campaign.fingerprint
            || request.shard.index != key.shard
            || request.shard.count != campaign.shards
        {
            // A wrong upload is a runner bug, not a stale race: refuse it
            // loudly, and fail the lease so the shard is retried.
            self.table.fail(now, request.lease_id, None);
            return (
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
        if let Err(e) = self.store.put(&shard, deadline) {
            // Nothing is stored, so the shard must not read done.
            self.table.fail(now, request.lease_id, None);
            return (503, err_json(&format!("shard store write failed: {e}")));
        }
        self.jobs_recovered_total += recovered as u64;
        self.table.complete(request.lease_id);
        (200, Ack { ok: true, draining }.to_json())
    }

    fn fail(&mut self, now: u64, draining: bool, body: &str) -> (u16, String) {
        let request = match Json::parse(body).and_then(|v| Fail::from_obj(&v)) {
            Ok(request) => request,
            Err(e) => return (400, err_json(&e)),
        };
        // Only a journal that parses (torn final line allowed — that is the
        // recovery path) is handed to the next holder.
        let journal = request
            .journal
            .filter(|text| journal::read_str(text).is_ok());
        let ok = self.table.fail(now, request.lease_id, journal).is_some();
        if !ok {
            self.stale_uploads += 1;
        }
        (200, Ack { ok, draining }.to_json())
    }
}

/// Answer one of the six fleet routes (`/fleet`, `/register`, `/lease`,
/// `/heartbeat`, `/complete`, `/fail`); a server without a fleet answers
/// each with 404.
pub(crate) fn handle(shared: &Shared, path: &str, body: &str) -> (u16, String) {
    let now = shared.now_ms();
    let mut inner = shared.lock();
    if inner.fleet.is_none() {
        return (404, err_json("no such endpoint"));
    }
    if path == "/fleet" {
        return submit(&mut inner, shared.config.queue_depth, body);
    }
    let draining = inner.draining;
    let fleet = inner.fleet.as_mut().expect("checked above");
    match path {
        "/register" => fleet.register(body),
        "/lease" => fleet.lease(now, draining, body),
        "/heartbeat" => fleet.heartbeat(now, draining, body),
        "/complete" => fleet.complete(now, draining, body),
        _ => fleet.fail(now, draining, body),
    }
}

/// `POST /fleet`: a campaign spec plus `"shards":n`. Shards the store
/// already holds are served from it; the rest are queued for lease.
fn submit(inner: &mut Inner, queue_depth: usize, body: &str) -> (u16, String) {
    let v = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, err_json(&e)),
    };
    let spec = match CampaignSpec::from_obj(&v) {
        Ok(spec) => spec,
        Err(e) => return (400, err_json(&e)),
    };
    if spec.shard.is_some() {
        return (
            400,
            err_json("fleet specs carry `shards`, not `shard_index`/`shard_count` (the coordinator cuts the shards)"),
        );
    }
    let shards = match v.get_u64("shards") {
        Some(n) if (1..=4096).contains(&n) => u32::try_from(n).expect("bounded above"),
        Some(_) => return (400, err_json("`shards` must be between 1 and 4096")),
        None => return (400, err_json("missing `shards`")),
    };
    let fingerprint = spec.fingerprint();
    if inner.draining {
        return (503, err_json("server is draining"));
    }
    let fleet = inner.fleet.as_ref().expect("fleet routes run on a fleet");
    // Idempotent resubmission: same spec + geometry → the same campaign.
    if let Some((&id, campaign)) = fleet
        .campaigns
        .iter()
        .find(|(_, c)| c.fingerprint == fingerprint && c.shards == shards && c.spec == spec)
    {
        let (done, poisoned) = fleet.progress(id, campaign);
        let status = fleet_phase(done, poisoned, shards);
        return (
            200,
            format!(
                "{{\"id\":{id},\"status\":\"{status}\",\"shards\":{shards},\"cached\":{done}}}"
            ),
        );
    }
    // Which shards does the store already hold?
    let missing: Vec<u32> = (0..shards)
        .filter(|&index| {
            fleet
                .store
                .get(&fingerprint, index, shards, spec.deadline_ms)
                .is_none()
        })
        .collect();
    let prefilled = shards - missing.len() as u32;
    if let Err(refused) = inner.admit(missing.len(), queue_depth) {
        return refused;
    }
    let id = inner.new_id();
    let fleet = inner.fleet.as_mut().expect("fleet routes run on a fleet");
    for &shard in &missing {
        fleet.table.enqueue(ShardKey {
            campaign: id,
            shard,
        });
    }
    fleet.campaigns.insert(
        id,
        FleetCampaign {
            spec,
            shards,
            fingerprint,
            prefilled,
        },
    );
    let status = if missing.is_empty() { "done" } else { "queued" };
    (
        200,
        format!(
            "{{\"id\":{id},\"status\":\"{status}\",\"shards\":{shards},\"cached\":{prefilled}}}"
        ),
    )
}

/// The fleet submission body for a spec + geometry (also the drain-file
/// line format, told apart from campaign and correlation specs by its
/// `"shards"` key).
fn fleet_body(spec: &CampaignSpec, shards: u32) -> String {
    let json = spec.to_json();
    format!("{},\"shards\":{shards}}}", &json[..json.len() - 1])
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

/// Expire dead leases every `poll_ms` until the server shuts down.
pub(crate) fn reaper_loop(shared: &Shared, poll_ms: u64) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(poll_ms));
        let now = shared.now_ms();
        if let Some(fleet) = shared.lock().fleet.as_mut() {
            fleet.table.reap(now);
        }
    }
}

/// `GET /campaign/{id}?watch` → the id to stream.
pub(crate) fn watch_request(request: &Request) -> Option<u64> {
    let path = request.path.strip_prefix("/campaign/")?;
    let id = path.strip_suffix("?watch")?;
    if request.method == "GET" {
        id.parse().ok()
    } else {
        None
    }
}

/// Take one of the [`MAX_WATCHES`] watch slots for fleet campaign `id`;
/// [`stream_progress`] gives it back. Refuses an unknown campaign with
/// 404 and a full house with 503.
pub(crate) fn admit_watch(shared: &Shared, id: u64) -> Result<(), (u16, String)> {
    let known = shared
        .lock()
        .fleet
        .as_ref()
        .is_some_and(|fleet| fleet.campaigns.contains_key(&id));
    if !known {
        return Err((404, err_json("no such campaign")));
    }
    shared
        .watches
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
            (open < MAX_WATCHES).then_some(open + 1)
        })
        .map(drop)
        .map_err(|_| (503, err_json("too many progress watches")))
}

/// Stream progress lines (one JSON object per chunk) until the campaign
/// is terminal, then a final status line. Stops early when the server
/// shuts down or the watcher hangs up, and frees its watch slot.
pub(crate) fn stream_progress(shared: &Shared, mut stream: TcpStream, id: u64) {
    watch(shared, &mut stream, id);
    shared.watches.fetch_sub(1, Ordering::SeqCst);
}

fn watch(shared: &Shared, stream: &mut TcpStream, id: u64) {
    let poll = match &shared.lock().fleet {
        Some(fleet) => Duration::from_millis(fleet.config.poll_ms.max(1)),
        None => return,
    };
    // Waiting for the watcher to speak is how the stream polls: a read
    // that times out is a watcher still listening, a closed one is not.
    if write_chunked_head(stream, 200).is_err() || stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let mut last = String::new();
    loop {
        let (progress, terminal) = {
            let inner = shared.lock();
            let Some((fleet, campaign)) = inner
                .fleet
                .as_ref()
                .and_then(|fleet| Some((fleet, fleet.campaigns.get(&id)?)))
            else {
                return;
            };
            let (done, poisoned) = fleet.progress(id, campaign);
            (
                format!(
                    "{{\"done\":{done},\"poisoned\":{poisoned},\"total\":{}}}\n",
                    campaign.shards
                ),
                done + poisoned == campaign.shards,
            )
        };
        if progress != last {
            if write_chunk(stream, &progress).is_err() {
                return;
            }
            last = progress;
        }
        if terminal || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.peek(&mut [0u8; 1]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            // The watcher sent more than its request: keep polling.
            Ok(n) if n > 0 => std::thread::sleep(poll),
            // Hung up, or the connection broke.
            _ => return,
        }
    }
    let final_status = match shared.lock().fleet.as_mut() {
        Some(fleet) => fleet.campaign_status(id).1,
        None => return,
    };
    let _ = write_chunk(stream, &format!("{final_status}\n"));
    let _ = finish_chunks(stream);
}
