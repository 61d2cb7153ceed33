//! A small blocking client for the service, used by the `repro` CLI's
//! `submit`, `merge` and `fleet` verbs, by the fleet runner's protocol
//! side, and by the smoke tests.

use crate::fleet::FleetStatus;
use crate::http::{
    read_response, read_response_full, read_response_streaming, write_request, Response,
};
use crate::spec::CampaignSpec;
use fault_inject::wire::fleet::{
    Ack, Complete, Fail, Heartbeat, LeaseReply, LeaseRequest, Register, Registered,
};
use fault_inject::wire::{Json, ShardResult};
use fault_inject::{CorrelationReport, CorrelationSpec, PredictRequest, Prediction};
use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

/// What can go wrong talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or broke mid-exchange.
    Io(std::io::Error),
    /// The service answered with a non-200 status.
    Http {
        /// The HTTP status code.
        status: u16,
        /// The response body (usually `{"error":…}`).
        body: String,
    },
    /// The service answered 200 with a body the client cannot parse.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Http { status, body } => {
                let detail = Json::parse(body)
                    .ok()
                    .and_then(|v| v.get_str("error").map(str::to_string))
                    .unwrap_or_else(|| body.clone());
                write!(f, "server said {status}: {detail}")
            }
            ClientError::Protocol(reason) => write!(f, "bad server reply: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// The reply to a campaign submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReply {
    /// The job id to poll (or the cached job's id).
    pub id: u64,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// `"queued"`, or `"done"` on a cache hit.
    pub status: String,
}

/// The reply to a status poll.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReply {
    /// `"queued"`, `"running"`, `"done"`, `"failed"` or `"drained"`.
    pub status: String,
    /// The failure reason when `status == "failed"`.
    pub error: Option<String>,
    /// The result when `status == "done"`.
    pub result: Option<ShardResult>,
}

/// Issue one request and return `(status, body)` without interpreting
/// the status.
///
/// # Errors
///
/// Fails on connection or protocol-framing errors.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, method, path, body)?;
    Ok(read_response(&stream)?)
}

fn expect_200(addr: &str, method: &str, path: &str, body: &str) -> Result<Json, ClientError> {
    let (status, body) = request(addr, method, path, body)?;
    if status != 200 {
        return Err(ClientError::Http { status, body });
    }
    Json::parse(&body).map_err(ClientError::Protocol)
}

/// Submit a campaign spec.
///
/// # Errors
///
/// Fails on I/O errors, a refused spec (400), or a draining/full
/// server (503).
pub fn submit(addr: &str, spec: &CampaignSpec) -> Result<SubmitReply, ClientError> {
    let v = expect_200(addr, "POST", "/campaign", &spec.to_json())?;
    Ok(SubmitReply {
        id: v
            .get_u64("id")
            .ok_or_else(|| ClientError::Protocol("submit reply missing `id`".to_string()))?,
        cached: v.get_bool("cached").unwrap_or(false),
        status: v.get_str("status").unwrap_or("queued").to_string(),
    })
}

/// Poll one job's status.
///
/// # Errors
///
/// Fails on I/O errors or an unknown id (404).
pub fn status(addr: &str, id: u64) -> Result<StatusReply, ClientError> {
    let v = expect_200(addr, "GET", &format!("/campaign/{id}"), "")?;
    let result = match v.get("campaign") {
        Some(obj) => Some(ShardResult::from_obj(obj).map_err(ClientError::Protocol)?),
        None => None,
    };
    Ok(StatusReply {
        status: v
            .get_str("status")
            .ok_or_else(|| ClientError::Protocol("status reply missing `status`".to_string()))?
            .to_string(),
        error: v.get_str("error").map(str::to_string),
        result,
    })
}

/// Poll until a job is `done`, returning its result.
///
/// # Errors
///
/// Fails on I/O errors, or with [`ClientError::Protocol`] when the job
/// ends `failed` or `drained`.
pub fn wait(addr: &str, id: u64) -> Result<ShardResult, ClientError> {
    loop {
        let reply = status(addr, id)?;
        match reply.status.as_str() {
            "done" => {
                return reply
                    .result
                    .ok_or_else(|| ClientError::Protocol("done job carries no result".to_string()))
            }
            "failed" => {
                return Err(ClientError::Protocol(format!(
                    "campaign failed: {}",
                    reply.error.as_deref().unwrap_or("unknown reason")
                )))
            }
            "drained" => {
                return Err(ClientError::Protocol(
                    "campaign was drained before running".to_string(),
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Ask the service to merge completed shard jobs into one result.
///
/// # Errors
///
/// Fails on I/O errors, unknown/unfinished ids (400/404), or refused
/// fingerprint/geometry mismatches (409).
pub fn merge(addr: &str, ids: &[u64]) -> Result<ShardResult, ClientError> {
    let body = format!(
        "{{\"ids\":[{}]}}",
        ids.iter()
            .map(u64::to_string)
            .collect::<Vec<String>>()
            .join(",")
    );
    let v = expect_200(addr, "POST", "/merge", &body)?;
    ShardResult::from_obj(&v).map_err(ClientError::Protocol)
}

/// Submit a correlation sweep.
///
/// # Errors
///
/// Fails on I/O errors, a refused spec (400), or a draining/full
/// server (503).
pub fn correlate(addr: &str, spec: &CorrelationSpec) -> Result<SubmitReply, ClientError> {
    let v = expect_200(addr, "POST", "/correlate", &spec.to_json())?;
    Ok(SubmitReply {
        id: v
            .get_u64("id")
            .ok_or_else(|| ClientError::Protocol("correlate reply missing `id`".to_string()))?,
        cached: v.get_bool("cached").unwrap_or(false),
        status: v.get_str("status").unwrap_or("queued").to_string(),
    })
}

/// Poll until a correlation sweep is `done`, returning its fitted report.
///
/// # Errors
///
/// Fails on I/O errors, a failed or drained job, or a job that is not an
/// unsharded correlation sweep.
pub fn wait_report(addr: &str, id: u64) -> Result<CorrelationReport, ClientError> {
    loop {
        let v = expect_200(addr, "GET", &format!("/campaign/{id}"), "")?;
        match v.get_str("status").unwrap_or_default() {
            "done" => {
                let report = v.get("report").ok_or_else(|| {
                    ClientError::Protocol("done job carries no report".to_string())
                })?;
                return CorrelationReport::from_obj(report).map_err(ClientError::Protocol);
            }
            "failed" => {
                return Err(ClientError::Protocol(format!(
                    "correlation sweep failed: {}",
                    v.get_str("error").unwrap_or("unknown reason")
                )))
            }
            "drained" => {
                return Err(ClientError::Protocol(
                    "correlation sweep was drained before running".to_string(),
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Ask the service for a prediction from its cached fitted model. The
/// service never simulates to answer this.
///
/// # Errors
///
/// Fails on I/O errors, a malformed request (400), or a service with no
/// applicable model (404).
pub fn predict(addr: &str, request: &PredictRequest) -> Result<Prediction, ClientError> {
    let v = expect_200(addr, "POST", "/predict", &request.to_json())?;
    Prediction::from_obj(&v).map_err(ClientError::Protocol)
}

/// Check the service is alive; returns `true` when it is draining.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn healthz(addr: &str) -> Result<bool, ClientError> {
    let v = expect_200(addr, "GET", "/healthz", "")?;
    Ok(v.get_bool("draining").unwrap_or(false))
}

/// Fetch the raw `/stats` object.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn stats(addr: &str) -> Result<Json, ClientError> {
    expect_200(addr, "GET", "/stats", "")
}

/// Ask the service to shut down gracefully; returns how many queued
/// jobs it drained.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn shutdown(addr: &str) -> Result<u64, ClientError> {
    let v = expect_200(addr, "POST", "/shutdown", "")?;
    Ok(v.get_u64("drained").unwrap_or(0))
}

/// Issue one request and return the full [`Response`] (status, headers,
/// body) without interpreting the status — the way to read `Retry-After`
/// off a 503.
///
/// # Errors
///
/// Fails on connection or protocol-framing errors.
pub fn request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Response, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, method, path, body)?;
    Ok(read_response_full(&stream)?)
}

/// The reply to a fleet campaign submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSubmitReply {
    /// The fleet campaign id to poll.
    pub id: u64,
    /// `"queued"`, or terminal right away when every shard was already
    /// in the store.
    pub status: String,
    /// How many shards were served from the store at submission.
    pub cached: u64,
}

/// Submit a campaign to the coordinator, cut into `shards` shards.
///
/// # Errors
///
/// Fails on I/O errors, a refused spec (400), or a full/draining
/// coordinator (503 — see [`request_full`] for its `Retry-After`).
pub fn fleet_submit(
    addr: &str,
    spec: &CampaignSpec,
    shards: u32,
) -> Result<FleetSubmitReply, ClientError> {
    let json = spec.to_json();
    let body = format!("{},\"shards\":{shards}}}", &json[..json.len() - 1]);
    let v = expect_200(addr, "POST", "/fleet", &body)?;
    Ok(FleetSubmitReply {
        id: v
            .get_u64("id")
            .ok_or_else(|| ClientError::Protocol("fleet reply missing `id`".to_string()))?,
        status: v.get_str("status").unwrap_or("queued").to_string(),
        cached: v.get_u64("cached").unwrap_or(0),
    })
}

/// Poll one fleet campaign's progress.
///
/// # Errors
///
/// Fails on I/O errors or an unknown id (404).
pub fn fleet_status(addr: &str, id: u64) -> Result<FleetStatus, ClientError> {
    let v = expect_200(addr, "GET", &format!("/campaign/{id}"), "")?;
    FleetStatus::from_obj(&v).map_err(ClientError::Protocol)
}

/// Poll until a fleet campaign is terminal (`done` or `degraded`).
///
/// # Errors
///
/// Fails on I/O errors or an unknown id.
pub fn fleet_wait(addr: &str, id: u64) -> Result<FleetStatus, ClientError> {
    loop {
        let status = fleet_status(addr, id)?;
        if status.status != "running" && status.status != "queued" {
            return Ok(status);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Watch one fleet campaign over the chunked progress stream, invoking
/// `on_line` with each progress line as the coordinator emits it, until
/// the campaign is terminal. Returns the final status (the stream's last
/// line).
///
/// # Errors
///
/// Fails on I/O errors, an unknown id (404), or a malformed final line.
pub fn fleet_watch(
    addr: &str,
    id: u64,
    on_line: &mut dyn FnMut(&str),
) -> Result<FleetStatus, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, "GET", &format!("/campaign/{id}?watch"), "")?;
    let mut pending = String::new();
    let mut lines: Vec<String> = Vec::new();
    let response = read_response_streaming(&stream, &mut |chunk| {
        pending.push_str(chunk);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end().to_string();
            if !line.is_empty() {
                on_line(&line);
                lines.push(line);
            }
        }
    })?;
    if response.status != 200 {
        return Err(ClientError::Http {
            status: response.status,
            body: response.body,
        });
    }
    let last = lines
        .last()
        .ok_or_else(|| ClientError::Protocol("empty progress stream".to_string()))?;
    let v = Json::parse(last).map_err(ClientError::Protocol)?;
    FleetStatus::from_obj(&v).map_err(ClientError::Protocol)
}

/// Fetch one completed shard's stored result.
///
/// # Errors
///
/// Fails on I/O errors or a shard that is not complete (404).
pub fn fleet_shard(addr: &str, id: u64, shard: u32) -> Result<ShardResult, ClientError> {
    let v = expect_200(addr, "GET", &format!("/campaign/{id}/shard/{shard}"), "")?;
    ShardResult::from_obj(&v).map_err(ClientError::Protocol)
}

/// Register a runner with the coordinator.
///
/// # Errors
///
/// Fails on I/O errors or a refused registration.
pub fn fleet_register(addr: &str, name: &str, threads: usize) -> Result<Registered, ClientError> {
    let body = Register {
        name: name.to_string(),
        threads: threads as u64,
    }
    .to_json();
    let v = expect_200(addr, "POST", "/register", &body)?;
    Registered::from_obj(&v).map_err(ClientError::Protocol)
}

/// Ask the coordinator for a shard lease.
///
/// # Errors
///
/// Fails on I/O errors or an unknown runner id (400).
pub fn fleet_lease(addr: &str, runner_id: u64) -> Result<LeaseReply, ClientError> {
    let body = LeaseRequest { runner_id }.to_json();
    let v = expect_200(addr, "POST", "/lease", &body)?;
    LeaseReply::from_obj(&v).map_err(ClientError::Protocol)
}

/// Renew a lease. `ok:false` in the [`Ack`] means the lease is gone.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn fleet_heartbeat(addr: &str, runner_id: u64, lease_id: u64) -> Result<Ack, ClientError> {
    let body = Heartbeat {
        runner_id,
        lease_id,
    }
    .to_json();
    let v = expect_200(addr, "POST", "/heartbeat", &body)?;
    Ack::from_obj(&v).map_err(ClientError::Protocol)
}

/// Upload a completed shard under its lease.
///
/// # Errors
///
/// Fails on I/O errors or a rejected upload (400).
pub fn fleet_complete(addr: &str, complete: &Complete) -> Result<Ack, ClientError> {
    let v = expect_200(addr, "POST", "/complete", &complete.to_json())?;
    Ack::from_obj(&v).map_err(ClientError::Protocol)
}

/// Report a failed lease, optionally uploading the partial journal.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn fleet_fail(
    addr: &str,
    runner_id: u64,
    lease_id: u64,
    error: &str,
    journal: Option<&str>,
) -> Result<Ack, ClientError> {
    let body = Fail {
        runner_id,
        lease_id,
        error: error.to_string(),
        journal: journal.map(str::to_string),
    }
    .to_json();
    let v = expect_200(addr, "POST", "/fail", &body)?;
    Ack::from_obj(&v).map_err(ClientError::Protocol)
}
