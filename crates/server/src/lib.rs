//! `verifd` — the campaign service.
//!
//! Every capability of the workspace so far runs as a one-shot CLI
//! process: each invocation re-derives the golden run and re-simulates
//! campaigns other callers already paid for. `verifd` turns the campaign
//! engine into a resident service:
//!
//! * a **request layer** ([`http`]) — hand-rolled HTTP/1.1 over
//!   `std::net::TcpListener`, speaking the journal's hand-rolled JSON
//!   dialect ([`fault_inject::wire`]); no registry dependencies;
//! * a **scheduler** ([`service`]) — a bounded FIFO queue feeding a fixed
//!   worker pool, each worker running `Campaign::execute` with the
//!   engine's own panic isolation, plus graceful shutdown that finishes
//!   in-flight jobs and journals the queued rest to a drain file;
//! * a **result cache** — keyed by [`fault_inject::Campaign::fingerprint`]
//!   (plus shard coordinates and the deadline, which the fingerprint
//!   deliberately excludes), so a repeated spec returns the bit-identical
//!   [`fault_inject::CampaignResult`] without simulating a cycle;
//! * **sharding** — a [`spec::CampaignSpec`] may carry `shard i/n`,
//!   partitioning the job list deterministically across processes, and
//!   the `/merge` endpoint recombines shard results bit-for-bit via
//!   [`fault_inject::merge_shards`].
//!
//! On top of the single-process service sits the **fleet** — horizontal
//! scale with the same bit-identical guarantees:
//!
//! * a **coordinator** ([`coordinator`]) — accepts fleet submissions
//!   (`POST /fleet` cuts one spec into `n` shards), leases shards to
//!   registered runners under wall-clock TTLs, re-queues expired or
//!   failed leases with capped exponential backoff, poisons a shard
//!   after `max_attempts` leases (the campaign then completes
//!   **degraded**, naming its missing shards), answers `503` +
//!   `Retry-After` when the queue is full, streams chunked progress on
//!   `GET /campaign/{id}?watch`, and drains incomplete campaigns to a
//!   file on shutdown that the next startup re-enqueues;
//! * a pure **lease table** ([`lease`]) — the queued → leased →
//!   retrying → done | poisoned state machine, driven by an injected
//!   clock so every transition is unit-testable without I/O;
//! * a **runner** ([`runner`]) — registers, leases, heartbeats, and
//!   executes shards with a local write-ahead journal; on failure it
//!   uploads the partial journal so the shard's next lease resumes
//!   instead of re-simulating, and a `--chaos` seed arms a
//!   deterministic lease-fault injector (crash/stall/vanish) for tests;
//! * a persistent **shard store** ([`store`]) — one file per
//!   `fingerprint + shard geometry + deadline`, deduplicating completed
//!   shards fleet-wide and surviving coordinator restarts.
//!
//! The `repro` CLI gains `serve`, `submit`, `merge` and `fleet` verbs
//! built on [`client`]; the `verifd` binary grows `coordinator` and
//! `runner` modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod http;
pub mod lease;
pub mod runner;
pub mod service;
pub mod spec;
pub mod store;

pub use client::{ClientError, StatusReply, SubmitReply};
pub use coordinator::{Coordinator, CoordinatorConfig, FleetStatus};
pub use lease::{LeaseCounters, LeasePolicy, LeaseSnapshot, LeaseTable, ShardKey};
pub use runner::{Runner, RunnerConfig};
pub use service::{Server, ServerConfig};
pub use spec::CampaignSpec;
pub use store::ResultStore;
