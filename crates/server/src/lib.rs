//! `verifd` — the campaign service.
//!
//! Every capability of the workspace so far runs as a one-shot CLI
//! process: each invocation re-derives the golden run and re-simulates
//! campaigns other callers already paid for. `verifd` turns the campaign
//! engine into a resident service with one server core ([`service`]):
//!
//! * a **request layer** ([`http`]) — hand-rolled HTTP/1.1 over
//!   `std::net::TcpListener`, speaking the journal's hand-rolled JSON
//!   dialect ([`fault_inject::wire`]); no registry dependencies. One
//!   accept loop serves every route, adds `Retry-After` to every `503`,
//!   and bounds what a stalled or hostile client can hold;
//! * a **scheduler** — a bounded FIFO queue feeding a fixed worker pool,
//!   each worker running `Campaign::execute` with the engine's own panic
//!   isolation, plus graceful shutdown that journals the queued work to
//!   a drain file first, finishes in-flight jobs, and re-enqueues the
//!   file on the next startup;
//! * a **result cache** — keyed by [`fault_inject::Campaign::fingerprint`]
//!   (plus shard coordinates and the deadline, which the fingerprint
//!   deliberately excludes), so a repeated spec returns the bit-identical
//!   [`fault_inject::CampaignResult`] without simulating a cycle;
//! * **sharding** — a [`spec::CampaignSpec`] may carry `shard i/n`,
//!   partitioning the job list deterministically across processes, and
//!   the `/merge` endpoint recombines shard results bit-for-bit via
//!   [`fault_inject::merge_shards`].
//!
//! A server started with [`Server::start_fleet`] also runs the **fleet**
//! — horizontal scale with the same bit-identical guarantees, sharing
//! the server's id space, queue bound, `/stats` and drain file:
//!
//! * the **fleet routes** ([`fleet`]) — `POST /fleet` cuts one spec into
//!   `n` shards, leased to registered runners under wall-clock TTLs;
//!   expired or failed leases re-queue with capped exponential backoff, a
//!   shard is poisoned after `max_attempts` leases (the campaign then
//!   completes **degraded**, naming its missing shards), and
//!   `GET /campaign/{id}?watch` streams chunked progress;
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
//!   shards fleet-wide and surviving restarts.
//!
//! The `repro` CLI's `serve`, `submit`, `merge` and `fleet` verbs are
//! built on [`client`] and parse the roles' flags with [`cli`], as the
//! `verifd` binary's plain, `coordinator` and `runner` modes do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod fleet;
pub mod http;
pub mod lease;
pub mod runner;
pub mod service;
pub mod spec;
pub mod store;

pub use client::{ClientError, StatusReply, SubmitReply};
pub use fleet::{FleetConfig, FleetStatus};
pub use lease::{LeaseCounters, LeasePolicy, LeaseSnapshot, LeaseTable, ShardKey};
pub use runner::{Runner, RunnerConfig};
pub use service::{Server, ServerConfig};
pub use spec::CampaignSpec;
pub use store::ResultStore;
