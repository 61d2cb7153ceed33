//! The fleet runner: the process that actually simulates shards.
//!
//! A runner registers with the coordinator, then loops pulling shard
//! leases. Every shard runs **journaled** to a local write-ahead file;
//! on failure the partial journal is uploaded with the failure report,
//! so the shard's next lease holder resumes from the last
//! torn-line-recovered record instead of re-simulating from zero. A
//! dedicated heartbeat thread renews the active lease; when the
//! coordinator answers a heartbeat, completion or failure with
//! `ok:false`, the lease is gone (expired and re-queued) and the runner
//! discards its local state for it.
//!
//! The `chaos` knob arms a deterministic fault injector **around** the
//! engine (a per-lease schedule drawn from the seed): leases randomly
//! crash after a partial run (uploading a truncated journal), stall past
//! their TTL with heartbeats suppressed, or vanish without a report.
//! It exists so the chaos test can show that no schedule produces
//! *wrong* results — only retried or, at worst, poisoned shards.

use crate::client::{self, ClientError};
use crate::service::{isolate, run_shard};
use crate::spec::CampaignSpec;
use analysis::SplitMix64;
use fault_inject::wire::fleet::{Ack, Complete, LeaseGrant, LeaseReply, Registered};
use fault_inject::wire::ShardResult;
use fault_inject::{ExecOptions, JournalMode};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// The coordinator's address (`host:port`).
    pub coordinator: String,
    /// This runner's name, surfaced in the coordinator's `/stats`.
    pub name: String,
    /// Threads handed to each shard campaign.
    pub job_threads: usize,
    /// Directory for per-lease journal files (created if needed).
    pub workdir: PathBuf,
    /// Chaos seed: `Some(seed)` arms the deterministic fault injector.
    pub chaos: Option<u64>,
    /// Hold every lease this long (heartbeating, not simulating) before
    /// running it. A test knob: it opens a deterministic window in which
    /// to kill the runner mid-shard.
    pub hold_ms: u64,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            coordinator: crate::cli::DEFAULT_FLEET_ADDR.to_string(),
            name: "runner".to_string(),
            job_threads: 2,
            workdir: PathBuf::from("verifd-runner"),
            chaos: None,
            hold_ms: 0,
        }
    }
}

/// Cross-thread runner state.
struct Flags {
    /// Graceful stop: finish the current lease, then exit.
    stop: AtomicBool,
    /// Hard kill: stop heartbeating immediately and discard the current
    /// lease's result — the test stand-in for `kill -9`.
    killed: AtomicBool,
    /// The active lease id (0 = none), for the heartbeat thread.
    current_lease: AtomicU64,
    /// Chaos stall in progress: suppress heartbeats.
    suppress_heartbeat: AtomicBool,
    /// The work loop exited; the heartbeat thread may too.
    finished: AtomicBool,
}

/// A running fleet runner.
pub struct Runner {
    runner_id: u64,
    flags: Arc<Flags>,
    work: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl Runner {
    /// Register with the coordinator (retrying briefly while it comes
    /// up) and spawn the work + heartbeat threads.
    ///
    /// # Errors
    ///
    /// Fails if registration does not succeed or the work directory
    /// cannot be created.
    pub fn start(config: RunnerConfig) -> Result<Runner, ClientError> {
        std::fs::create_dir_all(&config.workdir).map_err(ClientError::Io)?;
        let registered = register_with_retry(&config)?;
        let flags = Arc::new(Flags {
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            current_lease: AtomicU64::new(0),
            suppress_heartbeat: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        });
        let work = {
            let config = config.clone();
            let flags = Arc::clone(&flags);
            std::thread::spawn(move || work_loop(&config, registered, &flags))
        };
        let heartbeat = {
            let flags = Arc::clone(&flags);
            std::thread::spawn(move || heartbeat_loop(&config, registered, &flags))
        };
        Ok(Runner {
            runner_id: registered.runner_id,
            flags,
            work: Some(work),
            heartbeat: Some(heartbeat),
        })
    }

    /// The coordinator-assigned runner id.
    pub fn runner_id(&self) -> u64 {
        self.runner_id
    }

    /// Graceful stop: finish the lease in flight (reporting its result),
    /// take no new ones, join the threads.
    ///
    /// # Panics
    ///
    /// Panics if a runner thread panicked (lease execution is
    /// panic-isolated, so none is expected to).
    pub fn stop(mut self) {
        self.flags.stop.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Hard kill: heartbeats cease immediately and the in-flight lease's
    /// result is discarded, exactly as if the process had died — the
    /// coordinator notices via lease expiry. (An OS thread cannot be
    /// destroyed mid-simulation, so the work thread is still joined; its
    /// result is thrown away at the kill check.)
    ///
    /// # Panics
    ///
    /// As [`Runner::stop`].
    pub fn kill(mut self) {
        self.flags.killed.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Block until the coordinator drains the fleet: the work loop exits
    /// on its own when a lease request comes back `NoWork` with the
    /// draining bit set. This is what the CLI runner mode does after
    /// startup.
    ///
    /// # Panics
    ///
    /// As [`Runner::stop`].
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(work) = self.work.take() {
            work.join().expect("runner work thread");
        }
        if let Some(heartbeat) = self.heartbeat.take() {
            heartbeat.join().expect("runner heartbeat thread");
        }
    }
}

fn register_with_retry(config: &RunnerConfig) -> Result<Registered, ClientError> {
    let mut last = None;
    for _ in 0..40 {
        match client::fleet_register(&config.coordinator, &config.name, config.job_threads) {
            Ok(registered) => return Ok(registered),
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(last.expect("at least one attempt"))
}

/// Sleep in small slices so stop/kill are honoured promptly. Returns
/// `false` when interrupted by a kill.
fn interruptible_sleep(flags: &Flags, ms: u64) -> bool {
    let mut remaining = ms;
    while remaining > 0 {
        if flags.killed.load(Ordering::SeqCst) {
            return false;
        }
        let slice = remaining.min(10);
        std::thread::sleep(Duration::from_millis(slice));
        remaining -= slice;
    }
    !flags.killed.load(Ordering::SeqCst)
}

/// The heartbeat interval for one beat: the coordinator-assigned cadence
/// with a deterministic per-runner, per-beat jitter of up to ±25%. A
/// fleet of runners registered in the same instant would otherwise beat
/// in lockstep and hammer the coordinator with synchronized bursts; the
/// jitter is drawn from `(runner_id, beat)` so a run replays exactly.
fn jittered_heartbeat_ms(heartbeat_ms: u64, runner_id: u64, beat: u64) -> u64 {
    let base = heartbeat_ms.max(1);
    let quarter = base / 4;
    if quarter == 0 {
        return base;
    }
    let mut rng = SplitMix64::new(runner_id ^ beat.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let offset = rng.next_u64() % (2 * quarter + 1);
    // base - quarter ..= base + quarter, never below 1.
    (base - quarter + offset).max(1)
}

fn heartbeat_loop(config: &RunnerConfig, registered: Registered, flags: &Flags) {
    let mut beat = 0u64;
    loop {
        if flags.killed.load(Ordering::SeqCst) || flags.finished.load(Ordering::SeqCst) {
            return;
        }
        let lease = flags.current_lease.load(Ordering::SeqCst);
        if lease != 0 && !flags.suppress_heartbeat.load(Ordering::SeqCst) {
            let _ = client::fleet_heartbeat(&config.coordinator, registered.runner_id, lease);
        }
        // Slices keep kill latency well under the heartbeat interval.
        let interval = jittered_heartbeat_ms(registered.heartbeat_ms, registered.runner_id, beat);
        beat = beat.wrapping_add(1);
        let _ = interruptible_sleep(flags, interval);
    }
}

/// Consecutive failed lease requests a runner tolerates before deciding
/// its coordinator is gone for good and exiting (mirrors the
/// registration retry budget). Each miss sleeps one heartbeat interval,
/// so the tolerated outage scales with the fleet's heartbeat cadence.
const COORDINATOR_LOSS_BUDGET: u32 = 40;

fn work_loop(config: &RunnerConfig, registered: Registered, flags: &Flags) {
    let mut missed = 0u32;
    loop {
        if flags.killed.load(Ordering::SeqCst) || flags.stop.load(Ordering::SeqCst) {
            break;
        }
        match client::fleet_lease(&config.coordinator, registered.runner_id) {
            Ok(LeaseReply::Grant(grant)) => {
                missed = 0;
                run_lease(config, registered, flags, grant);
            }
            Ok(LeaseReply::NoWork { retry_ms, draining }) => {
                missed = 0;
                if draining {
                    break;
                }
                if !interruptible_sleep(flags, retry_ms.clamp(10, 1_000)) {
                    break;
                }
            }
            // The coordinator is unreachable (shut down, or between
            // restarts): back off and retry, but give up — rather than
            // spin forever — once the loss budget is spent.
            Err(_) => {
                missed += 1;
                if missed >= COORDINATOR_LOSS_BUDGET {
                    break;
                }
                if !interruptible_sleep(flags, registered.heartbeat_ms.clamp(10, 1_000)) {
                    break;
                }
            }
        }
    }
    flags.finished.store(true, Ordering::SeqCst);
}

/// What the chaos injector decided for one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosPlan {
    /// Run the shard honestly.
    Normal,
    /// Run, then pretend the process died mid-shard: truncate the
    /// journal at this fraction (per mille) and report failure with it.
    Crash(u64),
    /// Suppress heartbeats and stall past the lease TTL, then report
    /// anyway (the coordinator must reject the late upload).
    Stall,
    /// Abandon the lease without any report (pure expiry path).
    Vanish,
}

/// The per-lease chaos schedule: deterministic in `(seed, lease_id)`, so
/// a failing schedule replays exactly.
fn chaos_plan(seed: u64, lease_id: u64) -> ChaosPlan {
    let mut rng = SplitMix64::new(seed ^ lease_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match rng.next_u64() % 8 {
        0..=3 => ChaosPlan::Normal,
        4 | 5 => ChaosPlan::Crash(rng.next_u64() % 1000),
        6 => ChaosPlan::Stall,
        _ => ChaosPlan::Vanish,
    }
}

fn run_lease(config: &RunnerConfig, registered: Registered, flags: &Flags, grant: LeaseGrant) {
    let plan = match config.chaos {
        Some(seed) => chaos_plan(seed, grant.lease_id),
        None => ChaosPlan::Normal,
    };
    flags.current_lease.store(grant.lease_id, Ordering::SeqCst);
    let journal_path = config
        .workdir
        .join(format!("lease-{}.journal", grant.lease_id));
    let cleanup = |flags: &Flags| {
        flags.current_lease.store(0, Ordering::SeqCst);
        flags.suppress_heartbeat.store(false, Ordering::SeqCst);
        let _ = std::fs::remove_file(&journal_path);
    };
    // The hold window (heartbeating, not simulating) lets tests kill a
    // runner that provably holds a lease.
    if config.hold_ms > 0 && !interruptible_sleep(flags, config.hold_ms) {
        return cleanup(flags);
    }
    if plan == ChaosPlan::Vanish {
        // Die silently: no report, no more heartbeats for this lease.
        flags.current_lease.store(0, Ordering::SeqCst);
        let _ = std::fs::remove_file(&journal_path);
        return;
    }
    let outcome = execute_shard(config, &grant, &journal_path);
    if flags.killed.load(Ordering::SeqCst) {
        // Killed mid-lease: the result (if any) dies with us.
        return cleanup(flags);
    }
    match (plan, outcome) {
        (ChaosPlan::Crash(per_mille), Ok(_)) => {
            // The shard ran, but the "process" dies before reporting:
            // upload a mid-line-truncated journal with the failure, the
            // exact shape a real kill leaves on disk.
            let journal = std::fs::read_to_string(&journal_path)
                .ok()
                .map(|text| truncate_journal(&text, per_mille));
            let _ = client::fleet_fail(
                &config.coordinator,
                registered.runner_id,
                grant.lease_id,
                "chaos: crashed mid-shard",
                journal.as_deref(),
            );
        }
        (ChaosPlan::Stall, Ok(shard)) => {
            // Outlive the lease with heartbeats suppressed, then try to
            // complete anyway: the coordinator must call it stale.
            flags.suppress_heartbeat.store(true, Ordering::SeqCst);
            let past_ttl = registered.lease_ms + 2 * registered.heartbeat_ms.max(1);
            if interruptible_sleep(flags, past_ttl) {
                let _ = report_complete(config, registered, flags, &grant, shard);
            }
        }
        (_, Ok(shard)) => {
            let _ = report_complete(config, registered, flags, &grant, shard);
        }
        (_, Err(error)) => {
            // A real failure (engine error or panic): report it with
            // whatever journal survived, so the next holder resumes.
            let journal = std::fs::read_to_string(&journal_path).ok();
            let _ = client::fleet_fail(
                &config.coordinator,
                registered.runner_id,
                grant.lease_id,
                &error,
                journal.as_deref(),
            );
        }
    }
    cleanup(flags);
}

fn report_complete(
    config: &RunnerConfig,
    registered: Registered,
    flags: &Flags,
    grant: &LeaseGrant,
    shard: ShardResult,
) -> Result<Ack, ClientError> {
    if flags.killed.load(Ordering::SeqCst) {
        return Ok(Ack {
            ok: false,
            draining: false,
        });
    }
    client::fleet_complete(
        &config.coordinator,
        &Complete {
            runner_id: registered.runner_id,
            lease_id: grant.lease_id,
            shard,
        },
    )
}

/// Run one leased shard journaled, resuming from an uploaded partial
/// journal when the grant carries one. Panics come back as errors — a
/// panicking workload must fail the lease, not the runner.
fn execute_shard(
    config: &RunnerConfig,
    grant: &LeaseGrant,
    journal_path: &Path,
) -> Result<ShardResult, String> {
    let spec = CampaignSpec::from_obj(&grant.spec)?;
    let _ = std::fs::remove_file(journal_path);
    isolate("shard", || {
        let journaled = |journal| {
            run_shard(
                &spec,
                config.job_threads,
                &ExecOptions {
                    journal,
                    ..ExecOptions::default()
                },
            )
        };
        let Some(prior) = &grant.journal else {
            return journaled(JournalMode::Create(journal_path));
        };
        std::fs::write(journal_path, prior).map_err(|e| e.to_string())?;
        // An unusable journal (wrong campaign, corrupt past recovery)
        // must not poison the shard: start fresh.
        journaled(JournalMode::Resume(journal_path)).or_else(|_| {
            let _ = std::fs::remove_file(journal_path);
            journaled(JournalMode::Create(journal_path))
        })
    })
}

/// Cut a journal the way a kill does: keep the header line, drop a tail,
/// and usually land mid-line. `per_mille` picks how much of the
/// post-header text survives.
fn truncate_journal(text: &str, per_mille: u64) -> String {
    let header_end = text.find('\n').map_or(text.len(), |i| i + 1);
    let tail = &text[header_end..];
    let keep = (tail.len() as u64 * per_mille / 1000) as usize;
    // Respect UTF-8 boundaries (journal text is ASCII today, but don't
    // bake that in).
    let mut keep = keep.min(tail.len());
    while keep > 0 && !tail.is_char_boundary(keep) {
        keep -= 1;
    }
    format!("{}{}", &text[..header_end], &tail[..keep])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plans_are_deterministic_and_varied() {
        let mut kinds = [0u32; 4];
        for lease in 1..=64 {
            let plan = chaos_plan(42, lease);
            assert_eq!(plan, chaos_plan(42, lease), "same (seed, lease) replays");
            match plan {
                ChaosPlan::Normal => kinds[0] += 1,
                ChaosPlan::Crash(_) => kinds[1] += 1,
                ChaosPlan::Stall => kinds[2] += 1,
                ChaosPlan::Vanish => kinds[3] += 1,
            }
        }
        assert!(
            kinds.iter().all(|&n| n > 0),
            "all behaviors drawn: {kinds:?}"
        );
    }

    #[test]
    fn heartbeat_jitter_is_bounded_deterministic_and_desynchronized() {
        // Bounds: every beat lands within ±25% of the cadence.
        for beat in 0..256 {
            let ms = jittered_heartbeat_ms(100, 7, beat);
            assert!((75..=125).contains(&ms), "beat {beat} drew {ms}ms");
            assert_eq!(
                ms,
                jittered_heartbeat_ms(100, 7, beat),
                "same (runner, beat) replays"
            );
        }
        // Desynchronization: two runners on the same cadence do not share
        // a schedule, and one runner varies across beats.
        let a: Vec<u64> = (0..32).map(|b| jittered_heartbeat_ms(100, 1, b)).collect();
        let b: Vec<u64> = (0..32).map(|b| jittered_heartbeat_ms(100, 2, b)).collect();
        assert_ne!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
        // Degenerate cadences stay sane: never a zero sleep.
        assert_eq!(jittered_heartbeat_ms(0, 1, 0), 1);
        for cadence in 1..8 {
            for beat in 0..16 {
                assert!(jittered_heartbeat_ms(cadence, 3, beat) >= 1);
            }
        }
    }

    #[test]
    fn truncation_keeps_the_header_and_cuts_the_tail() {
        let text = "header\nentry-one\nentry-two\nentry-three\n";
        assert_eq!(truncate_journal(text, 0), "header\n");
        assert_eq!(truncate_journal(text, 1000), text);
        let half = truncate_journal(text, 500);
        assert!(half.starts_with("header\n"));
        assert!(half.len() < text.len());
    }
}
