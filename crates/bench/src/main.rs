//! `repro`: regenerate every table and figure of the paper.
//!
//! ```text
//! repro [table1|fig3|fig4|fig5|fig6|fig7|temporal|simtime|all]
//! repro inject [--kind stuck0|stuck1|open|transient|intermittent|burst]
//!              [--level 0|1] [--period N] [--duty N] [--phase N]
//!              [--flips N] [--spacing N] [--targets branch,psr,pc]
//! repro campaign [iu|cmem] [--journal PATH] [--resume PATH] [--deadline-ms N]
//!                [--lockstep-window N] [--parity] [--watchdog-cycles N]
//!                [--threads N]
//! repro serve  [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!              [--job-threads N] [--drain PATH] [--help]
//! repro submit [iu|cmem|whole] [--addr HOST:PORT] [--benchmark NAME]
//!              [--sample N --seed N] [--injection-fraction F] [--shard I/N]
//!              [--deadline-ms N] [--lockstep-window N] [--parity]
//!              [--watchdog-cycles N] [--detach] [--json]
//! repro merge  [--addr HOST:PORT] [--json] ID ID...
//! repro fleet  coordinate|run|submit|status [--help] [verb flags...]
//! repro correlate [--addr HOST:PORT] [--benchmarks a,b,..] [--targets iu,cmem]
//!                 [--kinds KIND,..] [--datasets all|first|0,2] [--no-excerpts]
//!                 [--sample N --seed N] [--injection-fraction F] [--shard I/N]
//!                 [--threads N] [--detach] [--json]
//! repro predict (--benchmark LABEL | --iss NAME | --histogram op=N,..)
//!               [--addr HOST:PORT] [--target iu|cmem|whole] [--kind KIND]
//!               [--fingerprint FP] [--json]
//! repro benchgate [--baseline PATH] [--perturb F] [--write]
//! repro netcheck [--deny dead-nets,graph-mismatch] [--threads N]
//! ```
//!
//! Sizing via `REPRO_SAMPLE`, `REPRO_SEED`, `REPRO_THREADS` environment
//! variables (see [`bench::config_from_env`]); `--threads` beats
//! `REPRO_THREADS` where both are given.
//!
//! `inject` sweeps one fault model across a dense grid of injection
//! instants on `rspeed` against the permanent stuck-at-1 reference.
//! `--kind` picks the model; the time-varying ones take parameters:
//! `intermittent` (a duty-cycled stuck-at) takes `--level` (forced
//! value), `--period`/`--duty`/`--phase` (cycles asserted `duty` out of
//! every `period`, offset by `phase`), `burst` (a train of transient
//! flips) takes `--flips`/`--spacing`. `--targets` restricts injection
//! to attack-surface nets — `branch` (branch condition), `psr` (status
//! register), `pc` (program counter) — the InjectV-style targeted
//! campaign. `repro transient` is the historical alias for
//! `repro inject --kind transient`.
//!
//! `campaign` runs one standalone crash-safe campaign on `rspeed`:
//! `--journal` write-ahead-journals every completed job to PATH,
//! `--resume` picks a killed campaign back up from its journal, and
//! `--deadline-ms` arms the per-job wall-clock watchdog. Configuration
//! and journal errors are reported on stderr with a nonzero exit code
//! instead of a panic backtrace. Its stderr summary counts the cycles the
//! campaign billed (`cycles_simulated`, each job as if it ran alone) and
//! the cycles the host stepped for them ([`fault_inject::host_cycles`]),
//! which the golden-shadow sweep, closed hang loops and re-joined jobs
//! keep below the bill.
//!
//! `benchgate` is the CI bench-regression gate and the repository's one
//! bench harness (see [`bench::gate`]): it runs every gate case on both
//! engines on one thread and compares each case's fork/full ratios of
//! billed and of host-stepped cycles, and a correlation sweep's fitted
//! R², against `BENCH_gate.json`, failing (exit 1) on any ratio beyond
//! [`bench::gate::TOLERANCE`] or any R² below [`bench::gate::R2_FLOOR`].
//! `--write` rewrites the baseline from the measurements instead.
//!
//! `serve` runs verifd's one server in this process; `fleet` drives its
//! fault-tolerant distributed half: `coordinate` starts the server with
//! a fleet (lease table + shard store) and no local workers, `run`
//! starts a runner working for one (`--chaos SEED` arms its
//! deterministic fault injector), `submit` cuts a campaign into shards
//! and hands it to the fleet, and `status` polls or `--watch`-streams a
//! fleet campaign. `serve`, `coordinate` and `run` parse their flags
//! with `verifd::cli`, exactly as the `verifd` binary does; a bad flag
//! exits 2. `repro fleet --help` prints the verb reference and `repro
//! serve --help` the serve flags, and both exit 0.
//!
//! `correlate` runs the paper's Fig. 7 experiment as one command: the
//! benchmarks × datasets × domains sweep, fitted to `Pf = a·ln(D) + b`
//! per injection domain. Local by default; `--addr` submits to a
//! running `verifd` service, which also caches the fitted model.
//! `predict` then asks that service for a failure probability with
//! **zero** simulated RTL cycles — by calibration-point label, from an
//! explicit opcode histogram, or (`--iss NAME`) from a fresh local ISS
//! run, the paper's full ISS-in/Pf-out workflow.
//!
//! `netcheck` is the static model lint gate: it audits the declared net
//! graph (dead/unobservable nets, stuck-at equivalence classes,
//! transient-safe latches), cross-checks it against the conformance
//! mix's observed access order, and bounds a small measured campaign's
//! per-unit diagnostic coverage by the statically predicted
//! observability. `--deny` makes named findings exit nonzero for CI.
//!
//! The safety-mechanism flags model the chip's own detectors:
//! `--lockstep-window N` checks the write stream every N writes instead of
//! continuously, `--parity` arms CMEM parity, and `--watchdog-cycles N`
//! arms a simulated hardware watchdog. With any of them set, the campaign
//! prints an ISO 26262 diagnostic-coverage report after the per-model
//! summaries.

#![forbid(unsafe_code)]

use bench::config_from_env;
use correlation::experiments::{
    fig3, fig4, fig5, fig6, fig7, simtime, table1, ExperimentConfig, TemporalStudy,
};
use correlation::extensions::{
    bridging_study, eq1_ablation, inject_study, iss_baseline, latent_study,
};
use fault_inject::wire::{kind_from_token, kind_to_token, target_from_token, target_to_token};
use fault_inject::{
    host_cycles, Campaign, CorrelationReport, CorrelationSpec, DatasetSelection, ExecOptions,
    InjectionInstant, JournalMode, PredictRequest, SafetyConfig, StaticAnalysis, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_iss::{Iss, IssConfig, RunOutcome};
use std::path::PathBuf;
use std::time::Duration;
use verifd::cli::{self, DEFAULT_ADDR, DEFAULT_FLEET_ADDR};
use verifd::{client, CampaignSpec, Runner, Server};
use workloads::{Benchmark, Params};

/// Run the standalone crash-safe campaign subcommand. Never panics on
/// user mistakes: bad flags exit 2, campaign/journal errors exit 1.
fn run_campaign(config: &ExperimentConfig, args: &[String]) {
    let mut target = Target::IntegerUnit;
    let mut journal: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut safety = SafetyConfig::default();
    let mut threads = config.threads;
    let usage = "usage: repro campaign [iu|cmem] [--journal PATH] [--resume PATH] \
                 [--deadline-ms N] [--lockstep-window N] [--parity] [--watchdog-cycles N] \
                 [--threads N]";
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{usage}");
                std::process::exit(2);
            })
        };
        let parse_u64 = |flag: &str, raw: String| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("`{flag}` needs an integer, got `{raw}`\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "iu" => target = Target::IntegerUnit,
            "cmem" => target = Target::CacheMemory,
            "--journal" => journal = Some(PathBuf::from(value("--journal"))),
            "--resume" => resume = Some(PathBuf::from(value("--resume"))),
            "--deadline-ms" => {
                let raw = value("--deadline-ms");
                deadline_ms = Some(parse_u64("--deadline-ms", raw));
            }
            "--lockstep-window" => {
                let raw = value("--lockstep-window");
                safety.lockstep_window = Some(parse_u64("--lockstep-window", raw));
            }
            "--parity" => safety.parity = true,
            "--watchdog-cycles" => {
                let raw = value("--watchdog-cycles");
                safety.watchdog_cycles = Some(parse_u64("--watchdog-cycles", raw));
            }
            "--threads" => {
                let raw = value("--threads");
                let n = parse_u64("--threads", raw);
                if n == 0 {
                    eprintln!("`--threads` must be at least 1\n{usage}");
                    std::process::exit(2);
                }
                threads = n as usize;
            }
            other => {
                eprintln!("unknown campaign argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let safety_armed = safety.any_enabled();
    let program = Benchmark::Rspeed.program(&Params::default());
    let mut campaign = Campaign::new(program, target)
        .with_sample(config.sample_per_campaign, config.seed)
        .with_injection_fraction(0.05)
        .with_safety(safety);
    if let Some(ms) = deadline_ms {
        campaign = campaign.with_deadline(Duration::from_millis(ms));
    }
    let journal = match (&resume, &journal) {
        (Some(path), _) => {
            eprintln!("[repro] resuming campaign from {}", path.display());
            JournalMode::Resume(path)
        }
        (None, Some(path)) => {
            eprintln!("[repro] journaling campaign to {}", path.display());
            JournalMode::Create(path)
        }
        (None, None) => JournalMode::None,
    };
    let options = ExecOptions {
        journal,
        ..ExecOptions::default()
    };
    let before = host_cycles();
    let outcome = campaign
        .execute(threads, &options)
        .map(|mut results| results.remove(0));
    let stepped = host_cycles() - before;
    match outcome {
        Ok(result) => {
            let stats = result.stats();
            eprintln!(
                "[repro] {} jobs ({} resumed, {} retried, {} anomalies, {} timed out; \
                 {} cycles billed, {} stepped)",
                stats.jobs,
                stats.resumed,
                stats.retried,
                stats.anomalies,
                stats.timed_out,
                stats.cycles_simulated,
                stepped
            );
            print!("{result}");
            if safety_armed {
                print!("{}", result.coverage_report());
            }
        }
        Err(e) => {
            eprintln!("[repro] campaign failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro inject`: the generalized injection-instant sweep — any fault
/// model (including the time-varying ones) against the stuck-at-1
/// reference, optionally restricted to attack-surface nets.
fn run_inject(config: &ExperimentConfig, args: &[String]) {
    let usage = "usage: repro inject [--kind stuck0|stuck1|open|transient|intermittent|burst] \
                 [--level 0|1] [--period N] [--duty N] [--phase N] [--flips N] [--spacing N] \
                 [--targets branch,psr,pc]";
    let mut kind_token = "transient".to_string();
    // Time-varying parameter defaults: an intermittent asserted 1/4 of
    // the time on a period well under the rspeed run length, and a
    // three-flip burst — both visible at every sweep instant.
    let mut level = true;
    let mut period = 1_000u64;
    let mut duty = 250u64;
    let mut phase = 0u64;
    let mut flips = 3u32;
    let mut spacing = 200u64;
    let mut targets: Vec<fault_inject::AttackTarget> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{usage}");
                std::process::exit(2);
            })
        };
        let parse_u64 = |flag: &str, raw: String| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("`{flag}` needs an integer, got `{raw}`\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--kind" => kind_token = value("--kind"),
            "--level" => {
                level = match value("--level").as_str() {
                    "0" => false,
                    "1" => true,
                    raw => {
                        eprintln!("`--level` is 0 or 1, got `{raw}`\n{usage}");
                        std::process::exit(2);
                    }
                }
            }
            "--period" => period = parse_u64("--period", value("--period")),
            "--duty" => duty = parse_u64("--duty", value("--duty")),
            "--phase" => phase = parse_u64("--phase", value("--phase")),
            "--flips" => {
                let raw = parse_u64("--flips", value("--flips"));
                flips = u32::try_from(raw).unwrap_or_else(|_| {
                    eprintln!("`--flips` is out of range\n{usage}");
                    std::process::exit(2);
                });
            }
            "--spacing" => spacing = parse_u64("--spacing", value("--spacing")),
            "--targets" => match fault_inject::AttackTarget::parse_list(&value("--targets")) {
                Ok(list) => targets = list,
                Err(e) => {
                    eprintln!("{e}\n{usage}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown inject argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let kind = match kind_token.as_str() {
        "stuck0" => FaultKind::StuckAt0,
        "stuck1" => FaultKind::StuckAt1,
        "open" => FaultKind::OpenLine,
        "transient" => FaultKind::TransientFlip,
        "intermittent" => FaultKind::IntermittentStuck {
            level,
            period,
            duty,
            phase,
        },
        "burst" => FaultKind::TransientBurst { flips, spacing },
        other => {
            eprintln!("unknown fault kind `{other}`\n{usage}");
            std::process::exit(2);
        }
    };
    if let Err(reason) = kind.validate() {
        eprintln!("invalid fault-kind parameters: {reason}\n{usage}");
        std::process::exit(2);
    }
    print!("{}", inject_study(config, kind, &targets));
}

/// `repro serve`: run a campaign service in this process until a
/// `POST /shutdown` stops it.
fn run_serve(args: &[String]) {
    let usage = "usage: repro serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
                 [--job-threads N] [--drain PATH]";
    let config = parsed_or_exit(cli::server_args(args), usage);
    match Server::start(config) {
        Ok(server) => {
            eprintln!("[repro] verifd listening on {}", server.addr());
            server.join();
        }
        Err(e) => {
            eprintln!("[repro] cannot start service: {e}");
            std::process::exit(1);
        }
    }
}

/// Unwrap the flags of a verifd role: `--help` prints `usage` and exits
/// 0, a bad flag exits 2.
fn parsed_or_exit<T>(parsed: Result<Option<T>, String>, usage: &str) -> T {
    match parsed {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// `repro submit`: send one campaign spec to a running service and
/// (unless detached) wait for its result.
fn run_submit(config: &ExperimentConfig, args: &[String]) {
    let usage = "usage: repro submit [iu|cmem|whole] [--addr HOST:PORT] [--benchmark NAME] \
                 [--sample N --seed N] [--exhaustive] [--injection-cycle N] \
                 [--injection-fraction F] [--shard I/N] [--deadline-ms N] \
                 [--lockstep-window N] [--parity] [--watchdog-cycles N] [--detach] [--json]";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    // Mirror `repro campaign` sizing: sampled sites and the 5% injection
    // instant, both overridable below.
    spec.sample = Some((config.sample_per_campaign, config.seed));
    spec.injection = InjectionInstant::Fraction(0.05);
    let mut detach = false;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "iu" => spec.target = Target::IntegerUnit,
            "cmem" => spec.target = Target::CacheMemory,
            "whole" => spec.target = Target::Whole,
            "--addr" => addr = value("--addr"),
            "--benchmark" => {
                let name = value("--benchmark");
                spec.benchmark = Benchmark::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown benchmark `{name}`\n{usage}");
                    std::process::exit(2);
                });
            }
            "--sample" => {
                let n = parse_usize("--sample", value("--sample"), usage);
                let seed = spec.sample.map_or(config.seed, |(_, s)| s);
                spec.sample = Some((n, seed));
            }
            "--seed" => {
                let seed = parse_usize("--seed", value("--seed"), usage) as u64;
                let n = spec.sample.map_or(config.sample_per_campaign, |(n, _)| n);
                spec.sample = Some((n, seed));
            }
            "--exhaustive" => spec.sample = None,
            "--injection-cycle" => {
                spec.injection = InjectionInstant::Cycle(parse_usize(
                    "--injection-cycle",
                    value("--injection-cycle"),
                    usage,
                ) as u64);
            }
            "--injection-fraction" => {
                let raw = value("--injection-fraction");
                let f: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("`--injection-fraction` needs a number, got `{raw}`\n{usage}");
                    std::process::exit(2);
                });
                spec.injection = InjectionInstant::Fraction(f);
            }
            "--shard" => {
                let raw = value("--shard");
                let parsed = raw
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)));
                match parsed {
                    Some((i, n)) if n > 0 && i < n => spec.shard = Some((i, n)),
                    _ => {
                        eprintln!("`--shard` wants I/N with I < N, got `{raw}`\n{usage}");
                        std::process::exit(2);
                    }
                }
            }
            "--deadline-ms" => {
                spec.deadline_ms =
                    Some(parse_usize("--deadline-ms", value("--deadline-ms"), usage) as u64);
            }
            "--lockstep-window" => {
                spec.safety.lockstep_window =
                    Some(
                        parse_usize("--lockstep-window", value("--lockstep-window"), usage) as u64,
                    );
            }
            "--parity" => spec.safety.parity = true,
            "--watchdog-cycles" => {
                spec.safety.watchdog_cycles =
                    Some(
                        parse_usize("--watchdog-cycles", value("--watchdog-cycles"), usage) as u64,
                    );
            }
            "--detach" => detach = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown submit argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let reply = client::submit(&addr, &spec).unwrap_or_else(|e| {
        eprintln!("[repro] submit failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] campaign {} {} (fingerprint {})",
        reply.id,
        if reply.cached {
            "cached"
        } else {
            &reply.status
        },
        spec.fingerprint()
    );
    if detach {
        println!("{}", reply.id);
        return;
    }
    let shard = client::wait(&addr, reply.id).unwrap_or_else(|e| {
        eprintln!("[repro] campaign {} failed: {e}", reply.id);
        std::process::exit(1);
    });
    if json {
        println!("{}", shard.to_json());
    } else {
        print!("{}", shard.result);
    }
}

/// `repro merge`: recombine completed shard jobs on the service into
/// one campaign result.
fn run_merge(args: &[String]) {
    let usage = "usage: repro merge [--addr HOST:PORT] [--json] ID ID...";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut json = false;
    let mut ids: Vec<u64> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("`--addr` needs a value\n{usage}");
                    std::process::exit(2);
                });
            }
            "--json" => json = true,
            raw => match raw.parse::<u64>() {
                Ok(id) => ids.push(id),
                Err(_) => {
                    eprintln!("`{raw}` is not a campaign id\n{usage}");
                    std::process::exit(2);
                }
            },
        }
    }
    if ids.is_empty() {
        eprintln!("nothing to merge\n{usage}");
        std::process::exit(2);
    }
    match client::merge(&addr, &ids) {
        Ok(merged) => {
            eprintln!(
                "[repro] merged {} shards (fingerprint {})",
                ids.len(),
                merged.fingerprint
            );
            if json {
                println!("{}", merged.to_json());
            } else {
                print!("{}", merged.result);
            }
        }
        Err(e) => {
            eprintln!("[repro] merge refused: {e}");
            std::process::exit(1);
        }
    }
}

/// The verb reference `repro fleet --help` prints (exit 0) and every
/// fleet usage error cites (exit 2).
const FLEET_USAGE: &str = "usage: repro fleet <verb> [flags...]
  coordinate  [--addr HOST:PORT] [--queue-depth N] [--lease-ttl-ms N]
              [--heartbeat-ms N] [--max-attempts N] [--backoff-ms N]
              [--backoff-cap-ms N] [--store PATH] [--drain PATH]
  run         [--addr HOST:PORT] [--name NAME] [--job-threads N]
              [--workdir PATH] [--chaos SEED]
  submit      [iu|cmem|whole] [--addr HOST:PORT] [--benchmark NAME]
              [--sample N --seed N] [--injection-fraction F]
              [--deadline-ms N] [--shards N] [--watch] [--detach] [--json]
  status      [--addr HOST:PORT] [--watch] [--json] ID

`coordinate` runs the fleet coordinator until POST /shutdown: it leases
shards to registered runners under wall-clock TTLs, re-queues expired or
failed leases with capped exponential backoff, poisons a shard after
--max-attempts leases (degrading its campaign), and persists finished
shards in the --store directory keyed by fingerprint + geometry.
`run` works for a coordinator until the fleet drains; --chaos arms the
deterministic lease-fault injector (crash/stall/vanish schedules).
`submit` shards one campaign across the fleet; a full coordinator answers
503 with a Retry-After hint. `status --watch` streams chunked progress.";

/// `repro fleet <verb>`: drive the fault-tolerant coordinator + runner
/// fleet (see [`FLEET_USAGE`]).
fn run_fleet(config: &ExperimentConfig, args: &[String]) {
    match args.first().map(String::as_str) {
        Some("coordinate") => fleet_coordinate(&args[1..]),
        Some("run") => fleet_run(&args[1..]),
        Some("submit") => fleet_submit(config, &args[1..]),
        Some("status") => fleet_status(&args[1..]),
        Some("--help" | "-h") | None => println!("{FLEET_USAGE}"),
        Some(other) => {
            eprintln!("unknown fleet verb `{other}`\n{FLEET_USAGE}");
            std::process::exit(2);
        }
    }
}

/// `repro fleet coordinate`: run a coordinator in this process until a
/// `POST /shutdown` stops it.
fn fleet_coordinate(args: &[String]) {
    let (config, fleet) = parsed_or_exit(cli::coordinator_args(args), FLEET_USAGE);
    match Server::start_fleet(config, fleet) {
        Ok(server) => {
            eprintln!("[repro] fleet coordinator listening on {}", server.addr());
            server.join();
        }
        Err(e) => {
            eprintln!("[repro] cannot start coordinator: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro fleet run`: work for a coordinator until the fleet drains.
fn fleet_run(args: &[String]) {
    let config = parsed_or_exit(cli::runner_args(args), FLEET_USAGE);
    let coordinator = config.coordinator.clone();
    match Runner::start(config) {
        Ok(runner) => {
            eprintln!(
                "[repro] runner {} working for {coordinator}",
                runner.runner_id()
            );
            runner.join();
            eprintln!("[repro] fleet drained; runner exiting");
        }
        Err(e) => {
            eprintln!("[repro] cannot start runner: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro fleet submit`: cut one campaign into shards, hand it to the
/// fleet, and (unless detached) follow it to a terminal state. Exits 1
/// when the campaign completes degraded.
fn fleet_submit(config: &ExperimentConfig, args: &[String]) {
    let mut addr = DEFAULT_FLEET_ADDR.to_string();
    let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
    spec.sample = Some((config.sample_per_campaign, config.seed));
    spec.injection = InjectionInstant::Fraction(0.05);
    let mut shards: u32 = 2;
    let mut watch = false;
    let mut detach = false;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{FLEET_USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "iu" => spec.target = Target::IntegerUnit,
            "cmem" => spec.target = Target::CacheMemory,
            "whole" => spec.target = Target::Whole,
            "--addr" => addr = value("--addr"),
            "--benchmark" => {
                let name = value("--benchmark");
                spec.benchmark = Benchmark::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown benchmark `{name}`\n{FLEET_USAGE}");
                    std::process::exit(2);
                });
            }
            "--sample" => {
                let n = parse_usize("--sample", value("--sample"), FLEET_USAGE);
                let seed = spec.sample.map_or(config.seed, |(_, s)| s);
                spec.sample = Some((n, seed));
            }
            "--seed" => {
                let seed = parse_usize("--seed", value("--seed"), FLEET_USAGE) as u64;
                let n = spec.sample.map_or(config.sample_per_campaign, |(n, _)| n);
                spec.sample = Some((n, seed));
            }
            "--injection-fraction" => {
                let raw = value("--injection-fraction");
                let f: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("`--injection-fraction` needs a number, got `{raw}`\n{FLEET_USAGE}");
                    std::process::exit(2);
                });
                spec.injection = InjectionInstant::Fraction(f);
            }
            "--deadline-ms" => {
                spec.deadline_ms =
                    Some(parse_usize("--deadline-ms", value("--deadline-ms"), FLEET_USAGE) as u64);
            }
            "--shards" => {
                let n = parse_usize("--shards", value("--shards"), FLEET_USAGE);
                shards = u32::try_from(n).unwrap_or(0);
            }
            "--watch" => watch = true,
            "--detach" => detach = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown submit flag `{other}`\n{FLEET_USAGE}");
                std::process::exit(2);
            }
        }
    }
    if shards == 0 || shards > 4096 {
        eprintln!("`--shards` wants 1..=4096\n{FLEET_USAGE}");
        std::process::exit(2);
    }
    let reply = client::fleet_submit(&addr, &spec, shards).unwrap_or_else(|e| {
        eprintln!("[repro] fleet submit failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] fleet campaign {} {} ({} of {shards} shards already stored, fingerprint {})",
        reply.id,
        reply.status,
        reply.cached,
        spec.fingerprint()
    );
    if detach {
        println!("{}", reply.id);
        return;
    }
    let status = if watch {
        client::fleet_watch(&addr, reply.id, &mut |line| eprintln!("[repro] {line}"))
    } else {
        client::fleet_wait(&addr, reply.id)
    };
    let status = status.unwrap_or_else(|e| {
        eprintln!("[repro] fleet campaign {} failed: {e}", reply.id);
        std::process::exit(1);
    });
    report_fleet_status(&status, json);
}

/// `repro fleet status`: poll (or `--watch` stream) one fleet campaign.
/// Exits 1 when the campaign is degraded.
fn fleet_status(args: &[String]) {
    let mut addr = DEFAULT_FLEET_ADDR.to_string();
    let mut watch = false;
    let mut json = false;
    let mut id: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("`--addr` needs a value\n{FLEET_USAGE}");
                    std::process::exit(2);
                });
            }
            "--watch" => watch = true,
            "--json" => json = true,
            raw => match raw.parse::<u64>() {
                Ok(n) => id = Some(n),
                Err(_) => {
                    eprintln!("`{raw}` is not a fleet campaign id\n{FLEET_USAGE}");
                    std::process::exit(2);
                }
            },
        }
    }
    let Some(id) = id else {
        eprintln!("`status` needs a campaign id\n{FLEET_USAGE}");
        std::process::exit(2);
    };
    let status = if watch {
        client::fleet_watch(&addr, id, &mut |line| eprintln!("[repro] {line}"))
    } else {
        client::fleet_status(&addr, id)
    };
    match status {
        Ok(status) => report_fleet_status(&status, json),
        Err(e) => {
            eprintln!("[repro] fleet status failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Print one terminal (or in-flight) fleet status; exit 1 on a degraded
/// campaign so scripts notice missing shards.
fn report_fleet_status(status: &verifd::FleetStatus, json: bool) {
    eprintln!(
        "[repro] fleet campaign {} {}: {}/{} shards",
        status.id, status.status, status.done, status.total
    );
    if let Some(merged) = &status.campaign {
        if json {
            println!("{}", merged.to_json());
        } else {
            print!("{}", merged.result);
        }
    }
    if status.status == "degraded" {
        let missing: Vec<String> = status.missing.iter().map(u32::to_string).collect();
        eprintln!(
            "[repro] campaign degraded; missing shards: {}",
            missing.join(", ")
        );
        std::process::exit(1);
    }
}

/// `repro correlate`: the Fig. 7 sweep as one command — run the
/// benchmarks × datasets × domains cross-product, fit
/// `Pf = a·ln(D) + b` per domain, and print the calibrated report.
/// Local by default; `--addr` submits to a running service instead,
/// which caches the fitted model for `repro predict`. `--shard I/N`
/// cuts the sweep for distributed runs — each shard job goes through a
/// service and `repro merge` of the shard ids fits the report.
fn run_correlate(config: &ExperimentConfig, args: &[String]) {
    let usage = "usage: repro correlate [--addr HOST:PORT] [--benchmarks a,b,..] \
                 [--targets iu,cmem,whole] [--kinds KIND,..] [--datasets all|first|0,2] \
                 [--no-excerpts] [--sample N --seed N] [--exhaustive] [--injection-cycle N] \
                 [--injection-fraction F] [--shard I/N] [--threads N] [--detach] [--json]";
    let mut addr: Option<String> = None;
    let mut spec = CorrelationSpec::new();
    spec.sample = Some((config.sample_per_campaign, config.seed));
    spec.injection = InjectionInstant::Fraction(0.3);
    let mut threads = config.threads;
    let mut detach = false;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--benchmarks" => {
                spec.benchmarks = value("--benchmarks")
                    .split(',')
                    .map(|name| {
                        Benchmark::by_name(name).unwrap_or_else(|| {
                            eprintln!("unknown benchmark `{name}`\n{usage}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--targets" => {
                spec.targets = value("--targets")
                    .split(',')
                    .map(|token| {
                        target_from_token(token).unwrap_or_else(|| {
                            eprintln!("unknown target `{token}` (iu, cmem or whole)\n{usage}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--kinds" => {
                spec.kinds = value("--kinds")
                    .split(',')
                    .map(|token| {
                        kind_from_token(token).unwrap_or_else(|e| {
                            eprintln!("{e}\n{usage}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--datasets" => {
                let raw = value("--datasets");
                spec.datasets = match raw.as_str() {
                    "all" => DatasetSelection::All,
                    "first" => DatasetSelection::First,
                    list => DatasetSelection::List(
                        list.split(',')
                            .map(|d| {
                                d.parse().unwrap_or_else(|_| {
                                    eprintln!(
                                        "`--datasets` is all, first or a comma list of \
                                         indices, got `{raw}`\n{usage}"
                                    );
                                    std::process::exit(2);
                                })
                            })
                            .collect(),
                    ),
                };
            }
            "--no-excerpts" => spec.include_excerpts = false,
            "--sample" => {
                let n = parse_usize("--sample", value("--sample"), usage);
                let seed = spec.sample.map_or(config.seed, |(_, s)| s);
                spec.sample = Some((n, seed));
            }
            "--seed" => {
                let seed = parse_usize("--seed", value("--seed"), usage) as u64;
                let n = spec.sample.map_or(config.sample_per_campaign, |(n, _)| n);
                spec.sample = Some((n, seed));
            }
            "--exhaustive" => spec.sample = None,
            "--injection-cycle" => {
                spec.injection = InjectionInstant::Cycle(parse_usize(
                    "--injection-cycle",
                    value("--injection-cycle"),
                    usage,
                ) as u64);
            }
            "--injection-fraction" => {
                let raw = value("--injection-fraction");
                let f: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("`--injection-fraction` needs a number, got `{raw}`\n{usage}");
                    std::process::exit(2);
                });
                spec.injection = InjectionInstant::Fraction(f);
            }
            "--shard" => {
                let raw = value("--shard");
                let parsed = raw
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)));
                match parsed {
                    Some((i, n)) if n > 0 && i < n => spec.shard = Some((i, n)),
                    _ => {
                        eprintln!("`--shard` wants I/N with I < N, got `{raw}`\n{usage}");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                threads = parse_usize("--threads", value("--threads"), usage).max(1);
            }
            "--detach" => detach = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown correlate argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    // Normalize through the wire round-trip: sorts and dedups the axes,
    // range-checks dataset indices, refuses empty lists.
    spec = CorrelationSpec::parse(&spec.to_json()).unwrap_or_else(|e| {
        eprintln!("invalid sweep: {e}\n{usage}");
        std::process::exit(2);
    });
    let Some(addr) = addr else {
        if spec.shard.is_some() {
            eprintln!(
                "sharded sweeps run on a service (--addr); merge the shard ids with \
                 `repro merge`\n{usage}"
            );
            std::process::exit(2);
        }
        match spec.run_report(threads) {
            Ok(report) => report_correlation(&report, json),
            Err(e) => {
                eprintln!("[repro] correlation sweep failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    };
    let reply = client::correlate(&addr, &spec).unwrap_or_else(|e| {
        eprintln!("[repro] correlate failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] correlation {} {} (fingerprint {})",
        reply.id,
        if reply.cached {
            "cached"
        } else {
            &reply.status
        },
        spec.fingerprint()
    );
    if detach || spec.shard.is_some() {
        println!("{}", reply.id);
        return;
    }
    let report = client::wait_report(&addr, reply.id).unwrap_or_else(|e| {
        eprintln!("[repro] correlation {} failed: {e}", reply.id);
        std::process::exit(1);
    });
    report_correlation(&report, json);
}

/// Print one fitted correlation report, leading with the
/// best-correlating domain (the acceptance headline).
fn report_correlation(report: &CorrelationReport, json: bool) {
    let best = report.best_domain();
    eprintln!(
        "[repro] best domain {} @ {}: R² = {:.4} over {} points (fingerprint {})",
        kind_to_token(best.kind),
        target_to_token(best.target),
        best.model.r2,
        best.model.n,
        report.fingerprint
    );
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
}

/// `repro predict`: ask a running service for a failure-probability
/// prediction with zero simulated RTL cycles — by calibration-point
/// label, from an explicit opcode histogram, or from a fresh local ISS
/// run of a benchmark.
fn run_predict(args: &[String]) {
    let usage = "usage: repro predict (--benchmark LABEL | --iss NAME | --histogram op=N,..) \
                 [--addr HOST:PORT] [--target iu|cmem|whole] [--kind KIND] \
                 [--fingerprint FP] [--json]";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut benchmark: Option<String> = None;
    let mut iss: Option<String> = None;
    let mut histogram: Option<Vec<(String, u64)>> = None;
    let mut target = Target::IntegerUnit;
    let mut kind = FaultKind::StuckAt1;
    let mut fingerprint: Option<String> = None;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--benchmark" => benchmark = Some(value("--benchmark")),
            "--iss" => iss = Some(value("--iss")),
            "--histogram" => {
                let raw = value("--histogram");
                let entries = raw
                    .split(',')
                    .map(|pair| {
                        let Some((mnemonic, count)) = pair.split_once('=') else {
                            eprintln!("`--histogram` wants op=N pairs, got `{pair}`\n{usage}");
                            std::process::exit(2);
                        };
                        let count: u64 = count.parse().unwrap_or_else(|_| {
                            eprintln!(
                                "`--histogram` count for `{mnemonic}` is not an integer\n{usage}"
                            );
                            std::process::exit(2);
                        });
                        (mnemonic.to_string(), count)
                    })
                    .collect();
                histogram = Some(entries);
            }
            "--target" => {
                let token = value("--target");
                target = target_from_token(&token).unwrap_or_else(|| {
                    eprintln!("unknown target `{token}` (iu, cmem or whole)\n{usage}");
                    std::process::exit(2);
                });
            }
            "--kind" => {
                kind = kind_from_token(&value("--kind")).unwrap_or_else(|e| {
                    eprintln!("{e}\n{usage}");
                    std::process::exit(2);
                });
            }
            "--fingerprint" => fingerprint = Some(value("--fingerprint")),
            "--json" => json = true,
            other => {
                eprintln!("unknown predict argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let sources = usize::from(benchmark.is_some())
        + usize::from(iss.is_some())
        + usize::from(histogram.is_some());
    if sources != 1 {
        eprintln!("give exactly one of --benchmark, --iss, --histogram\n{usage}");
        std::process::exit(2);
    }
    if let Some(name) = iss {
        // The paper's workflow: characterize the workload on the ISS,
        // predict its RTL failure probability from diversity alone.
        let subject = Benchmark::by_name(&name).unwrap_or_else(|| {
            eprintln!("unknown benchmark `{name}`\n{usage}");
            std::process::exit(2);
        });
        let mut run = Iss::new(IssConfig::default());
        run.load(&subject.program(&Params::default()));
        let outcome = run.run(200_000_000);
        if !matches!(outcome, RunOutcome::Halted { .. }) {
            eprintln!("[repro] {name} did not halt on the ISS: {outcome:?}");
            std::process::exit(1);
        }
        let entries: Vec<(String, u64)> = run
            .stats()
            .named_histogram()
            .into_iter()
            .map(|(mnemonic, count)| (mnemonic.to_string(), count))
            .collect();
        eprintln!("[repro] {name}: D = {} from the ISS run", entries.len());
        histogram = Some(entries);
    }
    let mut request = match (benchmark, histogram) {
        (Some(label), None) => PredictRequest::from_benchmark(&label),
        (None, Some(entries)) => PredictRequest::from_histogram(entries),
        _ => unreachable!("exactly one source checked above"),
    };
    request.target = target;
    request.kind = kind;
    request.fingerprint = fingerprint;
    // Round-trip validation: unknown mnemonics and zero counts are
    // refused here rather than by the service.
    let request = PredictRequest::parse(&request.to_json()).unwrap_or_else(|e| {
        eprintln!("invalid request: {e}\n{usage}");
        std::process::exit(2);
    });
    let prediction = client::predict(&addr, &request).unwrap_or_else(|e| {
        eprintln!("[repro] predict failed: {e}");
        std::process::exit(1);
    });
    if json {
        println!("{}", prediction.to_json());
    } else {
        println!(
            "Pf = {:.4} ± {:.4}  (D = {}, {} @ {}, model {})",
            prediction.pf,
            prediction.band,
            prediction.diversity,
            kind_to_token(prediction.kind),
            target_to_token(prediction.target),
            prediction.fingerprint
        );
    }
}

/// `repro benchgate [--baseline PATH] [--perturb F] [--write]` — the CI
/// bench-regression gate (see [`bench::gate`]). Measures every gate case
/// on one thread and compares it against the baseline (default
/// `BENCH_gate.json`); exits 1 on any regression. `--perturb` degrades the
/// measured quantities (ratios up, R² down) so CI can prove each gate
/// fires; `--write` rewrites the baseline from the measurements instead.
fn run_benchgate(args: &[String]) {
    const USAGE: &str = "usage: repro benchgate [--baseline <path>] [--perturb <factor>] [--write]";
    let mut baseline = bench::gate::BASELINE.to_string();
    let mut perturb = 1.0_f64;
    let mut write = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline = value("--baseline"),
            "--perturb" => {
                let raw = value("--perturb");
                perturb = raw.parse().unwrap_or_else(|_| {
                    eprintln!("`--perturb` needs a number, got `{raw}`\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--write" => write = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if write && perturb != 1.0 {
        eprintln!("`--write` records unperturbed measurements\n{USAGE}");
        std::process::exit(2);
    }
    let measurements: Vec<_> = bench::gate::CASES
        .iter()
        .map(bench::gate::measure)
        .collect();
    if write {
        if let Err(e) = std::fs::write(&baseline, bench::gate::baseline_json(&measurements)) {
            eprintln!("[benchgate] cannot write `{baseline}`: {e}");
            std::process::exit(1);
        }
        println!("[benchgate] wrote {baseline}");
        return;
    }
    let text = std::fs::read_to_string(&baseline).unwrap_or_else(|e| {
        eprintln!("[benchgate] cannot read `{baseline}`: {e}");
        std::process::exit(1);
    });
    match bench::gate::check(&text, &measurements, perturb) {
        Ok(report) => {
            for line in report {
                println!("[benchgate] {line}");
            }
            println!("[benchgate] PASS");
        }
        Err(failures) => {
            for line in failures {
                eprintln!("[benchgate] {line}");
            }
            eprintln!("[benchgate] FAIL");
            std::process::exit(1);
        }
    }
}

/// `repro netcheck [--deny CHECK,...] [--threads N]` — the static model
/// lint gate. Prints the declared net graph's vital signs (dead and
/// unobservable nets, stuck-at equivalence classes, transient-safe
/// latches), cross-checks the declaration against the observed access
/// order of the conformance mix, and compares the statically predicted
/// per-unit observability against a small measured safety campaign.
/// `--deny` turns named findings into a nonzero exit for CI:
/// `dead-nets` (any dead or unobservable net) and `graph-mismatch`
/// (any observed edge the declaration lacks, or a measured DC above the
/// static bound).
fn run_netcheck(config: &ExperimentConfig, args: &[String]) {
    const USAGE: &str = "usage: repro netcheck [--deny dead-nets,graph-mismatch] [--threads N]";
    let mut deny_dead = false;
    let mut deny_mismatch = false;
    let mut threads = config.threads;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("`{flag}` needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--deny" => {
                for check in value("--deny").split(',') {
                    match check {
                        "dead-nets" => deny_dead = true,
                        "graph-mismatch" => deny_mismatch = true,
                        other => {
                            eprintln!("unknown check `{other}`\n{USAGE}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--threads" => {
                threads = parse_usize("--threads", value("--threads"), USAGE).max(1);
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let model_config = Leon3Config::default();
    let cpu = Leon3::new(model_config.clone());
    let analysis = StaticAnalysis::for_config(&model_config);
    let graph = analysis.graph();
    let name = |net: rtl_sim::NetId| cpu.pool().meta(net).name.clone();

    let transient_safe = (0..graph.net_count())
        .filter(|&i| graph.is_transient_safe(rtl_sim::NetId::from_raw(i as u32)))
        .count();
    println!(
        "[netcheck] graph: {} nets, {} edges, {} sinks, {} transient-safe latches",
        graph.net_count(),
        graph.edge_count(),
        graph.sink_count(),
        transient_safe,
    );

    let dead = graph.dead_nets();
    let unobservable = graph.unobservable_nets();
    println!(
        "[netcheck] dead nets: {} | unobservable nets: {}",
        dead.len(),
        unobservable.len(),
    );
    for &net in &dead {
        println!("[netcheck]   dead: {}", name(net));
    }
    for &net in &unobservable {
        println!("[netcheck]   unobservable: {}", name(net));
    }

    let classes = graph.equivalence_classes();
    let collapsible: Vec<&Vec<rtl_sim::NetId>> = classes.iter().filter(|c| c.len() > 1).collect();
    println!(
        "[netcheck] stuck-at equivalence classes of size > 1: {}",
        collapsible.len()
    );
    for class in &collapsible {
        let names: Vec<String> = class.iter().map(|&n| name(n)).collect();
        println!("[netcheck]   class[{}]: {}", class.len(), names.join(" = "));
    }

    // Taint-instrumented cross-check: every driver→reader edge the
    // conformance mix actually exercises must be declared, on the default
    // and the parity configurations (parity changes the net population).
    let mut missing_total = 0;
    for (label, config) in [
        ("default", Leon3Config::default()),
        (
            "parity",
            Leon3Config {
                cmem_parity: true,
                ..Leon3Config::default()
            },
        ),
    ] {
        let missing = leon3_model::graph::conformance_missing_edges(config);
        println!(
            "[netcheck] conformance ({label}): {} undeclared edges",
            missing.len()
        );
        for (from, to) in &missing {
            println!("[netcheck]   undeclared: {from} -> {to}");
        }
        missing_total += missing.len();
    }

    // Predicted-vs-measured: static observability is an upper bound on
    // what the safety mechanisms can see, so any unit whose measured DC
    // exceeds its predicted fraction exposes a graph declaration bug.
    let sample = config.sample_per_campaign.clamp(24, 120);
    let campaign = Campaign::new(Benchmark::Rspeed.program(&Params::default()), Target::Whole)
        .with_sample(sample, config.seed)
        .with_injection_fraction(0.25)
        .with_lockstep_window(32)
        .with_parity(true);
    let result = campaign.run(threads);
    let predicted = analysis.unit_observability(&cpu);
    let mut dc_violations = 0;
    println!("[netcheck] unit        predicted-obs  measured-dc  dangerous");
    for (unit, obs) in &predicted {
        let mut dangerous = 0;
        let mut measured: Option<f64> = None;
        for kind in rtl_sim::FaultKind::ALL {
            let per_unit = result.coverage_per_unit(kind);
            if let Some(c) = per_unit.get(unit) {
                dangerous += c.detected() + c.residual;
                if let Some(dc) = c.diagnostic_coverage() {
                    measured = Some(measured.map_or(dc, |m: f64| m.max(dc)));
                }
            }
        }
        let shown = measured.map_or("    n/a".to_string(), |m| format!("{m:7.3}"));
        println!(
            "[netcheck] {:<12} {:>9.3}      {shown}      {dangerous}",
            unit.to_string(),
            obs.fraction(),
        );
        if measured.is_some_and(|m| m > obs.fraction() + 1e-9) {
            dc_violations += 1;
            println!(
                "[netcheck]   VIOLATION: {unit} measured DC exceeds static observability bound"
            );
        }
    }

    let mut failed = Vec::new();
    if deny_dead && (!dead.is_empty() || !unobservable.is_empty()) {
        failed.push("dead-nets");
    }
    if deny_mismatch && (missing_total > 0 || dc_violations > 0) {
        failed.push("graph-mismatch");
    }
    if failed.is_empty() {
        println!("[netcheck] PASS");
    } else {
        eprintln!("[netcheck] FAIL: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// Parse a flag value as a non-negative integer or exit 2.
fn parse_usize(flag: &str, raw: String, usage: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("`{flag}` needs an integer, got `{raw}`\n{usage}");
        std::process::exit(2);
    })
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let config = config_from_env();
    eprintln!(
        "[repro] sample={} seed={:#x} threads={}",
        config.sample_per_campaign, config.seed, config.threads
    );
    match what.as_str() {
        "table1" => print!("{}", table1()),
        "fig3" => print!("{}", fig3(&config)),
        "fig4" => print!("{}", fig4(&config)),
        "fig5" => {
            let f5 = fig5(&config);
            print!("{f5}");
            print!("{}", TemporalStudy::from_fig5(&f5));
        }
        "fig6" => print!("{}", fig6(&config)),
        "fig7" => print!("{}", fig7(&config)),
        "temporal" => {
            let f5 = fig5(&config);
            print!("{}", TemporalStudy::from_fig5(&f5));
        }
        "simtime" => print!("{}", simtime()),
        "campaign" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_campaign(&config, &rest);
        }
        "serve" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_serve(&rest);
        }
        "submit" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_submit(&config, &rest);
        }
        "merge" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_merge(&rest);
        }
        "fleet" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_fleet(&config, &rest);
        }
        "correlate" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_correlate(&config, &rest);
        }
        "predict" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_predict(&rest);
        }
        "benchgate" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_benchgate(&rest);
        }
        "netcheck" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_netcheck(&config, &rest);
        }
        "inject" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            run_inject(&config, &rest);
        }
        // `repro transient` predates `repro inject` and is kept as an
        // alias for `repro inject --kind transient`.
        "transient" => print!("{}", inject_study(&config, FaultKind::TransientFlip, &[])),
        "bridging" => print!("{}", bridging_study(&config)),
        "latent" => print!("{}", latent_study(&config)),
        "issbaseline" => print!("{}", iss_baseline(&config)),
        "eq1" => {
            let f5 = fig5(&config);
            print!("{}", eq1_ablation(&f5));
        }
        "extensions" => {
            print!("{}", inject_study(&config, FaultKind::TransientFlip, &[]));
            println!();
            print!("{}", bridging_study(&config));
            println!();
            print!("{}", latent_study(&config));
            println!();
            print!("{}", iss_baseline(&config));
            println!();
            let f5 = fig5(&config);
            print!("{}", eq1_ablation(&f5));
        }
        "all" => {
            print!("{}", table1());
            println!();
            let f3 = fig3(&config);
            print!("{f3}");
            println!();
            print!("{}", fig4(&config));
            println!();
            let f5 = fig5(&config);
            print!("{f5}");
            println!();
            print!("{}", TemporalStudy::from_fig5(&f5));
            println!();
            print!("{}", fig6(&config));
            println!();
            print!("{}", fig7(&config));
            println!();
            print!("{}", simtime());
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; try table1|fig3|fig4|fig5|fig6|fig7|temporal|simtime|inject|transient|bridging|latent|issbaseline|eq1|extensions|campaign|serve|submit|merge|fleet|correlate|predict|benchgate|netcheck|all"
            );
            std::process::exit(2);
        }
    }
}
