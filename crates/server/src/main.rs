//! The `verifd` binary: the campaign server in one of three roles.
//!
//! - `verifd [flags]` — the plain server; blocks until a
//!   `POST /shutdown` stops it.
//! - `verifd coordinator [flags]` — the server with a fleet and no local
//!   workers (lease table, retry/backoff, persistent shard store).
//! - `verifd runner [flags]` — a fleet runner; works for a coordinator
//!   until the fleet drains.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use verifd::{cli, Runner, Server};

const USAGE: &str = "usage: verifd [--addr HOST:PORT] [--workers N] [--queue-depth N] \
                     [--job-threads N] [--drain PATH]
       verifd coordinator [--addr HOST:PORT] [--queue-depth N] [--lease-ttl-ms N] \
                     [--heartbeat-ms N] [--max-attempts N] [--backoff-ms N] \
                     [--backoff-cap-ms N] [--store PATH] [--drain PATH]
       verifd runner [--addr HOST:PORT] [--name NAME] [--job-threads N] \
                     [--workdir PATH] [--chaos SEED]";

/// Run the role `args` name until it stops. `Ok(false)` means `--help`
/// was asked for and nothing ran.
fn run(args: &[String]) -> Result<bool, String> {
    let usage = |e: String| format!("{e}\n{USAGE}");
    match args.first().map(String::as_str) {
        Some("coordinator") => {
            let Some((config, fleet)) = cli::coordinator_args(&args[1..]).map_err(usage)? else {
                return Ok(false);
            };
            let server = Server::start_fleet(config, fleet)
                .map_err(|e| format!("verifd: cannot start coordinator: {e}"))?;
            println!("verifd coordinator listening on {}", server.addr());
            server.join();
        }
        Some("runner") => {
            let Some(config) = cli::runner_args(&args[1..]).map_err(usage)? else {
                return Ok(false);
            };
            let coordinator = config.coordinator.clone();
            let runner =
                Runner::start(config).map_err(|e| format!("verifd: cannot start runner: {e}"))?;
            println!(
                "verifd runner {} working for {coordinator}",
                runner.runner_id()
            );
            runner.join();
            println!("verifd runner: fleet drained, exiting");
        }
        _ => {
            let Some(config) = cli::server_args(args).map_err(usage)? else {
                return Ok(false);
            };
            let server = Server::start(config).map_err(|e| format!("verifd: cannot start: {e}"))?;
            println!("verifd listening on {}", server.addr());
            server.join();
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(ran) => {
            if !ran {
                println!("{USAGE}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
