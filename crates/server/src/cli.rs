//! The command-line flags of verifd's three roles, parsed once for both
//! the `verifd` binary and the `repro` CLI so that they take the same
//! flags with the same defaults. Each parser returns `Ok(None)` when
//! `--help` (or `-h`) is asked for, and names the offending flag in its
//! error otherwise; each binary prints its own usage and picks its own
//! exit codes.

use crate::fleet::FleetConfig;
use crate::runner::RunnerConfig;
use crate::service::ServerConfig;
use std::path::PathBuf;

/// Where the plain server listens by default, and where the service
/// verbs send their requests.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4612";

/// Where the fleet coordinator listens by default — one port above the
/// plain server — and whom runners work for.
pub const DEFAULT_FLEET_ADDR: &str = "127.0.0.1:4613";

/// `--addr --workers --queue-depth --job-threads --drain`: the plain
/// server.
///
/// # Errors
///
/// Fails on an unknown flag, a missing or non-integer value, or a zero
/// queue depth or job-thread count.
pub fn server_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut config = ServerConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServerConfig::default()
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => config.addr = flags.value()?.to_string(),
            "--workers" => config.workers = flags.number()?,
            "--queue-depth" => config.queue_depth = flags.number()?,
            "--job-threads" => config.job_threads = flags.number()?,
            "--drain" => config.drain_path = Some(PathBuf::from(flags.value()?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.queue_depth == 0 || config.job_threads == 0 {
        return Err("`--queue-depth` and `--job-threads` must be at least 1".to_string());
    }
    Ok(Some(config))
}

/// `--addr --queue-depth --lease-ttl-ms --heartbeat-ms --max-attempts
/// --backoff-ms --backoff-cap-ms --store --drain`: the fleet
/// coordinator, a server with a fleet and no local workers.
///
/// # Errors
///
/// Fails on an unknown flag, a missing or non-integer value, or a zero
/// queue depth, attempt budget or lease TTL.
pub fn coordinator_args(args: &[String]) -> Result<Option<(ServerConfig, FleetConfig)>, String> {
    let mut config = ServerConfig {
        addr: DEFAULT_FLEET_ADDR.to_string(),
        workers: 0,
        queue_depth: 256,
        ..ServerConfig::default()
    };
    let mut fleet = FleetConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => config.addr = flags.value()?.to_string(),
            "--queue-depth" => config.queue_depth = flags.number()?,
            "--lease-ttl-ms" => fleet.lease.ttl_ms = flags.number()?,
            "--heartbeat-ms" => fleet.heartbeat_ms = flags.number()?,
            "--max-attempts" => fleet.lease.max_attempts = flags.number()?,
            "--backoff-ms" => fleet.lease.backoff_base_ms = flags.number()?,
            "--backoff-cap-ms" => fleet.lease.backoff_cap_ms = flags.number()?,
            "--store" => fleet.store_path = PathBuf::from(flags.value()?),
            "--drain" => config.drain_path = Some(PathBuf::from(flags.value()?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown coordinator flag `{other}`")),
        }
    }
    if config.queue_depth == 0 || fleet.lease.max_attempts == 0 || fleet.lease.ttl_ms == 0 {
        return Err(
            "`--queue-depth`, `--max-attempts` and `--lease-ttl-ms` must be at least 1".to_string(),
        );
    }
    Ok(Some((config, fleet)))
}

/// `--addr --name --job-threads --workdir --chaos`: a fleet runner.
///
/// # Errors
///
/// Fails on an unknown flag, a missing or non-integer value, or a zero
/// job-thread count.
pub fn runner_args(args: &[String]) -> Result<Option<RunnerConfig>, String> {
    let mut config = RunnerConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => config.coordinator = flags.value()?.to_string(),
            "--name" => config.name = flags.value()?.to_string(),
            "--job-threads" => config.job_threads = flags.number()?,
            "--workdir" => config.workdir = PathBuf::from(flags.value()?),
            "--chaos" => config.chaos = Some(flags.number()?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown runner flag `{other}`")),
        }
    }
    if config.job_threads == 0 {
        return Err("`--job-threads` must be at least 1".to_string());
    }
    Ok(Some(config))
}

/// `--flag value` pairs, remembering the current flag so that a bad
/// value can name it.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    fn value(&mut self) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("`{}` needs a value", self.flag))
    }

    fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let raw = self.value()?;
        raw.parse()
            .map_err(|_| format!("`{}` needs an integer, got `{raw}`", self.flag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn each_role_keeps_its_defaults() {
        let server = server_args(&[]).unwrap().unwrap();
        assert_eq!((server.addr.as_str(), server.workers), (DEFAULT_ADDR, 2));
        let (coordinator, fleet) = coordinator_args(&[]).unwrap().unwrap();
        assert_eq!(coordinator.addr, DEFAULT_FLEET_ADDR);
        assert_eq!((coordinator.workers, coordinator.queue_depth), (0, 256));
        assert_eq!(fleet.store_path, PathBuf::from("verifd-store"));
        let runner = runner_args(&[]).unwrap().unwrap();
        assert_eq!(runner.coordinator, DEFAULT_FLEET_ADDR);
    }

    #[test]
    fn flags_set_fields_and_help_wins() {
        let (config, fleet) = coordinator_args(&args(
            "--addr 0.0.0.0:1 --lease-ttl-ms 2000 --max-attempts 4 --store s --drain d",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:1");
        assert_eq!((fleet.lease.ttl_ms, fleet.lease.max_attempts), (2000, 4));
        assert_eq!(config.drain_path, Some(PathBuf::from("d")));
        assert_eq!(
            runner_args(&args("--chaos 7")).unwrap().unwrap().chaos,
            Some(7)
        );
        assert!(server_args(&args("--workers 1 --help")).unwrap().is_none());
        assert!(runner_args(&args("-h")).unwrap().is_none());
    }

    #[test]
    fn bad_flags_name_themselves() {
        let fails = |result: Result<Option<ServerConfig>, String>| result.unwrap_err();
        assert!(fails(server_args(&args("--bogus"))).contains("--bogus"));
        assert!(fails(server_args(&args("--workers"))).contains("needs a value"));
        assert!(fails(server_args(&args("--workers two"))).contains("`two`"));
        assert!(fails(server_args(&args("--queue-depth 0"))).contains("at least 1"));
        assert!(coordinator_args(&args("--lease-ttl-ms 0")).is_err());
        assert!(runner_args(&args("--job-threads 0")).is_err());
    }
}
