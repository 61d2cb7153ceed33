//! The repository benchmark: one workload per run, end-to-end metrics
//! with tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cmem-campaign --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `NOTES.md` for what
//! each workload and metric is for.

mod layers;
mod trace;
mod workload;

use analysis::SplitMix64;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// What the command line asks for.
enum Command {
    /// Run one workload and print its result line.
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    /// Print the output digest of one workload, or of every workload,
    /// for one seed.
    RecordDigests {
        workload: Option<Workload>,
        seed: u64,
    },
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --record-digests --seed <n> [--workload <w>]   (print digest lines)",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut record_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record-digests" {
            record_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seed = seed.ok_or("missing --seed")?;
    if record_digests {
        return Ok(Command::RecordDigests { workload, seed });
    }
    Ok(Command::Run {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Failure accounting shared by every workload: jobs plus requests
/// attempted, and the ones that failed (see `NOTES.md`).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Output digests that disagreed with the recorded or first digest.
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Check an output digest against the expected one; a mismatch
    /// fails the operation it belongs to (already counted as attempted).
    pub fn check_digest(&mut self, what: &str, expected: u64, found: u64) {
        if expected != found {
            self.failed += 1;
            self.mismatches.push(format!(
                "{what}: expected {expected:016x}, found {found:016x}"
            ));
        }
    }
}

/// FNV-1a over bytes: the output digest.
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Derive a seed from the benchmark seed and a salt: the first output of
/// a SplitMix64 stream whose start the salt offsets.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))).next_u64()
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Host memory high-water mark of this process (`VmHWM`), in MB. Each
/// run executes one workload, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nanoseconds per iteration of a fixed integer loop (median of five
/// passes): a slow host reads as a slow host.
pub fn calib_ns() -> f64 {
    const ITERS: u64 = 4_000_000;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1d_u64);
            for i in 0..ITERS {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                x ^= x >> 29;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
        })
        .collect();
    median(&passes)
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => (workload, seed, seconds, trace),
        Ok(Command::RecordDigests { workload, seed }) => {
            for w in workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
                match workload::digest_once(w, seed) {
                    Ok(digest) => println!("{} {seed} {digest:016x}", w.name()),
                    Err(e) => {
                        eprintln!("perfbench: {}: {e}", w.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(seconds);
    let outcome = if trace {
        layers::run_traced(workload, seed, budget)
    } else {
        workload::run_untraced(workload, seed, budget)
    };
    let (tally, metrics) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not a number", m.name);
            return ExitCode::FAILURE;
        }
    }
    for mismatch in &tally.mismatches {
        eprintln!("perfbench: output mismatch: {mismatch}");
    }
    let correct = tally.mismatches.is_empty();
    println!("{}", result_line(correct, &tally, &metrics));
    ExitCode::SUCCESS
}
