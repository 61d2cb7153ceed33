//! Checkpoint-tree sweep economics: jobs/sec and cycle cost of a dense
//! any-instant transient sweep across checkpoint stride settings, versus
//! full re-execution. Writes `BENCH_checkpoint.json` at the repo root.
//!
//! The sweep axes are instant density (instants per golden run) and
//! stride K (extra grid checkpoints every K cycles, `0` = boundaries
//! only). Full re-execution is the per-density baseline; the dense case
//! is the ISSUE acceptance number (>= 2x jobs/sec over re-execution).

use fault_inject::{
    Campaign, CampaignStats, ExecOptions, Execution, GoldenRun, InjectionInstant, Target,
};
use rtl_sim::FaultKind;
use std::time::Instant;
use workloads::{Benchmark, Params};

const DENSITIES: [usize; 3] = [4, 16, 48];
/// Stride as a divisor of the golden run length; 0 = no stride grid.
const STRIDE_DIVISORS: [u64; 3] = [0, 4, 16];

struct Sweep {
    seconds: f64,
    jobs: usize,
    stats: CampaignStats,
}

fn instants(density: usize) -> Vec<InjectionInstant> {
    (1..=density)
        .map(|i| InjectionInstant::Fraction(i as f64 / (density + 1) as f64))
        .collect()
}

fn run_sweep(campaign: &Campaign, density: usize, threads: usize) -> Sweep {
    let instants = instants(density);
    let options = ExecOptions {
        instants: Some(&instants),
        ..ExecOptions::default()
    };
    // Warm-up, then measure.
    let _ = campaign.execute(threads, &options).expect("sweep");
    let start = Instant::now();
    let results = campaign.execute(threads, &options).expect("sweep");
    let seconds = start.elapsed().as_secs_f64();
    let mut stats = CampaignStats::default();
    for r in &results {
        stats.merge(r.stats());
    }
    Sweep {
        seconds,
        jobs: stats.jobs,
        stats,
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let program = Benchmark::Rspeed.program(&Params::default());
    let golden = GoldenRun::capture(&program, &leon3_model::Leon3Config::default());
    let base = Campaign::new(program, Target::IntegerUnit)
        .with_sample(8, 0xc4)
        .with_kinds(&[FaultKind::TransientFlip]);

    let mut entries = Vec::new();
    for density in DENSITIES {
        let full = run_sweep(
            &base.clone().with_execution(Execution::FullReexecution),
            density,
            threads,
        );
        let full_jobs_per_sec = full.jobs as f64 / full.seconds;
        for divisor in STRIDE_DIVISORS {
            let campaign = match golden.cycles.checked_div(divisor) {
                None => base.clone(),
                Some(stride) => base.clone().with_checkpoint_stride(stride),
            };
            let fork = run_sweep(&campaign, density, threads);
            let jobs_per_sec = fork.jobs as f64 / fork.seconds;
            let speedup = full.seconds / fork.seconds;
            println!(
                "density {density:2} stride/{divisor:2}: {:6.1} jobs/s vs full {:6.1} | speedup {speedup:.2}x | {} checkpoints ({} bytes) | replay {} cycles",
                jobs_per_sec,
                full_jobs_per_sec,
                fork.stats.checkpoints_taken,
                fork.stats.checkpoint_bytes,
                fork.stats.replay_cycles,
            );
            assert_eq!(
                fork.stats.full_reexecutions, 0,
                "checkpoint tree must never fall back to full re-execution"
            );
            entries.push(format!(
                concat!(
                    "  {{\n",
                    "    \"density\": {},\n",
                    "    \"stride_divisor\": {},\n",
                    "    \"jobs\": {},\n",
                    "    \"jobs_per_sec\": {:.1},\n",
                    "    \"full_jobs_per_sec\": {:.1},\n",
                    "    \"speedup\": {:.2},\n",
                    "    \"cycles_ratio\": {:.4},\n",
                    "    \"checkpoints_taken\": {},\n",
                    "    \"checkpoint_bytes\": {},\n",
                    "    \"replay_cycles\": {},\n",
                    "    \"forked\": {},\n",
                    "    \"restored_from_checkpoint\": {},\n",
                    "    \"full_reexecutions\": {}\n",
                    "  }}"
                ),
                density,
                divisor,
                fork.jobs,
                jobs_per_sec,
                full_jobs_per_sec,
                speedup,
                fork.stats.cycles_simulated as f64 / full.stats.cycles_simulated as f64,
                fork.stats.checkpoints_taken,
                fork.stats.checkpoint_bytes,
                fork.stats.replay_cycles,
                fork.stats.forked,
                fork.stats.restored_from_checkpoint,
                fork.stats.full_reexecutions,
            ));
        }
    }
    // The deterministic regression gate: the dense intermittent sweep's
    // fork/full cycle ratio, checked in CI by `repro benchgate`.
    let gate = bench::gate::checkpoint_baseline_json(&bench::gate::measure_checkpoint(threads));
    let json = format!(
        "{{\n  \"threads\": {},\n  \"benchmark\": \"rspeed\",\n  \"domain\": \"IU\",\n  \"gate\": {},\n  \"sweeps\": [\n{}\n]\n}}\n",
        threads,
        gate,
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checkpoint.json");
    std::fs::write(path, &json).expect("write BENCH_checkpoint.json");
    println!("wrote {path}");
}
