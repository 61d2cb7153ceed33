//! The paper's end use case: calibrate the diversity model on a set of
//! workloads with RTL campaigns once, then predict the fault-to-failure
//! probability of *new* software from ISS-only information — no RTL
//! simulation needed.
//!
//! We calibrate on five benchmarks plus the excerpts and hold out `canrdr`
//! for validation.
//!
//! ```text
//! cargo run --release --example diversity_predictor [sample]
//! ```

use analysis::{CorrelationPoint, FittedModel};
use fault_inject::{Campaign, CorrelationCell, Target};
use rtl_sim::FaultKind;
use workloads::Benchmark;

/// One workload on dataset 0: the full kernel, or its init-phase excerpt.
fn cell(benchmark: Benchmark, excerpt: bool) -> CorrelationCell {
    CorrelationCell {
        benchmark,
        dataset: 0,
        excerpt,
    }
}

/// The cell's diversity `D` on the ISS and its measured RTL `Pf`
/// (stuck-at-1 at IU nodes).
fn measure(cell: CorrelationCell, sample: usize, threads: usize) -> CorrelationPoint {
    let measurement = cell.measure();
    let pf = Campaign::new(cell.program(), Target::IntegerUnit)
        .with_kinds(&[FaultKind::StuckAt1])
        .with_sample(sample, 0xCA11B)
        .run(threads)
        .pf(FaultKind::StuckAt1);
    CorrelationPoint {
        label: measurement.label,
        diversity: measurement.diversity as f64,
        pf,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sample: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let calibration_set = [
        Benchmark::Puwmod,
        Benchmark::Ttsprk,
        Benchmark::Rspeed,
        Benchmark::Membench,
        Benchmark::Intbench,
    ];
    let held_out = Benchmark::Canrdr;

    println!(
        "calibrating on {} workloads ({sample} sites each)…",
        calibration_set.len()
    );
    let mut points = Vec::new();
    for bench in calibration_set {
        let p = measure(cell(bench, false), sample, threads);
        println!(
            "  {bench:10} D = {:2}  measured Pf = {:5.2}%",
            p.diversity,
            p.pf * 100.0
        );
        points.push(p);
    }
    // Excerpts widen the diversity range at the low end.
    for &bench in Benchmark::EXCERPT_SUBSET_A
        .iter()
        .chain(&Benchmark::EXCERPT_SUBSET_B)
    {
        let p = measure(cell(bench, true), sample, threads);
        println!(
            "  {bench:10} D = {:2}  measured Pf = {:5.2}% (excerpt)",
            p.diversity,
            p.pf * 100.0
        );
        points.push(p);
    }

    let model = FittedModel::fit(&points)?;
    println!("\ncalibrated model: Pf {}", model.regression().equation());

    // Predict the held-out workload from its ISS diversity alone, then
    // check the prediction against an actual RTL campaign.
    let held = measure(cell(held_out, false), sample, threads);
    let predicted = model.predict(held.diversity);
    println!(
        "\nheld-out {held_out}: D = {}, predicted Pf = {:.2}%, RTL-measured Pf = {:.2}% ({:+.2} pp)",
        held.diversity,
        predicted * 100.0,
        held.pf * 100.0,
        (predicted - held.pf) * 100.0
    );
    Ok(())
}
