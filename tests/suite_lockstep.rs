//! Whole-suite golden lockstep: every workload, at multiple iteration
//! counts and datasets, must behave bit-identically on the ISS and the
//! RTL model — outcome, exit code and off-core write stream.
//!
//! This cross-crate invariant is the foundation of the correlation method:
//! faulty-run divergence must always be attributable to the fault.

use leon3_model::{Leon3, Leon3Config};
use sparc_asm::Program;
use sparc_iss::{Iss, IssConfig, RunOutcome};
use workloads::{Benchmark, Params};

fn lockstep(program: &Program, label: &str) {
    let mut iss = Iss::new(IssConfig::default());
    iss.load(program);
    let iss_outcome = iss.run(100_000_000);

    let mut rtl = Leon3::new(Leon3Config::default());
    rtl.load(program);
    let rtl_outcome = rtl.run(100_000_000);

    assert!(
        matches!(iss_outcome, RunOutcome::Halted { .. }),
        "{label}: ISS did not halt: {iss_outcome:?}"
    );
    assert_eq!(iss_outcome, rtl_outcome, "{label}: outcomes diverge");

    let iss_writes: Vec<_> = iss.bus_trace().writes().collect();
    let rtl_writes: Vec<_> = rtl.bus_trace().writes().collect();
    assert_eq!(
        iss_writes.len(),
        rtl_writes.len(),
        "{label}: write counts diverge"
    );
    for (i, (a, b)) in iss_writes.iter().zip(&rtl_writes).enumerate() {
        assert!(
            a.same_payload(b),
            "{label}: write {i} diverges ({a} vs {b})"
        );
    }
    assert_eq!(
        iss.stats().instructions,
        rtl.stats().instructions,
        "{label}: instruction counts diverge"
    );
    assert_eq!(
        iss.stats().opcode_histogram(),
        rtl.stats().opcode_histogram(),
        "{label}: opcode histograms diverge"
    );
}

#[test]
fn all_benchmarks_default_params() {
    for bench in Benchmark::ALL {
        lockstep(&bench.program(&Params::default()), bench.name());
    }
}

#[test]
fn all_datasets_of_table1_benchmarks() {
    for bench in Benchmark::TABLE1_AUTOMOTIVE {
        for dataset in 0..3 {
            lockstep(
                &bench.program(&Params::with_dataset(dataset)),
                &format!("{bench}/ds{dataset}"),
            );
        }
    }
}

#[test]
fn iteration_variants_of_rspeed() {
    for iterations in [1, 4, 10] {
        lockstep(
            &Benchmark::Rspeed.program(&Params::with_iterations(iterations)),
            &format!("rspeed x{iterations}"),
        );
    }
}

#[test]
fn all_excerpts() {
    for bench in Benchmark::EXCERPT_SUBSET_A
        .iter()
        .chain(&Benchmark::EXCERPT_SUBSET_B)
    {
        for dataset in 0..3 {
            lockstep(
                &bench.excerpt(dataset),
                &format!("{bench}-excerpt/ds{dataset}"),
            );
        }
    }
}

#[test]
fn faithful_clocking_mode_is_semantically_identical() {
    // The per-cycle evaluation sweep used by the simulation-time
    // experiment must not change behaviour.
    let program = Benchmark::Intbench.program(&Params::default());
    let mut fast = Leon3::new(Leon3Config::default());
    fast.load(&program);
    let fast_outcome = fast.run(10_000_000);
    let mut faithful = Leon3::new(Leon3Config {
        faithful_clocking: true,
        ..Leon3Config::default()
    });
    faithful.load(&program);
    let faithful_outcome = faithful.run(10_000_000);
    assert_eq!(fast_outcome, faithful_outcome);
    assert_eq!(fast.cycles(), faithful.cycles());
    assert_eq!(fast.bus_trace(), faithful.bus_trace());
    assert_eq!(fast.architectural_state(), faithful.architectural_state());
}
