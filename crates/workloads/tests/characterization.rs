//! Every workload must assemble, halt, and exhibit the Table 1 shape:
//! automotive benchmarks with high near-identical diversity, synthetic
//! benchmarks with low diversity, excerpts with exactly the subset's
//! instruction-type counts.

use sparc_iss::{Iss, IssConfig, RunOutcome};
use workloads::{characterize, Benchmark, Params};

#[test]
fn all_benchmarks_assemble_and_halt() {
    for bench in Benchmark::ALL {
        let c = characterize(bench, &Params::default());
        assert!(c.total > 1000, "{bench} too short: {}", c.total);
        assert_eq!(c.iu, c.total, "{bench}: every instruction passes the IU");
        assert!(c.memory > 0, "{bench} performs no memory accesses");
    }
}

#[test]
fn automotive_diversity_high_and_nearly_identical() {
    let divs: Vec<(Benchmark, usize)> = Benchmark::TABLE1_AUTOMOTIVE
        .iter()
        .map(|&b| (b, characterize(b, &Params::default()).diversity))
        .collect();
    for &(b, d) in &divs {
        assert!(
            (40..=55).contains(&d),
            "{b} diversity {d} outside the Table 1 envelope"
        );
    }
    let max = divs.iter().map(|&(_, d)| d).max().unwrap();
    let min = divs.iter().map(|&(_, d)| d).min().unwrap();
    assert!(
        max - min <= 3,
        "automotive diversities spread too far: {divs:?}"
    );
}

#[test]
fn synthetic_diversity_low() {
    let mem = characterize(Benchmark::Membench, &Params::default());
    let int = characterize(Benchmark::Intbench, &Params::default());
    assert!(
        (14..=24).contains(&mem.diversity),
        "membench diversity {} outside envelope",
        mem.diversity
    );
    assert!(
        (14..=24).contains(&int.diversity),
        "intbench diversity {} outside envelope",
        int.diversity
    );
    // Synthetic diversity must sit clearly below automotive diversity.
    let auto_min = Benchmark::TABLE1_AUTOMOTIVE
        .iter()
        .map(|&b| characterize(b, &Params::default()).diversity)
        .min()
        .unwrap();
    assert!(mem.diversity + 10 <= auto_min);
    assert!(int.diversity + 10 <= auto_min);
}

#[test]
fn membench_is_memory_heavy_intbench_is_not() {
    let mem = characterize(Benchmark::Membench, &Params::default());
    let int = characterize(Benchmark::Intbench, &Params::default());
    let mem_ratio = mem.memory as f64 / mem.total as f64;
    let int_ratio = int.memory as f64 / int.total as f64;
    assert!(mem_ratio > 0.15, "membench memory ratio {mem_ratio}");
    assert!(int_ratio < 0.05, "intbench memory ratio {int_ratio}");
}

#[test]
fn iterations_scale_instruction_count() {
    let two = characterize(Benchmark::Rspeed, &Params::with_iterations(2));
    let ten = characterize(Benchmark::Rspeed, &Params::with_iterations(10));
    let ratio = ten.total as f64 / two.total as f64;
    assert!((4.0..=6.0).contains(&ratio), "10/2 iteration ratio {ratio}");
    // Diversity must NOT change with iterations (the paper's Fig. 4 core
    // assumption).
    assert_eq!(two.diversity, ten.diversity);
}

#[test]
fn datasets_change_data_not_code() {
    for bench in Benchmark::TABLE1_AUTOMOTIVE {
        let a = characterize(bench, &Params::with_dataset(0));
        let b = characterize(bench, &Params::with_dataset(1));
        // Same diversity (identical code paths vocabulary)…
        assert_eq!(a.diversity, b.diversity, "{bench}");
        // …and closely similar dynamic length.
        let ratio = a.total as f64 / b.total as f64;
        assert!((0.9..=1.1).contains(&ratio), "{bench}: {ratio}");
    }
}

#[test]
fn excerpt_subset_a_has_8_types() {
    for bench in Benchmark::EXCERPT_SUBSET_A {
        for dataset in 0..3 {
            let program = bench.excerpt(dataset);
            let mut iss = Iss::new(IssConfig::default());
            iss.load(&program);
            let outcome = iss.run(1_000_000);
            assert!(
                matches!(outcome, RunOutcome::Halted { .. }),
                "{bench}/{dataset}"
            );
            assert_eq!(
                iss.stats().diversity(),
                8,
                "{bench}/{dataset}: {:?}",
                iss.stats().executed_opcodes().collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn excerpt_subset_b_has_11_types() {
    for bench in Benchmark::EXCERPT_SUBSET_B {
        for dataset in 0..3 {
            let program = bench.excerpt(dataset);
            let mut iss = Iss::new(IssConfig::default());
            iss.load(&program);
            let outcome = iss.run(1_000_000);
            assert!(
                matches!(outcome, RunOutcome::Halted { .. }),
                "{bench}/{dataset}"
            );
            assert_eq!(
                iss.stats().diversity(),
                11,
                "{bench}/{dataset}: {:?}",
                iss.stats().executed_opcodes().collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn subset_code_identical_within_subset() {
    // The paper: "all three applications within a subset have identical
    // code" — so the text segments must match, only data differs.
    let texts: Vec<Vec<u8>> = Benchmark::EXCERPT_SUBSET_A
        .iter()
        .map(|&b| {
            let p = b.excerpt(0);
            p.segments[0].bytes.clone()
        })
        .collect();
    // The first segment starts with the code; compare the instruction
    // prefix up to the first data label (input_rom is after the code).
    let code_len = 21 * 4; // the shared template's code (before data)
    assert_eq!(&texts[0][..code_len], &texts[1][..code_len]);
    assert_eq!(&texts[1][..code_len], &texts[2][..code_len]);
}

#[test]
fn ttsprk_and_puwmod_share_diversity_for_temporal_study() {
    // The paper's temporal-behaviour experiment needs two benchmarks with
    // the same diversity but different instruction order.
    let tt = characterize(Benchmark::Ttsprk, &Params::default());
    let pw = characterize(Benchmark::Puwmod, &Params::default());
    assert!(
        tt.diversity.abs_diff(pw.diversity) <= 1,
        "ttsprk {} vs puwmod {}",
        tt.diversity,
        pw.diversity
    );
    // Different dynamic profiles (order/frequency differ).
    assert_ne!(tt.stats.opcode_histogram(), pw.stats.opcode_histogram());
}
