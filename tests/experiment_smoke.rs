//! End-to-end smoke tests of the experiment drivers at tiny sample sizes:
//! structure, value ranges and the headline qualitative claims.

use correlation::experiments::{fig4, fig7, fig_campaign, table1, ExperimentConfig, TemporalStudy};
use fault_inject::Target;
use rtl_sim::FaultKind;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        sample_per_campaign: 25,
        seed: 0x5EED,
        threads: 2,
    }
}

#[test]
fn table1_reproduces_the_paper_shape() {
    let t = table1();
    let auto: Vec<_> = t.rows.iter().take(4).collect();
    let synth: Vec<_> = t.rows.iter().skip(4).collect();
    // Automotive: high near-identical diversity; synthetic: clearly lower.
    let auto_min = auto.iter().map(|r| r.diversity).min().unwrap();
    let auto_max = auto.iter().map(|r| r.diversity).max().unwrap();
    assert!(auto_max - auto_min <= 3);
    for row in &synth {
        assert!(row.diversity + 10 <= auto_min, "{}", row.benchmark);
    }
    // intbench is the shortest by far (paper: 2621 vs 75k+).
    let intbench = t
        .rows
        .iter()
        .find(|r| r.benchmark.name() == "intbench")
        .unwrap();
    assert!(t.rows.iter().all(|r| r.total >= intbench.total));
}

#[test]
fn fig4_pf_flat_latency_grows() {
    let f4 = fig4(&tiny());
    assert_eq!(f4.iterations, vec![2, 4, 10]);
    // Pf flat within a few pp (same fault list across variants).
    let max = f4.pf.iter().copied().fold(0.0f64, f64::max);
    let min = f4.pf.iter().copied().fold(1.0f64, f64::min);
    assert!(
        (max - min) * 100.0 <= 8.0,
        "Pf spread too large: {:?}",
        f4.pf
    );
    // Max latency strictly grows with iteration count.
    assert!(
        f4.max_latency_us[0] < f4.max_latency_us[2],
        "latency did not grow: {:?}",
        f4.max_latency_us
    );
}

#[test]
fn fig5_fig7_correlation_shape() {
    let config = ExperimentConfig {
        sample_per_campaign: 60,
        ..tiny()
    };
    let f5 = fig_campaign(&config, Target::IntegerUnit);
    // Automotive flat-ish; synthetic lower (SA1).
    let sa1 = |name: &str| {
        f5.rows
            .iter()
            .find(|r| r.benchmark.name() == name)
            .map(|r| r.pf[0])
            .unwrap()
    };
    let auto_mean = (sa1("puwmod") + sa1("canrdr") + sa1("ttsprk") + sa1("rspeed")) / 4.0;
    assert!(
        sa1("membench") < auto_mean && sa1("intbench") < auto_mean,
        "synthetic should sit below automotive"
    );
    // Temporal: ttsprk vs puwmod close for every model.
    let temporal = TemporalStudy::from_fig5(&f5);
    assert!(
        temporal.max_delta_pp() <= 10.0,
        "{}",
        temporal.max_delta_pp()
    );

    // Fig 7 at the same config: the six kernels plus two excerpts. Sites
    // do not depend on the kind list, so each kernel's stuck-at-1 Pf is
    // exactly its Fig. 5 bar.
    let f7 = fig7(&config);
    assert_eq!(f7.fit.points.len(), 8);
    for row in &f5.rows {
        let point = f7
            .fit
            .points
            .iter()
            .find(|p| p.label == row.benchmark.name())
            .unwrap_or_else(|| panic!("{} missing from Fig 7", row.benchmark));
        assert_eq!(point.pf, row.pf[0], "{}", row.benchmark);
    }
    let reg = f7.fit.model.regression();
    assert!(reg.logarithmic);
    assert!(
        reg.slope > 0.0,
        "diversity must correlate positively: {reg}"
    );
}

#[test]
fn cmem_campaign_structure() {
    let f6 = fig_campaign(&tiny(), Target::CacheMemory);
    assert_eq!(f6.rows.len(), 6);
    for row in &f6.rows {
        for (i, _) in FaultKind::ALL.iter().enumerate() {
            assert!((0.0..=1.0).contains(&row.pf[i]));
        }
    }
    // intbench barely touches memory: lowest CMEM vulnerability (SA1).
    let sa1: Vec<(f64, &str)> = f6
        .rows
        .iter()
        .map(|r| (r.pf[0], r.benchmark.name()))
        .collect();
    let intbench = sa1.iter().find(|(_, n)| *n == "intbench").unwrap().0;
    for &(pf, name) in &sa1 {
        if name != "intbench" {
            assert!(intbench <= pf + 0.02, "intbench {intbench} vs {name} {pf}");
        }
    }
}
