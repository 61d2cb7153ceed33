//! The paper's Eq. 1: per-unit area weights and their combination.

use leon3_model::Leon3;
use sparc_isa::Unit;
use std::collections::BTreeMap;

/// The `α_m` weights of the paper's Eq. 1: each unit's fraction of the
/// processor's injectable nodes (the paper's area proxy), over the units
/// selected by `filter`.
pub fn area_weights(cpu: &Leon3, filter: impl Fn(Unit) -> bool) -> BTreeMap<Unit, f64> {
    let mut counts: BTreeMap<Unit, usize> = BTreeMap::new();
    for (_, meta) in cpu.pool().iter() {
        if filter(meta.tag) {
            *counts.entry(meta.tag).or_insert(0) += usize::from(meta.width);
        }
    }
    let total: usize = counts.values().sum();
    counts
        .into_iter()
        .map(|(u, c)| {
            (
                u,
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                },
            )
        })
        .collect()
}

/// Eq. 1 of the paper: `Pf = Σ_m α_m · Pf_m`.
///
/// Units present in `per_unit_pf` but not in `weights` (or vice versa)
/// contribute nothing, matching the paper's treatment of unexercised
/// units.
pub fn weighted_pf(weights: &BTreeMap<Unit, f64>, per_unit_pf: &BTreeMap<Unit, f64>) -> f64 {
    weights
        .iter()
        .filter_map(|(u, &alpha)| per_unit_pf.get(u).map(|&pf| alpha * pf))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leon3_model::Leon3Config;

    #[test]
    fn area_weights_sum_to_one() {
        let cpu = Leon3::new(Leon3Config::default());
        let iu = area_weights(&cpu, Unit::is_iu);
        let total: f64 = iu.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The register file dominates the IU.
        assert!(iu[&Unit::RegFile] > 0.5);
        let cmem = area_weights(&cpu, Unit::is_cmem);
        assert!(cmem[&Unit::DCacheData] > 0.3);
    }

    #[test]
    fn weighted_pf_combines() {
        let weights: BTreeMap<Unit, f64> = [(Unit::Fetch, 0.25), (Unit::RegFile, 0.75)]
            .into_iter()
            .collect();
        let pf: BTreeMap<Unit, f64> =
            [(Unit::Fetch, 0.4), (Unit::RegFile, 0.1), (Unit::Shift, 0.9)]
                .into_iter()
                .collect();
        let combined = weighted_pf(&weights, &pf);
        assert!((combined - (0.25 * 0.4 + 0.75 * 0.1)).abs() < 1e-12);
    }
}
