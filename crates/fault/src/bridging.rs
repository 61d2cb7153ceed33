//! Bridging-fault (short-circuit) campaigns.
//!
//! The reproduced paper's related work (Baraza et al.) notes that
//! multi-point fault models like short-circuits require the intrusive
//! *saboteur* technique in VHDL simulation. On this suite's substrate they
//! are a first-class overlay, so a bridging campaign runs exactly like a
//! stuck-at campaign: inject, run, compare the off-core write stream.
//!
//! Bridged pairs model physically adjacent wires: adjacent bits of one
//! net, or the same bit of two nets declared consecutively within one
//! functional unit.

use crate::campaign::{observe, GoldenRun};
use crate::result::FaultOutcome;
use crate::sites::Target;
use analysis::SplitMix64;
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::{Bridge, BridgeKind, NetId};
use sparc_asm::Program;

/// One bridging injection record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeRecord {
    /// The injected short.
    pub bridge: Bridge,
    /// What happened.
    pub outcome: FaultOutcome,
}

/// Enumerate candidate adjacent-wire pairs in a domain.
pub fn bridge_pairs(cpu: &Leon3, target: Target) -> Vec<((NetId, u8), (NetId, u8))> {
    let mut pairs = Vec::new();
    let mut previous: Option<(NetId, u8)> = None;
    for (id, meta) in cpu.pool().iter() {
        if !target.includes(meta.tag) {
            previous = None;
            continue;
        }
        // Adjacent bits within one net.
        for bit in 0..meta.width - 1 {
            pairs.push(((id, bit), (id, bit + 1)));
        }
        // MSB of the previous net to LSB of this one (routing adjacency).
        if let Some(prev) = previous {
            pairs.push((prev, (id, 0)));
        }
        previous = Some((id, meta.width - 1));
    }
    pairs
}

/// A bridging campaign over one workload and injection domain.
#[derive(Debug, Clone)]
pub struct BridgingCampaign {
    program: Program,
    target: Target,
    kinds: Vec<BridgeKind>,
    sample: Option<(usize, u64)>,
    config: Leon3Config,
}

impl BridgingCampaign {
    /// A campaign with both wired-AND and wired-OR shorts.
    pub fn new(program: Program, target: Target) -> BridgingCampaign {
        BridgingCampaign {
            program,
            target,
            kinds: vec![BridgeKind::WiredAnd, BridgeKind::WiredOr],
            sample: None,
            config: Leon3Config::default(),
        }
    }

    /// Restrict to a seeded sample of `n` pairs.
    #[must_use]
    pub fn with_sample(mut self, n: usize, seed: u64) -> BridgingCampaign {
        self.sample = Some((n, seed));
        self
    }

    /// The pair list this campaign will inject.
    pub fn pairs(&self) -> Vec<((NetId, u8), (NetId, u8))> {
        let reference = Leon3::new(self.config.clone());
        let mut all = bridge_pairs(&reference, self.target);
        if let Some((n, seed)) = self.sample {
            let mut rng = SplitMix64::new(seed);
            rng.shuffle(&mut all);
            all.truncate(n);
        }
        all
    }

    /// Run the campaign on `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or the golden run does not halt.
    pub fn run(&self, threads: usize) -> Vec<BridgeRecord> {
        assert!(threads > 0);
        let golden = GoldenRun::capture(&self.program, &self.config);
        let jobs: Vec<Bridge> = self
            .pairs()
            .into_iter()
            .flat_map(|(a, b)| {
                self.kinds.iter().map(move |&kind| Bridge {
                    a,
                    b,
                    kind,
                    from_cycle: 0,
                })
            })
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut records = vec![None; jobs.len()];
        let records_mutex = std::sync::Mutex::new(&mut records);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut cpu = Leon3::new(self.config.clone());
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= jobs.len() {
                            break;
                        }
                        let bridge = jobs[idx];
                        let outcome = run_one(&mut cpu, &self.program, &golden, bridge);
                        local.push((idx, BridgeRecord { bridge, outcome }));
                    }
                    let mut guard = records_mutex.lock().expect("no poisoned workers");
                    for (idx, record) in local {
                        guard[idx] = Some(record);
                    }
                });
            }
        });
        records
            .into_iter()
            .map(|r| r.expect("all jobs ran"))
            .collect()
    }
}

/// Classify one short the way a campaign classifies a fault injected at
/// cycle 0: run from reset, comparing the write stream online.
fn run_one(cpu: &mut Leon3, program: &Program, golden: &GoldenRun, bridge: Bridge) -> FaultOutcome {
    cpu.reset();
    cpu.load(program);
    cpu.inject_bridge(bridge);
    observe(cpu, golden, 0, 0, 0, None, None).outcome
}

/// `Pf` over a set of bridging records, optionally filtered by kind.
pub fn bridge_pf(records: &[BridgeRecord], kind: Option<BridgeKind>) -> f64 {
    let filtered: Vec<&BridgeRecord> = records
        .iter()
        .filter(|r| kind.is_none_or(|k| r.bridge.kind == k))
        .collect();
    if filtered.is_empty() {
        return 0.0;
    }
    filtered.iter().filter(|r| r.outcome.is_failure()).count() as f64 / filtered.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_asm::assemble;

    fn program() -> Program {
        assemble(
            r#"
            _start:
                set 0x40001000, %l0
                mov 7, %l1
                mov 0, %o0
            loop:
                add %o0, %l1, %o0
                st %o0, [%l0]
                subcc %l1, 1, %l1
                bne loop
                 nop
                halt
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn pair_enumeration_is_adjacent() {
        let cpu = Leon3::new(Leon3Config::default());
        let pairs = bridge_pairs(&cpu, Target::IntegerUnit);
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            if a.0 == b.0 {
                assert_eq!(a.1 + 1, b.1, "same-net pairs must be adjacent bits");
            } else {
                assert_eq!(b.1, 0, "cross-net pairs couple MSB to LSB");
            }
        }
    }

    #[test]
    fn campaign_runs_and_classifies() {
        let records = BridgingCampaign::new(program(), Target::IntegerUnit)
            .with_sample(25, 0xB71D)
            .run(2);
        assert_eq!(records.len(), 50); // 25 pairs x 2 wired kinds
        let pf = bridge_pf(&records, None);
        assert!((0.0..=1.0).contains(&pf));
        // A PC-bit bridge exists somewhere in the IU sample space; overall
        // some shorts must matter and some must not.
        let and_pf = bridge_pf(&records, Some(BridgeKind::WiredAnd));
        let or_pf = bridge_pf(&records, Some(BridgeKind::WiredOr));
        assert!((0.0..=1.0).contains(&and_pf));
        assert!((0.0..=1.0).contains(&or_pf));
    }

    #[test]
    fn records_match_the_recorded_sample() {
        // Intbench's IU under 200 sampled pairs reaches every outcome
        // class. The counts and the FNV-1a digest over the records'
        // `Debug` lines were recorded from this sample; any change to a
        // record changes the digest.
        let program = workloads::Benchmark::Intbench.program(&workloads::Params::default());
        let records = BridgingCampaign::new(program, Target::IntegerUnit)
            .with_sample(200, 0xB71D)
            .run(2);
        let mut counts = [0usize; 4];
        let mut digest = crate::journal::FNV_OFFSET;
        for r in &records {
            counts[match r.outcome {
                FaultOutcome::NoEffect => 0,
                FaultOutcome::Failure { .. } => 1,
                FaultOutcome::ErrorModeStop { .. } => 2,
                _ => 3,
            }] += 1;
            digest = crate::journal::fnv1a64(digest, format!("{r:?}\n").as_bytes());
        }
        assert_eq!(
            counts,
            [354, 38, 7, 1],
            "no effect / failure / error mode / hang"
        );
        assert_eq!(digest, 0x8380_f11e_063c_1abe);
    }

    #[test]
    fn deterministic_pair_sampling() {
        let a = BridgingCampaign::new(program(), Target::IntegerUnit)
            .with_sample(10, 3)
            .pairs();
        let b = BridgingCampaign::new(program(), Target::IntegerUnit)
            .with_sample(10, 3)
            .pairs();
        assert_eq!(a, b);
    }
}
