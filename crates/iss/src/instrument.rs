//! Per-run instrumentation: the data the paper's method extracts from the
//! ISS.
//!
//! The headline metric is **instruction diversity** — the number of unique
//! opcodes executed ([`RunStats::diversity`]) — plus its per-functional-unit
//! refinement `D_m` ([`RunStats::unit_diversity`]).

use sparc_isa::{Instr, Opcode, Unit};
use std::collections::BTreeMap;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Execution counters for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Executed (non-annulled) instructions.
    pub instructions: u64,
    /// Annulled delay slots (fetched, not executed).
    pub annulled: u64,
    /// Traps taken.
    pub traps: u64,
    /// Executed instructions that access memory (the paper's "Memory" row
    /// of Table 1).
    pub memory_instructions: u64,
    /// Executed instructions processed by the integer unit — every
    /// non-annulled instruction (the paper's "Integer Unit" row).
    pub iu_instructions: u64,
    /// How many times each opcode was executed, indexed by
    /// [`Opcode::index`].
    opcode_counts: [u64; Opcode::COUNT],
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            instructions: 0,
            annulled: 0,
            traps: 0,
            memory_instructions: 0,
            iu_instructions: 0,
            opcode_counts: [0; Opcode::COUNT],
        }
    }
}

impl RunStats {
    /// Record one executed instruction.
    pub fn record(&mut self, instr: &Instr) {
        self.instructions += 1;
        self.iu_instructions += 1;
        if instr.op.accesses_memory() {
            self.memory_instructions += 1;
        }
        self.opcode_counts[instr.op.index()] += 1;
    }

    /// Count `times` more repetitions of everything counted since
    /// `earlier`, a copy of these counters taken before: the counts after
    /// a stretch of execution that repeats exactly.
    ///
    /// # Panics
    ///
    /// Panics if a counter of `earlier` exceeds this one's (it was not
    /// taken from this run before now), or a count overflows.
    pub fn repeat_since(&mut self, earlier: &RunStats, times: u64) {
        let repeat = |now: &mut u64, then: u64| {
            let more = now
                .checked_sub(then)
                .expect("the earlier counts were taken before")
                .checked_mul(times)
                .expect("repeated count fits");
            *now = now.checked_add(more).expect("repeated count fits");
        };
        repeat(&mut self.instructions, earlier.instructions);
        repeat(&mut self.annulled, earlier.annulled);
        repeat(&mut self.traps, earlier.traps);
        repeat(&mut self.memory_instructions, earlier.memory_instructions);
        repeat(&mut self.iu_instructions, earlier.iu_instructions);
        for (now, &then) in self.opcode_counts.iter_mut().zip(&earlier.opcode_counts) {
            repeat(now, then);
        }
    }

    /// Executed opcodes with their counts, in [`Opcode::ALL`] order.
    fn executed(&self) -> impl Iterator<Item = (Opcode, u64)> + '_ {
        Opcode::ALL
            .iter()
            .zip(&self.opcode_counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(&op, &count)| (op, count))
    }

    /// How many times each executed opcode was executed.
    pub fn opcode_histogram(&self) -> BTreeMap<Opcode, u64> {
        self.executed().collect()
    }

    /// How many instruction executions touched `unit`.
    pub fn unit_accesses(&self, unit: Unit) -> u64 {
        self.executed()
            .filter(|(op, _)| op.units().contains(unit))
            .map(|(_, count)| count)
            .sum()
    }

    /// Instruction diversity: the number of unique opcodes executed.
    ///
    /// This is the paper's core metric — under its `Pf = f(Is)` hypothesis
    /// for permanent faults, diversity (not instruction count, order or
    /// input data) determines the fault-to-failure probability.
    pub fn diversity(&self) -> usize {
        self.executed().count()
    }

    /// Per-unit diversity `D_m`: unique opcodes whose unit-usage set
    /// contains `unit`.
    pub fn unit_diversity(&self, unit: Unit) -> usize {
        self.executed()
            .filter(|(op, _)| op.units().contains(unit))
            .count()
    }

    /// The set of opcodes executed, in a stable order.
    pub fn executed_opcodes(&self) -> impl Iterator<Item = Opcode> + '_ {
        self.executed().map(|(op, _)| op)
    }

    /// The opcode histogram keyed by mnemonic, sorted by mnemonic — the
    /// wire form a predictor service accepts: an ISS run's diversity
    /// travels as names, not as this workspace's enum ordinals.
    pub fn named_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut entries: Vec<(&'static str, u64)> = self
            .executed()
            .map(|(op, count)| (op.mnemonic(), count))
            .collect();
        entries.sort_unstable();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_isa::{Operand2, Reg};

    fn alu(op: Opcode) -> Instr {
        Instr::alu(op, Reg::g(1), Reg::g(2), Operand2::imm(1))
    }

    #[test]
    fn diversity_counts_unique_opcodes() {
        let mut stats = RunStats::default();
        for _ in 0..10 {
            stats.record(&alu(Opcode::Add));
        }
        stats.record(&alu(Opcode::Sub));
        stats.record(&Instr::mem(
            Opcode::Ld,
            Reg::g(1),
            Reg::g(2),
            Operand2::imm(0),
        ));
        assert_eq!(stats.instructions, 12);
        assert_eq!(stats.diversity(), 3);
        assert_eq!(stats.memory_instructions, 1);
        assert_eq!(stats.iu_instructions, 12);
    }

    #[test]
    fn unit_diversity_narrows_by_unit() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Sub));
        stats.record(&alu(Opcode::And));
        stats.record(&alu(Opcode::Sll));
        // Adder sees add/sub; logic sees and; shift sees sll; fetch sees all.
        assert_eq!(stats.unit_diversity(Unit::AluAdd), 2);
        assert_eq!(stats.unit_diversity(Unit::AluLogic), 1);
        assert_eq!(stats.unit_diversity(Unit::Shift), 1);
        assert_eq!(stats.unit_diversity(Unit::Fetch), 4);
        assert_eq!(stats.unit_diversity(Unit::MulDiv), 0);
    }

    #[test]
    fn named_histogram_is_sorted_by_mnemonic() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Sub));
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Add));
        let named = stats.named_histogram();
        assert_eq!(named, vec![("add", 2), ("sub", 1)]);
        assert_eq!(named.len(), stats.diversity());
    }

    #[test]
    fn unit_accesses_accumulate() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Add));
        assert_eq!(stats.unit_accesses(Unit::AluAdd), 2);
        assert_eq!(stats.unit_accesses(Unit::Fetch), 2);
        assert_eq!(stats.unit_accesses(Unit::Shift), 0);
    }

    #[test]
    fn unit_accesses_match_per_instruction_accumulation() {
        // Every opcode once, opcode `i` repeated `i % 5` more times: the
        // computed counts must equal a per-instruction tally of each
        // executed opcode's units.
        let mut stats = RunStats::default();
        let mut tally: BTreeMap<Unit, u64> = BTreeMap::new();
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            for _ in 0..=i % 5 {
                stats.record(&alu(op));
                for unit in op.units().iter() {
                    *tally.entry(unit).or_insert(0) += 1;
                }
            }
        }
        for unit in Unit::ALL {
            assert_eq!(
                stats.unit_accesses(unit),
                tally.get(&unit).copied().unwrap_or(0),
                "{unit}"
            );
        }
        assert_eq!(stats.diversity(), Opcode::COUNT);
    }

    #[test]
    fn cache_stats_ratios() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
