//! Light timing simulator: instruction latencies plus a direct-mapped
//! I/D cache hit/miss model.
//!
//! The paper deliberately uses only "little timing information (basically
//! instructions latency)" at the ISS level; this module mirrors that: no
//! pipeline modelling, just per-opcode latencies and cache penalties. The
//! cache geometry matches the RTL model's CMEM so miss statistics are
//! comparable across levels.

use crate::instrument::CacheStats;
use sparc_isa::Instr;

/// Geometry of a direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Number of lines (power of two).
    pub lines: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Extra cycles on a miss.
    pub miss_penalty: u32,
}

impl CacheSpec {
    /// The modelled Leon3 instruction cache: 4 KiB, 32-byte lines.
    pub fn leon3_icache() -> CacheSpec {
        CacheSpec {
            lines: 128,
            line_bytes: 32,
            miss_penalty: 8,
        }
    }

    /// The modelled Leon3 data cache: 4 KiB, 16-byte lines.
    pub fn leon3_dcache() -> CacheSpec {
        CacheSpec {
            lines: 256,
            line_bytes: 16,
            miss_penalty: 8,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.lines * self.line_bytes
    }

    /// Whether both sizes are powers of two, as the shift-and-mask
    /// indexing of [`CacheSpec::index_and_tag`] requires.
    pub fn is_power_of_two(&self) -> bool {
        self.lines.is_power_of_two() && self.line_bytes.is_power_of_two()
    }

    /// The line index and tag of `addr`, by shifts and masks (see
    /// [`CacheSpec::is_power_of_two`]).
    pub fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        let line = addr >> self.line_bytes.trailing_zeros();
        (
            line as usize & (self.lines - 1),
            line >> self.lines.trailing_zeros(),
        )
    }
}

/// A direct-mapped tag store (no data — the ISS keeps data in [`crate::Memory`];
/// only hit/miss behaviour is modelled here).
#[derive(Debug, Clone)]
pub struct CacheModel {
    spec: CacheSpec,
    tags: Vec<Option<u32>>,
    stats: CacheStats,
    /// ISS-side mirror of the RTL parity mechanism: one parity bit per
    /// line over the stored tag, regenerated on fill and checked on hit.
    /// The ISS has no injectable arrays, so a mismatch here can only mean
    /// the mirror itself is inconsistent — the counter exists so the
    /// ISS↔RTL correlation can assert it stays zero on golden runs.
    parity: Option<Vec<u8>>,
    parity_mismatches: u64,
}

fn tag_parity(tag: u32) -> u8 {
    // Even parity over the tag plus the implicit valid bit.
    ((tag.count_ones() + 1) & 1) as u8
}

impl CacheModel {
    /// An empty (all-invalid) cache.
    pub fn new(spec: CacheSpec) -> CacheModel {
        assert!(spec.is_power_of_two());
        CacheModel {
            spec,
            tags: vec![None; spec.lines],
            stats: CacheStats::default(),
            parity: None,
            parity_mismatches: 0,
        }
    }

    /// An empty cache with the per-line parity mirror enabled.
    pub fn with_parity(spec: CacheSpec) -> CacheModel {
        let mut model = CacheModel::new(spec);
        model.parity = Some(vec![0; spec.lines]);
        model
    }

    fn parity_check(&mut self, index: usize, tag: u32) {
        if let Some(parity) = &self.parity {
            if parity[index] != tag_parity(tag) {
                self.parity_mismatches += 1;
            }
        }
    }

    /// Look up `addr`, allocating on miss; returns `true` on hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let (index, tag) = self.spec.index_and_tag(addr);
        if self.tags[index] == Some(tag) {
            self.parity_check(index, tag);
            self.stats.hits += 1;
            true
        } else {
            self.tags[index] = Some(tag);
            if let Some(parity) = &mut self.parity {
                parity[index] = tag_parity(tag);
            }
            self.stats.misses += 1;
            false
        }
    }

    /// Look up `addr` without allocating (write-through, no-write-allocate
    /// stores); returns `true` on hit.
    pub fn probe(&mut self, addr: u32) -> bool {
        let (index, tag) = self.spec.index_and_tag(addr);
        let hit = self.tags[index] == Some(tag);
        if hit {
            self.parity_check(index, tag);
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Parity mismatches observed on hits (always zero unless the mirror
    /// is corrupted externally; see the field docs).
    pub fn parity_mismatches(&self) -> u64 {
        self.parity_mismatches
    }

    /// The geometry.
    pub fn spec(&self) -> CacheSpec {
        self.spec
    }
}

/// Cycle accounting for one run.
#[derive(Debug, Clone)]
pub struct Timing {
    cycles: u64,
    icache: CacheModel,
    dcache: CacheModel,
}

impl Timing {
    /// Timing model with the given cache geometries.
    pub fn new(icache: CacheSpec, dcache: CacheSpec) -> Timing {
        Timing::with_parity(icache, dcache, false)
    }

    /// Timing model with the per-line parity mirror optionally enabled on
    /// both caches. Parity is timing-neutral: hit/miss behaviour and cycle
    /// counts are identical either way.
    pub fn with_parity(icache: CacheSpec, dcache: CacheSpec, parity: bool) -> Timing {
        let build = if parity {
            CacheModel::with_parity
        } else {
            CacheModel::new
        };
        Timing {
            cycles: 0,
            icache: build(icache),
            dcache: build(dcache),
        }
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Add raw cycles (trap overhead, annulled slots, …).
    pub fn tick(&mut self, cycles: u32) {
        self.cycles += u64::from(cycles);
    }

    /// Account for an instruction fetch at `pc`.
    pub fn fetch(&mut self, pc: u32) {
        if !self.icache.access(pc) {
            self.cycles += u64::from(self.icache.spec.miss_penalty);
        }
    }

    /// Account for the execution latency of `instr`.
    pub fn execute(&mut self, instr: &Instr) {
        self.cycles += u64::from(instr.op.latency());
    }

    /// Account for a data-side load at `addr`.
    pub fn load(&mut self, addr: u32) {
        if !self.dcache.access(addr) {
            self.cycles += u64::from(self.dcache.spec.miss_penalty);
        }
    }

    /// Account for a data-side store at `addr` (write-through: the store
    /// always goes to the bus, the cache is only updated on hit).
    pub fn store(&mut self, addr: u32) {
        // Write-through, no-write-allocate: no extra penalty beyond the
        // store latency already charged, but the probe keeps hit/miss
        // statistics faithful.
        let _ = self.dcache.probe(addr);
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Total parity mismatches across both cache mirrors.
    pub fn parity_mismatches(&self) -> u64 {
        self.icache.parity_mismatches() + self.dcache.parity_mismatches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_isa::{Opcode, Operand2, Reg};

    #[test]
    fn direct_mapped_conflicts() {
        let spec = CacheSpec {
            lines: 4,
            line_bytes: 16,
            miss_penalty: 10,
        };
        let mut c = CacheModel::new(spec);
        assert!(!c.access(0x000)); // cold miss
        assert!(c.access(0x004)); // same line
        assert!(!c.access(0x040)); // same index (4 lines * 16B = 64B stride), conflict
        assert!(!c.access(0x000)); // evicted
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn probe_does_not_allocate() {
        let spec = CacheSpec {
            lines: 4,
            line_bytes: 16,
            miss_penalty: 10,
        };
        let mut c = CacheModel::new(spec);
        assert!(!c.probe(0x000));
        assert!(!c.probe(0x000)); // still a miss: probe must not fill
        c.access(0x000);
        assert!(c.probe(0x000));
    }

    #[test]
    fn fetch_miss_costs_penalty() {
        let mut t = Timing::new(
            CacheSpec {
                lines: 4,
                line_bytes: 16,
                miss_penalty: 7,
            },
            CacheSpec::leon3_dcache(),
        );
        t.fetch(0x100);
        assert_eq!(t.cycles(), 7);
        t.fetch(0x104);
        assert_eq!(t.cycles(), 7); // hit is free in this light model
    }

    #[test]
    fn execute_charges_latency() {
        let mut t = Timing::new(CacheSpec::leon3_icache(), CacheSpec::leon3_dcache());
        let div = Instr::alu(Opcode::Udiv, Reg::g(1), Reg::g(2), Operand2::imm(3));
        t.execute(&div);
        assert_eq!(t.cycles(), u64::from(Opcode::Udiv.latency()));
    }

    #[test]
    fn parity_mirror_is_timing_neutral_and_silent() {
        let mut plain = Timing::new(CacheSpec::leon3_icache(), CacheSpec::leon3_dcache());
        let mut mirrored =
            Timing::with_parity(CacheSpec::leon3_icache(), CacheSpec::leon3_dcache(), true);
        for t in [&mut plain, &mut mirrored] {
            for addr in (0..0x4000u32).step_by(4) {
                t.fetch(addr);
                t.load(addr.wrapping_mul(3));
                t.store(addr);
            }
        }
        assert_eq!(plain.cycles(), mirrored.cycles());
        assert_eq!(plain.icache_stats(), mirrored.icache_stats());
        assert_eq!(plain.dcache_stats(), mirrored.dcache_stats());
        assert_eq!(plain.parity_mismatches(), 0, "no mirror, no mismatches");
        assert_eq!(
            mirrored.parity_mismatches(),
            0,
            "fault-free runs never flag"
        );
    }

    #[test]
    fn leon3_specs_are_sane() {
        assert_eq!(CacheSpec::leon3_icache().capacity(), 4096);
        assert_eq!(CacheSpec::leon3_dcache().capacity(), 4096);
    }
}
