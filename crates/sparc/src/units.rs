//! Functional-unit taxonomy of the modelled microcontroller.
//!
//! The paper's per-unit diversity metric `D_m` and the area weights `α_m` of
//! its Eq. 1 are defined over *functional units*. This module fixes the unit
//! taxonomy shared by the ISA usage map ([`crate::Opcode::units`]), the RTL
//! model's net tagging and the correlation analysis.

use std::fmt;

/// A functional unit of the modelled Leon3-like microcontroller.
///
/// The first group belongs to the integer unit (IU), the second to the
/// cache memory (CMEM) — the two injection targets of the paper's Figures
/// 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Instruction fetch stage (PC datapath, fetch buffers).
    Fetch,
    /// Instruction decode stage (field extraction, control generation).
    Decode,
    /// Register-file access (read ports, window mapping, bypass muxes).
    RegFile,
    /// Adder/subtracter datapath of the ALU.
    AluAdd,
    /// Bitwise-logic datapath of the ALU (incl. `sethi` immediate path).
    AluLogic,
    /// Barrel shifter.
    Shift,
    /// Iterative multiply/divide unit.
    MulDiv,
    /// Branch resolution (condition evaluation, target adder).
    BranchUnit,
    /// Load/store unit (address/data alignment, size handling).
    Lsu,
    /// Special-register file (PSR, WIM, TBR, Y) and window control.
    Special,
    /// Exception/trap stage.
    Except,
    /// Write-back stage (result mux, regfile write port).
    WriteBack,
    /// Instruction-cache tag array and hit logic.
    ICacheTag,
    /// Instruction-cache data array.
    ICacheData,
    /// Data-cache tag array and hit logic.
    DCacheTag,
    /// Data-cache data array.
    DCacheData,
    /// Cache/bus controller (miss handling, write buffer, AMBA interface).
    CacheCtrl,
}

impl Unit {
    /// All units in declaration order.
    pub const ALL: [Unit; 17] = [
        Unit::Fetch,
        Unit::Decode,
        Unit::RegFile,
        Unit::AluAdd,
        Unit::AluLogic,
        Unit::Shift,
        Unit::MulDiv,
        Unit::BranchUnit,
        Unit::Lsu,
        Unit::Special,
        Unit::Except,
        Unit::WriteBack,
        Unit::ICacheTag,
        Unit::ICacheData,
        Unit::DCacheTag,
        Unit::DCacheData,
        Unit::CacheCtrl,
    ];

    /// Units belonging to the integer unit (IU injection target).
    pub const IU: [Unit; 12] = [
        Unit::Fetch,
        Unit::Decode,
        Unit::RegFile,
        Unit::AluAdd,
        Unit::AluLogic,
        Unit::Shift,
        Unit::MulDiv,
        Unit::BranchUnit,
        Unit::Lsu,
        Unit::Special,
        Unit::Except,
        Unit::WriteBack,
    ];

    /// Units belonging to the cache memory (CMEM injection target).
    pub const CMEM: [Unit; 5] = [
        Unit::ICacheTag,
        Unit::ICacheData,
        Unit::DCacheTag,
        Unit::DCacheData,
        Unit::CacheCtrl,
    ];

    /// This unit's position in [`Unit::ALL`] (a stable small index for
    /// bitset packing).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this unit is part of the integer unit.
    pub fn is_iu(self) -> bool {
        Unit::IU.contains(&self)
    }

    /// Whether this unit is part of the cache memory.
    pub fn is_cmem(self) -> bool {
        Unit::CMEM.contains(&self)
    }

    /// Short lowercase name used in net paths and reports.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Fetch => "fetch",
            Unit::Decode => "decode",
            Unit::RegFile => "regfile",
            Unit::AluAdd => "alu_add",
            Unit::AluLogic => "alu_logic",
            Unit::Shift => "shift",
            Unit::MulDiv => "muldiv",
            Unit::BranchUnit => "branch",
            Unit::Lsu => "lsu",
            Unit::Special => "special",
            Unit::Except => "except",
            Unit::WriteBack => "writeback",
            Unit::ICacheTag => "icache_tag",
            Unit::ICacheData => "icache_data",
            Unit::DCacheTag => "dcache_tag",
            Unit::DCacheData => "dcache_data",
            Unit::CacheCtrl => "cache_ctrl",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Unit`]s packed into a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnitSet(u32);

impl UnitSet {
    /// The empty set.
    pub const EMPTY: UnitSet = UnitSet(0);

    /// The set containing every unit.
    pub fn all() -> UnitSet {
        Unit::ALL.iter().fold(UnitSet::EMPTY, |s, &u| s.with(u))
    }

    /// This set plus `unit`.
    #[must_use]
    pub fn with(self, unit: Unit) -> UnitSet {
        UnitSet(self.0 | (1 << unit.index()))
    }

    /// Whether `unit` is in the set.
    pub fn contains(self, unit: Unit) -> bool {
        self.0 & (1 << unit.index()) != 0
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(self, other: UnitSet) -> UnitSet {
        UnitSet(self.0 | other.0)
    }

    /// Number of units in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the units in the set.
    pub fn iter(self) -> impl Iterator<Item = Unit> {
        Unit::ALL.into_iter().filter(move |&u| self.contains(u))
    }
}

impl FromIterator<Unit> for UnitSet {
    fn from_iter<I: IntoIterator<Item = Unit>>(iter: I) -> UnitSet {
        iter.into_iter().fold(UnitSet::EMPTY, UnitSet::with)
    }
}

impl fmt::Display for UnitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for u in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{u}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iu_and_cmem_partition_all() {
        for u in Unit::ALL {
            assert!(
                u.is_iu() ^ u.is_cmem(),
                "{u:?} must be in exactly one target"
            );
        }
        assert_eq!(Unit::IU.len() + Unit::CMEM.len(), Unit::ALL.len());
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, u) in Unit::ALL.into_iter().enumerate() {
            assert_eq!(u.index(), i, "{u:?}");
        }
    }

    #[test]
    fn set_operations() {
        let s = UnitSet::EMPTY.with(Unit::Fetch).with(Unit::Lsu);
        assert!(s.contains(Unit::Fetch));
        assert!(s.contains(Unit::Lsu));
        assert!(!s.contains(Unit::Shift));
        assert_eq!(s.len(), 2);
        let t: UnitSet = [Unit::Shift, Unit::Lsu].into_iter().collect();
        let u = s.union(t);
        assert_eq!(u.len(), 3);
        assert_eq!(u.iter().count(), 3);
    }

    #[test]
    fn all_set_has_everything() {
        let all = UnitSet::all();
        assert_eq!(all.len(), Unit::ALL.len());
        assert!(!all.is_empty());
        assert!(UnitSet::EMPTY.is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(Unit::AluAdd.to_string(), "alu_add");
        let s = UnitSet::EMPTY.with(Unit::Fetch).with(Unit::Decode);
        assert_eq!(s.to_string(), "{fetch,decode}");
    }
}
