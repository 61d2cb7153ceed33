//! Integer-unit opcodes (mnemonics), their classes, latencies and
//! functional-unit usage.

use crate::cond::Cond;
use crate::units::{Unit, UnitSet};

/// Broad behavioural class of an [`Opcode`].
///
/// Classes drive both the timing model of the ISS and the per-stage routing
/// of the RTL pipeline model; they are also the granularity at which the
/// workload generators balance instruction mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer addition/subtraction (incl. carry and tagged variants).
    Arith,
    /// Bitwise logic.
    Logic,
    /// Shift unit operations.
    Shift,
    /// Hardware multiply (incl. `mulscc` step).
    Mul,
    /// Hardware divide.
    Div,
    /// Loads from memory.
    Load,
    /// Stores to memory.
    Store,
    /// Atomic load-store / swap.
    Atomic,
    /// `sethi` immediate formation.
    Sethi,
    /// Conditional and unconditional branches (`bicc`).
    Branch,
    /// `call` / `jmpl` / `rett` control transfers.
    Jump,
    /// Register-window `save`/`restore`.
    Window,
    /// Reads/writes of PSR, WIM, TBR, Y and ASRs.
    Special,
    /// Conditional trap (`ticc`).
    Trap,
    /// `flush` / `unimp` and other miscellanea.
    Misc,
}

macro_rules! opcodes {
    ($( $variant:ident => ($mnem:expr, $class:ident) ),+ $(,)?) => {
        /// A SPARC V8 integer-unit mnemonic.
        ///
        /// One variant per mnemonic: instruction **diversity** — the paper's
        /// core metric — is defined as the number of distinct `Opcode`
        /// values executed by a workload, so the enum granularity here *is*
        /// the metric's granularity.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum Opcode {
            $($variant),+
        }

        impl Opcode {
            /// All opcodes, in a fixed order (useful for histograms).
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant),+];

            /// Number of opcodes.
            pub const COUNT: usize = Opcode::ALL.len();

            /// The assembler mnemonic, e.g. `"add"` or `"bne"`.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $mnem),+
                }
            }

            /// The behavioural class of this opcode.
            pub fn class(self) -> OpClass {
                match self {
                    $(Opcode::$variant => OpClass::$class),+
                }
            }
        }
    };
}

opcodes! {
    // Format 1.
    Call => ("call", Jump),
    // Format 2.
    Sethi => ("sethi", Sethi),
    Unimp => ("unimp", Misc),
    Ba => ("ba", Branch), Bn => ("bn", Branch),
    Bne => ("bne", Branch), Be => ("be", Branch),
    Bg => ("bg", Branch), Ble => ("ble", Branch),
    Bge => ("bge", Branch), Bl => ("bl", Branch),
    Bgu => ("bgu", Branch), Bleu => ("bleu", Branch),
    Bcc => ("bcc", Branch), Bcs => ("bcs", Branch),
    Bpos => ("bpos", Branch), Bneg => ("bneg", Branch),
    Bvc => ("bvc", Branch), Bvs => ("bvs", Branch),
    // Format 3, op = 2 (arithmetic / logic / control).
    Add => ("add", Arith), Addcc => ("addcc", Arith),
    Addx => ("addx", Arith), Addxcc => ("addxcc", Arith),
    Sub => ("sub", Arith), Subcc => ("subcc", Arith),
    Subx => ("subx", Arith), Subxcc => ("subxcc", Arith),
    Taddcc => ("taddcc", Arith), Tsubcc => ("tsubcc", Arith),
    TaddccTv => ("taddcctv", Arith), TsubccTv => ("tsubcctv", Arith),
    And => ("and", Logic), Andcc => ("andcc", Logic),
    Andn => ("andn", Logic), Andncc => ("andncc", Logic),
    Or => ("or", Logic), Orcc => ("orcc", Logic),
    Orn => ("orn", Logic), Orncc => ("orncc", Logic),
    Xor => ("xor", Logic), Xorcc => ("xorcc", Logic),
    Xnor => ("xnor", Logic), Xnorcc => ("xnorcc", Logic),
    Sll => ("sll", Shift), Srl => ("srl", Shift), Sra => ("sra", Shift),
    Mulscc => ("mulscc", Mul),
    Umul => ("umul", Mul), Umulcc => ("umulcc", Mul),
    Smul => ("smul", Mul), Smulcc => ("smulcc", Mul),
    Udiv => ("udiv", Div), Udivcc => ("udivcc", Div),
    Sdiv => ("sdiv", Div), Sdivcc => ("sdivcc", Div),
    RdY => ("rd %y", Special), RdAsr => ("rd %asr", Special),
    RdPsr => ("rd %psr", Special), RdWim => ("rd %wim", Special),
    RdTbr => ("rd %tbr", Special),
    WrY => ("wr %y", Special), WrAsr => ("wr %asr", Special),
    WrPsr => ("wr %psr", Special), WrWim => ("wr %wim", Special),
    WrTbr => ("wr %tbr", Special),
    Jmpl => ("jmpl", Jump), Rett => ("rett", Jump),
    Ticc => ("t", Trap),
    Flush => ("flush", Misc),
    Save => ("save", Window), Restore => ("restore", Window),
    // Format 3, op = 3 (memory).
    Ld => ("ld", Load), Ldub => ("ldub", Load), Lduh => ("lduh", Load),
    Ldd => ("ldd", Load), Ldsb => ("ldsb", Load), Ldsh => ("ldsh", Load),
    St => ("st", Store), Stb => ("stb", Store), Sth => ("sth", Store),
    Std => ("std", Store),
    Ldstub => ("ldstub", Atomic), Swap => ("swap", Atomic),
}

impl Opcode {
    /// This opcode's position in [`Opcode::ALL`], for dense per-opcode
    /// tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this opcode is a `bicc` conditional branch.
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Whether this opcode reads memory (loads and atomics).
    pub fn reads_memory(self) -> bool {
        matches!(self.class(), OpClass::Load | OpClass::Atomic)
    }

    /// Whether this opcode writes memory (stores and atomics).
    pub fn writes_memory(self) -> bool {
        matches!(self.class(), OpClass::Store | OpClass::Atomic)
    }

    /// Whether this opcode accesses memory at all.
    pub fn accesses_memory(self) -> bool {
        self.reads_memory() || self.writes_memory()
    }

    /// Whether the instruction updates the integer condition codes.
    pub fn sets_icc(self) -> bool {
        matches!(
            self,
            Opcode::Addcc
                | Opcode::Addxcc
                | Opcode::Subcc
                | Opcode::Subxcc
                | Opcode::Taddcc
                | Opcode::Tsubcc
                | Opcode::TaddccTv
                | Opcode::TsubccTv
                | Opcode::Andcc
                | Opcode::Andncc
                | Opcode::Orcc
                | Opcode::Orncc
                | Opcode::Xorcc
                | Opcode::Xnorcc
                | Opcode::Umulcc
                | Opcode::Smulcc
                | Opcode::Udivcc
                | Opcode::Sdivcc
                | Opcode::Mulscc
                | Opcode::WrPsr
        )
    }

    /// The branch condition encoded by a `bicc` opcode, if any.
    pub fn branch_cond(self) -> Option<Cond> {
        Some(match self {
            Opcode::Ba => Cond::Always,
            Opcode::Bn => Cond::Never,
            Opcode::Bne => Cond::NotEqual,
            Opcode::Be => Cond::Equal,
            Opcode::Bg => Cond::Greater,
            Opcode::Ble => Cond::LessOrEqual,
            Opcode::Bge => Cond::GreaterOrEqual,
            Opcode::Bl => Cond::Less,
            Opcode::Bgu => Cond::GreaterUnsigned,
            Opcode::Bleu => Cond::LessOrEqualUnsigned,
            Opcode::Bcc => Cond::CarryClear,
            Opcode::Bcs => Cond::CarrySet,
            Opcode::Bpos => Cond::Positive,
            Opcode::Bneg => Cond::Negative,
            Opcode::Bvc => Cond::OverflowClear,
            Opcode::Bvs => Cond::OverflowSet,
            _ => return None,
        })
    }

    /// The `bicc` opcode for a branch condition.
    pub fn from_branch_cond(cond: Cond) -> Opcode {
        match cond {
            Cond::Always => Opcode::Ba,
            Cond::Never => Opcode::Bn,
            Cond::NotEqual => Opcode::Bne,
            Cond::Equal => Opcode::Be,
            Cond::Greater => Opcode::Bg,
            Cond::LessOrEqual => Opcode::Ble,
            Cond::GreaterOrEqual => Opcode::Bge,
            Cond::Less => Opcode::Bl,
            Cond::GreaterUnsigned => Opcode::Bgu,
            Cond::LessOrEqualUnsigned => Opcode::Bleu,
            Cond::CarryClear => Opcode::Bcc,
            Cond::CarrySet => Opcode::Bcs,
            Cond::Positive => Opcode::Bpos,
            Cond::Negative => Opcode::Bneg,
            Cond::OverflowClear => Opcode::Bvc,
            Cond::OverflowSet => Opcode::Bvs,
        }
    }

    /// Leon3-like execution latency in cycles (cache hits assumed).
    ///
    /// These numbers drive the light timing simulator of the ISS and are the
    /// per-instruction occupancy of the RTL model's execute stage.
    pub fn latency(self) -> u32 {
        match self.class() {
            OpClass::Mul => {
                if self == Opcode::Mulscc {
                    1
                } else {
                    4
                }
            }
            OpClass::Div => 35,
            OpClass::Load => {
                if self == Opcode::Ldd {
                    3
                } else {
                    2
                }
            }
            OpClass::Store => {
                if self == Opcode::Std {
                    4
                } else {
                    3
                }
            }
            OpClass::Atomic => 5,
            OpClass::Jump => {
                if self == Opcode::Call {
                    1
                } else {
                    3
                }
            }
            OpClass::Trap => 4,
            _ => 1,
        }
    }

    /// The set of integer-unit functional units this opcode exercises.
    ///
    /// Every instruction flows through fetch, decode, the register file and
    /// write-back (the paper's observation that those stages are uniformly
    /// exercised); class-specific units are added on top. Per-unit
    /// instruction diversity `D_m` counts unique opcodes whose `units()`
    /// contain unit `m`.
    pub fn units(self) -> UnitSet {
        let mut set = UnitSet::EMPTY
            .with(Unit::Fetch)
            .with(Unit::Decode)
            .with(Unit::RegFile)
            .with(Unit::WriteBack);
        match self.class() {
            OpClass::Arith => set = set.with(Unit::AluAdd),
            OpClass::Logic => set = set.with(Unit::AluLogic),
            OpClass::Shift => set = set.with(Unit::Shift),
            OpClass::Mul | OpClass::Div => set = set.with(Unit::MulDiv),
            OpClass::Load | OpClass::Store | OpClass::Atomic => {
                // Address generation goes through the adder.
                set = set.with(Unit::AluAdd).with(Unit::Lsu);
            }
            OpClass::Sethi => set = set.with(Unit::AluLogic),
            OpClass::Branch => set = set.with(Unit::BranchUnit),
            OpClass::Jump => set = set.with(Unit::BranchUnit).with(Unit::AluAdd),
            OpClass::Window => set = set.with(Unit::AluAdd).with(Unit::Special),
            OpClass::Special => set = set.with(Unit::Special),
            OpClass::Trap => set = set.with(Unit::Except).with(Unit::Special),
            OpClass::Misc => {}
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_opcodes_have_unique_mnemonics_within_format() {
        // `rd %y` etc. are intentionally distinct strings, so full-mnemonic
        // uniqueness holds across the whole enum.
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(
                seen.insert(op.mnemonic()),
                "duplicate mnemonic {}",
                op.mnemonic()
            );
        }
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
        }
    }

    #[test]
    fn branch_cond_roundtrip() {
        for &op in Opcode::ALL {
            if let Some(cond) = op.branch_cond() {
                assert_eq!(Opcode::from_branch_cond(cond), op);
            }
        }
    }

    #[test]
    fn every_opcode_uses_fetch_and_decode() {
        for &op in Opcode::ALL {
            assert!(op.units().contains(Unit::Fetch), "{op:?}");
            assert!(op.units().contains(Unit::Decode), "{op:?}");
        }
    }

    #[test]
    fn memory_classes_use_lsu() {
        for &op in Opcode::ALL {
            assert_eq!(
                op.accesses_memory(),
                op.units().contains(Unit::Lsu),
                "{op:?}"
            );
        }
    }

    #[test]
    fn latencies_positive() {
        for &op in Opcode::ALL {
            assert!(op.latency() >= 1);
        }
    }

    #[test]
    fn branch_count_is_sixteen() {
        let n = Opcode::ALL.iter().filter(|o| o.is_branch()).count();
        assert_eq!(n, 16);
    }

    #[test]
    fn sets_icc_iff_cc_suffix_or_special() {
        for &op in Opcode::ALL {
            let m = op.mnemonic();
            if m.ends_with("cc") && !m.starts_with('b') && op != Opcode::Bcc {
                assert!(op.sets_icc(), "{op:?} should set icc");
            }
        }
        assert!(Opcode::Mulscc.sets_icc());
        assert!(!Opcode::Add.sets_icc());
        assert!(!Opcode::Bcc.sets_icc());
    }
}
