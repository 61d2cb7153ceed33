//! Fault models over nets: the paper's permanent models plus the
//! suite's transient and time-varying extensions.

use crate::net::NetId;
use std::fmt;

/// The fault models: the reproduced paper's three *permanent* models
/// (§4.1), the transient bit-flip it defers to future work, and two
/// time-varying extensions (duty-cycled intermittent stuck-at and a
/// burst train of upsets) motivated by attack-style and time-windowed
/// injection campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// The bit is forced to logic 0 (permanent).
    StuckAt0,
    /// The bit is forced to logic 1 (permanent).
    StuckAt1,
    /// The driver is disconnected; the net holds the value it carried at
    /// the injection instant (permanent).
    OpenLine,
    /// A single-event upset: the stored bit flips once at the injection
    /// instant and the net behaves normally afterwards. This is the
    /// *transient* model the paper leaves as future work; the suite's
    /// extension experiments use it to show that — unlike the permanent
    /// models — its propagation probability depends strongly on *when*
    /// the fault hits.
    TransientFlip,
    /// A duty-cycled stuck-at: starting at the injection instant the bit
    /// is forced to `level` for the first `duty` cycles of every
    /// `period`-cycle window (shifted by `phase`) and released in
    /// between. The assertion schedule is a pure function of the fault
    /// parameters and the clock, so the model behaves identically whether
    /// a run reached cycle *c* from reset or from a restored checkpoint.
    ///
    /// Canonical parameter form (enforced by [`FaultKind::validate`]):
    /// `1 <= duty <= period` and `phase < period`.
    IntermittentStuck {
        /// The forced logic level while asserted.
        level: bool,
        /// Window length in cycles (>= 1).
        period: u64,
        /// Asserted cycles per window (1..=period).
        duty: u64,
        /// Offset of the first window within the schedule (< period).
        phase: u64,
    },
    /// A short train of single-event upsets generalizing
    /// [`FaultKind::TransientFlip`]: the stored bit flips `flips` times,
    /// the k-th flip landing at `from_cycle + k * spacing`. Each flip
    /// corrupts the stored value once and the net behaves normally in
    /// between, exactly like a sequence of independent transient flips.
    TransientBurst {
        /// Number of upsets in the train (>= 1).
        flips: u32,
        /// Cycles between consecutive upsets (>= 1).
        spacing: u64,
    },
}

impl FaultKind {
    /// The paper's three permanent fault models, in the order its figures
    /// plot them ([`FaultKind::TransientFlip`] is the suite's extension
    /// and deliberately excluded).
    pub const ALL: [FaultKind; 3] = [
        FaultKind::StuckAt1,
        FaultKind::StuckAt0,
        FaultKind::OpenLine,
    ];

    /// Human-readable name matching the paper's legend. Parameterized
    /// kinds report their base name only; the wire layer serializes the
    /// parameters separately.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::StuckAt0 => "stuck-at-0",
            FaultKind::StuckAt1 => "stuck-at-1",
            FaultKind::OpenLine => "open-line",
            FaultKind::TransientFlip => "transient bit-flip",
            FaultKind::IntermittentStuck { .. } => "intermittent-stuck",
            FaultKind::TransientBurst { .. } => "transient-burst",
        }
    }

    /// Whether the fault, once activated, stays asserted on every cycle
    /// until the end of the run (the paper's permanent models).
    pub fn is_permanent(self) -> bool {
        matches!(
            self,
            FaultKind::StuckAt0 | FaultKind::StuckAt1 | FaultKind::OpenLine
        )
    }

    /// Whether the fault's assertion state changes over time *after* the
    /// injection instant (intermittent duty cycling, burst trains).
    /// Time-varying kinds are excluded from stuck-at equivalence-class
    /// collapsing in the static analyzer.
    pub fn is_time_varying(self) -> bool {
        matches!(
            self,
            FaultKind::IntermittentStuck { .. } | FaultKind::TransientBurst { .. }
        )
    }

    /// Check the parameters of a parameterized kind, returning a
    /// description of the first violated constraint. The permanent kinds
    /// and [`FaultKind::TransientFlip`] are parameterless and always
    /// valid.
    pub fn validate(self) -> Result<(), String> {
        match self {
            FaultKind::IntermittentStuck {
                period,
                duty,
                phase,
                ..
            } => {
                if period == 0 {
                    Err(format!(
                        "intermittent-stuck period must be >= 1, got {period}"
                    ))
                } else if duty == 0 || duty > period {
                    Err(format!(
                        "intermittent-stuck duty must be in 1..={period}, got {duty}"
                    ))
                } else if phase >= period {
                    Err(format!(
                        "intermittent-stuck phase must be < period {period}, got {phase}"
                    ))
                } else {
                    Ok(())
                }
            }
            FaultKind::TransientBurst { flips, spacing } => {
                if flips == 0 {
                    Err("transient-burst flips must be >= 1".to_string())
                } else if spacing == 0 {
                    Err("transient-burst spacing must be >= 1".to_string())
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// Whether an intermittent fault injected at `from_cycle` is asserted
    /// at `cycle`. Pure in the parameters and the clock — the property
    /// that makes the model safe across checkpoint restore.
    pub fn asserted_at(self, from_cycle: u64, cycle: u64) -> bool {
        match self {
            FaultKind::IntermittentStuck {
                period,
                duty,
                phase,
                ..
            } => cycle >= from_cycle && (cycle - from_cycle + phase) % period < duty,
            _ => cycle >= from_cycle,
        }
    }

    /// The most recent cycle at or before `cycle` at which this fault
    /// (injected at `from_cycle`) transitioned to asserted — the instant
    /// detection latency is measured from for time-varying kinds. For
    /// permanent kinds and the single flip this is the injection instant
    /// itself. Saturates to `from_cycle` when `cycle < from_cycle`.
    pub fn latest_activation_at(self, from_cycle: u64, cycle: u64) -> u64 {
        if cycle <= from_cycle {
            return from_cycle;
        }
        match self {
            FaultKind::IntermittentStuck { period, phase, .. } => {
                // Start of the assertion window containing (or preceding)
                // `cycle`, in schedule coordinates shifted by `phase`.
                let seg = ((cycle - from_cycle + phase) / period) * period;
                if seg < phase {
                    from_cycle
                } else {
                    from_cycle + (seg - phase)
                }
            }
            FaultKind::TransientBurst { flips, spacing } => {
                let k = ((cycle - from_cycle) / spacing).min(u64::from(flips) - 1);
                from_cycle + k * spacing
            }
            _ => from_cycle,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Resolution function of a bridging (short-circuit) fault between two
/// bits.
///
/// The reproduced paper notes that multi-point fault models such as
/// short-circuits require the intrusive *saboteur* technique in VHDL
/// (Baraza et al.); on this substrate they are a first-class overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Both bits read as the AND of the two drivers (dominant 0).
    WiredAnd,
    /// Both bits read as the OR of the two drivers (dominant 1).
    WiredOr,
}

impl BridgeKind {
    /// Combine the two driven values.
    pub fn combine(self, a: bool, b: bool) -> bool {
        match self {
            BridgeKind::WiredAnd => a && b,
            BridgeKind::WiredOr => a || b,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BridgeKind::WiredAnd => "wired-AND bridge",
            BridgeKind::WiredOr => "wired-OR bridge",
        }
    }
}

impl fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A permanent bridging fault between two net bits: from the injection
/// instant on, reads of either bit resolve both drivers through the
/// bridge's wired function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bridge {
    /// First shorted bit.
    pub a: (NetId, u8),
    /// Second shorted bit.
    pub b: (NetId, u8),
    /// The resolution function.
    pub kind: BridgeKind,
    /// First cycle at which the short is present.
    pub from_cycle: u64,
}

/// A single permanent fault on one bit of one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The target net.
    pub net: NetId,
    /// Bit position within the net (`< width`).
    pub bit: u8,
    /// The fault model.
    pub kind: FaultKind,
    /// First cycle at which the fault is present (the paper's "fixed
    /// injection instant"); permanent from then on.
    pub from_cycle: u64,
}

/// Internal activation state of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ActiveFault {
    pub fault: Fault,
    /// Whether the injection instant has been reached.
    pub active: bool,
    /// For open-line: the bit value captured at the injection instant.
    pub held: bool,
    /// For transient-burst: how many flips of the train have been applied
    /// to the stored value (see `NetPool::advance_burst`).
    pub flips_done: u32,
}

/// An injected fault with its state (whether it has activated, the bit an
/// open line captured then, the flips a burst has landed), carried from
/// one pool to shadows of another: see `NetPool::fault_states` and
/// `NetPool::arm_carried`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultState(pub(crate) ActiveFault);

impl ActiveFault {
    pub(crate) fn new(fault: Fault) -> ActiveFault {
        ActiveFault {
            fault,
            active: false,
            held: false,
            flips_done: 0,
        }
    }

    /// The next cycle at which a clock tick changes this fault's state:
    /// its activation, or the next flip of a burst train. Always later
    /// than the pool's clock, because `NetPool::tick` and `NetPool::inject`
    /// apply every event that has fallen due.
    pub(crate) fn next_event(&self) -> Option<u64> {
        match self.fault.kind {
            _ if !self.active => Some(self.fault.from_cycle),
            FaultKind::TransientBurst { flips, spacing } if self.flips_done < flips => {
                Some(self.fault.from_cycle + u64::from(self.flips_done) * spacing)
            }
            _ => None,
        }
    }

    /// Whether the fault acts alike at every later clock value: active,
    /// with no event left to fall due, and not duty-cycled. That is a
    /// stuck-at or open line once active, a transient after its flip and
    /// a burst after its last flip.
    pub(crate) fn is_settled(&self) -> bool {
        self.active
            && self.next_event().is_none()
            && !matches!(self.fault.kind, FaultKind::IntermittentStuck { .. })
    }

    /// Apply the fault to a value read from the net at `cycle`.
    pub(crate) fn apply(&self, value: u32, cycle: u64) -> u32 {
        if !self.active {
            return value;
        }
        let mask = 1u32 << self.fault.bit;
        match self.fault.kind {
            FaultKind::StuckAt0 => value & !mask,
            FaultKind::StuckAt1 => value | mask,
            FaultKind::OpenLine => {
                if self.held {
                    value | mask
                } else {
                    value & !mask
                }
            }
            // The flip happens to the stored value at activation (see
            // `NetPool::activate`); reads are undisturbed afterwards.
            FaultKind::TransientFlip => value,
            // Forces only while the duty-cycle schedule asserts; reads in
            // the released part of the window see the raw flop.
            FaultKind::IntermittentStuck { level, .. } => {
                if self.fault.kind.asserted_at(self.fault.from_cycle, cycle) {
                    if level {
                        value | mask
                    } else {
                        value & !mask
                    }
                } else {
                    value
                }
            }
            // Each flip of the train corrupts the stored value when due
            // (see `NetPool::advance_burst`); reads are undisturbed.
            FaultKind::TransientBurst { .. } => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(kind: FaultKind) -> ActiveFault {
        let mut f = ActiveFault::new(Fault {
            net: NetId::from_raw(0),
            bit: 1,
            kind,
            from_cycle: 0,
        });
        f.active = true;
        f
    }

    #[test]
    fn inactive_fault_is_transparent() {
        let f = ActiveFault::new(Fault {
            net: NetId::from_raw(0),
            bit: 1,
            kind: FaultKind::StuckAt0,
            from_cycle: 5,
        });
        assert_eq!(f.apply(0xffff_ffff, 0), 0xffff_ffff);
    }

    #[test]
    fn stuck_at_forces_bit() {
        assert_eq!(fault(FaultKind::StuckAt0).apply(0b111, 0), 0b101);
        assert_eq!(fault(FaultKind::StuckAt1).apply(0b000, 0), 0b010);
    }

    #[test]
    fn open_line_returns_held_value() {
        let mut f = fault(FaultKind::OpenLine);
        f.held = true;
        assert_eq!(f.apply(0b000, 0), 0b010);
        f.held = false;
        assert_eq!(f.apply(0b111, 0), 0b101);
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(FaultKind::StuckAt1.to_string(), "stuck-at-1");
        assert_eq!(FaultKind::ALL.len(), 3);
        assert_eq!(
            FaultKind::IntermittentStuck {
                level: true,
                period: 8,
                duty: 2,
                phase: 0
            }
            .to_string(),
            "intermittent-stuck"
        );
        assert_eq!(
            FaultKind::TransientBurst {
                flips: 3,
                spacing: 4
            }
            .to_string(),
            "transient-burst"
        );
    }

    #[test]
    fn permanence_and_time_variance_partition_the_kinds() {
        for kind in FaultKind::ALL {
            assert!(kind.is_permanent());
            assert!(!kind.is_time_varying());
        }
        assert!(!FaultKind::TransientFlip.is_permanent());
        assert!(!FaultKind::TransientFlip.is_time_varying());
        let intermittent = FaultKind::IntermittentStuck {
            level: false,
            period: 4,
            duty: 1,
            phase: 0,
        };
        let burst = FaultKind::TransientBurst {
            flips: 2,
            spacing: 3,
        };
        for kind in [intermittent, burst] {
            assert!(!kind.is_permanent());
            assert!(kind.is_time_varying());
        }
    }

    #[test]
    fn intermittent_duty_cycle_schedule() {
        // period 4, duty 2, phase 0, injected at cycle 10: asserted on
        // cycles 10,11, released on 12,13, asserted again 14,15, ...
        let kind = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 2,
            phase: 0,
        };
        let on: Vec<bool> = (10..18).map(|c| kind.asserted_at(10, c)).collect();
        assert_eq!(on, [true, true, false, false, true, true, false, false]);
        assert!(!kind.asserted_at(10, 9), "never asserted before injection");
        // phase 3 shifts the window: schedule position at injection is 3,
        // so the fault starts released and asserts at cycle 11 (pos 0).
        let shifted = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 2,
            phase: 3,
        };
        assert!(!shifted.asserted_at(10, 10));
        assert!(shifted.asserted_at(10, 11));
        assert!(shifted.asserted_at(10, 12));
        assert!(!shifted.asserted_at(10, 13));
    }

    #[test]
    fn intermittent_apply_forces_only_while_asserted() {
        let kind = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 2,
            phase: 0,
        };
        let mut f = ActiveFault::new(Fault {
            net: NetId::from_raw(0),
            bit: 1,
            kind,
            from_cycle: 10,
        });
        f.active = true;
        assert_eq!(f.apply(0b000, 10), 0b010, "asserted window forces the bit");
        assert_eq!(f.apply(0b000, 12), 0b000, "released window is transparent");
        let low = FaultKind::IntermittentStuck {
            level: false,
            period: 4,
            duty: 2,
            phase: 0,
        };
        f.fault.kind = low;
        assert_eq!(f.apply(0b111, 10), 0b101, "level=0 forces the bit low");
        assert_eq!(f.apply(0b111, 12), 0b111);
    }

    #[test]
    fn parameter_validation_is_canonical() {
        let good = FaultKind::IntermittentStuck {
            level: true,
            period: 8,
            duty: 8,
            phase: 7,
        };
        assert!(good.validate().is_ok());
        let zero_period = FaultKind::IntermittentStuck {
            level: true,
            period: 0,
            duty: 1,
            phase: 0,
        };
        assert!(zero_period.validate().is_err());
        let duty_over = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 5,
            phase: 0,
        };
        assert!(duty_over.validate().is_err());
        let phase_over = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 1,
            phase: 4,
        };
        assert!(phase_over.validate().is_err());
        assert!(FaultKind::TransientBurst {
            flips: 0,
            spacing: 1
        }
        .validate()
        .is_err());
        assert!(FaultKind::TransientBurst {
            flips: 1,
            spacing: 0
        }
        .validate()
        .is_err());
        assert!(FaultKind::TransientBurst {
            flips: 1,
            spacing: 1
        }
        .validate()
        .is_ok());
        for kind in FaultKind::ALL {
            assert!(kind.validate().is_ok());
        }
        assert!(FaultKind::TransientFlip.validate().is_ok());
    }

    #[test]
    fn latest_activation_tracks_the_schedule() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.latest_activation_at(10, 100), 10);
        }
        assert_eq!(FaultKind::TransientFlip.latest_activation_at(10, 100), 10);
        let intermittent = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 2,
            phase: 0,
        };
        // Windows assert at 10, 14, 18, ...: a detection at cycle 15
        // measures latency from the window start at 14.
        assert_eq!(intermittent.latest_activation_at(10, 15), 14);
        assert_eq!(intermittent.latest_activation_at(10, 10), 10);
        assert_eq!(intermittent.latest_activation_at(10, 13), 10);
        assert_eq!(intermittent.latest_activation_at(10, 9), 10, "clamped");
        let burst = FaultKind::TransientBurst {
            flips: 3,
            spacing: 4,
        };
        // Flips at 10, 14, 18; no further flips after the train ends.
        assert_eq!(burst.latest_activation_at(10, 11), 10);
        assert_eq!(burst.latest_activation_at(10, 14), 14);
        assert_eq!(burst.latest_activation_at(10, 1000), 18);
    }
}
