//! Off-core bus activity: the failure-manifestation boundary.
//!
//! The paper detects failures exactly where light-lockstep microcontrollers
//! (Infineon AURIX, ST SPC56XL) compare their cores: at off-core activity.
//! Both simulation levels record a [`BusTrace`]; a faulty run **fails** when
//! its write stream diverges from the golden run's.

use std::fmt;

/// Direction of a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// A read from memory (cache miss / uncached load).
    Read,
    /// A write to memory (write-through stores).
    Write,
}

/// One off-core transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusEvent {
    /// Cycle (RTL model) or instruction index (ISS) of the transaction.
    /// Excluded from divergence comparison, since the two levels disagree
    /// on timing by design.
    pub at: u64,
    /// Direction.
    pub kind: BusKind,
    /// Byte address (aligned to `size`).
    pub addr: u32,
    /// Access size in bytes (1, 2 or 4; double-word traffic is two events).
    pub size: u8,
    /// The data, zero-extended.
    pub data: u32,
}

impl BusEvent {
    /// Whether two events carry the same architectural content (ignoring
    /// their timestamp).
    pub fn same_payload(&self, other: &BusEvent) -> bool {
        self.kind == other.kind
            && self.addr == other.addr
            && self.size == other.size
            && self.data == other.data
    }
}

impl fmt::Display for BusEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.kind {
            BusKind::Read => "R",
            BusKind::Write => "W",
        };
        write!(
            f,
            "[{:>8}] {dir}{} {:#010x} = {:#010x}",
            self.at, self.size, self.addr, self.data
        )
    }
}

/// An append-only record of off-core transactions.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BusTrace {
    events: Vec<BusEvent>,
    record_reads: bool,
}

impl Clone for BusTrace {
    fn clone(&self) -> BusTrace {
        BusTrace {
            events: self.events.clone(),
            record_reads: self.record_reads,
        }
    }

    /// Copy `source` into this trace's own buffer, which a snapshot retaken
    /// or restored again and again then reuses instead of reallocating.
    fn clone_from(&mut self, source: &BusTrace) {
        self.events.clone_from(&source.events);
        self.record_reads = source.record_reads;
    }
}

impl BusTrace {
    /// An empty trace that records writes only (the lockstep comparison
    /// point).
    pub fn new() -> BusTrace {
        BusTrace::default()
    }

    /// An empty trace that also records off-core reads.
    pub fn with_reads() -> BusTrace {
        BusTrace {
            events: Vec::new(),
            record_reads: true,
        }
    }

    /// Append an event (reads are dropped unless enabled).
    pub fn push(&mut self, event: BusEvent) {
        if event.kind == BusKind::Read && !self.record_reads {
            return;
        }
        self.events.push(event);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[BusEvent] {
        &self.events
    }

    /// The write events in order.
    pub fn writes(&self) -> impl Iterator<Item = &BusEvent> {
        self.events.iter().filter(|e| e.kind == BusKind::Write)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the first write whose payload diverges from `golden`'s
    /// corresponding write, or where one trace ends early.
    ///
    /// Returns `None` when the write streams match exactly — the faulty run
    /// is then *not* a failure at the lockstep boundary.
    pub fn first_write_divergence(&self, golden: &BusTrace) -> Option<usize> {
        let mine: Vec<&BusEvent> = self.writes().collect();
        let gold: Vec<&BusEvent> = golden.writes().collect();
        for (i, (a, b)) in mine.iter().zip(gold.iter()).enumerate() {
            if !a.same_payload(b) {
                return Some(i);
            }
        }
        if mine.len() != gold.len() {
            return Some(mine.len().min(gold.len()));
        }
        None
    }

    /// The timestamp (`at`) of write number `idx` in this trace, if any —
    /// used to compute fault-propagation latency.
    pub fn write_timestamp(&self, idx: usize) -> Option<u64> {
        self.writes().nth(idx).map(|e| e.at)
    }
}

impl Extend<BusEvent> for BusTrace {
    fn extend<T: IntoIterator<Item = BusEvent>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(at: u64, addr: u32, data: u32) -> BusEvent {
        BusEvent {
            at,
            kind: BusKind::Write,
            addr,
            size: 4,
            data,
        }
    }

    fn r(at: u64, addr: u32) -> BusEvent {
        BusEvent {
            at,
            kind: BusKind::Read,
            addr,
            size: 4,
            data: 0,
        }
    }

    #[test]
    fn reads_dropped_by_default() {
        let mut t = BusTrace::new();
        t.push(r(1, 0x100));
        t.push(w(2, 0x104, 7));
        assert_eq!(t.len(), 1);
        let mut t2 = BusTrace::with_reads();
        t2.push(r(1, 0x100));
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let mut a = BusTrace::new();
        let mut b = BusTrace::new();
        for i in 0..5 {
            a.push(w(i, 0x100 + i as u32 * 4, i as u32));
            // Different timestamps must not matter.
            b.push(w(i + 100, 0x100 + i as u32 * 4, i as u32));
        }
        assert_eq!(a.first_write_divergence(&b), None);
    }

    #[test]
    fn data_mismatch_detected() {
        let mut a = BusTrace::new();
        let mut b = BusTrace::new();
        a.extend([w(0, 0x100, 1), w(1, 0x104, 2)]);
        b.extend([w(0, 0x100, 1), w(1, 0x104, 99)]);
        assert_eq!(a.first_write_divergence(&b), Some(1));
    }

    #[test]
    fn truncated_trace_detected() {
        let mut a = BusTrace::new();
        let mut b = BusTrace::new();
        a.extend([w(0, 0x100, 1)]);
        b.extend([w(0, 0x100, 1), w(1, 0x104, 2)]);
        assert_eq!(a.first_write_divergence(&b), Some(1));
        assert_eq!(b.first_write_divergence(&a), Some(1));
    }

    #[test]
    fn extra_write_in_middle_detected() {
        let mut a = BusTrace::new();
        let mut b = BusTrace::new();
        a.extend([w(0, 0x100, 1), w(1, 0x888, 9), w(2, 0x104, 2)]);
        b.extend([w(0, 0x100, 1), w(1, 0x104, 2)]);
        assert_eq!(a.first_write_divergence(&b), Some(1));
    }

    #[test]
    fn timestamp_lookup() {
        let mut a = BusTrace::new();
        a.extend([w(10, 0x100, 1), w(20, 0x104, 2)]);
        assert_eq!(a.write_timestamp(1), Some(20));
        assert_eq!(a.write_timestamp(2), None);
    }

    #[test]
    fn event_display() {
        let e = w(42, 0x4000_0010, 0xff);
        let s = e.to_string();
        assert!(s.contains("W4"), "{s}");
        assert!(s.contains("0x40000010"), "{s}");
    }
}
