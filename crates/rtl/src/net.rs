//! The net pool: named multi-bit signals with a fault overlay.

use crate::fault::{ActiveFault, Bridge, Fault, FaultKind, FaultState};
use crate::graph::NetEvent;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Sentinel in the read tracker: the net has never been read.
const NEVER_READ: u64 = u64::MAX;

/// `NetPool::raw_key` of a pool whose every read is raw: no net id has
/// bit 31 set.
const ALL_RAW: u32 = 1 << 31;

/// Sentinel in [`ShadowTable::first`]: no shadow watches the net.
const UNWATCHED: u32 = u32::MAX;

/// Identifier of a net within its [`NetPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

impl NetId {
    /// Construct from a raw index (for fault-list serialisation).
    pub fn from_raw(raw: u32) -> NetId {
        NetId(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Metadata of one net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMeta<T> {
    /// Hierarchical name, e.g. `"iu.ex.alu_result"`.
    pub name: String,
    /// Width in bits (1..=32).
    pub width: u8,
    /// Functional-unit tag (generic so the substrate stays
    /// processor-agnostic).
    pub tag: T,
}

/// Which reads must leave the plain indexed load (see [`NetPool::read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlay {
    /// No fault, bridge, shadow, read tracker or event trace: every read
    /// is raw.
    None,
    /// Exactly one fault, on this net, and nothing else.
    One(NetId),
    /// The read tracker alone: note the cycle, return the raw value.
    Track,
    /// Shadow faults alone: watched nets check them, every read is raw.
    Shadow,
    /// Anything else: every read takes the general path.
    Any,
}

/// Shadow faults armed on a fault-free pool (see [`NetPool::arm_shadows`]).
///
/// A shadow ticks and activates like the fault it stands for (an open
/// line captures its held bit) but never changes a value the model reads.
/// It only notes its owner's first *effective divergence*: a read of its
/// net whose faulted value differs from the raw one, or the activation of
/// a transient or burst fault, which would change a stored value. Until
/// then the faulty machine it stands for is the fault-free one.
///
/// The table is plain data, so a caller can save it beside a checkpoint
/// and later inject one owner's faults from it with
/// [`NetPool::inject_shadowed`].
#[derive(Debug)]
pub struct ShadowTable {
    /// Sorted by net; one owner's shadows on a net keep their arming order.
    entries: Vec<Shadow>,
    /// Per net: the index of its first entry, or `UNWATCHED`.
    first: Vec<u32>,
    /// The earliest injection instant of an inactive entry (`u64::MAX` if
    /// none), so a tick only scans the table when one falls due.
    next_activation: u64,
}

#[derive(Debug, Clone)]
struct Shadow {
    state: ActiveFault,
    owner: usize,
    /// Set at the first effective divergence. `Cell` because `read` takes
    /// `&self`.
    diverged: Cell<bool>,
}

impl Default for ShadowTable {
    fn default() -> Self {
        ShadowTable {
            entries: Vec::new(),
            first: Vec::new(),
            next_activation: u64::MAX,
        }
    }
}

impl Clone for ShadowTable {
    fn clone(&self) -> Self {
        ShadowTable {
            entries: self.entries.clone(),
            first: self.first.clone(),
            next_activation: self.next_activation,
        }
    }

    /// Field by field, so a table saved again and again reuses its
    /// buffers instead of reallocating them.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.first.clone_from(&source.first);
        self.next_activation = source.next_activation;
    }
}

impl ShadowTable {
    /// Whether no shadow is armed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuild the per-net index and the next activation instant after
    /// the entry list changed.
    fn reindex(&mut self, nets: usize) {
        self.first.clear();
        if !self.entries.is_empty() {
            self.first.resize(nets, UNWATCHED);
        }
        for (k, shadow) in self.entries.iter().enumerate().rev() {
            self.first[shadow.state.fault.net.0 as usize] = k as u32;
        }
        self.reindex_activation();
    }

    fn reindex_activation(&mut self) {
        self.next_activation = self
            .entries
            .iter()
            .filter(|s| !s.state.active)
            .map(|s| s.state.fault.from_cycle)
            .fold(u64::MAX, u64::min);
    }
}

/// A pool of named nets with values, plus the active fault overlay.
///
/// Reads and writes are the *only* way data moves through an RTL model
/// built on this substrate, so an injected fault perturbs every use of the
/// target net — fault activation and propagation are emergent, exactly as
/// with simulator-command injection into a VHDL model.
#[derive(Debug, Clone)]
pub struct NetPool<T> {
    values: Vec<u32>,
    /// Each net's width as a bit mask, beside `values` for the write path.
    masks: Vec<u32>,
    meta: Vec<NetMeta<T>>,
    faults: Vec<ActiveFault>,
    bridges: Vec<(Bridge, bool)>,
    /// What `read` must apply beyond the raw value. Every call that
    /// changes `faults`, `bridges`, `shadows`, `last_read` or `events`
    /// recomputes it through [`NetPool::refresh_overlay`].
    overlay: Overlay,
    /// The overlay as one test: a read of net `id` is raw when
    /// `(id ^ raw_key) & raw_mask != 0`. That is every net for `None`
    /// (`raw_key` has bit 31 set, which no net id has), every net but one
    /// for `One`, every net outside the watched nets' common bit pattern
    /// for `Shadow`, and none otherwise: one branch on the hot path.
    raw_key: u32,
    raw_mask: u32,
    cycle: u64,
    /// When enabled, the cycle of the most recent [`NetPool::read`] per
    /// net (`NEVER_READ` if none). `Cell` because `read` takes `&self`.
    last_read: Option<Vec<Cell<u64>>>,
    /// When enabled, every read and write in program order (`RefCell`
    /// because `read` takes `&self`). Only switched on for the short
    /// taint-extraction runs behind the model-conformance check.
    events: Option<RefCell<Vec<NetEvent>>>,
    shadows: ShadowTable,
}

/// A saved pool state: the raw flip-flop values and the clock.
///
/// A checkpoint deliberately excludes the fault overlay — restoring one
/// yields a fault-free pool at the captured cycle, and the campaign
/// scheduler re-injects (re-arms) the fault under test afterwards, exactly
/// as [`NetPool::inject`] would on a fresh run that had simulated up to
/// that cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolCheckpoint {
    values: Vec<u32>,
    cycle: u64,
}

impl PoolCheckpoint {
    /// The cycle at which the checkpoint was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Bytes held by the captured net values (for snapshot-pool memory
    /// accounting).
    pub fn resident_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<u32>()
    }
}

impl<T> Default for NetPool<T> {
    fn default() -> Self {
        NetPool::new()
    }
}

impl<T> NetPool<T> {
    /// An empty pool at cycle 0.
    pub fn new() -> NetPool<T> {
        NetPool {
            values: Vec::new(),
            masks: Vec::new(),
            meta: Vec::new(),
            faults: Vec::new(),
            bridges: Vec::new(),
            overlay: Overlay::None,
            raw_key: ALL_RAW,
            raw_mask: u32::MAX,
            cycle: 0,
            last_read: None,
            events: None,
            shadows: ShadowTable::default(),
        }
    }

    /// Declare a net.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 32.
    pub fn net(&mut self, name: impl Into<String>, width: u8, tag: T) -> NetId {
        assert!((1..=32).contains(&width), "net width {width} out of range");
        assert!(self.values.len() < ALL_RAW as usize, "too many nets");
        let id = NetId(self.values.len() as u32);
        self.values.push(0);
        self.masks.push(u32::MAX >> (32 - width));
        self.meta.push(NetMeta {
            name: name.into(),
            width,
            tag,
        });
        // The read tracker must cover nets declared after
        // `enable_read_tracking`, or `read` indexes past its end.
        if let Some(track) = &mut self.last_read {
            track.push(Cell::new(NEVER_READ));
        }
        // Likewise the shadow index, once shadows are armed.
        if !self.shadows.first.is_empty() {
            self.shadows.first.push(UNWATCHED);
        }
        id
    }

    /// Number of declared nets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool has no nets.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Metadata of a net.
    pub fn meta(&self, id: NetId) -> &NetMeta<T> {
        &self.meta[id.0 as usize]
    }

    /// Iterate over `(id, meta)` for all nets.
    pub fn iter(&self) -> impl Iterator<Item = (NetId, &NetMeta<T>)> {
        self.meta
            .iter()
            .enumerate()
            .map(|(i, m)| (NetId(i as u32), m))
    }

    /// Total injectable fault sites (bits) across all nets.
    pub fn bit_count(&self) -> usize {
        self.meta.iter().map(|m| usize::from(m.width)).sum()
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read a net, with active faults and bridges applied.
    ///
    /// A plain indexed load unless the overlay names this net (or every
    /// net): a campaign job's one fault costs the other nets' reads a
    /// single compare.
    #[inline]
    pub fn read(&self, id: NetId) -> u32 {
        if (id.0 ^ self.raw_key) & self.raw_mask != 0 {
            self.values[id.0 as usize]
        } else {
            self.read_instrumented(id)
        }
    }

    /// A read the overlay does not let through raw: the tracker or the
    /// shadows alone note it and return the raw value; anything else takes
    /// the general path.
    #[inline(never)]
    fn read_instrumented(&self, id: NetId) -> u32 {
        let i = id.0 as usize;
        match self.overlay {
            Overlay::Track => {
                if let Some(track) = &self.last_read {
                    track[i].set(self.cycle);
                }
                self.values[i]
            }
            Overlay::Shadow => {
                if self.shadows.first[i] != UNWATCHED {
                    self.check_shadows(i);
                }
                self.values[i]
            }
            _ => self.read_overlaid(id),
        }
    }

    /// The general read: tracker, trace, shadows, faults and bridges.
    #[inline(never)]
    fn read_overlaid(&self, id: NetId) -> u32 {
        if let Some(track) = &self.last_read {
            track[id.0 as usize].set(self.cycle);
        }
        if let Some(trace) = &self.events {
            trace.borrow_mut().push(NetEvent::Read(id));
        }
        if !self.shadows.is_empty() && self.shadows.first[id.0 as usize] != UNWATCHED {
            self.check_shadows(id.0 as usize);
        }
        self.overlaid(id)
    }

    /// The value a read of `id` returns with the faults and bridges
    /// applied, noting nothing.
    fn overlaid(&self, id: NetId) -> u32 {
        let mut value = self.values[id.0 as usize];
        for f in &self.faults {
            if f.fault.net == id {
                value = f.apply(value, self.cycle);
            }
        }
        if !self.bridges.is_empty() {
            value = self.apply_bridges(id, value);
        }
        value & self.masks[id.0 as usize]
    }

    fn apply_bridges(&self, id: NetId, mut value: u32) -> u32 {
        for &(bridge, active) in &self.bridges {
            if !active {
                continue;
            }
            for (this, other) in [(bridge.a, bridge.b), (bridge.b, bridge.a)] {
                if this.0 == id {
                    let own = value >> this.1 & 1 == 1;
                    let peer = self.values[other.0 .0 as usize] >> other.1 & 1 == 1;
                    let resolved = bridge.kind.combine(own, peer);
                    value = (value & !(1 << this.1)) | (u32::from(resolved) << this.1);
                }
            }
        }
        value
    }

    /// Note the first effective divergence of every shadow on net `net`
    /// that this read would see changed.
    #[inline(never)]
    fn check_shadows(&self, net: usize) {
        let raw = self.values[net];
        let entries = &self.shadows.entries[self.shadows.first[net] as usize..];
        for shadow in entries
            .iter()
            .take_while(|s| s.state.fault.net.0 as usize == net)
        {
            if !shadow.diverged.get() && shadow.state.apply(raw, self.cycle) != raw {
                shadow.diverged.set(true);
            }
        }
    }

    /// Recompute [`Overlay`] after a change to the faults, the bridges,
    /// the shadows, the read tracker or the event trace.
    fn refresh_overlay(&mut self) {
        let tracked = self.last_read.is_some();
        let shadowed = !self.shadows.is_empty();
        let bare = self.events.is_none() && self.bridges.is_empty();
        self.overlay = match self.faults.as_slice() {
            [] if bare && !tracked && !shadowed => Overlay::None,
            [] if bare && !shadowed => Overlay::Track,
            [] if bare && !tracked => Overlay::Shadow,
            [only] if bare && !tracked && !shadowed => Overlay::One(only.fault.net),
            _ => Overlay::Any,
        };
        (self.raw_key, self.raw_mask) = match self.overlay {
            Overlay::None => (ALL_RAW, u32::MAX),
            Overlay::One(net) => (net.0, u32::MAX),
            Overlay::Shadow => {
                // Let through raw every net that differs from the watched
                // ones in a bit they all share.
                let first = self.shadows.entries[0].state.fault.net.0;
                let differ = self
                    .shadows
                    .entries
                    .iter()
                    .fold(0, |acc, s| acc | (s.state.fault.net.0 ^ first));
                (first & !differ, !differ)
            }
            _ => (0, 0),
        };
    }

    /// Write a net (the value is truncated to the net's width; faults are
    /// applied on read, so the raw flip-flop keeps the driven value — which
    /// is what lets an open-line fault capture it at the injection
    /// instant).
    #[inline]
    pub fn write(&mut self, id: NetId, value: u32) {
        if let Some(trace) = &mut self.events {
            trace.get_mut().push(NetEvent::Write(id));
        }
        self.values[id.0 as usize] = value & self.masks[id.0 as usize];
    }

    /// Inject a fault.
    ///
    /// # Panics
    ///
    /// Panics if the bit position is outside the net's width, the kind's
    /// parameters are out of their canonical range (see
    /// [`FaultKind::validate`]), or shadows are armed (see
    /// [`NetPool::arm_shadows`]).
    pub fn inject(&mut self, fault: Fault) {
        self.check_fault(&fault);
        assert!(self.shadows.is_empty(), "faults and shadows do not mix");
        self.faults.push(ActiveFault::new(fault));
        self.refresh_overlay();
        // If the injection instant is already past, activate immediately.
        if self.cycle >= fault.from_cycle {
            let idx = self.faults.len() - 1;
            self.activate(idx);
        }
    }

    /// Whether [`NetPool::inject`] and [`NetPool::arm_shadows`] take
    /// `fault`: its net is in the pool, its bit inside the net's width and
    /// its kind's parameters in their canonical range.
    pub fn accepts(&self, fault: &Fault) -> bool {
        self.refusal(fault).is_none()
    }

    /// Why the pool refuses `fault`, if it does.
    fn refusal(&self, fault: &Fault) -> Option<String> {
        let Some(meta) = self.meta.get(fault.net.0 as usize) else {
            return Some(format!(
                "net {} outside a pool of {} nets",
                fault.net.0,
                self.meta.len()
            ));
        };
        if fault.bit >= meta.width {
            return Some(format!(
                "bit {} outside net `{}` of width {}",
                fault.bit, meta.name, meta.width
            ));
        }
        match fault.kind.validate() {
            Ok(()) => None,
            Err(reason) => Some(format!("invalid fault parameters: {reason}")),
        }
    }

    fn check_fault(&self, fault: &Fault) {
        if let Some(reason) = self.refusal(fault) {
            panic!("{reason}");
        }
    }

    /// Inject a bridging fault between two bits.
    ///
    /// # Panics
    ///
    /// Panics if either bit is outside its net's width, the two sides are
    /// the same bit, or shadows are armed.
    pub fn inject_bridge(&mut self, bridge: Bridge) {
        assert_ne!(bridge.a, bridge.b, "a bridge needs two distinct bits");
        assert!(self.shadows.is_empty(), "faults and shadows do not mix");
        for (net, bit) in [bridge.a, bridge.b] {
            assert!(
                bit < self.meta[net.0 as usize].width,
                "bit {bit} outside net `{}`",
                self.meta[net.0 as usize].name
            );
        }
        let active = self.cycle >= bridge.from_cycle;
        self.bridges.push((bridge, active));
        self.refresh_overlay();
    }

    /// Whether no fault or bridge is currently injected (shadows change
    /// no value, so they do not count).
    pub fn is_fault_free(&self) -> bool {
        self.faults.is_empty() && self.bridges.is_empty()
    }

    /// Arm shadow faults, each tagged with an `owner` the caller chooses
    /// (a campaign job, say; a job of two faults arms two shadows with one
    /// owner). A shadow whose injection instant is already past activates
    /// at once, as [`NetPool::inject`] does. Reads stay raw: see
    /// [`ShadowTable`] for what a shadow records instead.
    ///
    /// # Panics
    ///
    /// Panics if a fault or bridge is injected, or on the
    /// [`NetPool::inject`] conditions for any fault.
    pub fn arm_shadows(&mut self, faults: impl IntoIterator<Item = (Fault, usize)>) {
        self.arm(
            faults
                .into_iter()
                .map(|(fault, owner)| (ActiveFault::new(fault), owner)),
        );
    }

    /// Arm, as shadows beside those already armed, faults carried with
    /// their state from a pool with the same nets (see
    /// [`NetPool::fault_states`]): the inverse of
    /// [`NetPool::inject_shadowed`]. An active open line keeps the bit it
    /// captured at activation, which the raw value here may no longer
    /// hold; [`NetPool::arm_shadows`] would capture that raw bit afresh.
    ///
    /// # Panics
    ///
    /// Panics on the [`NetPool::arm_shadows`] conditions.
    pub fn arm_carried(&mut self, faults: impl IntoIterator<Item = (FaultState, usize)>) {
        self.arm(
            faults
                .into_iter()
                .map(|(FaultState(state), owner)| (state, owner)),
        );
    }

    fn arm(&mut self, shadows: impl Iterator<Item = (ActiveFault, usize)>) {
        assert!(self.is_fault_free(), "faults and shadows do not mix");
        for (state, owner) in shadows {
            self.check_fault(&state.fault);
            self.shadows.entries.push(Shadow {
                state,
                owner,
                diverged: Cell::new(false),
            });
        }
        // Stable, so one owner's shadows on a net keep their order.
        self.shadows.entries.sort_by_key(|s| s.state.fault.net);
        self.shadows.reindex(self.values.len());
        self.activate_shadows();
        self.refresh_overlay();
    }

    /// The owners of every shadow that has diverged, in table order (an
    /// owner of several diverged shadows appears once per shadow).
    pub fn diverged_shadow_owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.shadows
            .entries
            .iter()
            .filter(|s| s.diverged.get())
            .map(|s| s.owner)
    }

    /// Disarm every shadow whose owner `retire` selects.
    pub fn retire_shadows(&mut self, mut retire: impl FnMut(usize) -> bool) {
        self.shadows.entries.retain(|s| !retire(s.owner));
        self.shadows.reindex(self.values.len());
        self.refresh_overlay();
    }

    /// The armed shadows, with their activation state.
    pub fn shadows(&self) -> &ShadowTable {
        &self.shadows
    }

    /// Inject, as real faults, the shadows of `owner` in `table` (saved
    /// from this pool at the current clock), carrying their state: an
    /// open line that had already activated keeps the bit it captured
    /// then, which the raw value may no longer hold. Every other fault is
    /// injected afresh, since a stuck-at or intermittent fault has no
    /// state and a transient or burst fault diverges at activation.
    ///
    /// # Panics
    ///
    /// Panics if shadows are armed on this pool.
    pub fn inject_shadowed(&mut self, table: &ShadowTable, owner: usize) {
        for shadow in table.entries.iter().filter(|s| s.owner == owner) {
            if shadow.state.active && shadow.state.fault.kind == FaultKind::OpenLine {
                assert!(self.shadows.is_empty(), "faults and shadows do not mix");
                self.faults.push(shadow.state);
                self.refresh_overlay();
            } else {
                self.inject(shadow.state.fault);
            }
        }
    }

    /// Activate every inactive shadow whose injection instant the clock
    /// has reached: an open line captures its bit, and a transient or
    /// burst fault diverges, because it would flip the stored value.
    fn activate_shadows(&mut self) {
        let values = &self.values;
        for shadow in &mut self.shadows.entries {
            let f = &mut shadow.state;
            if f.active || self.cycle < f.fault.from_cycle {
                continue;
            }
            f.active = true;
            match f.fault.kind {
                FaultKind::OpenLine => {
                    f.held = values[f.fault.net.0 as usize] & (1 << f.fault.bit) != 0;
                }
                FaultKind::TransientFlip | FaultKind::TransientBurst { .. } => {
                    shadow.diverged.set(true);
                }
                _ => {}
            }
        }
        self.shadows.reindex_activation();
    }

    /// The injected faults with their state, in injection order, for
    /// [`NetPool::arm_carried`] on another pool.
    pub fn fault_states(&self) -> impl Iterator<Item = FaultState> + '_ {
        self.faults.iter().copied().map(FaultState)
    }

    /// Whether the pool reads and writes alike at every other clock value:
    /// every fault is settled (a stuck-at, an activated open line, a
    /// transient after its flip or a burst after its last flip), every
    /// bridge is active, and no shadow, read tracker or event trace is
    /// armed. An intermittent fault never qualifies. Only then may
    /// [`NetPool::shift_clock`] move the clock.
    pub fn is_time_invariant(&self) -> bool {
        self.faults.iter().all(ActiveFault::is_settled)
            && self.bridges.iter().all(|&(_, active)| active)
            && self.shadows.is_empty()
            && self.last_read.is_none()
            && self.events.is_none()
    }

    /// Whether every raw net value equals the one captured in
    /// `checkpoint`. The clock is not compared.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was captured from a pool with a different
    /// net population.
    pub fn values_equal(&self, checkpoint: &PoolCheckpoint) -> bool {
        assert_eq!(
            checkpoint.values.len(),
            self.values.len(),
            "checkpoint net population mismatch"
        );
        self.values == checkpoint.values
    }

    /// Move the clock by `delta` cycles, later or earlier, without ticking
    /// through them.
    ///
    /// # Panics
    ///
    /// Panics unless the pool [is time-invariant](NetPool::is_time_invariant),
    /// the one state in which the clock changes nothing else, or if the
    /// clock would leave the range of `u64`.
    pub fn shift_clock(&mut self, delta: i64) {
        assert!(
            self.is_time_invariant(),
            "only a time-invariant pool may shift its clock"
        );
        self.cycle = self
            .cycle
            .checked_add_signed(delta)
            .expect("the shifted clock fits");
    }

    /// Capture the raw values and the clock (see [`PoolCheckpoint`] for
    /// what is deliberately excluded).
    pub fn checkpoint(&self) -> PoolCheckpoint {
        PoolCheckpoint {
            values: self.values.clone(),
            cycle: self.cycle,
        }
    }

    /// [`NetPool::checkpoint`] into an existing checkpoint, reusing its
    /// allocation.
    pub fn checkpoint_into(&self, into: &mut PoolCheckpoint) {
        into.values.clone_from(&self.values);
        into.cycle = self.cycle;
    }

    /// Restore a [`checkpoint`](NetPool::checkpoint): raw values and clock
    /// come back exactly; faults and bridges are cleared (the caller
    /// re-injects the fault under test, which re-arms it against the
    /// restored clock).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was captured from a pool with a different
    /// net population.
    pub fn restore(&mut self, checkpoint: &PoolCheckpoint) {
        assert_eq!(
            checkpoint.values.len(),
            self.values.len(),
            "checkpoint net population mismatch"
        );
        self.values.clone_from(&checkpoint.values);
        self.clear_faults();
        self.cycle = checkpoint.cycle;
    }

    /// Start recording, per net, the cycle of its most recent read
    /// (clearing any previous recording). Alone, the tracker costs a read
    /// one store; beside a fault it sends every read down the general
    /// path. Switched on for golden-reference runs.
    pub fn enable_read_tracking(&mut self) {
        self.last_read = Some(vec![Cell::new(NEVER_READ); self.values.len()]);
        self.refresh_overlay();
    }

    /// Stop recording read cycles and drop the tracker.
    pub fn disable_read_tracking(&mut self) {
        self.last_read = None;
        self.refresh_overlay();
    }

    /// Start recording every read and write in program order (clearing any
    /// previous trace). Feed the trace to [`crate::observed_edges`] /
    /// [`crate::NetGraph::missing_edges`] to cross-check a declared net
    /// graph against the model's real access order. Unbounded memory per
    /// access, so only switch it on for short extraction runs.
    pub fn enable_event_trace(&mut self) {
        self.events = Some(RefCell::new(Vec::new()));
        self.refresh_overlay();
    }

    /// Take the recorded access trace, leaving tracing enabled with an
    /// empty buffer. Empty if tracing is off.
    pub fn take_events(&mut self) -> Vec<NetEvent> {
        match &mut self.events {
            Some(trace) => std::mem::take(trace.get_mut()),
            None => Vec::new(),
        }
    }

    /// Stop recording accesses and drop the trace.
    pub fn disable_event_trace(&mut self) {
        self.events = None;
        self.refresh_overlay();
    }

    /// The cycle of the most recent read of `id`, or `None` if the net was
    /// never read while tracking was enabled (or tracking is off).
    pub fn last_read_cycle(&self, id: NetId) -> Option<u64> {
        let track = self.last_read.as_ref()?;
        match track[id.0 as usize].get() {
            NEVER_READ => None,
            cycle => Some(cycle),
        }
    }

    /// Remove all faults, bridges and shadows (the underlying raw values
    /// remain).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.bridges.clear();
        self.shadows.entries.clear();
        self.shadows.reindex(self.values.len());
        self.refresh_overlay();
    }

    /// Reset all nets to zero, clear faults/bridges and return to cycle 0.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
        self.clear_faults();
        self.cycle = 0;
        if let Some(track) = &self.last_read {
            track.iter().for_each(|c| c.set(NEVER_READ));
        }
        if let Some(trace) = &mut self.events {
            trace.get_mut().clear();
        }
    }

    fn activate(&mut self, idx: usize) {
        let net = self.faults[idx].fault.net;
        let bit = self.faults[idx].fault.bit;
        let raw = self.values[net.0 as usize];
        let f = &mut self.faults[idx];
        if !f.active {
            f.active = true;
            match f.fault.kind {
                FaultKind::OpenLine => f.held = raw & (1 << bit) != 0,
                FaultKind::TransientFlip => {
                    // A single-event upset: corrupt the stored value once.
                    self.values[net.0 as usize] = raw ^ (1 << bit);
                }
                FaultKind::TransientBurst { .. } => self.advance_burst(idx),
                _ => {}
            }
        }
    }

    /// Apply every due-but-unapplied flip of a transient-burst train to
    /// the stored value. Flip `k` (0-indexed) lands when the clock
    /// reaches `from_cycle + k * spacing`; injecting after some flips
    /// are already due applies them all at once, mirroring the
    /// immediate-activation semantics of [`NetPool::inject`] for the
    /// single transient flip (note the parity collapse: two overdue
    /// flips cancel).
    fn advance_burst(&mut self, idx: usize) {
        let FaultKind::TransientBurst { flips, spacing } = self.faults[idx].fault.kind else {
            return;
        };
        let from = self.faults[idx].fault.from_cycle;
        let net = self.faults[idx].fault.net.0 as usize;
        let bit = self.faults[idx].fault.bit;
        while self.faults[idx].flips_done < flips
            && self.cycle >= from + u64::from(self.faults[idx].flips_done) * spacing
        {
            self.values[net] ^= 1 << bit;
            self.faults[idx].flips_done += 1;
        }
    }

    /// Fold every net's current (fault-overlaid) value into one word —
    /// the per-delta-cycle process-evaluation sweep of an RTL model's
    /// faithful-clocking mode. It folds the raw storage, then corrects
    /// each distinct net a fault or bridge touches by its overlaid value
    /// minus its raw one, so a faulted sweep costs what a fault-free one
    /// does. Nothing is noted as read.
    pub fn evaluate_all(&self) -> u32 {
        let raw = self.values.iter().fold(0u32, |acc, &v| acc.wrapping_add(v));
        let touched = || {
            let bridged = self.bridges.iter().flat_map(|(b, _)| [b.a.0, b.b.0]);
            self.faults.iter().map(|f| f.fault.net).chain(bridged)
        };
        touched()
            .enumerate()
            // Each net once: skip one that an earlier fault or bridge touched.
            .filter(|&(k, net)| !touched().take(k).any(|seen| seen == net))
            .fold(raw, |acc, (_, net)| {
                acc.wrapping_add(self.overlaid(net))
                    .wrapping_sub(self.values[net.0 as usize])
            })
    }

    /// Advance the simulation clock by one cycle, activating any fault
    /// whose injection instant has been reached.
    pub fn tick(&mut self) {
        self.cycle += 1;
        for idx in 0..self.faults.len() {
            if !self.faults[idx].active {
                if self.cycle >= self.faults[idx].fault.from_cycle {
                    self.activate(idx);
                }
            } else if matches!(
                self.faults[idx].fault.kind,
                FaultKind::TransientBurst { .. }
            ) {
                self.advance_burst(idx);
            }
        }
        for (bridge, active) in &mut self.bridges {
            if !*active && self.cycle >= bridge.from_cycle {
                *active = true;
            }
        }
        if self.cycle >= self.shadows.next_activation {
            self.activate_shadows();
        }
    }

    /// Advance the clock by `n` cycles at once (used by multi-cycle
    /// operations like divide or cache refills). Nothing reads or writes
    /// a net inside the batch, so the clock jumps straight to each cycle
    /// at which a fault activates or a burst flip falls due and ticks only
    /// there — in time order, which keeps an open line that captures a
    /// bit another fault flips exactly as `n` single ticks would leave it.
    pub fn tick_many(&mut self, n: u64) {
        let end = self.cycle + n;
        while self.cycle < end {
            let next = self
                .faults
                .iter()
                .filter_map(ActiveFault::next_event)
                .fold(end.min(self.shadows.next_activation), u64::min);
            debug_assert!(next > self.cycle, "a due fault event was not applied");
            self.cycle = next - 1;
            self.tick();
        }
    }
}

impl<T: fmt::Debug> fmt::Display for NetMeta<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}:0] ({:?})", self.name, self.width - 1, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn declare_read_write() {
        let mut pool: NetPool<u8> = NetPool::new();
        let a = pool.net("a", 8, 0);
        let b = pool.net("b", 32, 1);
        pool.write(a, 0x1ff); // truncated to 8 bits
        pool.write(b, 0xffff_ffff);
        assert_eq!(pool.read(a), 0xff);
        assert_eq!(pool.read(b), 0xffff_ffff);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.bit_count(), 40);
        assert_eq!(pool.meta(a).name, "a");
    }

    #[test]
    fn stuck_at_overrides_writes() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.write(n, 0);
        assert_eq!(pool.read(n), 1);
        pool.write(n, 0b1110);
        assert_eq!(pool.read(n), 0b1111);
    }

    #[test]
    fn fault_waits_for_injection_instant() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt1,
            from_cycle: 3,
        });
        pool.write(n, 0);
        assert_eq!(pool.read(n), 0); // cycle 0: not active yet
        pool.tick(); // -> cycle 1
        pool.tick(); // -> cycle 2
        assert_eq!(pool.read(n), 0);
        pool.tick(); // cycle 3 reached during this tick
        assert_eq!(pool.read(n), 1);
    }

    #[test]
    fn open_line_holds_injection_instant_value() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 2, ());
        pool.write(n, 0b10);
        pool.inject(Fault {
            net: n,
            bit: 1,
            kind: FaultKind::OpenLine,
            from_cycle: 0,
        });
        // Captured as 1 at injection; later writes to the raw flop are
        // masked by the disconnected driver.
        pool.write(n, 0b00);
        assert_eq!(pool.read(n), 0b10);
        pool.write(n, 0b11);
        assert_eq!(pool.read(n), 0b11);
    }

    #[test]
    fn open_line_capture_at_later_instant() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::OpenLine,
            from_cycle: 2,
        });
        pool.write(n, 1);
        pool.tick(); // cycle 0 -> 1
        pool.write(n, 0);
        pool.tick(); // cycle 1 -> 2
        pool.tick(); // activates at cycle 2 with raw = 0
        pool.write(n, 1);
        assert_eq!(pool.read(n), 0, "held low from injection instant");
    }

    #[test]
    fn only_settled_faults_let_the_clock_jump() {
        let fault = |kind, from_cycle| Fault {
            net: NetId(0),
            bit: 0,
            kind,
            from_cycle,
        };
        // (kind, cycles until settled; `None` = never)
        let cases = [
            (FaultKind::StuckAt1, Some(4)),
            (FaultKind::OpenLine, Some(4)),
            (FaultKind::TransientFlip, Some(4)),
            (
                FaultKind::TransientBurst {
                    flips: 3,
                    spacing: 2,
                },
                Some(8),
            ),
            (
                FaultKind::IntermittentStuck {
                    level: true,
                    period: 4,
                    duty: 4,
                    phase: 0,
                },
                None,
            ),
        ];
        for (kind, settled) in cases {
            let mut pool: NetPool<()> = NetPool::new();
            let n = pool.net("n", 4, ());
            assert!(pool.is_time_invariant(), "a fault-free pool is");
            pool.inject(fault(kind, 4));
            for cycle in 0..12 {
                assert_eq!(
                    pool.is_time_invariant(),
                    settled.is_some_and(|at| cycle >= at),
                    "{kind:?} at cycle {cycle}"
                );
                pool.tick();
            }
            pool.write(n, 0b0110);
            let read = pool.read(n);
            let values = pool.checkpoint();
            let jumped = catch_unwind(AssertUnwindSafe(|| pool.shift_clock(1_000)));
            assert_eq!(jumped.is_ok(), settled.is_some(), "{kind:?}");
            if jumped.is_ok() {
                assert_eq!(pool.cycle(), 1_012);
                assert_eq!(pool.read(n), read, "{kind:?}");
                assert!(pool.values_equal(&values));
                pool.shift_clock(-1_005);
                assert_eq!(pool.cycle(), 7, "{kind:?}: back before it settled");
                assert_eq!(pool.read(n), read, "{kind:?}");
            }
        }
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.enable_read_tracking();
        assert!(!pool.is_time_invariant(), "the tracker notes the clock");
        pool.disable_read_tracking();
        pool.arm_shadows([(fault(FaultKind::StuckAt0, 0), 0)]);
        assert!(!pool.is_time_invariant(), "shadows note divergence");
        pool.clear_faults();
        let values = pool.checkpoint();
        pool.write(n, 1);
        assert!(!pool.values_equal(&values));
    }

    #[test]
    fn clear_and_reset() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.inject(Fault {
            net: n,
            bit: 2,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.write(n, 0);
        assert_eq!(pool.read(n), 0b100);
        pool.clear_faults();
        assert_eq!(pool.read(n), 0);
        pool.write(n, 7);
        pool.tick_many(10);
        pool.reset();
        assert_eq!(pool.read(n), 0);
        assert_eq!(pool.cycle(), 0);
    }

    #[test]
    fn two_faults_on_same_net_compose() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.inject(Fault {
            net: n,
            bit: 1,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.write(n, 0);
        assert_eq!(pool.read(n), 0b11);
    }

    #[test]
    #[should_panic(expected = "outside net")]
    fn bit_out_of_width_panics() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.inject(Fault {
            net: n,
            bit: 4,
            kind: FaultKind::StuckAt0,
            from_cycle: 0,
        });
    }

    #[test]
    fn checkpoint_restores_values_cycle_and_rearms_faults() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 8, ());
        pool.write(n, 0x5a);
        pool.tick_many(7);
        let saved = pool.checkpoint();
        assert_eq!(saved.cycle(), 7);
        pool.write(n, 0x11);
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.tick_many(5);
        pool.restore(&saved);
        assert_eq!(pool.read(n), 0x5a);
        assert_eq!(pool.cycle(), 7);
        assert!(pool.is_fault_free(), "restore clears the overlay");
        // Re-arming a future fault behaves exactly like a fresh run that
        // simulated to cycle 7: inactive until the clock crosses 9.
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt0,
            from_cycle: 9,
        });
        pool.write(n, 0xff);
        assert_eq!(pool.read(n), 0xff);
        pool.tick();
        pool.tick();
        assert_eq!(pool.read(n), 0xfe, "active once cycle 9 is reached");
    }

    #[test]
    fn restore_rearms_past_fault_immediately() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.write(n, 0b0100);
        pool.tick_many(10);
        let saved = pool.checkpoint();
        pool.restore(&saved);
        pool.inject(Fault {
            net: n,
            bit: 1,
            kind: FaultKind::OpenLine,
            from_cycle: 3,
        });
        // Injection instant already past: the open line captures the
        // restored raw value right away, as inject() documents.
        pool.write(n, 0b0010);
        assert_eq!(pool.read(n), 0b0000, "held bit frozen at restored value");
    }

    #[test]
    fn intermittent_stuck_asserts_and_releases_on_schedule() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::IntermittentStuck {
                level: true,
                period: 4,
                duty: 2,
                phase: 0,
            },
            from_cycle: 2,
        });
        pool.write(n, 0);
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(pool.read(n));
            pool.tick();
        }
        // Cycles 0..10: released before injection at 2, then 2 on / 2 off.
        assert_eq!(seen, [0, 0, 1, 1, 0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn intermittent_behaves_identically_after_restore() {
        // The same fault injected over a restored checkpoint must produce
        // the same read sequence as one injected on a run from reset —
        // the property the fork engine relies on.
        let mut fresh: NetPool<()> = NetPool::new();
        let n = fresh.net("n", 1, ());
        let kind = FaultKind::IntermittentStuck {
            level: true,
            period: 3,
            duty: 1,
            phase: 1,
        };
        let mut restored = fresh.clone();
        let saved = {
            let mut p = fresh.clone();
            p.tick_many(5);
            p.checkpoint()
        };
        fresh.inject(Fault {
            net: n,
            bit: 0,
            kind,
            from_cycle: 4,
        });
        fresh.tick_many(5); // from reset, through the injection instant
        restored.restore(&saved); // jump straight to cycle 5
        restored.inject(Fault {
            net: n,
            bit: 0,
            kind,
            from_cycle: 4,
        });
        for _ in 0..9 {
            assert_eq!(restored.read(n), fresh.read(n));
            assert_eq!(restored.cycle(), fresh.cycle());
            fresh.tick();
            restored.tick();
        }
    }

    #[test]
    fn burst_flips_land_on_the_spacing_grid() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::TransientBurst {
                flips: 3,
                spacing: 2,
            },
            from_cycle: 1,
        });
        pool.write(n, 0);
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.push(pool.read(n));
            pool.tick();
        }
        // Flips at cycles 1, 3, 5: value toggles 0->1->0->1 and then
        // holds (the train is exhausted).
        assert_eq!(seen, [0, 1, 1, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn burst_with_one_flip_matches_transient_flip() {
        let mut burst: NetPool<()> = NetPool::new();
        let mut single: NetPool<()> = NetPool::new();
        let nb = burst.net("n", 4, ());
        let ns = single.net("n", 4, ());
        burst.write(nb, 0b1010);
        single.write(ns, 0b1010);
        burst.inject(Fault {
            net: nb,
            bit: 3,
            kind: FaultKind::TransientBurst {
                flips: 1,
                spacing: 7,
            },
            from_cycle: 2,
        });
        single.inject(Fault {
            net: ns,
            bit: 3,
            kind: FaultKind::TransientFlip,
            from_cycle: 2,
        });
        for _ in 0..6 {
            assert_eq!(burst.read(nb), single.read(ns));
            burst.tick();
            single.tick();
        }
    }

    #[test]
    fn overdue_burst_flips_apply_at_once_on_injection() {
        // Injecting past the train start applies every due flip
        // immediately; an even number of overdue flips cancels (parity),
        // mirroring immediate activation of the single transient flip.
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.write(n, 0);
        pool.tick_many(10);
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::TransientBurst {
                flips: 3,
                spacing: 4,
            },
            from_cycle: 1,
        });
        // Flips at 1, 5, 9 are all due at cycle 10: odd count -> flipped.
        assert_eq!(pool.read(n), 1);
    }

    #[test]
    fn burst_rearms_after_restore_like_a_fresh_run() {
        let mut fresh: NetPool<()> = NetPool::new();
        let n = fresh.net("n", 1, ());
        let mut restored = fresh.clone();
        let kind = FaultKind::TransientBurst {
            flips: 2,
            spacing: 3,
        };
        let saved = {
            let mut p = fresh.clone();
            p.tick_many(4);
            p.checkpoint()
        };
        fresh.inject(Fault {
            net: n,
            bit: 0,
            kind,
            from_cycle: 6,
        });
        fresh.tick_many(4);
        restored.restore(&saved);
        restored.inject(Fault {
            net: n,
            bit: 0,
            kind,
            from_cycle: 6,
        });
        for _ in 0..8 {
            assert_eq!(restored.read(n), fresh.read(n));
            fresh.tick();
            restored.tick();
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault parameters")]
    fn invalid_intermittent_parameters_rejected() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.inject(Fault {
            net: n,
            bit: 0,
            kind: FaultKind::IntermittentStuck {
                level: true,
                period: 4,
                duty: 5,
                phase: 0,
            },
            from_cycle: 0,
        });
    }

    #[test]
    fn accepts_exactly_the_faults_inject_takes() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        let fault = |net, bit, kind| Fault {
            net,
            bit,
            kind,
            from_cycle: 0,
        };
        let bad_intermittent = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 5,
            phase: 0,
        };
        assert!(pool.accepts(&fault(n, 3, FaultKind::StuckAt1)));
        assert!(!pool.accepts(&fault(n, 4, FaultKind::StuckAt1)));
        assert!(!pool.accepts(&fault(NetId::from_raw(1), 0, FaultKind::StuckAt1)));
        assert!(!pool.accepts(&fault(n, 0, bad_intermittent)));
        for refused in [
            fault(n, 4, FaultKind::StuckAt1),
            fault(NetId::from_raw(1), 0, FaultKind::StuckAt1),
            fault(n, 0, bad_intermittent),
        ] {
            let mut injected = pool.clone();
            let inject = catch_unwind(AssertUnwindSafe(|| injected.inject(refused)));
            assert!(inject.is_err(), "inject took a refused fault");
            let mut armed = pool.clone();
            let arm = catch_unwind(AssertUnwindSafe(|| armed.arm_shadows([(refused, 0)])));
            assert!(arm.is_err(), "arm_shadows took a refused fault");
        }
    }

    #[test]
    fn read_tracking_records_last_read_cycle() {
        let mut pool: NetPool<()> = NetPool::new();
        let a = pool.net("a", 4, ());
        let b = pool.net("b", 4, ());
        assert_eq!(pool.last_read_cycle(a), None, "tracking off");
        pool.enable_read_tracking();
        assert_eq!(pool.last_read_cycle(a), None, "not yet read");
        pool.read(a);
        assert_eq!(pool.last_read_cycle(a), Some(0));
        pool.tick_many(4);
        pool.read(a);
        assert_eq!(pool.last_read_cycle(a), Some(4));
        assert_eq!(pool.last_read_cycle(b), None);
        pool.reset();
        assert_eq!(pool.last_read_cycle(a), None, "reset clears the tracker");
        pool.disable_read_tracking();
        pool.read(a);
        assert_eq!(pool.last_read_cycle(a), None);
    }

    #[test]
    fn nets_declared_after_tracking_enabled_are_tracked() {
        // Regression: `net()` used to leave `last_read` at its old length,
        // so reading a late-declared net indexed out of bounds.
        let mut pool: NetPool<()> = NetPool::new();
        let early = pool.net("early", 4, ());
        pool.enable_read_tracking();
        let late = pool.net("late", 4, ());
        assert_eq!(pool.last_read_cycle(late), None);
        pool.tick_many(3);
        pool.read(late);
        assert_eq!(pool.last_read_cycle(late), Some(3));
        assert_eq!(pool.last_read_cycle(early), None);
    }

    #[test]
    fn event_trace_records_access_order() {
        let mut pool: NetPool<()> = NetPool::new();
        let a = pool.net("a", 4, ());
        let b = pool.net("b", 4, ());
        pool.read(a);
        assert_eq!(pool.take_events(), vec![], "tracing off records nothing");
        pool.enable_event_trace();
        pool.write(a, 3);
        let v = pool.read(a);
        pool.write(b, v);
        assert_eq!(
            pool.take_events(),
            vec![NetEvent::Write(a), NetEvent::Read(a), NetEvent::Write(b)]
        );
        // take_events drained but left tracing on.
        pool.read(b);
        assert_eq!(pool.take_events(), vec![NetEvent::Read(b)]);
        pool.read(a);
        pool.reset();
        assert_eq!(pool.take_events(), vec![], "reset clears the trace");
        pool.disable_event_trace();
        pool.read(a);
        assert_eq!(pool.take_events(), vec![]);
    }

    #[test]
    fn tracking_or_tracing_after_one_fault_sees_other_nets() {
        for tracing in [false, true] {
            let mut pool: NetPool<()> = NetPool::new();
            let faulty = pool.net("faulty", 4, ());
            let other = pool.net("other", 4, ());
            pool.inject(Fault {
                net: faulty,
                bit: 0,
                kind: FaultKind::StuckAt1,
                from_cycle: 0,
            });
            if tracing {
                pool.enable_event_trace();
            } else {
                pool.enable_read_tracking();
            }
            pool.tick_many(2);
            pool.write(other, 6);
            assert_eq!(pool.read(other), 6);
            assert_eq!(pool.read(faulty), 1, "the fault still applies");
            if tracing {
                assert_eq!(
                    pool.take_events(),
                    vec![
                        NetEvent::Write(other),
                        NetEvent::Read(other),
                        NetEvent::Read(faulty)
                    ]
                );
            } else {
                assert_eq!(pool.last_read_cycle(other), Some(2));
            }
            // Dropping the instrument leaves the single-fault overlay.
            pool.disable_read_tracking();
            pool.disable_event_trace();
            assert_eq!((pool.read(faulty), pool.read(other)), (1, 6));
        }
    }

    #[test]
    fn bridge_over_one_fault_applies_both_until_cleared() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        let m = pool.net("m", 4, ());
        pool.write(n, 0b0011);
        let saved = pool.checkpoint();
        let arm = |pool: &mut NetPool<()>| {
            pool.inject(Fault {
                net: n,
                bit: 3,
                kind: FaultKind::StuckAt1,
                from_cycle: 0,
            });
            pool.inject_bridge(Bridge {
                a: (n, 0),
                b: (m, 0),
                kind: crate::fault::BridgeKind::WiredOr,
                from_cycle: 0,
            });
            // The stuck bit on `n`, and `n`'s bit 0 pulled onto `m`.
            assert_eq!((pool.read(n), pool.read(m)), (0b1011, 0b0001));
        };
        arm(&mut pool);
        pool.clear_faults();
        assert_eq!((pool.read(n), pool.read(m)), (0b0011, 0));
        arm(&mut pool);
        pool.restore(&saved);
        assert_eq!((pool.read(n), pool.read(m)), (0b0011, 0));
        arm(&mut pool);
        pool.reset();
        assert_eq!((pool.read(n), pool.read(m)), (0, 0));
    }

    /// Drive `n` single ticks on one copy and one `tick_many(n)` on the
    /// other, then compare every net's read and the clock.
    fn assert_batch_matches_single_ticks(pool: &NetPool<()>, n: u64) {
        let mut single = pool.clone();
        let mut batched = pool.clone();
        for _ in 0..n {
            single.tick();
        }
        batched.tick_many(n);
        assert_eq!(batched.cycle(), single.cycle());
        for (id, _) in pool.iter() {
            assert_eq!(batched.read(id), single.read(id), "{}", pool.meta(id).name);
        }
    }

    #[test]
    fn tick_many_matches_single_ticks() {
        let kinds = [
            FaultKind::OpenLine,
            FaultKind::TransientFlip,
            FaultKind::TransientBurst {
                flips: 3,
                spacing: 2,
            },
        ];
        for kind in kinds {
            for from_cycle in [0, 3, 4, 9] {
                let mut pool: NetPool<()> = NetPool::new();
                let n = pool.net("n", 4, ());
                pool.write(n, 0b0101);
                pool.tick();
                pool.inject(Fault {
                    net: n,
                    bit: 2,
                    kind,
                    from_cycle,
                });
                for batch in [0, 1, 2, 5, 8] {
                    assert_batch_matches_single_ticks(&pool, batch);
                }
            }
        }
    }

    #[test]
    fn tick_many_orders_events_of_different_faults() {
        // An open line that captures a bit after another fault flipped it
        // must hold the flipped value, even when the two instants fall in
        // one batch and the capture was injected first.
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        for (kind, from_cycle) in [
            (FaultKind::OpenLine, 5),
            (FaultKind::TransientFlip, 2),
            (
                FaultKind::TransientBurst {
                    flips: 2,
                    spacing: 4,
                },
                6,
            ),
        ] {
            pool.inject(Fault {
                net: n,
                bit: 0,
                kind,
                from_cycle,
            });
        }
        assert_batch_matches_single_ticks(&pool, 10);
    }

    #[test]
    fn tracking_alone_overlay_returns_after_a_fault_is_cleared() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.enable_read_tracking();
        assert_eq!(pool.overlay, Overlay::Track);
        pool.write(n, 5);
        pool.tick();
        assert_eq!(pool.read(n), 5);
        assert_eq!(pool.last_read_cycle(n), Some(1));
        pool.inject(Fault {
            net: n,
            bit: 1,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        assert_eq!(pool.overlay, Overlay::Any);
        assert_eq!(pool.read(n), 7);
        pool.clear_faults();
        assert_eq!(pool.overlay, Overlay::Track);
        pool.tick();
        assert_eq!(pool.read(n), 5);
        assert_eq!(pool.last_read_cycle(n), Some(2));
        pool.disable_read_tracking();
        assert_eq!(pool.overlay, Overlay::None);
    }

    fn diverged(pool: &NetPool<()>) -> Vec<usize> {
        pool.diverged_shadow_owners().collect()
    }

    #[test]
    fn a_saved_shadow_table_is_refilled_in_its_own_buffers() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        pool.write(n, 0b0100);
        pool.arm_shadows((0..3).map(|owner| {
            let fault = Fault {
                net: n,
                bit: 2,
                kind: FaultKind::OpenLine,
                from_cycle: 2 + owner as u64,
            };
            (fault, owner)
        }));
        let mut saved = pool.shadows().clone();
        let buffers = (saved.entries.as_ptr(), saved.first.as_ptr());
        pool.tick_many(3);
        saved.clone_from(pool.shadows());
        assert_eq!((saved.entries.as_ptr(), saved.first.as_ptr()), buffers);
        assert_eq!(saved.next_activation, 4);
        let active: Vec<bool> = saved.entries.iter().map(|s| s.state.active).collect();
        assert_eq!(active, [true, true, false]);
        assert_eq!(saved.first, pool.shadows().first);
    }

    #[test]
    fn shadows_never_change_a_read() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        let m = pool.net("m", 4, ());
        let kinds = [
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
            FaultKind::TransientFlip,
            FaultKind::IntermittentStuck {
                level: true,
                period: 3,
                duty: 1,
                phase: 0,
            },
            FaultKind::TransientBurst {
                flips: 2,
                spacing: 2,
            },
        ];
        pool.arm_shadows(kinds.iter().enumerate().map(|(owner, &kind)| {
            let fault = Fault {
                net: n,
                bit: (owner % 4) as u8,
                kind,
                from_cycle: 1,
            };
            (fault, owner)
        }));
        assert_eq!(pool.overlay, Overlay::Shadow);
        assert!(pool.is_fault_free(), "shadows are not faults");
        for step in 0..12u32 {
            pool.write(n, step & 0xf);
            pool.write(m, !step);
            assert_eq!(pool.read(n), step & 0xf);
            assert_eq!(pool.read(m), !step & 0xf);
            pool.tick_many(u64::from(step % 3));
        }
        assert_eq!(pool.evaluate_all(), 11 + (!11u32 & 0xf));
    }

    #[test]
    fn a_shadow_diverges_at_exactly_its_first_differing_read() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 4, ());
        let other = pool.net("other", 4, ());
        pool.write(n, 0b0100);
        pool.arm_shadows([
            (
                Fault {
                    net: n,
                    bit: 2,
                    kind: FaultKind::StuckAt1,
                    from_cycle: 0,
                },
                7,
            ),
            (
                Fault {
                    net: n,
                    bit: 0,
                    kind: FaultKind::OpenLine,
                    from_cycle: 2,
                },
                9,
            ),
        ]);
        // The stuck bit already holds 1: reading it changes nothing.
        pool.read(n);
        pool.write(other, 0);
        pool.read(other);
        assert_eq!(diverged(&pool), Vec::<usize>::new());
        // Clearing the bit without a read is not a divergence either.
        pool.write(n, 0b0001);
        assert_eq!(diverged(&pool), Vec::<usize>::new());
        assert_eq!(pool.read(n), 0b0001, "the read stays raw");
        assert_eq!(diverged(&pool), vec![7]);
        // The open line captures 1 at cycle 2; the raw bit stays 1 on
        // later reads, then drops without a read, then a read sees it.
        pool.tick_many(3);
        pool.read(n);
        assert_eq!(diverged(&pool), vec![7]);
        pool.write(n, 0);
        pool.tick();
        assert_eq!(diverged(&pool), vec![7]);
        pool.read(n);
        assert_eq!(
            diverged(&pool),
            vec![7, 9],
            "table order is by net, then arming"
        );
        pool.retire_shadows(|owner| owner == 7);
        assert_eq!(diverged(&pool), vec![9]);
        pool.retire_shadows(|_| true);
        assert_eq!(pool.overlay, Overlay::None);
    }

    #[test]
    fn intermittent_shadows_diverge_only_while_asserted() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.arm_shadows([(
            Fault {
                net: n,
                bit: 0,
                kind: FaultKind::IntermittentStuck {
                    level: true,
                    period: 4,
                    duty: 1,
                    phase: 0,
                },
                from_cycle: 1,
            },
            0,
        )]);
        for _ in 0..3 {
            pool.tick();
            pool.read(n);
            // Asserted at cycle 1 only: the first read already differs.
            assert_eq!(diverged(&pool), vec![0]);
        }
        let mut late: NetPool<()> = NetPool::new();
        let n = late.net("n", 1, ());
        late.arm_shadows([(
            Fault {
                net: n,
                bit: 0,
                kind: FaultKind::IntermittentStuck {
                    level: true,
                    period: 4,
                    duty: 1,
                    phase: 1,
                },
                from_cycle: 1,
            },
            0,
        )]);
        // Released on cycles 1..=3 (phase 1), asserted on cycle 4.
        for _ in 0..3 {
            late.tick();
            late.read(n);
            assert_eq!(diverged(&late), Vec::<usize>::new());
        }
        late.tick();
        late.read(n);
        assert_eq!(diverged(&late), vec![0]);
    }

    #[test]
    fn transient_and_burst_shadows_diverge_at_activation() {
        for kind in [
            FaultKind::TransientFlip,
            FaultKind::TransientBurst {
                flips: 3,
                spacing: 2,
            },
        ] {
            let mut pool: NetPool<()> = NetPool::new();
            let n = pool.net("n", 2, ());
            pool.write(n, 0b10);
            pool.arm_shadows([(
                Fault {
                    net: n,
                    bit: 1,
                    kind,
                    from_cycle: 5,
                },
                3,
            )]);
            pool.tick_many(4);
            assert_eq!(diverged(&pool), Vec::<usize>::new(), "{kind}");
            // No read of the net at all: the flip itself is the divergence.
            pool.tick_many(3);
            assert_eq!(diverged(&pool), vec![3], "{kind}");
            assert_eq!(pool.read(n), 0b10, "{kind}: the stored value is untouched");
            // Armed past its instant, it diverges on arming.
            let mut past: NetPool<()> = NetPool::new();
            let m = past.net("m", 2, ());
            past.tick_many(9);
            past.arm_shadows([(
                Fault {
                    net: m,
                    bit: 0,
                    kind,
                    from_cycle: 5,
                },
                1,
            )]);
            assert_eq!(diverged(&past), vec![1], "{kind}");
        }
    }

    #[test]
    fn a_carried_open_line_keeps_the_bit_it_captured() {
        // The open line captures 1 at cycle 2; the raw bit then drops
        // without a read. A fault injected from the saved table at cycle 4
        // must hold 1, where a fresh injection would capture 0.
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        pool.write(n, 1);
        let fault = Fault {
            net: n,
            bit: 0,
            kind: FaultKind::OpenLine,
            from_cycle: 2,
        };
        pool.arm_shadows([(fault, 0)]);
        pool.tick_many(3);
        pool.write(n, 0);
        pool.tick();
        let saved = pool.checkpoint();
        let table = pool.shadows().clone();
        pool.restore(&saved);
        assert!(pool.shadows().is_empty(), "restore disarms the shadows");
        let mut fresh = pool.clone();
        pool.inject_shadowed(&table, 0);
        assert_eq!(pool.read(n), 1, "carried");
        fresh.inject(fault);
        assert_eq!(
            fresh.read(n),
            0,
            "a fresh injection captures the current raw bit"
        );
    }

    #[test]
    fn carried_faults_ride_as_shadows_with_their_state() {
        // An open line captures 1 at cycle 2 in a faulty pool whose raw
        // bit then drops; carried to a fault-free pool that reads 0, it
        // must keep holding 1, where one armed afresh would capture 0.
        let mut faulty: NetPool<()> = NetPool::new();
        let n = faulty.net("n", 2, ());
        faulty.write(n, 0b01);
        let line = Fault {
            net: n,
            bit: 0,
            kind: FaultKind::OpenLine,
            from_cycle: 2,
        };
        let stuck = Fault {
            net: n,
            bit: 1,
            kind: FaultKind::StuckAt0,
            from_cycle: 2,
        };
        faulty.inject(line);
        faulty.inject(stuck);
        faulty.tick_many(3);
        faulty.write(n, 0);
        let carried: Vec<FaultState> = faulty.fault_states().collect();
        assert_eq!(carried.len(), 2);

        let mut golden: NetPool<()> = NetPool::new();
        let n = golden.net("n", 2, ());
        golden.tick_many(3);
        let mut fresh = golden.clone();
        golden.arm_carried(carried.iter().map(|&state| (state, 4)));
        fresh.arm_shadows([(line, 4), (stuck, 4)]);
        golden.read(n);
        fresh.read(n);
        assert_eq!(diverged(&golden), vec![4], "the held 1 differs from 0");
        assert_eq!(diverged(&fresh), Vec::<usize>::new());
        // Injected back from the table, the held bit survives the trip.
        let table = golden.shadows().clone();
        golden.clear_faults();
        golden.inject_shadowed(&table, 4);
        assert_eq!(golden.read(n), 0b01);
    }

    #[test]
    #[should_panic(expected = "do not mix")]
    fn faults_and_shadows_do_not_mix() {
        let mut pool: NetPool<()> = NetPool::new();
        let n = pool.net("n", 1, ());
        let fault = Fault {
            net: n,
            bit: 0,
            kind: FaultKind::StuckAt0,
            from_cycle: 0,
        };
        pool.arm_shadows([(fault, 0)]);
        pool.inject(fault);
    }

    #[test]
    #[should_panic(expected = "population mismatch")]
    fn foreign_checkpoint_rejected() {
        let mut small: NetPool<()> = NetPool::new();
        small.net("x", 1, ());
        let saved = small.checkpoint();
        let mut big: NetPool<()> = NetPool::new();
        big.net("x", 1, ());
        big.net("y", 1, ());
        big.restore(&saved);
    }

    #[test]
    fn iter_lists_all_nets() {
        let mut pool: NetPool<u8> = NetPool::new();
        pool.net("x", 1, 7);
        pool.net("y", 2, 9);
        let names: Vec<&str> = pool.iter().map(|(_, m)| m.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
        let tags: Vec<u8> = pool.iter().map(|(_, m)| m.tag).collect();
        assert_eq!(tags, vec![7, 9]);
    }
}

#[cfg(test)]
mod bridge_tests {
    use super::*;
    use crate::fault::{Bridge, BridgeKind};

    fn pool_with_two() -> (NetPool<()>, NetId, NetId) {
        let mut pool: NetPool<()> = NetPool::new();
        let a = pool.net("a", 4, ());
        let b = pool.net("b", 4, ());
        (pool, a, b)
    }

    #[test]
    fn wired_and_dominates_zero() {
        let (mut pool, a, b) = pool_with_two();
        pool.inject_bridge(Bridge {
            a: (a, 0),
            b: (b, 0),
            kind: BridgeKind::WiredAnd,
            from_cycle: 0,
        });
        pool.write(a, 0b0001);
        pool.write(b, 0b0000);
        assert_eq!(pool.read(a) & 1, 0, "peer 0 pulls the shorted bit down");
        assert_eq!(pool.read(b) & 1, 0);
        pool.write(b, 0b0001);
        assert_eq!(pool.read(a) & 1, 1);
    }

    #[test]
    fn wired_or_dominates_one() {
        let (mut pool, a, b) = pool_with_two();
        pool.inject_bridge(Bridge {
            a: (a, 2),
            b: (b, 1),
            kind: BridgeKind::WiredOr,
            from_cycle: 0,
        });
        pool.write(a, 0);
        pool.write(b, 0b0010);
        assert_eq!(pool.read(a), 0b0100, "peer 1 pulls the shorted bit up");
        assert_eq!(pool.read(b), 0b0010);
        pool.write(b, 0);
        assert_eq!(pool.read(a), 0);
    }

    #[test]
    fn bridge_waits_for_injection_instant() {
        let (mut pool, a, b) = pool_with_two();
        pool.inject_bridge(Bridge {
            a: (a, 0),
            b: (b, 0),
            kind: BridgeKind::WiredOr,
            from_cycle: 2,
        });
        pool.write(b, 1);
        assert_eq!(pool.read(a), 0, "inactive before the instant");
        pool.tick();
        pool.tick();
        assert_eq!(pool.read(a), 1, "active from cycle 2");
    }

    #[test]
    fn other_bits_undisturbed_and_clearable() {
        let (mut pool, a, b) = pool_with_two();
        pool.inject_bridge(Bridge {
            a: (a, 0),
            b: (b, 0),
            kind: BridgeKind::WiredOr,
            from_cycle: 0,
        });
        pool.write(a, 0b1010);
        pool.write(b, 0b0001);
        assert_eq!(pool.read(a), 0b1011);
        pool.clear_faults();
        assert_eq!(pool.read(a), 0b1010);
    }

    #[test]
    #[should_panic(expected = "two distinct bits")]
    fn self_bridge_rejected() {
        let (mut pool, a, _) = pool_with_two();
        pool.inject_bridge(Bridge {
            a: (a, 0),
            b: (a, 0),
            kind: BridgeKind::WiredOr,
            from_cycle: 0,
        });
    }

    #[test]
    fn bridge_composes_with_stuck_at() {
        let (mut pool, a, b) = pool_with_two();
        pool.inject(Fault {
            net: a,
            bit: 1,
            kind: FaultKind::StuckAt1,
            from_cycle: 0,
        });
        pool.inject_bridge(Bridge {
            a: (a, 0),
            b: (b, 0),
            kind: BridgeKind::WiredOr,
            from_cycle: 0,
        });
        pool.write(a, 0);
        pool.write(b, 1);
        assert_eq!(pool.read(a), 0b011);
    }

    /// What `evaluate_all` must return: every net's `read`, folded.
    fn read_fold(pool: &NetPool<()>) -> u32 {
        (0..pool.len() as u32).fold(0, |acc, i| acc.wrapping_add(pool.read(NetId(i))))
    }

    #[test]
    fn evaluate_all_folds_what_every_read_returns() {
        fn at_cycle_2(net: NetId, bit: u8, kind: FaultKind) -> Fault {
            Fault {
                net,
                bit,
                kind,
                from_cycle: 2,
            }
        }
        const INTERMITTENT: FaultKind = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 2,
            phase: 0,
        };
        type Inject = fn(&mut NetPool<()>, NetId, NetId);
        // Each case injects at cycle 2 and is checked at cycles 0 to 5,
        // with its nets rewritten at cycle 3: before activation, while an
        // open line holds, after a flip lands, while an intermittent fault
        // is asserted (cycles 2, 3) and released (4, 5).
        let cases: [Inject; 6] = [
            |pool, a, _| pool.inject(at_cycle_2(a, 1, FaultKind::StuckAt1)),
            |pool, a, _| pool.inject(at_cycle_2(a, 0, FaultKind::OpenLine)),
            |pool, _, b| pool.inject(at_cycle_2(b, 3, FaultKind::TransientFlip)),
            |pool, _, b| pool.inject(at_cycle_2(b, 2, INTERMITTENT)),
            |pool, a, _| {
                pool.inject(at_cycle_2(a, 0, FaultKind::StuckAt0));
                pool.inject(at_cycle_2(a, 3, FaultKind::StuckAt1));
            },
            |pool, a, b| {
                pool.inject_bridge(Bridge {
                    a: (a, 2),
                    b: (b, 1),
                    kind: BridgeKind::WiredOr,
                    from_cycle: 2,
                });
            },
        ];
        for (case, inject) in cases.iter().enumerate() {
            let (mut pool, a, b) = pool_with_two();
            pool.net("untouched", 8, ());
            pool.write(a, 0b0101);
            pool.write(b, 0b0010);
            pool.write(NetId(2), 0xa5);
            inject(&mut pool, a, b);
            for cycle in 0..6 {
                if cycle == 3 {
                    pool.write(a, 0b1010);
                    pool.write(b, 0b0110);
                }
                assert_eq!(
                    pool.evaluate_all(),
                    read_fold(&pool),
                    "case {case} at cycle {cycle}"
                );
                pool.tick();
            }
        }
    }
}
