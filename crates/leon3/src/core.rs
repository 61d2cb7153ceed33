//! The model's top level: state over nets, the step loop and trap entry.

use crate::config::Leon3Config;
use crate::nets::NetMap;
use rtl_sim::{Fault, FaultState, NetId, NetPool, PoolCheckpoint, ShadowTable, Waveform};
use sparc_asm::Program;
use sparc_isa::{decode, Icc, Psr, Reg, Tbr, TrapType, Unit, Wim, WindowedRegs, NWINDOWS};
use sparc_iss::{BusTrace, CpuState, Exit, Memory, RunOutcome, RunStats, StepEvent, Timer};

/// A complete mid-run capture of a fault-free [`Leon3`].
///
/// A snapshot holds everything execution depends on: every net's raw value
/// (architectural registers, pipeline latches, cache tag/valid/data arrays
/// — caches are nets), the memory image, the off-core bus trace recorded so
/// far, the statistics counters, the timer peripheral and the cycle
/// counter. [`Leon3::restore`] therefore resumes execution bit-identically
/// to the model the snapshot was taken from; the campaign engine exploits
/// this to fork every fault job from one shared fault-free prefix instead
/// of re-simulating it.
///
/// Two things are deliberately *not* captured: the fault overlay (a
/// snapshot must be taken fault-free, and each forked job re-injects its
/// own fault after restoring) and debugging aids (waveform recording and
/// the rolling instruction window), which restore simply clears.
///
/// Snapshots are plain data (`Send + Sync`): one snapshot is shared by
/// reference across all campaign worker threads.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pool: PoolCheckpoint,
    mem: Memory,
    trace: BusTrace,
    stats: RunStats,
    exit: Option<Exit>,
    eval_acc: u32,
    timer: Timer,
    parity_event: Option<u64>,
    config: Leon3Config,
}

/// A state of a [`Leon3`] that states of a closable model are tested
/// against for an exact repeat (see [`Leon3::repeats`]): a later state of
/// the same run ([`Leon3::loop_mark`]), or the golden run's state at the
/// step count a faulty run has reached ([`Leon3::state_mark`]).
///
/// It holds what a closable model's execution can change and depends on:
/// every raw net value, the bus trace's length and the parity latch.
/// Every store leaves the core as a bus event, so an unchanged trace
/// length means unchanged memory. It also holds what only counts — the
/// clock, the statistics and the faithful-clocking accumulator — so that
/// [`Leon3::close_loop`] can repeat what they counted.
#[derive(Debug, Clone)]
pub struct LoopMark {
    pool: PoolCheckpoint,
    pc: u32,
    trace_len: usize,
    parity_event: Option<u64>,
    stats: RunStats,
    eval_acc: u32,
}

impl LoopMark {
    /// The cycle at which the mark was taken.
    pub fn cycle(&self) -> u64 {
        self.pool.cycle()
    }
}

impl Snapshot {
    /// The cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.pool.cycle()
    }

    /// Number of bus events already recorded at the capture instant (the
    /// campaign's streaming comparison starts its cursor here).
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Instructions retired up to the capture instant.
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Approximate resident size of this snapshot in bytes: captured net
    /// values, allocated memory pages and the recorded bus trace (the
    /// three components that grow with the workload; the fixed-size
    /// fields are noise next to them). Checkpoint pools use this to
    /// report the memory side of the stride trade-off.
    pub fn approx_bytes(&self) -> usize {
        self.pool.resident_bytes()
            + self.mem.resident_bytes()
            + self.trace.len() * std::mem::size_of::<sparc_iss::BusEvent>()
    }
}

/// The signal-level Leon3-like model.
///
/// See the [crate docs](crate) for scope and modelling decisions.
///
/// # Unwind boundary
///
/// The campaign engine runs every fault job under
/// `std::panic::catch_unwind` and keeps using the same model instance
/// afterwards (wrapped in `AssertUnwindSafe`, since `&mut Leon3` is never
/// `UnwindSafe` by definition). That is sound on two grounds, both of
/// which are contracts of this type:
///
/// 1. `Leon3` (and [`Snapshot`]) hold only owned data — asserted at
///    compile time below — so a caught panic can leave the model *stale*,
///    never torn in the memory-safety sense. The only interior mutability
///    in the model lives in `rtl_sim::NetPool`: the golden-run read
///    tracker's `Cell` counters and the conformance-check event trace's
///    `RefCell` buffer, neither of which campaign workers ever enable and
///    both of which hold plain data either way;
/// 2. every job entry sequence rebuilds all execution state from scratch:
///    [`Leon3::reset`] + [`Leon3::load`] on the re-execution path,
///    [`Leon3::restore`] on the fork path. Nothing a panicked job left
///    behind survives into the next job.
///
/// Any new field must be covered by `reset`/`restore` (or be a pure
/// debugging aid those paths clear) to preserve this contract.
#[derive(Debug, Clone)]
pub struct Leon3 {
    pub(crate) pool: NetPool<Unit>,
    pub(crate) nets: NetMap,
    pub(crate) mem: Memory,
    pub(crate) trace: BusTrace,
    pub(crate) stats: RunStats,
    pub(crate) config: Leon3Config,
    pub(crate) exit: Option<Exit>,
    /// Accumulator for faithful-clocking evaluation (keeps the per-cycle
    /// net sweep observable so it cannot be optimised away).
    eval_acc: u32,
    waveform: Option<Waveform>,
    pub(crate) timer: Timer,
    /// Cycle of the first cache-parity mismatch, when `cmem_parity` is
    /// configured. Latch-only: detection never alters execution, so the
    /// parity mechanism is orthogonal to the outcome classification.
    pub(crate) parity_event: Option<u64>,
    trace_depth: usize,
    recent: std::collections::VecDeque<(u64, u32, sparc_isa::Instr)>,
}

// Compile-time proof of the unwind boundary's first ground: the model is
// owned data (`UnwindSafe`), and snapshots — shared by reference across
// all campaign workers — carry no interior mutability at all
// (`RefUnwindSafe`). A new `Mutex`/`RefCell` field, or a `Cell` leaking
// into snapshots, fails the build here.
const _: fn() = || {
    fn owned_data<T: std::panic::UnwindSafe>() {}
    fn shareable_plain_data<T: std::panic::UnwindSafe + std::panic::RefUnwindSafe>() {}
    owned_data::<Leon3>();
    shareable_plain_data::<Snapshot>();
};

impl Leon3 {
    /// A fresh model with nothing loaded.
    ///
    /// # Panics
    ///
    /// Panics if a cache's line count or line size is not a power of two
    /// (the cache paths index by shifts and masks).
    pub fn new(config: Leon3Config) -> Leon3 {
        assert!(
            config.icache.is_power_of_two() && config.dcache.is_power_of_two(),
            "cache geometry must be a power of two"
        );
        let mut pool = NetPool::new();
        let nets = NetMap::declare(&mut pool, config.icache, config.dcache, config.cmem_parity);
        let mut cpu = Leon3 {
            pool,
            nets,
            mem: Memory::new(config.ram_base, config.ram_size),
            trace: if config.trace_reads {
                BusTrace::with_reads()
            } else {
                BusTrace::new()
            },
            stats: RunStats::default(),
            config,
            exit: None,
            eval_acc: 0,
            waveform: None,
            timer: Timer::new(),
            parity_event: None,
            trace_depth: 0,
            recent: std::collections::VecDeque::new(),
        };
        cpu.reset_state(cpu.config.ram_base);
        cpu
    }

    fn reset_state(&mut self, entry: u32) {
        self.pool.write(self.nets.pc, entry);
        self.pool.write(self.nets.npc, entry.wrapping_add(4));
        self.pool.write(self.nets.annul, 0);
        // PSR reset: supervisor, traps enabled (matches CpuState::at_entry).
        self.pool.write(self.nets.psr_s, 1);
        self.pool.write(self.nets.psr_ps, 1);
        self.pool.write(self.nets.psr_et, 1);
        self.pool.write(self.nets.psr_pil, 0);
        self.pool.write(self.nets.psr_cwp, 0);
        self.pool.write(self.nets.psr_icc, 0);
        self.pool.write(self.nets.wim, 0);
        self.pool.write(self.nets.tbr, 0);
    }

    /// Load a program image and point the PC at its entry.
    pub fn load(&mut self, program: &Program) {
        self.mem.load(program);
        self.reset_state(program.entry);
    }

    /// Return the model to power-on state (all nets zero, faults cleared,
    /// memory empty, traces and statistics reset) without re-allocating
    /// the net pool — campaign runners reuse one instance per worker.
    pub fn reset(&mut self) {
        self.pool.reset();
        self.mem = Memory::new(self.config.ram_base, self.config.ram_size);
        self.trace = if self.config.trace_reads {
            BusTrace::with_reads()
        } else {
            BusTrace::new()
        };
        self.stats = RunStats::default();
        self.exit = None;
        self.eval_acc = 0;
        self.waveform = None;
        self.timer = Timer::new();
        self.parity_event = None;
        self.recent.clear();
        self.reset_state(self.config.ram_base);
    }

    /// Capture the complete execution state (see [`Snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if a fault or bridge is injected: the overlay is not part of
    /// a snapshot, so capturing one here would silently drop it on
    /// restore.
    pub fn snapshot(&self) -> Snapshot {
        self.assert_fault_free();
        Snapshot {
            pool: self.pool.checkpoint(),
            mem: self.mem.clone(),
            trace: self.trace.clone(),
            stats: self.stats.clone(),
            exit: self.exit,
            eval_acc: self.eval_acc,
            timer: self.timer.clone(),
            parity_event: self.parity_event,
            config: self.config.clone(),
        }
    }

    /// [`Leon3::snapshot`] into an existing snapshot, refilling its
    /// buffers in place: a snapshot retaken from the same run copies bytes
    /// without touching the allocator.
    ///
    /// # Panics
    ///
    /// Panics if a fault or bridge is injected, or `into` was captured
    /// under a different [`Leon3Config`].
    pub fn snapshot_into(&self, into: &mut Snapshot) {
        self.assert_fault_free();
        assert_eq!(
            self.config, into.config,
            "snapshot captured under a different configuration"
        );
        self.pool.checkpoint_into(&mut into.pool);
        into.mem.clone_from(&self.mem);
        into.trace.clone_from(&self.trace);
        into.stats.clone_from(&self.stats);
        into.exit = self.exit;
        into.eval_acc = self.eval_acc;
        into.timer.clone_from(&self.timer);
        into.parity_event = self.parity_event;
    }

    fn assert_fault_free(&self) {
        assert!(
            self.pool.is_fault_free(),
            "snapshots must be taken from a fault-free model"
        );
    }

    /// Restore a [`Snapshot`], resuming execution bit-identically to the
    /// model it was captured from. Any injected faults and shadows are
    /// cleared (the caller re-injects the fault under test, which re-arms
    /// against the restored clock exactly as on a fresh run); waveform
    /// recording and the rolling instruction window are dropped. The
    /// model's own buffers are refilled in place.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was captured under a different
    /// [`Leon3Config`] (the net population and timing would not line up).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        assert_eq!(
            self.config, snapshot.config,
            "snapshot captured under a different configuration"
        );
        self.pool.restore(&snapshot.pool);
        self.mem.clone_from(&snapshot.mem);
        self.trace.clone_from(&snapshot.trace);
        self.stats.clone_from(&snapshot.stats);
        self.exit = snapshot.exit;
        self.eval_acc = snapshot.eval_acc;
        self.timer.clone_from(&snapshot.timer);
        self.parity_event = snapshot.parity_event;
        self.waveform = None;
        self.recent.clear();
    }

    /// Whether the model is *closable*: it steps alike at every later
    /// clock value, so a state it repeats exactly it repeats forever, with
    /// the same cycles each time. That takes the timer off, a run that has
    /// not stopped, no waveform or instruction window recording, and a
    /// [time-invariant](NetPool::is_time_invariant) net pool. A model
    /// stays closable until it stops or is injected, reset or restored.
    pub fn is_closable(&self) -> bool {
        !self.config.timer
            && self.exit.is_none()
            && self.waveform.is_none()
            && self.trace_depth == 0
            && self.pool.is_time_invariant()
    }

    /// Capture the current state as a [`LoopMark`].
    ///
    /// # Panics
    ///
    /// Panics unless the model [is closable](Leon3::is_closable).
    pub fn loop_mark(&self) -> LoopMark {
        assert!(self.is_closable(), "loop marks need a closable model");
        self.state_mark()
    }

    /// Capture the current state as a [`LoopMark`] from any model, closable
    /// or not: the golden state that a faulty run is compared against may
    /// come from a model that carries shadows, which is never closable.
    pub fn state_mark(&self) -> LoopMark {
        LoopMark {
            pool: self.pool.checkpoint(),
            pc: self.pool.read(self.nets.pc),
            trace_len: self.trace.len(),
            parity_event: self.parity_event,
            stats: self.stats.clone(),
            eval_acc: self.eval_acc,
        }
    }

    /// Whether the model is back in the state `mark` captured: the same
    /// PC (the cheap test, made first), bus-trace length, parity latch and
    /// raw net values. For a mark taken earlier in this run, with nothing
    /// injected since, a repeat proves that the model loops from here
    /// forever through the steps it took since the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` was taken from a model with a different net
    /// population.
    pub fn repeats(&self, mark: &LoopMark) -> bool {
        self.pool.read(self.nets.pc) == mark.pc
            && self.trace.len() == mark.trace_len
            && self.parity_event == mark.parity_event
            && self.pool.values_equal(&mark.pool)
    }

    /// Skip `periods` passes through the loop that [`Leon3::repeats`]
    /// proved from `mark`: the clock, the statistics and the
    /// faithful-clocking accumulator advance by `periods` times what they
    /// advanced since the mark, and nothing else changes. The model is
    /// left exactly as stepping through those passes would leave it.
    ///
    /// # Panics
    ///
    /// Panics unless the model is closable and repeats `mark`, or if a
    /// count overflows.
    pub fn close_loop(&mut self, mark: &LoopMark, periods: u64) {
        assert!(
            self.is_closable() && self.repeats(mark),
            "only a closable model that repeats its mark may close the loop"
        );
        let cycles = (self.pool.cycle() - mark.pool.cycle())
            .checked_mul(periods)
            .and_then(|cycles| i64::try_from(cycles).ok())
            .expect("the closed loop's cycles fit");
        self.pool.shift_clock(cycles);
        self.stats.repeat_since(&mark.stats, periods);
        // The accumulator wraps, so only `periods` modulo 2^32 matters.
        let per_period = self.eval_acc.wrapping_sub(mark.eval_acc);
        self.eval_acc = self
            .eval_acc
            .wrapping_add(per_period.wrapping_mul(periods as u32));
    }

    /// Move the clock by `delta` cycles, later or earlier, and change
    /// nothing else. A closable model steps alike at every clock value, so
    /// this puts a model restored to a golden state into the timeline of a
    /// faulty run that reached that state `delta` cycles late (early if
    /// negative). The statistics and the faithful-clocking accumulator stay
    /// those of the run the state came from.
    ///
    /// # Panics
    ///
    /// Panics unless the model is closable, or if the clock would leave the
    /// range of `u64`.
    pub fn shift_clock(&mut self, delta: i64) {
        assert!(
            self.is_closable(),
            "only a closable model may shift its clock"
        );
        self.pool.shift_clock(delta);
    }

    /// Record, per net, the cycle of its most recent read (used on golden
    /// runs to find which nets a workload ever exercises — the campaign's
    /// site-activation tracker).
    pub fn enable_read_tracking(&mut self) {
        self.pool.enable_read_tracking();
    }

    /// The cycle of the most recent read of `net`, or `None` if the net
    /// was never read while tracking was enabled.
    pub fn net_last_read(&self, net: NetId) -> Option<u64> {
        self.pool.last_read_cycle(net)
    }

    /// Record every net read and write in program order, for cross-checking
    /// the declared net graph against the model's real access order (see
    /// [`crate::graph`]). Unbounded memory per access — extraction runs
    /// only.
    pub fn enable_event_trace(&mut self) {
        self.pool.enable_event_trace();
    }

    /// Drain the recorded access trace (empty if tracing is off).
    pub fn take_net_events(&mut self) -> Vec<rtl_sim::NetEvent> {
        self.pool.take_events()
    }

    /// Inject a permanent fault into a net.
    pub fn inject(&mut self, fault: Fault) {
        self.pool.inject(fault);
    }

    /// Inject a bridging (short-circuit) fault between two net bits.
    pub fn inject_bridge(&mut self, bridge: rtl_sim::Bridge) {
        self.pool.inject_bridge(bridge);
    }

    /// Arm shadow faults on a fault-free model (see
    /// [`NetPool::arm_shadows`]): the run stays fault-free and each shadow
    /// notes when its fault would first have changed a read.
    pub fn arm_shadows(&mut self, faults: impl IntoIterator<Item = (Fault, usize)>) {
        self.pool.arm_shadows(faults);
    }

    /// The owners of the shadows that have diverged (see
    /// [`NetPool::diverged_shadow_owners`]).
    pub fn diverged_shadow_owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.pool.diverged_shadow_owners()
    }

    /// Disarm every shadow whose owner `retire` selects.
    pub fn retire_shadows(&mut self, retire: impl FnMut(usize) -> bool) {
        self.pool.retire_shadows(retire);
    }

    /// The armed shadows, to save beside a [`Snapshot`] (which leaves them
    /// out, as it leaves out faults).
    pub fn shadows(&self) -> &ShadowTable {
        self.pool.shadows()
    }

    /// Inject `owner`'s shadows from `table` as real faults, carrying their
    /// state (see [`NetPool::inject_shadowed`]).
    pub fn inject_shadowed(&mut self, table: &ShadowTable, owner: usize) {
        self.pool.inject_shadowed(table, owner);
    }

    /// Arm, beside the shadows already armed, faults carried with their
    /// state from another model (see [`NetPool::arm_carried`]).
    pub fn arm_carried(&mut self, faults: impl IntoIterator<Item = (FaultState, usize)>) {
        self.pool.arm_carried(faults);
    }

    /// Run until halt, error mode or the instruction budget is exhausted.
    pub fn run(&mut self, max_instructions: u64) -> RunOutcome {
        let budget_end = self.stats.instructions + max_instructions;
        loop {
            match self.exit {
                Some(Exit::Halted(code)) => return RunOutcome::Halted { code },
                Some(Exit::ErrorMode(trap)) => return RunOutcome::ErrorMode { trap },
                None => {}
            }
            if self.stats.instructions >= budget_end {
                return RunOutcome::InstructionLimit;
            }
            self.step();
        }
    }

    /// Execute one instruction through all seven stages.
    pub fn step(&mut self) -> StepEvent {
        if self.exit.is_some() {
            return StepEvent::Stopped;
        }
        // Sample the interrupt lines between instructions.
        if self.config.timer {
            self.timer.advance_to(self.pool.cycle());
            if let Some(level) = self.timer.pending_level() {
                let et = self.pool.read(self.nets.psr_et) == 1;
                let pil = self.pool.read(self.nets.psr_pil) as u8;
                let annulled = self.pool.read(self.nets.annul) == 1;
                if et && !annulled && (level == 15 || level > pil) {
                    return self.take_trap(TrapType::Interrupt(level));
                }
            }
        }
        self.advance_cycles(1);
        if self.pool.read(self.nets.annul) == 1 {
            self.pool.write(self.nets.annul, 0);
            self.stats.annulled += 1;
            self.advance();
            return StepEvent::Annulled;
        }
        // ---- Fetch ----
        let pc = self.pool.read(self.nets.pc);
        if !pc.is_multiple_of(4) || !self.mem.in_range(pc, 4) {
            return self.take_trap(TrapType::InstructionAccess);
        }
        let word = self.icache_fetch(pc);
        self.pool.write(self.nets.fe_inst, word);
        // ---- Decode ----
        let fetched = self.pool.read(self.nets.fe_inst);
        self.pool.write(self.nets.de_ir, fetched);
        let ir = self.pool.read(self.nets.de_ir);
        let instr = match decode(ir) {
            Ok(instr) => instr,
            Err(_) => return self.take_trap(TrapType::IllegalInstruction),
        };
        self.stats.record(&instr);
        if self.trace_depth > 0 {
            if self.recent.len() == self.trace_depth {
                self.recent.pop_front();
            }
            self.recent.push_back((self.pool.cycle(), pc, instr));
        }
        let extra = instr.op.latency().saturating_sub(1);
        self.advance_cycles(u64::from(extra));
        // ---- Register access / execute / memory / exception / write-back.
        match self.exec(&instr) {
            Ok(crate::execute::Flow::Advance) => {
                self.advance();
                StepEvent::Executed
            }
            Ok(crate::execute::Flow::Jumped) => StepEvent::Executed,
            Ok(crate::execute::Flow::Halt(code)) => {
                self.exit = Some(Exit::Halted(code));
                StepEvent::Stopped
            }
            Err(trap) => self.take_trap(trap),
        }
    }

    /// Start recording a waveform of the given nets (one sample per
    /// cycle). Call before `run`; retrieve with [`Leon3::waveform_vcd`].
    pub fn trace_nets(&mut self, nets: Vec<NetId>) {
        self.waveform = Some(Waveform::new(nets));
    }

    /// The recorded waveform as a VCD document, if tracing was enabled.
    pub fn waveform_vcd(&self) -> Option<String> {
        self.waveform.as_ref().map(|w| w.to_vcd(&self.pool))
    }

    /// Keep a rolling window of the last `depth` executed instructions
    /// (`(cycle, pc, instruction)`), for post-mortem failure analysis.
    pub fn enable_instruction_trace(&mut self, depth: usize) {
        self.trace_depth = depth;
        self.recent.clear();
    }

    /// The rolling instruction window (most recent last).
    pub fn recent_instructions(&self) -> impl Iterator<Item = &(u64, u32, sparc_isa::Instr)> {
        self.recent.iter()
    }

    /// Advance the model clock by `n` cycles. In faithful-clocking mode
    /// every net is re-evaluated on every cycle, emulating the process
    /// evaluation load of an event-driven RTL simulator.
    pub(crate) fn advance_cycles(&mut self, n: u64) {
        self.pool.tick_many(n);
        if let Some(wave) = &mut self.waveform {
            wave.capture(&self.pool);
        }
        if self.config.faithful_clocking {
            // An event-driven simulator settles each clock edge over
            // several delta cycles; eight full-design sweeps per clock is
            // a conservative stand-in for that load.
            const DELTA_CYCLES_PER_CLOCK: u64 = 8;
            for _ in 0..n * DELTA_CYCLES_PER_CLOCK {
                self.eval_acc = self.eval_acc.wrapping_add(self.pool.evaluate_all());
            }
        }
    }

    // ---- Control-flow helpers over nets ----

    pub(crate) fn advance(&mut self) {
        let npc = self.pool.read(self.nets.npc);
        self.pool.write(self.nets.pc, npc);
        self.pool.write(self.nets.npc, npc.wrapping_add(4));
    }

    pub(crate) fn delayed_jump(&mut self, target: u32) {
        let npc = self.pool.read(self.nets.npc);
        self.pool.write(self.nets.pc, npc);
        self.pool.write(self.nets.npc, target);
    }

    // ---- Register-file access over nets ----

    pub(crate) fn cwp(&self) -> usize {
        self.pool.read(self.nets.psr_cwp) as usize % NWINDOWS
    }

    pub(crate) fn rf_read(&self, reg: Reg) -> u32 {
        if reg.is_g0() {
            return 0;
        }
        let slot = WindowedRegs::physical_index(self.cwp(), reg);
        self.pool.read(self.nets.rf[slot])
    }

    pub(crate) fn rf_write(&mut self, reg: Reg, value: u32) {
        if reg.is_g0() {
            return;
        }
        let slot = WindowedRegs::physical_index(self.cwp(), reg);
        self.pool.write(self.nets.rf[slot], value);
    }

    /// Result write-back through the WB-stage nets (faults on `wb_rd` can
    /// redirect the write, as in real hardware).
    pub(crate) fn writeback(&mut self, rd: Reg, value: u32) {
        self.pool.write(self.nets.wb_res, value);
        self.pool.write(self.nets.wb_rd, rd.index() as u32);
        let effective_rd = Reg::new((self.pool.read(self.nets.wb_rd) & 31) as u8);
        let value = self.pool.read(self.nets.wb_res);
        self.rf_write(effective_rd, value);
    }

    // ---- PSR access over nets ----

    pub(crate) fn icc(&self) -> Icc {
        Icc::from_bits(self.pool.read(self.nets.psr_icc))
    }

    pub(crate) fn set_icc(&mut self, icc: Icc) {
        self.pool.write(self.nets.psr_icc, icc.to_bits());
    }

    pub(crate) fn psr(&self) -> Psr {
        Psr {
            icc: self.icc(),
            s: self.pool.read(self.nets.psr_s) == 1,
            ps: self.pool.read(self.nets.psr_ps) == 1,
            et: self.pool.read(self.nets.psr_et) == 1,
            pil: self.pool.read(self.nets.psr_pil) as u8,
            cwp: self.cwp() as u8,
        }
    }

    pub(crate) fn set_psr(&mut self, psr: Psr) {
        self.set_icc(psr.icc);
        self.pool.write(self.nets.psr_s, u32::from(psr.s));
        self.pool.write(self.nets.psr_ps, u32::from(psr.ps));
        self.pool.write(self.nets.psr_et, u32::from(psr.et));
        self.pool.write(self.nets.psr_pil, u32::from(psr.pil));
        self.pool.write(self.nets.psr_cwp, u32::from(psr.cwp));
    }

    pub(crate) fn wim(&self) -> Wim {
        Wim(self.pool.read(self.nets.wim))
    }

    pub(crate) fn tbr(&self) -> Tbr {
        Tbr::from_bits(self.pool.read(self.nets.tbr))
    }

    // ---- Trap entry (exception stage) ----

    pub(crate) fn take_trap(&mut self, trap: TrapType) -> StepEvent {
        self.stats.traps += 1;
        self.advance_cycles(5);
        if self.pool.read(self.nets.psr_et) != 1 {
            self.exit = Some(Exit::ErrorMode(trap));
            return StepEvent::Stopped;
        }
        let s = self.pool.read(self.nets.psr_s);
        self.pool.write(self.nets.psr_et, 0);
        self.pool.write(self.nets.psr_ps, s);
        self.pool.write(self.nets.psr_s, 1);
        let new_cwp = (self.cwp() + NWINDOWS - 1) % NWINDOWS;
        self.pool.write(self.nets.psr_cwp, new_cwp as u32);
        let pc = self.pool.read(self.nets.pc);
        let npc = self.pool.read(self.nets.npc);
        self.rf_write(Reg::l(1), pc);
        self.rf_write(Reg::l(2), npc);
        // Route the trap type through the exception-stage net: faults there
        // send the core to the wrong vector.
        self.pool.write(self.nets.xc_tt, u32::from(trap.tt()));
        let tt = self.pool.read(self.nets.xc_tt);
        let tbr = self.pool.read(self.nets.tbr);
        let new_tbr = (tbr & !0xff0) | (tt << 4);
        self.pool.write(self.nets.tbr, new_tbr);
        let vector = self.pool.read(self.nets.tbr) & 0xffff_fff0;
        self.pool.write(self.nets.pc, vector);
        self.pool.write(self.nets.npc, vector.wrapping_add(4));
        self.pool.write(self.nets.annul, 0);
        StepEvent::Trapped(trap)
    }

    // ---- Observability ----

    /// The off-core bus trace recorded so far.
    pub fn bus_trace(&self) -> &BusTrace {
        &self.trace
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Elapsed simulation cycles.
    pub fn cycles(&self) -> u64 {
        self.pool.cycle()
    }

    /// The memory image.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Terminal state, if the core has stopped.
    pub fn exit(&self) -> Option<Exit> {
        self.exit
    }

    /// The timer peripheral's state (for tests and debuggers).
    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    /// Cycle of the first cache-parity mismatch, or `None` if the parity
    /// mechanism is disabled or never fired.
    pub fn parity_detected_at(&self) -> Option<u64> {
        self.parity_event
    }

    /// The net pool (for fault-list construction and area statistics).
    pub fn pool(&self) -> &NetPool<Unit> {
        &self.pool
    }

    /// The net map (names and handles for every injectable net).
    pub fn nets(&self) -> &NetMap {
        &self.nets
    }

    /// The platform configuration.
    pub fn config(&self) -> &Leon3Config {
        &self.config
    }

    /// Reconstruct the architectural state from the nets — used by the
    /// ISS/RTL lockstep tests, which require golden runs to be bit-exact
    /// across the two simulation levels.
    pub fn architectural_state(&self) -> CpuState {
        let mut state = CpuState::at_entry(0);
        for slot in 0..self.nets.rf.len() {
            state
                .regs
                .write_physical(slot, self.pool.read(self.nets.rf[slot]));
        }
        // Keep %g0's backing storage architecturally zero.
        state.regs.write_physical(0, 0);
        state.psr = self.psr();
        state.wim = self.wim();
        state.tbr = self.tbr();
        state.y = self.pool.read(self.nets.md_y);
        state.pc = self.pool.read(self.nets.pc);
        state.npc = self.pool.read(self.nets.npc);
        state.annul = self.pool.read(self.nets.annul) == 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_asm::assemble;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run(src: &str) -> (Leon3, RunOutcome) {
        let program = assemble(src).expect("assembles");
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        let outcome = cpu.run(100_000);
        (cpu, outcome)
    }

    #[test]
    fn halts_with_exit_code() {
        let (_, outcome) = run("_start: mov 21, %o0\n add %o0, %o0, %o0\n halt\n");
        assert_eq!(outcome, RunOutcome::Halted { code: 42 });
    }

    #[test]
    fn stores_reach_the_bus() {
        let (cpu, outcome) =
            run("_start: set 0x40002000, %o1\n mov 9, %o0\n st %o0, [%o1]\n halt\n");
        assert!(matches!(outcome, RunOutcome::Halted { .. }));
        let writes: Vec<_> = cpu.bus_trace().writes().collect();
        assert_eq!(writes.len(), 1);
        assert_eq!((writes[0].addr, writes[0].data), (0x4000_2000, 9));
    }

    #[test]
    fn loops_and_branches() {
        let (_, outcome) = run(
            "_start: mov 10, %o1\n mov 0, %o0\nloop: add %o0, %o1, %o0\n subcc %o1, 1, %o1\n bne loop\n nop\n halt\n",
        );
        assert_eq!(outcome, RunOutcome::Halted { code: 55 });
    }

    #[test]
    fn cycles_accumulate_beyond_instruction_count() {
        let (cpu, _) = run("_start: mov 1, %o0\n halt\n");
        // Cache misses and latencies make cycles > instructions.
        assert!(cpu.cycles() > cpu.stats().instructions);
    }

    #[test]
    fn error_mode_without_trap_handlers() {
        let (_, outcome) = run("_start: unimp\n halt\n");
        assert!(matches!(outcome, RunOutcome::ErrorMode { .. }));
    }

    #[test]
    fn instruction_limit_is_hang_detection() {
        let program = assemble("_start: ba _start\n nop\n").unwrap();
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        assert_eq!(cpu.run(500), RunOutcome::InstructionLimit);
    }

    const STORE_LOOP: &str = "
        _start:
            set 0x40003000, %l0
            mov 8, %l1
            mov 0, %o0
        loop:
            add %o0, %l1, %o0
            st %o0, [%l0]
            st %l1, [%l0 + 4]
            subcc %l1, 1, %l1
            bne loop
             nop
            halt
    ";

    #[test]
    fn restoring_a_mid_run_snapshot_reproduces_the_remaining_write_stream() {
        let program = assemble(STORE_LOOP).expect("assembles");
        let mut golden = Leon3::new(Leon3Config::default());
        golden.load(&program);
        assert!(matches!(golden.run(100_000), RunOutcome::Halted { .. }));

        // Take a snapshot partway through a second, identical run.
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        for _ in 0..7 {
            cpu.step();
        }
        let snapshot = cpu.snapshot();
        assert!(snapshot.cycle() > 0 && snapshot.cycle() < golden.cycles());
        assert!(snapshot.trace_len() <= golden.bus_trace().len());

        // Restore into a worker whose state is thoroughly dirty: a faulty
        // run of the same program that went who-knows-where.
        let mut worker = Leon3::new(Leon3Config::default());
        worker.load(&program);
        let victim = worker.nets().pc;
        worker.inject(Fault {
            net: victim,
            bit: 2,
            kind: rtl_sim::FaultKind::StuckAt1,
            from_cycle: 0,
        });
        worker.run(200);
        worker.restore(&snapshot);
        assert_eq!(worker.cycles(), snapshot.cycle());
        assert!(worker.pool().is_fault_free());
        assert!(matches!(worker.run(100_000), RunOutcome::Halted { .. }));

        // The resumed run must be bit-identical to the golden one: same
        // write stream (events after the snapshot cursor included), same
        // exit code, same cycle count, same architectural state.
        assert_eq!(worker.bus_trace().events(), golden.bus_trace().events());
        assert_eq!(worker.exit(), golden.exit());
        assert_eq!(worker.cycles(), golden.cycles());
        assert_eq!(worker.architectural_state(), golden.architectural_state());
        assert_eq!(worker.stats(), golden.stats());
    }

    #[test]
    fn closing_a_loop_leaves_the_model_as_stepping_would() {
        // A countdown whose counter reads with bit 0 stuck at 1 never
        // reaches zero: it reads 3 and writes 2, forever.
        let program =
            assemble("_start: mov 2, %l0\nloop: subcc %l0, 1, %l0\n bne loop\n nop\n halt\n")
                .expect("assembles");
        for faithful_clocking in [false, true] {
            let config = Leon3Config {
                faithful_clocking,
                ..Leon3Config::default()
            };
            let mut stepped = Leon3::new(config.clone());
            stepped.load(&program);
            let l0 = WindowedRegs::physical_index(0, Reg::l(0));
            stepped.inject(Fault {
                net: stepped.nets().rf[l0],
                bit: 0,
                kind: rtl_sim::FaultKind::StuckAt1,
                from_cycle: 0,
            });
            let mut closed = stepped.clone();
            for _ in 0..50 {
                closed.step();
            }
            assert!(closed.is_closable());
            let mark = closed.loop_mark();
            let mut period = 0;
            loop {
                closed.step();
                period += 1;
                if closed.repeats(&mark) {
                    break;
                }
                assert!(period < 100, "the loop never repeats");
            }
            assert_eq!(period, 3, "subcc, bne, nop");
            closed.close_loop(&mark, 1_000);
            closed.step();
            for _ in 0..50 + 3 * 1_001 + 1 {
                stepped.step();
            }
            assert_eq!(closed.cycles(), stepped.cycles());
            assert_eq!(closed.stats(), stepped.stats());
            assert_eq!(closed.eval_acc, stepped.eval_acc);
            assert_eq!(closed.architectural_state(), stepped.architectural_state());
            assert!(closed.pool().values_equal(&stepped.pool().checkpoint()));
            assert_eq!(closed.exit(), None);
        }
    }

    #[test]
    fn a_shifted_clock_changes_nothing_else() {
        let program = assemble(STORE_LOOP).expect("assembles");
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        // Settled, and never read changed: `annul` is only ever 0 here.
        cpu.inject(Fault {
            net: cpu.nets().annul,
            bit: 0,
            kind: rtl_sim::FaultKind::StuckAt0,
            from_cycle: 0,
        });
        for _ in 0..10 {
            cpu.step();
        }
        for delta in [-7i64, 0, 41] {
            let mut shifted = cpu.clone();
            shifted.shift_clock(delta);
            let mut plain = cpu.clone();
            assert!(matches!(plain.run(100_000), RunOutcome::Halted { .. }));
            assert!(matches!(shifted.run(100_000), RunOutcome::Halted { .. }));
            assert_eq!(
                shifted.cycles() as i64 - plain.cycles() as i64,
                delta,
                "every later step takes the cycles it took"
            );
            let (moved, still) = (shifted.bus_trace().events(), plain.bus_trace().events());
            assert_eq!(moved.len(), still.len());
            assert!(moved.iter().zip(still).all(|(a, b)| a.same_payload(b)));
            assert_eq!(shifted.architectural_state(), plain.architectural_state());
            assert_eq!(shifted.stats(), plain.stats());
        }
        let mut timed = Leon3::new(Leon3Config {
            timer: true,
            ..Leon3Config::default()
        });
        timed.load(&program);
        let shifted = catch_unwind(AssertUnwindSafe(|| timed.shift_clock(1)));
        assert!(shifted.is_err(), "the timer counts cycles");
    }

    #[test]
    fn a_model_that_is_not_closable_refuses_loop_marks() {
        let program = assemble("_start: ba _start\n nop\n").expect("assembles");
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        assert!(cpu.is_closable());
        cpu.inject(Fault {
            net: cpu.nets().pc,
            bit: 9,
            kind: rtl_sim::FaultKind::IntermittentStuck {
                level: true,
                period: 4,
                duty: 1,
                phase: 0,
            },
            from_cycle: 0,
        });
        assert!(!cpu.is_closable(), "an intermittent fault never settles");
        let mut timed = Leon3::new(Leon3Config {
            timer: true,
            ..Leon3Config::default()
        });
        timed.load(&program);
        assert!(!timed.is_closable(), "the timer counts cycles");
        let marked = catch_unwind(AssertUnwindSafe(|| timed.loop_mark()));
        assert!(marked.is_err());
    }

    #[test]
    #[should_panic(expected = "fault-free")]
    fn snapshot_with_injected_fault_is_rejected() {
        let program = assemble("_start: halt\n").unwrap();
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.load(&program);
        let pc = cpu.nets().pc;
        cpu.inject(Fault {
            net: pc,
            bit: 0,
            kind: rtl_sim::FaultKind::StuckAt0,
            from_cycle: 0,
        });
        let _ = cpu.snapshot();
    }

    #[test]
    fn read_tracking_sees_exercised_nets_only() {
        let program = assemble(STORE_LOOP).expect("assembles");
        let mut cpu = Leon3::new(Leon3Config::default());
        cpu.enable_read_tracking();
        cpu.load(&program);
        assert!(matches!(cpu.run(100_000), RunOutcome::Halted { .. }));
        let pc = cpu.nets().pc;
        assert!(cpu.net_last_read(pc).is_some(), "the PC is read every step");
        // The register file has 136 slots; this workload touches a
        // handful, so plenty of slots are never read.
        let unread = cpu
            .nets()
            .rf
            .iter()
            .filter(|&&slot| cpu.net_last_read(slot).is_none())
            .count();
        assert!(unread > 0, "some register-file slots must stay cold");
    }
}
