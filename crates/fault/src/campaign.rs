//! The campaign runner.
//!
//! Campaigns run on a **checkpoint-tree fork** engine by default: the
//! fault-free golden trajectory is simulated exactly once, dropping a
//! *pool* of [`leon3_model::Snapshot`] checkpoints along the way — one at
//! the reset state, one at each requested injection boundary, and (with
//! [`Campaign::with_checkpoint_stride`]) one every K cycles. Every
//! (site, kind, instant) job is billed as restored from the nearest
//! ancestor checkpoint at or before its own injection boundary, so no job
//! ever falls back to full re-execution. A dense instant sweep thins its
//! per-boundary checkpoints to a bounded pool (trading a longer billed
//! replay for bounded memory). The jobs themselves ride a **golden-shadow
//! sweep**, whatever their fault model: a fault acts only through reads or
//! by flipping a stored value, so each worker steps one golden run once,
//! window by window, with every job's faults armed as shadow faults, and a
//! job runs on a second model of the worker's only from the start of the
//! sweep window in which its fault first changes a read or, for a
//! transient or burst, flips a bit. Jobs still on the
//! sweep when the golden run halts are `NoEffect` without a
//! run of their own, a job's own run that proves its faulty machine
//! loops exactly skips to its hang budget (see [`observe`]), and one that
//! is back in the golden state at the end of its window, apart from the
//! clock, rides the sweep again with its cycle offset (see [`sweep`]).
//! Two further cost levers ride on the same machinery:
//!
//! * **site-activation tracking** — the golden run records, per net, the
//!   cycle of its last read. A permanent fault is observable only through a
//!   net *read*, and a faulty run tracks the golden trajectory until its
//!   first diverging read, so a job whose injected net the golden run never
//!   reads from the injection instant on is classified `NoEffect` without
//!   simulating a single cycle;
//! * **streaming divergence detection** — each off-core write of a faulty
//!   run is compared against the golden stream as it is emitted, and the
//!   run is short-circuited at the first mismatching or extra write.
//!
//! [`Execution::FullReexecution`] retains the pre-fork engine (every job
//! re-simulated from reset). Both engines produce **bit-identical
//! records**; only the [`crate::CampaignStats`] cost accounting differs.
//!
//! # Fault tolerance
//!
//! Campaigns are built to survive the failure modes of long runs:
//!
//! * **panic isolation** — every job executes under
//!   [`std::panic::catch_unwind`]. A panicking job is retried once from a
//!   fresh model restore; a second panic records the job as
//!   [`FaultOutcome::EngineAnomaly`] (payload preserved) and the campaign
//!   continues, losing at most that one job;
//! * **wall-clock watchdog** — [`Campaign::with_deadline`] bounds each job
//!   by wall-clock time (cooperatively checked in the run loop and at each
//!   sweep window) on top of the architectural cycle budget; overruns
//!   classify as [`FaultOutcome::Hang`] and are counted in
//!   `CampaignStats::timed_out`;
//! * **write-ahead result journal** — [`JournalMode::Create`] appends one
//!   flushed JSONL line per completed job, and [`JournalMode::Resume`]
//!   validates the journal header (workload hash, configuration
//!   fingerprint, job universe), replays completed jobs and simulates only
//!   the rest, reconstituting a bit-identical [`CampaignResult`];
//! * **structured configuration errors** — invalid configurations surface
//!   as [`CampaignError`] from [`Campaign::execute`] and
//!   [`Campaign::try_run`] instead of panicking ([`Campaign::run`] keeps
//!   the panicking contract for existing callers).
//!
//! [`Campaign::execute`] is the one pipeline: its [`ExecOptions`] choose
//! the injection instants, single or dual-point faults, the journal, and
//! whether to reuse a [`PreparedWorkload`]'s golden run.

use crate::error::{CampaignError, JournalError};
use crate::journal::{self, fnv1a64, Entry, Header, Journal, FNV_OFFSET};
use crate::result::{CampaignResult, CampaignStats, FaultOutcome, FaultRecord};
use crate::safety::{self, Detection, DetectionContext, SafetyConfig};
use crate::sites::{fault_sites, sample_sites, targeted_sites, AttackTarget, FaultSite, Target};
use crate::static_analysis::{PrunedBy, StaticAnalysis};
use crate::wire::kind_to_token;
use analysis::SplitMix64;
use leon3_model::{Leon3, Leon3Config, LoopMark, Snapshot};
use rtl_sim::{Fault, FaultKind, FaultState, NetId};
use sparc_asm::Program;
use sparc_iss::{BusEvent, Exit, StepEvent};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Maximum number of live checkpoints a fork-engine campaign keeps in its
/// pool. A dense instant sweep (or a tight [`Campaign::with_checkpoint_stride`])
/// is thinned evenly to this cap — always keeping the reset state and the
/// deepest boundary — so pool memory stays bounded; jobs whose exact
/// boundary was thinned away are billed a replay of the bounded gap from
/// the nearest surviving ancestor checkpoint instead. The host restores
/// only each worker's sweep start, the shallowest ancestor of its jobs.
pub const MAX_POOL_CHECKPOINTS: usize = 32;

/// Cycles the campaign engine has stepped on the host in this process.
static HOST_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Cycles the campaign engine has stepped on the host since the process
/// started, over every campaign on every thread: each checkpoint pool's
/// prefix, each golden-shadow sweep window's one pass, each job's own run
/// from its window start, and each full re-execution run.
/// Golden capture is not counted, and neither are the cycles a closed
/// hang loop skips or a re-joined job rides on the sweep.
/// Read it before and after a campaign for that campaign's count while
/// nothing else runs.
///
/// [`CampaignStats::cycles_simulated`] bills each job as if it ran alone
/// from its pool ancestor, so it does not move when the sweep steps less;
/// this count does. It is kept out of records, stats, journals and
/// fingerprints, which must not depend on how the host got the result.
pub fn host_cycles() -> u64 {
    HOST_CYCLES.load(Ordering::Relaxed)
}

/// Add a finished run's cycles to [`host_cycles`]: once per pool, window
/// or run, never per step.
fn count_host_cycles(cycles: u64) {
    HOST_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// The fault-free reference execution of a workload on the RTL model.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The off-core write stream.
    pub writes: Vec<BusEvent>,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// The exit code.
    pub exit_code: u32,
    /// The largest gap in cycles between consecutive off-core writes,
    /// measured from cycle 0 (no trailing gap after the last write): the
    /// floor a simulated watchdog timeout must clear to stay silent on
    /// the fault-free run.
    pub max_write_gap: u64,
    /// The cycle at which each `step()` call ended, for locating the
    /// last instruction boundary strictly before an injection instant.
    step_ends: StepEnds,
    /// Per-net cycle of the last golden read (`None` = never read),
    /// indexed by raw net id.
    net_last_read: Vec<Option<u64>>,
}

impl GoldenRun {
    /// Execute the golden run.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not halt — golden runs must be
    /// trap-free and terminating by construction.
    pub fn capture(program: &Program, config: &Leon3Config) -> GoldenRun {
        let mut cpu = Leon3::new(config.clone());
        cpu.enable_read_tracking();
        cpu.load(program);
        let mut step_ends = StepEnds::default();
        let exit_code = loop {
            let event = cpu.step();
            step_ends.push(cpu.cycles());
            if event == StepEvent::Stopped {
                match cpu.exit() {
                    Some(Exit::Halted(code)) => break code,
                    other => panic!("golden run did not halt: {other:?}"),
                }
            }
        };
        let net_last_read = (0..cpu.pool().len())
            .map(|i| cpu.net_last_read(NetId::from_raw(i as u32)))
            .collect();
        let writes: Vec<BusEvent> = cpu.bus_trace().writes().copied().collect();
        let mut max_write_gap = 0;
        let mut last = 0;
        for w in &writes {
            max_write_gap = max_write_gap.max(w.at.saturating_sub(last));
            last = w.at;
        }
        GoldenRun {
            writes,
            instructions: cpu.stats().instructions,
            cycles: cpu.cycles(),
            exit_code,
            max_write_gap,
            step_ends,
            net_last_read,
        }
    }

    /// Number of `step()` calls that complete strictly before
    /// `injection_cycle` — the longest fault-free prefix every job of a
    /// campaign injecting at that instant can share.
    pub fn prefix_steps(&self, injection_cycle: u64) -> usize {
        self.step_ends.count_before(injection_cycle)
    }

    /// Cycle count after `steps` completed `step()` calls (0 at reset).
    /// The checkpoint pool uses this to price the fault-free gap between
    /// an ancestor checkpoint and a job's injection boundary.
    pub fn cycle_at_step(&self, steps: usize) -> u64 {
        if steps == 0 {
            0
        } else {
            self.step_ends.end_of(steps)
        }
    }

    /// Whether the golden run reads `net` at or after `cycle`.
    ///
    /// A permanent fault perturbs execution only through a [`NetId`] read,
    /// and a faulty run is cycle-identical to the golden run until its
    /// first read of a perturbed net — so when this returns `false` for an
    /// injection at `cycle`, the faulty run provably reproduces the golden
    /// run to the end.
    pub fn net_exercised_from(&self, net: NetId, cycle: u64) -> bool {
        self.net_last_read
            .get(net.raw() as usize)
            .copied()
            .flatten()
            .is_some_and(|last| last >= cycle)
    }
}

/// The cycles at which a run's `step()` calls ended, as one bit per cycle
/// plus a running count per 64-cycle word. Every step takes at least one
/// cycle, so no two steps end on the same cycle. A run of `c` cycles costs
/// `c / 4` bytes, against eight bytes per step for a list of end cycles,
/// which would be most of a cached golden run's memory.
#[derive(Debug, Clone, Default)]
struct StepEnds {
    /// Bit `c % 64` of word `c / 64` is set when a step ended at cycle `c`.
    words: Vec<u64>,
    /// How many steps ended in the words before each word.
    before: Vec<usize>,
}

impl StepEnds {
    /// Record a step that ended at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics unless `cycle` is later than every end recorded so far.
    fn push(&mut self, cycle: u64) {
        let word = usize::try_from(cycle / 64).expect("run length fits in memory");
        while self.words.len() <= word {
            self.before.push(self.len());
            self.words.push(0);
        }
        let bit = 1u64 << (cycle % 64);
        assert!(self.words[word] < bit, "step ends must increase");
        self.words[word] |= bit;
    }

    /// Number of recorded steps.
    fn len(&self) -> usize {
        match (self.before.last(), self.words.last()) {
            (Some(&before), Some(&bits)) => before + bits.count_ones() as usize,
            _ => 0,
        }
    }

    /// How many steps ended strictly before `cycle`.
    fn count_before(&self, cycle: u64) -> usize {
        let word = usize::try_from(cycle / 64).unwrap_or(usize::MAX);
        match self.words.get(word) {
            Some(&bits) => {
                self.before[word] + (bits & ((1u64 << (cycle % 64)) - 1)).count_ones() as usize
            }
            None => self.len(),
        }
    }

    /// The cycle at which step `n` (counting from 1) ended.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= self.len()`.
    fn end_of(&self, n: usize) -> u64 {
        assert!((1..=self.len()).contains(&n), "step {n} was not recorded");
        // The last word with fewer than `n` earlier ends holds end `n`.
        let word = self.before.partition_point(|&before| before < n) - 1;
        let mut bits = self.words[word];
        for _ in 0..n - 1 - self.before[word] {
            bits &= bits - 1;
        }
        word as u64 * 64 + u64::from(bits.trailing_zeros())
    }
}

/// When a campaign's faults appear (permanent from then on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionInstant {
    /// An absolute cycle.
    Cycle(u64),
    /// A fraction of the golden run's length (e.g. `0.05` = after 5% of
    /// the golden cycles). This is how the paper's "fixed injection
    /// instant" is expressed portably across workloads — and what makes
    /// open-line faults hold a *live* value rather than the reset value.
    Fraction(f64),
}

/// How a campaign executes its fault universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Checkpoint-tree fork over a golden-shadow sweep: simulate the
    /// fault-free trajectory once, dropping a pool of checkpoints (reset
    /// state, every requested injection boundary, plus an optional
    /// periodic grid). Each worker then restores the shallowest checkpoint
    /// its jobs need and steps the golden run once, window by window, with
    /// every job's faults armed as shadows; a job runs on a second model
    /// of its own only from the start of the sweep window in which its
    /// fault first changes a read or, for a transient or burst, flips a
    /// bit. An own run whose faulty machine loops exactly
    /// skips to its hang budget, and an own run that is back in the
    /// golden state at the end of its window, apart from the clock and
    /// with no flip left to land, re-joins the sweep carrying its fault
    /// state and cycle offset (not under a watchdog or a deadline). Jobs
    /// whose nets the golden run never reads from the injection instant on
    /// are classified without simulation. Each job is billed as a fork
    /// from its own nearest ancestor checkpoint, and there is no
    /// full-re-execution fallback: the reset-state checkpoint is an
    /// ancestor of every instant.
    #[default]
    Fork,
    /// Re-simulate every job from reset. Kept as the equivalence baseline
    /// and for A/B benchmarking; produces bit-identical records.
    FullReexecution,
}

/// A fault-injection campaign: one workload, one injection domain, a fault
/// list and a set of fault models.
#[derive(Debug, Clone)]
pub struct Campaign {
    program: Program,
    target: Target,
    kinds: Vec<FaultKind>,
    sample: Option<(usize, u64)>,
    sites_override: Option<Vec<FaultSite>>,
    attack_targets: Option<Vec<AttackTarget>>,
    injection: InjectionInstant,
    execution: Execution,
    deadline: Option<Duration>,
    config: Leon3Config,
    safety: SafetyConfig,
    shard: Option<(u32, u32)>,
    checkpoint_stride: Option<u64>,
    static_analysis: bool,
    static_audit: Option<(usize, u64)>,
}

impl Campaign {
    /// A campaign over the full fault universe of `target` with all three
    /// fault models.
    pub fn new(program: Program, target: Target) -> Campaign {
        Campaign {
            program,
            target,
            kinds: FaultKind::ALL.to_vec(),
            sample: None,
            sites_override: None,
            attack_targets: None,
            injection: InjectionInstant::Cycle(0),
            execution: Execution::default(),
            deadline: None,
            config: Leon3Config::default(),
            safety: SafetyConfig::default(),
            shard: None,
            checkpoint_stride: None,
            static_analysis: false,
            static_audit: None,
        }
    }

    /// Configure the modelled safety mechanisms (see [`SafetyConfig`]).
    /// All mechanisms are off by default, in which case every record's
    /// detection is [`Detection::Undetected`] and outcomes are
    /// bit-identical to a mechanism-free campaign.
    #[must_use]
    pub fn with_safety(mut self, safety: SafetyConfig) -> Campaign {
        self.safety = safety;
        self
    }

    /// Enable the windowed lockstep comparator: the checker fires at the
    /// first `window`-write boundary at or past the divergence. A zero
    /// window is reported as [`CampaignError::ZeroLockstepWindow`] when
    /// the campaign runs.
    #[must_use]
    pub fn with_lockstep_window(mut self, window: u64) -> Campaign {
        self.safety.lockstep_window = Some(window);
        self
    }

    /// Enable (or disable) per-line cache parity in the simulated CMEM.
    /// The parity bits are themselves injectable fault sites.
    #[must_use]
    pub fn with_parity(mut self, enabled: bool) -> Campaign {
        self.safety.parity = enabled;
        self
    }

    /// Enable the simulated-time hardware watchdog, kicked by every
    /// off-core write. A timeout no longer than the golden run's largest
    /// inter-write gap is reported as [`CampaignError::WatchdogTooTight`]
    /// when the campaign runs.
    #[must_use]
    pub fn with_watchdog_cycles(mut self, timeout: u64) -> Campaign {
        self.safety.watchdog_cycles = Some(timeout);
        self
    }

    /// Restrict to a seeded stratified sample of `n` sites.
    #[must_use]
    pub fn with_sample(mut self, n: usize, seed: u64) -> Campaign {
        self.sample = Some((n, seed));
        self
    }

    /// Restrict the fault models. An empty list is reported as
    /// [`CampaignError::NoFaultKinds`] when the campaign runs.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Campaign {
        self.kinds = kinds.to_vec();
        self
    }

    /// Inject exactly this fault list, bypassing enumeration and sampling
    /// (custom fault lists, regression lists, or deliberately poisoned
    /// sites in the panic-isolation tests).
    #[must_use]
    pub fn with_sites(mut self, sites: Vec<FaultSite>) -> Campaign {
        self.sites_override = Some(sites);
        self
    }

    /// Restrict the fault universe to the attack-surface classes'
    /// semantic nets ([`crate::targeted_sites`]): branch condition,
    /// status register and/or program-counter state — the InjectV-style
    /// targeted campaign shape. Replaces domain enumeration; a seeded
    /// sample still applies on top when the class universe is larger
    /// than the sample. An explicit [`Campaign::with_sites`] list wins
    /// over both. An empty class list is reported as
    /// [`CampaignError::NoFaultSites`] when the campaign runs.
    #[must_use]
    pub fn with_attack_targets(mut self, targets: &[AttackTarget]) -> Campaign {
        let mut targets = targets.to_vec();
        targets.sort();
        targets.dedup();
        self.attack_targets = Some(targets);
        self
    }

    /// Set the injection instant (cycle at which faults appear; they are
    /// permanent from then on). Defaults to cycle 0.
    #[must_use]
    pub fn with_injection_cycle(mut self, cycle: u64) -> Campaign {
        self.injection = InjectionInstant::Cycle(cycle);
        self
    }

    /// Set the injection instant as a fraction of the golden run's cycle
    /// count. A fraction outside `[0, 1]` is reported as
    /// [`CampaignError::InjectionPastEnd`] when the campaign runs.
    #[must_use]
    pub fn with_injection_fraction(mut self, fraction: f64) -> Campaign {
        self.injection = InjectionInstant::Fraction(fraction);
        self
    }

    /// Select the execution engine. Defaults to [`Execution::Fork`].
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> Campaign {
        self.execution = execution;
        self
    }

    /// Bound every job by wall-clock time on top of the architectural
    /// cycle budget. Overruns classify as [`FaultOutcome::Hang`] and are
    /// counted in [`CampaignStats::timed_out`]. On the fork engine a job
    /// is charged for one golden-shadow sweep pass over each window it
    /// rode and for its own run, never for other jobs' runs. Off by
    /// default — and best
    /// kept generous: a deadline that fires on a job the cycle budget
    /// would have classified differently makes results host-load
    /// dependent. The deadline does not enter the journal fingerprint for
    /// the same reason.
    #[must_use]
    pub fn with_deadline(mut self, per_job: Duration) -> Campaign {
        self.deadline = Some(per_job);
        self
    }

    /// Run only shard `index` of `count`: the planned job list is
    /// partitioned deterministically by stride (job `j` belongs to shard
    /// `j % count`), so `count` processes each simulate a disjoint slice
    /// of the same campaign and [`crate::wire::merge_shards`] recombines
    /// their results into the unsharded [`CampaignResult`] bit-for-bit.
    /// `index >= count` (or a zero `count`) is reported as
    /// [`CampaignError::BadShard`] when the campaign runs. The shard
    /// coordinates enter the journal fingerprint — a shard refuses
    /// another shard's journal — but not [`Campaign::fingerprint`], which
    /// identifies the whole campaign.
    #[must_use]
    pub fn with_shard(mut self, index: u32, count: u32) -> Campaign {
        self.shard = Some((index, count));
        self
    }

    /// Drop a periodic checkpoint into the fork engine's pool every
    /// `stride` cycles of the golden trajectory, in addition to the
    /// per-boundary checkpoints; without it the pool holds only the reset
    /// state and the requested injection boundaries.
    ///
    /// What the grid changes is the pool: its memory, and, once the
    /// candidates exceed [`MAX_POOL_CHECKPOINTS`], which of them survive
    /// the thinning. Each job is billed from its nearest surviving
    /// ancestor, but every job rides the golden-shadow sweep, which a
    /// worker starts from the shallowest ancestor of its jobs: the grid
    /// moves the host's work only where thinning moves that start. A
    /// requested boundary always has a checkpoint of its own unless the
    /// pool is thinned, so the grid never shortens a billed replay below
    /// the cap and can lengthen one above it, by taking slots from
    /// injection boundaries.
    ///
    /// A zero stride is reported as
    /// [`CampaignError::ZeroCheckpointStride`] when the campaign runs. The
    /// stride enters the configuration fingerprint (it changes every job's
    /// cost delta), so a resumed journal must agree on it.
    #[must_use]
    pub fn with_checkpoint_stride(mut self, stride: u64) -> Campaign {
        self.checkpoint_stride = Some(stride);
        self
    }

    /// Override the platform configuration.
    ///
    /// Bus-read tracing is forced off for classification runs: outcomes
    /// are defined over the off-core *write* stream.
    #[must_use]
    pub fn with_config(mut self, config: Leon3Config) -> Campaign {
        self.config = config;
        self
    }

    /// Enable static net-graph analysis (see [`StaticAnalysis`]): jobs on
    /// provably-unobservable nets — and transient flips on transient-safe
    /// latches — are recorded as benign with [`PrunedBy::Static`]
    /// provenance instead of being simulated, and stuck-at jobs on
    /// collapsed equivalence-class members copy their simulated
    /// representative's outcome with [`PrunedBy::Collapsed`] provenance.
    /// Every planned job still gets a record; nothing is silently
    /// dropped. Pruned and collapsed jobs are counted in
    /// [`CampaignStats::statically_pruned`] and the classes in
    /// [`CampaignStats::collapsed_classes`]. Off by default; the flag
    /// enters the configuration fingerprint. Dual-point campaigns refuse
    /// the flag with [`CampaignError::StaticWithPairs`].
    #[must_use]
    pub fn with_static_analysis(mut self, enabled: bool) -> Campaign {
        self.static_analysis = enabled;
        self
    }

    /// Audit the static analyzer: after the campaign completes, fully
    /// re-simulate (from reset) a seeded sample of up to `n` pruned or
    /// collapsed jobs and fail with [`CampaignError::StaticAuditFailed`]
    /// if any re-simulation contradicts the synthesised record. The audit
    /// work is a verification pass and is not billed in
    /// [`CampaignStats`]. Requires [`Campaign::with_static_analysis`];
    /// configuring it alone is reported as
    /// [`CampaignError::AuditWithoutStaticAnalysis`].
    #[must_use]
    pub fn with_static_audit(mut self, n: usize, seed: u64) -> Campaign {
        self.static_audit = Some((n, seed));
        self
    }

    /// The fault list this campaign will inject. Enumerated against the
    /// effective classification configuration, so an enabled parity
    /// mechanism contributes its parity bits as injectable sites.
    pub fn sites(&self) -> Vec<FaultSite> {
        if let Some(sites) = &self.sites_override {
            return sites.clone();
        }
        let reference = Leon3::new(self.classification_config());
        let all = match &self.attack_targets {
            Some(targets) => targeted_sites(&reference, targets),
            None => fault_sites(&reference, self.target),
        };
        match self.sample {
            Some((n, seed)) => sample_sites(&all, n, seed),
            None => all,
        }
    }

    /// Run the campaign on `threads` worker threads and aggregate.
    ///
    /// The result's [`CampaignResult::stats`] reports what the configured
    /// [`Execution`] engine actually simulated; the records themselves are
    /// engine-independent.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Campaign::try_run`]
    /// for the structured-error contract) or the golden run does not
    /// halt.
    pub fn run(&self, threads: usize) -> CampaignResult {
        self.try_run(threads)
            .unwrap_or_else(|e| panic!("invalid campaign: {e}"))
    }

    /// [`Campaign::execute`] with the default [`ExecOptions`]: the
    /// campaign's own injection instant, single faults, no journal and a
    /// freshly captured golden run.
    ///
    /// # Errors
    ///
    /// As [`Campaign::execute`].
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt (a workload bug, not a
    /// configuration error).
    pub fn try_run(&self, threads: usize) -> Result<CampaignResult, CampaignError> {
        self.execute(threads, &ExecOptions::default())
            .map(|mut results| results.remove(0))
    }

    /// Capture this campaign's golden run once for reuse across many
    /// campaigns over the same workload (e.g. a service sweeping fault
    /// kinds or instants over one benchmark). The preparation pins the
    /// workload image and the classification platform configuration;
    /// [`ExecOptions::golden`] refuses a mismatch.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::execute`] validation conditions that do
    /// not need a golden run.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn prepare(&self) -> Result<PreparedWorkload, CampaignError> {
        self.validate(1)?;
        let config = self.classification_config();
        Ok(PreparedWorkload {
            workload: workload_hash(&self.program),
            config: format!("{config:?}"),
            golden: GoldenRun::capture(&self.program, &config),
        })
    }

    /// A multi-instant sweep with a write-ahead journal:
    /// [`Campaign::execute`] with `instants` and [`JournalMode::Create`].
    /// Kept as a shorthand for the repository benchmark's transient-sweep
    /// workload.
    ///
    /// # Errors
    ///
    /// As [`Campaign::execute`].
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn run_multi_journaled(
        &self,
        threads: usize,
        instants: &[InjectionInstant],
        path: &Path,
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.execute(
            threads,
            &ExecOptions {
                instants: Some(instants),
                journal: JournalMode::Create(path),
                ..ExecOptions::default()
            },
        )
    }

    /// Run the campaign on `threads` worker threads: the one pipeline
    /// every other run method wraps. It validates the configuration, gets
    /// the golden run, resolves the injection instants, plans and shards
    /// the jobs, opens the journal, builds the checkpoint pool, classifies
    /// every job and returns one [`CampaignResult`] per instant, in order.
    ///
    /// With several `instants` the fault list runs at each of them as
    /// **one** campaign sharing one golden run and one checkpoint pool.
    /// Under [`Execution::Fork`] the pool holds a checkpoint at (or, for a
    /// thinned dense sweep, an ancestor of) every instant's boundary, so
    /// no job falls back to full re-execution, and the pool-construction
    /// pass is billed to the first instant's stats. A journal covers the
    /// whole sweep, with the instant list pinned in its header. A reused
    /// [`PreparedWorkload`] leaves the result byte-identical, since golden
    /// capture is never billed in [`CampaignStats`].
    ///
    /// # Errors
    ///
    /// Fails on zero threads, an empty fault-model list or an invalid
    /// fault model, an empty fault list, an empty `instants` list, an
    /// injection fraction outside `[0, 1]`, the safety, stride, shard and
    /// audit mistakes [`CampaignError`] names, fewer than two sites for a
    /// dual-point campaign, static analysis on a dual-point campaign, a
    /// [`PreparedWorkload`] built for another workload or platform
    /// configuration, journal I/O or parse errors, or a resumed journal
    /// that does not belong to this campaign and instant list.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt (a workload bug, not a
    /// configuration error).
    pub fn execute(
        &self,
        threads: usize,
        options: &ExecOptions<'_>,
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.validate(threads)?;
        let instants = options
            .instants
            .unwrap_or(std::slice::from_ref(&self.injection));
        if instants.is_empty() {
            return Err(CampaignError::NoInstants);
        }
        let config = self.classification_config();
        let captured;
        let golden = match options.golden {
            Some(p) => {
                p.check(&self.program, &config)?;
                &p.golden
            }
            None => {
                captured = GoldenRun::capture(&self.program, &config);
                &captured
            }
        };
        self.validate_watchdog(golden)?;
        if options.pairs && self.static_analysis {
            return Err(CampaignError::StaticWithPairs);
        }
        let cycles = instants
            .iter()
            .map(|&instant| resolve_instant(instant, golden))
            .collect::<Result<Vec<u64>, CampaignError>>()?;
        let sites = self.sites();
        if sites.is_empty() {
            return Err(CampaignError::NoFaultSites);
        }
        let jobs = self.plan_jobs(&sites, options.pairs, &cycles)?;
        let plan = self.static_plan(&jobs);
        let header = self.header(options.pairs, jobs.len(), &cycles, golden);
        let (writer, prefilled) = open_journal(&header, &jobs, options.journal)?;
        let mut resumed = vec![0usize; cycles.len()];
        for (job, slot) in jobs.iter().zip(&prefilled) {
            resumed[job.group] += usize::from(slot.is_some());
        }
        let pool = self.build_pool(&config, golden, &cycles);
        let per_job = self.execute_jobs(
            threads,
            &config,
            golden,
            pool.as_ref(),
            &jobs,
            writer,
            prefilled,
            plan.as_deref(),
        )?;
        if let Some(plan) = &plan {
            self.run_static_audit(&config, golden, &jobs, plan, &per_job)?;
        }
        // Every instant gets the same share of the jobs, give or take the
        // one a shard stride splits off.
        let per_group = jobs.len() / cycles.len() + 1;
        let mut grouped: Vec<(Vec<FaultRecord>, CampaignStats)> = resumed
            .into_iter()
            .map(|resumed| {
                (
                    Vec::with_capacity(per_group),
                    CampaignStats {
                        golden_cycles: golden.cycles,
                        resumed,
                        ..CampaignStats::default()
                    },
                )
            })
            .collect();
        for (job, (record, delta)) in jobs.iter().zip(per_job) {
            let (records, stats) = &mut grouped[job.group];
            records.push(record);
            stats.jobs += 1;
            stats.merge(&delta);
        }
        if let Some(pool) = &pool {
            // The pool-construction pass is simulated once; bill it to
            // the first instant.
            grouped[0].1.prefix_cycles = pool.build_cycles();
            grouped[0].1.cycles_simulated += pool.build_cycles();
            grouped[0].1.checkpoints_taken = pool.len();
            grouped[0].1.checkpoint_bytes = pool.bytes();
        }
        if let Some(plan) = &plan {
            for (group, entry) in grouped.iter_mut().enumerate() {
                entry.1.collapsed_classes = collapsed_class_count(plan, &jobs, group);
            }
        }
        Ok(grouped
            .into_iter()
            .map(|(records, stats)| CampaignResult::with_stats(records, stats))
            .collect())
    }

    /// Reject configurations that previously died as config-time panics.
    fn validate(&self, threads: usize) -> Result<(), CampaignError> {
        if threads == 0 {
            return Err(CampaignError::ZeroThreads);
        }
        if self.kinds.is_empty() {
            return Err(CampaignError::NoFaultKinds);
        }
        for &kind in &self.kinds {
            if let Err(reason) = kind.validate() {
                return Err(CampaignError::InvalidFaultKind { reason });
            }
        }
        if let InjectionInstant::Fraction(f) = self.injection {
            if !(0.0..=1.0).contains(&f) {
                return Err(CampaignError::InjectionPastEnd { fraction: f });
            }
        }
        if self.safety.lockstep_window == Some(0) {
            return Err(CampaignError::ZeroLockstepWindow);
        }
        if self.checkpoint_stride == Some(0) {
            return Err(CampaignError::ZeroCheckpointStride);
        }
        if let Some((index, count)) = self.shard {
            if count == 0 || index >= count {
                return Err(CampaignError::BadShard { index, count });
            }
        }
        if self.static_audit.is_some() && !self.static_analysis {
            return Err(CampaignError::AuditWithoutStaticAnalysis);
        }
        Ok(())
    }

    /// Keep only this shard's stride of the planned job list (identity
    /// when the campaign is unsharded).
    fn apply_shard(&self, jobs: Vec<Job>) -> Vec<Job> {
        match self.shard {
            None => jobs,
            Some((index, count)) => jobs
                .into_iter()
                .enumerate()
                .filter(|(j, _)| j % count as usize == index as usize)
                .map(|(_, job)| job)
                .collect(),
        }
    }

    /// Reject a watchdog timeout that would fire on the fault-free run.
    /// Needs the golden run, so it cannot live in [`Campaign::validate`].
    fn validate_watchdog(&self, golden: &GoldenRun) -> Result<(), CampaignError> {
        if let Some(timeout) = self.safety.watchdog_cycles {
            if timeout <= golden.max_write_gap {
                return Err(CampaignError::WatchdogTooTight {
                    timeout_cycles: timeout,
                    golden_max_gap: golden.max_write_gap,
                });
            }
        }
        Ok(())
    }

    /// The journal header identifying this campaign over `cycles` (one
    /// entry per resolved instant; single-instant paths pass one).
    fn header(&self, pairs: bool, jobs: usize, cycles: &[u64], golden: &GoldenRun) -> Header {
        let mut instants_hash = FNV_OFFSET;
        for &c in cycles {
            instants_hash = fnv1a64(instants_hash, &c.to_be_bytes());
        }
        Header {
            workload: workload_hash(&self.program),
            fingerprint: self.config_fingerprint(pairs),
            jobs,
            injection_cycle: cycles[0],
            golden_cycles: golden.cycles,
            instants: cycles.len(),
            instants_hash,
            checkpoint_stride: self.checkpoint_stride.unwrap_or(0),
            kinds: self.kinds.iter().map(|&k| kind_to_token(k)).collect(),
        }
    }

    /// Expand the fault list into the campaign's job universe: at each
    /// instant in turn, every site (or, for pairs, every overlapping pair
    /// of consecutive sites) under every fault model.
    fn plan_jobs(
        &self,
        sites: &[FaultSite],
        pairs: bool,
        cycles: &[u64],
    ) -> Result<Vec<Job>, CampaignError> {
        if pairs && sites.len() < 2 {
            return Err(CampaignError::NotEnoughSitesForPairs {
                available: sites.len(),
            });
        }
        let (n_sites, chained): (usize, Vec<[FaultSite; 2]>) = if pairs {
            (2, sites.windows(2).map(|w| [w[0], w[1]]).collect())
        } else {
            (1, sites.iter().map(|&site| [site, site]).collect())
        };
        let mut jobs = Vec::with_capacity(cycles.len() * chained.len() * self.kinds.len());
        for (group, &injection_cycle) in cycles.iter().enumerate() {
            for &sites in &chained {
                for &kind in &self.kinds {
                    jobs.push(Job {
                        sites,
                        n_sites,
                        kind,
                        injection_cycle,
                        group,
                    });
                }
            }
        }
        Ok(self.apply_shard(jobs))
    }

    /// Hash of everything that determines the job universe and its
    /// records: used to refuse resuming a journal of a different
    /// campaign. The wall-clock deadline is deliberately excluded — it
    /// cannot change which jobs exist or what a completed job recorded.
    /// The shard coordinates are *included*: a shard's journal holds only
    /// that shard's jobs, so another shard must refuse it.
    fn config_fingerprint(&self, pairs: bool) -> u64 {
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|targets={:?}|{:?}|{:?}|{:?}|pairs={pairs}|{:?}|shard={:?}|stride={:?}|static={:?}|audit={:?}",
            self.target,
            self.kinds,
            self.sample,
            self.sites_override,
            self.attack_targets,
            self.injection,
            self.execution,
            self.config,
            self.safety,
            self.shard,
            self.checkpoint_stride,
            self.static_analysis,
            self.static_audit,
        );
        fnv1a64(FNV_OFFSET, s.as_bytes())
    }

    /// The campaign's public identity: `workload_hash-config_fingerprint`,
    /// both as 16-digit hex — the same two hashes the journal header
    /// carries, rendered as one string. The service's result cache and
    /// the shard merge key on it. Computed with the shard coordinates
    /// cleared, so every shard of one campaign (and the unsharded run)
    /// shares one fingerprint; like the journal fingerprint, the
    /// wall-clock deadline is excluded.
    pub fn fingerprint(&self) -> String {
        let mut identity = self.clone();
        identity.shard = None;
        format!(
            "{:016x}-{:016x}",
            workload_hash(&self.program),
            identity.config_fingerprint(false)
        )
    }

    /// The platform configuration used for classification runs. Bus-read
    /// tracing is forced off: outcomes are classified against the off-core
    /// write stream, and the divergence cursor indexes writes. CMEM parity
    /// follows the safety configuration, so the parity nets exist exactly
    /// when the mechanism is modelled.
    fn classification_config(&self) -> Leon3Config {
        let mut config = self.config.clone();
        config.trace_reads = false;
        config.cmem_parity = self.safety.parity;
        config
    }

    /// Simulate the golden trajectory once (fork engine only), dropping a
    /// [`Checkpoint`] at the reset state, at every requested injection
    /// boundary, and — under [`Campaign::with_checkpoint_stride`] — every
    /// `stride` cycles up to the deepest boundary. Each checkpoint sits
    /// at the last instruction boundary whose cycle count is strictly
    /// below its target cycle, so the activation tick — and an open-line
    /// fault's held value — are bit-identical to a run from reset.
    /// Candidates are deduplicated and, beyond [`MAX_POOL_CHECKPOINTS`],
    /// thinned evenly (always keeping the reset state and the deepest
    /// boundary) so pool memory stays bounded; a job whose exact boundary
    /// was thinned away replays the gap from the nearest surviving
    /// ancestor. Returns `None` under [`Execution::FullReexecution`].
    fn build_pool(
        &self,
        config: &Leon3Config,
        golden: &GoldenRun,
        instant_cycles: &[u64],
    ) -> Option<CheckpointPool> {
        if self.execution != Execution::Fork {
            return None;
        }
        let mut boundaries: Vec<u64> = vec![0];
        let mut deepest_cycle = 0u64;
        for &cycle in instant_cycles {
            boundaries.push(golden.prefix_steps(cycle) as u64);
            deepest_cycle = deepest_cycle.max(cycle);
        }
        if let Some(stride) = self.checkpoint_stride {
            let mut at = stride;
            while at <= deepest_cycle {
                boundaries.push(golden.prefix_steps(at) as u64);
                at += stride;
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.len() > MAX_POOL_CHECKPOINTS {
            let last = boundaries.len() - 1;
            let mut kept: Vec<u64> = (0..MAX_POOL_CHECKPOINTS)
                .map(|i| boundaries[i * last / (MAX_POOL_CHECKPOINTS - 1)])
                .collect();
            kept.dedup();
            boundaries = kept;
        }
        // One monotone sweep: each checkpoint continues stepping from the
        // previous one, so pool construction costs the deepest boundary
        // once, not the sum of all boundaries.
        let mut cpu = Leon3::new(config.clone());
        cpu.load(&self.program);
        let mut stepped = 0u64;
        let mut checkpoints = Vec::with_capacity(boundaries.len());
        let mut bytes = 0u64;
        for &steps in &boundaries {
            while stepped < steps {
                cpu.step();
                stepped += 1;
            }
            let snapshot = cpu.snapshot();
            bytes += snapshot.approx_bytes() as u64;
            checkpoints.push(Checkpoint { snapshot, steps });
        }
        count_host_cycles(cpu.cycles());
        Some(CheckpointPool { checkpoints, bytes })
    }

    /// Run `jobs` on `threads` workers, honouring prefilled (resumed)
    /// slots and appending each completed job to the journal before its
    /// record is published. Worker `w` takes every `threads`-th run of
    /// `kinds.len()` consecutive jobs (one site's fault models, in the
    /// planned order), so every worker gets a like mix of fault models; on
    /// the fork engine it classifies its share on one golden-shadow sweep
    /// (see [`sweep`]). One worker runs on the calling thread. With a
    /// static `plan`, the workers simulate only the
    /// [`StaticVerdict::Simulate`] jobs; the pruned and
    /// collapsed records are synthesised on the main thread afterwards
    /// (so a collapsed member always finds its representative's slot
    /// filled) and journaled in that order — representative entries
    /// strictly precede member entries, keeping resume torn-line-safe.
    #[allow(clippy::too_many_arguments)]
    fn execute_jobs(
        &self,
        threads: usize,
        config: &Leon3Config,
        golden: &GoldenRun,
        pool: Option<&CheckpointPool>,
        jobs: &[Job],
        journal: Option<Journal>,
        prefilled: Vec<Option<(FaultRecord, CampaignStats)>>,
        plan: Option<&[StaticVerdict]>,
    ) -> Result<Vec<(FaultRecord, CampaignStats)>, CampaignError> {
        let ctx = JobContext {
            program: &self.program,
            golden,
            deadline: self.deadline,
            safety: self.safety,
        };
        // Which slots were reconstituted from the journal; read-only, so
        // workers can skip them without taking the lock.
        let done: Vec<bool> = prefilled.iter().map(Option::is_some).collect();
        let shared = std::sync::Mutex::new(SharedState {
            slots: prefilled,
            journal,
            journal_error: None,
        });
        let publish =
            |idx: usize, outcome: FaultOutcome, detection: Detection, mut delta: CampaignStats| {
                let job = &jobs[idx];
                let record = FaultRecord {
                    site: job.sites[0],
                    kind: job.kind,
                    outcome,
                    activated: job
                        .sites()
                        .iter()
                        .any(|s| golden.net_exercised_from(s.net, job.injection_cycle)),
                    detection,
                    pruned_by: None,
                };
                delta.count_bucket(&record);
                // Jobs are panic-isolated, so a poisoned lock can only mean a
                // panic *outside* a job (e.g. an OOM abort path); every update
                // below is whole-record, so recovery is safe.
                let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
                if guard.journal_error.is_none() {
                    if let Some(journal) = guard.journal.as_mut() {
                        // Write-ahead: the line is flushed before the record
                        // is published in memory.
                        if let Err(e) = journal.append(&Entry {
                            job: idx,
                            record: record.clone(),
                            delta,
                        }) {
                            guard.journal_error = Some(e);
                            guard.journal = None;
                        }
                    }
                }
                guard.slots[idx] = Some((record, delta));
            };
        let kinds = self.kinds.len();
        let worker = |share: usize| {
            let mine: Vec<usize> = (0..jobs.len())
                .filter(|&idx| (idx / kinds) % threads == share)
                .filter(|&idx| !done[idx])
                .filter(|&idx| plan.is_none_or(|p| p[idx] == StaticVerdict::Simulate))
                .collect();
            // One model instance per worker, restored between runs.
            let mut cpu = Leon3::new(config.clone());
            match pool {
                Some(pool) => sweep(&mut cpu, &ctx, pool, jobs, &mine, &publish),
                None => {
                    for idx in mine {
                        let ((outcome, detection), delta) = isolated(
                            |tally| run_job(&mut cpu, &ctx, tally, &jobs[idx]),
                            |anomaly| (anomaly, Detection::Undetected),
                        );
                        publish(idx, outcome, detection, delta);
                    }
                }
            }
        };
        if threads == 1 {
            // A spawned thread would get a malloc arena of its own.
            worker(0);
        } else {
            std::thread::scope(|scope| {
                for share in 0..threads {
                    let worker = &worker;
                    scope.spawn(move || worker(share));
                }
            });
        }
        let mut shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = shared.journal_error {
            return Err(e.into());
        }
        if let Some(plan) = plan {
            for idx in 0..jobs.len() {
                if shared.slots[idx].is_some() {
                    // Simulated by a worker, or resumed from the journal.
                    continue;
                }
                let job = &jobs[idx];
                let (record, delta) = match plan[idx] {
                    StaticVerdict::Simulate => {
                        unreachable!("unpruned slots are filled by the workers")
                    }
                    StaticVerdict::Prune => synthesize_pruned(golden, job),
                    StaticVerdict::Member { rep } => {
                        let rep_record = shared.slots[rep]
                            .as_ref()
                            .expect("class representatives are never pruned")
                            .0
                            .clone();
                        synthesize_member(golden, job, &rep_record)
                    }
                };
                if let Some(journal) = shared.journal.as_mut() {
                    journal.append(&Entry {
                        job: idx,
                        record: record.clone(),
                        delta,
                    })?;
                }
                shared.slots[idx] = Some((record, delta));
            }
        }
        Ok(shared
            .slots
            .into_iter()
            // Invariant: the shares partition the indices among the
            // workers, prefilled indices arrive occupied, and the
            // synthesis pass above fills every pruned/collapsed slot — so
            // every slot is filled once the workers return.
            .map(|slot| slot.expect("all jobs ran"))
            .collect())
    }

    /// Compute the per-job static verdicts, or `None` when the analyzer
    /// is disabled. Deterministic in the (post-shard) job list: the same
    /// campaign resumes to the same plan. Collapsing is shard-local — a
    /// member is collapsed only onto a representative job present (and
    /// simulated) in this shard's own list, so no record ever depends on
    /// another shard's results.
    fn static_plan(&self, jobs: &[Job]) -> Option<Vec<StaticVerdict>> {
        if !self.static_analysis {
            return None;
        }
        let sa = StaticAnalysis::for_config(&self.classification_config());
        let mut verdicts = Vec::with_capacity(jobs.len());
        // (root net, bit, kind, group) -> index of the simulated job on
        // the class-root net that members of the class copy from.
        let mut reps: std::collections::HashMap<(u32, u8, FaultKind, usize), usize> =
            std::collections::HashMap::new();
        for (idx, job) in jobs.iter().enumerate() {
            debug_assert_eq!(job.n_sites, 1, "pairs are rejected before planning");
            let site = job.sites[0];
            if sa.prunes(site.net, job.kind) {
                verdicts.push(StaticVerdict::Prune);
                continue;
            }
            verdicts.push(StaticVerdict::Simulate);
            if StaticAnalysis::collapsible(job.kind) && sa.class_root(site.net) == site.net {
                reps.entry((site.net.raw(), site.bit, job.kind, job.group))
                    .or_insert(idx);
            }
        }
        for (idx, job) in jobs.iter().enumerate() {
            if verdicts[idx] != StaticVerdict::Simulate || !StaticAnalysis::collapsible(job.kind) {
                continue;
            }
            let site = job.sites[0];
            let root = sa.class_root(site.net);
            if root == site.net {
                continue;
            }
            if let Some(&rep) = reps.get(&(root.raw(), site.bit, job.kind, job.group)) {
                verdicts[idx] = StaticVerdict::Member { rep };
            }
        }
        Some(verdicts)
    }

    /// Re-simulate a seeded sample of pruned/collapsed jobs from reset
    /// (no checkpoint shortcuts, no activation skip) and fail if any
    /// contradicts its synthesised record. Verification work: not billed
    /// in [`CampaignStats`] and run without the wall-clock deadline so
    /// the verdict stays host-independent.
    fn run_static_audit(
        &self,
        config: &Leon3Config,
        golden: &GoldenRun,
        jobs: &[Job],
        plan: &[StaticVerdict],
        per_job: &[(FaultRecord, CampaignStats)],
    ) -> Result<(), CampaignError> {
        let Some((n, seed)) = self.static_audit else {
            return Ok(());
        };
        let mut candidates: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, v)| !matches!(v, StaticVerdict::Simulate))
            .map(|(i, _)| i)
            .collect();
        let take = n.min(candidates.len());
        let mut rng = SplitMix64::new(seed);
        for i in 0..take {
            let j = i + rng.gen_range((candidates.len() - i) as u64) as usize;
            candidates.swap(i, j);
        }
        let ctx = JobContext {
            program: &self.program,
            golden,
            deadline: None,
            safety: self.safety,
        };
        let mut cpu = Leon3::new(config.clone());
        for &idx in &candidates[..take] {
            let mut scratch = CampaignStats::default();
            let (outcome, detection) = run_job(&mut cpu, &ctx, &mut scratch, &jobs[idx]);
            let synthesised = &per_job[idx].0;
            if outcome != synthesised.outcome || detection != synthesised.detection {
                return Err(CampaignError::StaticAuditFailed {
                    job: idx,
                    detail: format!(
                        "analyzer recorded {:?}/{:?}, full re-simulation produced {:?}/{:?}",
                        synthesised.outcome, synthesised.detection, outcome, detection
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A workload's golden run captured once for reuse across campaigns (see
/// [`Campaign::prepare`]). Cheap to share behind an `Arc`: campaigns
/// borrow it read-only.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Hash of the workload image this golden run belongs to.
    workload: u64,
    /// Debug rendering of the classification platform configuration —
    /// the golden trajectory depends on every field of it.
    config: String,
    golden: GoldenRun,
}

impl PreparedWorkload {
    /// The workload-image hash this preparation pins.
    pub fn workload_hash(&self) -> u64 {
        self.workload
    }

    /// Refuse reuse across a different workload or platform configuration.
    fn check(&self, program: &Program, config: &Leon3Config) -> Result<(), CampaignError> {
        if self.workload != workload_hash(program) {
            return Err(CampaignError::PreparedMismatch { field: "workload" });
        }
        if self.config != format!("{config:?}") {
            return Err(CampaignError::PreparedMismatch { field: "config" });
        }
        Ok(())
    }
}

/// What one [`Campaign::execute`] call runs. The [`Default`] is the
/// campaign's own injection instant, single faults, no journal and a
/// freshly captured golden run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Run the fault list at each of these instants, one result per
    /// instant in order. `None` runs at the campaign's own instant
    /// ([`Campaign::with_injection_cycle`],
    /// [`Campaign::with_injection_fraction`]).
    pub instants: Option<&'a [InjectionInstant]>,
    /// Dual-point faults for ISO 26262 latent-fault analysis: the site
    /// list is chained into overlapping pairs `(s0,s1), (s1,s2), …` and
    /// both faults of a pair are present at once. A record's `site` is
    /// its pair's first site.
    pub pairs: bool,
    /// Where the run journals its jobs, if anywhere.
    pub journal: JournalMode<'a>,
    /// Reuse this golden run instead of capturing one (see
    /// [`Campaign::prepare`]).
    pub golden: Option<&'a PreparedWorkload>,
}

/// Where a [`Campaign::execute`] call journals its jobs, if anywhere.
#[derive(Debug, Clone, Copy, Default)]
pub enum JournalMode<'a> {
    /// No journal.
    #[default]
    None,
    /// Create (truncate) a write-ahead journal at this path: a validating
    /// header, then one flushed JSONL line per completed job, written
    /// *before* its record is published. A killed process loses at most
    /// the job lines in flight.
    Create(&'a Path),
    /// Resume from the journal at this path. The header must match this
    /// campaign (workload hash, configuration fingerprint, job universe,
    /// resolved instants, checkpoint stride, fault models) or the run is
    /// refused with [`JournalError::HeaderMismatch`]. Completed jobs are
    /// replayed and only the rest simulated, appending to the same file,
    /// so the result is bit-identical to an uninterrupted run (modulo
    /// [`CampaignStats::resumed`]). A torn final line (the kill landed
    /// mid-append) is dropped and its job re-run.
    Resume(&'a Path),
}

/// Open (or resume) the journal for `jobs`: the writer and the prefilled
/// result slots.
#[allow(clippy::type_complexity)]
fn open_journal(
    expected: &Header,
    jobs: &[Job],
    mode: JournalMode<'_>,
) -> Result<(Option<Journal>, Vec<Option<(FaultRecord, CampaignStats)>>), CampaignError> {
    match mode {
        JournalMode::None => Ok((None, vec![None; jobs.len()])),
        JournalMode::Create(path) => Ok((
            Some(Journal::create(path, expected)?),
            vec![None; jobs.len()],
        )),
        JournalMode::Resume(path) => {
            let (found, entries, truncated) = journal::read(path)?;
            check_header(expected, &found)?;
            let mut prefilled: Vec<Option<(FaultRecord, CampaignStats)>> = vec![None; jobs.len()];
            for entry in &entries {
                let job = jobs.get(entry.job).ok_or(JournalError::JobOutOfRange {
                    job: entry.job,
                    jobs: jobs.len(),
                })?;
                if entry.record.site != job.sites[0] || entry.record.kind != job.kind {
                    return Err(JournalError::JobMismatch { job: entry.job }.into());
                }
                prefilled[entry.job] = Some((entry.record.clone(), entry.delta));
            }
            let writer = if truncated {
                // The kill landed mid-append, so the file ends in a
                // torn fragment with no newline — appending onto it
                // would corrupt the next line. Rewrite the validated
                // prefix (serialization is canonical) and go on from
                // there.
                let mut journal = Journal::create(path, expected)?;
                for entry in &entries {
                    journal.append(entry)?;
                }
                journal
            } else {
                Journal::open_append(path)?
            };
            Ok((Some(writer), prefilled))
        }
    }
}

/// Worker-shared mutable state, updated whole-record under one lock.
struct SharedState {
    slots: Vec<Option<(FaultRecord, CampaignStats)>>,
    journal: Option<Journal>,
    journal_error: Option<JournalError>,
}

/// Resolve an instant against the golden run, rejecting fractions outside
/// the run.
fn resolve_instant(instant: InjectionInstant, golden: &GoldenRun) -> Result<u64, CampaignError> {
    match instant {
        InjectionInstant::Cycle(c) => Ok(c),
        InjectionInstant::Fraction(f) if (0.0..=1.0).contains(&f) => {
            Ok((golden.cycles as f64 * f) as u64)
        }
        InjectionInstant::Fraction(f) => Err(CampaignError::InjectionPastEnd { fraction: f }),
    }
}

/// Hash of the workload image (entry + segments), for journal validation.
fn workload_hash(program: &Program) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &program.entry.to_be_bytes());
    for seg in &program.segments {
        h = fnv1a64(h, &seg.base.to_be_bytes());
        h = fnv1a64(h, &(seg.bytes.len() as u64).to_be_bytes());
        h = fnv1a64(h, &seg.bytes);
    }
    h
}

/// Field-by-field header validation with a precise error. The opaque
/// configuration fingerprint is checked *after* the named structural
/// fields — including the fault-kind token list with its time-varying
/// parameters — so a mismatch one of them can explain (a different
/// checkpoint stride, instant list, fault schedule or job universe) is
/// reported by name.
fn check_header(expected: &Header, found: &Header) -> Result<(), JournalError> {
    let structural: [(&'static str, u64, u64); 5] = [
        ("workload", expected.workload, found.workload),
        ("jobs", expected.jobs as u64, found.jobs as u64),
        ("instants", expected.instants as u64, found.instants as u64),
        ("instants_hash", expected.instants_hash, found.instants_hash),
        (
            "checkpoint_stride",
            expected.checkpoint_stride,
            found.checkpoint_stride,
        ),
    ];
    for (field, want, got) in structural {
        if want != got {
            return Err(JournalError::HeaderMismatch {
                field,
                expected: want.to_string(),
                found: got.to_string(),
            });
        }
    }
    check_header_kinds(&expected.kinds, &found.kinds)?;
    let trailing: [(&'static str, u64, u64); 3] = [
        ("fingerprint", expected.fingerprint, found.fingerprint),
        (
            "injection_cycle",
            expected.injection_cycle,
            found.injection_cycle,
        ),
        ("golden_cycles", expected.golden_cycles, found.golden_cycles),
    ];
    for (field, want, got) in trailing {
        if want != got {
            return Err(JournalError::HeaderMismatch {
                field,
                expected: want.to_string(),
                found: got.to_string(),
            });
        }
    }
    Ok(())
}

/// Compare the header's fault-kind token lists, naming the first
/// mismatched *parameter* field (e.g. `kinds.period`) when two kinds
/// share a base name and differ only in a time-varying parameter, and
/// the `kinds` list itself otherwise.
fn check_header_kinds(expected: &[String], found: &[String]) -> Result<(), JournalError> {
    let list_mismatch = || JournalError::HeaderMismatch {
        field: "kinds",
        expected: expected.join(","),
        found: found.join(","),
    };
    if expected.len() != found.len() {
        return Err(list_mismatch());
    }
    for (want, got) in expected.iter().zip(found) {
        if want == got {
            continue;
        }
        let split = |token: &str| -> (String, Vec<(String, String)>) {
            match token.split_once('(') {
                Some((base, rest)) => (
                    base.to_string(),
                    rest.trim_end_matches(')')
                        .split(',')
                        .filter_map(|pair| {
                            pair.split_once('=')
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                        })
                        .collect(),
                ),
                None => (token.to_string(), Vec::new()),
            }
        };
        let (want_base, want_params) = split(want);
        let (got_base, got_params) = split(got);
        if want_base != got_base || want_params.len() != got_params.len() {
            return Err(list_mismatch());
        }
        for ((wk, wv), (gk, gv)) in want_params.iter().zip(&got_params) {
            if wk != gk {
                return Err(list_mismatch());
            }
            if wv != gv {
                let field = match wk.as_str() {
                    "level" => "kinds.level",
                    "period" => "kinds.period",
                    "duty" => "kinds.duty",
                    "phase" => "kinds.phase",
                    "flips" => "kinds.flips",
                    "spacing" => "kinds.spacing",
                    _ => "kinds",
                };
                return Err(JournalError::HeaderMismatch {
                    field,
                    expected: wv.clone(),
                    found: gv.clone(),
                });
            }
        }
        return Err(list_mismatch());
    }
    Ok(())
}

/// The static analyzer's verdict for one planned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticVerdict {
    /// No static argument applies: simulate normally.
    Simulate,
    /// Provably benign (unobservable net, or a transient flip on a
    /// transient-safe latch): record `NoEffect` without simulation.
    Prune,
    /// Stuck-at equivalence-class member: copy the outcome of the
    /// representative job at this index of the same (post-shard) list.
    Member { rep: usize },
}

/// The record and cost delta of a statically pruned job. The `activated`
/// flag is computed honestly from the golden trace — a pruned fault on a
/// hot-but-unobservable net is *safe*, not *latent* — so the record is
/// bit-identical (modulo provenance) to what a full simulation would
/// produce, which is exactly what the audit mode re-checks.
fn synthesize_pruned(golden: &GoldenRun, job: &Job) -> (FaultRecord, CampaignStats) {
    let record = FaultRecord {
        site: job.sites[0],
        kind: job.kind,
        outcome: FaultOutcome::NoEffect,
        activated: golden.net_exercised_from(job.sites[0].net, job.injection_cycle),
        detection: Detection::Undetected,
        pruned_by: Some(PrunedBy::Static),
    };
    let mut delta = CampaignStats {
        statically_pruned: 1,
        cycles_avoided: golden.cycles,
        ..CampaignStats::default()
    };
    delta.count_bucket(&record);
    (record, delta)
}

/// The record and cost delta of a collapsed equivalence-class member:
/// outcome and detection are copied from the simulated representative
/// (the runs are behaviourally identical by the stuck-at equivalence
/// argument); the `activated` flag is the member's own.
fn synthesize_member(
    golden: &GoldenRun,
    job: &Job,
    rep: &FaultRecord,
) -> (FaultRecord, CampaignStats) {
    let record = FaultRecord {
        site: job.sites[0],
        kind: job.kind,
        outcome: rep.outcome.clone(),
        activated: golden.net_exercised_from(job.sites[0].net, job.injection_cycle),
        detection: rep.detection,
        pruned_by: Some(PrunedBy::Collapsed),
    };
    let mut delta = CampaignStats {
        statically_pruned: 1,
        cycles_avoided: golden.cycles,
        ..CampaignStats::default()
    };
    delta.count_bucket(&record);
    (record, delta)
}

/// How many distinct representatives the members of `group` collapse
/// onto — the campaign-level [`CampaignStats::collapsed_classes`].
fn collapsed_class_count(plan: &[StaticVerdict], jobs: &[Job], group: usize) -> usize {
    let mut reps = std::collections::BTreeSet::new();
    for (verdict, job) in plan.iter().zip(jobs) {
        if job.group == group {
            if let StaticVerdict::Member { rep } = *verdict {
                reps.insert(rep);
            }
        }
    }
    reps.len()
}

/// One unit of campaign work: one or two simultaneous faults of one model
/// at one injection instant.
#[derive(Clone, Copy)]
struct Job {
    sites: [FaultSite; 2],
    n_sites: usize,
    kind: FaultKind,
    injection_cycle: u64,
    /// Which result bucket the job belongs to: the index of its instant
    /// in [`ExecOptions::instants`] (0 for single-instant campaigns).
    group: usize,
}

impl Job {
    fn sites(&self) -> &[FaultSite] {
        &self.sites[..self.n_sites]
    }

    /// The job's faults, one per site.
    fn faults(&self) -> impl Iterator<Item = Fault> + '_ {
        self.sites().iter().map(|site| Fault {
            net: site.net,
            bit: site.bit,
            kind: self.kind,
            from_cycle: self.injection_cycle,
        })
    }
}

/// One fault-free snapshot of the golden trajectory, restorable by any
/// job whose injection boundary lies at or beyond `steps`.
struct Checkpoint {
    snapshot: Snapshot,
    /// `step()` calls consumed before the snapshot, so a restored run's
    /// hang budget counts exactly as a run from reset would.
    steps: u64,
}

/// The fork engine's checkpoint pool: golden-trajectory snapshots sorted
/// by depth (always starting at the reset state), shared read-only by
/// every worker.
struct CheckpointPool {
    checkpoints: Vec<Checkpoint>,
    /// Approximate resident bytes across every snapshot in the pool.
    bytes: u64,
}

impl CheckpointPool {
    /// The deepest checkpoint at or before `boundary` (in steps). The
    /// pool always holds the reset-state checkpoint (`steps == 0`), so
    /// every boundary has an ancestor.
    fn nearest(&self, boundary: u64) -> &Checkpoint {
        let idx = self.checkpoints.partition_point(|c| c.steps <= boundary);
        &self.checkpoints[idx - 1]
    }

    /// The checkpoint `job` forks from: the deepest one at or before its
    /// injection boundary.
    fn ancestor(&self, golden: &GoldenRun, job: &Job) -> &Checkpoint {
        self.nearest(golden.prefix_steps(job.injection_cycle) as u64)
    }

    /// Bill `job` as forked from its own [`CheckpointPool::ancestor`] and
    /// run to `end_cycle`, whichever model stepped it: restoring its
    /// boundary checkpoint is a fork, a shallower one a restore with
    /// replay, and the cycles from the ancestor to the end are simulated.
    fn bill(&self, golden: &GoldenRun, job: &Job, end_cycle: u64, tally: &mut CampaignStats) {
        let boundary = golden.prefix_steps(job.injection_cycle) as u64;
        let ckpt = self.nearest(boundary);
        let from = ckpt.snapshot.cycle();
        if ckpt.steps == boundary {
            tally.forked += 1;
        } else {
            tally.restored_from_checkpoint += 1;
            tally.replay_cycles += golden.cycle_at_step(boundary as usize) - from;
        }
        tally.cycles_simulated += end_cycle.saturating_sub(from);
        tally.cycles_avoided += from;
    }

    /// Cycles simulated to build the pool: the deepest checkpoint's
    /// cycle, since construction is one monotone sweep.
    fn build_cycles(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.snapshot.cycle())
    }

    fn len(&self) -> usize {
        self.checkpoints.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Everything a worker needs to classify one job.
struct JobContext<'a> {
    program: &'a Program,
    golden: &'a GoldenRun,
    /// Per-job wall-clock budget, if configured.
    deadline: Option<Duration>,
    /// Which safety mechanisms to evaluate over the observation.
    safety: SafetyConfig,
}

/// Run one job's attempt with panic isolation: a panicking attempt is
/// retried once (every job entry sequence restores or resets the model it
/// runs on first, so the retry never sees torn state, and on the fork
/// engine that model is the sweep's runner, never the golden model the
/// sweep steps); a second panic yields what
/// `anomaly` makes of [`FaultOutcome::EngineAnomaly`] with the panic
/// payload, and the failed attempts' cost tally is dropped.
fn isolated<T>(
    mut attempt_job: impl FnMut(&mut CampaignStats) -> T,
    anomaly: impl FnOnce(FaultOutcome) -> T,
) -> (T, CampaignStats) {
    for attempt in 0..2 {
        // `&mut Leon3` is not `UnwindSafe` by definition, but the model
        // documents its unwind boundary: `restore`/`reset`/`load` rebuild
        // every field, so a torn model from a caught panic cannot leak
        // into the next run (see `leon3_model::Leon3` docs).
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut delta = CampaignStats::default();
            let ended = attempt_job(&mut delta);
            (ended, delta)
        }));
        match run {
            Ok((ended, mut delta)) => {
                delta.retried = usize::from(attempt > 0);
                return (ended, delta);
            }
            Err(_) if attempt == 0 => continue,
            Err(payload) => {
                let delta = CampaignStats {
                    retried: 1,
                    anomalies: 1,
                    ..CampaignStats::default()
                };
                let outcome = FaultOutcome::EngineAnomaly {
                    // `&*` derefs the box: `&payload` would coerce the
                    // `Box` itself to `&dyn Any` and every downcast would
                    // miss.
                    payload: panic_message(&*payload),
                };
                return (anomaly(outcome), delta);
            }
        }
    }
    unreachable!("the retry loop returns on every branch")
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classify one job on the full-reexecution engine: reset the model and
/// re-run it from cycle 0 with the job's faults injected.
fn run_job(
    cpu: &mut Leon3,
    ctx: &JobContext<'_>,
    tally: &mut CampaignStats,
    job: &Job,
) -> (FaultOutcome, Detection) {
    let deadline = ctx.deadline.map(|d| Instant::now() + d);
    tally.full_reexecutions += 1;
    cpu.reset();
    cpu.load(ctx.program);
    for fault in job.faults() {
        cpu.inject(fault);
    }
    let run = observe(cpu, ctx.golden, job.injection_cycle, 0, 0, deadline, None);
    count_host_cycles(cpu.cycles());
    tally.cycles_simulated += cpu.cycles();
    tally.short_circuited += usize::from(run.short_circuited);
    tally.timed_out += usize::from(run.timed_out);
    let detection = classify_run(cpu, ctx, job, &run);
    (run.outcome, detection)
}

/// Golden steps between two window snapshots of a [`sweep`].
const SWEEP_WINDOW_STEPS: u64 = 1024;

#[cfg(test)]
thread_local! {
    /// Jobs that ran on a model of their own after leaving a sweep on this
    /// thread.
    static OWN_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Own runs that re-joined a sweep on this thread.
    static REJOINS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Re-joins with a cycle offset other than zero.
    static OFFSET_REJOINS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Host cycles of the own runs on this thread: those that re-joined,
    /// those classified `NoEffect`, and the rest.
    static OWN_RUN_CYCLES: std::cell::Cell<[u64; 3]> = const { std::cell::Cell::new([0; 3]) };
    /// Host cycles of the sweep windows stepped on this thread.
    static WINDOW_CYCLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Each own run on this thread that ended `NoEffect` without
    /// re-joining: its job and the step count of its window start.
    static LONE_NO_EFFECT: std::cell::RefCell<Vec<(Job, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// How a fork-engine own run ended.
enum OwnEnd {
    /// Classified, as a run alone to its end would have been.
    Classified(FaultOutcome, Detection),
    /// Back in the golden state at the end of its window, this many cycles
    /// late (early if negative), with its faults' states to ride on.
    Rejoined(i64, Vec<FaultState>),
}

/// Classify `mine` (indices into `jobs`) on the fork engine with one
/// **golden-shadow sweep**.
///
/// A job whose nets the golden run never reads from its injection instant
/// on is classified `NoEffect` at once. The rest, of every fault model,
/// are armed as shadow faults on one golden run, restored from the
/// shallowest pool checkpoint they need and stepped in windows of
/// [`SWEEP_WINDOW_STEPS`]. A job's faulty machine is the golden one until
/// its first *effective divergence*: a read of its net that the fault
/// would change, or the activation of a transient or burst fault, which
/// flips a stored bit. The golden run is the *rider*: it steps each window
/// once and never leaves the golden trajectory. A job that diverges inside
/// a window runs on a second model, the *runner*, restored to that
/// window's start snapshot once the window ends, with its fault state
/// carried over (a transient or burst is injected afresh, to flip when its
/// clock comes); the rider just retires its shadows. Every own run closes
/// a proven hang loop (see [`observe`]).
///
/// An own run is compared once with the golden state at the end of the
/// window it left in. If it is back there, closable (so a burst has landed
/// its last flip) and equal but for the clock, it stops and **re-joins**
/// the sweep as a shadow that carries its fault state, a spent flip
/// included, and its cycle offset Δ (its cycle minus the golden one).
/// Should it diverge again, it leaves like any job, its clock shifted by
/// Δ, so every latency comes out in its own timeline. Jobs still on the
/// sweep when the golden run halts are `NoEffect`, classified from the
/// sweep's final trace and billed to the golden end plus their Δ.
/// Re-joining is off under a watchdog, which replays the timestamps of the
/// faulty write stream, and under a deadline, which would have to carry a
/// job's own-run time across re-joins.
///
/// Every job is billed as if it had been restored from its own pool
/// ancestor and stepped to its end cycle, so records and stats are those
/// of a per-job fork. A job's wall-clock deadline bounds the time spent
/// stepping its faulty machine: the rider's one pass over each window it
/// rode from the one its pool ancestor lies in, then its own run. Other
/// jobs' own runs do not count against it.
fn sweep(
    cpu: &mut Leon3,
    ctx: &JobContext<'_>,
    pool: &CheckpointPool,
    jobs: &[Job],
    mine: &[usize],
    publish: &impl Fn(usize, FaultOutcome, Detection, CampaignStats),
) {
    let golden = ctx.golden;
    let may_rejoin = ctx.deadline.is_none() && ctx.safety.watchdog_cycles.is_none();
    // A job runs on its own once `enter` has put the runner where it
    // starts: at `steps` into the run, its faults injected, with what the
    // `spent` sweep time left of its deadline. A classified job is
    // published; a re-joining one is handed back.
    let run_own = |cpu: &mut Leon3,
                   idx: usize,
                   enter: &dyn Fn(&mut Leon3),
                   steps: u64,
                   spent: Duration,
                   fork: OwnRun<'_>| {
        let job = &jobs[idx];
        let (ended, delta) = isolated(
            |tally| {
                let deadline = ctx
                    .deadline
                    .map(|d| Instant::now() + d.saturating_sub(spent));
                #[cfg(test)]
                OWN_RUNS.with(|runs| runs.set(runs.get() + 1));
                enter(cpu);
                let from = cpu.cycles();
                let trace_len = cpu.bus_trace().len();
                let run = observe(
                    cpu,
                    golden,
                    job.injection_cycle,
                    steps,
                    trace_len,
                    deadline,
                    Some(fork),
                );
                let stepped = cpu.cycles() - from - run.skipped_cycles;
                count_host_cycles(stepped);
                #[cfg(test)]
                {
                    let end = match (run.rejoined, &run.outcome) {
                        (Some(_), _) => 0,
                        (None, FaultOutcome::NoEffect) => 1,
                        (None, _) => 2,
                    };
                    OWN_RUN_CYCLES.with(|tally| {
                        let mut cycles = tally.get();
                        cycles[end] += stepped;
                        tally.set(cycles);
                    });
                    if end == 1 {
                        LONE_NO_EFFECT.with(|runs| runs.borrow_mut().push((*job, steps)));
                    }
                }
                if let Some(offset) = run.rejoined {
                    return OwnEnd::Rejoined(offset, cpu.pool().fault_states().collect());
                }
                pool.bill(golden, job, cpu.cycles(), tally);
                tally.short_circuited += usize::from(run.short_circuited);
                tally.timed_out += usize::from(run.timed_out);
                let detection = classify_run(cpu, ctx, job, &run);
                OwnEnd::Classified(run.outcome, detection)
            },
            |anomaly| OwnEnd::Classified(anomaly, Detection::Undetected),
        );
        match ended {
            OwnEnd::Classified(outcome, detection) => {
                publish(idx, outcome, detection, delta);
                None
            }
            OwnEnd::Rejoined(offset, faults) => Some((offset, faults)),
        }
    };
    let alone = OwnRun {
        offset: 0,
        rejoin_at: None,
    };
    let mut on_sweep = Vec::with_capacity(mine.len());
    for &idx in mine {
        let job = &jobs[idx];
        if !job
            .sites()
            .iter()
            .any(|s| golden.net_exercised_from(s.net, job.injection_cycle))
        {
            // The fault can never be read: the faulty run reproduces the
            // golden run to the end by construction (and no mechanism can
            // fire).
            let delta = CampaignStats {
                skipped_inactive: 1,
                cycles_avoided: golden.cycles,
                ..CampaignStats::default()
            };
            publish(idx, FaultOutcome::NoEffect, Detection::Undetected, delta);
        } else {
            on_sweep.push(idx);
        }
    }
    let Some(start) = on_sweep
        .iter()
        .map(|&idx| pool.ancestor(golden, &jobs[idx]))
        .min_by_key(|ckpt| ckpt.steps)
    else {
        return;
    };
    let restoring = Instant::now();
    cpu.restore(&start.snapshot);
    let mut window = start.snapshot.clone();
    let mut runner = Leon3::new(cpu.config().clone());
    let mut window_steps = start.steps;
    // Wall-clock time the sweep has spent stepping so far, and its value
    // at each window start: a job's deadline is charged from the window
    // its own pool ancestor lies in.
    let mut swept = restoring.elapsed();
    let mut starts = vec![(window_steps, Duration::ZERO)];
    let spent = |starts: &[(u64, Duration)], swept: Duration, idx: usize| {
        let from = pool.ancestor(golden, &jobs[idx]).steps;
        swept - starts[starts.partition_point(|&(steps, _)| steps <= from) - 1].1
    };
    // A fault the model refuses (a bit outside its net) cannot be armed;
    // its job runs on its own from the start, where `isolated` records the
    // model's panic.
    on_sweep.retain(|&idx| {
        let accepted = jobs[idx].faults().all(|fault| cpu.pool().accepts(&fault));
        if !accepted {
            let spent = spent(&starts, swept, idx);
            let enter = |runner: &mut Leon3| {
                runner.restore(&window);
                jobs[idx].faults().for_each(|fault| runner.inject(fault));
            };
            run_own(&mut runner, idx, &enter, window_steps, spent, alone);
        }
        accepted
    });
    cpu.arm_shadows(
        on_sweep
            .iter()
            .flat_map(|&idx| jobs[idx].faults().map(move |fault| (fault, idx))),
    );
    let mut saved = cpu.shadows().clone();
    let mut leaving = Vec::new();
    // Each re-joined job's cycle offset, and the jobs that re-join at the
    // end of the current window with their faults' states.
    let mut offsets: HashMap<usize, i64> = HashMap::new();
    let mut rejoining: Vec<(usize, Vec<FaultState>)> = Vec::new();
    while !on_sweep.is_empty() {
        if let Some(d) = ctx.deadline {
            leaving.clear();
            leaving.extend(
                on_sweep
                    .iter()
                    .copied()
                    .filter(|&idx| spent(&starts, swept, idx) >= d),
            );
            // These jobs overran their deadline on the sweep.
            for &idx in &leaving {
                let job = &jobs[idx];
                let run = Observation {
                    outcome: FaultOutcome::Hang {
                        latency_cycles: cpu.cycles().saturating_sub(job.injection_cycle),
                    },
                    short_circuited: false,
                    timed_out: true,
                    matched: window.trace_len(),
                    skipped_cycles: 0,
                    rejoined: None,
                };
                let mut delta = CampaignStats {
                    timed_out: 1,
                    ..CampaignStats::default()
                };
                pool.bill(golden, job, cpu.cycles(), &mut delta);
                let detection = classify_run(cpu, ctx, job, &run);
                publish(idx, run.outcome, detection, delta);
            }
            if !leaving.is_empty() {
                leaving.sort_unstable();
                on_sweep.retain(|idx| leaving.binary_search(idx).is_err());
                if on_sweep.is_empty() {
                    return;
                }
                cpu.retire_shadows(|owner| leaving.binary_search(&owner).is_ok());
                saved.clone_from(cpu.shadows());
            }
        }
        // The one pass over this window, which every job still riding it
        // is charged.
        let pass = Instant::now();
        let mut stepped = 0;
        let mut halted = false;
        while stepped < SWEEP_WINDOW_STEPS && !halted {
            halted = cpu.step() == StepEvent::Stopped;
            stepped += 1;
        }
        let pass = pass.elapsed();
        let window_cycles = cpu.cycles() - window.cycle();
        count_host_cycles(window_cycles);
        #[cfg(test)]
        WINDOW_CYCLES.with(|n| n.set(n.get() + window_cycles));
        leaving.clear();
        leaving.extend(cpu.diverged_shadow_owners());
        if !leaving.is_empty() {
            leaving.sort_unstable();
            leaving.dedup();
            // The golden state each own run is compared with once, where
            // the window ends.
            let end = (may_rejoin && !halted).then(|| cpu.state_mark());
            let rejoin_at = end.as_ref().map(|end| (window_steps + stepped, end));
            for &idx in &leaving {
                let spent = spent(&starts, swept, idx);
                let offset = offsets.get(&idx).copied();
                let enter = |runner: &mut Leon3| {
                    runner.restore(&window);
                    runner.inject_shadowed(&saved, idx);
                    if let Some(offset) = offset {
                        runner.shift_clock(offset);
                    }
                };
                let fork = OwnRun {
                    offset: offset.unwrap_or(0),
                    rejoin_at,
                };
                if let Some((offset, faults)) =
                    run_own(&mut runner, idx, &enter, window_steps, spent, fork)
                {
                    #[cfg(test)]
                    {
                        REJOINS.with(|n| n.set(n.get() + 1));
                        OFFSET_REJOINS.with(|n| n.set(n.get() + usize::from(offset != 0)));
                    }
                    offsets.insert(idx, offset);
                    rejoining.push((idx, faults));
                }
            }
            on_sweep.retain(|idx| leaving.binary_search(idx).is_err());
            if on_sweep.is_empty() && rejoining.is_empty() {
                return;
            }
            cpu.retire_shadows(|owner| leaving.binary_search(&owner).is_ok());
        }
        if halted {
            break;
        }
        if !rejoining.is_empty() {
            cpu.arm_carried(
                rejoining
                    .iter()
                    .flat_map(|(idx, faults)| faults.iter().map(|&state| (state, *idx))),
            );
            on_sweep.extend(rejoining.drain(..).map(|(idx, _)| idx));
        }
        cpu.snapshot_into(&mut window);
        saved.clone_from(cpu.shadows());
        window_steps += stepped;
        swept += pass;
        starts.push((window_steps, swept));
    }
    // Never diverged, or back in the golden state since: each of these
    // faulty runs is the golden run, shifted by its offset.
    let run = Observation {
        outcome: FaultOutcome::NoEffect,
        short_circuited: false,
        timed_out: false,
        matched: golden.writes.len(),
        skipped_cycles: 0,
        rejoined: None,
    };
    for &idx in &on_sweep {
        let job = &jobs[idx];
        let mut delta = CampaignStats::default();
        let offset = offsets.get(&idx).copied().unwrap_or(0);
        let end = cpu
            .cycles()
            .checked_add_signed(offset)
            .expect("a faulty run ends at a cycle");
        pool.bill(golden, job, end, &mut delta);
        let detection = classify_run(cpu, ctx, job, &run);
        publish(idx, FaultOutcome::NoEffect, detection, delta);
    }
}

/// Evaluate the safety mechanisms over a finished observation. The fork
/// engine restores the prefix trace into the model, so the faulty write
/// stream is always the full from-cycle-0 trace either way.
fn classify_run(cpu: &Leon3, ctx: &JobContext<'_>, job: &Job, run: &Observation) -> Detection {
    safety::classify(
        &ctx.safety,
        &run.outcome,
        &DetectionContext {
            golden_writes: &ctx.golden.writes,
            faulty_writes: cpu.bus_trace().events(),
            matched: run.matched,
            parity_event: cpu.parity_detected_at(),
            injection_cycle: job.injection_cycle,
            kind: job.kind,
            truncated: run.short_circuited || run.timed_out,
        },
    )
}

/// What [`observe`] saw.
pub(crate) struct Observation {
    pub(crate) outcome: FaultOutcome,
    /// The run was cut short at a diverging write, before the faulty core
    /// reached a halt, error-mode stop or its cycle budget.
    short_circuited: bool,
    /// The run overran its wall-clock deadline (classified `Hang`).
    timed_out: bool,
    /// Leading writes that matched the golden stream — where the lockstep
    /// divergence cursor stopped, for outcomes that carry no index.
    matched: usize,
    /// Cycles a closed loop skipped, which the host never stepped.
    skipped_cycles: u64,
    /// The run stopped at the end of its window, back in the golden state
    /// there this many cycles late (early if negative), to re-join the
    /// sweep. Its outcome is `NoEffect` so far.
    rejoined: Option<i64>,
}

/// What a fork-engine own run does beyond [`observe`]'s plain watch: it
/// closes proven hang loops, and it may stop at the end of its window to
/// re-join the sweep.
#[derive(Clone, Copy)]
pub(crate) struct OwnRun<'a> {
    /// Cycles the run's clock is ahead of the golden timestamps in the
    /// bus trace it was restored with (negative if behind).
    offset: i64,
    /// The step count at which the run's window ends and the golden state
    /// there, when the run may re-join the sweep.
    rejoin_at: Option<(u64, &'a LoopMark)>,
}

/// A hunt for an exact repeat of a faulty run's state: Brent's cycle
/// detection, with the model's state at the last power-of-two step count
/// as the tortoise and the running model as the hare.
struct LoopHunt {
    mark: LoopMark,
    /// The run's step count when `mark` was taken.
    marked_at: u64,
    /// Steps after which the mark moves up to the hare.
    power: u64,
}

#[cfg(test)]
thread_local! {
    /// Loop hunts [`observe`] started on this thread.
    static LOOP_HUNTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Loops [`observe`] closed on this thread.
    static LOOPS_CLOSED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run an already-prepared (loaded/restored and injected) model to
/// completion, classifying against the golden run with online divergence
/// detection. `steps_done` and `writes_checked` seed the hang budget and
/// the divergence cursor when resuming from a prefix snapshot; both are 0
/// for a run from reset. `deadline` is the cooperative wall-clock
/// watchdog, checked every 256 steps.
///
/// A fork-engine own run (`fork`) closes hang loops: once it has gone
/// longer without an off-core write than any gap of the golden run, it
/// hunts for an exact repeat of its state while the model is closable (see
/// [`Leon3::is_closable`]). Once one is proven, the run skips every whole
/// pass through the loop that fits its hang budget, steps the rest, and
/// ends in the `Hang` stepping all of it would have reached. Each new
/// write restarts the hunt. With [`OwnRun::rejoin_at`], the run compares
/// itself once with the golden state at its window end, and stops there
/// if it is closable and [repeats](Leon3::repeats) that state.
pub(crate) fn observe(
    cpu: &mut Leon3,
    golden: &GoldenRun,
    injection_cycle: u64,
    steps_done: u64,
    writes_checked: usize,
    deadline: Option<Instant>,
    fork: Option<OwnRun<'_>>,
) -> Observation {
    // Budget: generous multiple of the golden run, so hangs terminate.
    let budget = golden.instructions * 2 + 10_000;
    let mut executed: u64 = steps_done;
    let mut checked: usize = writes_checked;
    let mut ticks: u32 = 0;
    let mut close_loops = fork.is_some();
    let (offset, rejoin_at) = fork.map_or((0, None), |f| (f.offset, f.rejoin_at));
    // In the run's own timeline: a restored trace holds golden timestamps.
    let mut last_write = cpu
        .bus_trace()
        .events()
        .last()
        .map_or(0, |w| w.at.saturating_add_signed(offset));
    let mut hunt: Option<LoopHunt> = None;
    let mut skipped_cycles = 0;
    let stop = |outcome, matched| Observation {
        outcome,
        short_circuited: true,
        timed_out: false,
        matched,
        skipped_cycles: 0,
        rejoined: None,
    };
    loop {
        if let Some(d) = deadline {
            if ticks & 0xff == 0 && Instant::now() >= d {
                return Observation {
                    outcome: FaultOutcome::Hang {
                        latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                    },
                    short_circuited: false,
                    timed_out: true,
                    matched: checked,
                    skipped_cycles,
                    rejoined: None,
                };
            }
        }
        ticks = ticks.wrapping_add(1);
        let event = cpu.step();
        executed += 1;
        // Compare any newly produced writes against the golden stream.
        let writes = cpu.bus_trace().events();
        if checked < writes.len() {
            last_write = writes[writes.len() - 1].at;
            hunt = None;
        }
        while checked < writes.len() {
            let w = &writes[checked];
            match golden.writes.get(checked) {
                None => {
                    // Extra write beyond the golden stream.
                    return stop(
                        FaultOutcome::Failure {
                            divergence: checked,
                            latency_cycles: w.at.saturating_sub(injection_cycle),
                        },
                        checked,
                    );
                }
                Some(g) if !w.same_payload(g) => {
                    return stop(
                        FaultOutcome::Failure {
                            divergence: checked,
                            latency_cycles: w.at.saturating_sub(injection_cycle),
                        },
                        checked,
                    );
                }
                Some(_) => checked += 1,
            }
        }
        if event == StepEvent::Stopped {
            break;
        }
        if let Some((at, end)) = rejoin_at {
            if executed == at && cpu.is_closable() && cpu.repeats(end) {
                return Observation {
                    outcome: FaultOutcome::NoEffect,
                    short_circuited: false,
                    timed_out: false,
                    matched: checked,
                    skipped_cycles,
                    // Clocks stay far below 2^63: the wrapped difference
                    // read as signed is the offset.
                    rejoined: Some(cpu.cycles().wrapping_sub(end.cycle()) as i64),
                };
            }
        }
        if close_loops && executed < budget {
            match &mut hunt {
                None => {
                    if cpu.cycles() - last_write > golden.max_write_gap && cpu.is_closable() {
                        #[cfg(test)]
                        LOOP_HUNTS.with(|n| n.set(n.get() + 1));
                        hunt = Some(LoopHunt {
                            mark: cpu.loop_mark(),
                            marked_at: executed,
                            power: 1,
                        });
                    }
                }
                Some(h) => {
                    let period = executed - h.marked_at;
                    if cpu.repeats(&h.mark) {
                        // Every pass takes `period` steps and the same
                        // cycles, so skip the whole passes the budget has
                        // room for and step the rest.
                        let passes = (budget - executed) / period;
                        let before = cpu.cycles();
                        cpu.close_loop(&h.mark, passes);
                        skipped_cycles = cpu.cycles() - before;
                        executed += passes * period;
                        close_loops = false;
                        #[cfg(test)]
                        LOOPS_CLOSED.with(|n| n.set(n.get() + 1));
                    } else if period == h.power {
                        h.mark = cpu.loop_mark();
                        h.marked_at = executed;
                        h.power *= 2;
                    }
                }
            }
        }
        if executed >= budget {
            return Observation {
                outcome: FaultOutcome::Hang {
                    latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                },
                short_circuited: false,
                timed_out: false,
                matched: checked,
                skipped_cycles,
                rejoined: None,
            };
        }
    }
    let outcome = match cpu.exit() {
        Some(Exit::Halted(code)) => {
            if checked < golden.writes.len() {
                // Truncated write stream: the missing write is detected at
                // the moment the golden core produces it.
                FaultOutcome::Failure {
                    divergence: checked,
                    latency_cycles: golden.writes[checked].at.saturating_sub(injection_cycle),
                }
            } else if code != golden.exit_code {
                FaultOutcome::Failure {
                    divergence: checked,
                    latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                }
            } else {
                FaultOutcome::NoEffect
            }
        }
        Some(Exit::ErrorMode(_)) => FaultOutcome::ErrorModeStop {
            latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
        },
        None => FaultOutcome::Hang {
            latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
        },
    };
    Observation {
        outcome,
        short_circuited: false,
        timed_out: false,
        matched: checked,
        skipped_cycles,
        rejoined: None,
    }
}

/// Execute one faulty run from reset (full re-execution), comparing the
/// write stream against the golden run online and stopping at the first
/// divergence.
#[cfg(test)]
fn run_one(
    cpu: &mut Leon3,
    program: &Program,
    golden: &GoldenRun,
    site: FaultSite,
    kind: FaultKind,
    injection_cycle: u64,
) -> FaultOutcome {
    cpu.reset();
    cpu.load(program);
    cpu.inject(Fault {
        net: site.net,
        bit: site.bit,
        kind,
        from_cycle: injection_cycle,
    });
    observe(cpu, golden, injection_cycle, 0, 0, None, None).outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_asm::assemble;
    use sparc_isa::Unit;

    fn small_program() -> Program {
        assemble(
            r#"
            _start:
                set 0x40001000, %l0
                mov 10, %l1
                mov 0, %o0
            loop:
                add %o0, %l1, %o0
                st %o0, [%l0]
                add %l0, 4, %l0
                subcc %l1, 1, %l1
                bne loop
                 nop
                halt
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn attack_targets_restrict_the_fault_universe() {
        let program = small_program();
        let full = Campaign::new(program.clone(), Target::IntegerUnit).sites();
        let targeted = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_attack_targets(&[AttackTarget::BranchCondition])
            .sites();
        assert!(!targeted.is_empty());
        assert!(targeted.len() < full.len());
        let reference = Leon3::new(Leon3Config::default());
        assert_eq!(
            targeted,
            targeted_sites(&reference, &[AttackTarget::BranchCondition])
        );
        // Duplicate and unordered class lists canonicalize, so the
        // fingerprint (and thus journal identity) is order-insensitive.
        let a = Campaign::new(program.clone(), Target::IntegerUnit).with_attack_targets(&[
            AttackTarget::StatusRegister,
            AttackTarget::BranchCondition,
            AttackTarget::BranchCondition,
        ]);
        let b = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_attack_targets(&[AttackTarget::BranchCondition, AttackTarget::StatusRegister]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ...but a targeted campaign never shares an identity with the
        // untargeted enumeration of the same domain.
        let plain = Campaign::new(program, Target::IntegerUnit);
        assert_ne!(a.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn golden_run_captures_writes() {
        let golden = GoldenRun::capture(&small_program(), &Leon3Config::default());
        assert_eq!(golden.writes.len(), 10);
        assert!(golden.instructions > 30);
        // One step end per step() call, increasing, the last at the
        // golden cycle count.
        let steps = golden.prefix_steps(golden.cycles + 1);
        let ends: Vec<u64> = (1..=steps).map(|n| golden.cycle_at_step(n)).collect();
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ends.last().copied(), Some(golden.cycles));
        assert_eq!(golden.prefix_steps(0), 0);
        assert_eq!(golden.prefix_steps(golden.cycles), steps - 1);
    }

    #[test]
    fn step_ends_match_a_list_of_end_cycles() {
        // Several ends per word, words with no end, an end on a word's
        // last bit and on the next word's first.
        let list = [1, 2, 3, 63, 64, 70, 200, 201, 263, 264, 1000];
        let mut ends = StepEnds::default();
        for &cycle in &list {
            ends.push(cycle);
        }
        assert_eq!(ends.len(), list.len());
        for cycle in 0..1100 {
            let expected = list.partition_point(|&c| c < cycle);
            assert_eq!(ends.count_before(cycle), expected, "cycle {cycle}");
        }
        for (n, &cycle) in list.iter().enumerate() {
            assert_eq!(ends.end_of(n + 1), cycle, "step {}", n + 1);
        }
    }

    #[test]
    fn no_fault_site_is_flagged_without_cause() {
        // A fault on a net the program never meaningfully exercises (a high
        // register-file slot) must be NoEffect; a fault on the PC must
        // fail.
        let program = small_program();
        let cpu = Leon3::new(Leon3Config::default());
        let pc_net = cpu.nets().pc;
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let mut worker = Leon3::new(Leon3Config::default());
        let out = run_one(
            &mut worker,
            &program,
            &golden,
            FaultSite {
                net: pc_net,
                bit: 2,
                unit: Unit::Fetch,
            },
            FaultKind::StuckAt1,
            0,
        );
        assert!(out.is_failure(), "PC stuck-at must fail: {out:?}");

        let unused_rf = cpu.nets().rf[100];
        let out = run_one(
            &mut worker,
            &program,
            &golden,
            FaultSite {
                net: unused_rf,
                bit: 5,
                unit: Unit::RegFile,
            },
            FaultKind::StuckAt1,
            0,
        );
        assert_eq!(out, FaultOutcome::NoEffect);
    }

    #[test]
    fn open_line_is_weaker_than_stuck_at() {
        // On a net whose value is already 0, open-line (hold 0) at cycle 0
        // behaves like stuck-at-0 on day one; this test just exercises the
        // path end-to-end for all three models.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit).with_sample(30, 7);
        let result = campaign.run(4);
        for kind in FaultKind::ALL {
            let s = result.summary(kind);
            assert!(s.injections >= 30, "{kind}: {}", s.injections);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_sample(20, 99)
            .with_kinds(&[FaultKind::StuckAt1]);
        let a = campaign.run(4);
        let b = campaign.run(2);
        assert_eq!(
            a.records(),
            b.records(),
            "thread count must not change results"
        );
    }

    #[test]
    fn injection_cycle_delays_the_fault() {
        // Injecting a PC fault long after the program halted is NoEffect.
        let program = small_program();
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let cpu = Leon3::new(Leon3Config::default());
        let site = FaultSite {
            net: cpu.nets().pc,
            bit: 2,
            unit: Unit::Fetch,
        };
        let mut worker = Leon3::new(Leon3Config::default());
        let late = run_one(
            &mut worker,
            &program,
            &golden,
            site,
            FaultKind::StuckAt1,
            golden.cycles + 1000,
        );
        assert_eq!(late, FaultOutcome::NoEffect);
        let early = run_one(&mut worker, &program, &golden, site, FaultKind::StuckAt1, 0);
        assert!(early.is_failure());
    }

    #[test]
    fn fork_engine_matches_full_reexecution_mid_run() {
        // The correctness bar of the fork engine: bit-identical records,
        // fewer cycles simulated. A mid-run injection instant exercises
        // the shared prefix snapshot and open-line live-value capture.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(25, 11)
            .with_injection_fraction(0.4);
        let fork = campaign.run(4);
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .run(4);
        assert_eq!(fork.records(), full.records());
        assert!(
            fork.stats().cycles_simulated < full.stats().cycles_simulated,
            "fork must simulate fewer cycles: {} vs {}",
            fork.stats().cycles_simulated,
            full.stats().cycles_simulated,
        );
        assert_eq!(fork.stats().jobs, full.stats().jobs);
        assert_eq!(
            fork.stats().forked + fork.stats().skipped_inactive,
            fork.stats().jobs,
            "every fork-engine job is either forked or tracker-skipped",
        );
        assert_eq!(full.stats().full_reexecutions, full.stats().jobs);
        assert_eq!(full.stats().cycles_avoided, 0);
    }

    #[test]
    fn pair_campaign_forks_and_matches_full_reexecution() {
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(12, 5)
            .with_kinds(&[FaultKind::StuckAt0, FaultKind::OpenLine])
            .with_injection_fraction(0.25);
        let pairs = ExecOptions {
            pairs: true,
            ..ExecOptions::default()
        };
        let fork = campaign.execute(4, &pairs).expect("valid").remove(0);
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .execute(4, &pairs)
            .expect("valid")
            .remove(0);
        assert_eq!(fork.records(), full.records());
        assert!(fork.stats().cycles_simulated < full.stats().cycles_simulated);
    }

    #[test]
    fn activation_tracker_skips_cold_sites() {
        // Injecting long after the halt leaves every net unread from the
        // injection instant on: the fork engine classifies the whole
        // campaign without simulating a single faulty cycle.
        let program = small_program();
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 23)
            .with_injection_cycle(golden.cycles + 1000);
        let result = campaign.run(2);
        assert!(result
            .records()
            .iter()
            .all(|r| r.outcome == FaultOutcome::NoEffect));
        assert_eq!(result.stats().skipped_inactive, result.stats().jobs);
        assert_eq!(result.stats().forked, 0);
        // Only the (full-length) prefix was simulated, once.
        assert_eq!(result.stats().cycles_simulated, golden.cycles);
    }

    #[test]
    fn failures_short_circuit_before_the_faulty_halt() {
        // A PC stuck-at diverges almost immediately; the stream comparator
        // must cut the run at the first bad write rather than simulate to
        // the budget.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(40, 3)
            .with_kinds(&[FaultKind::StuckAt1]);
        let result = campaign.run(4);
        let failures = result
            .records()
            .iter()
            .filter(|r| r.outcome.is_failure())
            .count();
        assert!(failures > 0, "expected some failures in an IU campaign");
        assert!(
            result.stats().short_circuited > 0,
            "diverging runs must be cut short: {:?}",
            result.stats(),
        );
    }

    #[test]
    fn config_errors_are_structured() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit).with_sample(5, 1);
        assert_eq!(campaign.try_run(0), Err(CampaignError::ZeroThreads));
        assert_eq!(
            campaign.clone().with_kinds(&[]).try_run(2),
            Err(CampaignError::NoFaultKinds)
        );
        assert_eq!(
            campaign.clone().with_sites(Vec::new()).try_run(2),
            Err(CampaignError::NoFaultSites)
        );
        let err = campaign
            .clone()
            .with_injection_fraction(1.5)
            .try_run(2)
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::InjectionPastEnd { .. }),
            "{err}"
        );
        assert_eq!(
            campaign.execute(
                2,
                &ExecOptions {
                    instants: Some(&[]),
                    ..ExecOptions::default()
                }
            ),
            Err(CampaignError::NoInstants)
        );
        assert!(matches!(
            Campaign::new(program, Target::IntegerUnit)
                .with_sites(vec![FaultSite {
                    net: NetId::from_raw(0),
                    bit: 0,
                    unit: Unit::Fetch,
                }])
                .execute(
                    2,
                    &ExecOptions {
                        pairs: true,
                        ..ExecOptions::default()
                    }
                ),
            Err(CampaignError::NotEnoughSitesForPairs { available: 1 })
        ));
    }

    #[test]
    fn zero_deadline_times_out_every_simulated_job() {
        // A zero wall-clock budget fires the watchdog before the first
        // step of every non-skipped job: all are classified Hang with the
        // timed_out counter, and the campaign still terminates.
        let program = small_program();
        let result = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 17)
            .with_kinds(&[FaultKind::StuckAt1])
            .with_deadline(Duration::ZERO)
            .run(2);
        let stats = result.stats();
        assert!(stats.timed_out > 0, "{stats:?}");
        assert_eq!(stats.timed_out, stats.forked, "{stats:?}");
        for r in result.records() {
            assert!(
                matches!(
                    r.outcome,
                    FaultOutcome::Hang { .. } | FaultOutcome::NoEffect
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_generous_deadline_changes_no_record() {
        // A job's budget is charged only for the sweep passes it rode and
        // its own run, so an hour times nothing out on any thread count.
        let campaign = Campaign::new(small_program(), Target::IntegerUnit)
            .with_sample(24, 5)
            .with_kinds(&[FaultKind::StuckAt0, FaultKind::StuckAt1]);
        let untimed = campaign.run(1);
        for threads in [1, 3] {
            let timed = campaign
                .clone()
                .with_deadline(Duration::from_secs(3600))
                .run(threads);
            assert_eq!(timed.records(), untimed.records(), "threads {threads}");
            assert_eq!(timed.stats(), untimed.stats(), "threads {threads}");
        }
    }

    #[test]
    fn a_job_that_never_changes_a_read_needs_no_run_of_its_own() {
        // The annul flag is read on every step and stays 0 (the program
        // has no annulling branch), so a stuck-at-0 on it never changes a
        // read and rides the sweep to the golden halt, with or without
        // faithful clocking's every-net sweeps. The PC's bit 2 changes a
        // read within a few steps and leaves the sweep.
        let cpu = Leon3::new(Leon3Config::default());
        let quiet = FaultSite {
            net: cpu.nets().annul,
            bit: 0,
            unit: Unit::Fetch,
        };
        let loud = FaultSite {
            net: cpu.nets().pc,
            bit: 2,
            unit: Unit::Fetch,
        };
        for faithful_clocking in [false, true] {
            let campaign = Campaign::new(small_program(), Target::IntegerUnit)
                .with_sites(vec![quiet, loud])
                .with_kinds(&[FaultKind::StuckAt0])
                .with_injection_fraction(0.2)
                .with_config(Leon3Config {
                    faithful_clocking,
                    ..Leon3Config::default()
                });
            OWN_RUNS.with(|runs| runs.set(0));
            let sweep = campaign.run(1);
            assert_eq!(OWN_RUNS.with(std::cell::Cell::get), 1);
            assert_eq!(sweep.stats().forked, 2, "{:?}", sweep.stats());
            assert_eq!(sweep.records()[0].outcome, FaultOutcome::NoEffect);
            assert!(sweep.records()[1].outcome.is_failure());
            let full = campaign.with_execution(Execution::FullReexecution).run(1);
            assert_eq!(sweep.records(), full.records());
        }
    }

    #[test]
    fn safety_config_mistakes_are_structured() {
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit).with_sample(5, 1);
        assert_eq!(
            campaign.clone().with_lockstep_window(0).try_run(2),
            Err(CampaignError::ZeroLockstepWindow)
        );
        // A 1-cycle watchdog cannot outlast even the tightest golden
        // inter-write gap.
        let err = campaign.with_watchdog_cycles(1).try_run(2).unwrap_err();
        assert!(
            matches!(err, CampaignError::WatchdogTooTight { .. }),
            "{err}"
        );
    }

    #[test]
    fn multi_instant_matches_separate_campaigns() {
        // One multi-instant campaign must reproduce, per instant, the
        // records of a dedicated campaign at that instant — with every
        // instant forking from its own pool checkpoint, never falling
        // back to full re-execution.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(12, 29)
            .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine]);
        let instants = [
            InjectionInstant::Fraction(0.2),
            InjectionInstant::Fraction(0.6),
        ];
        let multi = campaign
            .execute(
                4,
                &ExecOptions {
                    instants: Some(&instants),
                    ..ExecOptions::default()
                },
            )
            .expect("valid");
        assert_eq!(multi.len(), 2);
        for (instant, result) in instants.iter().zip(&multi) {
            let single = match instant {
                InjectionInstant::Fraction(f) => {
                    campaign.clone().with_injection_fraction(*f).run(4)
                }
                InjectionInstant::Cycle(c) => campaign.clone().with_injection_cycle(*c).run(4),
            };
            assert_eq!(result.records(), single.records());
        }
        // Every instant has its own checkpoint in the pool: no instant
        // falls back to full re-execution, and each one forks whenever it
        // has an active job.
        for result in &multi {
            assert_eq!(result.stats().full_reexecutions, 0, "{:?}", result.stats());
            assert!(
                result.stats().forked + result.stats().skipped_inactive == result.stats().jobs,
                "{:?}",
                result.stats()
            );
        }
        assert!(multi[0].stats().forked > 0, "{:?}", multi[0].stats());
        assert!(multi[1].stats().forked > 0, "{:?}", multi[1].stats());
        // The pool (one reset checkpoint + one per instant boundary) is
        // billed to the first instant.
        assert_eq!(multi[0].stats().checkpoints_taken, 3);
        assert_eq!(multi[1].stats().checkpoints_taken, 0);
        assert!(multi[0].stats().checkpoint_bytes > 0);
    }

    #[test]
    fn prepared_workload_reuses_golden_and_refuses_mismatch() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit).with_sample(8, 11);
        let prepared = campaign.prepare().expect("valid");
        let direct = campaign.try_run(2).expect("valid");
        let on = ExecOptions {
            golden: Some(&prepared),
            ..ExecOptions::default()
        };
        let reused = campaign.execute(2, &on).expect("valid").remove(0);
        assert_eq!(direct.records(), reused.records());
        assert_eq!(direct.stats(), reused.stats());
        // A different platform configuration invalidates the preparation
        // (parity toggles the classification config's cmem_parity).
        let other = campaign.clone().with_parity(true);
        assert!(matches!(
            other.execute(2, &on),
            Err(CampaignError::PreparedMismatch { field: "config" })
        ));
    }

    /// Loop hunts started and loops closed on this thread while `run` ran.
    fn loop_counts<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
        LOOP_HUNTS.with(|n| n.set(0));
        LOOPS_CLOSED.with(|n| n.set(0));
        let out = run();
        let hunts = LOOP_HUNTS.with(std::cell::Cell::get);
        (out, hunts, LOOPS_CLOSED.with(std::cell::Cell::get))
    }

    /// One job on bit 1 of `%l1` in the first register window, from cycle
    /// 0, checked against full re-execution: its outcome, and the loop
    /// hunts and closed loops of its fork-engine run.
    fn counted_l1_job(
        program: Program,
        kind: FaultKind,
        config: Leon3Config,
    ) -> (FaultOutcome, usize, usize) {
        let cpu = Leon3::new(config.clone());
        let l1 = FaultSite {
            net: cpu.nets().rf[sparc_isa::WindowedRegs::physical_index(0, sparc_isa::Reg::l(1))],
            bit: 1,
            unit: Unit::RegFile,
        };
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sites(vec![l1])
            .with_kinds(&[kind])
            .with_injection_cycle(0)
            .with_config(config);
        let (fork, hunts, closed) = loop_counts(|| campaign.run(1));
        let full = campaign.with_execution(Execution::FullReexecution).run(1);
        assert_eq!(fork.records(), full.records());
        (fork.records()[0].outcome.clone(), hunts, closed)
    }

    /// Counts `%l1` down from 1 once. With bit 1 read as 1 it never gets
    /// there: it reads 3 and writes 2, reads 2 and writes 1, and so on.
    fn countdown() -> Program {
        assemble("_start: mov 1, %l1\nwait: subcc %l1, 1, %l1\n bne wait\n nop\n halt\n")
            .expect("assembles")
    }

    #[test]
    fn the_sampled_hang_loops_close() {
        for (benchmark, seed) in [
            (workloads::Benchmark::Canrdr, 7),
            (workloads::Benchmark::Ttsprk, 12),
            (workloads::Benchmark::Puwmod, 3),
        ] {
            let campaign = Campaign::new(
                benchmark.program(&workloads::Params::default()),
                Target::IntegerUnit,
            )
            .with_sample(12, seed)
            .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
            .with_injection_fraction(0.3);
            let (result, _, closed) = loop_counts(|| campaign.run(1));
            assert!(closed > 0, "{benchmark:?}");
            let hangs = result
                .records()
                .iter()
                .filter(|r| matches!(r.outcome, FaultOutcome::Hang { .. }))
                .count();
            assert!(
                closed <= hangs,
                "{benchmark:?}: {closed} closed, {hangs} hangs"
            );
        }
    }

    #[test]
    fn a_hang_that_depends_on_the_clock_is_never_closed() {
        let stuck = counted_l1_job(countdown(), FaultKind::StuckAt1, Leon3Config::default());
        assert!(matches!(stuck.0, FaultOutcome::Hang { .. }), "{stuck:?}");
        assert_eq!(stuck.2, 1, "the plain stuck-at loop closes");
        // Always asserted, so the same loop; but an intermittent fault is
        // judged against the clock on every read.
        let intermittent = FaultKind::IntermittentStuck {
            level: true,
            period: 4,
            duty: 4,
            phase: 0,
        };
        let duty_cycled = counted_l1_job(countdown(), intermittent, Leon3Config::default());
        assert_eq!(duty_cycled.0, stuck.0);
        assert_eq!(duty_cycled.2, 0, "{duty_cycled:?}");
        let timed = Leon3Config {
            timer: true,
            ..Leon3Config::default()
        };
        let timed = counted_l1_job(countdown(), FaultKind::StuckAt1, timed);
        assert!(matches!(timed.0, FaultOutcome::Hang { .. }), "{timed:?}");
        assert_eq!(timed.2, 0, "{timed:?}");
    }

    #[test]
    fn a_faulty_run_that_keeps_storing_fails_and_is_never_closed() {
        // The golden run waits 32 rounds and stores once. With bit 1 of
        // `%l1` read as 1, every pass waits 96 or 64 rounds and stores
        // again: a quiet stretch longer than any golden gap opens a hunt,
        // and the next store ends the run as a failure.
        let program = assemble(
            r#"
            _start:
                set 0x40001000, %l0
                mov 1, %l1
            pass:
                sll %l1, 5, %l2
            wait:
                subcc %l2, 1, %l2
                bne wait
                 nop
                st %g0, [%l0]
                subcc %l1, 1, %l1
                bne pass
                 nop
                halt
            "#,
        )
        .expect("assembles");
        let (outcome, hunts, closed) =
            counted_l1_job(program, FaultKind::StuckAt1, Leon3Config::default());
        assert!(
            matches!(outcome, FaultOutcome::Failure { divergence: 1, .. }),
            "{outcome:?}"
        );
        assert!(hunts > 0, "the quiet stretch opens a hunt");
        assert_eq!(closed, 0);
    }

    #[test]
    fn no_hunt_starts_while_a_run_keeps_the_golden_write_rhythm() {
        // The `rspeed-cmem` gate case: masked cache faults run late but
        // store as often as the golden run.
        let campaign = Campaign::new(
            workloads::Benchmark::Rspeed.program(&workloads::Params::default()),
            Target::CacheMemory,
        )
        .with_sample(12, 0xbe)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine])
        .with_injection_fraction(0.3);
        let (result, hunts, _) = loop_counts(|| campaign.run(1));
        assert!(result.stats().forked > 0);
        assert_eq!(hunts, 0);
    }

    /// `run`'s result with the re-joins it made on this thread, and how
    /// many of them carried a cycle offset other than zero.
    fn rejoin_counts<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
        REJOINS.with(|n| n.set(0));
        OFFSET_REJOINS.with(|n| n.set(0));
        let out = run();
        let rejoins = REJOINS.with(std::cell::Cell::get);
        (out, rejoins, OFFSET_REJOINS.with(std::cell::Cell::get))
    }

    /// Rspeed's cache memory with the three permanent models, on the
    /// sample of `tests/rejoin.rs`.
    fn rspeed_cmem() -> Campaign {
        Campaign::new(
            workloads::Benchmark::Rspeed.program(&workloads::Params::default()),
            Target::CacheMemory,
        )
        .with_sample(12, 0x44)
        .with_kinds(&[
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
        ])
        .with_injection_fraction(0.3)
    }

    #[test]
    fn late_cache_jobs_rejoin_the_sweep_with_their_offsets() {
        let campaign = rspeed_cmem();
        let (fork, rejoins, offset) = rejoin_counts(|| campaign.run(1));
        assert!(offset > 0, "{rejoins} re-joins, {offset} with an offset");
        assert!(rejoins >= offset);
        let full = campaign.with_execution(Execution::FullReexecution).run(1);
        assert_eq!(fork.records(), full.records());
    }

    /// Rspeed's integer unit with one fault model at 30% of the run.
    fn rspeed_iu(kind: FaultKind) -> Campaign {
        Campaign::new(
            workloads::Benchmark::Rspeed.program(&workloads::Params::default()),
            Target::IntegerUnit,
        )
        .with_sample(24, 0xdac)
        .with_kinds(&[kind])
        .with_injection_fraction(0.3)
    }

    #[test]
    fn masked_transients_rejoin_the_sweep_for_good() {
        let campaign = rspeed_iu(FaultKind::TransientFlip);
        OWN_RUNS.with(|runs| runs.set(0));
        let (fork, rejoins, _) = rejoin_counts(|| campaign.run(1));
        assert!(rejoins > 0);
        // A flip lands once, and a job re-joins carrying the flip it has
        // spent, so it never leaves the sweep again: every simulated job
        // runs on its own exactly once.
        let s = fork.stats();
        assert_eq!(
            OWN_RUNS.with(std::cell::Cell::get),
            s.jobs - s.skipped_inactive
        );
        let full = campaign.with_execution(Execution::FullReexecution).run(1);
        assert_eq!(fork.records(), full.records());
    }

    #[test]
    fn a_burst_still_flipping_at_its_window_end_never_rejoins() {
        // Flips 100 cycles apart have usually all landed by the end of the
        // window the burst leaves in; 20,000 cycles is several windows.
        let close = rspeed_iu(FaultKind::TransientBurst {
            flips: 3,
            spacing: 100,
        });
        let (_, rejoins, _) = rejoin_counts(|| close.run(1));
        assert!(rejoins > 0);
        let apart = rspeed_iu(FaultKind::TransientBurst {
            flips: 2,
            spacing: 20_000,
        });
        let (fork, rejoins, _) = rejoin_counts(|| apart.run(1));
        assert_eq!(rejoins, 0);
        let full = apart.with_execution(Execution::FullReexecution).run(1);
        assert_eq!(fork.records(), full.records());
    }

    /// Flips on sixteen sites of `target` that rspeed's golden run reads
    /// after the first of 48 instants, with a checkpoint every quarter of
    /// the run: the sweeps of EXPERIMENTS.md's "Transient jobs on the
    /// sweep".
    fn transient_sweep(target: Target) -> (Campaign, Vec<InjectionInstant>) {
        const INSTANTS: u32 = 48;
        let program = workloads::Benchmark::Rspeed.program(&workloads::Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let first = golden.cycles / u64::from(INSTANTS + 1);
        let read: Vec<FaultSite> = fault_sites(&Leon3::new(Leon3Config::default()), target)
            .into_iter()
            .filter(|site| golden.net_exercised_from(site.net, first))
            .collect();
        let campaign = Campaign::new(program, target)
            .with_sites(sample_sites(&read, 16, 1))
            .with_kinds(&[FaultKind::TransientFlip])
            .with_checkpoint_stride(golden.cycles / 4);
        let instants = (1..=INSTANTS)
            .map(|i| InjectionInstant::Fraction(f64::from(i) / f64::from(INSTANTS + 1)))
            .collect();
        (campaign, instants)
    }

    #[test]
    #[ignore = "a measurement: run it alone, with --ignored --nocapture"]
    fn where_a_transient_sweep_steps() {
        // `host_cycles` counts every thread of the process, so this reads
        // it only while no other test runs.
        for target in [Target::IntegerUnit, Target::CacheMemory] {
            let (campaign, instants) = transient_sweep(target);
            let options = ExecOptions {
                instants: Some(&instants),
                ..ExecOptions::default()
            };
            OWN_RUNS.with(|n| n.set(0));
            OWN_RUN_CYCLES.with(|n| n.set([0; 3]));
            let before = host_cycles();
            let (results, rejoins, offset) =
                rejoin_counts(|| campaign.execute(1, &options).expect("valid sweep"));
            let host = host_cycles() - before;
            let records = results.iter().flat_map(CampaignResult::records);
            let simulated = records.clone().filter(|r| r.activated).count();
            let masked = records
                .filter(|r| r.activated && r.outcome == FaultOutcome::NoEffect)
                .count();
            let billed: u64 = results.iter().map(|r| r.stats().cycles_simulated).sum();
            let own = OWN_RUN_CYCLES.with(std::cell::Cell::get);
            println!(
                "{target:?}: {} jobs, {simulated} simulated, {masked} NoEffect; \
                 host {host} of {billed} billed; {} own runs; \
                 re-joined {rejoins} ({offset} with an offset) {} cycles; \
                 NoEffect alone {} {} cycles; other outcomes {} {} cycles; \
                 sweep and pool {} cycles",
                results.iter().map(|r| r.stats().jobs).sum::<usize>(),
                OWN_RUNS.with(std::cell::Cell::get),
                own[0],
                masked - rejoins,
                own[1],
                simulated - masked,
                own[2],
                host - own.iter().sum::<u64>(),
            );
        }
    }

    #[test]
    fn the_sweep_steps_each_window_once() {
        // One thread and one instant: the pool steps the golden run to the
        // injection boundary, where the sweep starts, and jobs still ride
        // the sweep at the golden halt. Between them the pool and the
        // sweep windows step the golden run exactly once, however many
        // jobs leave the sweep.
        let campaign = rspeed_cmem();
        OWN_RUNS.with(|runs| runs.set(0));
        WINDOW_CYCLES.with(|n| n.set(0));
        let result = campaign.run(1);
        let windows = WINDOW_CYCLES.with(std::cell::Cell::get);
        assert!(OWN_RUNS.with(std::cell::Cell::get) > 0);
        let golden = campaign.prepare().expect("valid").golden;
        assert_eq!(result.stats().prefix_cycles + windows, golden.cycles);
    }

    #[test]
    #[ignore = "a measurement: run it alone, with --ignored --nocapture"]
    fn lone_masked_runs_that_meet_the_golden_state_later() {
        // Each own run that ends `NoEffect` without re-joining is replayed
        // from reset beside the golden run, and compared with it at every
        // end of the sweep's windows after the one the sweep compared at.
        let (iu, iu_instants) = transient_sweep(Target::IntegerUnit);
        let (cmem, cmem_instants) = transient_sweep(Target::CacheMemory);
        for (name, campaign, instants) in [
            ("IU flips", iu, Some(iu_instants)),
            ("CMEM flips", cmem, Some(cmem_instants)),
            ("rspeed_cmem", rspeed_cmem(), None),
        ] {
            LONE_NO_EFFECT.with(|runs| runs.borrow_mut().clear());
            OWN_RUN_CYCLES.with(|n| n.set([0; 3]));
            let options = ExecOptions {
                instants: instants.as_deref(),
                ..ExecOptions::default()
            };
            campaign.execute(1, &options).expect("valid sweep");
            let runs = LONE_NO_EFFECT.with(std::cell::RefCell::take);
            let config = campaign.classification_config();
            // One worker, so one window grid; no compare where the golden
            // run halts.
            let phase = runs
                .first()
                .map_or(0, |&(_, from)| from % SWEEP_WINDOW_STEPS);
            let mut cpu = Leon3::new(config.clone());
            cpu.load(&campaign.program);
            let mut marks = HashMap::new();
            let mut steps = 0;
            while cpu.step() != StepEvent::Stopped {
                steps += 1;
                if steps % SWEEP_WINDOW_STEPS == phase {
                    marks.insert(steps, cpu.state_mark());
                }
            }
            let (mut lone, mut later, mut after) = (0, 0, 0);
            for (job, from) in &runs {
                let mut faulty = Leon3::new(config.clone());
                faulty.load(&campaign.program);
                job.faults().for_each(|fault| faulty.inject(fault));
                let (mut steps, mut start, mut matched) = (0, 0, None);
                loop {
                    if steps == *from {
                        start = faulty.cycles();
                    }
                    if faulty.step() == StepEvent::Stopped {
                        break;
                    }
                    steps += 1;
                    if matched.is_none()
                        && steps > from + SWEEP_WINDOW_STEPS
                        && faulty.is_closable()
                        && marks.get(&steps).is_some_and(|mark| faulty.repeats(mark))
                    {
                        matched = Some(faulty.cycles());
                    }
                }
                lone += faulty.cycles() - start;
                if let Some(at) = matched {
                    later += 1;
                    after += faulty.cycles() - at;
                }
            }
            assert_eq!(lone, OWN_RUN_CYCLES.with(std::cell::Cell::get)[1]);
            println!(
                "{name}: {} lone NoEffect runs step {lone} cycles; {later} meet the \
                 golden state at a later window end and step {after} cycles after it",
                runs.len()
            );
        }
    }

    #[test]
    fn no_job_rejoins_under_a_watchdog_a_deadline_or_an_intermittent_fault() {
        let program = workloads::Benchmark::Rspeed.program(&workloads::Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        // Membench jobs that this fault makes late come back to the golden
        // state at their window end, but its schedule follows the clock.
        let intermittent = Campaign::new(
            workloads::Benchmark::Membench.program(&workloads::Params::default()),
            Target::CacheMemory,
        )
        .with_sample(12, 5)
        .with_kinds(&[FaultKind::IntermittentStuck {
            level: true,
            period: 64,
            duty: 8,
            phase: 0,
        }])
        .with_injection_fraction(0.3);
        let transient = rspeed_iu(FaultKind::TransientFlip);
        for campaign in [
            rspeed_cmem().with_watchdog_cycles(golden.max_write_gap * 2),
            rspeed_cmem().with_deadline(Duration::from_secs(600)),
            transient
                .clone()
                .with_watchdog_cycles(golden.max_write_gap * 2),
            transient.with_deadline(Duration::from_secs(600)),
            intermittent,
        ] {
            let (fork, rejoins, _) = rejoin_counts(|| campaign.run(1));
            assert_eq!(rejoins, 0);
            let full = campaign.with_execution(Execution::FullReexecution).run(1);
            assert_eq!(fork.records(), full.records());
        }
    }

    #[test]
    fn zero_checkpoint_stride_is_refused() {
        let campaign = Campaign::new(small_program(), Target::IntegerUnit)
            .with_sample(4, 7)
            .with_checkpoint_stride(0);
        assert!(matches!(
            campaign.try_run(1),
            Err(CampaignError::ZeroCheckpointStride)
        ));
    }

    #[test]
    fn stride_checkpoints_bound_the_replay_gap() {
        // A stride adds grid checkpoints between reset and the injection
        // boundary; the job's own boundary checkpoint still exists, so
        // records and fork counts are unchanged by the stride.
        let program = small_program();
        let base = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 13)
            .with_injection_fraction(0.8);
        let plain = base.clone().try_run(2).expect("valid");
        let strided = base.with_checkpoint_stride(50).try_run(2).expect("valid");
        assert_eq!(plain.records(), strided.records());
        assert_eq!(plain.stats().forked, strided.stats().forked);
        assert_eq!(strided.stats().replay_cycles, 0);
        assert!(strided.stats().checkpoints_taken > plain.stats().checkpoints_taken);
    }
}
