//! Structured campaign errors.
//!
//! Configuration mistakes (an empty fault list, an injection instant past
//! the end of the run, zero worker threads) used to be config-time panics;
//! they now surface as [`CampaignError`] values so callers — notably the
//! `repro` binary — can report them and exit nonzero instead of aborting
//! with a backtrace. Journal I/O and validation failures ride along as
//! [`JournalError`].

use std::fmt;

/// Why a campaign could not run (or resume).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The campaign was asked to run on zero worker threads.
    ZeroThreads,
    /// The fault-model list is empty (`with_kinds(&[])`).
    NoFaultKinds,
    /// A parameterized fault kind carries parameters outside their
    /// canonical range (e.g. an intermittent duty longer than its period,
    /// or a zero-spacing burst).
    InvalidFaultKind {
        /// The violated constraint, human-readable.
        reason: String,
    },
    /// The fault list is empty — the target domain has no sites, the
    /// sample size was zero, or an explicit site list was empty.
    NoFaultSites,
    /// The injection instant lies past the end of the golden run: a
    /// fraction outside `[0, 1]` of the golden cycle count.
    InjectionPastEnd {
        /// The offending fraction.
        fraction: f64,
    },
    /// [`crate::ExecOptions::instants`] named an empty instant list.
    NoInstants,
    /// A dual-point campaign needs at least two sampled sites.
    NotEnoughSitesForPairs {
        /// How many sites the fault list actually holds.
        available: usize,
    },
    /// A lockstep comparator with a zero-write window can never fire
    /// (`with_lockstep_window(0)`); use `None` to disable it instead.
    ZeroLockstepWindow,
    /// The shard coordinates are out of range: a zero shard count, or an
    /// index at or past the count (`with_shard`).
    BadShard {
        /// The configured shard index.
        index: u32,
        /// The configured shard count.
        count: u32,
    },
    /// The simulated watchdog timeout is no longer than the golden run's
    /// largest inter-write gap — it would fire on the fault-free workload.
    WatchdogTooTight {
        /// The configured timeout in simulated cycles.
        timeout_cycles: u64,
        /// The golden run's maximum gap between consecutive off-core
        /// writes (measured from cycle 0), in cycles.
        golden_max_gap: u64,
    },
    /// A periodic checkpoint grid with zero spacing is meaningless
    /// (`with_checkpoint_stride(0)`); omit the stride to checkpoint only
    /// at the requested injection boundaries.
    ZeroCheckpointStride,
    /// A prepared workload was built for a different program or platform
    /// configuration than this campaign's.
    PreparedMismatch {
        /// Which part of the prepared identity disagreed (`"workload"` or
        /// `"config"`).
        field: &'static str,
    },
    /// Static-analysis pruning was combined with a dual-point campaign:
    /// the analyzer reasons about single faults only, so pruning either
    /// member of a pair would be unsound.
    StaticWithPairs,
    /// `with_static_audit` was configured without `with_static_analysis`
    /// — there are no pruned jobs to audit.
    AuditWithoutStaticAnalysis,
    /// A static-audit re-simulation contradicted the analyzer's verdict:
    /// a pruned or collapsed job, simulated in full, produced a different
    /// record than the one the analyzer synthesised. This is a model /
    /// declared-graph conformance bug, not a campaign-configuration
    /// mistake.
    StaticAuditFailed {
        /// The job index whose re-simulation disagreed.
        job: usize,
        /// What differed, human-readable.
        detail: String,
    },
    /// The write-ahead journal could not be created, appended, parsed or
    /// matched against this campaign.
    Journal(JournalError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ZeroThreads => write!(f, "campaigns need at least one worker thread"),
            CampaignError::NoFaultKinds => write!(f, "campaigns need at least one fault model"),
            CampaignError::InvalidFaultKind { reason } => {
                write!(f, "invalid fault-kind parameters: {reason}")
            }
            CampaignError::NoFaultSites => write!(f, "the campaign's fault list is empty"),
            CampaignError::InjectionPastEnd { fraction } => write!(
                f,
                "injection fraction {fraction} lies past the end of the run (must be in [0, 1])"
            ),
            CampaignError::NoInstants => {
                write!(f, "multi-instant campaigns need at least one instant")
            }
            CampaignError::NotEnoughSitesForPairs { available } => write!(
                f,
                "dual-point campaigns need at least two sites, got {available}"
            ),
            CampaignError::ZeroLockstepWindow => write!(
                f,
                "a zero-write lockstep window can never fire; omit the flag to disable lockstep"
            ),
            CampaignError::BadShard { index, count } => write!(
                f,
                "shard {index}/{count} is out of range (need index < count and count >= 1)"
            ),
            CampaignError::WatchdogTooTight {
                timeout_cycles,
                golden_max_gap,
            } => write!(
                f,
                "watchdog timeout of {timeout_cycles} cycles would fire on the fault-free run \
                 (largest golden inter-write gap is {golden_max_gap} cycles)"
            ),
            CampaignError::ZeroCheckpointStride => write!(
                f,
                "a zero-cycle checkpoint stride is meaningless; omit it to checkpoint only at \
                 the injection boundaries"
            ),
            CampaignError::PreparedMismatch { field } => write!(
                f,
                "the prepared workload was built for a different campaign (`{field}` disagrees)"
            ),
            CampaignError::StaticWithPairs => write!(
                f,
                "static-analysis pruning reasons about single faults; disable it for dual-point \
                 campaigns"
            ),
            CampaignError::AuditWithoutStaticAnalysis => write!(
                f,
                "static-audit sampling needs static analysis enabled (`with_static_analysis`)"
            ),
            CampaignError::StaticAuditFailed { job, detail } => {
                write!(f, "static-analysis audit failed on job {job}: {detail}")
            }
            CampaignError::Journal(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

/// Why a write-ahead journal could not be written or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation failed. The original `std::io::Error` is carried
    /// as text so the error stays `Clone + Eq` (and record-comparable in
    /// tests).
    Io {
        /// What the journal was doing.
        context: &'static str,
        /// The rendered I/O error.
        error: String,
    },
    /// The journal file has no parseable header line.
    MissingHeader,
    /// The journal's header does not match the campaign asked to resume
    /// from it: different workload, configuration, job universe or model
    /// version.
    HeaderMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value this campaign expects.
        expected: String,
        /// The value found in the journal.
        found: String,
    },
    /// A journal line other than the (possibly torn) final one failed to
    /// parse — the file is corrupt, not merely truncated.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A journal entry names a job index outside the campaign's universe.
    JobOutOfRange {
        /// The job index found.
        job: usize,
        /// The campaign's job count.
        jobs: usize,
    },
    /// A journal entry's `(site, kind)` disagrees with the job it claims
    /// to record — the journal belongs to a different fault list.
    JobMismatch {
        /// The job index whose entry disagreed.
        job: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { context, error } => write!(f, "{context}: {error}"),
            JournalError::MissingHeader => write!(f, "missing or unparseable header line"),
            JournalError::HeaderMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "header mismatch on `{field}`: campaign has {expected}, journal has {found}"
            ),
            JournalError::Malformed { line, reason } => {
                write!(f, "malformed line {line}: {reason}")
            }
            JournalError::JobOutOfRange { job, jobs } => {
                write!(f, "job index {job} outside the campaign's {jobs} jobs")
            }
            JournalError::JobMismatch { job } => write!(
                f,
                "entry for job {job} records a different (site, kind) than the campaign plan"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalError {
    /// Wrap an I/O error with context.
    pub fn io(context: &'static str, error: std::io::Error) -> JournalError {
        JournalError::Io {
            context,
            error: error.to_string(),
        }
    }
}
