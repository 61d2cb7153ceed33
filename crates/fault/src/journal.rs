//! Append-only write-ahead result journal for campaigns.
//!
//! Long campaigns (the paper's RTL runs cost 25,478 CPU-hours) must not
//! lose completed work to a killed process. The journal is a JSONL file:
//! one **header** line identifying the campaign (workload hash, job
//! universe, configuration fingerprint, model-observable golden facts)
//! followed by one line per completed `(site, kind)` job carrying the
//! record *and* the job's execution-cost delta, flushed before the result
//! is published. `Campaign::execute` with
//! [`JournalMode::Create`](crate::JournalMode::Create) writes it, and
//! with [`JournalMode::Resume`](crate::JournalMode::Resume) validates the
//! header, replays the completed jobs and simulates only the remainder —
//! reconstituting a `CampaignResult` bit-identical to an uninterrupted
//! run (modulo the `resumed` counter).
//!
//! The format is hand-rolled JSON over a deliberately tiny subset
//! (see [`crate::wire`]) so the workspace stays hermetic — no serde, no
//! registry dependencies. A torn final line (the process died mid-append)
//! is recovered by ignoring it; corruption anywhere else is an error.

use crate::error::JournalError;
use crate::result::{CampaignStats, FaultOutcome, FaultRecord};
use crate::wire::{record_from_obj, write_record_fields, Json};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// Format identifier carried in every header line.
pub const MAGIC: &str = "fault-campaign-journal";
/// Format version; bumped on any incompatible change. Version 2 added the
/// hang latency, the `activated` flag and the detection fields. Version 3
/// added the checkpoint-pool header fields (`instants`, `instants_hash`,
/// `checkpoint_stride`) and the per-entry `replay` engine with its
/// `replay_cycles`. Version 4 added the static-analysis engines
/// (`pruned`, `collapsed`) and the record's optional `pruned_by` field.
/// Version 5 added the header's `kinds` token list (the campaign's fault
/// kinds *with* their time-varying parameters), so a resume refuses a
/// foreign fault schedule by field name instead of hiding it behind the
/// opaque fingerprint.
pub const VERSION: u64 = 5;

/// FNV-1a 64-bit — the journal's content hash (hermetic, no dependencies).
pub(crate) fn fnv1a64(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis, the `init` for a fresh hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The journal's first line: everything a resumed run
/// ([`JournalMode::Resume`](crate::JournalMode::Resume)) validates before
/// trusting a single record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Hash of the workload image (entry point + every segment).
    pub workload: u64,
    /// Hash of the campaign configuration (target, kinds, sample,
    /// injection, execution engine, platform config, pair mode).
    pub fingerprint: u64,
    /// Total `(site, kind)` jobs in the campaign.
    pub jobs: usize,
    /// The resolved injection cycle of the first instant (a
    /// model-observable golden fact: if the model changed since the
    /// journal was written, this disagrees).
    pub injection_cycle: u64,
    /// The golden run's cycle count (same role as `injection_cycle`).
    pub golden_cycles: u64,
    /// How many injection instants the campaign sweeps (1 for the
    /// single-instant entry points).
    pub instants: usize,
    /// FNV-1a hash over every resolved injection cycle, in sweep order —
    /// a multi-instant journal refuses a campaign with different instants
    /// even when the first one matches.
    pub instants_hash: u64,
    /// The checkpoint-pool stride in cycles (0 = no periodic grid). The
    /// stride cannot change which records exist, but it changes every
    /// entry's cost delta, so a resumed journal must agree on it.
    pub checkpoint_stride: u64,
    /// The campaign's fault kinds as canonical wire tokens
    /// ([`crate::wire::kind_to_token`]), in campaign order — the
    /// time-varying parameters (`period`, `duty`, `phase`, `flips`,
    /// `spacing`) travel here so a mismatched fault schedule is refused
    /// by field name.
    pub kinds: Vec<String>,
}

impl Header {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"journal\":\"{MAGIC}\",\"version\":{VERSION},\
             \"workload\":\"{:016x}\",\"fingerprint\":\"{:016x}\",\
             \"jobs\":{},\"injection_cycle\":{},\"golden_cycles\":{},\
             \"instants\":{},\"instants_hash\":\"{:016x}\",\"checkpoint_stride\":{},\
             \"kinds\":[{kinds}]}}",
            self.workload,
            self.fingerprint,
            self.jobs,
            self.injection_cycle,
            self.golden_cycles,
            self.instants,
            self.instants_hash,
            self.checkpoint_stride,
        )
    }

    /// Parse a header line.
    ///
    /// # Errors
    ///
    /// Fails with [`JournalError::MissingHeader`] when the line is not a
    /// well-formed version-1 header.
    pub fn parse(line: &str) -> Result<Header, JournalError> {
        let v = Json::parse(line).map_err(|_| JournalError::MissingHeader)?;
        let magic = v.get_str("journal").ok_or(JournalError::MissingHeader)?;
        if magic != MAGIC {
            return Err(JournalError::MissingHeader);
        }
        let version = v.get_u64("version").ok_or(JournalError::MissingHeader)?;
        if version != VERSION {
            return Err(JournalError::HeaderMismatch {
                field: "version",
                expected: VERSION.to_string(),
                found: version.to_string(),
            });
        }
        let hex = |key| {
            v.get_str(key)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(JournalError::MissingHeader)
        };
        Ok(Header {
            workload: hex("workload")?,
            fingerprint: hex("fingerprint")?,
            jobs: v.get_u64("jobs").ok_or(JournalError::MissingHeader)? as usize,
            injection_cycle: v
                .get_u64("injection_cycle")
                .ok_or(JournalError::MissingHeader)?,
            golden_cycles: v
                .get_u64("golden_cycles")
                .ok_or(JournalError::MissingHeader)?,
            instants: v.get_u64("instants").ok_or(JournalError::MissingHeader)? as usize,
            instants_hash: hex("instants_hash")?,
            checkpoint_stride: v
                .get_u64("checkpoint_stride")
                .ok_or(JournalError::MissingHeader)?,
            kinds: v
                .get_array("kinds")
                .ok_or(JournalError::MissingHeader)?
                .iter()
                .map(|k| k.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or(JournalError::MissingHeader)?,
        })
    }
}

/// One journaled job: its index in the campaign plan, its record, and its
/// execution-cost delta (what this job alone contributed to
/// [`CampaignStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Index into the campaign's job list.
    pub job: usize,
    /// The job's classification record.
    pub record: FaultRecord,
    /// The job's stats delta (`jobs`, `prefix_cycles`, `golden_cycles`
    /// and `resumed` are campaign-level and always zero here).
    pub delta: CampaignStats,
}

impl Entry {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let engine = if self.delta.statically_pruned > 0 {
            // The record's provenance distinguishes a pruned benign
            // record from a collapsed class member.
            match self.record.pruned_by {
                Some(crate::static_analysis::PrunedBy::Collapsed) => "collapsed",
                _ => "pruned",
            }
        } else if self.delta.skipped_inactive > 0 {
            "skip"
        } else if self.delta.forked > 0 {
            "fork"
        } else if self.delta.restored_from_checkpoint > 0 {
            "replay"
        } else if self.delta.full_reexecutions > 0 {
            "full"
        } else {
            // A double-panic job never finished under either engine.
            "none"
        };
        let mut s = String::with_capacity(160);
        let _ = write!(s, "{{\"job\":{},", self.job);
        write_record_fields(&mut s, &self.record);
        let _ = write!(
            s,
            ",\"engine\":\"{engine}\",\"short_circuited\":{},\"timed_out\":{},\
             \"retried\":{},\"cycles_simulated\":{},\"cycles_avoided\":{},\
             \"replay_cycles\":{}}}",
            self.delta.short_circuited > 0,
            self.delta.timed_out > 0,
            self.delta.retried > 0,
            self.delta.cycles_simulated,
            self.delta.cycles_avoided,
            self.delta.replay_cycles,
        );
        s
    }

    /// Parse an entry line.
    ///
    /// # Errors
    ///
    /// Fails with [`JournalError::Malformed`] (carrying `line_no`) when
    /// the line is not a well-formed entry.
    pub fn parse(line: &str, line_no: usize) -> Result<Entry, JournalError> {
        let malformed = |reason: String| JournalError::Malformed {
            line: line_no,
            reason,
        };
        let v = Json::parse(line).map_err(|e| malformed(e.to_string()))?;
        let field_u64 = |key: &str| {
            v.get_u64(key)
                .ok_or_else(|| malformed(format!("missing numeric `{key}`")))
        };
        let field_str = |key: &str| {
            v.get_str(key)
                .ok_or_else(|| malformed(format!("missing string `{key}`")))
        };
        let field_bool = |key: &str| {
            v.get_bool(key)
                .ok_or_else(|| malformed(format!("missing bool `{key}`")))
        };
        let record = record_from_obj(&v).map_err(&malformed)?;
        let mut delta = CampaignStats {
            short_circuited: usize::from(field_bool("short_circuited")?),
            timed_out: usize::from(field_bool("timed_out")?),
            retried: usize::from(field_bool("retried")?),
            anomalies: usize::from(matches!(record.outcome, FaultOutcome::EngineAnomaly { .. })),
            cycles_simulated: field_u64("cycles_simulated")?,
            cycles_avoided: field_u64("cycles_avoided")?,
            replay_cycles: field_u64("replay_cycles")?,
            ..CampaignStats::default()
        };
        match field_str("engine")? {
            "skip" => delta.skipped_inactive = 1,
            "fork" => delta.forked = 1,
            "replay" => delta.restored_from_checkpoint = 1,
            "full" => delta.full_reexecutions = 1,
            "pruned" | "collapsed" => delta.statically_pruned = 1,
            "none" => {}
            other => return Err(malformed(format!("unknown engine `{other}`"))),
        }
        // Like `anomalies` above, the ISO bucket counters are a pure
        // function of the record — reconstructed, not carried on the wire.
        delta.count_bucket(&record);
        Ok(Entry {
            job: field_u64("job")? as usize,
            record,
            delta,
        })
    }
}

/// The writer side: an open journal file, appended one flushed line per
/// completed job (write-ahead: the line is durable before the record is
/// published into the in-memory result).
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Create (truncate) a journal at `path` and write its header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn create(path: &Path, header: &Header) -> Result<Journal, JournalError> {
        let mut file = File::create(path).map_err(|e| JournalError::io("create journal", e))?;
        file.write_all(format!("{}\n", header.to_line()).as_bytes())
            .map_err(|e| JournalError::io("write journal header", e))?;
        file.flush()
            .map_err(|e| JournalError::io("flush journal header", e))?;
        Ok(Journal { file })
    }

    /// Open an existing journal for appending (the resume path; the
    /// header is validated separately by [`read`]).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn open_append(path: &Path) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::io("open journal for append", e))?;
        Ok(Journal { file })
    }

    /// Append one entry and flush it to the OS before returning.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn append(&mut self, entry: &Entry) -> Result<(), JournalError> {
        self.file
            .write_all(format!("{}\n", entry.to_line()).as_bytes())
            .map_err(|e| JournalError::io("append journal entry", e))?;
        self.file
            .flush()
            .map_err(|e| JournalError::io("flush journal entry", e))
    }
}

/// Read a journal: header plus every parseable entry, in file order.
///
/// A torn **final** line — the process was killed mid-append — is treated
/// as truncation and silently dropped (`truncated = true` in the return).
/// A malformed line anywhere else is corruption and fails.
///
/// # Errors
///
/// Fails on I/O errors, a missing/mismatched header, or mid-file
/// corruption.
pub fn read(path: &Path) -> Result<(Header, Vec<Entry>, bool), JournalError> {
    let text = std::fs::read_to_string(path).map_err(|e| JournalError::io("read journal", e))?;
    read_str(&text)
}

/// [`read`] over journal text that already lives in memory — the fleet
/// coordinator validates partial shard journals uploaded by a failing
/// runner before re-offering them to the shard's next lease holder, and
/// never touches the filesystem to do it. Torn-final-line recovery is
/// identical to the file path.
///
/// # Errors
///
/// Fails on a missing/mismatched header or mid-text corruption.
pub fn read_str(text: &str) -> Result<(Header, Vec<Entry>, bool), JournalError> {
    let mut lines = text.split('\n').enumerate();
    let (_, first) = lines.next().ok_or(JournalError::MissingHeader)?;
    let header = Header::parse(first)?;
    let body: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut entries = Vec::with_capacity(body.len());
    let mut truncated = false;
    for (i, (line_idx, line)) in body.iter().enumerate() {
        match Entry::parse(line, line_idx + 1) {
            Ok(entry) => entries.push(entry),
            Err(e) if i + 1 == body.len() => {
                // Torn final line: the kill landed mid-append. Everything
                // before it is intact; the lost job is simply re-run.
                let _ = e;
                truncated = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((header, entries, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::{Detection, Mechanism};
    use crate::sites::FaultSite;
    use rtl_sim::{FaultKind, NetId};
    use sparc_isa::Unit;

    fn entry(job: usize, outcome: FaultOutcome) -> Entry {
        entry_with_detection(job, outcome, Detection::Undetected)
    }

    fn entry_with_detection(job: usize, outcome: FaultOutcome, detection: Detection) -> Entry {
        let is_anomaly = matches!(outcome, FaultOutcome::EngineAnomaly { .. });
        let record = FaultRecord {
            site: FaultSite {
                net: NetId::from_raw(17),
                bit: 5,
                unit: Unit::Fetch,
            },
            kind: FaultKind::OpenLine,
            outcome,
            activated: true,
            detection,
            pruned_by: None,
        };
        let mut delta = CampaignStats {
            forked: 1,
            short_circuited: 1,
            // Reconstructed from the outcome tag on parse, so the
            // fixture must agree with it.
            anomalies: usize::from(is_anomaly),
            cycles_simulated: 1234,
            cycles_avoided: 88,
            ..CampaignStats::default()
        };
        // The ISO bucket counters are likewise reconstructed on parse.
        delta.count_bucket(&record);
        Entry { job, record, delta }
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            workload: 0xdead_beef_1234_5678,
            fingerprint: 0x0bad_cafe,
            jobs: 72,
            injection_cycle: 991,
            golden_cycles: 12_345,
            instants: 4,
            instants_hash: 0x1357_9bdf_2468_ace0,
            checkpoint_stride: 5_000,
            kinds: vec![
                "stuck-at-1".to_string(),
                "intermittent-stuck(level=1,period=8,duty=2,phase=0)".to_string(),
            ],
        };
        assert_eq!(Header::parse(&h.to_line()).unwrap(), h);
        let empty = Header { kinds: vec![], ..h };
        assert_eq!(Header::parse(&empty.to_line()).unwrap(), empty);
    }

    #[test]
    fn replay_entries_round_trip() {
        let mut e = entry(11, FaultOutcome::NoEffect);
        e.delta.forked = 0;
        e.delta.restored_from_checkpoint = 1;
        e.delta.replay_cycles = 321;
        let parsed = Entry::parse(&e.to_line(), 1).unwrap();
        assert_eq!(parsed, e);
        assert!(e.to_line().contains("\"engine\":\"replay\""));
    }

    #[test]
    fn pruned_and_collapsed_entries_round_trip() {
        use crate::static_analysis::PrunedBy;
        for (provenance, tag) in [
            (PrunedBy::Static, "\"engine\":\"pruned\""),
            (PrunedBy::Collapsed, "\"engine\":\"collapsed\""),
        ] {
            let mut e = entry(3, FaultOutcome::NoEffect);
            e.record.pruned_by = Some(provenance);
            e.delta.forked = 0;
            e.delta.short_circuited = 0;
            e.delta.cycles_simulated = 0;
            e.delta.statically_pruned = 1;
            let line = e.to_line();
            assert!(line.contains(tag), "{line}");
            assert_eq!(Entry::parse(&line, 1).unwrap(), e);
        }
    }

    #[test]
    fn entry_round_trips_every_outcome() {
        let outcomes = vec![
            FaultOutcome::NoEffect,
            FaultOutcome::Failure {
                divergence: 3,
                latency_cycles: 456,
            },
            FaultOutcome::Hang { latency_cycles: 77 },
            FaultOutcome::ErrorModeStop { latency_cycles: 9 },
            FaultOutcome::EngineAnomaly {
                payload: "bit 63 outside net `pc`\nwith \"quotes\" + tab\t + 🚗".to_string(),
            },
        ];
        for outcome in outcomes {
            let e = entry(4, outcome);
            let parsed = Entry::parse(&e.to_line(), 1).unwrap();
            assert_eq!(parsed, e);
        }
    }

    #[test]
    fn entry_round_trips_every_detection() {
        for mechanism in Mechanism::ALL {
            let e = entry_with_detection(
                9,
                FaultOutcome::Failure {
                    divergence: 1,
                    latency_cycles: 50,
                },
                Detection::Detected {
                    mechanism,
                    latency_cycles: 120,
                    latency_writes: 3,
                },
            );
            let parsed = Entry::parse(&e.to_line(), 1).unwrap();
            assert_eq!(parsed, e);
            assert_eq!(parsed.delta.mechanism_detections(mechanism), 1);
            assert_eq!(parsed.delta.residual, 0);
        }
        // An undetected failure reconstructs as residual.
        let e = entry(
            9,
            FaultOutcome::Failure {
                divergence: 1,
                latency_cycles: 50,
            },
        );
        assert_eq!(Entry::parse(&e.to_line(), 1).unwrap().delta.residual, 1);
    }

    #[test]
    fn torn_final_line_is_truncation_not_corruption() {
        let dir = std::env::temp_dir().join("fault-journal-test-torn");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("j.jsonl");
        let h = Header {
            workload: 1,
            fingerprint: 2,
            jobs: 3,
            injection_cycle: 0,
            golden_cycles: 100,
            instants: 1,
            instants_hash: 0,
            checkpoint_stride: 0,
            kinds: vec!["open-line".to_string()],
        };
        let e0 = entry(0, FaultOutcome::NoEffect);
        let e1 = entry(1, FaultOutcome::Hang { latency_cycles: 5 });
        let full = format!("{}\n{}\n{}\n", h.to_line(), e0.to_line(), e1.to_line());
        // Cut mid-way through the final entry line.
        let cut = full.len() - 7;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (header, entries, truncated) = read(&path).unwrap();
        assert_eq!(header, h);
        assert_eq!(entries, vec![e0.clone()]);
        assert!(truncated);
        // Corruption *before* the end is an error.
        let corrupt = format!(
            "{}\n{}\nnot json\n{}\n",
            h.to_line(),
            e0.to_line(),
            e1.to_line()
        );
        std::fs::write(&path, corrupt).unwrap();
        assert!(matches!(
            read(&path),
            Err(JournalError::Malformed { line: 3, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the fingerprint must not drift across refactors,
        // or every existing journal silently stops resuming.
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
