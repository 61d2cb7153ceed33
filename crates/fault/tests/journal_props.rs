//! Property tests over the journal wire format.
//!
//! Gated behind the off-by-default `proptest` feature so the default
//! workspace builds with zero network access:
//! `cargo test -p fault-inject --features proptest`.
//!
//! Two invariants the resume path stands on:
//!
//! 1. **Lossless round-trip** — every `(outcome, kind, unit, delta)`
//!    combination serializes to one line and re-parses to an identical
//!    [`Entry`], including panic payloads full of JSON metacharacters;
//! 2. **Truncation recovery** — a journal cut at *any* byte inside its
//!    final line reads back as the intact prefix, never as corruption.
//!
//! Plus the correlation subsystem's wire messages ([`FittedModel`],
//! [`PredictRequest`], [`Prediction`]), whose floats — negative
//! intercepts, signed residuals — exercise the dialect's signed-number
//! path.
#![cfg(feature = "proptest")]

use analysis::FittedModel;
use fault_inject::journal::{read, Entry, Header};
use fault_inject::wire::{kind_from_token, kind_to_token, Json};
use fault_inject::{
    fitted_model_from_obj, fitted_model_to_json, CampaignStats, Detection, FaultOutcome,
    FaultRecord, FaultSite, Mechanism, PredictRequest, Prediction, Target,
};
use proptest::prelude::*;
use rtl_sim::{FaultKind, NetId};
use sparc_isa::{Opcode, Unit};
use std::collections::BTreeMap;

/// Characters deliberately rich in JSON edge cases: quotes, backslashes,
/// control characters, multi-byte code points and a non-BMP emoji (which
/// a `\u` escape can only express as a surrogate pair).
const PAYLOAD_PALETTE: [char; 16] = [
    'a', 'Z', '9', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '/', 'é', 'π', '🚗',
    '\u{7f}',
];

fn arb_payload() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PAYLOAD_PALETTE.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PAYLOAD_PALETTE[i]).collect())
}

fn arb_outcome() -> impl Strategy<Value = FaultOutcome> {
    prop_oneof![
        Just(FaultOutcome::NoEffect),
        (any::<u32>(), any::<u64>()).prop_map(|(d, l)| FaultOutcome::Failure {
            divergence: d as usize,
            latency_cycles: l,
        }),
        any::<u64>().prop_map(|l| FaultOutcome::Hang { latency_cycles: l }),
        any::<u64>().prop_map(|l| FaultOutcome::ErrorModeStop { latency_cycles: l }),
        arb_payload().prop_map(|payload| FaultOutcome::EngineAnomaly { payload }),
    ]
}

fn arb_detection() -> impl Strategy<Value = Detection> {
    prop_oneof![
        Just(Detection::Undetected),
        (0usize..Mechanism::ALL.len(), any::<u64>(), any::<u64>()).prop_map(
            |(mechanism, latency_cycles, latency_writes)| Detection::Detected {
                mechanism: Mechanism::ALL[mechanism],
                latency_cycles,
                latency_writes,
            }
        ),
    ]
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::StuckAt0),
        Just(FaultKind::StuckAt1),
        Just(FaultKind::OpenLine),
        Just(FaultKind::TransientFlip),
        // Parameters drawn valid by construction: 1 <= duty <= period,
        // phase < period (the wire rejects anything else).
        (any::<bool>(), 1u64..5_000, any::<u64>(), any::<u64>()).prop_map(
            |(level, period, duty, phase)| FaultKind::IntermittentStuck {
                level,
                period,
                duty: 1 + duty % period,
                phase: phase % period,
            }
        ),
        (1u32..1_000, 1u64..100_000)
            .prop_map(|(flips, spacing)| FaultKind::TransientBurst { flips, spacing }),
    ]
}

/// A canonical per-job delta, the only shape `Campaign` ever journals:
/// exactly one engine counter set, flag counters in {0, 1}, `anomalies`
/// agreeing with the outcome, the ISO bucket counters agreeing with the
/// record (they travel off-wire, reconstructed by the parser), and
/// campaign-level fields zero.
fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        (
            0usize..10_000,
            any::<u32>(),
            any::<u8>(),
            0usize..Unit::ALL.len(),
            arb_kind(),
            arb_outcome(),
        ),
        (
            0u8..4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<bool>(), arb_detection()),
    )
        .prop_map(
            |(
                (job, net, bit, unit_idx, kind, outcome),
                (engine, short_circuited, timed_out, retried, cycles_simulated, cycles_avoided),
                (activated, detection),
            )| {
                let mut delta = CampaignStats {
                    short_circuited: usize::from(short_circuited),
                    timed_out: usize::from(timed_out),
                    retried: usize::from(retried),
                    anomalies: usize::from(matches!(outcome, FaultOutcome::EngineAnomaly { .. })),
                    cycles_simulated,
                    cycles_avoided,
                    ..CampaignStats::default()
                };
                match engine {
                    0 => delta.skipped_inactive = 1,
                    1 => delta.forked = 1,
                    2 => delta.full_reexecutions = 1,
                    _ => {}
                }
                let record = FaultRecord {
                    site: FaultSite {
                        net: NetId::from_raw(net),
                        bit,
                        unit: Unit::ALL[unit_idx],
                    },
                    kind,
                    outcome,
                    activated,
                    detection,
                    pruned_by: None,
                };
                delta.count_bucket(&record);
                Entry { job, record, delta }
            },
        )
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        any::<u64>(),
        any::<u64>(),
        0usize..1_000_000,
        any::<u64>(),
        any::<u64>(),
        (
            1usize..64,
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_kind(), 0..4),
        ),
    )
        .prop_map(
            |(
                workload,
                fingerprint,
                jobs,
                injection_cycle,
                golden_cycles,
                (instants, instants_hash, checkpoint_stride, kinds),
            )| Header {
                workload,
                fingerprint,
                jobs,
                injection_cycle,
                golden_cycles,
                instants,
                instants_hash,
                checkpoint_stride,
                kinds: kinds.into_iter().map(kind_to_token).collect(),
            },
        )
}

/// Finite floats with plenty of negative and fractional values, built
/// from integer ratios (the shim has no float strategies; a ratio is
/// always finite for a nonzero denominator).
fn arb_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), 1u32..10_000).prop_map(|(n, d)| f64::from(n) / f64::from(d))
}

fn arb_model() -> impl Strategy<Value = FittedModel> {
    (
        arb_f64(),
        arb_f64(),
        arb_f64(),
        proptest::collection::vec(arb_f64(), 0..8),
    )
        .prop_map(|(a, b, r2, residuals)| FittedModel {
            a,
            b,
            r2,
            n: residuals.len(),
            residuals,
        })
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::IntegerUnit),
        Just(Target::CacheMemory),
        Just(Target::Whole),
    ]
}

/// A canonical opcode histogram: real mnemonics, positive counts, sorted
/// and deduplicated (the parser's normal form).
fn arb_histogram() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((0usize..Opcode::ALL.len(), 1u64..1_000_000), 1..12).prop_map(
        |picks| {
            let map: BTreeMap<String, u64> = picks
                .into_iter()
                .map(|(i, count)| (Opcode::ALL[i].mnemonic().to_string(), count))
                .collect();
            map.into_iter().collect()
        },
    )
}

fn arb_predict_request() -> impl Strategy<Value = PredictRequest> {
    (
        any::<bool>(),
        arb_payload(),
        arb_histogram(),
        arb_target(),
        arb_kind(),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(by_name, label, histogram, target, kind, (has_fp, fp))| PredictRequest {
                benchmark: by_name.then_some(label),
                histogram: (!by_name).then_some(histogram),
                target,
                kind,
                fingerprint: has_fp.then(|| format!("corr-{fp:016x}")),
            },
        )
}

proptest! {
    /// Every entry the campaign can produce survives the wire format.
    #[test]
    fn entry_round_trips(entry in arb_entry()) {
        let line = entry.to_line();
        let parsed = Entry::parse(&line, 1);
        prop_assert_eq!(parsed, Ok(entry));
    }

    /// Headers round-trip for all hash/count values and fault-kind lists
    /// (the v5 `kinds` field carries parameterized wire tokens).
    #[test]
    fn header_round_trips(header in arb_header()) {
        prop_assert_eq!(Header::parse(&header.to_line()), Ok(header.clone()));
    }

    /// Every representable fault kind — including both time-varying
    /// parameterized ones — survives its wire token.
    #[test]
    fn kind_tokens_round_trip(kind in arb_kind()) {
        prop_assert_eq!(kind_from_token(&kind_to_token(kind)), Ok(kind));
    }

    /// Fitted models — negative slopes, intercepts and residuals included
    /// — reparse exactly and re-serialize to the same canonical bytes.
    #[test]
    fn fitted_models_round_trip(model in arb_model()) {
        let text = fitted_model_to_json(&model);
        let back = fitted_model_from_obj(&Json::parse(&text).expect("model json parses"))
            .expect("model reparses");
        prop_assert_eq!(&back, &model);
        prop_assert_eq!(fitted_model_to_json(&back), text);
    }

    /// The predictor's request message — label lookups with arbitrary
    /// JSON-hostile labels, histograms over real mnemonics, every domain
    /// — round-trips canonically.
    #[test]
    fn predict_requests_round_trip(request in arb_predict_request()) {
        let text = request.to_json();
        let back = PredictRequest::parse(&text).expect("request reparses");
        prop_assert_eq!(&back, &request);
        prop_assert_eq!(back.to_json(), text);
    }

    /// The predictor's reply message round-trips canonically.
    #[test]
    fn predictions_round_trip(
        pf_band in (arb_f64(), arb_f64()),
        diversity in any::<u64>(),
        fp in any::<u64>(),
        target in arb_target(),
        kind in arb_kind(),
    ) {
        let (pf, band) = pf_band;
        let prediction = Prediction {
            pf,
            band,
            diversity,
            fingerprint: format!("corr-{fp:016x}"),
            target,
            kind,
        };
        let text = prediction.to_json();
        let back = Prediction::parse(&text).expect("prediction reparses");
        prop_assert_eq!(&back, &prediction);
        prop_assert_eq!(back.to_json(), text);
    }

    /// A journal cut anywhere inside its final line reads back as the
    /// intact prefix — truncation is recovered, never misread as
    /// corruption, and never invents or corrupts an entry.
    #[test]
    fn any_cut_of_the_final_line_recovers_the_prefix(
        header in arb_header(),
        entries in proptest::collection::vec(arb_entry(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join("fault-journal-props");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cut.jsonl");

        let mut text = format!("{}\n", header.to_line());
        for e in &entries {
            text.push_str(&e.to_line());
            text.push('\n');
        }
        // Cut anywhere within the final entry line (from its first byte,
        // wiping the line, up to just before its closing newline, leaving
        // a torn fragment) — always on a char boundary.
        let last_line_start = text[..text.len() - 1]
            .rfind('\n')
            .expect("header line ends in newline")
            + 1;
        let cuts: Vec<usize> = (last_line_start..text.len() - 1)
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let cut = cuts[(cut_seed % cuts.len() as u64) as usize];
        std::fs::write(&path, &text[..cut]).expect("write journal");

        let (parsed_header, parsed_entries, _truncated) =
            read(&path).expect("a torn final line is not corruption");
        prop_assert_eq!(parsed_header, header);
        prop_assert_eq!(parsed_entries, entries[..entries.len() - 1].to_vec());
    }
}
