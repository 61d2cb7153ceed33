//! Fuzzing the wire parsers: every JSON body either server reads goes
//! through them, so no input may panic one, and hostile nesting must be an
//! error rather than a stack overflow.
//!
//! Gated behind the off-by-default `proptest` feature:
//! `cargo test -p fault-inject --features proptest --test wire_fuzz`.
#![cfg(feature = "proptest")]

use fault_inject::wire::Json;
use fault_inject::{
    Campaign, CorrelationReport, CorrelationSpec, PredictRequest, ShardResult, Target,
};
use proptest::prelude::*;
use rtl_sim::FaultKind;
use std::sync::OnceLock;
use workloads::{Benchmark, Params};

/// A parser under test, re-serializing what it accepts.
type Parse = fn(&str) -> Result<String, String>;

const PARSERS: [Parse; 5] = [
    |text| Json::parse(text).map(|v| v.to_json()),
    |text| ShardResult::parse(text).map(|v| v.to_json()),
    |text| CorrelationSpec::parse(text).map(|v| v.to_json()),
    |text| CorrelationReport::parse(text).map(|v| v.to_json()),
    |text| PredictRequest::parse(text).map(|v| v.to_json()),
];

/// One canonical document per parser of [`PARSERS`], in the same order.
fn canonical() -> &'static [String; 5] {
    static DOCS: OnceLock<[String; 5]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let campaign = Campaign::new(
            Benchmark::Intbench.program(&Params::default()),
            Target::IntegerUnit,
        )
        .with_sample(6, 0xf0)
        .with_kinds(&[FaultKind::StuckAt1, FaultKind::TransientFlip]);
        let shard = ShardResult {
            fingerprint: campaign.fingerprint(),
            index: 0,
            count: 1,
            result: campaign.try_run(1).expect("the campaign is valid"),
        };
        let mut spec = CorrelationSpec::new();
        spec.benchmarks = vec![Benchmark::Membench, Benchmark::Intbench];
        spec.sample = Some((6, 0xc0ffee));
        let report = spec.run_report(1).expect("the sweep fits");
        let predict =
            PredictRequest::from_histogram(vec![("add".to_string(), 12), ("ld".to_string(), 3)]);
        [
            shard.to_json(),
            shard.to_json(),
            spec.to_json(),
            report.to_json(),
            predict.to_json(),
        ]
    })
}

/// Feed `text` to every parser; a panic fails the test.
fn parse_everywhere(text: &str) {
    for parse in PARSERS {
        let _ = parse(text);
    }
}

#[test]
fn canonical_documents_round_trip_byte_for_byte() {
    for (parse, doc) in PARSERS.iter().zip(canonical()) {
        assert_eq!(parse(doc).as_ref(), Ok(doc));
    }
}

proptest! {
    #[test]
    fn random_bytes_never_panic_a_parser(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_never_panic_a_parser(
        doc in 0usize..5,
        mutation in 0u8..4,
        at in any::<u64>(),
        byte in any::<u8>(),
        count in 1usize..20_000,
    ) {
        let original = canonical()[doc].as_bytes();
        let at = (at % (original.len() as u64 + 1)) as usize;
        let mut bytes = original.to_vec();
        match mutation {
            // Flip one bit.
            0 => match bytes.get_mut(at) {
                Some(b) => *b ^= 1 << (byte % 8),
                None => bytes.push(byte),
            },
            1 => bytes.truncate(at),
            // A run of one opening bracket.
            2 => {
                let open = if byte % 2 == 0 { b'[' } else { b'{' };
                bytes.splice(at..at, std::iter::repeat_n(open, count));
            }
            // The whole document nested `count` levels deep.
            _ => {
                let mut nested = "[".repeat(count).into_bytes();
                nested.extend_from_slice(&bytes);
                nested.extend(std::iter::repeat_n(b']', count));
                bytes = nested;
            }
        }
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }
}
