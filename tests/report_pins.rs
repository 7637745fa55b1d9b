//! Report pins: every checked-in example spec, run sequentially
//! (`parallelism: 1`), serialises to exactly the recorded report bytes.
//!
//! Each test compares a 64-bit FNV-1a digest of
//! `CampaignReport::to_json_string()` with a constant. Performance work on
//! any layer (agent stepping, caches, the VM) must leave every digest
//! unchanged; a constant moves only with a deliberate change to campaign
//! results, noted in CHANGES.md.

use axdse_suite::ax_dse::campaign::{ExperimentSpec, NullObserver};
use axdse_suite::ax_surrogate::campaign::run_spec;

/// 64-bit FNV-1a over bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_report_pin(example: &str, want: u64) {
    let path = format!("examples/{example}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut spec = ExperimentSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    spec.parallelism = Some(1);
    let lib = spec.library.build();
    let report = run_spec(&lib, &spec, None, &NullObserver).expect("example spec runs");
    let got = fnv1a64(report.to_json_string().as_bytes());
    assert_eq!(
        got, want,
        "{example}: report digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn asha_example_report_is_pinned() {
    assert_report_pin("campaign_asha.json", 0x9114027a3e6269df);
}

#[test]
fn halving_example_report_is_pinned() {
    assert_report_pin("campaign_halving.json", 0xd9f68ab4179f72e5);
}

#[test]
fn matmul_example_report_is_pinned() {
    assert_report_pin("campaign_matmul.json", 0x363b6f1fded75311);
}

#[test]
fn pareto_example_report_is_pinned() {
    assert_report_pin("campaign_pareto.json", 0x46083ddda4a531b2);
}
