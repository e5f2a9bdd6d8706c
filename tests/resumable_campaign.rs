//! Crash-safe campaign resumption, end to end: a journaled fault-injection
//! campaign over a real kernel guest, killed at *any* byte of its journal,
//! must resume to a report identical to the uninterrupted run. The
//! truncation points below simulate `kill -9` landing mid-line (a torn
//! write), on a line boundary, right after the header, and before anything
//! was written at all.

use decimalarith::codesign::framework::build_guest;
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::campaign::{run_campaign_journaled, CampaignConfig};
use decimalarith::lockstep::fuzz::{run_fuzz_journaled, FuzzConfig};
use decimalarith::lockstep::guest_budget;
use decimalarith::lockstep::journal::{JournalError, JournalSpec};
use decimalarith::testgen::{generate, TestConfig};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("resumable-campaign-{tag}-{}", std::process::id()));
    path
}

fn spec(path: &std::path::Path, resume: bool) -> JournalSpec {
    JournalSpec {
        path: path.to_path_buf(),
        resume,
        checkpoint_every: 3,
    }
}

#[test]
fn campaign_resumes_identically_from_any_truncation_point() {
    let vectors = generate(&TestConfig {
        count: 2,
        seed: 2019,
        ..TestConfig::default()
    });
    let guest = build_guest(KernelKind::Method1, &vectors, 1).expect("guest builds");
    let config = CampaignConfig {
        seed: 2019,
        faults: 10,
        instruction_budget: guest_budget(&guest),
        result_words: vectors.len(),
    };

    // The uninterrupted reference: journaled, run to completion.
    let path = temp_path("reference");
    let reference =
        run_campaign_journaled(&guest.program, &config, Some(&spec(&path, false)), &mut |_| {})
            .expect("journaled run succeeds");
    assert!(reference.ok(), "{:?}", reference.errors);
    assert_eq!(reference.records.len() + reference.quarantined.len(), config.faults);
    let journal_bytes = std::fs::read(&path).expect("journal written");
    let header_end = journal_bytes
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("journal has a header line");

    // Kill points: nothing written, header only, torn case lines, torn
    // tail one byte short of complete.
    let kill_points = [
        0,
        header_end,
        header_end + 7, // mid-first-case torn write
        journal_bytes.len() / 3,
        journal_bytes.len() / 2,
        journal_bytes.len() - 1,
    ];
    for (i, &cut) in kill_points.iter().enumerate() {
        let path = temp_path(&format!("cut{i}"));
        std::fs::write(&path, &journal_bytes[..cut]).unwrap();
        let mut progress_calls = 0;
        let resumed = run_campaign_journaled(
            &guest.program,
            &config,
            Some(&spec(&path, true)),
            &mut |_| progress_calls += 1,
        )
        .unwrap_or_else(|e| panic!("resume from {cut} bytes failed: {e}"));
        assert_eq!(
            resumed, reference,
            "report after resuming from a {cut}-byte journal prefix"
        );
        assert!(progress_calls > 0, "resumed run reports progress");
        std::fs::remove_file(&path).unwrap();
    }

    // A second resume of the *complete* journal is a pure replay and
    // still produces the identical report.
    let replayed =
        run_campaign_journaled(&guest.program, &config, Some(&spec(&path, true)), &mut |_| {})
            .expect("pure replay succeeds");
    assert_eq!(replayed, reference);

    // Resuming with a different configuration is a typed error — the
    // journal is bound to its fingerprint, never silently misapplied.
    let other = CampaignConfig {
        seed: 77,
        ..config.clone()
    };
    match run_campaign_journaled(&guest.program, &other, Some(&spec(&path, true)), &mut |_| {}) {
        Err(JournalError::Fingerprint { .. }) => {}
        other => panic!("expected JournalError::Fingerprint, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fuzz_campaign_resumes_to_identical_counters() {
    let config = FuzzConfig {
        seed: 2019,
        programs: 8,
        ..FuzzConfig::default()
    };
    let path = temp_path("fuzz-reference");
    let reference = run_fuzz_journaled(&config, Some(&spec(&path, false)), &mut |_| {})
        .expect("journaled fuzz run succeeds");
    assert!(reference.ok(), "seed 2019 fuzz run is clean");
    let journal_bytes = std::fs::read(&path).expect("journal written");

    for (i, cut) in [journal_bytes.len() / 4, journal_bytes.len() / 2].into_iter().enumerate() {
        let path = temp_path(&format!("fuzz-cut{i}"));
        std::fs::write(&path, &journal_bytes[..cut]).unwrap();
        let resumed = run_fuzz_journaled(&config, Some(&spec(&path, true)), &mut |_| {})
            .unwrap_or_else(|e| panic!("fuzz resume from {cut} bytes failed: {e}"));
        assert_eq!(resumed.programs_run, reference.programs_run);
        assert_eq!(resumed.pairs_checked, reference.pairs_checked);
        assert_eq!(resumed.instructions_checked, reference.instructions_checked);
        assert_eq!(resumed.failures.len(), reference.failures.len());
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}
