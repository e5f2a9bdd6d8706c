//! Cross-crate end-to-end tests: the whole framework pipeline, from operand
//! generation through assembly to all three evaluation platforms.

use decimalarith::atomic_sim::AtomicConfig;
use decimalarith::codesign::framework::{
    build_guest, try_run_atomic, try_run_functional, try_run_rocket, verify_results,
};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::{generate, TestConfig};

fn vectors(count: usize, seed: u64) -> Vec<decimalarith::testgen::TestVector> {
    generate(&TestConfig {
        count,
        seed,
        ..TestConfig::default()
    })
}

#[test]
fn all_platforms_agree_on_results() {
    let vectors = vectors(60, 1);
    let guest = build_guest(KernelKind::Method1, &vectors, 1).unwrap();
    let functional = try_run_functional(&guest).expect("functional run");
    let rocket = try_run_rocket(&guest, TimingConfig::default()).expect("rocket run");
    let atomic = try_run_atomic(&guest, AtomicConfig::default()).expect("atomic run");
    assert_eq!(functional.results, rocket.results);
    assert_eq!(functional.results, atomic.results);
    assert!(verify_results(&functional.results, &vectors).is_empty());
}

#[test]
fn method1_beats_software_and_dummy_lands_between() {
    let vectors = vectors(150, 2);
    let timing = TimingConfig::default();
    let cycles = |kind: KernelKind| {
        let guest = build_guest(kind, &vectors, 1).unwrap();
        try_run_rocket(&guest, timing).expect("rocket run").avg_total_cycles
    };
    let software = cycles(KernelKind::Software);
    let method1 = cycles(KernelKind::Method1);
    let dummy = cycles(KernelKind::Method1Dummy);
    // The paper's headline shape: the accelerator wins by >2x, and the
    // dummy-function estimate costs more than the real co-design (so the
    // dummy evaluation *underestimates* the speedup, 2.27x vs 2.73x).
    assert!(
        software / method1 > 2.0,
        "co-design speedup too small: {software:.0} vs {method1:.0}"
    );
    assert!(
        dummy > method1,
        "dummy estimate must be costlier than the real accelerator"
    );
    assert!(
        dummy < software,
        "dummy estimate must still beat pure software"
    );
}

#[test]
fn hw_part_is_a_small_fraction_of_method1() {
    let vectors = vectors(100, 3);
    let guest = build_guest(KernelKind::Method1, &vectors, 1).unwrap();
    let eval = try_run_rocket(&guest, TimingConfig::default()).expect("rocket run");
    let share = eval.avg_hw_cycles / eval.avg_total_cycles;
    // Paper Table IV: 188 of 1201 cycles = 15.7%.
    assert!(
        (0.05..0.45).contains(&share),
        "HW share {share:.2} out of the expected band"
    );
}

#[test]
fn deeper_offload_methods_are_faster() {
    let vectors = vectors(80, 4);
    let timing = TimingConfig::default();
    let cycles = |kind: KernelKind| {
        let guest = build_guest(kind, &vectors, 1).unwrap();
        let eval = try_run_rocket(&guest, timing).expect("rocket run");
        assert!(verify_results(&eval.results, &vectors).is_empty(), "{kind}");
        eval.avg_total_cycles
    };
    let m1 = cycles(KernelKind::Method1);
    let m2 = cycles(KernelKind::Method2);
    let m4 = cycles(KernelKind::Method4);
    assert!(m2 < m1, "method-2 ({m2:.0}) must beat method-1 ({m1:.0})");
    assert!(m4 < m2, "method-4 ({m4:.0}) must beat method-2 ({m4:.0})");
}

#[test]
fn ablations_respond_to_the_parameters_they_model() {
    let vectors = vectors(100, 7);
    let guests: Vec<_> = [KernelKind::Method1, KernelKind::Software]
        .into_iter()
        .map(|kind| build_guest(kind, &vectors, 1).unwrap())
        .collect();
    let latencies = [0u32, 1, 2, 4, 8];
    let sweep = |guest| -> Vec<f64> {
        latencies
            .iter()
            .map(|&resp| {
                let timing = TimingConfig {
                    rocc_resp_latency: resp,
                    seed: 7,
                    ..TimingConfig::default()
                };
                try_run_rocket(guest, timing).expect("rocket run").avg_total_cycles
            })
            .collect()
    };
    // (a) Every RoCC response waits the latency once, so Method-1's
    // cycles are linear in it.
    let method1 = sweep(&guests[0]);
    let per_cycle = method1[1] - method1[0];
    assert!(per_cycle > 0.0, "response latency must cost cycles: {method1:?}");
    for (&k, &c) in latencies.iter().zip(&method1) {
        let expected = f64::from(k) * per_cycle;
        assert!(
            ((c - method1[0]) - expected).abs() <= 1e-9 * expected.abs().max(1.0),
            "Method-1 not linear in response latency at {k}: {method1:?}"
        );
    }
    // (b) The software kernel issues no RoCC command.
    let software = sweep(&guests[1]);
    assert!(
        software.iter().all(|&c| c == software[0]),
        "software cycles moved with the response latency: {software:?}"
    );
    // (c) The BID-style baseline is the cheaper software style.
    let bid = build_guest(KernelKind::SoftwareBid, &vectors, 1).unwrap();
    let timing = TimingConfig {
        seed: 7,
        ..TimingConfig::default()
    };
    let bid = try_run_rocket(&bid, timing).expect("rocket run").avg_total_cycles;
    assert!(bid < software[0], "BID-style {bid:.0} vs decNumber-style {:.0}", software[0]);
}

#[test]
fn repetitions_scale_the_measurement_region() {
    let vectors = vectors(20, 5);
    let timing = TimingConfig::default();
    let run = |reps: u32| {
        let guest = build_guest(KernelKind::Method1, &vectors, reps).unwrap();
        try_run_rocket(&guest, timing).expect("rocket run")
    };
    let once = run(1);
    let thrice = run(3);
    // Per-call averages must stay comparable while total work triples.
    assert!(
        (thrice.avg_total_cycles - once.avg_total_cycles).abs() / once.avg_total_cycles < 0.3,
        "per-call cycles diverged: {} vs {}",
        once.avg_total_cycles,
        thrice.avg_total_cycles
    );
    assert!(thrice.stats.instret > 2 * once.stats.instret);
}

#[test]
fn atomic_and_rocket_rank_configurations_the_same_way() {
    let vectors = vectors(100, 6);
    let rank = |kind: KernelKind| {
        let guest = build_guest(kind, &vectors, 1).unwrap();
        let rocket = try_run_rocket(&guest, TimingConfig::default())
            .expect("rocket run")
            .avg_total_cycles;
        let table6 = AtomicConfig {
            mul_cycles: 3,
            div_cycles: 12,
        };
        let atomic = try_run_atomic(&guest, table6)
            .expect("atomic run")
            .simulated_seconds;
        (rocket, atomic)
    };
    let (sw_r, sw_a) = rank(KernelKind::Software);
    let (m1_r, m1_a) = rank(KernelKind::Method1);
    assert!(sw_r > m1_r);
    assert!(sw_a > m1_a, "platforms must agree on the winner");
}

#[test]
fn dummy_functions_flatten_input_dependence() {
    // The paper's first criticism of dummy-function evaluation: "the dummy
    // function always return a fixed value and the execution may not follow
    // the expected flow". Quantified: real kernels' cycles vary strongly by
    // input class (rounding >> normal), while the dummy configuration is
    // nearly flat because the rounding path never triggers.
    use decimalarith::codesign::framework::{build_guest_with, run_rocket_per_class};
    use decimalarith::testgen::DriverLayout;
    let vectors = vectors(250, 9);
    let spread = |kind: KernelKind| {
        let guest = build_guest_with(
            kind,
            &vectors,
            DriverLayout {
                count: vectors.len(),
                repetitions: 1,
                per_sample_marks: true,
            },
        )
        .unwrap();
        let breakdown = run_rocket_per_class(&guest, &vectors, TimingConfig::default()).unwrap();
        let max = breakdown.rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
        let min = breakdown.rows.iter().map(|r| r.1).fold(f64::MAX, f64::min);
        max / min
    };
    let software_spread = spread(KernelKind::Software);
    let dummy_spread = spread(KernelKind::Method1Dummy);
    assert!(
        software_spread > 1.5,
        "software cycles must vary by class, spread {software_spread:.2}"
    );
    assert!(
        dummy_spread < 1.1,
        "dummy cycles must be nearly class-independent, spread {dummy_spread:.2}"
    );
}
