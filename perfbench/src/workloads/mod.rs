//! The workloads and the harness that drives them.
//!
//! Every workload makes a fixed input set from the seed in its set-up, then
//! runs it in *units* (one guest run, one batch, one campaign, one lockstep
//! pair). A pass runs every unit once; consecutive units form *rounds*, each
//! a balanced slice of the input. The timed phase repeats whole passes until
//! `--seconds` have elapsed, so every run measures the same mix; rates are
//! medians over rounds, which keeps a burst of host noise from moving them,
//! and host times are CPU times rescaled to a nominal host speed (see
//! [`crate::clock`]), which keeps a slow stretch of the host from moving
//! them. Later passes must reproduce the first pass's simulated results
//! exactly.

mod campaign;
mod conformance;
mod ledger;
mod paper_eval;

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::{self, CpuInstant};
use crate::report::{self, Metrics};
use crate::trace::{self, Span};

/// How large the input sets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`report::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for journals, traces and determinism digests.
    pub work_dir: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// What the units of a phase did.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Verified operations (what one op is depends on the workload).
    pub ops: u64,
    /// Operations that failed verification.
    pub failed: u64,
    /// Guest instructions retired, summed over every simulator stepped.
    pub instret: u64,
    /// Request latencies, milliseconds of CPU time (rescaled to the nominal
    /// host speed outside traced passes).
    pub latencies_ms: Vec<f64>,
    /// Units whose simulated results differed from the same unit's first
    /// run.
    pub nondeterministic: u64,
    /// Every round run: consecutive units that together form one balanced
    /// slice of the input set.
    pub rounds: Vec<Round>,
    /// Reference-loop times taken between untraced rounds, CPU seconds.
    pub references_s: Vec<f64>,
}

/// One timed round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Verified operations.
    pub ops: u64,
    /// Guest instructions retired.
    pub instret: u64,
    /// CPU time, seconds (rescaled to the nominal host speed outside traced
    /// passes).
    pub seconds: f64,
    /// Wall time, seconds.
    pub wall_seconds: f64,
}

impl Tally {
    /// Median over rounds of `f(round) / round seconds`.
    #[must_use]
    pub fn median_rate(&self, f: impl Fn(&Round) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| f(r) as f64 / r.seconds)
            .collect();
        report::median(&rates)
    }
}

/// A workload: a fixed input set plus the units that run it.
pub trait Workload {
    /// Units per pass.
    fn units(&self) -> usize;

    /// Units per round; divides [`Workload::units`].
    fn round_len(&self) -> usize;

    /// Runs unit `index` during pass `pass`, recording into `tally`.
    fn run_unit(&mut self, index: usize, pass: usize, tally: &mut Tally);

    /// Untimed verification after the timed phase. Returns the workload's
    /// simulated metrics and counts (exact for a seed); failures found go
    /// into `tally`.
    fn finish(&mut self, tally: &mut Tally) -> Metrics;

    /// Traced runs only: per-layer metrics derived from the traced pass's
    /// spans (request id = unit index + 1) and from extra untimed runs.
    fn traced(&mut self, spans: &[Span], out: &mut Metrics);
}

fn make(config: &Config) -> Result<Box<dyn Workload>, String> {
    let (seed, scale, dir) = (config.seed, config.scale, config.work_dir.as_path());
    Ok(match config.workload.as_str() {
        "paper_eval" => Box::new(paper_eval::PaperEval::new(seed, scale)),
        "ledger_batches" => Box::new(ledger::Ledger::new(seed, scale)),
        "fault_campaign" => Box::new(campaign::FaultCampaign::new(seed, scale, dir)),
        "lockstep_conformance" => Box::new(conformance::Conformance::new(seed, scale)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// True when every output verified and the simulated metrics repeated.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// Runs one pass, timing each round on the CPU clock. Outside traced
/// passes, reference loops just before and after each round rescale its
/// time and its requests' latencies to the nominal host speed.
fn run_pass(workload: &mut dyn Workload, pass: usize, tally: &mut Tally, traced: bool) {
    let round_len = workload.round_len();
    let mut before = if traced { 0.0 } else { clock::reference_s() };
    for first in (0..workload.units()).step_by(round_len) {
        let (ops, instret, requests) = (tally.ops, tally.instret, tally.latencies_ms.len());
        let (wall, cpu) = (Instant::now(), CpuInstant::now());
        for index in first..first + round_len {
            if traced {
                trace::request(index as u64 + 1, || workload.run_unit(index, pass, tally));
            } else {
                workload.run_unit(index, pass, tally);
            }
        }
        let (mut seconds, wall_seconds) = (cpu.elapsed_s(), wall.elapsed().as_secs_f64());
        if !traced {
            let after = clock::reference_s();
            let scale = clock::to_nominal((before + after) / 2.0);
            seconds *= scale;
            for latency in &mut tally.latencies_ms[requests..] {
                *latency *= scale;
            }
            tally.references_s.push(after);
            before = after;
        }
        tally.rounds.push(Round {
            ops: tally.ops - ops,
            instret: tally.instret - instret,
            seconds,
            wall_seconds,
        });
    }
}

/// Runs whole passes until `seconds` have elapsed (at least one), or
/// exactly one pass when `seconds` is `None`. Returns the wall time. Only
/// whole passes are timed, so every run measures the same mix of units.
fn timed_phase(workload: &mut dyn Workload, seconds: Option<f64>, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut pass = 0;
    loop {
        run_pass(workload, pass, tally, false);
        pass += 1;
        if seconds.is_none_or(|s| start.elapsed().as_secs_f64() >= s) {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Unknown workload names and work-directory I/O failures.
pub fn run(config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("creating {}: {e}", config.work_dir.display()))?;
    let mut notes = Vec::new();

    // Set-up, repeated; the last one is traced in a traced run. Each is
    // timed on the CPU clock and rescaled by the reference loops on either
    // side of it.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    let mut traced_setup_s = 0.0;
    let mut before = clock::reference_s();
    for repeat in 0..SETUP_REPEATS {
        let traced = config.trace && repeat + 1 == SETUP_REPEATS;
        trace::set_enabled(traced);
        drop(workload.take());
        let (wall, cpu) = (Instant::now(), CpuInstant::now());
        workload = Some(make(config)?);
        let cpu_s = cpu.elapsed_s();
        if traced {
            traced_setup_s = wall.elapsed().as_secs_f64();
        }
        let after = clock::reference_s();
        setup_times.push(cpu_s * clock::to_nominal((before + after) / 2.0));
        before = after;
    }
    trace::set_enabled(false);
    let mut workload = workload.expect("set-up ran at least once");

    // Timed phase, untraced. A traced run instead runs one untraced pass,
    // one traced pass, and one more untraced pass: the traced pass is
    // compared with the second, which starts as warm as it did.
    let mut tally = Tally::default();
    let mut traced_tally = Tally::default();
    let pass_wall = |rounds: &[Round]| rounds.iter().map(|r| r.wall_seconds).sum::<f64>();
    let (wall, traced_wall) = if config.trace {
        timed_phase(workload.as_mut(), None, &mut tally);
        trace::set_enabled(true);
        run_pass(workload.as_mut(), 1, &mut traced_tally, true);
        trace::set_enabled(false);
        let warm = tally.rounds.len();
        run_pass(workload.as_mut(), 2, &mut tally, false);
        (
            pass_wall(&tally.rounds[warm..]),
            pass_wall(&traced_tally.rounds),
        )
    } else {
        let wall = timed_phase(workload.as_mut(), Some(config.seconds), &mut tally);
        (wall, 0.0)
    };

    let simulated = workload.finish(&mut tally);
    let attempted = tally.ops + traced_tally.ops;
    let failed = tally.failed + traced_tally.failed;
    let nondeterministic = tally.nondeterministic + traced_tally.nondeterministic;
    if nondeterministic > 0 {
        notes.push(format!(
            "DETERMINISM: {nondeterministic} unit(s) gave different simulated results across passes"
        ));
    }
    let repeat_ok = check_digest(config, &simulated, &mut notes)?;
    let correct = failed == 0 && nondeterministic == 0 && repeat_ok && attempted > 0;
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };

    let mut metrics = Metrics::default();
    if config.trace {
        let spans = trace::take();
        metrics.extend(&simulated);
        layer_metrics(&spans, traced_setup_s, traced_wall, &mut metrics);
        workload.traced(&spans, &mut metrics);
        metrics.set("trace.overhead_share", (traced_wall - wall) / wall);
        metrics.set("requests", traced_tally.latencies_ms.len() as f64);
        metrics.set("error_rate", error_rate);
        let path = config
            .work_dir
            .join(format!("trace-{}.jsonl", config.workload));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        notes.push(format!(
            "traced pass {traced_wall:.3} s against untraced pass {wall:.3} s"
        ));
    } else {
        metrics.set("ops_per_s", tally.median_rate(|r| r.ops));
        metrics.set("guest_mips", tally.median_rate(|r| r.instret) / 1e6);
        metrics.set("batch_p50_ms", report::median(&tally.latencies_ms));
        metrics.set("batch_p99_ms", report::quantile(&tally.latencies_ms, 0.99));
        metrics.set("setup_s", report::median(&setup_times));
        metrics.set("sim_cycles_per_mul", simulated.get("sim_cycles_per_mul"));
        let wall_rates: Vec<f64> = tally
            .rounds
            .iter()
            .map(|r| r.ops as f64 / r.wall_seconds)
            .collect();
        notes.push(format!(
            "{} requests and {} rounds in {wall:.3} s; error_rate {error_rate}; set-up runs \
             {setup_times:?} s",
            tally.latencies_ms.len(),
            tally.rounds.len(),
        ));
        notes.push(format!(
            "host speed: reference loop {:.4} ms median against {:.4} ms nominal; unscaled \
             wall-clock ops_per_s {:.3}",
            report::median(&tally.references_s) * 1e3,
            clock::NOMINAL_REFERENCE_S * 1e3,
            report::median(&wall_rates),
        ));
    }
    metrics.set("peak_rss_mb", report::peak_rss_mib());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Layer-generic per-layer metrics from the traced set-up and pass.
fn layer_metrics(spans: &[Span], setup_s: f64, pass_s: f64, out: &mut Metrics) {
    let times = trace::layer_times(spans);
    out.set("testgen.generate_s", times.total("testgen.generate"));
    out.set("asm.build_guest_s", times.total("asm.build_guest"));
    out.set(
        "asm.guests",
        spans.iter().filter(|s| s.name == "asm.build_guest").count() as f64,
    );
    out.set("rocket.run_s", times.total("rocket.run"));
    out.set("atomic.run_s", times.total("atomic.run"));
    out.set("functional.run_s", times.total("functional.run"));
    out.set("oracle.verify_s", times.total("oracle.verify"));
    out.set("lockstep.pair_run_s", times.total("lockstep.pair_run"));
    for layer in [
        "testgen",
        "asm",
        "rocket",
        "atomic",
        "functional",
        "oracle",
        "lockstep",
        "campaign",
    ] {
        out.set(format!("{layer}.self_s"), times.self_time(layer));
    }
    // Orchestration: the traced pass's wall time not spent inside a layer.
    let in_layers: f64 = spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| spans[p].name == "framework.request")
        })
        .map(Span::seconds)
        .sum();
    out.set("framework.self_s", pass_s - in_layers);
    let total = setup_s + pass_s;
    let sim = [
        "rocket.run",
        "atomic.run",
        "functional.run",
        "lockstep.pair_run",
        "campaign.run",
    ]
    .iter()
    .map(|name| times.total(name))
    .sum::<f64>();
    out.set("split.asm_share", times.total("asm.build_guest") / total);
    out.set("split.sim_share", sim / total);
    out.set("trace.spans", spans.len() as f64);
}

/// Identity of the running executable, so a rebuilt benchmark starts a
/// fresh determinism record.
fn exe_identity() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{} {modified}", m.len())
        })
        .unwrap_or_default()
}

/// Compares this run's simulated metrics with the record an earlier run of
/// the same executable, workload, scale and seed left, or writes the record.
/// Returns false when they differ.
fn check_digest(
    config: &Config,
    simulated: &Metrics,
    notes: &mut Vec<String>,
) -> Result<bool, String> {
    let path = digest_path(&config.work_dir, config);
    let mut record = format!("{}\n", exe_identity());
    for (name, value) in simulated.iter() {
        record += &format!("{name} {value:?}\n");
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.lines().next() == record.lines().next() => {
            if previous == record {
                return Ok(true);
            }
            let old: Vec<&str> = previous.lines().collect();
            for line in record.lines().filter(|l| !old.contains(l)) {
                notes.push(format!(
                    "DETERMINISM: {line} differs from an earlier run of this seed"
                ));
            }
            Ok(false)
        }
        _ => {
            std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

fn digest_path(dir: &Path, config: &Config) -> PathBuf {
    dir.join(format!(
        "digest-{}-{:?}-{}.txt",
        config.workload, config.scale, config.seed
    ))
}

/// A SplitMix64 generator for the benchmark's own seeded choices.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// An FNV-1a digest of a result vector, for exact comparisons.
#[must_use]
pub fn fingerprint(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// Milliseconds elapsed since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
