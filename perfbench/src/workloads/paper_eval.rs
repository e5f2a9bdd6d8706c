//! `paper_eval`: the paper's cycle-accurate tables over one paper-mix
//! database — Software, Method-1 and Method-1-dummy (Table IV) and
//! Method-2/3/4 (Pareto) on the Rocket model, Method-1-dummy and Software
//! (Table VI) on the atomic model. The database is split into chunks whose
//! guests are built in set-up; one unit runs one chunk through one kernel
//! on one simulator. One op is one multiplication.

use std::collections::BTreeMap;
use std::ops::Range;

use atomic_sim::AtomicConfig;
use codesign::framework::GuestProgram;
use codesign::kernels::KernelKind;
use rocket_sim::{RunStats, TimingConfig};
use testgen::{TestConfig, TestVector};

use super::{fingerprint, Scale, Tally, Workload};
use crate::clock::CpuInstant;
use crate::layers;
use crate::report::{Metrics, ATOMIC_KERNELS, ROCKET_KERNELS};
use crate::trace::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sim {
    Rocket,
    Atomic,
}

#[derive(Debug, Clone, Copy)]
struct Unit {
    sim: Sim,
    kind: KernelKind,
    chunk: usize,
    guest: usize,
}

/// The simulated outcome of one unit, compared exactly across passes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    Rocket {
        region_cycles: f64,
        hw_cycles: f64,
        stats: RunStats,
        results: u64,
    },
    Atomic {
        sim_s: f64,
        instret: u64,
        results: u64,
    },
}

impl Record {
    fn instret(&self) -> u64 {
        match self {
            Record::Rocket { stats, .. } => stats.instret,
            Record::Atomic { instret, .. } => *instret,
        }
    }
}

/// The `paper_eval` workload.
pub struct PaperEval {
    vectors: Vec<TestVector>,
    chunks: Vec<Range<usize>>,
    guests: Vec<GuestProgram>,
    units: Vec<Unit>,
    first: Vec<Option<Record>>,
    timing: TimingConfig,
    atomic: AtomicConfig,
}

impl PaperEval {
    /// Set-up: the database and every chunk's guests.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (count, chunk) = match scale {
            Scale::Full => (8_000, 200),
            Scale::Tiny => (20, 10),
        };
        let vectors = layers::generate(&TestConfig {
            count,
            seed,
            ..TestConfig::default()
        });
        let chunks: Vec<Range<usize>> = (0..count)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(count))
            .collect();
        let mut guests = Vec::new();
        let mut units = Vec::new();
        for (index, range) in chunks.iter().enumerate() {
            let mut guest_of = BTreeMap::new();
            for kind in ROCKET_KERNELS {
                guest_of.insert(kind.slug(), guests.len());
                guests.push(layers::build_guest(kind, &vectors[range.clone()]));
            }
            let rocket = ROCKET_KERNELS.map(|kind| (Sim::Rocket, kind));
            let atomic = ATOMIC_KERNELS.map(|kind| (Sim::Atomic, kind));
            for (sim, kind) in rocket.into_iter().chain(atomic) {
                units.push(Unit {
                    sim,
                    kind,
                    chunk: index,
                    guest: guest_of[kind.slug()],
                });
            }
        }
        PaperEval {
            first: vec![None; units.len()],
            vectors,
            chunks,
            guests,
            units,
            // The configurations the table generators use.
            timing: TimingConfig {
                seed,
                ..TimingConfig::default()
            },
            atomic: AtomicConfig {
                mul_cycles: 3,
                div_cycles: 12,
                ..AtomicConfig::default()
            },
        }
    }

    /// Sums `f` of the first pass's records over the units matching `pick`.
    fn sum_first(&self, pick: impl Fn(&Unit) -> bool, f: impl Fn(&Record) -> f64) -> f64 {
        self.units
            .iter()
            .zip(&self.first)
            .filter(|(unit, _)| pick(unit))
            .filter_map(|(_, record)| record.as_ref())
            .map(f)
            .sum()
    }
}

impl Workload for PaperEval {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn round_len(&self) -> usize {
        ROCKET_KERNELS.len() + ATOMIC_KERNELS.len()
    }

    fn run_unit(&mut self, index: usize, pass: usize, tally: &mut Tally) {
        let unit = self.units[index];
        let guest = &self.guests[unit.guest];
        let vectors = &self.vectors[self.chunks[unit.chunk].clone()];
        let n = vectors.len() as u64;
        let start = CpuInstant::now();
        let outcome = match unit.sim {
            Sim::Rocket => layers::run_rocket(guest, self.timing).map(|e| {
                let record = Record::Rocket {
                    region_cycles: e.avg_total_cycles * n as f64,
                    hw_cycles: e.avg_hw_cycles * n as f64,
                    stats: e.stats,
                    results: fingerprint(&e.results),
                };
                (record, e.results)
            }),
            Sim::Atomic => layers::run_atomic(guest, self.atomic).map(|e| {
                let record = Record::Atomic {
                    sim_s: e.simulated_seconds,
                    instret: e.instret,
                    results: fingerprint(&e.results),
                };
                (record, e.results)
            }),
        };
        let failed = match &outcome {
            Ok((_, results)) if unit.kind.results_are_dummy() => 0,
            Ok((_, results)) => layers::verify(results, vectors) as u64,
            Err(_) => n,
        };
        tally.latencies_ms.push(start.elapsed_ms());
        tally.ops += n;
        tally.failed += failed;
        if let Ok((record, _)) = outcome {
            tally.instret += record.instret();
            if pass == 0 {
                self.first[index] = Some(record);
            } else if self.first[index] != Some(record) {
                tally.nondeterministic += 1;
            }
        }
    }

    fn finish(&mut self, _tally: &mut Tally) -> Metrics {
        let mut out = Metrics::default();
        let samples = |kind: KernelKind, sim: Sim| move |u: &Unit| u.kind == kind && u.sim == sim;
        let n_of = |kind: KernelKind, sim: Sim| -> f64 {
            self.units
                .iter()
                .filter(|u| u.kind == kind && u.sim == sim)
                .map(|u| self.chunks[u.chunk].len() as f64)
                .sum()
        };
        for kind in ROCKET_KERNELS {
            let pick = samples(kind, Sim::Rocket);
            let n = n_of(kind, Sim::Rocket);
            let stat = |f: fn(&RunStats) -> u64| {
                self.sum_first(pick, |r| match r {
                    Record::Rocket { stats, .. } => f(stats) as f64,
                    Record::Atomic { .. } => 0.0,
                })
            };
            let slug = kind.slug();
            out.set(
                format!("rocket.{slug}.cycles_per_mul"),
                self.sum_first(pick, |r| match r {
                    Record::Rocket { region_cycles, .. } => *region_cycles,
                    Record::Atomic { .. } => 0.0,
                }) / n,
            );
            out.set(
                format!("rocket.{slug}.hw_cycles_per_mul"),
                self.sum_first(pick, |r| match r {
                    Record::Rocket { hw_cycles, .. } => *hw_cycles,
                    Record::Atomic { .. } => 0.0,
                }) / n,
            );
            out.set(
                format!("rocket.{slug}.stall_cycles"),
                stat(|s| s.stall_cycles),
            );
            out.set(
                format!("rocket.{slug}.icache_misses"),
                stat(|s| s.icache.misses),
            );
            out.set(
                format!("rocket.{slug}.dcache_misses"),
                stat(|s| s.dcache.misses),
            );
        }
        for kind in ATOMIC_KERNELS {
            let sim_s = self.sum_first(samples(kind, Sim::Atomic), |r| match r {
                Record::Atomic { sim_s, .. } => *sim_s,
                Record::Rocket { .. } => 0.0,
            });
            out.set(format!("atomic.{}.sim_s", kind.slug()), sim_s);
        }
        out.set(
            "sim_cycles_per_mul",
            out.get("rocket.method1.cycles_per_mul"),
        );
        let instret = |sim: Sim| self.sum_first(|u| u.sim == sim, |r| r.instret() as f64);
        out.set("rocket.instret", instret(Sim::Rocket));
        out.set("atomic.instret", instret(Sim::Atomic));
        let static_total: f64 = self
            .units
            .iter()
            .map(|u| layers::static_instructions(&self.guests[u.guest]) as f64)
            .sum();
        out.set(
            "paper_eval.dyn_per_static",
            (instret(Sim::Rocket) + instret(Sim::Atomic)) / static_total,
        );
        out.set(
            "oracle.checked",
            self.units
                .iter()
                .filter(|u| !u.kind.results_are_dummy())
                .map(|u| self.chunks[u.chunk].len() as f64)
                .sum(),
        );
        out
    }

    fn traced(&mut self, spans: &[Span], out: &mut Metrics) {
        // Per-kernel retire rates over the traced pass.
        let mut host_s: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
        for span in spans.iter().filter(|s| s.request > 0) {
            let unit = self.units[span.request as usize - 1];
            let sim = match span.name {
                "rocket.run" => "rocket",
                "atomic.run" => "atomic",
                _ => continue,
            };
            *host_s.entry((sim, unit.kind.slug())).or_default() += span.seconds();
        }
        for ((sim, slug), seconds) in &host_s {
            let target = if *sim == "rocket" {
                Sim::Rocket
            } else {
                Sim::Atomic
            };
            let instret = self.sum_first(
                |u| u.sim == target && u.kind.slug() == *slug,
                |r| r.instret() as f64,
            );
            out.set(format!("{sim}.{slug}.mips"), instret / seconds / 1e6);
        }
        // The same Rocket guests on a bare functional core with a counting
        // accelerator: splits interpreter cost from timing-model cost.
        let mut functional_s = 0.0;
        let mut functional_instret = 0u64;
        let mut rocc = layers::RoccCounts::default();
        for unit in self.units.iter().filter(|u| u.sim == Sim::Rocket) {
            let guest = &self.guests[unit.guest];
            if let Ok((_, instret, seconds, counts)) = layers::run_functional_counted(guest) {
                functional_s += seconds;
                functional_instret += instret;
                rocc.commands += counts.commands;
                rocc.execute_s += counts.execute_s;
                rocc.busy_cycles += counts.busy_cycles;
            }
        }
        let rocket_s: f64 = host_s
            .iter()
            .filter(|((sim, _), _)| *sim == "rocket")
            .map(|(_, s)| s)
            .sum();
        out.set("functional.run_s", functional_s);
        out.set("functional.self_s", functional_s - rocc.execute_s);
        out.set(
            "functional.mips",
            functional_instret as f64 / functional_s / 1e6,
        );
        out.set("rocket.timing_overhead_s", rocket_s - functional_s);
        out.set("rocc.commands", rocc.commands as f64);
        out.set("rocc.execute_s", rocc.execute_s);
        out.set("rocc.busy_cycles", rocc.busy_cycles as f64);
    }
}
