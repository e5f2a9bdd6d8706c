//! `lockstep_conformance`: every kernel over a paper-mix slice, lockstep-
//! checked on all three simulator pairs — one `step()` at a time with every
//! retirement captured and compared. The slice is split into chunks whose
//! guests are built in set-up; one unit checks one chunk's guest on one
//! pair. One op is one sample checked on one pair.

use std::ops::Range;
use std::time::Instant;

use atomic_sim::AtomicConfig;
use codesign::framework::GuestProgram;
use codesign::kernels::KernelKind;
use lockstep::{LockstepOutcome, Pair, Termination};
use rocket_sim::TimingConfig;
use testgen::{TestConfig, TestVector};

use super::{Scale, Tally, Workload};
use crate::clock::CpuInstant;
use crate::layers;
use crate::report::Metrics;
use crate::trace::Span;

struct Guest {
    kind: KernelKind,
    chunk: usize,
    guest: GuestProgram,
}

/// Instructions compared, and whether the pair agreed on a clean exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    instructions: u64,
    agreed: bool,
}

/// The `lockstep_conformance` workload.
pub struct Conformance {
    vectors: Vec<TestVector>,
    chunks: Vec<Range<usize>>,
    guests: Vec<Guest>,
    /// `(guest index, pair)`, chunk-major.
    units: Vec<(usize, Pair)>,
    first: Vec<Option<Record>>,
    timing: TimingConfig,
}

impl Conformance {
    /// Set-up: the slice and every chunk's guest for every kernel.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (count, chunk) = match scale {
            Scale::Full => (1_000, 25),
            Scale::Tiny => (10, 5),
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
            for kind in KernelKind::ALL {
                for pair in Pair::ALL {
                    units.push((guests.len(), pair));
                }
                guests.push(Guest {
                    kind,
                    chunk: index,
                    guest: layers::build_guest(kind, &vectors[range.clone()]),
                });
            }
        }
        Conformance {
            first: vec![None; units.len()],
            vectors,
            chunks,
            guests,
            units,
            timing: TimingConfig {
                seed,
                ..TimingConfig::default()
            },
        }
    }

    fn chunk_of(&self, guest: &Guest) -> &[TestVector] {
        &self.vectors[self.chunks[guest.chunk].clone()]
    }
}

impl Workload for Conformance {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn round_len(&self) -> usize {
        KernelKind::ALL.len() * Pair::ALL.len()
    }

    fn run_unit(&mut self, index: usize, pass: usize, tally: &mut Tally) {
        let (g, pair) = self.units[index];
        let guest = &self.guests[g];
        let n = self.chunks[guest.chunk].len() as u64;
        let start = CpuInstant::now();
        let outcome = layers::run_pair(&guest.guest, pair);
        tally.latencies_ms.push(start.elapsed_ms());
        let record = match outcome {
            LockstepOutcome::Agreement {
                instructions,
                termination,
            } => Record {
                instructions,
                agreed: termination == Termination::Exited(0),
            },
            LockstepOutcome::Divergence(d) => Record {
                instructions: d.step,
                agreed: false,
            },
        };
        tally.ops += n;
        tally.instret += 2 * record.instructions;
        if !record.agreed {
            tally.failed += n;
        }
        if pass == 0 {
            self.first[index] = Some(record);
        } else if self.first[index] != Some(record) {
            tally.nondeterministic += 1;
        }
    }

    fn finish(&mut self, tally: &mut Tally) -> Metrics {
        let mut out = Metrics::default();
        let records = self.first.iter().flatten();
        let compared: u64 = records.clone().map(|r| r.instructions).sum();
        out.set("lockstep.instret_compared", compared as f64);
        out.set(
            "lockstep.divergences",
            records.filter(|r| !r.agreed).count() as f64,
        );
        let static_total: u64 = self
            .units
            .iter()
            .map(|&(g, _)| layers::static_instructions(&self.guests[g].guest))
            .sum();
        out.set(
            "lockstep_conformance.dyn_per_static",
            compared as f64 / static_total as f64,
        );
        // Agreement alone does not prove the results right: check every
        // real kernel's results against the oracle, and take Method-1's
        // modelled cost on the slice.
        let (mut checked, mut region, mut samples) = (0u64, 0.0, 0.0);
        for guest in &self.guests {
            let vectors = self.chunk_of(guest);
            if guest.kind == KernelKind::Method1 {
                match layers::run_rocket(&guest.guest, self.timing) {
                    Ok(eval) => {
                        region += eval.avg_total_cycles * vectors.len() as f64;
                        samples += vectors.len() as f64;
                    }
                    Err(_) => tally.failed += vectors.len() as u64,
                }
            }
            if guest.kind.results_are_dummy() {
                continue;
            }
            checked += vectors.len() as u64;
            tally.failed += match layers::run_functional(&guest.guest) {
                Ok(run) => layers::verify(&run.results, vectors) as u64,
                Err(_) => vectors.len() as u64,
            };
        }
        out.set("oracle.checked", checked as f64);
        out.set("sim_cycles_per_mul", region / samples);
        out
    }

    fn traced(&mut self, spans: &[Span], out: &mut Metrics) {
        // Lockstep cost beyond running both sides standalone.
        let atomic = AtomicConfig::default();
        let default_timing = TimingConfig::default();
        let mut standalone = Vec::with_capacity(self.guests.len());
        for guest in &self.guests {
            let mut seconds = [0.0; 3];
            let start = Instant::now();
            let _ = layers::run_functional(&guest.guest);
            seconds[0] = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let _ = layers::run_rocket(&guest.guest, default_timing);
            seconds[1] = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let _ = layers::run_atomic(&guest.guest, atomic);
            seconds[2] = start.elapsed().as_secs_f64();
            standalone.push(seconds);
        }
        let side = |kind: lockstep::SimKind| match kind {
            lockstep::SimKind::Functional => 0,
            lockstep::SimKind::Rocket => 1,
            lockstep::SimKind::Atomic => 2,
        };
        let both_sides: f64 = self
            .units
            .iter()
            .map(|&(g, pair)| standalone[g][side(pair.a)] + standalone[g][side(pair.b)])
            .sum();
        let lockstep_s: f64 = spans
            .iter()
            .filter(|s| s.name == "lockstep.pair_run")
            .map(Span::seconds)
            .sum();
        out.set("lockstep.overhead_s", lockstep_s - both_sides);
    }
}
