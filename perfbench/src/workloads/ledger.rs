//! `ledger_batches`: service-shaped traffic from one closed-loop client — a
//! billing job that sends a batch of line-item multiplications and waits
//! for the reply before sending the next. Each batch is built into a guest,
//! run on the Rocket model and verified. One op is one line item; one
//! request is one batch.

use std::collections::{BTreeMap, BTreeSet};

use codesign::kernels::KernelKind;
use rocket_sim::{RunStats, TimingConfig};
use testgen::{CaseClass, TestConfig, TestVector};

use super::{fingerprint, Scale, SplitMix64, Tally, Workload};
use crate::clock::CpuInstant;
use crate::layers;
use crate::report::Metrics;
use crate::trace::Span;

/// Every fifth batch (in size order, before shuffling) uses the software
/// kernel, so both kernels see the whole size range.
const SOFTWARE_EVERY: usize = 5;
/// Batches per round (a tenth of a pass).
const ROUND_BATCHES: usize = 50;
/// Largest batch.
const MAX_ITEMS: usize = 64;
/// Batches of at most this many items count as small for the layer split.
const SMALL_BATCH: usize = 16;

#[derive(Debug, Clone)]
struct Batch {
    kind: KernelKind,
    items: std::ops::Range<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    region_cycles: f64,
    hw_cycles: f64,
    stats: RunStats,
    results: u64,
    static_instructions: u64,
}

/// The `ledger_batches` workload.
pub struct Ledger {
    items: Vec<TestVector>,
    batches: Vec<Batch>,
    first: Vec<Option<Record>>,
    timing: TimingConfig,
}

/// Batch sizes, log-uniform over 1..=64 by stratified quantiles: the same
/// multiset for every seed, so only the order and the operands vary.
fn batch_sizes(count: usize) -> Vec<usize> {
    (0..count)
        .map(|b| {
            let u = (b as f64 + 0.5) / count as f64;
            let size = (u * (MAX_ITEMS as f64).log2()).exp2().round() as usize;
            size.clamp(1, MAX_ITEMS)
        })
        .collect()
}

impl Ledger {
    /// Set-up: the batch plan and its line items.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let count = match scale {
            Scale::Full => 500,
            Scale::Tiny => 10,
        };
        let mut plan: Vec<(KernelKind, usize)> = batch_sizes(count)
            .into_iter()
            .enumerate()
            .map(|(b, size)| {
                let kind = if b % SOFTWARE_EVERY == SOFTWARE_EVERY / 2 {
                    KernelKind::Software
                } else {
                    KernelKind::Method1
                };
                (kind, size)
            })
            .collect();
        SplitMix64::new(seed).shuffle(&mut plan);
        let total: usize = plan.iter().map(|&(_, size)| size).sum();
        let items = layers::generate(&TestConfig {
            count: total,
            seed,
            class_mix: vec![(CaseClass::Normal, 4), (CaseClass::Rounding, 1)],
            ..TestConfig::default()
        });
        let mut next = 0;
        let batches = plan
            .into_iter()
            .map(|(kind, size)| {
                next += size;
                Batch {
                    kind,
                    items: next - size..next,
                }
            })
            .collect::<Vec<_>>();
        Ledger {
            first: vec![None; batches.len()],
            items,
            batches,
            timing: TimingConfig {
                seed,
                ..TimingConfig::default()
            },
        }
    }

    fn records_of(&self, kind: KernelKind) -> impl Iterator<Item = (&Batch, &Record)> {
        self.batches
            .iter()
            .zip(&self.first)
            .filter(move |(b, _)| b.kind == kind)
            .filter_map(|(b, r)| r.as_ref().map(|r| (b, r)))
    }
}

impl Workload for Ledger {
    fn units(&self) -> usize {
        self.batches.len()
    }

    fn round_len(&self) -> usize {
        self.batches.len().min(ROUND_BATCHES)
    }

    fn run_unit(&mut self, index: usize, pass: usize, tally: &mut Tally) {
        let batch = &self.batches[index];
        let vectors = &self.items[batch.items.clone()];
        let n = vectors.len() as u64;
        let start = CpuInstant::now();
        let guest = layers::build_guest(batch.kind, vectors);
        let outcome = layers::run_rocket(&guest, self.timing);
        let failed = match &outcome {
            Ok(eval) => layers::verify(&eval.results, vectors) as u64,
            Err(_) => n,
        };
        tally.latencies_ms.push(start.elapsed_ms());
        tally.ops += n;
        tally.failed += failed;
        if let Ok(eval) = outcome {
            tally.instret += eval.stats.instret;
            let record = Record {
                region_cycles: eval.avg_total_cycles * n as f64,
                hw_cycles: eval.avg_hw_cycles * n as f64,
                stats: eval.stats,
                results: fingerprint(&eval.results),
                static_instructions: layers::static_instructions(&guest),
            };
            if pass == 0 {
                self.first[index] = Some(record);
            } else if self.first[index] != Some(record) {
                tally.nondeterministic += 1;
            }
        }
    }

    fn finish(&mut self, _tally: &mut Tally) -> Metrics {
        let mut out = Metrics::default();
        for kind in [KernelKind::Software, KernelKind::Method1] {
            let slug = kind.slug();
            let n: f64 = self
                .records_of(kind)
                .map(|(b, _)| b.items.len() as f64)
                .sum();
            let sum =
                |f: &dyn Fn(&Record) -> f64| self.records_of(kind).map(|(_, r)| f(r)).sum::<f64>();
            out.set(
                format!("rocket.{slug}.cycles_per_mul"),
                sum(&|r| r.region_cycles) / n,
            );
            out.set(
                format!("rocket.{slug}.hw_cycles_per_mul"),
                sum(&|r| r.hw_cycles) / n,
            );
            out.set(
                format!("rocket.{slug}.stall_cycles"),
                sum(&|r| r.stats.stall_cycles as f64),
            );
            out.set(
                format!("rocket.{slug}.icache_misses"),
                sum(&|r| r.stats.icache.misses as f64),
            );
            out.set(
                format!("rocket.{slug}.dcache_misses"),
                sum(&|r| r.stats.dcache.misses as f64),
            );
        }
        out.set(
            "sim_cycles_per_mul",
            out.get("rocket.method1.cycles_per_mul"),
        );
        let records = self.first.iter().flatten();
        let instret: f64 = records.clone().map(|r| r.stats.instret as f64).sum();
        let static_total: f64 = records.map(|r| r.static_instructions as f64).sum();
        out.set("rocket.instret", instret);
        out.set("ledger_batches.dyn_per_static", instret / static_total);
        out.set("oracle.checked", self.items.len() as f64);
        // Share of requests a (kernel, size)-keyed cache of assembled
        // kernels or warm machines could serve from an earlier request.
        let distinct: BTreeSet<(&str, usize)> = self
            .batches
            .iter()
            .map(|b| (b.kind.slug(), b.items.len()))
            .collect();
        out.set(
            "ledger.repeat_key_share",
            (self.batches.len() - distinct.len()) as f64 / self.batches.len() as f64,
        );
        out
    }

    fn traced(&mut self, spans: &[Span], out: &mut Metrics) {
        let mut rocket_s: BTreeMap<&str, f64> = BTreeMap::new();
        let (mut small_total, mut small_asm, mut small_sim) = (0.0, 0.0, 0.0);
        for span in spans.iter().filter(|s| s.request > 0) {
            let batch = &self.batches[span.request as usize - 1];
            let small = batch.items.len() <= SMALL_BATCH;
            match span.name {
                "rocket.run" => {
                    *rocket_s.entry(batch.kind.slug()).or_default() += span.seconds();
                    if small {
                        small_sim += span.seconds();
                    }
                }
                "asm.build_guest" if small => small_asm += span.seconds(),
                "framework.request" if small => small_total += span.seconds(),
                _ => {}
            }
        }
        for kind in [KernelKind::Software, KernelKind::Method1] {
            let instret: f64 = self
                .records_of(kind)
                .map(|(_, r)| r.stats.instret as f64)
                .sum();
            let seconds = rocket_s.get(kind.slug()).copied().unwrap_or(0.0);
            out.set(
                format!("rocket.{}.mips", kind.slug()),
                instret / seconds / 1e6,
            );
        }
        out.set("ledger.small_batch.asm_share", small_asm / small_total);
        out.set("ledger.small_batch.sim_share", small_sim / small_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sizes_span_one_to_sixty_four() {
        let sizes = batch_sizes(500);
        assert_eq!(sizes.iter().min(), Some(&1));
        assert_eq!(sizes.iter().max(), Some(&MAX_ITEMS));
    }
}
