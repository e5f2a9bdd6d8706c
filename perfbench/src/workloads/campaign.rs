//! `fault_campaign`: seeded single-bit fault-injection campaigns over the
//! plain and fault-tolerant Method-1 guests, with the write-ahead journal
//! on. One unit is one campaign of one plan on one kernel; one op (and one
//! request) is one classified fault replay, timed between the campaign's
//! per-case progress reports.

use std::path::{Path, PathBuf};
use std::time::Instant;

use codesign::framework::GuestProgram;
use codesign::kernels::KernelKind;
use lockstep::campaign::{
    run_campaign, run_campaign_journaled, CampaignConfig, CampaignReport, CampaignTally,
    FaultInjectingAccelerator,
};
use lockstep::journal::JournalSpec;
use rocket_sim::TimingConfig;
use testgen::{TestConfig, TestVector};

use super::{ms_since, Scale, SplitMix64, Tally, Workload};
use crate::clock::CpuInstant;
use crate::layers;
use crate::report::{median, Metrics};
use crate::trace::{self, span, Span};

struct Guest {
    kind: KernelKind,
    guest: GuestProgram,
    golden_instret: u64,
    golden_failed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    tally: CampaignTally,
    quarantined: usize,
    total_commands: u64,
    journal_bytes: u64,
}

/// The `fault_campaign` workload.
pub struct FaultCampaign {
    vectors: Vec<TestVector>,
    guests: Vec<Guest>,
    /// `(plan seed, guest index)`, plan-major.
    units: Vec<(u64, usize)>,
    faults: usize,
    dir: PathBuf,
    first: Vec<Option<Record>>,
    timing: TimingConfig,
}

impl FaultCampaign {
    /// Set-up: the operands, both guests, and each guest's golden run
    /// (checked against the oracle).
    #[must_use]
    pub fn new(seed: u64, scale: Scale, work_dir: &Path) -> Self {
        let (samples, plans, faults) = match scale {
            // Enough distinct replays per pass (4,000) that the slowest 1%
            // is not a handful of cases.
            Scale::Full => (50, 80, 25),
            Scale::Tiny => (5, 1, 8),
        };
        let vectors = layers::generate(&TestConfig {
            count: samples,
            seed,
            ..TestConfig::default()
        });
        let guests = KernelKind::FAULT_CAMPAIGN
            .map(|kind| {
                let guest = layers::build_guest(kind, &vectors);
                let (golden_instret, golden_failed) = match layers::run_functional(&guest) {
                    Ok(run) => (run.instret, layers::verify(&run.results, &vectors) as u64),
                    Err(_) => (0, vectors.len() as u64),
                };
                Guest {
                    kind,
                    guest,
                    golden_instret,
                    golden_failed,
                }
            })
            .into_iter()
            .collect::<Vec<_>>();
        let mut rng = SplitMix64::new(seed);
        let units: Vec<(u64, usize)> = (0..plans)
            .flat_map(|_| {
                let plan = rng.next_u64();
                (0..guests.len()).map(move |g| (plan, g))
            })
            .collect();
        FaultCampaign {
            first: vec![None; units.len()],
            vectors,
            guests,
            units,
            faults,
            dir: work_dir.to_path_buf(),
            timing: TimingConfig {
                seed,
                ..TimingConfig::default()
            },
        }
    }

    fn config(&self, plan: u64, guest: &GuestProgram) -> CampaignConfig {
        CampaignConfig {
            seed: plan,
            faults: self.faults,
            instruction_budget: lockstep::guest_budget(guest),
            result_words: self.vectors.len(),
            ..CampaignConfig::default()
        }
    }

    fn journal_path(&self, kind: KernelKind) -> PathBuf {
        self.dir.join(format!(
            "journal-{}-{}.wal",
            std::process::id(),
            kind.slug()
        ))
    }

    /// Failed replays in a report: quarantines, any silent corruption on
    /// the fault-tolerant kernel, and every replay of a campaign that could
    /// not run.
    fn failures(&self, kind: KernelKind, report: &CampaignReport) -> u64 {
        if !report.errors.is_empty() || report.golden_exit != 0 {
            return self.faults as u64;
        }
        let sdc = if kind == KernelKind::Method1Ft {
            report.tally().silent_data_corruption
        } else {
            0
        };
        report.quarantined.len() as u64 + sdc
    }
}

impl Drop for FaultCampaign {
    fn drop(&mut self) {
        for guest in &self.guests {
            // Best effort: a journal that is already gone is fine.
            let _ = std::fs::remove_file(self.journal_path(guest.kind));
        }
    }
}

impl Workload for FaultCampaign {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn round_len(&self) -> usize {
        self.guests.len()
    }

    fn run_unit(&mut self, index: usize, pass: usize, tally: &mut Tally) {
        let (plan, g) = self.units[index];
        let entry = &self.guests[g];
        let config = self.config(plan, &entry.guest);
        let path = self.journal_path(entry.kind);
        let spec = JournalSpec {
            path: path.clone(),
            resume: false,
            checkpoint_every: 1,
        };
        let (mut last, mut last_cpu) = (Instant::now(), CpuInstant::now());
        let mut latencies = Vec::with_capacity(self.faults);
        let result = span("campaign.run", || {
            run_campaign_journaled(&entry.guest.program, &config, Some(&spec), &mut |p| {
                if latencies.len() < p.done {
                    let now = Instant::now();
                    trace::record("campaign.replay", last, now);
                    latencies.push(last_cpu.elapsed_ms());
                    (last, last_cpu) = (now, CpuInstant::now());
                }
            })
        });
        tally.latencies_ms.extend(latencies);
        tally.ops += self.faults as u64;
        let report = match result {
            Ok(report) => report,
            Err(_) => {
                tally.failed += self.faults as u64;
                return;
            }
        };
        tally.failed += self.failures(entry.kind, &report);
        // Replays report no instruction counts; each one re-runs the guest
        // from reset, so the golden run's count stands in for every replay.
        tally.instret += (self.faults as u64 + 1) * entry.golden_instret;
        let record = Record {
            tally: report.tally(),
            quarantined: report.quarantined.len(),
            total_commands: report.total_commands,
            journal_bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        };
        if pass == 0 {
            self.first[index] = Some(record);
        } else if self.first[index] != Some(record) {
            tally.nondeterministic += 1;
        }
    }

    fn finish(&mut self, tally: &mut Tally) -> Metrics {
        let mut out = Metrics::default();
        for (g, entry) in self.guests.iter().enumerate() {
            tally.failed += entry.golden_failed;
            let slug = entry.kind.slug();
            for (unit, record) in self.units.iter().zip(&self.first) {
                let Some(record) = record.filter(|_| unit.1 == g) else {
                    continue;
                };
                let t = record.tally;
                out.add(format!("campaign.{slug}.masked"), t.masked as f64);
                out.add(format!("campaign.{slug}.detected"), t.detected as f64);
                out.add(
                    format!("campaign.{slug}.watchdog"),
                    t.caught_by_watchdog as f64,
                );
                out.add(
                    format!("campaign.{slug}.sdc"),
                    t.silent_data_corruption as f64,
                );
                out.add(
                    format!("campaign.{slug}.quarantined"),
                    record.quarantined as f64,
                );
                out.add("journal.bytes", record.journal_bytes as f64);
            }
        }
        out.set("campaign.replays", (self.units.len() * self.faults) as f64);
        // Method-1's modelled cost on the campaign's operands.
        let method1 = &self.guests[0];
        match layers::run_rocket(&method1.guest, self.timing) {
            Ok(eval) => {
                tally.failed += layers::verify(&eval.results, &self.vectors) as u64;
                out.set("sim_cycles_per_mul", eval.avg_total_cycles);
            }
            Err(_) => tally.failed += self.vectors.len() as u64,
        }
        let instret: u64 = self.guests.iter().map(|g| g.golden_instret).sum();
        let static_total: u64 = self
            .guests
            .iter()
            .map(|g| layers::static_instructions(&g.guest))
            .sum();
        out.set(
            "fault_campaign.dyn_per_static",
            instret as f64 / static_total as f64,
        );
        out
    }

    fn traced(&mut self, spans: &[Span], out: &mut Metrics) {
        let replays: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "campaign.replay")
            .map(|s| s.seconds() * 1e3)
            .collect();
        out.set("campaign.replay_ms", median(&replays));
        // The floor cost of a replay: fresh core and accelerator, load, run.
        let mut golden_ms = Vec::new();
        for entry in &self.guests {
            for _ in 0..5 {
                let start = Instant::now();
                let (accelerator, _probe) = FaultInjectingAccelerator::golden();
                let mut cpu = riscv_sim::Cpu::new();
                cpu.attach_coprocessor(Box::new(accelerator));
                lockstep::load_program(&mut cpu, &entry.guest.program);
                let _ = cpu.run(lockstep::guest_budget(&entry.guest));
                golden_ms.push(ms_since(start));
            }
        }
        out.set("campaign.golden_run_ms", median(&golden_ms));
        // The same pass without the journal.
        let start = Instant::now();
        for &(plan, g) in &self.units {
            let guest = &self.guests[g].guest;
            std::hint::black_box(run_campaign(&guest.program, &self.config(plan, guest)));
        }
        let unjournaled_s = start.elapsed().as_secs_f64();
        let journaled_s: f64 = spans
            .iter()
            .filter(|s| s.name == "campaign.run")
            .map(Span::seconds)
            .sum();
        out.set("journal.overhead_s", journaled_s - unjournaled_s);
    }
}
