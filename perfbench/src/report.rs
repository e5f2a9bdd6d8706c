//! Metric catalog, statistics helpers and the result line.

use std::collections::BTreeMap;

use codesign::kernels::KernelKind;

/// End-to-end metrics: `(name, unit)`. Every untraced run of every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "ops/s"),
    ("guest_mips", "Minstr/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_mul", "cycles"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_eval",
    "ledger_batches",
    "fault_campaign",
    "lockstep_conformance",
];

/// Kernels `paper_eval` runs on the Rocket model (Table IV and the Pareto
/// points); `ledger_batches` uses two of them.
pub const ROCKET_KERNELS: [KernelKind; 6] = [
    KernelKind::Software,
    KernelKind::Method1,
    KernelKind::Method1Dummy,
    KernelKind::Method2,
    KernelKind::Method3,
    KernelKind::Method4,
];

/// Kernels `paper_eval` runs on the atomic model (Table VI).
pub const ATOMIC_KERNELS: [KernelKind; 2] = [KernelKind::Method1Dummy, KernelKind::Software];

/// Layer-independent per-layer metrics: `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 42] = [
    ("testgen.generate_s", "s"),
    ("asm.build_guest_s", "s"),
    ("asm.guests", "count"),
    ("rocket.run_s", "s"),
    ("rocket.instret", "count"),
    ("rocket.timing_overhead_s", "s"),
    ("atomic.run_s", "s"),
    ("atomic.instret", "count"),
    ("functional.run_s", "s"),
    ("functional.mips", "Minstr/s"),
    ("rocc.commands", "count"),
    ("rocc.execute_s", "s"),
    ("rocc.busy_cycles", "cycles"),
    ("oracle.verify_s", "s"),
    ("oracle.checked", "count"),
    ("lockstep.pair_run_s", "s"),
    ("lockstep.instret_compared", "count"),
    ("lockstep.divergences", "count"),
    ("lockstep.overhead_s", "s"),
    ("campaign.replays", "count"),
    ("campaign.replay_ms", "ms"),
    ("campaign.golden_run_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("journal.overhead_s", "s"),
    ("testgen.self_s", "s"),
    ("asm.self_s", "s"),
    ("rocket.self_s", "s"),
    ("atomic.self_s", "s"),
    ("functional.self_s", "s"),
    ("oracle.self_s", "s"),
    ("lockstep.self_s", "s"),
    ("campaign.self_s", "s"),
    ("framework.self_s", "s"),
    ("split.asm_share", "fraction"),
    ("split.sim_share", "fraction"),
    ("ledger.small_batch.asm_share", "fraction"),
    ("ledger.small_batch.sim_share", "fraction"),
    ("ledger.repeat_key_share", "fraction"),
    ("error_rate", "fraction"),
    ("requests", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "fraction"),
];

/// Per-kernel Rocket statistics: `(suffix, unit)`.
const ROCKET_KERNEL_STATS: [(&str, &str); 6] = [
    ("mips", "Minstr/s"),
    ("cycles_per_mul", "cycles"),
    ("hw_cycles_per_mul", "cycles"),
    ("stall_cycles", "cycles"),
    ("icache_misses", "count"),
    ("dcache_misses", "count"),
];

/// Per-kernel atomic-model statistics.
const ATOMIC_KERNEL_STATS: [(&str, &str); 2] = [("mips", "Minstr/s"), ("sim_s", "s")];

/// Per-kernel fault-campaign tallies.
pub const CAMPAIGN_KERNEL_STATS: [&str; 5] =
    ["masked", "detected", "watchdog", "sdc", "quarantined"];

/// Every per-layer metric, `(name, unit)`. Every traced run of every
/// workload reports all of them; a layer the workload does not call reads 0.
#[must_use]
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for workload in WORKLOADS {
        out.push((format!("{workload}.dyn_per_static"), "ratio"));
    }
    for kind in ROCKET_KERNELS {
        for (stat, unit) in ROCKET_KERNEL_STATS {
            out.push((format!("rocket.{}.{stat}", kind.slug()), unit));
        }
    }
    for kind in ATOMIC_KERNELS {
        for (stat, unit) in ATOMIC_KERNEL_STATS {
            out.push((format!("atomic.{}.{stat}", kind.slug()), unit));
        }
    }
    for kind in KernelKind::FAULT_CAMPAIGN {
        for stat in CAMPAIGN_KERNEL_STATS {
            out.push((format!("campaign.{}.{stat}", kind.slug()), "count"));
        }
    }
    out
}

/// Named values. Setting a name twice keeps the last value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_default() += value;
    }

    /// The value of `name`, 0 if unset.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// True if `name` has been set.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Every `(name, value)` pair, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Copies every entry of `other` into `self`.
    pub fn extend(&mut self, other: &Metrics) {
        for (name, value) in other.iter() {
            self.set(name, value);
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the catalog's
/// metrics with their units, in catalog order.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(String, &'static str)],
    values: &Metrics,
) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let catalog = per_layer_catalog();
        assert!(catalog.len() <= 128);
        let mut names: Vec<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn result_line_carries_units() {
        let mut values = Metrics::default();
        values.set("setup_s", 0.25);
        let catalog = vec![("setup_s".to_string(), "s")];
        assert_eq!(
            result_line(true, 3, 0, &catalog, &values),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
