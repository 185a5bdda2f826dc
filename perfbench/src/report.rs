//! Metric collection and output: the end-to-end metrics of an untraced
//! run, the per-layer metrics of a traced run, and the final JSON line.

use crate::host;
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, percentile};
use crate::sweep::{JobRecord, Setup, Sweep};
use mcs_sim::stats::{RunStats, StallReason};
use std::time::Instant;

/// Named metrics with units, plus the job counts of the run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed.
    pub failed: u64,
}

impl Report {
    /// Add a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Append `other`'s metrics (its job counts are not added).
    pub fn extend(&mut self, other: Vec<(String, f64, String)>) {
        self.metrics.extend(other);
    }

    /// Value of metric `name`.
    ///
    /// # Panics
    /// Panics if the metric is absent.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }

    /// Fold `other` in, prefixing its metric names with `prefix.` (none
    /// when empty) and adding its job counts.
    pub fn merge(&mut self, prefix: &str, other: Report) {
        for (n, v, u) in other.metrics {
            let n = if prefix.is_empty() {
                n
            } else {
                format!("{prefix}.{n}")
            };
            self.metrics.push((n, v, u));
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Print every metric as `workload<TAB>name<TAB>value<TAB>unit`, and
    /// the failure share (which the JSON carries as `attempted`/`failed`).
    pub fn print(&self, workload: &str) {
        for (n, v, u) in &self.metrics {
            println!("{workload}\t{n}\t{v}\t{u}");
        }
        println!(
            "{workload}\tjobs_failed_frac\t{}\tfrac\t({} of {} jobs)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted,
        );
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", "),
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Job counts of every sweep, and (untraced) the end-to-end metrics.
///
/// Host time is noisy on a shared machine, so each job's CPU time is its
/// median over the run's sweeps and the sweep wall time is the median
/// sweep; a job that failed in any sweep is left out of the rate.
pub fn end_to_end(sweeps: &[Sweep], setup: &Setup, trace: bool) -> Report {
    let jobs = sweeps.iter().flat_map(|s| &s.jobs);
    let mut r = Report {
        attempted: jobs.clone().count() as u64,
        failed: jobs.filter(|j| j.failure.is_some()).count() as u64,
        ..Report::default()
    };
    if !trace {
        let (mut cycles, mut cpu) = (0u64, 0.0);
        for i in 0..sweeps[0].jobs.len() {
            let runs: Vec<&JobRecord> = sweeps.iter().map(|s| &s.jobs[i]).collect();
            if runs.iter().all(|j| j.failure.is_none()) {
                cycles += runs[0].cycles;
                cpu += median(&runs.iter().map(|j| j.cpu_s).collect::<Vec<_>>());
            }
        }
        let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
        r.push(
            "sim_mcycles_per_cpu_s",
            ratio(cycles as f64 / 1e6, cpu),
            "Mcycles/s",
        );
        r.push("sweep_wall_s", median(&walls), "s");
        r.push("setup_s", setup.total_s(), "s");
        r.push("peak_rss_mb", setup.peak_rss_mb, "MiB");
    }
    r
}

/// Per-layer metrics from the sweeps themselves: harness use, set-up
/// parts, and the exact simulated counts of the first sweep.
pub fn per_layer(sweeps: &[Sweep], setup: &Setup) -> Vec<(String, f64, String)> {
    let mut m = Vec::new();
    let mut push = |n: &str, v: f64, u: &str| m.push((n.to_string(), v, u.to_string()));
    let cpus: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.jobs.iter().map(|j| j.cpu_s))
        .collect();
    let busy: f64 = cpus.iter().sum();
    let capacity: f64 = sweeps.iter().map(|s| s.wall_s * s.workers as f64).sum();
    push("bench.jobs", sweeps[0].jobs.len() as f64, "count");
    push("bench.workers", sweeps[0].workers as f64, "count");
    push("bench.harness_util", ratio(busy, capacity), "frac");
    push("bench.job_cpu_s_p50", percentile(&cpus, 50.0), "s");
    push("bench.job_cpu_s_max", percentile(&cpus, 100.0), "s");
    push("workloads.gen_s", setup.gen_s(), "s");
    push("system.build_s", setup.build_s(), "s");
    push(
        "trace.sweep_wall_s",
        median(&sweeps.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        "s",
    );
    push("bench.sweep_peak_rss_mb", host::peak_rss_mb(), "MiB");

    let st: Vec<&RunStats> = sweeps[0]
        .jobs
        .iter()
        .filter_map(|j| j.stats.as_ref())
        .collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| st.iter().map(|s| f(s)).sum::<u64>() as f64;
    let cores = |f: &dyn Fn(&mcs_sim::stats::CoreStats) -> u64| {
        sum(&|s: &RunStats| s.cores.iter().map(f).sum())
    };
    push("bench.sim_mcycles", sum(&|s| s.cycles) / 1e6, "Mcycles");
    push("core.retired_uops", cores(&|c| c.retired), "count");
    push(
        "core.stall_frac",
        ratio(cores(&|c| c.stalled_cycles), cores(&|c| c.cycles)),
        "frac",
    );
    push(
        "core.mclazy_stall_cycles",
        cores(&|c| {
            c.stalls
                .get(&StallReason::MclazySlots)
                .copied()
                .unwrap_or(0)
        }),
        "cycles",
    );
    let l1 = |f: &dyn Fn(&mcs_sim::stats::CacheStats) -> u64| {
        sum(&|s: &RunStats| s.l1.iter().map(f).sum())
    };
    push(
        "l1.miss_ratio",
        ratio(l1(&|c| c.misses), l1(&|c| c.hits + c.misses)),
        "frac",
    );
    push(
        "llc.miss_ratio",
        ratio(sum(&|s| s.llc.misses), sum(&|s| s.llc.hits + s.llc.misses)),
        "frac",
    );
    push(
        "llc.prefetch_hit_ratio",
        ratio(
            sum(&|s| s.llc.prefetch_hits),
            sum(&|s| s.llc.prefetches_issued),
        ),
        "frac",
    );
    let mcs = |f: &dyn Fn(&mcs_sim::stats::McStats) -> u64| {
        sum(&|s: &RunStats| s.mcs.iter().map(f).sum())
    };
    push("mc.dram_accesses", sum(&|s| s.dram_accesses()), "count");
    push(
        "mc.row_hit_ratio",
        ratio(
            mcs(&|m| m.row_hits),
            mcs(&|m| m.row_hits + m.row_misses + m.row_conflicts),
        ),
        "frac",
    );
    push(
        "mc.demand_read_ns",
        ratio(
            mcs(&|m| m.demand_read_lat_sum),
            mcs(&|m| m.demand_reads_done),
        ) / mcs_bench::CYCLES_PER_NS,
        "ns",
    );
    push(
        "mc.input_stall_cycles",
        sum(&|s| s.mc_input_stalls()),
        "cycles",
    );
    for (metric, counter) in [
        ("ctt.inserts", "ctt_inserts"),
        ("ctt.full_rejects", "ctt_full_rejects"),
        ("engine.bounces_sent", "bounces_sent"),
        ("engine.recon_demand", "recon_demand"),
        ("engine.reads_from_bpq", "reads_from_bpq"),
    ] {
        push(metric, sum(&|s| s.engine_counter(counter)), "count");
    }
    push(
        "ctt.peak_entries",
        st.iter()
            .map(|s| s.engine_counter("ctt_peak_entries"))
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m
}

/// Host cost of recording one span (a begin/end pair), in ns.
pub fn span_cost_ns() -> f64 {
    let t = Tracer::new(true);
    let n = 100_000;
    let t0 = Instant::now();
    for i in 0..n {
        let s = t.begin("probe", i, SpanId::NONE, 0);
        t.end(s);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Write the run's spans as Chrome trace JSON under the benchmark's
/// `target/spans/` directory; returns the path.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> String {
    let dir = format!("{}/target/spans", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{workload}-seed{seed}.json");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    std::fs::write(&path, tracer.to_chrome_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_one_object_with_the_contract_keys() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        r.push("sweep_wall_s", 1.25, "s");
        r.push("bad", f64::NAN, "s");
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {")
        );
        assert!(j.contains("\"sweep_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(j.contains("\"bad\": {\"value\": 0.0"));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn merge_prefixes_and_adds_counts() {
        let mut a = Report {
            attempted: 2,
            ..Report::default()
        };
        let mut b = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        b.push("x", 1.0, "s");
        a.merge("w", b);
        assert_eq!((a.attempted, a.failed), (5, 1));
        assert_eq!(a.value("w.x"), 1.0);
    }
}
