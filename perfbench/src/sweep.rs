//! The job harness: a set-up phase that times job generation and machine
//! build, and a sweep that runs every job through `Job::run` on a fixed
//! pool of worker threads, containing failures so the sweep carries on.

use crate::host::{self, since, thread_cpu_s};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::workloads::build_system;
use mcs_bench::Job;
use mcs_sim::stats::RunStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Host cost of building a workload's jobs: one sample per set-up of the
/// whole job set, each summed over jobs.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    gens: Vec<f64>,
    builds: Vec<f64>,
    /// Peak resident memory while one job at a time is generated and
    /// built, over the first [`measure_setup`] call: the footprint of the
    /// largest job before its first cycle.
    pub peak_rss_mb: f64,
}

impl Setup {
    /// Job generation (the constructors), median over set-ups.
    pub fn gen_s(&self) -> f64 {
        median(&self.gens)
    }

    /// `System::new`/`with_engine` plus `Pokes::apply`, median over
    /// set-ups.
    pub fn build_s(&self) -> f64 {
        median(&self.builds)
    }

    /// Generation plus build, from construction start to the first
    /// simulated cycle: median over set-ups.
    pub fn total_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .gens
            .iter()
            .zip(&self.builds)
            .map(|(g, b)| g + b)
            .collect();
        median(&totals)
    }
}

/// Add `repeats` timed set-ups of every job to `setup`: generate the job
/// with `gen`, finish it untimed with `finish`, then build the machine
/// `Job::run` would build from it and drop it. Runs on the calling thread
/// with nothing else running and times that thread's CPU. The first call
/// resets the process's peak-RSS mark and records the peak, so it is the
/// set-up phase's alone; later calls, made between sweeps, spread the
/// samples over the run so no brief slow spell of the host sets the median.
pub fn measure_setup(
    setup: &mut Setup,
    n_jobs: usize,
    gen: &dyn Fn(usize) -> Job,
    finish: &dyn Fn(usize, &mut Job),
    repeats: usize,
    tracer: &Tracer,
) {
    let first = setup.gens.is_empty();
    if first {
        host::reset_peak_rss();
    }
    for _ in 0..repeats {
        let (mut g, mut b) = (0.0, 0.0);
        for i in 0..n_jobs {
            tracer.scope("setup", i as u64, SpanId::NONE, 0, |sp| {
                let t0 = thread_cpu_s();
                let mut job = tracer.scope("gen", i as u64, sp, 0, |_| gen(i));
                g += thread_cpu_s() - t0;
                finish(i, &mut job);
                let t1 = thread_cpu_s();
                let sys = tracer.scope("build", i as u64, sp, 0, |_| build_system(job));
                b += thread_cpu_s() - t1;
                drop(sys);
            });
        }
        setup.gens.push(g);
        setup.builds.push(b);
    }
    if first {
        setup.peak_rss_mb = host::peak_rss_mb();
    }
}

/// Outcome of one job of a sweep.
#[derive(Debug)]
pub struct JobRecord {
    /// Simulated cycles (0 if the job failed before finishing).
    pub cycles: u64,
    /// Worker-thread CPU seconds inside `Job::run`.
    pub cpu_s: f64,
    /// Statistics, when the run finished.
    pub stats: Option<RunStats>,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// One pass over a workload's jobs.
#[derive(Debug)]
pub struct Sweep {
    /// Records in job order.
    pub jobs: Vec<JobRecord>,
    /// Wall seconds from the first job constructor to the last job's end.
    pub wall_s: f64,
    /// Worker threads used.
    pub workers: usize,
}

/// Run every job once on `workers` threads, starting jobs in `order`.
/// Each job is constructed on its worker (`gen` span), run through
/// `Job::run` with panics contained (`run` span) and checked (`check`
/// span): a panic, a timeout past the job's cycle budget, or a failed
/// stall-accounting check marks the job failed and the sweep carries on.
pub fn run_sweep(
    order: &[usize],
    make: &(dyn Fn(usize) -> Job + Sync),
    workers: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Sweep {
    let n = order.len();
    let slots: Vec<Mutex<Option<JobRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers.min(n).max(1) {
            let (slots, next) = (&slots, &next);
            s.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else { break };
                let rec = tracer.scope("job", i as u64, parent, w, |sp| {
                    let job = tracer.scope("gen", i as u64, sp, w, |_| make(i));
                    let (res, cpu_s) = tracer.scope("run", i as u64, sp, w, |_| {
                        let c0 = thread_cpu_s();
                        let res = catch_unwind(AssertUnwindSafe(|| job.run()));
                        (res, thread_cpu_s() - c0)
                    });
                    tracer.scope("check", i as u64, sp, w, |_| check_job(res, cpu_s))
                });
                *slots[i].lock().expect("job slot poisoned") = Some(rec);
            });
        }
    });
    let wall_s = since(t0);
    let jobs = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("job slot poisoned")
                .expect("every job ran")
        })
        .collect();
    Sweep {
        jobs,
        wall_s,
        workers,
    }
}

/// Per-job checks that hold at any seed.
fn check_job(res: std::thread::Result<RunStats>, cpu_s: f64) -> JobRecord {
    let stats = match res {
        Ok(s) => s,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            let first = msg.lines().next().unwrap_or("");
            return JobRecord {
                cycles: 0,
                cpu_s,
                stats: None,
                failure: Some(format!("panic: {first}")),
            };
        }
    };
    let failure = stats.cores.iter().enumerate().find_map(|(c, cs)| {
        cs.check_stall_accounting()
            .err()
            .map(|e| format!("core {c}: {e}"))
    });
    JobRecord {
        cycles: stats.cycles,
        cpu_s,
        stats: Some(stats),
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::addr::PhysAddr;
    use mcs_sim::config::SystemConfig;
    use mcs_sim::uop::{StatTag, Uop, UopKind};
    use mcs_workloads::Pokes;

    fn loads(n: u64) -> Job {
        let uops = (0..n)
            .map(|i| {
                Uop::new(
                    UopKind::Load {
                        addr: PhysAddr(0x10_000 + i * 4096),
                        size: 8,
                    },
                    StatTag::App,
                )
            })
            .collect();
        Job::single(SystemConfig::tiny(), None, uops, Pokes::default())
    }

    #[test]
    fn tiny_cycle_budget_fails_one_job_and_the_sweep_carries_on() {
        mcs_sim::config::set_sim_options(mcs_sim::config::SimOptions::default());
        let make = |i: usize| {
            let mut j = loads(50);
            if i == 1 {
                j.max_cycles = 10;
            }
            j
        };
        let sweep = run_sweep(&[2, 1, 0, 3], &make, 2, &Tracer::new(false), SpanId::NONE);
        assert_eq!(sweep.jobs.len(), 4);
        let failed: Vec<usize> = (0..4)
            .filter(|&i| sweep.jobs[i].failure.is_some())
            .collect();
        assert_eq!(failed, vec![1]);
        assert!(sweep.jobs[1].failure.as_deref().unwrap().contains("panic"));
        for i in [0, 2, 3] {
            assert_eq!(sweep.jobs[i].stats.as_ref().unwrap().cores[0].loads, 50);
            assert!(sweep.jobs[i].cycles > 0);
        }
    }

    #[test]
    fn setup_calls_add_samples_and_record_the_peak() {
        let add = |s: &mut Setup, repeats| {
            measure_setup(
                s,
                2,
                &|_| loads(10),
                &|_, _| {},
                repeats,
                &Tracer::new(false),
            )
        };
        let mut s = Setup::default();
        add(&mut s, 3);
        add(&mut s, 2);
        assert_eq!((s.gens.len(), s.builds.len()), (5, 5));
        assert!(s.gens.iter().chain(&s.builds).all(|&t| t >= 0.0));
        assert!(s.peak_rss_mb > 0.0);
    }

    #[test]
    fn setup_total_is_the_median_set_up_not_a_sum_of_medians() {
        let s = Setup {
            gens: vec![1.0, 2.0, 3.0],
            builds: vec![3.0, 1.0, 2.0],
            peak_rss_mb: 1.0,
        };
        assert_eq!((s.gen_s(), s.build_s()), (2.0, 2.0));
        assert_eq!(s.total_s(), 4.0);
    }

    #[test]
    fn traced_sweep_records_job_spans_with_children() {
        mcs_sim::config::set_sim_options(mcs_sim::config::SimOptions::default());
        let t = Tracer::new(true);
        run_sweep(&[0, 1], &|_| loads(5), 2, &t, SpanId::NONE);
        let st = t.self_times();
        for name in ["job", "gen", "run", "check"] {
            assert!(st.contains_key(name), "{name}");
        }
        assert_eq!(t.len(), 8);
    }
}
