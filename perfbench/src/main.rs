//! `mcs-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <copy_chase|mess_loaded|mvcc_8t|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload's jobs (every job a point of a committed figure)
//! through `Job::run` on at most `nproc` worker threads, repeating whole
//! sweeps (at least two) until `--seconds` have passed, and checks every
//! job. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it records spans around its own calls into the simulator,
//! runs the layer drivers, and reports the per-layer metrics.
//! `--workload all` runs every workload untraced and then traced in this
//! one process and also prints the tracing overhead. Every metric is
//! printed as `workload name value unit`; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! See RATIONALE.md.

mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod sweep;
mod workloads;

use report::Report;
use spans::Tracer;
use std::time::Instant;
use workloads::{Workload, COMMITTED_SEED};

/// Set-ups timed before the first sweep and again after each sweep;
/// `setup_s` is the median of them all.
const SETUP_REPEATS: usize = 3;

/// Sweeps per run at least; more start while `--seconds` have not passed.
const MIN_SWEEPS: usize = 2;

/// Environment variables of the deprecated options shim: each would
/// silently change what is simulated.
const REFUSED_ENV: [&str; 3] = ["MCS_REFRESH", "MCS_FAULTS", "MCS_TRACE"];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if val == "all" {
                    None
                } else {
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
                })
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(v) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {v} set (it would change what is simulated)");
        std::process::exit(2);
    }
    // Pin the simulation options before any configuration is built.
    mcs_sim::config::set_sim_options(mcs_sim::config::SimOptions::default());
    let workers = host::workers();
    println!(
        "# perfbench seed={} ({}) seconds={} trace={} workers={workers}",
        args.seed,
        if args.seed == COMMITTED_SEED {
            "committed: rows gated against results/"
        } else {
            "rows unchecked"
        },
        args.seconds,
        u8::from(args.trace),
    );

    let mut out = Report::default();
    match args.workload {
        Some(w) => {
            let r = run_workload(w, &args, args.trace, workers);
            r.print(w.name());
            out.merge("", r);
        }
        None => {
            for w in Workload::ALL {
                let plain = run_workload(w, &args, false, workers);
                let traced = run_workload(w, &args, true, workers);
                let overhead =
                    traced.value("trace.sweep_wall_s") / plain.value("sweep_wall_s") - 1.0;
                plain.print(w.name());
                traced.print(w.name());
                println!("{}\ttrace.overhead_measured\t{overhead:.4}\tfrac", w.name());
                out.merge(w.name(), plain);
                out.merge(w.name(), traced);
            }
        }
    }
    println!("{}", out.json());
}

/// Run one workload for `args.seconds` and collect its metrics.
fn run_workload(w: Workload, args: &Args, trace: bool, workers: usize) -> Report {
    let tracer = Tracer::new(trace);
    let rows = w.rows();
    let specs: Vec<workloads::Spec> = rows.iter().flat_map(|r| r.specs.clone()).collect();
    let seed = args.seed;
    let make = |i: usize| specs[i].job(workloads::job_seed(seed, i));
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(specs[i].weight()));

    let mut setup = sweep::Setup::default();
    let set_up = |setup: &mut sweep::Setup| {
        sweep::measure_setup(
            setup,
            specs.len(),
            &|i| specs[i].generate(workloads::job_seed(seed, i)),
            &|i, job| specs[i].reseed(job, workloads::job_seed(seed, i)),
            SETUP_REPEATS,
            &tracer,
        )
    };
    set_up(&mut setup);
    let committed: Vec<Option<String>> = rows
        .iter()
        .map(|r| {
            (seed == COMMITTED_SEED).then(|| {
                std::fs::read_to_string(workloads::results_path(r.file()))
                    .unwrap_or_else(|e| panic!("read committed {}: {e}", r.file()))
            })
        })
        .collect();

    let t0 = Instant::now();
    let mut sweeps = Vec::new();
    loop {
        let mut sw = tracer.scope("sweep", sweeps.len() as u64, spans::SpanId::NONE, 0, |sp| {
            sweep::run_sweep(&order, &make, workers, &tracer, sp)
        });
        // Row gate: every job of a drifted row counts as failed.
        let mut first = 0;
        for (r, text) in rows.iter().zip(&committed) {
            let idx = first..first + r.specs.len();
            first = idx.end;
            let Some(text) = text else { continue };
            let stats: Option<Vec<_>> = sw.jobs[idx.clone()]
                .iter()
                .map(|j| j.stats.as_ref())
                .collect();
            let Some(stats) = stats else { continue };
            match workloads::gate(r.file(), text, r.key_len(), &r.cells(&stats)) {
                Ok(workloads::Gated::Equal) => {}
                Ok(workloads::Gated::KnownStale(note)) => {
                    if sweeps.is_empty() {
                        println!("# {note}");
                    }
                }
                Err(e) => {
                    for j in &mut sw.jobs[idx] {
                        j.failure.get_or_insert_with(|| e.clone());
                    }
                }
            }
        }
        for (i, j) in sw.jobs.iter().enumerate() {
            eprintln!(
                "perfbench: {} job {i} {:?}: {} cycles, {:.3} CPU-s{}",
                w.name(),
                specs[i],
                j.cycles,
                j.cpu_s,
                j.failure
                    .as_ref()
                    .map_or(String::new(), |f| format!(", FAILED: {f}")),
            );
        }
        sweeps.push(sw);
        set_up(&mut setup);
        if sweeps.len() >= MIN_SWEEPS && host::since(t0) >= args.seconds {
            break;
        }
    }

    let mut r = report::end_to_end(&sweeps, &setup, trace);
    if trace {
        r.extend(report::per_layer(&sweeps, &setup));
        let ctt_entries = r.value("ctt.peak_entries") as usize;
        r.extend(layers::run_all(w, seed, ctt_entries, &tracer));
        let span_ns = report::span_cost_ns();
        let traced_wall: f64 = sweeps.iter().map(|s| s.wall_s).sum();
        r.push("bench.sweeps", sweeps.len() as f64, "count");
        r.push("trace.spans", tracer.len() as f64, "count");
        r.push("trace.span_cost_ns", span_ns, "ns");
        r.push(
            "trace.overhead_frac",
            tracer.len() as f64 * span_ns * 1e-9 / traced_wall,
            "frac",
        );
        for (name, s) in tracer.self_times() {
            r.push(&format!("span.{name}.self_s"), s, "s");
        }
        let path = report::write_spans(&tracer, w.name(), seed);
        eprintln!("perfbench: wrote {} spans to {path}", tracer.len());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mvcc_8t --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Mvcc8t));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(
            args("--workload all --seed 0 --seconds 1")
                .unwrap()
                .workload,
            None
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload all --seconds 1").is_err());
        assert!(args("--workload all --seed 1 --seconds 0").is_err());
        assert!(args("--workload all --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload all --seed 1 --seconds 1 --sched tick").is_err());
    }
}
