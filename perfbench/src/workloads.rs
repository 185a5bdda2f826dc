//! The three workloads, their jobs, and the committed-row gate.
//!
//! Every job is a point of a committed figure and is built from the same
//! public constructors as the figure binaries (`PointerChaseProgram::build`
//! for Fig. 13, `mess::job_for` for the bandwidth–latency curves,
//! `mvcc_multithread` for Figs. 16–17). Each randomised generator takes a
//! seed derived from the benchmark's `--seed`; at [`COMMITTED_SEED`] the
//! derived seeds are the ones the figures were generated with, so every
//! row must equal its committed `results/*.tsv` row byte for byte.

use mcs_bench::mess::{self, Point, Scale};
use mcs_bench::{f3, marker0, throughput_kops, Job};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::program::{FixedProgram, IdleProgram, Program};
use mcs_sim::stats::RunStats;
use mcs_sim::system::System;
use mcs_sim::Cycle;
use mcs_workloads::micro::PointerChaseProgram;
use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
use mcs_workloads::{CopyMech, Pokes};
use mcsquare::{McSquareConfig, McSquareEngine};

/// The benchmark seed at which generators get the seeds the committed
/// figures used.
pub const COMMITTED_SEED: u64 = 0;

/// Seed for a generator whose committed figure used `committed`.
pub fn derive_seed(committed: u64, seed: u64) -> u64 {
    if seed == COMMITTED_SEED {
        committed
    } else {
        splitmix64(committed ^ splitmix64(seed))
    }
}

/// Seed of job `job` in a run at `seed`: `seed` itself at the committed
/// seed, otherwise a distinct non-committed seed per job, so the jobs of a
/// run draw independent inputs and one seed's luck averages out.
pub fn job_seed(seed: u64, job: usize) -> u64 {
    if seed == COMMITTED_SEED {
        seed
    } else {
        splitmix64(seed ^ splitmix64(job as u64 + 1)) | 1
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 13: one core, DDR4, 4 MB copy then a dependent chase.
    CopyChase,
    /// `mess_curves` at burst 4: probe chase plus four paced copy cores.
    MessLoaded,
    /// The 8-thread rows of Figs. 16 and 17.
    Mvcc8t,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::CopyChase, Workload::MessLoaded, Workload::Mvcc8t];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CopyChase => "copy_chase",
            Workload::MessLoaded => "mess_loaded",
            Workload::Mvcc8t => "mvcc_8t",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's rows; each row lists the jobs that produce it.
    pub fn rows(self) -> Vec<Row> {
        match self {
            Workload::CopyChase => CHASE_FRACS
                .iter()
                .map(|&frac| Row {
                    specs: (0..CHASE_MECHS.len())
                        .map(|mech| Spec::Chase { mech, frac })
                        .collect(),
                })
                .collect(),
            Workload::MessLoaded => MemTech::ALL
                .iter()
                .flat_map(|&tech| {
                    [false, true].map(|lazy| Row {
                        specs: vec![Spec::Mess {
                            tech,
                            lazy,
                            burst: 4,
                        }],
                    })
                })
                .collect(),
            Workload::Mvcc8t => MVCC_FRACS
                .iter()
                .flat_map(|&frac| {
                    let rmw = [(UpdateKind::Rmw, false), (UpdateKind::Rmw, true)];
                    let wo = [
                        (UpdateKind::WriteOnly, false),
                        (UpdateKind::WriteOnly, true),
                        (UpdateKind::NonTemporal, true),
                    ];
                    [rmw.to_vec(), wo.to_vec()].map(|v| Row {
                        specs: v
                            .into_iter()
                            .map(|(kind, lazy)| Spec::Mvcc { kind, lazy, frac })
                            .collect(),
                    })
                })
                .collect(),
        }
    }
}

/// Fig. 13 destination fractions chased: at 12.5% the copy dominates host
/// time, at 100% the (mostly skipped) chase does.
const CHASE_FRACS: [f64; 2] = [0.125, 1.0];

/// Fig. 13 mechanisms run, in the committed column order (memcpy is the
/// normalisation base). All copy from a source misaligned by 20 bytes
/// with the post-bounce writeback on, as the figure's first three series.
const CHASE_MECHS: [CopyMech; 3] = [
    CopyMech::Native,
    CopyMech::Zio,
    CopyMech::McSquare { threshold: 0 },
];

/// Fig. 13 copy size (must exceed the LLC).
const CHASE_SIZE: u64 = 4 << 20;

/// Seed `fig13` builds its permutation with.
const CHASE_SEED: u64 = 1234;

/// Update fractions of the Figs. 16–17 rows run.
const MVCC_FRACS: [f64; 2] = [0.0625, 1.0];

/// MVCC threads (the "b" panels of Figs. 16–17).
const MVCC_THREADS: usize = 8;

/// Seeds `mess::job_for` hard-codes for the probe chain and for the
/// pacer chain of background core `b` (`PACER_SEED + b`).
const PROBE_SEED: u64 = 0x9e37_79b9;
const PACER_SEED: u64 = 0xc2b2_ae35;

/// One job: a point of a committed figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Spec {
    /// Fig. 13 point: mechanism index into the copy mechanisms, fraction.
    Chase { mech: usize, frac: f64 },
    /// `mess_curves` point at the full committed scale.
    Mess {
        tech: MemTech,
        lazy: bool,
        burst: u32,
    },
    /// Figs. 16 (`Rmw`) / 17 (`WriteOnly`, `NonTemporal`) 8-thread point.
    Mvcc {
        kind: UpdateKind,
        lazy: bool,
        frac: f64,
    },
}

impl Spec {
    /// Build the job for `seed`: [`Spec::generate`], then
    /// [`Spec::reseed`].
    pub fn job(&self, seed: u64) -> Job {
        let mut job = self.generate(seed);
        self.reseed(&mut job, seed);
        job
    }

    /// Generate the job's inputs as its figure does, with the generators'
    /// seeds derived from `seed`. `mess::job_for` hard-codes its seeds, so
    /// a `Mess` job comes out as at the committed seed; [`Spec::reseed`]
    /// finishes it. `max_cycles` is the budget a job must finish within (a
    /// run past it is a failure, not a measurement).
    pub fn generate(&self, seed: u64) -> Job {
        match *self {
            Spec::Chase { mech, frac } => {
                let mech = CHASE_MECHS[mech].clone();
                let mut space = AddrSpace::dram_3gb();
                let steps = ((CHASE_SIZE / 8) as f64 * frac) as u64;
                let (prog, pokes, _) = PointerChaseProgram::build(
                    mech.clone(),
                    CHASE_SIZE,
                    steps,
                    true,
                    derive_seed(CHASE_SEED, seed),
                    &mut space,
                );
                Job {
                    cfg: SystemConfig::table1_one_core(),
                    mc2: mech.needs_engine().then(McSquareConfig::default),
                    programs: vec![Box::new(prog)],
                    pokes,
                    max_cycles: self.cycle_budget(),
                }
            }
            Spec::Mess { tech, lazy, burst } => {
                let mut job = mess::job_for(&Point { tech, lazy, burst }, &Scale::full());
                job.max_cycles = self.cycle_budget();
                job
            }
            Spec::Mvcc { kind, lazy, frac } => {
                let mut space = AddrSpace::dram_3gb();
                let wcfg = MvccConfig {
                    tuples: 32,
                    tuple_size: 8192,
                    txns: MVCC_TXNS,
                    kind,
                    update_frac: frac,
                    seed: derive_seed(MvccConfig::default().seed, seed),
                    ..MvccConfig::default()
                };
                let mech = if lazy {
                    CopyMech::McSquare { threshold: 0 }
                } else {
                    CopyMech::Native
                };
                let mut cfg = SystemConfig::table1();
                cfg.cores = MVCC_THREADS;
                let mut pokes = Pokes::default();
                let mut programs: Vec<Box<dyn Program>> = Vec::new();
                for (u, p) in mvcc_multithread(mech, &wcfg, MVCC_THREADS, &mut space) {
                    programs.push(Box::new(FixedProgram::new(u)));
                    pokes.0.extend(p.0);
                }
                Job {
                    cfg,
                    mc2: lazy.then(McSquareConfig::default),
                    programs,
                    pokes,
                    max_cycles: self.cycle_budget(),
                }
            }
        }
    }

    /// Redraw the chain images of a `Mess` job at a non-committed `seed`
    /// (a no-op otherwise). This replaces images of the same size that
    /// [`Spec::generate`] already built, so it is not part of the job's
    /// set-up cost: the set-up phase leaves it out of its timings.
    pub fn reseed(&self, job: &mut Job, seed: u64) {
        if matches!(self, Spec::Mess { .. }) && seed != COMMITTED_SEED {
            reseed_chains(&mut job.pokes, seed);
        }
    }

    /// Cycle budget: about 3.5 times the longest committed-seed job of the
    /// workload (113 M, 16.5 M and 0.59 M cycles), so any seed finishes well
    /// inside it and a stuck run fails in seconds instead of running to
    /// the figures' 2·10¹⁰-cycle cap.
    pub fn cycle_budget(&self) -> Cycle {
        match self {
            Spec::Chase { .. } => 400_000_000,
            Spec::Mess { .. } => 60_000_000,
            Spec::Mvcc { .. } => 2_000_000,
        }
    }

    /// Host CPU time of the job at the committed seed, in tenths of a
    /// second (measured on a 2-core x86-64 container), so the sweep can
    /// start the longest jobs first and its workers finish together.
    pub fn weight(&self) -> u32 {
        match *self {
            Spec::Chase { mech, frac } => {
                [[19, 21, 49], [32, 34, 63]][usize::from(frac >= 1.0)][mech]
            }
            Spec::Mess { tech, lazy, .. } => match (tech, lazy) {
                (MemTech::Ddr4, false) => 66,
                (MemTech::Ddr4, true) => 54,
                (MemTech::Ddr5, false) => 108,
                (MemTech::Ddr5, true) => 56,
                (MemTech::Hbm2, false) => 51,
                (MemTech::Hbm2, true) => 38,
            },
            Spec::Mvcc { kind, lazy, frac } => match (kind, lazy, frac >= 1.0) {
                (UpdateKind::Rmw, false, _) => 11,
                (UpdateKind::Rmw, true, true) => 13,
                (UpdateKind::WriteOnly, false, _) => 9,
                (UpdateKind::WriteOnly, true, true) => 10,
                (_, _, true) => 5,
                (_, _, false) => 4,
            },
        }
    }
}

/// Transactions per MVCC thread (as Figs. 16–17).
const MVCC_TXNS: usize = 48;

/// Rebuild every pointer-chase image of a `mess::job_for` job with seeds
/// derived from `seed`, in place, releasing each committed-seed image
/// before building its replacement so the job's footprint stays the
/// same. The chains are single cycles over their buffers, so the start
/// pointers baked into the programs stay on the new chains; only the
/// visiting order changes.
fn reseed_chains(pokes: &mut Pokes, seed: u64) {
    for (i, (addr, image)) in pokes.0.iter_mut().enumerate() {
        let committed = if i == 0 {
            PROBE_SEED
        } else {
            PACER_SEED + (i as u64 - 1)
        };
        let len = std::mem::take(image).len() as u64;
        let mut fresh = Pokes::default();
        mess::chase_chain(*addr, len, derive_seed(committed, seed), &mut fresh);
        *image = fresh.0.pop().expect("chase_chain pokes one image").1;
    }
}

/// Build the machine `Job::run` would build for `job` (system, engine,
/// memory image) without running it.
pub fn build_system(job: Job) -> System {
    let Job {
        mut cfg,
        mc2,
        mut programs,
        pokes,
        ..
    } = job;
    while programs.len() < cfg.cores {
        programs.push(Box::new(IdleProgram));
    }
    cfg.cores = programs.len();
    let mut sys = match mc2 {
        Some(m) => {
            let engine = McSquareEngine::with_faults(m, cfg.channels, &cfg.fault);
            System::with_engine(cfg, programs, Box::new(engine))
        }
        None => System::new(cfg, programs),
    };
    pokes.apply(&mut sys);
    sys
}

/// A result row and the jobs that produce it.
#[derive(Clone, Debug)]
pub struct Row {
    /// Jobs in the committed column order.
    pub specs: Vec<Spec>,
}

impl Row {
    /// Committed file the row belongs to.
    pub fn file(&self) -> &'static str {
        match self.specs[0] {
            Spec::Chase { .. } => "fig13.tsv",
            Spec::Mess { .. } => "mess_curves.tsv",
            Spec::Mvcc {
                kind: UpdateKind::Rmw,
                ..
            } => "fig16.tsv",
            Spec::Mvcc { .. } => "fig17.tsv",
        }
    }

    /// Leading columns that identify the row in its file.
    pub fn key_len(&self) -> usize {
        match self.specs[0] {
            Spec::Chase { .. } => 1,
            Spec::Mess { .. } => 3,
            Spec::Mvcc { .. } => 2,
        }
    }

    /// The row's cells as the figure binary prints them, from the stats of
    /// its jobs (in `specs` order). Fig. 13 rows carry only the columns of
    /// the mechanisms run; the gate compares that prefix.
    pub fn cells(&self, stats: &[&RunStats]) -> Vec<String> {
        match self.specs[0] {
            Spec::Chase { frac, .. } => {
                let base = marker0(stats[0]) as f64;
                let mut row = vec![format!("{:.1}%", frac * 100.0)];
                row.extend(stats.iter().map(|s| f3(marker0(s) as f64 / base)));
                row
            }
            Spec::Mess { tech, lazy, burst } => {
                mess::row_for(&Point { tech, lazy, burst }, &Scale::full(), stats[0])
            }
            Spec::Mvcc { kind, frac, .. } => {
                let k: Vec<f64> = stats
                    .iter()
                    .map(|s| throughput_kops(s, MVCC_TXNS, MVCC_THREADS))
                    .collect();
                let mut row = vec![MVCC_THREADS.to_string(), format!("{:.2}%", frac * 100.0)];
                row.extend(k.iter().map(|&x| f3(x)));
                if kind == UpdateKind::Rmw {
                    row.push(f3(k[1] / k[0]));
                }
                row
            }
        }
    }
}

/// Committed rows the simulator no longer reproduces: (file, committed
/// cells, cells the figure binaries print at this benchmark's parent
/// commit). `results/fig13.tsv`, `fig16.tsv` and `fig17.tsv` predate model
/// changes and were never regenerated; the figure binaries themselves
/// print the second form. The gate accepts exactly that pair and reports
/// it, so a run still fails if either side moves.
const KNOWN_STALE: [(&str, &str, &str); 6] = [
    (
        "fig13.tsv",
        "12.5%\t1.000\t1.128\t1.038",
        "12.5%\t1.000\t1.127\t1.038",
    ),
    (
        "fig13.tsv",
        "100.0%\t1.000\t1.021\t1.008",
        "100.0%\t1.000\t1.021\t1.009",
    ),
    (
        "fig16.tsv",
        "8\t6.25%\t2726.682\t5624.684\t2.063",
        "8\t6.25%\t2727.108\t5871.807\t2.153",
    ),
    (
        "fig16.tsv",
        "8\t100.00%\t2707.381\t2394.258\t0.884",
        "8\t100.00%\t2785.222\t2598.778\t0.933",
    ),
    (
        "fig17.tsv",
        "8\t6.25%\t2715.859\t5970.985\t6928.750",
        "8\t6.25%\t2733.096\t6070.546\t6692.635",
    ),
    (
        "fig17.tsv",
        "8\t100.00%\t2699.867\t2450.402\t4657.241",
        "8\t100.00%\t2751.293\t2647.564\t4801.741",
    ),
];

/// How a row passed the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gated {
    /// Equal to the committed row.
    Equal,
    /// Equal to the known successor of a stale committed row.
    KnownStale(String),
}

/// Path of a committed result file.
pub fn results_path(file: &str) -> String {
    format!("{}/../results/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Compare `cells` with the committed row of `file` (whose text is
/// `committed`) that has the same first `key_len` columns, over the
/// cells' width. Keyed as `perf_smoke` keys its rows.
pub fn gate(
    file: &str,
    committed: &str,
    key_len: usize,
    cells: &[String],
) -> Result<Gated, String> {
    let key = &cells[..key_len];
    let line = committed
        .lines()
        .find(|l| {
            !l.starts_with('#')
                && l.split('\t')
                    .take(key_len)
                    .eq(key.iter().map(String::as_str))
        })
        .ok_or_else(|| format!("no committed row keyed {key:?}"))?;
    let want = line
        .split('\t')
        .take(cells.len())
        .collect::<Vec<_>>()
        .join("\t");
    let got = cells.join("\t");
    if want == got {
        Ok(Gated::Equal)
    } else if KNOWN_STALE.contains(&(file, want.as_str(), got.as_str())) {
        Ok(Gated::KnownStale(format!(
            "results/{file} row `{want}` is stale; the simulator prints `{got}`"
        )))
    } else {
        Err(format!(
            "row {key:?} drifted: committed `{want}`, simulated `{got}`"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_seed_is_identity_and_others_differ() {
        assert_eq!(derive_seed(1234, COMMITTED_SEED), 1234);
        assert_ne!(derive_seed(1234, 1), 1234);
        assert_ne!(derive_seed(1234, 1), derive_seed(1234, 2));
        assert_eq!(derive_seed(1234, 7), derive_seed(1234, 7));
        assert_eq!(job_seed(COMMITTED_SEED, 3), COMMITTED_SEED);
        let seeds: Vec<u64> = (0..16).map(|j| job_seed(7, j)).collect();
        assert!(seeds.iter().all(|&s| s != COMMITTED_SEED));
        assert!((1..16).all(|j| !seeds[..j].contains(&seeds[j])));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_row_is_keyed_in_its_committed_file() {
        for w in Workload::ALL {
            for row in w.rows() {
                let text =
                    std::fs::read_to_string(results_path(row.file())).expect("committed TSV");
                assert!(text.lines().skip(2).count() > 0, "{}", row.file());
            }
        }
    }

    #[test]
    fn gate_flags_a_row_perturbed_in_memory() {
        let text = std::fs::read_to_string(results_path("mess_curves.tsv")).expect("committed TSV");
        let line = text
            .lines()
            .find(|l| l.starts_with("ddr4\tmemcpy\t4\t"))
            .expect("burst-4 row");
        let cells: Vec<String> = line.split('\t').map(String::from).collect();
        let gate = |t: &str, c: &[String]| gate("mess_curves.tsv", t, 3, c);
        assert_eq!(gate(&text, &cells), Ok(Gated::Equal));
        let mut bad = cells.clone();
        bad[4] = format!("{}1", bad[4]);
        assert!(gate(&text, &bad).unwrap_err().contains("drifted"));
        let perturbed = text.replace(line, &bad.join("\t"));
        assert!(gate(&perturbed, &cells).is_err());
        let unkeyed = ["ddr4".into(), "memcpy".into(), "3".into()];
        assert!(gate(&text, &unkeyed)
            .unwrap_err()
            .contains("no committed row"));
    }

    #[test]
    fn gate_accepts_only_the_known_successor_of_a_stale_row() {
        let text = std::fs::read_to_string(results_path("fig16.tsv")).expect("committed TSV");
        let cells = |s: &str| s.split('\t').map(String::from).collect::<Vec<_>>();
        let now = cells("8\t6.25%\t2727.108\t5871.807\t2.153");
        assert!(matches!(
            gate("fig16.tsv", &text, 2, &now),
            Ok(Gated::KnownStale(_))
        ));
        assert!(gate("fig17.tsv", &text, 2, &now).is_err());
        let moved = cells("8\t6.25%\t2727.108\t5871.808\t2.153");
        assert!(gate("fig16.tsv", &text, 2, &moved).is_err());
        let fresh = text.replace("8\t6.25%\t2726.682\t5624.684\t2.063", &now.join("\t"));
        assert_eq!(gate("fig16.tsv", &fresh, 2, &now), Ok(Gated::Equal));
    }

    #[test]
    fn reseeded_mess_chain_keeps_buffers_and_changes_order() {
        let spec = Spec::Mess {
            tech: MemTech::Ddr4,
            lazy: false,
            burst: 4,
        };
        let a = spec.job(COMMITTED_SEED).pokes;
        let b = spec.job(5).pokes;
        assert_eq!(a.0.len(), b.0.len());
        for ((aa, ai), (ba, bi)) in a.0.iter().zip(&b.0) {
            assert_eq!((aa, ai.len()), (ba, bi.len()));
            assert_ne!(ai, bi);
        }
        let mut again = spec.job(COMMITTED_SEED).pokes;
        reseed_chains(&mut again, COMMITTED_SEED);
        assert_eq!(again.0, a.0);
    }
}
