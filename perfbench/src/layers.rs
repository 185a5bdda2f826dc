//! Layer drivers: host ns per call into one simulator layer, timed from
//! outside through the layer's public functions.
//!
//! Every driver feeds its layer inputs shaped like the workload under
//! test (see [`Shape`]): the same driver run under `mess_loaded`, the
//! workload that stresses the memory controller, and under `copy_chase`,
//! which does not, gives the two sides of the comparison the benchmark's
//! per-layer table predicts. Inputs come from the benchmark's `--seed`.
//! Each driver reports ns per operation as the median over inner repeats,
//! and each driver loop is one span of the traced run.

use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::workloads::{build_system, derive_seed, Spec, Workload};
use mcs_sim::addr::{PhysAddr, CACHELINE};
use mcs_sim::cache::l1::{L1Out, L1};
use mcs_sim::cache::llc::{Llc, LlcOut};
use mcs_sim::cache::{CoreToL1, L1ToCore, L1ToLlc, LlcToL1, ServiceLevel};
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::core::{Core, CoreOut};
use mcs_sim::data::{LineData, SparseMem};
use mcs_sim::dram::{self, channel_of};
use mcs_sim::engine::{CopyEngine, EngineIo, NullEngine, Verdict};
use mcs_sim::link::DelayQueue;
use mcs_sim::mc::MemCtrl;
use mcs_sim::packet::{FreeDesc, LazyDesc, MemCmd, Node, Packet};
use mcs_sim::program::FixedProgram;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcs_sim::Cycle;
use mcsquare::{Ctt, McSquareConfig, McSquareEngine};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Inner repeats per driver; each metric is their median.
const REPEATS: usize = 7;

type Metrics = Vec<(String, f64, String)>;

type Driver<'a> = dyn Fn(&Shape) -> Metrics + 'a;

/// Run every layer driver for workload `w`. `ctt_entries` is the CTT
/// occupancy the workload's own jobs reached (`ctt_peak_entries`).
pub fn run_all(w: Workload, seed: u64, ctt_entries: usize, tracer: &Tracer) -> Metrics {
    let shape = Shape::of(w, seed);
    let mut m = Metrics::new();
    let drivers: [(&'static str, &Driver); 9] = [
        ("driver.link", &link),
        ("driver.dram", &dram_layer),
        ("driver.mc", &mc),
        ("driver.core", &core),
        ("driver.l1", &l1),
        ("driver.llc", &llc),
        ("driver.ctt", &|s: &Shape| ctt(s, ctt_entries)),
        ("driver.engine", &engine),
        ("driver.system", &|s: &Shape| system(w, s)),
    ];
    for (name, f) in drivers {
        m.extend(tracer.scope(name, 0, SpanId::NONE, 0, |_| f(&shape)));
    }
    m
}

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One memory operation of a driver input stream.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Requesting core.
    core: usize,
    addr: PhysAddr,
    write: bool,
    /// The workload would miss the private caches here.
    miss: bool,
}

/// The workload-shaped inputs of the drivers.
struct Shape {
    /// Memory technologies the workload runs on.
    techs: Vec<MemTech>,
    /// Busy cores.
    cores: usize,
    /// Messages in flight on one link in a typical cycle.
    link_depth: usize,
    /// Memory operations in program order, interleaved across cores.
    ops: Vec<Op>,
    /// Lines a lazy copy's destination is read back at, per 4 KB copy.
    lazy_reads_per_page: u64,
    seed: u64,
}

/// Operations per driver input stream.
const OPS: usize = 16_384;

/// Base of the driver address space (DRAM, above the 1 MB low region).
const BASE: u64 = 1 << 28;

impl Shape {
    fn of(w: Workload, seed: u64) -> Shape {
        let mut rng = Rng::new(derive_seed(0x5eed_1a7e, seed) ^ w as u64);
        let mut ops = Vec::with_capacity(OPS);
        match w {
            // 8-byte loads and stores streaming a 4 MB copy (one miss per
            // line), then dependent loads at random lines of the 4 MB
            // destination (every one a miss).
            Workload::CopyChase => {
                let (src, dst) = (BASE, BASE + (8 << 20));
                for i in 0..OPS as u64 / 2 {
                    let off = i * 8;
                    let miss = off % CACHELINE == 0;
                    ops.push(Op {
                        core: 0,
                        addr: PhysAddr(src + off),
                        write: false,
                        miss,
                    });
                    ops.push(Op {
                        core: 0,
                        addr: PhysAddr(dst + off),
                        write: true,
                        miss,
                    });
                }
                for op in ops.iter_mut().skip(OPS * 7 / 8) {
                    let line = rng.below((4 << 20) / CACHELINE);
                    *op = Op {
                        core: 0,
                        addr: PhysAddr(dst + line * CACHELINE),
                        write: false,
                        miss: true,
                    };
                }
            }
            // One random probe-chase load over 8 MB per burst of four
            // full-line copy operations from each of four copy cores, each
            // streaming its own 512 KB buffer pair.
            Workload::MessLoaded => {
                let mut line = [0u64; 4];
                while ops.len() < OPS {
                    let l = rng.below((8 << 20) / CACHELINE);
                    ops.push(Op {
                        core: 0,
                        addr: PhysAddr(BASE + l * CACHELINE),
                        write: false,
                        miss: true,
                    });
                    for (c, next) in line.iter_mut().enumerate() {
                        for _ in 0..4 {
                            let off = (*next % ((512 << 10) / CACHELINE)) * CACHELINE;
                            let pair = BASE + (16 << 20) + c as u64 * (1 << 20);
                            ops.push(Op {
                                core: c + 1,
                                addr: PhysAddr(pair + off),
                                write: false,
                                miss: true,
                            });
                            ops.push(Op {
                                core: c + 1,
                                addr: PhysAddr(pair + (512 << 10) + off),
                                write: true,
                                miss: true,
                            });
                            *next += 1;
                        }
                    }
                }
                ops.truncate(OPS);
            }
            // Eight threads, each reading a random 8 KB tuple of its own
            // 256 KB partition and writing a new version of it, line by
            // line, round-robin across threads.
            Workload::Mvcc8t => {
                let mut cursor = [(0u64, 0u64); 8];
                let tuple_lines = 8192 / CACHELINE;
                'fill: loop {
                    for (c, cur) in cursor.iter_mut().enumerate() {
                        if cur.1 == 0 {
                            *cur = (rng.below(32), tuple_lines);
                        }
                        let part = BASE + c as u64 * (1 << 20);
                        let off = cur.0 * 8192 + (tuple_lines - cur.1) * CACHELINE;
                        cur.1 -= 1;
                        let miss = rng.below(4) != 0;
                        ops.push(Op {
                            core: c,
                            addr: PhysAddr(part + off),
                            write: false,
                            miss,
                        });
                        ops.push(Op {
                            core: c,
                            addr: PhysAddr(part + (512 << 10) + off),
                            write: true,
                            miss,
                        });
                        if ops.len() >= OPS {
                            break 'fill;
                        }
                    }
                }
            }
        }
        let (techs, cores, link_depth, lazy_reads_per_page) = match w {
            Workload::CopyChase => (vec![MemTech::Ddr4], 1, 2, 64),
            Workload::MessLoaded => (MemTech::ALL.to_vec(), 5, 8, 64),
            Workload::Mvcc8t => (vec![MemTech::Ddr4], 8, 16, 4),
        };
        Shape {
            techs,
            cores,
            link_depth,
            ops,
            lazy_reads_per_page,
            seed,
        }
    }
}

/// Median ns per op of `REPEATS` timings of `run`, which returns the ops
/// it performed; `prepare` builds fresh untimed state for each repeat.
fn ns_per_op<S>(mut prepare: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut state = prepare();
            let t0 = Instant::now();
            let n = run(&mut state);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(&state);
            ns / n.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn metric(name: &str, v: f64, unit: &str) -> (String, f64, String) {
    (name.to_string(), v, unit.to_string())
}

/// `link`: a `DelayQueue` carrying `link_depth` messages per cycle, and
/// peeks at empty inboxes (five per core per cycle in `System`).
fn link(s: &Shape) -> Metrics {
    let cycles = 100_000u64;
    let push_pop = ns_per_op(
        || DelayQueue::<L1ToLlc>::new(10),
        |q| {
            for now in 0..cycles {
                for k in 0..s.link_depth {
                    q.push(
                        now,
                        L1ToLlc::GetS {
                            line: PhysAddr(k as u64 * 64),
                            core: k,
                            prefetch: false,
                        },
                    );
                }
                while let Some(m) = q.pop(now) {
                    black_box(m);
                }
            }
            cycles * s.link_depth as u64
        },
    );
    let inboxes = 5 * s.cores;
    let peek = ns_per_op(
        || {
            (0..inboxes)
                .map(|_| DelayQueue::<L1ToLlc>::new(1))
                .collect::<Vec<_>>()
        },
        |qs| {
            for now in 0..cycles {
                for q in qs.iter() {
                    black_box(q.peek(black_box(now)));
                }
            }
            cycles * inboxes as u64
        },
    );
    vec![
        metric("link.push_pop_ns", push_pop, "ns"),
        metric("link.peek_empty_ns", peek, "ns"),
    ]
}

/// The workload's lines that map to channel 0 of `channels`, as
/// (address, write) pairs.
fn channel0_stream(s: &Shape, channels: usize) -> Vec<(PhysAddr, bool)> {
    s.ops
        .iter()
        .filter(|o| o.miss && channel_of(o.addr, channels) == 0)
        .map(|o| (o.addr.line_base(), o.write))
        .collect()
}

/// `dram`: `DramBackend::probe` and `access` of each technology on the
/// workload's miss stream (copy lines mixed with chase lines).
fn dram_layer(s: &Shape) -> Metrics {
    const PASSES: usize = 32;
    let mut m = Metrics::new();
    for tech in MemTech::ALL {
        let cfg = SystemConfig::builder().tech(tech).build();
        let stream = channel0_stream(s, cfg.channels);
        let fresh = || dram::build(&cfg.dram, cfg.channels);
        let probe = ns_per_op(fresh, |d| {
            let mut now = 0;
            for _ in 0..PASSES {
                for &(a, _) in &stream {
                    black_box(d.probe(now, a));
                    now += 4;
                }
            }
            (PASSES * stream.len()) as u64
        });
        let access = ns_per_op(fresh, |d| {
            let mut now = 0;
            for _ in 0..PASSES {
                for &(a, _) in &stream {
                    let (done, outcome) = d.access(now, a);
                    black_box(outcome);
                    now = (now + 4).max(done.saturating_sub(64));
                }
            }
            (PASSES * stream.len()) as u64
        });
        m.push(metric(
            &format!("dram.{}.probe_ns", tech.name()),
            probe,
            "ns",
        ));
        m.push(metric(
            &format!("dram.{}.access_ns", tech.name()),
            access,
            "ns",
        ));
    }
    m
}

/// A memory controller of `tech` fed from its input `DelayQueue`.
struct McRig {
    mc: MemCtrl,
    input: DelayQueue<Packet>,
    engine: NullEngine,
    mem: SparseMem,
    out: Vec<(Packet, Cycle)>,
}

impl McRig {
    fn new(tech: MemTech) -> (McRig, usize) {
        let cfg = SystemConfig::builder().tech(tech).build();
        let rig = McRig {
            mc: MemCtrl::new(0, cfg.mc.clone(), dram::build(&cfg.dram, cfg.channels)),
            input: DelayQueue::new(0),
            engine: NullEngine,
            mem: SparseMem::new(),
            out: Vec::new(),
        };
        (rig, cfg.channels)
    }

    fn tick(&mut self, now: Cycle) {
        self.mc.tick(
            now,
            &mut self.input,
            &mut self.engine,
            &mut self.mem,
            &mut self.out,
        );
        self.out.clear();
    }

    fn accesses(&self) -> u64 {
        self.mc.stats.reads + self.mc.stats.writes
    }
}

/// `mc`: `MemCtrl::tick` with empty queues, and with the input kept
/// topped up so the RPQ/WPQ stay full with the workload's miss stream;
/// host ns per completed DRAM access under that load. Averaged over the
/// workload's memory technologies.
fn mc(s: &Shape) -> Metrics {
    let cycles = 50_000u64;
    let mut per_tech = Vec::new();
    for &tech in &s.techs {
        let channels = McRig::new(tech).1;
        let stream = channel0_stream(s, channels);
        let idle = ns_per_op(
            || McRig::new(tech).0,
            |r| {
                for now in 0..cycles {
                    r.tick(now);
                }
                cycles
            },
        );
        let mut accesses = Vec::new();
        let sat = ns_per_op(
            || McRig::new(tech).0,
            |r| {
                let mut k = 0;
                for now in 0..cycles {
                    while r.input.len() < 8 {
                        let (a, write) = stream[k % stream.len()];
                        k += 1;
                        let pkt = if write {
                            Packet::write(a, LineData::splat(k as u8), Node::Mc(0))
                        } else {
                            Packet::read(a, Node::Mc(0))
                        };
                        r.input.push(now, pkt);
                    }
                    r.tick(now);
                }
                accesses.push(r.accesses());
                cycles
            },
        );
        let accesses = median(&accesses.iter().map(|&a| a as f64).collect::<Vec<_>>());
        per_tech.push([idle, sat, sat * cycles as f64 / accesses]);
    }
    let [idle, sat, per_access] = mean_per_column(&per_tech);
    vec![
        metric("mc.idle_tick_ns", idle, "ns"),
        metric("mc.saturated_tick_ns", sat, "ns"),
        metric("mc.access_ns", per_access, "ns"),
    ]
}

/// Column means of per-technology `[idle, saturated, per-access]` times.
fn mean_per_column(rows: &[[f64; 3]]) -> [f64; 3] {
    let n = rows.len() as f64;
    [0, 1, 2].map(|c| rows.iter().map(|r| r[c]).sum::<f64>() / n)
}

/// The workload's operations of core 0 as a uop program: 8-byte loads and
/// stores.
fn uops(s: &Shape) -> Vec<Uop> {
    s.ops
        .iter()
        .filter(|o| o.core == 0)
        .map(|o| {
            let kind = if o.write {
                UopKind::Store {
                    addr: o.addr,
                    size: 8,
                    data: StoreData::Splat(7),
                    nontemporal: false,
                }
            } else {
                UopKind::Load {
                    addr: o.addr,
                    size: 8,
                }
            };
            Uop::new(kind, StatTag::App)
        })
        .collect()
}

/// `core`: `Core::tick` running core 0's share of the workload; the driver
/// answers each request after an L1-hit or memory latency, by the
/// workload's miss pattern.
fn core(s: &Shape) -> Metrics {
    let cfg = SystemConfig::table1();
    let program = uops(s);
    let misses: std::collections::HashMap<u64, bool> = s
        .ops
        .iter()
        .filter(|o| o.core == 0)
        .map(|o| (o.addr.0, o.miss))
        .collect();
    let tick = ns_per_op(
        || {
            Core::new(
                0,
                cfg.core.clone(),
                Box::new(FixedProgram::new(program.clone())),
            )
        },
        |c| {
            let mut out = CoreOut::default();
            let mut pending: VecDeque<(Cycle, L1ToCore)> = VecDeque::new();
            let mut now = 0;
            while !c.finished() && now < 5_000_000 {
                while pending.front().is_some_and(|(t, _)| *t <= now) {
                    let (_, msg) = pending.pop_front().expect("front checked");
                    c.handle_l1(now, msg);
                }
                c.tick(now, &mut out);
                for m in out.to_l1.drain(..) {
                    let (resp, addr) = match m {
                        CoreToL1::Load { id, addr, size } => (
                            L1ToCore::LoadDone {
                                id,
                                data: vec![0; size as usize],
                                level: ServiceLevel::L1,
                            },
                            addr,
                        ),
                        CoreToL1::Store { id, addr, .. } => (L1ToCore::StoreDone { id }, addr),
                        CoreToL1::Clwb { id, addr } | CoreToL1::WbRange { id, addr, .. } => {
                            (L1ToCore::ClwbDone { id }, addr)
                        }
                        CoreToL1::Mclazy { id, desc } => (L1ToCore::MclazyDone { id }, desc.dst),
                        CoreToL1::Mcfree { .. } => continue,
                    };
                    let lat = if misses.get(&addr.0).copied().unwrap_or(false) {
                        200
                    } else {
                        4
                    };
                    // Keep delivery order monotone in time.
                    let at = pending
                        .back()
                        .map_or(now + lat, |(t, _)| (*t).max(now + lat));
                    pending.push_back((at, resp));
                }
                now += 1;
            }
            now
        },
    );
    vec![metric("core.tick_ns", tick, "ns")]
}

/// Answer an L1's requests to the LLC as an LLC that always has the line
/// (`Data`, exclusive for `GetM`; `NtAck` for NT stores), until quiet.
fn answer_l1(l1: &mut L1, now: Cycle, out: &mut L1Out) {
    while !out.to_llc.is_empty() {
        let reqs: Vec<L1ToLlc> = out.to_llc.drain(..).collect();
        for r in reqs {
            let resp = match r {
                L1ToLlc::GetS { line, .. } => LlcToL1::Data {
                    line,
                    data: LineData::ZERO,
                    excl: false,
                    level: ServiceLevel::Mem,
                },
                L1ToLlc::GetM { line, .. } => LlcToL1::Data {
                    line,
                    data: LineData::ZERO,
                    excl: true,
                    level: ServiceLevel::Mem,
                },
                L1ToLlc::NtWrite { id, .. } => LlcToL1::NtAck { id },
                _ => continue,
            };
            l1.handle_llc(now, resp, out);
        }
    }
    out.to_core.clear();
}

/// `l1`: `L1::handle_core` on the workload's loads and stores (its hits
/// and misses), the driver answering each miss as the LLC would.
fn l1(s: &Shape) -> Metrics {
    let cfg = SystemConfig::table1();
    let ns = ns_per_op(
        || L1::new(0, cfg.l1.clone()),
        |l1| {
            let mut out = L1Out::default();
            for (i, o) in s.ops.iter().enumerate() {
                let id = i as u64;
                let msg = if o.write {
                    CoreToL1::Store {
                        id,
                        addr: o.addr,
                        data: vec![1; 8],
                        nontemporal: false,
                    }
                } else {
                    CoreToL1::Load {
                        id,
                        addr: o.addr,
                        size: 8,
                    }
                };
                let now = i as Cycle;
                if !l1.handle_core(now, &msg, &mut out) {
                    answer_l1(l1, now, &mut out);
                    l1.handle_core(now, &msg, &mut out);
                }
                answer_l1(l1, now, &mut out);
            }
            s.ops.len() as u64
        },
    );
    vec![metric("l1.handle_core_ns", ns, "ns")]
}

/// Answer the LLC's outputs as the L1s and memory controllers would
/// (acks for invalidations and recalls, data for reads), until quiet.
fn answer_llc(llc: &mut Llc, now: Cycle, out: &mut LlcOut) {
    while !out.to_l1.is_empty() || !out.to_bus.is_empty() {
        let to_l1: Vec<_> = out.to_l1.drain(..).collect();
        let to_bus: Vec<_> = out.to_bus.drain(..).collect();
        for (core, msg, _) in to_l1 {
            let ack = match msg {
                LlcToL1::Inval { line } => L1ToLlc::InvalAck { line, core },
                LlcToL1::Recall { line, .. } => L1ToLlc::RecallAck {
                    line,
                    data: None,
                    core,
                },
                _ => continue,
            };
            llc.handle_l1(now, ack, out);
        }
        for (pkt, _) in to_bus {
            match pkt.cmd {
                MemCmd::ReadReq => llc.handle_pkt(now, pkt.make_read_resp(LineData::ZERO), out),
                MemCmd::WriteReq if pkt.needs_ack => llc.handle_pkt(now, pkt.make_write_ack(), out),
                _ => {}
            }
        }
    }
}

/// `llc`: `Llc::handle_l1` on the workload's misses from every core (reads
/// as `GetS`, writes as `GetM`), the driver answering recalls,
/// invalidations and memory reads; and `Llc::begin_cycle` on the LLC the
/// stream leaves behind.
fn llc(s: &Shape) -> Metrics {
    let cfg = SystemConfig::table1();
    let misses: Vec<&Op> = s.ops.iter().filter(|o| o.miss).collect();
    let fresh = || Llc::new(cfg.llc.clone(), cfg.channels);
    let handle = ns_per_op(fresh, |llc| {
        let mut out = LlcOut::default();
        for (i, o) in misses.iter().enumerate() {
            let line = o.addr.line_base();
            let msg = if o.write {
                L1ToLlc::GetM { line, core: o.core }
            } else {
                L1ToLlc::GetS {
                    line,
                    core: o.core,
                    prefetch: false,
                }
            };
            let now = i as Cycle;
            if !llc.handle_l1(now, msg.clone(), &mut out) {
                answer_llc(llc, now, &mut out);
                llc.handle_l1(now, msg, &mut out);
            }
            answer_llc(llc, now, &mut out);
        }
        misses.len() as u64
    });
    let cycles = 1_000_000;
    let begin = ns_per_op(
        || {
            let mut llc = fresh();
            let mut out = LlcOut::default();
            for (i, o) in misses.iter().enumerate() {
                let line = o.addr.line_base();
                llc.handle_l1(
                    i as Cycle,
                    L1ToLlc::GetS {
                        line,
                        core: o.core,
                        prefetch: false,
                    },
                    &mut out,
                );
                answer_llc(&mut llc, i as Cycle, &mut out);
            }
            (llc, out)
        },
        |(llc, out)| {
            for now in 0..cycles {
                llc.begin_cycle(misses.len() as Cycle + now, out);
            }
            cycles
        },
    );
    vec![
        metric("llc.handle_l1_ns", handle, "ns"),
        metric("llc.begin_cycle_ns", begin, "ns"),
    ]
}

/// Disjoint 4 KB (destination, source) page pairs for lazy copies.
fn copy_pages(rng: &mut Rng, n: usize) -> Vec<(PhysAddr, PhysAddr)> {
    let mut pages: Vec<u64> = (0..2 * n as u64).collect();
    for i in (1..pages.len()).rev() {
        pages.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pages
        .chunks(2)
        .map(|p| {
            (
                PhysAddr(BASE + p[0] * 8192),
                PhysAddr(BASE + p[1] * 8192 + 4096),
            )
        })
        .collect()
}

/// `ctt`: `Ctt::try_insert`, `lookup_line` and `remove_dst` at the
/// occupancy the workload reached, on tracked destination lines.
fn ctt(s: &Shape, entries: usize) -> Metrics {
    let capacity = McSquareConfig::default().ctt_entries;
    let live = entries.clamp(1, capacity / 2);
    let batch = 256;
    let mut rng = Rng::new(s.seed ^ 0xc77);
    let pages = copy_pages(&mut rng, live + batch);
    let (base, extra) = pages.split_at(live);
    let filled = || {
        let mut t = Ctt::new(capacity);
        for &(d, sr) in base {
            t.try_insert(d, sr, 4096).expect("room below capacity");
        }
        t
    };
    let insert = ns_per_op(filled, |t| {
        for &(d, sr) in extra {
            black_box(t.try_insert(d, sr, 4096)).expect("room below capacity");
        }
        extra.len() as u64
    });
    let probes: Vec<PhysAddr> = (0..4096)
        .map(|_| {
            base[rng.below(live as u64) as usize]
                .0
                .add(rng.below(64) * CACHELINE)
        })
        .collect();
    let lookup = ns_per_op(filled, |t| {
        for &a in &probes {
            black_box(t.lookup_line(a));
        }
        probes.len() as u64
    });
    let remove = ns_per_op(filled, |t| {
        for &a in probes.iter().take(1024) {
            t.remove_dst(a, CACHELINE);
        }
        1024
    });
    vec![
        metric("ctt.try_insert_ns", insert, "ns"),
        metric("ctt.lookup_line_ns", lookup, "ns"),
        metric("ctt.remove_dst_ns", remove, "ns"),
    ]
}

/// `engine`: `McSquareEngine` through `CopyEngine::on_arrive`: an MCLAZY
/// per 4 KB copy, demand reads of its tracked destination lines, and the
/// bounces and DRAM reads those cause, answered by the driver; then
/// MCFREE. Host ns per `on_arrive` call.
fn engine(s: &Shape) -> Metrics {
    let cfg = SystemConfig::table1();
    let channels = cfg.channels;
    let mut rng = Rng::new(s.seed ^ 0xe61e);
    let copies = copy_pages(&mut rng, 2048);
    let reads = s.lazy_reads_per_page;
    let ns = ns_per_op(
        || McSquareEngine::new(McSquareConfig::default(), channels),
        |e| {
            let e: &mut dyn CopyEngine = e;
            let mut calls = 0u64;
            let mut now: Cycle = 0;
            for &(dst, src) in &copies {
                let mut inbox: VecDeque<(usize, Packet)> = VecDeque::new();
                let mut lazy = Packet::read(dst, Node::Mc(channel_of(dst, channels)));
                lazy.cmd = MemCmd::Mclazy(LazyDesc {
                    dst,
                    src,
                    size: 4096,
                });
                inbox.push_back((channel_of(dst, channels), lazy));
                for k in 0..reads {
                    let line = dst.add((k * 64 / reads) * CACHELINE);
                    inbox.push_back((channel_of(line, channels), Packet::read(line, Node::Mc(0))));
                }
                let mut free = Packet::read(dst, Node::Mc(0));
                free.cmd = MemCmd::Mcfree(FreeDesc {
                    addr: dst,
                    size: 4096,
                });
                let mut done_free = false;
                let mut io = EngineIo {
                    wpq: (0, 64),
                    ..EngineIo::default()
                };
                while let Some((mcid, pkt)) = inbox.pop_front().or_else(|| {
                    (!done_free).then(|| {
                        done_free = true;
                        (0, free.clone())
                    })
                }) {
                    now += 1;
                    calls += 1;
                    black_box(matches!(
                        e.on_arrive(now, mcid, pkt, &mut io),
                        Verdict::Consumed
                    ));
                    for (tag, addr) in io.dram_reads.drain(..).collect::<Vec<_>>() {
                        e.on_dram_read(now, mcid, tag, addr, LineData::ZERO, false, &mut io);
                    }
                    io.dram_writes.clear();
                    for (p, _) in io.sends.drain(..) {
                        if let Node::Mc(j) = p.dest {
                            inbox.push_back((j, p));
                        }
                    }
                }
                for mcid in 0..channels {
                    e.tick(now, mcid, &mut io);
                }
            }
            calls
        },
    );
    vec![metric("engine.on_arrive_ns", ns, "ns")]
}

/// `system`: one of the workload's own jobs, advanced past its start
/// with `System::run`, then timed over the same cycle windows on two
/// copies: one unconditional `System::tick` per cycle, and `System::run`
/// (which elides provably idle work and skips idle stretches). Medians
/// over the windows.
fn system(w: Workload, s: &Shape) -> Metrics {
    const WINDOWS: usize = 3;
    let (spec, start, window) = match w {
        Workload::CopyChase => (Spec::Chase { mech: 0, frac: 1.0 }, 8_000_000, 1_000_000),
        Workload::MessLoaded => (
            Spec::Mess {
                tech: MemTech::Ddr4,
                lazy: false,
                burst: 4,
            },
            1_000_000,
            100_000,
        ),
        Workload::Mvcc8t => (
            Spec::Mvcc {
                kind: mcs_workloads::mvcc::UpdateKind::Rmw,
                lazy: true,
                frac: 1.0,
            },
            100_000,
            50_000,
        ),
    };
    let warm = || {
        let mut sys = build_system(spec.job(s.seed));
        let _ = sys.run(start);
        sys
    };
    let (mut ticked, mut ran) = (warm(), warm());
    let (mut full, mut run) = (Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        let t0 = Instant::now();
        for _ in 0..window {
            ticked.tick();
        }
        full.push(t0.elapsed().as_nanos() as f64 / window as f64);
        let c0 = ran.now();
        let t0 = Instant::now();
        let _ = ran.run(window);
        run.push(t0.elapsed().as_nanos() as f64 / (ran.now() - c0).max(1) as f64);
    }
    let ratios: Vec<f64> = run.iter().zip(&full).map(|(r, f)| 1.0 - r / f).collect();
    vec![
        metric("system.full_tick_ns", median(&full), "ns"),
        metric("system.run_cycle_ns", median(&run), "ns"),
        metric("system.elided_frac", median(&ratios), "frac"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_metrics_are_per_technology_means() {
        let rows = [[1.0, 10.0, 20.0], [2.0, 30.0, 40.0], [3.0, 50.0, 90.0]];
        assert_eq!(mean_per_column(&rows), [2.0, 30.0, 50.0]);
        assert_eq!(mean_per_column(&rows[..1]), rows[0]);
    }

    #[test]
    fn shapes_are_seeded_and_sized() {
        for w in Workload::ALL {
            let a = Shape::of(w, 3);
            let b = Shape::of(w, 3);
            let c = Shape::of(w, 4);
            assert_eq!(a.ops.len(), OPS);
            assert_eq!(
                a.ops.iter().map(|o| o.addr.0).collect::<Vec<_>>(),
                b.ops.iter().map(|o| o.addr.0).collect::<Vec<_>>()
            );
            assert_ne!(
                a.ops.iter().map(|o| o.addr.0).collect::<Vec<_>>(),
                c.ops.iter().map(|o| o.addr.0).collect::<Vec<_>>()
            );
            assert!(a.ops.iter().all(|o| o.core < a.cores));
        }
    }
}
