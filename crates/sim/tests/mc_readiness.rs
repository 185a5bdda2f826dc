//! Controller elision: a memory controller ticked only on the cycles the
//! event-driven scheduler would tick it must behave exactly like one
//! ticked every cycle.
//!
//! The reference twin ticks every cycle. The elided twin ticks only when
//! its cached [`MemCtrl::readiness`] has come due, its input queue has a
//! deliverable packet, or the engine asks for a tick. Both see the same
//! seeded arrival stream: batches that fill the RPQ and push the WPQ past
//! `wpq_drain_hi`, which the controller then works off with no input
//! pending (sleeping between issues), and single packets that arrive while
//! it sleeps. Every output packet
//! and the cycle it left, the final [`McStats`], the memory image and the
//! poisoned-line set must match, on DDR4/DDR5/HBM2, with refresh on and
//! off, with and without injected faults.

use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::data::{LineData, SparseMem};
use mcs_sim::dram;
use mcs_sim::engine::{CopyEngine, NullEngine};
use mcs_sim::fault::FaultPlan;
use mcs_sim::link::DelayQueue;
use mcs_sim::mc::MemCtrl;
use mcs_sim::packet::{MemCmd, Node, Packet};
use mcs_sim::stats::McStats;
use mcs_sim::{Cycle, PhysAddr};

/// Simulated cycles per configuration.
const CYCLES: Cycle = 40_000;
/// Distinct lines the stream touches on controller 0.
const FOOTPRINT: u64 = 2048;

/// One output packet as observed: (cycle, extra delay, id, command, line,
/// payload, poisoned).
type Seen = (Cycle, Cycle, u64, MemCmd, u64, Option<Vec<u8>>, bool);

struct Twin {
    mc: MemCtrl,
    input: DelayQueue<Packet>,
    mem: SparseMem,
    engine: NullEngine,
    seen: Vec<Seen>,
    ticks: u64,
}

impl Twin {
    fn new(cfg: &SystemConfig) -> Twin {
        let mut mc = MemCtrl::new(0, cfg.mc.clone(), dram::build(&cfg.dram, cfg.channels));
        mc.set_fault_plan(&cfg.fault);
        Twin {
            mc,
            input: DelayQueue::new(cfg.links.llc_mc),
            mem: SparseMem::new(),
            engine: NullEngine,
            seen: Vec::new(),
            ticks: 0,
        }
    }

    fn tick(&mut self, now: Cycle) {
        let mut out = Vec::new();
        self.mc.tick(
            now,
            &mut self.input,
            &mut self.engine,
            &mut self.mem,
            &mut out,
        );
        self.ticks += 1;
        for (p, extra) in out {
            let data = p.data.map(|d| d.read(0, 64).to_vec());
            self.seen
                .push((now, extra, p.id, p.cmd, p.addr.0, data, p.poisoned));
        }
    }
}

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
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

/// One packet for controller 0: 40% writes, 60% reads, clustered in a
/// small footprint for row hits, conflicts and WPQ forwarding.
fn packet(rng: &mut Rng, channels: u64) -> Packet {
    let addr = PhysAddr(rng.below(FOOTPRINT) * channels * 64);
    if rng.below(5) < 2 {
        Packet::write(addr, LineData::splat(rng.next() as u8), Node::Mc(0))
    } else {
        Packet::read(addr, Node::Mc(0))
    }
}

/// Packets arriving at `now`. Batches of 8–128 packets land at once, once
/// the previous batch has left the input queue, so the controller fills
/// its queues and then works them off with no input pending; single
/// packets trickle in at random cycles, often while it sleeps.
fn arrivals(rng: &mut Rng, now: Cycle, channels: u64, input_empty: bool) -> Vec<Packet> {
    let n = if now + 5000 > CYCLES {
        0 // let the controller drain before the end
    } else if input_empty && rng.below(400) == 0 {
        8 + rng.below(121)
    } else {
        (rng.below(50) == 0) as u64
    };
    (0..n).map(|_| packet(rng, channels)).collect()
}

fn check(tech: MemTech, refresh: bool, fault: FaultPlan) {
    let cfg = SystemConfig::builder()
        .tech(tech)
        .refresh(refresh)
        .fault(fault)
        .build();
    let label = format!(
        "{tech:?} refresh={refresh} faults={}",
        !cfg.fault.is_empty()
    );
    let channels = cfg.channels as u64;
    let mut rng = Rng(0x5eed ^ (tech as u64) << 8 ^ refresh as u64);
    let (mut full, mut lazy) = (Twin::new(&cfg), Twin::new(&cfg));
    let mut wake: Option<Cycle> = None; // None: tick (Active)
    let (mut max_rpq, mut max_wpq) = (0, 0);
    let mut slept_loaded = 0u64;
    for now in 0..CYCLES {
        for p in arrivals(&mut rng, now, channels, full.input.is_empty()) {
            full.input.push(now, p.clone());
            lazy.input.push(now, p);
        }
        full.tick(now);
        let (rpq, wpq, _) = full.mc.queue_depths();
        max_rpq = max_rpq.max(rpq);
        max_wpq = max_wpq.max(wpq);

        let due = wake.is_none_or(|w| w <= now);
        if due || lazy.input.peek(now).is_some() || lazy.engine.needs_tick(0) || now == CYCLES - 1 {
            lazy.tick(now);
            wake = lazy.mc.readiness();
        } else {
            let (rpq, wpq, _) = lazy.mc.queue_depths();
            slept_loaded += (rpq + wpq > 0) as u64;
        }
    }
    eprintln!(
        "{label}: {} of {} ticks elided, {slept_loaded} with work queued",
        full.ticks - lazy.ticks,
        full.ticks
    );

    assert!(
        max_rpq >= cfg.mc.rpq_cap,
        "{label}: the stream never filled the RPQ"
    );
    assert!(
        max_wpq as f64 >= cfg.mc.wpq_drain_hi * cfg.mc.wpq_cap as f64,
        "{label}: the stream never pushed the WPQ past wpq_drain_hi"
    );
    assert!(
        slept_loaded > CYCLES / 10,
        "{label}: the controller rarely slept with work queued"
    );
    assert!(
        full.mc.stats.reads + full.mc.stats.writes > 1000,
        "{label}: too little traffic"
    );

    assert_eq!(
        full.seen.len(),
        lazy.seen.len(),
        "{label}: output packet counts differ"
    );
    if let Some(i) = (0..full.seen.len()).find(|&i| full.seen[i] != lazy.seen[i]) {
        panic!(
            "{label}: output {i} differs: every-cycle {:?} vs elided {:?}",
            full.seen[i], lazy.seen[i]
        );
    }
    let (fs, ls): (&McStats, &McStats) = (&full.mc.stats, &lazy.mc.stats);
    assert_eq!(fs, ls, "{label}: McStats differ");
    for line in 0..FOOTPRINT {
        let a = PhysAddr(line * channels * 64);
        assert_eq!(
            full.mem.read_line(a),
            lazy.mem.read_line(a),
            "{label}: memory differs at {a:?}"
        );
    }
    assert_eq!(
        full.mem.backed_lines(),
        lazy.mem.backed_lines(),
        "{label}: memory footprints differ"
    );
    assert_eq!(
        full.mc.poisoned_lines(),
        lazy.mc.poisoned_lines(),
        "{label}: poison differs"
    );
    assert_eq!(
        full.mc.queue_depths(),
        lazy.mc.queue_depths(),
        "{label}: final queues differ"
    );
}

#[test]
fn elided_controller_matches_every_cycle_controller() {
    for tech in MemTech::ALL {
        for refresh in [false, true] {
            check(tech, refresh, FaultPlan::none());
        }
    }
}

#[test]
fn elided_controller_matches_under_faults() {
    for tech in MemTech::ALL {
        for refresh in [false, true] {
            check(tech, refresh, FaultPlan::mild(0xE1DE));
        }
    }
}
