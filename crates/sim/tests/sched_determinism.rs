//! Scheduler-mode determinism: the event-driven scheduler is an
//! *elision* of do-nothing cycles, never a reordering. These tests pin
//! that claim in several ways:
//!
//! * `EventDriven` vs `Conservative` must agree on the **entire**
//!   [`RunStats`] (every core, cache, controller, and engine counter)
//!   and on the final simulated clock, across all three memory
//!   technologies with refresh armed — refresh deadlines are the one
//!   periodic event a skip could plausibly jump over.
//! * `EventDriven` vs `TickByTick` must agree on the final clock and on
//!   every message-driven statistic (caches, controllers, engine).
//!   Per-cycle core accounting is compared too: idle cycles elided by a
//!   skip are re-attributed on wake, so totals match.
//! * Both hold under an active fault plan, whose decision streams are
//!   consumed per *event* and must therefore be schedule-invariant.
//! * `EventDriven` vs `Conservative` also agree at a small *loaded* point:
//!   four cores streaming loads and non-temporal stores keep every
//!   controller's RPQ and WPQ non-empty, the regime where controllers
//!   sleep between DRAM issues rather than between requests.
//! * An armed watchdog fires on the same cycle, with the same report, in
//!   both modes, even inside stretches the event-driven clock jumps.
//! * `EventDriven` vs `Conservative` also agree when eight cores overrun
//!   every L1's MSHRs and the LLC's, the regime where refusing caches
//!   sleep, with an MCLAZY snoop landing mid-run.

use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::FixedProgram;
use mcs_sim::stats::RunStats;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcs_sim::{PhysAddr, SchedMode, System, CACHELINE};

/// A per-core workload that exercises every scheduling-relevant path:
/// cached stores, loads, non-temporal stores, CLWB writebacks, fences,
/// compute gaps long enough to make the cores go quiet (so skips arm),
/// and a trailing pointer-chase-style reload of everything written.
fn workload(core: usize) -> Vec<Uop> {
    let base = 0x4_0000 + (core as u64) * 0x2_0000;
    let mut uops = Vec::new();
    for i in 0..24u64 {
        let line = PhysAddr(base + i * CACHELINE as u64);
        let nt = i % 5 == 0;
        let size: u8 = if nt { CACHELINE as u8 } else { 8 };
        uops.push(Uop::new(
            UopKind::Store {
                addr: line,
                size,
                data: StoreData::Imm(vec![core as u8; size as usize]),
                nontemporal: nt,
            },
            StatTag::App,
        ));
        if i % 4 == 0 {
            uops.push(Uop::new(UopKind::Clwb { addr: line }, StatTag::App));
        }
        if i % 8 == 7 {
            uops.push(Uop::new(UopKind::Mfence, StatTag::App));
            // A long quiet stretch: with nothing in flight the cores
            // report a wake-at hint and the scheduler may skip ahead.
            uops.push(
                Uop::new(UopKind::Compute { cycles: 600 }, StatTag::App),
            );
        }
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    for i in 0..24u64 {
        let line = PhysAddr(base + i * CACHELINE as u64);
        uops.push(Uop::new(
            UopKind::Load { addr: line, size: 8 },
            StatTag::App,
        ));
    }
    uops
}

/// A per-core streaming workload that saturates the memory controllers:
/// independent loads over one buffer interleaved with full-line
/// non-temporal stores to another, with no fences until the end.
fn loaded_workload(core: usize) -> Vec<Uop> {
    let src = 0x100_0000 + (core as u64) * 0x10_0000;
    let dst = 0x800_0000 + (core as u64) * 0x10_0000;
    let mut uops = Vec::new();
    for i in 0..384u64 {
        let off = i * CACHELINE;
        uops.push(Uop::new(
            UopKind::Load {
                addr: PhysAddr(src + off),
                size: 8,
            },
            StatTag::App,
        ));
        uops.push(Uop::new(
            UopKind::Store {
                addr: PhysAddr(dst + off),
                size: CACHELINE as u8,
                data: StoreData::Imm(vec![core as u8 + 1; CACHELINE as usize]),
                nontemporal: true,
            },
            StatTag::App,
        ));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops
}

fn run_mode(cfg: &SystemConfig, mode: SchedMode) -> (RunStats, u64) {
    run_with(cfg, mode, workload)
}

fn build(cfg: &SystemConfig, work: fn(usize) -> Vec<Uop>) -> System {
    let progs: Vec<Box<dyn mcs_sim::program::Program>> = (0..cfg.cores)
        .map(|c| Box::new(FixedProgram::new(work(c))) as Box<dyn mcs_sim::program::Program>)
        .collect();
    System::new(cfg.clone(), progs)
}

fn run_with(cfg: &SystemConfig, mode: SchedMode, work: fn(usize) -> Vec<Uop>) -> (RunStats, u64) {
    let mut sys = build(cfg, work);
    sys.set_sched_mode(mode);
    let stats = sys.run(20_000_000).expect("workload finishes");
    let now = sys.now();
    (stats, now)
}

fn cfg_for(tech: MemTech, fault: FaultPlan) -> SystemConfig {
    SystemConfig::builder().tech(tech).refresh(true).fault(fault).build()
}

#[test]
fn event_driven_matches_conservative_on_full_stats_all_techs() {
    for tech in [MemTech::Ddr4, MemTech::Ddr5, MemTech::Hbm2] {
        let cfg = cfg_for(tech, FaultPlan::none());
        let (cons, cons_now) = run_mode(&cfg, SchedMode::Conservative);
        let (ev, ev_now) = run_mode(&cfg, SchedMode::EventDriven);
        assert_eq!(
            cons_now, ev_now,
            "{tech:?}: final clock diverged between Conservative and \
             EventDriven"
        );
        assert_eq!(
            cons, ev,
            "{tech:?}: RunStats diverged between Conservative and \
             EventDriven"
        );
    }
}

#[test]
fn event_driven_matches_tick_by_tick() {
    let cfg = cfg_for(MemTech::Ddr4, FaultPlan::none());
    let (tick, tick_now) = run_mode(&cfg, SchedMode::TickByTick);
    let (ev, ev_now) = run_mode(&cfg, SchedMode::EventDriven);
    assert_eq!(tick_now, ev_now, "final clock diverged vs TickByTick");
    assert_eq!(tick.cycles, ev.cycles);
    assert_eq!(tick.l1, ev.l1, "L1 stats diverged vs TickByTick");
    assert_eq!(tick.llc, ev.llc, "LLC stats diverged vs TickByTick");
    assert_eq!(tick.mcs, ev.mcs, "MC stats diverged vs TickByTick");
    assert_eq!(tick.engine, ev.engine, "engine stats diverged");
    assert_eq!(
        tick.cores, ev.cores,
        "per-core accounting diverged vs TickByTick (idle re-attribution \
         on wake must cover every elided cycle)"
    );
}

#[test]
fn sched_modes_agree_under_faults() {
    let cfg = cfg_for(MemTech::Ddr5, FaultPlan::mild(0xFA17));
    let (cons, cons_now) = run_mode(&cfg, SchedMode::Conservative);
    let (ev, ev_now) = run_mode(&cfg, SchedMode::EventDriven);
    assert_eq!(cons_now, ev_now, "clock diverged under faults");
    assert_eq!(
        cons, ev,
        "fault schedules must be elision-invariant: streams are consumed \
         per event, not per cycle"
    );
}

/// Fraction of (100-cycle sample, controller) pairs of an event-driven
/// run of the loaded workload in which the controller had both a read and
/// a write queued.
fn busy_fraction(cfg: &SystemConfig) -> f64 {
    let mut sys = build(cfg, loaded_workload);
    let (mut samples, mut busy) = (0u32, 0u32);
    while sys.run(100).is_err() {
        for (rpq, wpq, _, _) in sys.probe_mc() {
            samples += 1;
            busy += (rpq > 0 && wpq > 0) as u32;
        }
    }
    busy as f64 / samples.max(1) as f64
}

#[test]
fn event_driven_matches_conservative_at_a_loaded_point() {
    for fault in [FaultPlan::none(), FaultPlan::mild(0x10AD)] {
        for tech in [MemTech::Ddr4, MemTech::Ddr5, MemTech::Hbm2] {
            let cfg = SystemConfig::builder()
                .cores(4)
                .tech(tech)
                .refresh(true)
                .fault(fault.clone())
                .build();
            let label = format!("{tech:?} faults={}", !fault.is_empty());
            let (cons, cons_now) = run_with(&cfg, SchedMode::Conservative, loaded_workload);
            let (ev, ev_now) = run_with(&cfg, SchedMode::EventDriven, loaded_workload);
            let mc_writes: u64 = ev.mcs.iter().map(|m| m.writes).sum();
            assert!(
                mc_writes >= 4 * 384,
                "{label}: the NT stores must reach DRAM"
            );
            assert!(
                busy_fraction(&cfg) > 0.5,
                "{label}: controllers were not kept loaded"
            );
            assert_eq!(cons_now, ev_now, "{label}: final clock diverged under load");
            assert_eq!(cons, ev, "{label}: RunStats diverged under load");
        }
    }
}

/// Independent loads that all map to one DRAM bank in different rows:
/// once they queue at the controller, each access waits out a row
/// conflict, leaving progress-free stretches of about a hundred cycles in
/// which the controller sleeps with work queued.
fn same_bank_workload(_core: usize) -> Vec<Uop> {
    (0..24u64)
        .map(|i| {
            Uop::new(
                UopKind::Load {
                    addr: PhysAddr(0x100_0000 + i * 0x10_0000),
                    size: 8,
                },
                StatTag::App,
            )
        })
        .collect()
}

#[test]
fn watchdog_fires_on_the_same_cycle_in_both_modes() {
    // Windows shorter than a row-conflict stretch: the event-driven clock
    // jumps over most of such a stretch, and the watchdog must still fire
    // on the cycle, and with the count, an executed tick would.
    let cfg = SystemConfig::builder().cores(1).tech(MemTech::Ddr4).build();
    let run = |mode: SchedMode, window: u64| {
        let mut sys = build(&cfg, same_bank_workload);
        sys.set_sched_mode(mode);
        (sys.run_with_watchdog(20_000_000, window), sys.now())
    };
    let mut fired = 0;
    for window in [40, 70, 100, 130] {
        let cons = run(SchedMode::Conservative, window);
        let ev = run(SchedMode::EventDriven, window);
        fired += cons.0.is_err() as u32;
        assert_eq!(cons, ev, "window {window}: watchdog outcome diverged");
    }
    assert!(fired > 0, "no window made the watchdog fire");
}

/// Lines per core region in [`contended_workload`].
const CONTENDED_LINES: u64 = 128;

/// A per-core workload that overruns both cache levels: misses on
/// distinct lines, in bit-reversed order so the stride prefetchers never
/// train, with no fence until the end. Odd cores store (RFOs from a
/// 56-entry store buffer), even cores load (32-entry load queue). Each
/// core walks its own region and a region all eight share; even cores
/// also read their odd neighbour's. Shared lines need recalls and
/// invalidations, and requests pile up behind their MSHRs, so the LLC
/// replays several at once. Each core keeps more misses in flight than
/// its L1 has MSHRs (24), and eight cores more than the LLC has (48).
/// Core 0 issues an MCLAZY halfway: its snoop writes back core 1's dirty
/// lines and invalidates lines only core 2 reads.
fn contended_workload(core: usize) -> Vec<Uop> {
    let region = |c: usize| 0x400_0000 + c as u64 * 0x10_0000;
    let shared = region(8);
    let bits = CONTENDED_LINES.trailing_zeros();
    let mut uops = Vec::new();
    for i in 0..CONTENDED_LINES {
        if core == 0 && i == CONTENDED_LINES / 2 {
            uops.push(Uop::new(
                UopKind::Mclazy { dst: PhysAddr(region(2)), src: PhysAddr(region(1)), size: 4096 },
                StatTag::Memcpy,
            ));
        }
        let off = (i.reverse_bits() >> (64 - bits)) * CACHELINE;
        let reader = core.is_multiple_of(2);
        let mut lines = vec![region(core) + off, shared + off];
        if reader {
            lines.push(region(core + 1) + off);
        }
        for addr in lines.into_iter().map(PhysAddr) {
            uops.push(Uop::new(
                if reader {
                    UopKind::Load { addr, size: 8 }
                } else {
                    UopKind::Store {
                        addr,
                        size: 8,
                        data: StoreData::Imm(vec![core as u8; 8]),
                        nontemporal: false,
                    }
                },
                StatTag::App,
            ));
        }
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops
}

#[test]
fn event_driven_matches_conservative_with_caches_refusing() {
    let cfg = SystemConfig::builder().cores(8).tech(MemTech::Ddr4).build();
    assert_eq!((cfg.l1.mshrs, cfg.llc.mshrs), (24, 48), "Table I MSHR files");

    // Every L1 and the LLC fill their MSHR files, so they refuse the
    // next miss.
    let mut sys = build(&cfg, contended_workload);
    let (mut l1_peak, mut llc_peak) = (vec![0; cfg.cores], 0);
    while sys.run(50).is_err() {
        assert!(sys.now() < 20_000_000, "contended workload did not finish");
        let (_, _, _, l1s, llc) = sys.probe();
        for (peak, n) in l1_peak.iter_mut().zip(l1s) {
            *peak = n.max(*peak);
        }
        llc_peak = llc.max(llc_peak);
    }
    assert_eq!(l1_peak, vec![cfg.l1.mshrs; cfg.cores], "an L1 never filled its MSHRs");
    assert_eq!(llc_peak, cfg.llc.mshrs, "the LLC never filled its MSHRs");

    let (cons, cons_now) = run_with(&cfg, SchedMode::Conservative, contended_workload);
    let (ev, ev_now) = run_with(&cfg, SchedMode::EventDriven, contended_workload);
    let uops: usize = (0..cfg.cores).map(|c| contended_workload(c).len()).sum();
    assert_eq!(cons.cores.iter().map(|c| c.retired).sum::<u64>(), uops as u64);
    assert_eq!(cons_now, ev_now, "final clock diverged with caches refusing");
    assert_eq!(cons, ev, "RunStats diverged with caches refusing");
}
