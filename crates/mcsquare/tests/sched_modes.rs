//! Scheduler-mode differential with the (MC)² engine plugged in.
//!
//! Under `EventDriven` a controller's phase runs only when it has input,
//! DRAM work or engine background work (`CopyEngine::needs_tick`), and the
//! clock jumps over cycles on which nothing can act. `Conservative` ticks
//! every component, the engine included, on every executed cycle. The two
//! must agree on the full [`RunStats`] and the final clock.
//!
//! The workload keeps every engine mechanism busy, and the test asserts
//! that each one fired:
//!
//! * an 8-entry CTT, so the drain engine runs almost all the time, and a
//!   compute gap after each fenced copy, so the engine also spends
//!   stretches waiting on its own DRAM reads with nothing else to wake it
//!   (the stretches `needs_tick` lets the event-driven scheduler sleep
//!   through);
//! * non-temporal writes to sources of live copies, so lines sit in the
//!   BPQ until the dependent copies complete;
//! * a misaligned copy, so reconstructions bounce fragments to the other
//!   channels;
//! * demand reads of destinations, so reconstructions race the drain.
//!
//! It runs on DDR4, DDR5 and HBM2, each without faults and under a mild
//! fault plan (which also forces CTT flushes).

use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::FixedProgram;
use mcs_sim::stats::RunStats;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcs_sim::{PhysAddr, SchedMode, System, CACHELINE};
use mcsquare::config::McSquareConfig;
use mcsquare::engine::McSquareEngine;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

const COPIES: u64 = 24;
const COPY_BYTES: u64 = 256;
const SRC: u64 = 0x100_0000;
const DST: u64 = 0x400_0000;

fn src_of(k: u64) -> PhysAddr {
    // Every fourth copy reads a source misaligned by 20 bytes.
    PhysAddr(SRC + k * 0x2000 + if k % 4 == 3 { 20 } else { 0 })
}

fn dst_of(k: u64) -> PhysAddr {
    PhysAddr(DST + k * 0x1000)
}

fn workload() -> Vec<Uop> {
    let mut uops = Vec::new();
    let opts = LazyOpts::default();
    for k in 0..COPIES {
        uops.extend(memcpy_lazy_uops(uops.len() as u64, dst_of(k), src_of(k), COPY_BYTES, &opts));
        if k % 3 == 0 {
            // A write to the first source line of the copy just made.
            uops.push(Uop::new(
                UopKind::Store {
                    addr: PhysAddr(SRC + k * 0x2000),
                    size: CACHELINE as u8,
                    data: StoreData::Imm(vec![0xA5; CACHELINE as usize]),
                    nontemporal: true,
                },
                StatTag::App,
            ));
        }
        if k % 2 == 1 {
            // A demand read of the previous copy's destination.
            let d = dst_of(k - 1);
            uops.push(Uop::new(UopKind::Load { addr: d.add(CACHELINE), size: 8 }, StatTag::App));
        }
        // A gap in which the drain catches up: the engine then waits on
        // its own DRAM reads with no other traffic to wake it.
        uops.push(Uop::new(UopKind::Compute { cycles: 300 }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    for k in 0..COPIES {
        for off in (0..COPY_BYTES).step_by(CACHELINE as usize) {
            uops.push(Uop::new(UopKind::Load { addr: dst_of(k).add(off), size: 8 }, StatTag::App));
        }
    }
    uops
}

fn run(cfg: &SystemConfig, mode: SchedMode) -> (RunStats, u64) {
    let mcfg = McSquareConfig { ctt_entries: 8, ..McSquareConfig::default() };
    let engine = McSquareEngine::with_faults(mcfg, cfg.channels, &cfg.fault);
    let mut sys = System::with_engine(
        cfg.clone(),
        vec![Box::new(FixedProgram::new(workload()))],
        Box::new(engine),
    );
    for k in 0..COPIES {
        let fill: Vec<u8> = (0..COPY_BYTES + 64).map(|i| (i * 7 + k) as u8).collect();
        sys.poke(src_of(k), &fill);
    }
    sys.set_sched_mode(mode);
    let stats = sys.run(20_000_000).expect("workload finishes");
    (stats, sys.now())
}

#[test]
fn event_driven_matches_conservative_with_the_copy_engine() {
    for fault in [FaultPlan::none(), FaultPlan::mild(0xC0FE)] {
        for tech in [MemTech::Ddr4, MemTech::Ddr5, MemTech::Hbm2] {
            let cfg = SystemConfig::builder().cores(1).tech(tech).fault(fault.clone()).build();
            let (cons, cons_now) = run(&cfg, SchedMode::Conservative);
            let (ev, ev_now) = run(&cfg, SchedMode::EventDriven);
            let label = format!("{tech:?}, faults: {}", !fault.is_empty());
            for key in ["recon_drain", "bounces_sent", "bpq_peak"] {
                assert!(cons.engine_counter(key) > 0, "{label}: {key} never fired");
            }
            assert_eq!(cons_now, ev_now, "{label}: final clock diverged");
            assert_eq!(cons, ev, "{label}: RunStats diverged");
        }
    }
}
