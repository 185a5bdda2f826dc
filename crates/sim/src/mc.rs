//! Memory controller: read/write pending queues, FR-FCFS-style scheduling,
//! write-drain watermarks, WPQ read forwarding, and the [`CopyEngine`] hook.

use crate::config::McConfig;
use crate::data::{LineData, SparseMem};
use crate::dram::{DramBackend, RowOutcome};
use crate::engine::{CopyEngine, EngineIo, Verdict};
use crate::fault::{domain, FaultPlan, FaultStream};
use crate::link::DelayQueue;
use crate::packet::{MemCmd, Packet};
use crate::stats::McStats;
use crate::addr::PhysAddr;
use crate::Cycle;
use std::collections::{HashSet, VecDeque};

/// Who asked for a DRAM read.
#[derive(Debug, Clone)]
enum ReadOrigin {
    /// A cache read: respond to the LLC with this request packet.
    Llc(Packet),
    /// An engine read with the engine's tag.
    Engine(u64),
}

#[derive(Debug)]
struct RpqEntry {
    addr: PhysAddr,
    origin: ReadOrigin,
    enq: Cycle,
}

#[derive(Debug)]
struct WpqEntry {
    addr: PhysAddr,
    data: LineData,
    /// The data was derived from an uncorrectable ECC error: committing
    /// this write re-poisons the line instead of clearing it.
    poison: bool,
    enq: Cycle,
    #[cfg(feature = "trace")]
    class: mcs_trace::PacketClass,
}

#[derive(Debug)]
struct Inflight {
    done: Cycle,
    addr: PhysAddr,
    kind: InflightKind,
    /// Cycle the request entered its pending queue (service latency base).
    enq: Cycle,
}

/// Traffic class of a read origin, for latency histograms.
#[cfg(feature = "trace")]
fn trace_class(origin: &ReadOrigin) -> mcs_trace::PacketClass {
    match origin {
        ReadOrigin::Llc(p) if p.is_prefetch => mcs_trace::PacketClass::PrefetchRead,
        ReadOrigin::Llc(_) => mcs_trace::PacketClass::DemandRead,
        ReadOrigin::Engine(_) => mcs_trace::PacketClass::EngineRead,
    }
}

#[cfg(feature = "trace")]
fn trace_row(outcome: RowOutcome) -> mcs_trace::RowKind {
    match outcome {
        RowOutcome::Hit => mcs_trace::RowKind::Hit,
        RowOutcome::Empty => mcs_trace::RowKind::Empty,
        RowOutcome::Conflict => mcs_trace::RowKind::Conflict,
    }
}

#[derive(Debug)]
enum InflightKind {
    Read(ReadOrigin),
    Write,
}

/// Per-controller fault-injection state. Present only when the configured
/// [`FaultPlan`] is non-empty, so clean runs pay nothing and stay
/// byte-identical. All decisions are per-*event* (per DRAM access, per
/// accepted packet), never per cycle, so fault schedules are identical
/// with and without idle skip-ahead.
#[derive(Debug)]
struct McFault {
    plan: FaultPlan,
    /// ECC decision stream (one roll per DRAM read, plus retry re-rolls).
    ecc: FaultStream,
    /// Transient-stall decision stream (one roll per accepted packet).
    stall: FaultStream,
    /// Lines currently carrying poison from an uncorrectable error.
    /// Metadata only: the functional bytes in [`SparseMem`] stay correct.
    poisoned: HashSet<u64>,
    /// Input intake and DRAM scheduling are blocked until this cycle.
    stall_until: Cycle,
}

/// One memory controller, fronting one DRAM channel.
#[derive(Debug)]
pub struct MemCtrl {
    /// Controller index (== channel index).
    pub id: usize,
    cfg: McConfig,
    dram: DramBackend,
    rpq: VecDeque<RpqEntry>,
    wpq: VecDeque<WpqEntry>,
    inflight: Vec<Inflight>,
    /// Packets the engine asked to retry; reprocessed before new input so
    /// a blocked MCLAZY never head-of-line-blocks engine-critical traffic.
    retry_q: VecDeque<Packet>,
    /// Engine reads satisfied by WPQ forwarding, delivered next tick
    /// (tag, line, data, poisoned).
    engine_fwd: Vec<(u64, PhysAddr, LineData, bool)>,
    draining: bool,
    /// Earliest cycle at which [`Self::schedule_dram`] could issue from
    /// the queues as the last tick left them ([`Cycle::MAX`] when both are
    /// empty): the bus-free cycle, the earliest bank `next_cas`, the next
    /// cycle after a full issue burst, or the end of a fault stall.
    issue_wake: Cycle,
    /// Cycle of the last tick, to detect cycles the scheduler elided.
    last_tick: Cycle,
    /// Fault-injection state (None ⇔ empty plan ⇒ all hooks are no-ops).
    fault: Option<McFault>,
    /// Human-readable reports of malformed packets this controller dropped
    /// (bounded; see [`MemCtrl::audit_reports`]).
    audit: Vec<String>,
    /// Statistics.
    pub stats: McStats,
}

/// How many input packets a controller accepts per cycle.
const INPUT_PER_CYCLE: usize = 4;

/// Cap on retained malformed-packet audit reports (the counter keeps
/// counting past it).
const AUDIT_CAP: usize = 32;

impl MemCtrl {
    /// Create controller `id` with the given queue config and channel model.
    pub fn new(id: usize, cfg: McConfig, dram: DramBackend) -> MemCtrl {
        MemCtrl {
            id,
            cfg,
            dram,
            rpq: VecDeque::new(),
            wpq: VecDeque::new(),
            inflight: Vec::new(),
            retry_q: VecDeque::new(),
            engine_fwd: Vec::new(),
            draining: false,
            issue_wake: Cycle::MAX,
            last_tick: 0,
            fault: None,
            audit: Vec::new(),
            stats: McStats::default(),
        }
    }

    /// Arm (or disarm) fault injection. An empty plan clears all fault
    /// state; a non-empty one derives this controller's decision streams
    /// from the plan seed and the controller index.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = (!plan.is_empty()).then(|| McFault {
            ecc: plan.stream(domain::ECC, self.id as u64),
            stall: plan.stream(domain::MC_STALL, self.id as u64),
            poisoned: HashSet::new(),
            stall_until: 0,
            plan: plan.clone(),
        });
    }

    /// Audit log of malformed packets this controller dropped instead of
    /// panicking on (first [`AUDIT_CAP`] reports retained;
    /// [`McStats::malformed_packets`] counts them all).
    pub fn audit_reports(&self) -> &[String] {
        &self.audit
    }

    /// Lines currently poisoned by uncorrectable ECC errors, sorted
    /// (diagnostics; empty without fault injection).
    pub fn poisoned_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.fault.as_ref().map(|f| f.poisoned.iter().copied().collect()).unwrap_or_default();
        v.sort_unstable();
        v
    }

    fn record_malformed(&mut self, report: String) {
        self.stats.malformed_packets += 1;
        if self.audit.len() < AUDIT_CAP {
            self.audit.push(report);
        }
    }

    /// Whether the controller has no queued or in-flight work.
    pub fn idle(&self) -> bool {
        self.rpq.is_empty()
            && self.wpq.is_empty()
            && self.inflight.is_empty()
            && self.retry_q.is_empty()
            && self.engine_fwd.is_empty()
    }

    /// Earliest future event (skip-ahead hint).
    pub fn next_event(&self) -> Option<Cycle> {
        if !self.retry_q.is_empty() || !self.engine_fwd.is_empty() {
            return Some(0); // work every cycle until drained
        }
        let mut hint = self.inflight.iter().map(|f| f.done).min();
        if !self.rpq.is_empty() || !self.wpq.is_empty() {
            let mut d = self.dram.next_ready();
            if let Some(f) = &self.fault {
                // Nothing schedules inside an injected stall window.
                d = d.max(f.stall_until);
            }
            hint = Some(hint.map_or(d, |h| h.min(d)));
        }
        hint
    }

    /// The event-driven scheduler's readiness check: `None` means the
    /// controller has immediate work (engine retries or forwarded engine
    /// reads) and must tick every cycle; `Some(wake)` means a tick before
    /// cycle `wake` could change nothing. `wake` is the earliest of the
    /// in-flight completions, the next refresh window (so `sync` applies
    /// it, and the trace layer stamps it, at the cycle a per-tick
    /// scheduler would) and the cycle the DRAM scheduler could next issue
    /// from the pending queues ([`Cycle::MAX`] if none applies).
    ///
    /// Valid until the controller next ticks: all controller state mutates
    /// only inside [`Self::tick`]. Input deliverability is the caller's
    /// side of the predicate (the input queue lives in the interconnect),
    /// and engine background work is covered by
    /// [`CopyEngine::needs_tick`].
    pub fn readiness(&self) -> Option<Cycle> {
        if !self.retry_q.is_empty() || !self.engine_fwd.is_empty() {
            return None;
        }
        let wake = self
            .inflight
            .iter()
            .map(|f| f.done)
            .fold(self.dram.refresh_next().min(self.issue_wake), Cycle::min);
        Some(wake)
    }

    /// Whether an injected fault stall blocks intake and scheduling at `at`.
    fn stalled(&self, at: Cycle) -> bool {
        self.fault.as_ref().is_some_and(|f| at < f.stall_until)
    }

    /// Current WPQ occupancy as (len, capacity).
    pub fn wpq_occupancy(&self) -> (usize, usize) {
        (self.wpq.len(), self.cfg.wpq_cap)
    }

    /// (rpq len, wpq len, in-flight DRAM accesses) — diagnostics.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (self.rpq.len(), self.wpq.len(), self.inflight.len())
    }

    fn fresh_io(&self) -> EngineIo {
        EngineIo { wpq: (self.wpq.len(), self.cfg.wpq_cap), ..EngineIo::default() }
    }

    fn apply_io(&mut self, now: Cycle, io: EngineIo, out: &mut Vec<(Packet, Cycle)>) {
        for (tag, addr) in io.dram_reads {
            self.stats.engine_reads += 1;
            // WPQ forwarding applies to engine reads too: a pending write
            // to the line is newer than DRAM contents.
            if let Some(w) = self.wpq.iter().rev().find(|w| w.addr == addr) {
                self.stats.wpq_forwards += 1;
                self.engine_fwd.push((tag, addr, w.data, w.poison));
                continue;
            }
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::McEnqueue {
                mc: self.id as u16,
                class: mcs_trace::PacketClass::EngineRead,
                at: now,
            });
            self.rpq.push_back(RpqEntry { addr, origin: ReadOrigin::Engine(tag), enq: now });
        }
        for (addr, data, poison) in io.dram_writes {
            self.stats.engine_writes += 1;
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::McEnqueue {
                mc: self.id as u16,
                class: mcs_trace::PacketClass::EngineWrite,
                at: now,
            });
            self.wpq.push_back(WpqEntry {
                addr,
                data,
                poison,
                enq: now,
                #[cfg(feature = "trace")]
                class: mcs_trace::PacketClass::EngineWrite,
            });
        }
        for send in io.sends {
            out.push(send);
        }
        self.stats.forced_flushes += io.fault_forced_flushes;
        self.stats.eager_fallbacks += io.fault_eager_fallbacks;
    }

    /// Advance one cycle.
    ///
    /// * `input` — packets arriving from the interconnect;
    /// * `engine` — the copy engine shared across controllers;
    /// * `mem` — the functional memory image;
    /// * `out` — packets to hand back to the interconnect, with extra delay.
    pub fn tick(
        &mut self,
        now: Cycle,
        input: &mut DelayQueue<Packet>,
        engine: &mut dyn CopyEngine,
        mem: &mut SparseMem,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        // Every elided cycle would have re-run the drain hysteresis on the
        // queue lengths the last tick left, unless it sat inside a stall
        // window (a window that covers the last elided cycle covers them
        // all, since only a tick can open one). One replay stands for all
        // of them: the update is idempotent on unchanged lengths.
        if now > self.last_tick + 1 && !self.stalled(now - 1) {
            self.update_draining();
        }
        self.last_tick = now;
        // Apply elapsed refresh windows before any readiness check.
        self.dram.sync(now);
        #[cfg(feature = "trace")]
        {
            // stats.refreshes still holds last tick's cumulative count.
            let r = self.dram.refreshes();
            if r > self.stats.refreshes {
                mcs_trace::emit(mcs_trace::Event::Refresh {
                    mc: self.id as u16,
                    n: (r - self.stats.refreshes) as u32,
                    at: now,
                });
            }
        }
        self.deliver_forwarded(now, engine, out);
        self.complete_inflight(now, engine, mem, out);
        self.engine_tick(now, engine, out);
        self.accept_input(now, input, engine, out);
        self.schedule_dram(now, mem);
        self.stats.refreshes = self.dram.refreshes();
    }

    fn deliver_forwarded(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let fwd = std::mem::take(&mut self.engine_fwd);
        for (tag, addr, data, poisoned) in fwd {
            if poisoned {
                self.stats.poisoned_reads += 1;
            }
            let mut io = self.fresh_io();
            engine.on_dram_read(now, self.id, tag, addr, data, poisoned, &mut io);
            self.apply_io(now, io, out);
        }
    }

    fn complete_inflight(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        mem: &mut SparseMem,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].done <= now {
                let f = self.inflight.swap_remove(i);
                match f.kind {
                    InflightKind::Read(origin) => {
                        let data = mem.read_line(f.addr);
                        let poisoned = self
                            .fault
                            .as_ref()
                            .is_some_and(|fs| fs.poisoned.contains(&f.addr.line_base().0));
                        if poisoned {
                            self.stats.poisoned_reads += 1;
                        }
                        #[cfg(feature = "trace")]
                        mcs_trace::emit(mcs_trace::Event::McComplete {
                            mc: self.id as u16,
                            class: trace_class(&origin),
                            enq: f.enq,
                            at: now,
                        });
                        match origin {
                            ReadOrigin::Llc(req) => {
                                if !req.is_prefetch {
                                    self.stats.demand_read_lat_sum += now - f.enq;
                                    self.stats.demand_reads_done += 1;
                                }
                                let mut resp = req.make_read_resp(data);
                                resp.poisoned = poisoned;
                                out.push((resp, 0));
                            }
                            ReadOrigin::Engine(tag) => {
                                let mut io = self.fresh_io();
                                engine
                                    .on_dram_read(now, self.id, tag, f.addr, data, poisoned, &mut io);
                                self.apply_io(now, io, out);
                            }
                        }
                    }
                    InflightKind::Write => {
                        // Data was applied to the image at issue; nothing to do.
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    fn engine_tick(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let mut io = self.fresh_io();
        engine.tick(now, self.id, &mut io);
        self.apply_io(now, io, out);
    }

    fn accept_input(
        &mut self,
        now: Cycle,
        input: &mut DelayQueue<Packet>,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        // Injected transient stall: the input port (and DRAM scheduler)
        // is paused; the fault hook rolls per accepted packet, so the
        // schedule is identical with and without idle skip-ahead.
        if self.stalled(now) {
            if !self.retry_q.is_empty() || input.peek(now).is_some() {
                self.stats.fault_stall_cycles += 1;
            }
            return;
        }
        // Engine-deferred packets first (e.g. MCLAZY waiting for CTT room).
        // They retry without blocking the packets behind them, which is
        // required for forward progress: freeing CTT entries depends on
        // LazyDestWrite deliveries that may share this input port.
        for _ in 0..self.retry_q.len() {
            let Some(pkt) = self.retry_q.pop_front() else { break };
            let mut io = self.fresh_io();
            match engine.on_arrive(now, self.id, pkt, &mut io) {
                Verdict::Consumed => {}
                Verdict::Retry(pkt) => {
                    self.apply_io(now, io, out);
                    self.retry_q.push_front(pkt);
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                Verdict::Pass(pkt) => {
                    self.apply_io(now, io, out);
                    self.enqueue(now, pkt, out);
                    continue;
                }
            }
            self.apply_io(now, io, out);
        }
        for _ in 0..INPUT_PER_CYCLE {
            // Flow control: don't pop what we can't queue.
            let Some(head) = input.peek(now) else { break };
            match head.cmd {
                MemCmd::ReadReq if self.rpq.len() >= self.cfg.rpq_cap => {
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                MemCmd::WriteReq | MemCmd::LazyDestWrite
                    if self.wpq.len() >= self.cfg.wpq_cap =>
                {
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                _ => {}
            }
            let pkt = input.pop(now).expect("peeked");
            if let Some(f) = self.fault.as_mut() {
                if f.stall.roll(f.plan.mc_stall_rate) {
                    f.stall_until = now + f.plan.mc_stall_cycles;
                    self.stats.fault_stalls += 1;
                }
            }
            let mut io = self.fresh_io();
            let verdict = engine.on_arrive(now, self.id, pkt, &mut io);
            self.apply_io(now, io, out);
            match verdict {
                Verdict::Consumed => {}
                Verdict::Retry(pkt) => {
                    self.stats.input_stall_cycles += 1;
                    self.retry_q.push_back(pkt);
                }
                Verdict::Pass(pkt) => self.enqueue(now, pkt, out),
            }
            // A stall tripped by this packet pauses intake immediately.
            if self.stalled(now) {
                break;
            }
        }
    }

    fn enqueue(&mut self, now: Cycle, pkt: Packet, out: &mut Vec<(Packet, Cycle)>) {
        match pkt.cmd {
            MemCmd::ReadReq => {
                // WPQ forwarding: a pending write to the same line services
                // the read without touching DRAM.
                if let Some(w) = self.wpq.iter().rev().find(|w| w.addr == pkt.addr) {
                    self.stats.wpq_forwards += 1;
                    let data = w.data;
                    let poison = w.poison;
                    if poison {
                        self.stats.poisoned_reads += 1;
                    }
                    let mut resp = pkt.make_read_resp(data);
                    resp.poisoned = poison;
                    out.push((resp, 0));
                    return;
                }
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::McEnqueue {
                    mc: self.id as u16,
                    class: if pkt.is_prefetch {
                        mcs_trace::PacketClass::PrefetchRead
                    } else {
                        mcs_trace::PacketClass::DemandRead
                    },
                    at: now,
                });
                self.rpq.push_back(RpqEntry { addr: pkt.addr, origin: ReadOrigin::Llc(pkt), enq: now });
            }
            MemCmd::WriteReq | MemCmd::LazyDestWrite => {
                // A write without a payload is a protocol violation by the
                // sender; drop it and leave an audit trail rather than
                // aborting the whole simulation.
                let Some(data) = pkt.data else {
                    self.record_malformed(format!(
                        "mc{} @{now}: write without data dropped: {pkt:?}",
                        self.id
                    ));
                    return;
                };
                if pkt.needs_ack {
                    out.push((pkt.make_write_ack(), 0));
                }
                #[cfg(feature = "trace")]
                let class = if matches!(pkt.cmd, MemCmd::LazyDestWrite) {
                    mcs_trace::PacketClass::EngineWrite
                } else {
                    mcs_trace::PacketClass::Write
                };
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::McEnqueue {
                    mc: self.id as u16,
                    class,
                    at: now,
                });
                self.wpq.push_back(WpqEntry {
                    addr: pkt.addr,
                    data,
                    poison: pkt.poisoned,
                    enq: now,
                    #[cfg(feature = "trace")]
                    class,
                });
            }
            _ => {
                // Mclazy/Mcfree/Bounce* are engine commands; with an engine
                // present they never Pass and NullEngine consumes them, so
                // anything landing here is malformed traffic. Surface it as
                // a diagnosable fault instead of an abort.
                self.record_malformed(format!(
                    "mc{} @{now}: unexpected command dropped: {pkt:?}",
                    self.id
                ));
            }
        }
    }

    /// Write-drain hysteresis: enter drain mode at the high watermark (or
    /// when no read is waiting), leave it at the low watermark while reads
    /// wait, and always leave it with an empty WPQ.
    fn update_draining(&mut self) {
        let occ = self.wpq.len() as f64 / self.cfg.wpq_cap as f64;
        if (occ >= self.cfg.wpq_drain_hi || self.rpq.is_empty()) && !self.wpq.is_empty() {
            self.draining = true;
        }
        if occ <= self.cfg.wpq_drain_lo && !self.rpq.is_empty() {
            self.draining = false;
        }
        if self.wpq.is_empty() {
            self.draining = false;
        }
    }

    /// Issue DRAM commands and record [`Self::issue_wake`]: until that
    /// cycle no call could issue anything from the current queues.
    fn schedule_dram(&mut self, now: Cycle, mem: &mut SparseMem) {
        // Injected transient stall also pauses the DRAM scheduler.
        if let Some(f) = self.fault.as_ref().filter(|f| now < f.stall_until) {
            self.issue_wake = f.stall_until;
            return;
        }
        self.update_draining();
        if self.rpq.is_empty() && self.wpq.is_empty() {
            self.issue_wake = Cycle::MAX;
            return;
        }

        // Issue while the channel can accept column commands (the data bus
        // may be booked ahead; see DramModel::bus_ready_at), bounded per
        // tick to model the command bus.
        for _ in 0..4 {
            let bus_at = self.dram.bus_ready_at();
            if bus_at > now {
                self.issue_wake = bus_at;
                return;
            }
            // Earliest bank readiness over every entry a failed scan saw.
            let mut bank_at = Cycle::MAX;
            let did = if self.draining {
                self.issue_write(now, mem, &mut bank_at)
            } else {
                self.issue_read(now, &mut bank_at)
            };
            if !did {
                // Try the other kind opportunistically.
                let did2 = if self.draining {
                    self.issue_read(now, &mut bank_at)
                } else {
                    self.issue_write(now, mem, &mut bank_at)
                };
                if !did2 {
                    self.issue_wake = bank_at;
                    return;
                }
            }
        }
        self.issue_wake = now + 1;
    }

    /// Issue the best ready RPQ entry. When none is ready, folds every
    /// entry's bank `next_cas` into `bank_at` and returns false.
    fn issue_read(&mut self, now: Cycle, bank_at: &mut Cycle) -> bool {
        // FR-FCFS-lite with demand priority: engine reads (lazy-copy
        // drains) only issue when no demand read is ready, bounding their
        // bandwidth interference (§III-A1 limits outstanding asynchronous
        // copies for the same reason). One pass records the first entry in
        // each priority class (demand row-hit > demand > row-hit > ready),
        // probing each candidate's bank exactly once.
        let mut demand_ready = None;
        let mut any_hit = None;
        let mut any_ready = None;
        let mut pick = None;
        for (i, e) in self.rpq.iter().enumerate() {
            let (next_cas, hit) = self.dram.bank_probe(e.addr);
            if next_cas > now {
                *bank_at = (*bank_at).min(next_cas);
                continue;
            }
            if matches!(e.origin, ReadOrigin::Llc(_)) {
                if hit {
                    pick = Some(i); // top class: first match wins outright
                    break;
                }
                if demand_ready.is_none() {
                    demand_ready = Some(i);
                }
            } else if hit {
                if any_hit.is_none() {
                    any_hit = Some(i);
                }
            } else if any_ready.is_none() {
                any_ready = Some(i);
            }
        }
        let pick = pick.or(demand_ready).or(any_hit).or(any_ready);
        let Some(idx) = pick else { return false };
        let e = self.rpq.remove(idx).expect("index valid");
        let (mut done, outcome) = self.dram.access(now, e.addr);
        self.note_row(outcome);
        self.stats.reads += 1;
        if let Some(f) = self.fault.as_mut() {
            if f.ecc.roll(f.plan.ecc_uncorrectable_rate) {
                // Uncorrectable: poison the line. The response still
                // carries the functional bytes (poison is metadata), so
                // differential checks against an eager oracle remain valid.
                self.stats.ecc_uncorrectable += 1;
                f.poisoned.insert(e.addr.line_base().0);
            } else if f.ecc.roll(f.plan.ecc_correctable_rate) {
                // Correctable: bounded re-reads with exponential backoff.
                // The retry occupies the same bank reservation; only the
                // completion is delayed.
                self.stats.ecc_corrected += 1;
                let mut penalty = f.plan.ecc_penalty;
                for _ in 0..f.plan.ecc_max_retries {
                    self.stats.ecc_retries += 1;
                    done += penalty;
                    penalty = penalty.saturating_mul(2);
                    if !f.ecc.roll(f.plan.ecc_correctable_rate) {
                        break;
                    }
                }
            }
        }
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McIssue {
            mc: self.id as u16,
            bank: self.dram.bank_of(e.addr) as u16,
            class: trace_class(&e.origin),
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        self.inflight.push(Inflight {
            done,
            addr: e.addr,
            kind: InflightKind::Read(e.origin),
            enq: e.enq,
        });
        true
    }

    /// Issue the best ready WPQ entry; like [`Self::issue_read`] on failure.
    fn issue_write(&mut self, now: Cycle, mem: &mut SparseMem, bank_at: &mut Cycle) -> bool {
        // One pass: first ready row-hit wins, else first ready entry.
        let mut any_ready = None;
        let mut pick = None;
        for (i, e) in self.wpq.iter().enumerate() {
            let (next_cas, hit) = self.dram.bank_probe(e.addr);
            if next_cas > now {
                *bank_at = (*bank_at).min(next_cas);
                continue;
            }
            if hit {
                pick = Some(i);
                break;
            }
            if any_ready.is_none() {
                any_ready = Some(i);
            }
        }
        let pick = pick.or(any_ready);
        let Some(idx) = pick else { return false };
        let e = self.wpq.remove(idx).expect("index valid");
        let (done, outcome) = self.dram.access(now, e.addr);
        self.note_row(outcome);
        self.stats.writes += 1;
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McIssue {
            mc: self.id as u16,
            bank: self.dram.bank_of(e.addr) as u16,
            class: e.class,
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        // Apply functionally at issue: any later read goes through the RPQ
        // behind this write's bank occupancy, and reads that raced ahead
        // were already served by WPQ forwarding.
        mem.write_line(e.addr, e.data);
        if let Some(f) = self.fault.as_mut() {
            let line = e.addr.line_base().0;
            if e.poison {
                f.poisoned.insert(line);
            } else {
                // Fresh data overwrites the faulted cells: poison clears.
                f.poisoned.remove(&line);
            }
        }
        self.inflight.push(Inflight { done, addr: e.addr, kind: InflightKind::Write, enq: e.enq });
        true
    }

    fn note_row(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Empty => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::engine::NullEngine;
    use crate::packet::Node;

    fn mk() -> (MemCtrl, DelayQueue<Packet>, SparseMem, NullEngine) {
        let dram = crate::dram::Ddr4Channel::new(
            DramConfig {
                banks: 4,
                row_bytes: 1024,
                t_rcd: 5,
                t_rp: 5,
                t_cl: 5,
                t_burst: 2,
                ..DramConfig::default()
            },
            1,
        );
        let mc = MemCtrl::new(0, McConfig::default(), dram.into());
        (mc, DelayQueue::new(0), SparseMem::new(), NullEngine)
    }

    fn run(
        mc: &mut MemCtrl,
        input: &mut DelayQueue<Packet>,
        mem: &mut SparseMem,
        eng: &mut NullEngine,
        cycles: Cycle,
    ) -> Vec<Packet> {
        let mut got = Vec::new();
        for now in 0..cycles {
            let mut out = Vec::new();
            mc.tick(now, input, eng, mem, &mut out);
            got.extend(out.into_iter().map(|(p, _)| p));
        }
        got
    }

    #[test]
    fn read_returns_memory_contents() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mem.write_line(PhysAddr(0x40), LineData::splat(9));
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].cmd, MemCmd::ReadResp);
        assert_eq!(resps[0].data, Some(LineData::splat(9)));
        assert!(mc.idle());
    }

    #[test]
    fn write_then_read_sees_new_data() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(7), Node::Mc(0)));
        input.push(0, Packet::read(PhysAddr(0x80), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 60);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].data, Some(LineData::splat(7)));
    }

    #[test]
    fn wpq_forwarding_counts() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(7), Node::Mc(0)));
        input.push(0, Packet::read(PhysAddr(0x80), Node::Mc(0)));
        let _ = run(&mut mc, &mut input, &mut mem, &mut eng, 60);
        assert!(mc.stats.wpq_forwards >= 1 || mc.stats.reads == 1);
    }

    #[test]
    fn many_reads_all_complete() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        for i in 0..20u64 {
            mem.write_line(PhysAddr(i * 64), LineData::splat(i as u8));
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 500);
        assert_eq!(resps.len(), 20);
        for r in &resps {
            let want = (r.addr.0 / 64) as u8;
            assert_eq!(r.data, Some(LineData::splat(want)));
        }
        assert!(mc.stats.row_hits > 0, "sequential reads should row-hit");
    }

    #[test]
    fn writes_drain_eventually() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        for i in 0..10u64 {
            input.push(0, Packet::write(PhysAddr(i * 64), LineData::splat(1), Node::Mc(0)));
        }
        let _ = run(&mut mc, &mut input, &mut mem, &mut eng, 500);
        assert!(mc.idle());
        assert_eq!(mc.stats.writes, 10);
        assert_eq!(mem.read_line(PhysAddr(0)), LineData::splat(1));
    }

    #[test]
    fn ecc_exact_accounting_at_rate_one() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 7,
            ecc_correctable_rate: 1.0,
            ecc_max_retries: 2,
            ecc_penalty: 8,
            ..FaultPlan::none()
        });
        for i in 0..10u64 {
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 2000);
        assert_eq!(resps.len(), 10, "retries delay but never lose reads");
        // At rate 1.0 every DRAM read takes an error and every retry
        // re-faults, so retries == corrected × max_retries exactly.
        assert_eq!(mc.stats.ecc_corrected, 10);
        assert_eq!(mc.stats.ecc_retries, 20);
        assert_eq!(mc.stats.ecc_uncorrectable, 0);
        assert_eq!(mc.stats.poisoned_reads, 0);
        assert!(resps.iter().all(|r| !r.poisoned));
    }

    #[test]
    fn ecc_retries_add_latency() {
        let baseline = {
            let (mut mc, mut input, mut mem, mut eng) = mk();
            input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
            let mut done = 0;
            for now in 0..500 {
                let mut out = Vec::new();
                mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
                if !out.is_empty() {
                    done = now;
                    break;
                }
            }
            done
        };
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 7,
            ecc_correctable_rate: 1.0,
            ecc_max_retries: 2,
            ecc_penalty: 8,
            ..FaultPlan::none()
        });
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let mut done = 0;
        for now in 0..500 {
            let mut out = Vec::new();
            mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
            if !out.is_empty() {
                done = now;
                break;
            }
        }
        // Two retries with 8-cycle exponential backoff: 8 + 16 = 24 extra.
        assert_eq!(done, baseline + 24, "backoff penalty must be visible");
    }

    #[test]
    fn uncorrectable_errors_poison_reads_until_rewritten() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 3,
            ecc_uncorrectable_rate: 1.0,
            ..FaultPlan::none()
        });
        mem.write_line(PhysAddr(0x40), LineData::splat(5));
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 100);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].poisoned, "uncorrectable error must poison the response");
        assert_eq!(resps[0].data, Some(LineData::splat(5)), "bytes stay functional");
        assert_eq!(mc.stats.ecc_uncorrectable, 1);
        assert_eq!(mc.stats.poisoned_reads, 1);
        assert_eq!(mc.poisoned_lines(), vec![0x40]);
        // A fresh write overwrites the faulted cells and clears the poison.
        input.push(200, Packet::write(PhysAddr(0x40), LineData::splat(6), Node::Mc(0)));
        for now in 200..400 {
            let mut out = Vec::new();
            mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
        }
        assert!(mc.idle());
        assert!(mc.poisoned_lines().is_empty(), "write must clear poison");
    }

    #[test]
    fn malformed_write_is_dropped_and_audited() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        let mut pkt = Packet::write(PhysAddr(0x40), LineData::splat(1), Node::Mc(0));
        pkt.data = None;
        input.push(0, pkt);
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert!(resps.is_empty());
        assert!(mc.idle(), "malformed packet must not wedge the controller");
        assert_eq!(mc.stats.malformed_packets, 1);
        assert_eq!(mc.audit_reports().len(), 1);
        assert!(mc.audit_reports()[0].contains("write without data"), "{:?}", mc.audit_reports());
    }

    #[test]
    fn unexpected_command_is_dropped_and_audited() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        // A ReadResp has no business arriving at a controller.
        let req = Packet::read(PhysAddr(0x40), Node::Mc(0));
        input.push(0, req.make_read_resp(LineData::ZERO));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert!(resps.is_empty());
        assert!(mc.idle());
        assert_eq!(mc.stats.malformed_packets, 1);
        assert!(mc.audit_reports()[0].contains("unexpected command"), "{:?}", mc.audit_reports());
    }

    /// Drive `mc` over cycles `from..to`, pushing each `(cycle, packet)`
    /// of `arrivals` when its cycle comes. With `elide`, tick only on the
    /// cycles the event-driven scheduler would. Returns every output packet
    /// as (cycle, id, command).
    fn drive(
        mc: &mut MemCtrl,
        arrivals: &[(Cycle, Packet)],
        (from, to): (Cycle, Cycle),
        elide: bool,
    ) -> Vec<(Cycle, u64, MemCmd)> {
        let (mut input, mut mem, mut eng) = (DelayQueue::new(0), SparseMem::new(), NullEngine);
        let mut wake = mc.readiness();
        let mut seen = Vec::new();
        for now in from..to {
            for (_, p) in arrivals.iter().filter(|(at, _)| *at == now) {
                input.push(now, p.clone());
            }
            if elide && wake.is_some_and(|w| w > now) && input.peek(now).is_none() {
                continue;
            }
            let mut out = Vec::new();
            mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
            seen.extend(out.into_iter().map(|(p, _)| (now, p.id, p.cmd)));
            wake = mc.readiness();
        }
        seen
    }

    #[test]
    fn elided_cycles_inside_a_stall_replay_no_drain_hysteresis() {
        // Draining with the WPQ at the low watermark and no read waiting,
        // a read arrives at cycle 0 and trips a stall until 40. Writes
        // arriving at 10 wake the elided controller inside the window. No
        // hysteresis update runs before 40, so at 40 (WPQ now inside the
        // band) the controller is still draining and issues writes before
        // the read. Replaying the update at 10 would see the read and the
        // low WPQ, leave drain mode and serve the read first.
        let read = Packet::read(PhysAddr(0x40), Node::Mc(0));
        let setup = || {
            let (mut mc, mut input, mut mem, mut eng) = mk();
            mc.set_fault_plan(&FaultPlan {
                seed: 1,
                mc_stall_rate: 1.0,
                mc_stall_cycles: 40,
                ..FaultPlan::none()
            });
            for i in 0..19u64 {
                mc.wpq.push_back(WpqEntry {
                    addr: PhysAddr(0x10_0000 + i * 64),
                    data: LineData::splat(1),
                    poison: false,
                    enq: 0,
                    #[cfg(feature = "trace")]
                    class: mcs_trace::PacketClass::Write,
                });
            }
            mc.draining = true;
            input.push(0, read.clone());
            mc.tick(0, &mut input, &mut eng, &mut mem, &mut Vec::new());
            // Only the read trips a stall.
            mc.fault.as_mut().expect("armed").plan.mc_stall_rate = 0.0;
            mc
        };
        let writes: Vec<(Cycle, Packet)> = (0..4u64)
            .map(|i| {
                (
                    10,
                    Packet::write(
                        PhysAddr(0x20_0000 + i * 64),
                        LineData::splat(2),
                        Node::Mc(0),
                    ),
                )
            })
            .collect();
        let (mut full, mut lazy) = (setup(), setup());
        let want = drive(&mut full, &writes, (1, 600), false);
        let got = drive(&mut lazy, &writes, (1, 600), true);
        assert_eq!(want.len(), 1, "one read response");
        assert!(
            want[0].0 > 40 + 4 * 4,
            "the read waits behind the writes: {want:?}"
        );
        assert_eq!(got, want);
        assert_eq!(lazy.stats, full.stats);
    }

    #[test]
    fn transient_stalls_delay_but_never_lose_traffic() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 11,
            mc_stall_rate: 1.0,
            mc_stall_cycles: 20,
            ..FaultPlan::none()
        });
        for i in 0..5u64 {
            mem.write_line(PhysAddr(i * 64), LineData::splat(i as u8));
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 2000);
        assert_eq!(resps.len(), 5, "stalls delay but never drop reads");
        assert!(mc.idle());
        assert_eq!(mc.stats.fault_stalls, 5, "rate 1.0 trips one stall per accept");
        assert!(mc.stats.fault_stall_cycles > 0);
    }
}
