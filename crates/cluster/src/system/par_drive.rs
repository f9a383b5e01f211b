//! Conservative (Chandy–Misra–Bryant-style) parallel event engine for the
//! cluster: shard *lanes* driven by scoped OS threads, with the
//! interconnect's delivery cost as lookahead and an epoch barrier instead
//! of null messages.
//!
//! # Why this is safe — and bit-identical to the serial pump
//!
//! Every cross-shard interaction travels over a [`Link`], and
//! `Link::send_words` delivers no earlier than
//! `t + occupancy + latency` (one flit minimum occupies the link for
//! `occupancy`, then the message ages `latency`). That sum is the engine's
//! **lookahead** `L`: inside a window `[T, T + L)` no shard can observe
//! anything another shard does within the same window, so each lane may
//! simulate its own events in the window with no synchronization at all.
//! Cross-shard sends are buffered in a per-lane **outbox** — the
//! single-producer message window replacing the serially-pumped link
//! writes — and replayed into the destination links by the coordinator at
//! the epoch barrier.
//!
//! Bit-identity with the serial engine comes from replaying those sends in
//! exactly the order the serial pump would have issued them. At one event
//! time the serial pump runs its phases over shards `0..k` in a fixed
//! order, and re-runs the whole pump ("rounds") while zero-cost cascades
//! keep producing same-time work, so the serial send order into any link
//! is precisely the lexicographic key
//! `(time, round, phase, sender shard, per-lane sequence)`. Each lane
//! stamps that key on everything it emits; the coordinator sorts and
//! replays, which also reproduces the link's internal `free_at`/sequence
//! evolution — and therefore every future delivery time — bit-for-bit.
//! Schedule-log order and the event stream are merged under the same keys.
//! Same-time rounds are lane-local by construction (a lane's round `r`
//! work can only be caused by its own round `r - 1` work, since everything
//! remote is at least `L` away), so per-lane round counters agree with the
//! serial pump's global ones.
//!
//! Epoch start times jump to the global minimum next event (idle gaps cost
//! nothing), and the epoch ends `L` after it, so every buffered send
//! delivers strictly beyond the epoch — the merge can never deliver into
//! the past, and each epoch makes strict progress (deadlock freedom
//! without null messages).
//!
//! The shard lanes live in a [`DisjointSlice`]: each worker thread owns
//! its contiguous lane chunk during an epoch's compute phase, and the
//! coordinator owns all lanes between the two barrier waits that delimit
//! it. Per-task readiness state (`frag_ready`, `local_popped`,
//! `local_slot`) is only ever touched by the task's *placement* shard —
//! readiness notices travel to the placement shard, and local pops happen
//! there — so those arrays ride in `DisjointSlice`s under the same
//! contract with task-granular ownership.
//!
//! An attached fault layer splits the same way: each lane owns its
//! shard's [`ShardFaults`] (pause deferral, drop discard, dedup, worker
//! faults), buffers acks as keyed records beside its sends, and draws
//! nothing. The coordinator replays sends and acks through the sender-side
//! [`FaultState`] in key order, firing each retry deadline at its own
//! cycle ahead of the records at or after it. A deadline set during an
//! epoch lies past its end — it follows the message's arrival, which is at
//! least `L` after the send — so only deadlines pending at the epoch's
//! start fire in its merge, and the planner counts the next one as an
//! event.
//!
//! The engine is *observationally* identical for any thread count
//! (including the inline loop, which drives every lane on the caller's
//! thread — see [`ClusterSession::run_epochs`] for when it is used),
//! because lane scheduling never influences what a lane computes — only
//! the merge order does, and that is sorted.

use super::{min_next, ClusterMsg, ClusterSession};
use crate::config::ClusterError;
use crate::fault::{next_arrival, FaultState, LinkSet, Packet, ShardFaults};
use picos_core::{FinishedReq, PicosSystem, SlotRef};
use picos_hil::Link;
use picos_metrics::span::{SpanKind, SpanLog};
use picos_metrics::WindowSampler;
use picos_runtime::par::{DisjointSlice, PhaseCell, SpinBarrier};
use picos_runtime::session::{EventLog, EventLoopCore, ScheduleLog, SimEvent};
use picos_trace::{Dependence, TaskId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Pump-phase tags, in serial pump order at one event time: retries
/// (fired by the coordinator), worker completions (`Finish` sends,
/// `TaskFinished` events), deliveries (acks), then execution (`Ready`
/// sends, `TaskStarted` events). Ingress emits nothing.
const PH_RETRY: u8 = 0;
const PH_FINISH: u8 = 1;
const PH_DELIVER: u8 = 2;
const PH_EXEC: u8 = 3;

/// A sender-side operation a lane buffers for the coordinator.
enum Op {
    /// A cross-shard send.
    Send {
        dest: u16,
        words: u32,
        msg: ClusterMsg,
    },
    /// An acknowledgement of the delivered packet id.
    Ack(u32),
}

/// A buffered sender-side operation, replayed at the epoch barrier.
struct OutRec {
    t: u64,
    round: u32,
    phase: u8,
    src: u16,
    seq: u32,
    op: Op,
}

/// A task start recorded by a lane, merged into the global schedule log.
struct StartRec {
    t: u64,
    round: u32,
    lane: u16,
    seq: u32,
    task: u32,
    start: u64,
    dur: u64,
    /// A re-execution after a fail-stop fault: it replaces the killed
    /// execution's schedule entry.
    restart: bool,
}

/// A simulation event recorded by a lane, merged into the global stream.
struct EvRec {
    t: u64,
    round: u32,
    phase: u8,
    lane: u16,
    seq: u32,
    ev: SimEvent,
}

/// One task's remote registrations: `(home shard, fragment)` pairs.
type RemoteFrags = Vec<(u16, Arc<[Dependence]>)>;

/// Read-only plan data plus the placement-owned per-task state, shared by
/// every lane during an epoch.
struct World<'a> {
    placement: &'a [u16],
    remote: &'a [RemoteFrags],
    frag_total: &'a [u8],
    durs: &'a [u64],
    frag_ready: DisjointSlice<'a, u8>,
    local_popped: DisjointSlice<'a, bool>,
    local_slot: DisjointSlice<'a, SlotRef>,
    dispatch: u64,
    collect_events: bool,
    /// Test hook: the lane id that must panic on its first epoch, so the
    /// caught-panic path is exercisable without corrupting real state.
    test_panic: Option<u16>,
}

/// One shard's private simulation state: exactly the per-shard columns of
/// [`ClusterSession`], plus the epoch buffers.
struct Lane {
    id: u16,
    sys: PicosSystem,
    workers: picos_hil::Workers,
    link: Link<Packet<ClusterMsg>>,
    expected: VecDeque<u32>,
    arrived: HashMap<u32, Arc<[Dependence]>>,
    slot_at: HashMap<u32, SlotRef>,
    exec_q: VecDeque<u32>,
    /// The shard-local half of the fault layer, lent for the drive.
    faults: Option<ShardFaults<ClusterMsg>>,
    /// Tasks placed here whose first execution a fail-stop fault killed.
    restarts: HashSet<u32>,
    outbox: Vec<OutRec>,
    starts: Vec<StartRec>,
    events: Vec<EvRec>,
    /// Lane-local span recorder (present iff the session records spans).
    /// Lanes stamp the same absolute cycles the serial pump would, so the
    /// concatenated, canonically sorted log is thread-count independent.
    spans: Option<SpanLog>,
    /// Completions this epoch (summed into `Ingest::finished` at merge).
    finished: usize,
    /// Last local event time processed (the global clock is their max).
    now: u64,
    /// Per-epoch emission counter behind every record's `seq`.
    seq: u32,
}

/// The coordinator's exclusive borrows of the session's global state,
/// plus reusable merge scratch.
struct MergeState<'a> {
    log: &'a mut ScheduleLog,
    events: &'a mut EventLog,
    spans: Option<&'a mut SpanLog>,
    /// The fault layer's sender side; its shard-local halves ride in the
    /// lanes.
    faults: Option<&'a mut FaultState<ClusterMsg>>,
    link_sent: &'a mut [u64],
    finished: &'a mut usize,
    clock: &'a mut u64,
    /// End of the epoch being merged (0 before the first).
    end: u64,
    /// The cluster-level telemetry sampler, advanced at epoch *planning*
    /// time: the merged global state there is exactly the state after
    /// every event before the epoch's start, which is what the serial
    /// engine's `set_clock` observes. Epoch ends are clamped to
    /// [`WindowSampler::next_boundary`] so no boundary ever falls strictly
    /// inside an epoch, where lanes would race past it unsampled.
    sampler: Option<&'a mut WindowSampler>,
    /// Per-shard worker capacity, for the occupancy probe.
    caps: Vec<usize>,
    outs: Vec<OutRec>,
    starts: Vec<StartRec>,
    evs: Vec<EvRec>,
}

/// Epoch control block, written by the coordinator between barriers.
#[derive(Clone, Copy, Default)]
struct Ctl {
    end: u64,
    done: bool,
}

impl Lane {
    fn next_time(&self) -> Option<u64> {
        min_next([
            self.sys.next_event_time(),
            self.workers.next_done(),
            self.link.next_delivery(),
            self.faults.as_ref().and_then(ShardFaults::next_time),
        ])
    }

    /// Simulates every local event strictly before `end`.
    fn run_epoch(&mut self, end: u64, w: &World<'_>) {
        if w.test_panic == Some(self.id) {
            panic!("injected test panic in lane {}", self.id);
        }
        self.seq = 0;
        let mut cur = u64::MAX;
        let mut round = 0u32;
        while let Some(t) = self.next_time() {
            if t >= end {
                break;
            }
            round = if t == cur { round + 1 } else { 0 };
            cur = t;
            self.pump_at(t, round, w);
        }
    }

    fn out(&mut self, t: u64, round: u32, phase: u8, op: Op) {
        let seq = self.seq;
        self.seq += 1;
        self.outbox.push(OutRec {
            t,
            round,
            phase,
            src: self.id,
            seq,
            op,
        });
    }

    /// Buffers a cross-shard send plus its `ShardMsg` event.
    fn send(&mut self, t: u64, round: u32, phase: u8, dest: u16, msg: ClusterMsg, w: &World<'_>) {
        self.out(
            t,
            round,
            phase,
            Op::Send {
                dest,
                words: 1,
                msg,
            },
        );
        let ev = SimEvent::ShardMsg {
            from: self.id,
            to: dest,
            at: t,
        };
        self.event(t, round, phase, ev, w);
    }

    fn event(&mut self, t: u64, round: u32, phase: u8, ev: SimEvent, w: &World<'_>) {
        if !w.collect_events {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EvRec {
            t,
            round,
            phase,
            lane: self.id,
            seq,
            ev,
        });
    }

    fn start_task(&mut self, t: u64, round: u32, task: u32, slot: SlotRef, w: &World<'_>) {
        let start = t + w.dispatch;
        let dur = w.durs[task as usize];
        let seq = self.seq;
        self.seq += 1;
        self.starts.push(StartRec {
            t,
            round,
            lane: self.id,
            seq,
            task,
            start,
            dur,
            restart: !self.restarts.is_empty() && self.restarts.remove(&task),
        });
        self.event(
            t,
            round,
            PH_EXEC,
            SimEvent::TaskStarted { task, at: start },
            w,
        );
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Dispatched, t, self.id, task, 0);
            log.record(SpanKind::Started, start, self.id, task, 0);
        }
        self.workers.start(start + dur, task, slot);
    }

    /// The serial pump body restricted to this shard, at one of its own
    /// event times — minus the Distributor (drained before epochs begin)
    /// and the fault layer's sender side, with cross-shard sends and acks
    /// buffered for the coordinator instead of applied. Phase structure
    /// and within-phase statement order mirror `ClusterSession::pump`
    /// exactly; keep the two in lockstep.
    fn pump_at(&mut self, t: u64, round: u32, w: &World<'_>) {
        self.now = t;
        self.sys.advance_to(t);
        let mut touched = false;
        let s = self.id;
        // Fail-stop worker faults: a killed in-flight task re-enters the
        // execution queue for deterministic re-execution.
        if let Some(f) = &mut self.faults {
            while f.due_worker_fault(t) {
                if let Some((task, slot)) = self.workers.fail_one() {
                    // SAFETY: a task runs on its placement shard, whose
                    // lane owns its readiness cells — this one.
                    unsafe { *w.local_slot.get(task as usize) = slot };
                    self.restarts.insert(task);
                    self.exec_q.push_back(task);
                    f.note_recovery();
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Fault, t, s, task, 0);
                    }
                }
            }
        }
        // Worker completions: notify the local shard now, remote fragment
        // shards at the barrier.
        while let Some((task, slot)) = self.workers.pop_done_at(t) {
            self.sys.notify_finished(FinishedReq {
                task: TaskId::new(task),
                slot,
            });
            for ri in 0..w.remote[task as usize].len() {
                let r = w.remote[task as usize][ri].0;
                self.send(t, round, PH_FINISH, r, ClusterMsg::Finish { task }, w);
            }
            self.finished += 1;
            self.event(
                t,
                round,
                PH_FINISH,
                SimEvent::TaskFinished { task, at: t },
                w,
            );
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Finished, t, s, task, 0);
            }
            touched = true;
        }
        // Interconnect deliveries (sent at least one epoch ago), through
        // the shard-local receive path; acks go to the coordinator.
        while let Some(a) = next_arrival(&mut self.link, self.faults.as_mut(), t) {
            if a.ack {
                self.out(t, round, PH_DELIVER, Op::Ack(a.id));
            }
            let Some(msg) = a.msg else {
                continue;
            };
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::MsgDeliver, t, s, msg.task(), a.id);
            }
            match msg {
                ClusterMsg::Register { task, deps } => {
                    self.arrived.insert(task, deps);
                }
                ClusterMsg::Ready { task } => {
                    let ti = task as usize;
                    // SAFETY: `Ready` travels to the placement shard, and
                    // every per-task readiness cell is owned by the task's
                    // placement lane — this one.
                    let ready = unsafe { w.frag_ready.get(ti) };
                    *ready += 1;
                    if *ready == w.frag_total[ti] {
                        debug_assert!(
                            // SAFETY: placement-lane-owned, as above.
                            unsafe { *w.local_popped.get(ti) },
                            "local pop counts toward the total"
                        );
                        self.exec_q.push_back(task);
                    }
                }
                ClusterMsg::Finish { task } => {
                    let slot = self
                        .slot_at
                        .remove(&task)
                        .expect("remote fragment popped before its task ran");
                    self.sys.notify_finished(FinishedReq {
                        task: TaskId::new(task),
                        slot,
                    });
                    touched = true;
                }
            }
        }
        // Ingress: feed the Gateway in creation order.
        while let Some(&head) = self.expected.front() {
            let Some(deps) = self.arrived.remove(&head) else {
                break;
            };
            self.sys.submit(TaskId::new(head), deps);
            self.expected.pop_front();
            touched = true;
        }
        if touched {
            self.sys.advance_to(t);
        }
        // Execution: first the tasks whose last remote notice arrived
        // earlier, then the shard's ready stream.
        while self.workers.idle() > 0 {
            let Some(&task) = self.exec_q.front() else {
                break;
            };
            self.exec_q.pop_front();
            // SAFETY: placement-lane-owned (the task executes here).
            let slot = unsafe { *w.local_slot.get(task as usize) };
            self.start_task(t, round, task, slot, w);
        }
        while let Some(rt) = self.sys.peek_ready() {
            let task = rt.task.raw();
            let ti = task as usize;
            if w.placement[ti] != s {
                // A remote fragment: consume it and wake the placement
                // shard at the barrier.
                let rt = self.sys.pop_ready().expect("peeked");
                self.slot_at.insert(task, rt.slot);
                self.send(
                    t,
                    round,
                    PH_EXEC,
                    w.placement[ti],
                    ClusterMsg::Ready { task },
                    w,
                );
                continue;
            }
            // SAFETY (all three cells): placement-lane-owned.
            let ready_now = unsafe { *w.frag_ready.get(ti) };
            if ready_now + 1 == w.frag_total[ti] {
                // Popping the local fragment completes readiness: take it
                // only when a worker can start it (the single-Picos TS
                // discipline — otherwise it waits in the TS buffer).
                if self.workers.idle() == 0 {
                    break;
                }
                let rt = self.sys.pop_ready().expect("peeked");
                unsafe {
                    *w.local_slot.get(ti) = rt.slot;
                    *w.local_popped.get(ti) = true;
                    *w.frag_ready.get(ti) += 1;
                }
                self.start_task(t, round, task, rt.slot, w);
            } else {
                // Remote notices outstanding: park the fragment so it
                // cannot head-of-line-block tasks queued behind it.
                let rt = self.sys.pop_ready().expect("peeked");
                unsafe {
                    *w.local_slot.get(ti) = rt.slot;
                    *w.local_popped.get(ti) = true;
                    *w.frag_ready.get(ti) += 1;
                }
            }
        }
    }
}

/// The coordinator reaches lane links while replaying sends and retries.
impl LinkSet<ClusterMsg> for [Lane] {
    fn link(&mut self, to: u16) -> &mut Link<Packet<ClusterMsg>> {
        &mut self[to as usize].link
    }
}

/// Picks the next epoch window, or `None` when every lane is quiescent or
/// past `bound`: start at the global minimum next event (a lane event or
/// a retry deadline), end `lookahead` later (clamped so events exactly at
/// `bound` still run).
///
/// Telemetry rides on the planning point. The serial engine samples every
/// crossed window boundary in `set_clock`, *before* the pump at the new
/// event time runs — i.e. each boundary observes the state after every
/// event strictly before it. At planning time the merged global state is
/// exactly that for `tmin` (lanes are reassembled, all sends replayed), so
/// advancing the sampler to `tmin` here probes bit-identical values. The
/// epoch end is then clamped to the next boundary, which keeps every
/// future boundary on a planning point too.
fn plan_epoch(lanes: &[Lane], m: &mut MergeState<'_>, lookahead: u64, bound: u64) -> Option<u64> {
    let deadline = m.faults.as_deref().and_then(FaultState::next_deadline);
    let tmin = min_next(lanes.iter().map(Lane::next_time).chain([deadline]))?;
    if tmin > bound {
        return None;
    }
    let mut end = tmin.saturating_add(lookahead).min(bound.saturating_add(1));
    if let Some(sampler) = m.sampler.as_deref_mut() {
        if sampler.due(tmin) {
            let (caps, link_sent, faults) = (&m.caps, &*m.link_sent, m.faults.as_deref());
            sampler.advance(tmin, |out| probe_lanes(lanes, caps, link_sent, faults, out));
        }
        // `next_boundary() > tmin` always (advance leaves it strictly
        // ahead), so the clamp never stalls the epoch loop.
        end = end.min(sampler.next_boundary());
    }
    m.end = end;
    Some(end)
}

/// The cluster-level telemetry probe over lane-held state, in the exact
/// series order of the serial `probe_cluster`: summed worker occupancy,
/// per-link flight count and cumulative traffic, then — under a fault
/// layer — the four fault counters, the sender's plus every lane's.
fn probe_lanes(
    lanes: &[Lane],
    caps: &[usize],
    link_sent: &[u64],
    faults: Option<&FaultState<ClusterMsg>>,
    out: &mut [u64],
) {
    out[0] = lanes
        .iter()
        .zip(caps)
        .map(|(lane, &cap)| (cap - lane.workers.idle()) as u64)
        .sum();
    for (s, lane) in lanes.iter().enumerate() {
        out[1 + 2 * s] = lane.link.in_flight() as u64;
        out[2 + 2 * s] = link_sent[s];
    }
    if let Some(f) = faults {
        let mut c = f.counters();
        for lf in lanes.iter().filter_map(|l| l.faults.as_ref()) {
            c.add(&lf.counters());
        }
        let base = 1 + 2 * lanes.len();
        out[base..base + 4].copy_from_slice(&c.series());
    }
}

/// Fires every retry deadline before `before`, each at its own cycle —
/// where the serial pump, which stops at every deadline, fires it ahead of
/// all other work. A deadline set during an epoch falls past its end (the
/// message arrives no earlier than `send + lookahead`, the deadline after
/// that), so only deadlines pending at the epoch's start ever fire here.
fn fire_retries(lanes: &mut [Lane], m: &mut MergeState<'_>, before: u64) {
    let Some(f) = m.faults.as_deref_mut() else {
        return;
    };
    while let Some(d) = f.next_deadline().filter(|&d| d < before) {
        for (seq, (from, to)) in f.pump_retries(d, lanes).into_iter().enumerate() {
            m.link_sent[to as usize] += 1;
            if m.events.is_enabled() {
                m.evs.push(EvRec {
                    t: d,
                    round: 0,
                    phase: PH_RETRY,
                    lane: 0,
                    seq: seq as u32,
                    ev: SimEvent::ShardMsg { from, to, at: d },
                });
            }
            if let Some(log) = m.spans.as_deref_mut() {
                log.record(SpanKind::MsgRetry, d, from, u32::MAX, 0);
            }
        }
        *m.clock = (*m.clock).max(d);
    }
}

/// Replays one epoch's buffered emissions in serial-pump order.
fn merge_epoch(lanes: &mut [Lane], m: &mut MergeState<'_>) {
    m.outs.clear();
    m.starts.clear();
    m.evs.clear();
    for lane in lanes.iter_mut() {
        m.outs.append(&mut lane.outbox);
        m.starts.append(&mut lane.starts);
        m.evs.append(&mut lane.events);
        *m.finished += lane.finished;
        lane.finished = 0;
        *m.clock = (*m.clock).max(lane.now);
    }
    // The serial pump's order of sends and acks: time, then pump round,
    // then phase, then sender shard, then the sender's emission order.
    // Replaying in that order reproduces each link's free_at/seq evolution
    // (and so every delivery time) and every fault draw bit-for-bit, with
    // each retry deadline fired ahead of the work at or after its cycle.
    m.outs
        .sort_unstable_by_key(|o| (o.t, o.round, o.phase, o.src, o.seq));
    let mut outs = std::mem::take(&mut m.outs);
    for o in outs.drain(..) {
        fire_retries(lanes, m, o.t + 1);
        match o.op {
            Op::Send { dest, words, msg } => {
                m.link_sent[dest as usize] += 1;
                let task = msg.task();
                let words = words as usize;
                let id = match m.faults.as_deref_mut() {
                    Some(f) => f.send(o.t, o.src, dest, msg, words, lanes),
                    None => {
                        lanes[dest as usize]
                            .link
                            .send_words(o.t, Packet::plain(msg), words);
                        0
                    }
                };
                if let Some(log) = m.spans.as_deref_mut() {
                    log.record(SpanKind::MsgSend, o.t, o.src, task, id);
                }
            }
            Op::Ack(id) => m
                .faults
                .as_deref_mut()
                .expect("acks need a fault layer")
                .ack(id),
        }
    }
    m.outs = outs;
    fire_retries(lanes, m, m.end);
    // All starts happen in the execution phase, so the schedule-log key
    // needs no phase component.
    m.starts
        .sort_unstable_by_key(|r| (r.t, r.round, r.lane, r.seq));
    for r in m.starts.drain(..) {
        if r.restart {
            m.log.rebegin(r.task, r.start, r.dur);
        } else {
            m.log.begin(r.task, r.start, r.dur);
        }
    }
    m.evs
        .sort_unstable_by_key(|e| (e.t, e.round, e.phase, e.lane, e.seq));
    for e in m.evs.drain(..) {
        m.events.push(e.ev);
    }
}

/// The epoch loop on the caller's thread — the engine's default (see
/// [`ClusterSession::run_epochs`]). Identical results to the threaded
/// loop: scheduling never influences what a lane computes.
fn run_inline(lanes: &mut [Lane], world: &World<'_>, m: &mut MergeState<'_>, la: u64, bound: u64) {
    while let Some(end) = plan_epoch(lanes, m, la, bound) {
        for lane in lanes.iter_mut() {
            lane.run_epoch(end, world);
        }
        merge_epoch(lanes, m);
    }
}

/// The panic payload as a message, for [`ClusterError::LanePanic`].
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Records the *first* caught panic. Must be called before poisoning the
/// barrier so the original panic outranks the secondary poison panics it
/// releases in the other threads.
fn note_panic(note: &Mutex<Option<String>>, p: Box<dyn std::any::Any + Send>) {
    if let Ok(mut slot) = note.lock() {
        if slot.is_none() {
            *slot = Some(panic_message(p));
        }
    }
}

/// The epoch loop on `threads` scoped OS threads. Thread 0 is the
/// coordinator *and* drives lane chunk 0; two barrier waits delimit each
/// epoch: plan → **barrier** → compute → **barrier** → merge/plan …
///
/// A panicking lane (or coordinator) is *caught*: the catcher records the
/// first panic message, poisons the barrier so every other participant
/// unblocks (their poison panics are caught and discarded in turn), and
/// the loop returns the message instead of unwinding — the caller turns it
/// into a typed [`ClusterError::LanePanic`].
fn run_threaded(
    lanes: &mut [Lane],
    world: &World<'_>,
    m: &mut MergeState<'_>,
    la: u64,
    bound: u64,
    threads: usize,
) -> Option<String> {
    let chunk = lanes.len().div_ceil(threads);
    let barrier = SpinBarrier::new(threads);
    let ctl = PhaseCell::new(Ctl::default());
    let shared = DisjointSlice::new(lanes);
    let note: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for tid in 1..threads {
            let lo = tid * chunk;
            let hi = ((tid + 1) * chunk).min(shared.len());
            let (barrier, ctl, shared, note) = (&barrier, &ctl, &shared, &note);
            scope.spawn(move || {
                let work = || loop {
                    barrier.wait();
                    // SAFETY: the coordinator wrote `ctl` before releasing
                    // this barrier and won't touch it until the next one.
                    let c = unsafe { *ctl.get() };
                    if c.done {
                        break;
                    }
                    for i in lo..hi {
                        // SAFETY: lane chunk [lo, hi) is this thread's
                        // alone during the compute phase.
                        unsafe { shared.get(i) }.run_epoch(c.end, world);
                    }
                    barrier.wait();
                };
                if let Err(p) = catch_unwind(AssertUnwindSafe(work)) {
                    // Record, then unblock everyone else — they would
                    // otherwise spin on a participant that never arrives.
                    note_panic(note, p);
                    barrier.poison();
                }
            });
        }
        let coordinate = || loop {
            // SAFETY: every worker is parked at (or headed to) the first
            // barrier and touches no shared state until it releases — the
            // coordinator owns all lanes and the control block here.
            let done = unsafe {
                let all = shared.as_mut_slice();
                merge_epoch(all, m);
                let c = ctl.get();
                match plan_epoch(all, m, la, bound) {
                    Some(end) => {
                        *c = Ctl { end, done: false };
                        false
                    }
                    None => {
                        *c = Ctl { end: 0, done: true };
                        true
                    }
                }
            };
            barrier.wait();
            if done {
                break;
            }
            // SAFETY: written before the barrier, stable until the next.
            let end = unsafe { ctl.get() }.end;
            for i in 0..chunk.min(shared.len()) {
                // SAFETY: lane chunk 0 is thread 0's during compute.
                unsafe { shared.get(i) }.run_epoch(end, world);
            }
            barrier.wait();
        };
        if let Err(p) = catch_unwind(AssertUnwindSafe(coordinate)) {
            note_panic(&note, p);
            barrier.poison();
        }
    });
    note.into_inner().unwrap_or_else(|e| e.into_inner())
}

impl ClusterSession {
    /// The conservative engine's lookahead: a message sent at `t` delivers
    /// no earlier than `t + occupancy + latency` (`Link::send_words` costs
    /// at least one `occupancy` flit plus `latency`, and link backpressure
    /// only delays further).
    fn lookahead(&self) -> u64 {
        self.cfg.link.occupancy + self.cfg.link.latency
    }

    /// Whether the epoch engine may drive this session:
    ///
    /// * more than one configured thread and more than one shard;
    /// * nonzero lookahead (a zero-cost interconnect leaves no safe
    ///   window);
    /// * no caught lane panic — a dead session must not be driven.
    ///
    /// A fault plan does *not* force the serial engine: its shard-local
    /// half (pause deferral, drop discard, dedup, worker faults) runs in
    /// the lanes, and every random draw and sender-side table update
    /// (sends, acks, retries) replays in the merge in serial pump order.
    /// A telemetry sampler does not either: the cluster's windowed series
    /// probe global state, but only ever at window boundaries, and the
    /// epoch planner clamps every epoch to the next boundary — so each
    /// boundary is observed at a planning point, where the merged global
    /// state equals the serial engine's (see [`plan_epoch`]).
    pub(super) fn par_eligible(&self) -> bool {
        self.cfg.threads > 1
            && self.cfg.shards > 1
            && self.lookahead() > 0
            && self.engine_err.is_none()
    }

    /// Drives every event at time ≤ `bound` through the parallel engine:
    /// serial pumping while the Distributor still owes task creations
    /// (their gates watch the *global* finished count, which only the
    /// serial engine tracks continuously), then lane epochs once the feed
    /// is drained. Leaves the clock at the last processed event time, like
    /// the serial event loop.
    pub(super) fn drive_events_par(&mut self, bound: u64) {
        loop {
            self.pump();
            if self.next_feed == self.ingest.admitted {
                break;
            }
            match self.next_time() {
                Some(tn) if tn <= bound => self.set_clock(tn),
                _ => return,
            }
        }
        self.run_epochs(bound);
    }

    /// Splits the session into shard lanes, runs the epoch loop (inline
    /// unless `PICOS_CLUSTER_FORCE_THREADS` is set), and reassembles — the
    /// serial representation stays authoritative between drives.
    fn run_epochs(&mut self, bound: u64) {
        let k = self.cfg.shards;
        let lookahead = self.lookahead();
        debug_assert!(lookahead > 0, "guarded by par_eligible");
        let mut sys = std::mem::take(&mut self.sys).into_iter();
        let mut workers = std::mem::take(&mut self.workers).into_iter();
        let mut links = std::mem::take(&mut self.links).into_iter();
        let mut expected = std::mem::take(&mut self.expected).into_iter();
        let mut arrived = std::mem::take(&mut self.arrived).into_iter();
        let mut slot_at = std::mem::take(&mut self.slot_at).into_iter();
        let mut exec_q = std::mem::take(&mut self.exec_q).into_iter();
        let mut shard_faults = self.faults.as_mut().map(|f| f.take_shards().into_iter());
        // A killed task's restart flag moves to its placement lane, where
        // the task re-executes.
        let mut restarts = vec![HashSet::new(); k];
        for task in self.restarts.drain() {
            restarts[self.placement[task as usize] as usize].insert(task);
        }
        let mut restarts = restarts.into_iter();
        let mut lanes: Vec<Lane> = (0..k)
            .map(|id| Lane {
                id: id as u16,
                sys: sys.next().expect("k shards"),
                workers: workers.next().expect("k shards"),
                link: links.next().expect("k shards"),
                expected: expected.next().expect("k shards"),
                arrived: arrived.next().expect("k shards"),
                slot_at: slot_at.next().expect("k shards"),
                exec_q: exec_q.next().expect("k shards"),
                faults: shard_faults.as_mut().map(|it| it.next().expect("k shards")),
                restarts: restarts.next().expect("k shards"),
                outbox: Vec::new(),
                starts: Vec::new(),
                events: Vec::new(),
                spans: self.spans.as_ref().map(|_| SpanLog::new()),
                finished: 0,
                now: self.t,
                seq: 0,
            })
            .collect();
        let world = World {
            placement: &self.placement,
            remote: &self.remote,
            frag_total: &self.frag_total,
            durs: &self.durs,
            frag_ready: DisjointSlice::new(&mut self.frag_ready),
            local_popped: DisjointSlice::new(&mut self.local_popped),
            local_slot: DisjointSlice::new(&mut self.local_slot),
            dispatch: self.cfg.dispatch,
            collect_events: self.events.is_enabled(),
            test_panic: test_lane_panic(),
        };
        let caps: Vec<usize> = (0..k).map(|s| self.cfg.shard_workers(s)).collect();
        let mut merge = MergeState {
            log: &mut self.log,
            events: &mut self.events,
            spans: self.spans.as_mut(),
            faults: self.faults.as_deref_mut(),
            link_sent: &mut self.link_sent,
            finished: &mut self.ingest.finished,
            clock: &mut self.t,
            end: 0,
            sampler: self.sampler.as_mut(),
            caps,
            outs: Vec::new(),
            starts: Vec::new(),
            evs: Vec::new(),
        };
        // The lanes run on the caller's thread. Spreading them over OS
        // threads is bit-identical but, on the hosts measured so far, slower:
        // every barrier hands lane buffers between cores, and on 2 vCPUs two
        // threads over four lanes ran each lane 40–60% slower than inline,
        // so threaded drives lost 25–35%. PICOS_CLUSTER_FORCE_THREADS runs
        // them on up to `threads` OS threads, which the conformance tests
        // use to pin the threaded loop.
        let threads = if std::env::var_os("PICOS_CLUSTER_FORCE_THREADS").is_some() {
            self.cfg.threads.min(k)
        } else {
            1
        };
        let panic_note = if threads <= 1 {
            catch_unwind(AssertUnwindSafe(|| {
                run_inline(&mut lanes, &world, &mut merge, lookahead, bound)
            }))
            .err()
            .map(panic_message)
        } else {
            run_threaded(&mut lanes, &world, &mut merge, lookahead, bound, threads)
        };
        let mut shard_faults = Vec::new();
        for lane in lanes {
            self.sys.push(lane.sys);
            self.workers.push(lane.workers);
            self.links.push(lane.link);
            self.expected.push(lane.expected);
            self.arrived.push(lane.arrived);
            self.slot_at.push(lane.slot_at);
            self.exec_q.push(lane.exec_q);
            shard_faults.extend(lane.faults);
            self.restarts.extend(lane.restarts);
            if let (Some(log), Some(lane_log)) = (self.spans.as_mut(), lane.spans) {
                log.extend_from(&lane_log);
            }
        }
        if let Some(f) = self.faults.as_mut() {
            f.return_shards(shard_faults);
        }
        if let Some(detail) = panic_note {
            // Lane state past the panic point is unspecified — even the
            // parity advance below could trip an engine assert. Mark the
            // session dead so no driver touches it again, and surface the
            // typed error from `into_output`.
            self.engine_err = Some(ClusterError::LanePanic { detail });
            return;
        }
        // Serial parity: every pump advances every shard core to the
        // current event time; lanes only advanced to their own last event.
        let t = self.t;
        for s in self.sys.iter_mut() {
            s.advance_to(t);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Lane id forced to panic on its first epoch (tests only; a
    /// thread-local so parallel `cargo test` threads stay isolated).
    static TEST_LANE_PANIC: std::cell::Cell<Option<u16>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn test_lane_panic() -> Option<u16> {
    TEST_LANE_PANIC.with(|c| c.get())
}

#[cfg(not(test))]
fn test_lane_panic() -> Option<u16> {
    None
}

#[cfg(test)]
mod panic_tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::system::{ClusterOutput, ClusterSession};
    use picos_runtime::session::{feed_trace, SessionConfig};
    use picos_trace::{gen, Trace};

    /// A batch run: opens a session, feeds the whole trace and finishes.
    fn run(trace: &Trace, cfg: &ClusterConfig) -> Result<ClusterOutput, ClusterError> {
        let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch())?;
        feed_trace(&mut s, trace).unwrap();
        s.into_output()
    }

    #[test]
    fn lane_panic_surfaces_as_typed_error_not_hang() {
        // Force real OS threads so the barrier/poison path is exercised
        // even on a one-core machine (same caveat as the epoch-loop test:
        // the env var only selects the threaded loop).
        std::env::set_var("PICOS_CLUSTER_FORCE_THREADS", "1");
        TEST_LANE_PANIC.with(|c| c.set(Some(3)));
        let tr = gen::stream(gen::StreamConfig::heavy(200));
        let cfg = ClusterConfig::balanced(4, 8).with_threads(4);
        let got = run(&tr, &cfg);
        TEST_LANE_PANIC.with(|c| c.set(None));
        std::env::remove_var("PICOS_CLUSTER_FORCE_THREADS");
        match got {
            Err(ClusterError::LanePanic { detail }) => {
                assert!(
                    detail.contains("injected test panic in lane 3"),
                    "panic message must survive: {detail}"
                );
            }
            other => panic!("expected LanePanic, got {other:?}"),
        }
    }

    #[test]
    fn inline_lane_panic_is_caught_too() {
        TEST_LANE_PANIC.with(|c| c.set(Some(0)));
        let tr = gen::stream(gen::StreamConfig::heavy(150));
        // Without PICOS_CLUSTER_FORCE_THREADS the epoch loop runs inline,
        // covering the catch there.
        let cfg = ClusterConfig::balanced(2, 4).with_threads(2);
        let got = run(&tr, &cfg);
        TEST_LANE_PANIC.with(|c| c.set(None));
        assert!(
            matches!(got, Err(ClusterError::LanePanic { .. })),
            "expected LanePanic, got {got:?}"
        );
    }
}
