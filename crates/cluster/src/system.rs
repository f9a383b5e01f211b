//! The cluster driver: N Picos shards, a Distributor, and the inter-shard
//! interconnect, advanced as one deterministic discrete-event loop — a
//! resumable [`ClusterSession`] that ingests task fragments as they
//! arrive.
//!
//! # Protocol
//!
//! For every task the Distributor splits the dependence list into
//! per-home-shard fragments (see [`crate::home_shard`]):
//!
//! 1. **Registration.** The local fragment (placement shard) enters that
//!    shard's Gateway queue directly, exactly like the HW-only HIL driver's
//!    pre-load. Remote fragments cross the interconnect as registration
//!    messages of `deps + 1` payload words. Each shard **ingests fragments
//!    in global task-creation order** (an ingress reorder stage buffers
//!    early arrivals), so every per-address dependence chain sees the same
//!    registration order a single Picos would — this is what preserves
//!    TaskGraph-order correctness for any shard count.
//! 2. **Wake-up.** A fragment popping out of a remote shard's Task
//!    Scheduler sends a ready notice back to the placement shard (one
//!    word). The task may start once its local fragment has popped *and*
//!    every remote notice has arrived.
//! 3. **Execution.** The placement shard's TS output port hands tasks to
//!    workers with the HW-only dispatch cost. Remote-task fragments at the
//!    head of the ready stream are consumed unconditionally; a local task
//!    at the head waits for a free worker (the single-Picos discipline).
//! 4. **Finish.** Worker completion notifies the local shard immediately
//!    and every remote fragment shard over the interconnect, releasing
//!    TM/DM/VM entries and waking successors there.
//!
//! With one shard, steps 2 and 4's remote halves never fire and the loop
//! is statement-for-statement the HW-only driver: cycle-identical.

mod par_drive;
mod snap;

use crate::config::{home_shard, ClusterConfig, ClusterError, ShardPolicy};
use crate::fault::{FaultCounters, FaultPlan, FaultState, Packet};
use picos_core::{FinishedReq, PicosSystem, SlotRef, Stats};
use picos_hil::Link;
use picos_metrics::span::{SpanKind, SpanLog};
use picos_metrics::{SeriesSpec, Timeline, WindowSampler};
use picos_runtime::session::{
    Admission, EventLog, EventLoopCore, Ingest, ScheduleLog, SessionConfig, SessionCore, SimEvent,
};
use picos_runtime::ExecReport;
use picos_trace::{Dependence, TaskDescriptor, TaskId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Messages crossing the inter-shard interconnect.
#[derive(Debug, Clone, PartialEq)]
enum ClusterMsg {
    /// A remote dependence-registration fragment travelling to the home
    /// shard of its addresses. Sized by its dependence count on the link.
    Register { task: u32, deps: Arc<[Dependence]> },
    /// A remote fragment became ready; travels to the placement shard.
    Ready { task: u32 },
    /// The task finished; travels to a remote fragment's shard.
    Finish { task: u32 },
}

impl ClusterMsg {
    /// The task this message is about, for span annotation.
    fn task(&self) -> u32 {
        match self {
            ClusterMsg::Register { task, .. }
            | ClusterMsg::Ready { task }
            | ClusterMsg::Finish { task } => *task,
        }
    }
}

fn min_next(cands: impl IntoIterator<Item = Option<u64>>) -> Option<u64> {
    cands.into_iter().flatten().min()
}

/// Everything a finished cluster session yields: the report, per-shard
/// hardware counters, the stitched [`Timeline`] when a telemetry window
/// was attached, and the [`FaultCounters`] when an active [`FaultPlan`]
/// was.
pub type ClusterOutput = (
    ExecReport,
    Vec<Stats>,
    Option<Timeline>,
    Option<FaultCounters>,
    Option<SpanLog>,
);

/// A resumable cluster stepper: shards ingest dependence-list fragments as
/// tasks stream in, with placement and fragment planning performed
/// per-task at submission (the policies only look at the task itself, so
/// streaming placement equals the batch plan).
///
/// Feeding a whole trace and finishing is the batch run; with one shard
/// it is cycle-identical to the HW-only HIL session.
///
/// Cloning is a deep copy of the entire cluster — the in-memory fork
/// primitive: a cloned session diverges freely without touching the
/// original. [`ClusterSession::save_state`] /
/// [`ClusterSession::load_state`] are the serialized equivalents.
#[derive(Debug, Clone)]
pub struct ClusterSession {
    cfg: ClusterConfig,
    sys: Vec<PicosSystem>,
    workers: Vec<picos_hil::Workers>,
    links: Vec<Link<Packet<ClusterMsg>>>,
    /// Ingress reorder stage: fragments enter each shard's Gateway
    /// strictly in task-creation order.
    expected: Vec<VecDeque<u32>>,
    arrived: Vec<HashMap<u32, Arc<[Dependence]>>>,
    /// Remote fragments' TM slots, recorded when they pop ready.
    slot_at: Vec<HashMap<u32, SlotRef>>,
    /// Tasks fully ready (last notice arrived) awaiting a free worker.
    exec_q: Vec<VecDeque<u32>>,
    // Per-task plan and readiness state, grown at submission.
    placement: Vec<u16>,
    local: Vec<Arc<[Dependence]>>,
    remote: Vec<Vec<(u16, Arc<[Dependence]>)>>,
    /// Readiness countdown target: local pop + one notice per remote
    /// fragment.
    frag_total: Vec<u8>,
    frag_ready: Vec<u8>,
    local_popped: Vec<bool>,
    local_slot: Vec<SlotRef>,
    durs: Vec<u64>,
    /// Round-robin fallback for dependence-free tasks.
    rr: usize,
    /// Scratch for the locality-affine placement count.
    counts: Vec<usize>,
    empty_deps: Arc<[Dependence]>,
    /// Distributor cursor: next admitted task to create.
    next_feed: usize,
    t: u64,
    touched: Vec<bool>,
    ingest: Ingest,
    log: ScheduleLog,
    events: EventLog,
    /// Messages ever sent into each shard's ingress link (cumulative; the
    /// windowed-delta probe of the interconnect series).
    link_sent: Vec<u64>,
    /// Cluster-level telemetry (worker occupancy, per-link interconnect
    /// occupancy); each shard's core sampler rides inside its
    /// [`PicosSystem`]. `None` keeps every clock move sampling-free.
    sampler: Option<WindowSampler>,
    /// Driver-side lifecycle span recorder (submit, dispatch, start,
    /// finish, interconnect traffic, faults); each shard core's own probe
    /// rides inside its [`PicosSystem`] and is merged at finish. In
    /// parallel drives the lanes record into their own logs with the same
    /// cycle stamps, so the canonically sorted result is thread-count
    /// independent. Observation-only.
    spans: Option<SpanLog>,
    /// The attached fault layer (ack/retry protocol, fault draws, pause
    /// deferral, worker-fault schedule), or `None` for the plain engine.
    faults: Option<Box<FaultState<ClusterMsg>>>,
    /// Tasks whose first execution a fail-stop worker fault killed; their
    /// restart updates the schedule log instead of appending to it.
    restarts: HashSet<u32>,
    /// A caught parallel-lane panic: the session is dead and reports this
    /// instead of driving further.
    engine_err: Option<ClusterError>,
}

impl ClusterSession {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`] on an invalid configuration.
    pub fn new(cfg: ClusterConfig, session: SessionConfig) -> Result<Self, ClusterError> {
        cfg.validate().map_err(ClusterError::Config)?;
        session.validate().map_err(ClusterError::Config)?;
        let k = cfg.shards;
        let mut sys: Vec<PicosSystem> = (0..k)
            .map(|_| PicosSystem::new(cfg.picos.clone()))
            .collect();
        let sampler = session.timeline_window.map(|w| {
            let mut series = vec![SeriesSpec::gauge("workers.busy")];
            for s in 0..k {
                series.push(SeriesSpec::gauge(format!("link{s}.inflight")));
                series.push(SeriesSpec::delta(format!("link{s}.sent")));
            }
            // Fault series only for an *active* plan: a zero-fault plan's
            // timeline must match a plan-free run column for column.
            if cfg.faults.as_ref().is_some_and(FaultPlan::is_active) {
                for name in [
                    "faults.drops",
                    "faults.retries",
                    "faults.redeliveries",
                    "faults.recoveries",
                ] {
                    series.push(SeriesSpec::delta(name));
                }
            }
            for shard in sys.iter_mut() {
                shard.attach_timeline(w);
            }
            WindowSampler::new(w, series)
        });
        // An inactive plan (nothing it could ever inject) attaches no
        // runtime state at all: the session runs the literal plain engine,
        // so zero-fault bit-identity — and the fault layer's 3% overhead
        // budget — hold structurally.
        let faults = cfg
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(|p| Box::new(FaultState::new(p, k)));
        let spans = session.trace_spans.then(|| {
            for (s, shard) in sys.iter_mut().enumerate() {
                shard.attach_spans(s as u16);
            }
            SpanLog::new()
        });
        Ok(ClusterSession {
            sys,
            workers: (0..k)
                .map(|s| picos_hil::Workers::new(cfg.shard_workers(s)))
                .collect(),
            links: (0..k).map(|_| Link::new(cfg.link)).collect(),
            expected: vec![VecDeque::new(); k],
            arrived: vec![HashMap::new(); k],
            slot_at: vec![HashMap::new(); k],
            exec_q: vec![VecDeque::new(); k],
            placement: Vec::new(),
            local: Vec::new(),
            remote: Vec::new(),
            frag_total: Vec::new(),
            frag_ready: Vec::new(),
            local_popped: Vec::new(),
            local_slot: Vec::new(),
            durs: Vec::new(),
            rr: 0,
            counts: vec![0; k],
            empty_deps: Arc::from(Vec::new()),
            next_feed: 0,
            t: 0,
            touched: vec![false; k],
            ingest: Ingest::new(session.window),
            log: ScheduleLog::default(),
            events: EventLog::new(session.collect_events),
            link_sent: vec![0; k],
            sampler,
            spans,
            faults,
            restarts: HashSet::new(),
            engine_err: None,
            cfg,
        })
    }

    /// Reads the cluster-level probe points (worker occupancy, per-link
    /// interconnect occupancy and traffic) in the sampler's series order.
    fn probe_cluster(&self, out: &mut [u64]) {
        out[0] = (0..self.cfg.shards)
            .map(|s| (self.cfg.shard_workers(s) - self.workers[s].idle()) as u64)
            .sum();
        for (s, link) in self.links.iter().enumerate() {
            out[1 + 2 * s] = link.in_flight() as u64;
            out[2 + 2 * s] = self.link_sent[s];
        }
        if let Some(c) = self.fault_counters() {
            let base = 1 + 2 * self.cfg.shards;
            out[base] = c.drops;
            out[base + 1] = c.retries;
            out[base + 2] = c.redeliveries;
            out[base + 3] = c.recoveries;
        }
    }

    /// End-of-run fault/recovery counters, present only when an *active*
    /// fault plan is attached (a zero-fault plan reports nothing, keeping
    /// it observationally identical to no plan at all).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults
            .as_ref()
            .filter(|f| f.plan_active())
            .map(|f| f.counters())
    }

    /// Places one task and splits its dependence list into per-home-shard
    /// fragments (the streaming equivalent of the batch plan).
    fn plan_task(&mut self, i: usize, task: &TaskDescriptor) {
        let k = self.cfg.shards;
        if k == 1 {
            self.placement.push(0);
            self.local.push(task.deps.clone());
            self.remote.push(Vec::new());
            return;
        }
        let p = match self.cfg.policy {
            ShardPolicy::RoundRobin => i % k,
            ShardPolicy::AddrHash => match task.deps.first() {
                Some(d) => home_shard(d.addr, k),
                None => {
                    self.rr += 1;
                    (self.rr - 1) % k
                }
            },
            ShardPolicy::LocalityAffine => {
                if task.deps.is_empty() {
                    self.rr += 1;
                    (self.rr - 1) % k
                } else {
                    self.counts.iter_mut().for_each(|c| *c = 0);
                    for d in task.deps.iter() {
                        self.counts[home_shard(d.addr, k)] += 1;
                    }
                    let best = *self.counts.iter().max().expect("k > 0");
                    self.counts
                        .iter()
                        .position(|&c| c == best)
                        .expect("max exists")
                }
            }
        };
        // Bucket the dependence list by home shard, preserving order.
        let mut buckets: Vec<(usize, Vec<Dependence>)> = Vec::new();
        for &d in task.deps.iter() {
            let h = home_shard(d.addr, k);
            match buckets.iter_mut().find(|(s, _)| *s == h) {
                Some((_, v)) => v.push(d),
                None => buckets.push((h, vec![d])),
            }
        }
        buckets.sort_by_key(|(s, _)| *s);
        let mut loc = self.empty_deps.clone();
        let mut rem = Vec::new();
        for (s, deps) in buckets {
            if s == p {
                loc = deps.into();
            } else {
                rem.push((s as u16, Arc::<[Dependence]>::from(deps)));
            }
        }
        self.placement.push(p as u16);
        self.local.push(loc);
        self.remote.push(rem);
    }

    /// Starts a task on shard `s`'s workers with the HW-only dispatch
    /// cost. Both readiness paths (direct local pop, `exec_q` drain after
    /// the last remote notice) share this helper so they stay identical.
    fn start_task(&mut self, s: usize, task: u32, slot: SlotRef) {
        let st = self.t + self.cfg.dispatch;
        let dur = self.durs[task as usize];
        let end = if self.restarts.remove(&task) {
            // A fail-stop fault killed the first execution; the restart
            // replaces its schedule entry instead of appending a new one.
            self.log.rebegin(task, st, dur)
        } else {
            self.log.begin(task, st, dur)
        };
        self.events.push(SimEvent::TaskStarted { task, at: st });
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Dispatched, self.t, s as u16, task, 0);
            log.record(SpanKind::Started, st, s as u16, task, 0);
        }
        self.workers[s].start(end, task, slot);
    }

    /// Sends one interconnect message: through the fault layer when one is
    /// attached (packet id, fate draws, retry deadline), plain otherwise.
    fn send_msg(
        &mut self,
        faults: &mut Option<Box<FaultState<ClusterMsg>>>,
        from: usize,
        to: usize,
        msg: ClusterMsg,
        words: usize,
    ) {
        self.link_sent[to] += 1;
        let task = msg.task();
        let id = match faults.as_mut() {
            Some(f) => f.send(self.t, from as u16, to as u16, msg, words, &mut self.links),
            None => {
                self.links[to].send_words(self.t, Packet::plain(msg), words);
                0
            }
        };
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::MsgSend, self.t, from as u16, task, id);
        }
        self.events.push(SimEvent::ShardMsg {
            from: from as u16,
            to: to as u16,
            at: self.t,
        });
    }

    /// Handles one delivered interconnect message at shard `s` — the
    /// shared body behind fresh link deliveries and pause-released
    /// deferrals. `pkt_id` is the delivered wire packet's id (0 for plain
    /// packets), forwarded to the message's delivery span.
    fn deliver(&mut self, s: usize, msg: ClusterMsg, pkt_id: u32) {
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::MsgDeliver, self.t, s as u16, msg.task(), pkt_id);
        }
        match msg {
            ClusterMsg::Register { task, deps } => {
                self.arrived[s].insert(task, deps);
            }
            ClusterMsg::Ready { task } => {
                let ti = task as usize;
                self.frag_ready[ti] += 1;
                if self.frag_ready[ti] == self.frag_total[ti] {
                    debug_assert!(self.local_popped[ti], "local pop counts toward the total");
                    self.exec_q[s].push_back(task);
                }
            }
            ClusterMsg::Finish { task } => {
                let slot = self.slot_at[s]
                    .remove(&task)
                    .expect("remote fragment popped before its task ran");
                self.sys[s].notify_finished(FinishedReq {
                    task: TaskId::new(task),
                    slot,
                });
                self.touched[s] = true;
            }
        }
    }

    /// Runs the session to quiescence and returns the schedule report,
    /// each shard's hardware counters (index = shard id; aggregate with
    /// [`merged_stats`]), the run's [`Timeline`] when the session was
    /// opened with a telemetry window (the cluster series `workers.busy`,
    /// per-link `linkK.inflight` / `linkK.sent` stitched with every shard
    /// core's probe series under the `sK.core.` scopes), the final
    /// fault-protocol counters when an *active* [`FaultPlan`] is attached
    /// (`None` for fault-free sessions and zero-fault plans, whose runs are
    /// bit-identical to no plan at all), and the run's lifecycle
    /// [`SpanLog`] when the session was opened with span tracing: driver
    /// events merged with every shard core's probe events, in recording
    /// order. Serial and parallel drives record the same event *multiset*
    /// in different interleavings; [`SpanLog::canonical_sort`] makes the
    /// logs bit-equal for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Stalled`] if work remains that no event
    /// will release (an engine bug), [`ClusterError::LanePanic`] if a
    /// parallel lane panicked, and the fault layer's typed error when an
    /// incomplete run exhausted its retry budget.
    pub fn into_output(mut self) -> Result<ClusterOutput, ClusterError> {
        if self.par_eligible() {
            // Unbounded drive: the epoch engine stops when every lane is
            // quiescent, exactly where drive_finish would.
            self.drive_events_par(u64::MAX);
        } else if self.engine_err.is_none() {
            self.drive_finish();
        }
        if let Some(e) = self.engine_err.take() {
            return Err(e);
        }
        let n = self.ingest.admitted;
        let clean = self.log.order.len() == n
            && self.sys.iter().all(|s| s.in_flight() == 0)
            && self.links.iter().all(|l| l.in_flight() == 0)
            && self.workers.iter().all(|w| !w.busy())
            && self.exec_q.iter().all(VecDeque::is_empty)
            && self.expected.iter().all(VecDeque::is_empty)
            && self.next_feed == n;
        if !clean {
            // A run that completed despite timed-out messages reports
            // success; only an *incomplete* run surfaces the fault error.
            if let Some(e) = self.faults.as_ref().and_then(|f| f.error().cloned()) {
                return Err(e);
            }
            return Err(ClusterError::Stalled {
                executed: self.log.order.len(),
                total: n,
                at: self.t,
            });
        }
        let stats = self.sys.iter().map(PicosSystem::stats).collect();
        let timeline = match self.sampler.take() {
            Some(sampler) => {
                let end = self.t;
                let cluster = sampler.finish(end, |out| self.probe_cluster(out));
                let shard_tls: Vec<Timeline> = self
                    .sys
                    .iter_mut()
                    .map(|s| {
                        s.take_timeline()
                            .expect("every shard sampler attached alongside the cluster sampler")
                    })
                    .collect();
                let mut parts: Vec<(String, &Timeline)> = vec![(String::new(), &cluster)];
                for (k, tl) in shard_tls.iter().enumerate() {
                    parts.push((format!("s{k}.core."), tl));
                }
                let borrowed: Vec<(&str, &Timeline)> =
                    parts.iter().map(|(p, t)| (p.as_str(), *t)).collect();
                Some(Timeline::stitch(&borrowed))
            }
            None => None,
        };
        let fault_counters = self.fault_counters();
        let mut spans = self.spans.take();
        if let Some(log) = spans.as_mut() {
            for shard in self.sys.iter_mut() {
                if let Some(core) = shard.take_spans() {
                    log.extend_from(&core);
                }
            }
        }
        Ok((
            self.log.into_report("cluster", self.cfg.workers),
            stats,
            timeline,
            fault_counters,
            spans,
        ))
    }
}

impl EventLoopCore for ClusterSession {
    /// Runs the loop body of the batch driver at the current time.
    fn pump(&mut self) {
        let k = self.cfg.shards;
        let t = self.t;
        // The fault layer moves into a local for the pump's duration so
        // its methods can borrow the links/session state alongside it.
        let mut faults = self.faults.take();
        for s in self.sys.iter_mut() {
            s.advance_to(t);
        }
        self.touched.iter_mut().for_each(|f| *f = false);
        // Fault layer first: fail-stop worker faults (a killed in-flight
        // task re-enters the execution queue for deterministic
        // re-execution), then due retry deadlines.
        if let Some(f) = faults.as_mut() {
            while let Some(sh) = f.due_worker_fault(t) {
                let s = sh as usize;
                if let Some((task, slot)) = self.workers[s].fail_one() {
                    self.local_slot[task as usize] = slot;
                    self.restarts.insert(task);
                    self.exec_q[s].push_back(task);
                    f.note_recovery();
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Fault, t, sh, task, 0);
                    }
                }
            }
            for (from, to) in f.pump_retries(t, &mut self.links) {
                self.link_sent[to as usize] += 1;
                self.events.push(SimEvent::ShardMsg { from, to, at: t });
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::MsgRetry, t, from, u32::MAX, 0);
                }
            }
        }
        // Worker completions: notify the local shard now, remote fragment
        // shards over the interconnect.
        for s in 0..k {
            while let Some((task, slot)) = self.workers[s].pop_done_at(t) {
                self.sys[s].notify_finished(FinishedReq {
                    task: TaskId::new(task),
                    slot,
                });
                for ri in 0..self.remote[task as usize].len() {
                    let r = self.remote[task as usize][ri].0 as usize;
                    self.send_msg(&mut faults, s, r, ClusterMsg::Finish { task }, 1);
                }
                self.ingest.finished += 1;
                self.events.push(SimEvent::TaskFinished { task, at: t });
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::Finished, t, s as u16, task, 0);
                }
                self.touched[s] = true;
            }
        }
        // Interconnect deliveries: pause-released deferrals first (they
        // arrived earlier), then fresh arrivals, each through the fault
        // layer's receive path when one is attached.
        for s in 0..k {
            if let Some(f) = faults.as_mut() {
                while let Some(pkt) = f.pop_deferred(s, t) {
                    let id = pkt.id;
                    if let Some(msg) = f.receive(s, t, pkt) {
                        self.deliver(s, msg, id);
                    }
                }
            }
            while let Some(pkt) = self.links[s].pop_delivery_at(t) {
                let id = pkt.id;
                match faults.as_mut() {
                    Some(f) => {
                        if let Some(msg) = f.receive(s, t, pkt) {
                            self.deliver(s, msg, id);
                        }
                    }
                    None => self.deliver(s, pkt.msg, id),
                }
            }
        }
        // Distributor: create every task the taskwait structure allows.
        while self.ingest.feedable(self.next_feed, self.ingest.finished) {
            let i = self.next_feed as u32;
            let p = self.placement[self.next_feed] as usize;
            self.expected[p].push_back(i);
            self.arrived[p].insert(i, self.local[self.next_feed].clone());
            for ri in 0..self.remote[self.next_feed].len() {
                let (r, deps) = self.remote[self.next_feed][ri].clone();
                self.expected[r as usize].push_back(i);
                let words = deps.len() + 1;
                self.send_msg(
                    &mut faults,
                    p,
                    r as usize,
                    ClusterMsg::Register { task: i, deps },
                    words,
                );
            }
            self.next_feed += 1;
        }
        // Ingress: feed each Gateway in creation order.
        for s in 0..k {
            while let Some(&head) = self.expected[s].front() {
                let Some(deps) = self.arrived[s].remove(&head) else {
                    break;
                };
                self.sys[s].submit(TaskId::new(head), deps);
                self.expected[s].pop_front();
                self.touched[s] = true;
            }
        }
        for s in 0..k {
            if self.touched[s] {
                self.sys[s].advance_to(t);
            }
        }
        // Execution: first the tasks whose last remote notice arrived
        // earlier, then the shard's ready stream.
        for s in 0..k {
            while self.workers[s].idle() > 0 {
                let Some(&task) = self.exec_q[s].front() else {
                    break;
                };
                self.exec_q[s].pop_front();
                self.start_task(s, task, self.local_slot[task as usize]);
            }
            while let Some(rt) = self.sys[s].peek_ready() {
                let task = rt.task.raw();
                let ti = task as usize;
                if self.placement[ti] as usize != s {
                    // A remote fragment: consume it and wake the placement
                    // shard over the interconnect.
                    let rt = self.sys[s].pop_ready().expect("peeked");
                    self.slot_at[s].insert(task, rt.slot);
                    let p = self.placement[ti] as usize;
                    self.send_msg(&mut faults, s, p, ClusterMsg::Ready { task }, 1);
                    continue;
                }
                if self.frag_ready[ti] + 1 == self.frag_total[ti] {
                    // Popping the local fragment completes readiness: take
                    // it only when a worker can start it (the single-Picos
                    // TS discipline — otherwise it waits in the TS buffer).
                    if self.workers[s].idle() == 0 {
                        break;
                    }
                    let rt = self.sys[s].pop_ready().expect("peeked");
                    self.local_slot[ti] = rt.slot;
                    self.local_popped[ti] = true;
                    self.frag_ready[ti] += 1;
                    self.start_task(s, task, rt.slot);
                } else {
                    // Remote notices outstanding: park the fragment so it
                    // cannot head-of-line-block tasks queued behind it.
                    let rt = self.sys[s].pop_ready().expect("peeked");
                    self.local_slot[ti] = rt.slot;
                    self.local_popped[ti] = true;
                    self.frag_ready[ti] += 1;
                }
            }
        }
        self.faults = faults;
    }

    fn next_time(&self) -> Option<u64> {
        min_next(
            self.sys
                .iter()
                .map(|s| s.next_event_time())
                .chain(self.workers.iter().map(|w| w.next_done()))
                .chain(self.links.iter().map(|l| l.next_delivery()))
                .chain(std::iter::once(
                    self.faults.as_ref().and_then(|f| f.next_time()),
                )),
        )
    }

    fn clock(&self) -> u64 {
        self.t
    }

    fn set_clock(&mut self, t: u64) {
        // Telemetry boundary crossing: cluster state is constant between
        // pumps, so sampling before the clock moves observes the state
        // each crossed boundary lived under.
        if self.sampler.as_ref().is_some_and(|s| s.due(t)) {
            let mut sampler = self.sampler.take().expect("checked above");
            sampler.advance(t, |out| self.probe_cluster(out));
            self.sampler = Some(sampler);
        }
        self.t = t;
    }

    fn on_clock_jump(&mut self) {
        for s in self.sys.iter_mut() {
            s.advance_to(self.t);
        }
    }

    /// Whether the next submission cannot be ingested right now.
    fn ingest_blocked(&self) -> bool {
        self.ingest.saturated()
            || (self.next_feed < self.ingest.admitted
                && !self.ingest.feedable(self.next_feed, self.ingest.finished))
    }
}

impl SessionCore for ClusterSession {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        if self.ingest.saturated() {
            return Admission::Backpressured;
        }
        let id = self.ingest.admit() as usize;
        self.log.admit(task.duration);
        self.plan_task(id, task);
        if let Some(log) = &mut self.spans {
            log.record(
                SpanKind::Submitted,
                self.t,
                self.placement[id],
                id as u32,
                0,
            );
        }
        self.frag_total.push(1 + self.remote[id].len() as u8);
        self.frag_ready.push(0);
        self.local_popped.push(false);
        self.local_slot.push(SlotRef::new(0, 0));
        self.durs.push(task.duration);
        Admission::Accepted
    }

    fn barrier(&mut self) {
        self.ingest.barrier();
    }

    fn advance_to(&mut self, cycle: u64) {
        if self.engine_err.is_some() {
            // A caught lane panic killed the session; the error surfaces
            // from `into_output`.
            return;
        }
        if self.par_eligible() {
            self.drive_events_par(cycle);
            // The serial drive's trailing jump: land exactly on `cycle`
            // (unless a lane panic just killed the session).
            if self.engine_err.is_none() && cycle > self.t {
                self.set_clock(cycle);
                self.on_clock_jump();
            }
        } else {
            self.drive_to(cycle);
        }
    }

    fn step(&mut self) -> bool {
        if self.engine_err.is_some() {
            return false;
        }
        self.drive_step()
    }

    fn now(&self) -> u64 {
        self.t
    }

    fn in_flight(&self) -> usize {
        self.ingest.in_flight()
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        self.events.drain_into(out);
    }

    fn reserve(&mut self, additional: usize) {
        self.ingest.reserve(additional);
        self.log.reserve(additional);
        for v in [&mut self.frag_ready, &mut self.frag_total] {
            v.reserve(additional);
        }
        self.placement.reserve(additional);
        self.local.reserve(additional);
        self.remote.reserve(additional);
        self.local_popped.reserve(additional);
        self.local_slot.reserve(additional);
        self.durs.reserve(additional);
    }
}

/// Aggregates per-shard hardware counters into cluster totals under the
/// explicit [`Stats::merge`] rules: monotone totals (busy cycles, stalls,
/// processed dependences) sum across shards; `peak_*` high-water marks
/// take the maximum — shards peak at different times, so summing their
/// peaks would fabricate an occupancy no memory ever held. (Within one
/// shard, [`PicosSystem::stats`] still sums its own per-TRS/per-DCT peaks
/// inline: those describe disjoint memories of one accelerator.) A
/// one-shard cluster's merged stats equal the single system's stats
/// bit-for-bit.
pub fn merged_stats(per_shard: &[Stats]) -> Stats {
    let mut total = Stats::default();
    for s in per_shard {
        total.merge(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_runtime::session::{feed_range, feed_trace};
    use picos_trace::{gen, TaskGraph, Trace};

    /// A batch run: opens a session, feeds the whole trace and finishes.
    fn run(trace: &Trace, cfg: &ClusterConfig) -> Result<(ExecReport, Vec<Stats>), ClusterError> {
        let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch())?;
        feed_trace(&mut s, trace).unwrap();
        s.into_output().map(|(r, stats, ..)| (r, stats))
    }

    #[test]
    fn all_shard_counts_complete_and_validate() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(128));
        for shards in [1usize, 2, 3, 4, 8] {
            let (r, _) = run(&tr, &ClusterConfig::balanced(shards, 16))
                .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
            r.validate(&tr)
                .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
            assert_eq!(r.order.len(), tr.len());
        }
    }

    #[test]
    fn all_policies_are_legal() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        for policy in ShardPolicy::ALL {
            let cfg = ClusterConfig {
                policy,
                ..ClusterConfig::balanced(4, 12)
            };
            let (r, _) = run(&tr, &cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
            r.validate(&tr).unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn random_traces_are_legal_on_every_policy() {
        for seed in 0..6u64 {
            let tr = gen::random_trace(gen::RandomConfig::default(), seed);
            let g = TaskGraph::build(&tr);
            for policy in ShardPolicy::ALL {
                for shards in [2usize, 4] {
                    let cfg = ClusterConfig {
                        policy,
                        ..ClusterConfig::balanced(shards, 8)
                    };
                    let (r, _) = run(&tr, &cfg)
                        .unwrap_or_else(|e| panic!("seed {seed} {policy} {shards}: {e}"));
                    assert!(
                        g.is_topological(&r.order),
                        "seed {seed} {policy} {shards}: order illegal"
                    );
                    r.validate(&tr)
                        .unwrap_or_else(|e| panic!("seed {seed} {policy} {shards}: {e}"));
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let tr = gen::stream(gen::StreamConfig::heavy(600));
        let cfg = ClusterConfig::balanced(4, 16);
        let a = run(&tr, &cfg).unwrap();
        let b = run(&tr, &cfg).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn taskwait_barriers_respected() {
        let mut tr = Trace::new("barriered");
        let kc = picos_trace::KernelClass::GENERIC;
        for i in 0..20u64 {
            tr.push(kc, [Dependence::inout(0x1000 + i * 0x40)], 50);
        }
        tr.push_taskwait();
        for i in 0..20u64 {
            tr.push(kc, [Dependence::inout(0x9000 + i * 0x40)], 50);
        }
        for shards in [1usize, 3] {
            let (r, _) = run(&tr, &ClusterConfig::balanced(shards, 6))
                .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
            r.validate(&tr).unwrap();
        }
    }

    #[test]
    fn invalid_configs_error_not_panic() {
        let tr = gen::synthetic(gen::Case::Case1);
        let e = run(&tr, &ClusterConfig::balanced(0, 4));
        assert!(matches!(e, Err(ClusterError::Config(_))));
        let e = run(&tr, &ClusterConfig::balanced(4, 2));
        assert!(matches!(e, Err(ClusterError::Config(_))));
        assert!(e.unwrap_err().to_string().contains("workers"));
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let tr = Trace::new("empty");
        let (r, stats) = run(&tr, &ClusterConfig::balanced(2, 4)).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(merged_stats(&stats).tasks_completed, 0);
    }

    #[test]
    fn per_shard_stats_cover_all_tasks() {
        let tr = gen::stream(gen::StreamConfig::heavy(500));
        let (_, stats) = run(&tr, &ClusterConfig::balanced(4, 16)).unwrap();
        assert_eq!(stats.len(), 4);
        let total = merged_stats(&stats);
        // Every task submits a local fragment; remote fragments add more.
        assert!(total.tasks_submitted >= tr.len() as u64);
        assert_eq!(total.tasks_submitted, total.tasks_completed);
        // Sharding must actually spread dependence processing.
        let active = stats.iter().filter(|s| s.deps_processed > 0).count();
        assert!(active >= 2, "only {active} shards processed dependences");
    }

    #[test]
    fn lifo_policy_is_legal_on_clusters() {
        let tr = gen::lu(gen::LuConfig::paper(64));
        let mut cfg = ClusterConfig::balanced(3, 9);
        cfg.picos = cfg.picos.with_ts_policy(picos_core::TsPolicy::Lifo);
        let (r, _) = run(&tr, &cfg).unwrap();
        r.validate(&tr).unwrap();
    }

    #[test]
    fn session_matches_batch_run() {
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let cfg = ClusterConfig::balanced(3, 12);
        let batch = run(&tr, &cfg).unwrap();
        let mut s = ClusterSession::new(cfg, SessionConfig::batch()).unwrap();
        feed_trace(&mut s, &tr).unwrap();
        let (report, stats, ..) = s.into_output().unwrap();
        assert_eq!(batch, (report, stats));
    }

    #[test]
    fn session_emits_shard_messages() {
        let tr = gen::stream(gen::StreamConfig::heavy(200));
        let mut s = ClusterSession::new(
            ClusterConfig::balanced(4, 8),
            SessionConfig {
                collect_events: true,
                ..SessionConfig::batch()
            },
        )
        .unwrap();
        feed_trace(&mut s, &tr).unwrap();
        let mut events = Vec::new();
        // Settle nothing yet: events materialize as the session runs.
        s.drain_events(&mut events);
        let n = tr.len();
        let (r, ..) = {
            let mut s = s;
            s.advance_to(u64::MAX / 2);
            s.drain_events(&mut events);
            s.into_output().unwrap()
        };
        assert_eq!(r.order.len(), n);
        let shard_msgs = events
            .iter()
            .filter(|e| matches!(e, SimEvent::ShardMsg { .. }))
            .count();
        let starts = events
            .iter()
            .filter(|e| matches!(e, SimEvent::TaskStarted { .. }))
            .count();
        assert!(shard_msgs > 0, "a 4-shard run must cross the interconnect");
        assert_eq!(starts, n, "every task start must be reported");
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        let tr = gen::stream(gen::StreamConfig::heavy(600));
        for shards in [2usize, 4] {
            let serial = run(&tr, &ClusterConfig::balanced(shards, 16)).unwrap();
            for threads in 2..=shards {
                let cfg = ClusterConfig::balanced(shards, 16).with_threads(threads);
                let par = run(&tr, &cfg).unwrap();
                assert_eq!(serial, par, "{shards} shards, {threads} threads");
            }
        }
    }

    #[test]
    fn threaded_epoch_loop_matches_inline() {
        // Force real OS threads past the available-parallelism cap so the
        // barrier/coordinator path runs even on a one-core machine. The
        // variable is process-global, but its only effect is choosing the
        // threaded loop, which is result-identical by design.
        std::env::set_var("PICOS_CLUSTER_FORCE_THREADS", "1");
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let serial = run(&tr, &ClusterConfig::balanced(4, 12)).unwrap();
        for threads in [2usize, 4] {
            let cfg = ClusterConfig::balanced(4, 12).with_threads(threads);
            let par = run(&tr, &cfg).unwrap();
            assert_eq!(serial, par, "{threads} forced threads");
        }
        std::env::remove_var("PICOS_CLUSTER_FORCE_THREADS");
    }

    #[test]
    fn parallel_engine_matches_serial_event_stream() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let collect = |threads: usize| {
            let cfg = ClusterConfig::balanced(4, 12).with_threads(threads);
            let mut s = ClusterSession::new(
                cfg,
                SessionConfig {
                    collect_events: true,
                    ..SessionConfig::batch()
                },
            )
            .unwrap();
            feed_trace(&mut s, &tr).unwrap();
            s.advance_to(u64::MAX / 2);
            let mut events = Vec::new();
            s.drain_events(&mut events);
            (events, s.into_output().unwrap())
        };
        let (serial_events, serial_report) = collect(1);
        let (par_events, par_report) = collect(4);
        assert_eq!(serial_report, par_report);
        assert_eq!(
            serial_events, par_events,
            "the merged event stream must reproduce serial order"
        );
    }

    #[test]
    fn parallel_engine_respects_taskwait_gates() {
        // Gated creation keeps the Distributor live mid-run, so the drive
        // must fall back to serial pumping until each gate clears.
        let mut tr = Trace::new("barriered");
        let kc = picos_trace::KernelClass::GENERIC;
        for i in 0..40u64 {
            tr.push(kc, [Dependence::inout(0x1000 + (i % 11) * 0x40)], 60);
        }
        tr.push_taskwait();
        for i in 0..40u64 {
            tr.push(kc, [Dependence::inout(0x9000 + (i % 7) * 0x40)], 45);
        }
        let serial = run(&tr, &ClusterConfig::balanced(4, 8)).unwrap();
        let par = run(&tr, &ClusterConfig::balanced(4, 8).with_threads(4)).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_windowed_session_matches_serial() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let drive = |threads: usize| {
            let cfg = ClusterConfig::balanced(2, 8).with_threads(threads);
            let mut s = ClusterSession::new(cfg, SessionConfig::windowed(16)).unwrap();
            for task in tr.iter() {
                loop {
                    match s.submit(task) {
                        Admission::Accepted => break,
                        Admission::Backpressured => assert!(s.step(), "blocked session drains"),
                    }
                }
            }
            s.into_output().unwrap()
        };
        assert_eq!(drive(1), drive(2));
    }

    #[test]
    fn timed_parallel_sessions_match_serial_bit_for_bit() {
        // Sampler-attached sessions run the epoch engine too: every window
        // boundary lands on an epoch-planning point, where the merged lane
        // state equals the serial engine's — the stitched timeline must be
        // bit-identical for any thread count and any window size (windows
        // both smaller and larger than the interconnect lookahead).
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        for window in [8u64, 64, 512] {
            let run_timed = |threads: usize| {
                let cfg = ClusterConfig::balanced(4, 8).with_threads(threads);
                let scfg = SessionConfig::batch().with_timeline(window);
                let mut s = ClusterSession::new(cfg, scfg).unwrap();
                feed_trace(&mut s, &tr).unwrap();
                s.into_output().unwrap()
            };
            let (sr, ss, stl, ..) = run_timed(1);
            for threads in [2usize, 4] {
                let (pr, ps, ptl, ..) = run_timed(threads);
                assert_eq!(sr, pr, "window {window}, {threads} threads");
                assert_eq!(ss, ps, "window {window}, {threads} threads");
                assert_eq!(
                    stl.as_ref().expect("timed"),
                    ptl.as_ref().expect("timed"),
                    "window {window}, {threads} threads: timelines must match"
                );
            }
        }
    }

    #[test]
    fn windowed_session_backpressures_and_completes() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let mut s = ClusterSession::new(ClusterConfig::balanced(2, 8), SessionConfig::windowed(16))
            .unwrap();
        let mut retries = 0u64;
        for task in tr.iter() {
            loop {
                match s.submit(task) {
                    Admission::Accepted => break,
                    Admission::Backpressured => {
                        retries += 1;
                        assert!(s.step(), "blocked session must drain");
                    }
                }
            }
            assert!(s.in_flight() <= 16);
        }
        assert!(retries > 0, "a 16-task window must backpressure");
        let (r, stats, ..) = s.into_output().unwrap();
        r.validate(&tr).unwrap();
        assert_eq!(r.order.len(), tr.len(), "no task may be dropped");
        let total = merged_stats(&stats);
        // Per-shard counters count fragments, so they can exceed the task
        // count but must balance.
        assert_eq!(total.tasks_submitted, total.tasks_completed);
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let cfg = ClusterConfig::balanced(3, 9);
        let scfg = SessionConfig::windowed(16).with_timeline(64).with_spans();
        for pause in [0, 9, tr.len() / 2] {
            let mut cont = ClusterSession::new(cfg.clone(), scfg).unwrap();
            let mut live = ClusterSession::new(cfg.clone(), scfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();

            // Snapshot through the JSON text codec, restore into a fresh
            // identically-configured session.
            let text = picos_trace::snap::value_to_json(&live.save_state());
            let snap = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = ClusterSession::new(cfg.clone(), scfg).unwrap();
            restored.load_state(&snap).unwrap();

            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let a = cont.into_output().unwrap();
            let b = restored.into_output().unwrap();
            assert_eq!(a, b, "pause {pause}");
        }
    }

    #[test]
    fn snapshot_restore_equals_continuous_under_faults() {
        // The fault layer's whole runtime state — RNG cursor, pending
        // retries, dedup table, pause deferrals, worker-fault cursor,
        // counters — must survive the roundtrip: any drift would change
        // every later fault draw.
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let plan = FaultPlan::new(11)
            .with_drop_rate(0.05)
            .with_dup_rate(0.05)
            .with_jitter(0.2, 8)
            .with_pause(1, 400, 900)
            .with_worker_fault(0, 700);
        let mut cfg = ClusterConfig::balanced(3, 9);
        cfg.faults = Some(plan);
        let scfg = SessionConfig::windowed(16).with_timeline(64);
        for pause in [0, tr.len() / 3, tr.len() - 1] {
            let mut cont = ClusterSession::new(cfg.clone(), scfg).unwrap();
            let mut live = ClusterSession::new(cfg.clone(), scfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();

            let text = picos_trace::snap::value_to_json(&live.save_state());
            let snap = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = ClusterSession::new(cfg.clone(), scfg).unwrap();
            restored.load_state(&snap).unwrap();

            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let a = cont.into_output().unwrap();
            let b = restored.into_output().unwrap();
            assert_eq!(a, b, "pause {pause}");
            let c = a.3.expect("active plan");
            assert!(
                c.drops + c.retries + c.redeliveries + c.recoveries > 0,
                "the plan must actually inject faults for this to test anything"
            );
        }
    }

    #[test]
    fn snapshot_crosses_engine_thread_counts() {
        // The fingerprint deliberately excludes the thread knob: parallel
        // and serial engines are bit-identical, so a snapshot taken under
        // one restores and continues under the other.
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let cut = tr.len() / 2;
        let serial_cfg = ClusterConfig::balanced(4, 12);
        let par_cfg = ClusterConfig::balanced(4, 12).with_threads(4);

        let mut live = ClusterSession::new(par_cfg.clone(), SessionConfig::windowed(32)).unwrap();
        feed_range(&mut live, &tr, 0..cut).unwrap();
        live.advance_to(live.now() + 1_000);
        let snap = live.save_state();

        let finish = |mut s: ClusterSession| {
            feed_range(&mut s, &tr, cut..tr.len()).unwrap();
            s.into_output().unwrap()
        };
        let mut into_serial = ClusterSession::new(serial_cfg, SessionConfig::windowed(32)).unwrap();
        into_serial.load_state(&snap).unwrap();
        let mut into_par = ClusterSession::new(par_cfg, SessionConfig::windowed(32)).unwrap();
        into_par.load_state(&snap).unwrap();
        assert_eq!(finish(into_serial), finish(into_par));
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let tr = gen::stream(gen::StreamConfig::heavy(250));
        let cfg = ClusterConfig::balanced(3, 9);
        let mut orig = ClusterSession::new(cfg, SessionConfig::batch()).unwrap();
        feed_range(&mut orig, &tr, 0..100).unwrap();
        let baseline = orig.save_state();

        let mut fork = orig.clone();
        feed_range(&mut fork, &tr, 100..tr.len()).unwrap();
        let forked = fork.into_output().unwrap();

        // Driving the fork to completion left the original untouched.
        assert_eq!(
            picos_trace::snap::value_to_json(&orig.save_state()),
            picos_trace::snap::value_to_json(&baseline)
        );
        feed_range(&mut orig, &tr, 100..tr.len()).unwrap();
        assert_eq!(orig.into_output().unwrap(), forked);
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let tr = gen::stream(gen::StreamConfig::heavy(60));
        let mut live =
            ClusterSession::new(ClusterConfig::balanced(3, 9), SessionConfig::batch()).unwrap();
        feed_range(&mut live, &tr, 0..tr.len()).unwrap();
        let snap = live.save_state();

        // Different shard count: fingerprint mismatch.
        let mut other =
            ClusterSession::new(ClusterConfig::balanced(2, 8), SessionConfig::batch()).unwrap();
        let err = other.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("cluster config"), "got: {err}");

        // Same cluster, different observation setup.
        let mut timed = ClusterSession::new(
            ClusterConfig::balanced(3, 9),
            SessionConfig::batch().with_timeline(64),
        )
        .unwrap();
        let err = timed.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("sampler"), "got: {err}");

        // Same cluster, different fault plan.
        let mut faulted_cfg = ClusterConfig::balanced(3, 9);
        faulted_cfg.faults = Some(FaultPlan::new(7).with_drop_rate(0.1));
        let mut faulted = ClusterSession::new(faulted_cfg, SessionConfig::batch()).unwrap();
        let err = faulted.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("cluster config"), "got: {err}");
    }

    #[test]
    fn cluster_msg_roundtrip() {
        use picos_trace::snap::Snap;
        let deps: Arc<[Dependence]> = Arc::from(vec![Dependence::inout(0x40)]);
        for m in [
            ClusterMsg::Register { task: 1, deps },
            ClusterMsg::Ready { task: 2 },
            ClusterMsg::Finish { task: 3 },
        ] {
            assert_eq!(ClusterMsg::load(&m.save()), Ok(m));
        }
    }
}
