//! The streaming-session vocabulary shared by every execution engine.
//!
//! The paper's Picos is an *online* device: the runtime pushes tasks as it
//! discovers them and the accelerator accepts or stalls them under finite
//! capacity. Every engine of the reproduction therefore exposes an
//! incremental **session** — a resumable simulation that ingests tasks one
//! at a time ([`SessionCore::submit`]), honours `taskwait` barriers
//! ([`SessionCore::barrier`]), advances simulated time on demand
//! ([`SessionCore::advance_to`] / [`SessionCore::step`]) and reports
//! schedule activity as [`SimEvent`]s. The batch `run(trace, cfg)` entry
//! point is a thin driver over a session ([`feed_trace`]).
//!
//! # Timing semantics
//!
//! A submitted task *arrives* at the session's current time. While the
//! session is **open** (more submissions may come) and able to ingest,
//! [`SessionCore::step`] refuses to move the clock — the model never runs
//! ahead of an open input stream, which is what makes a session driven
//! task-by-task (in any submit/step interleaving) bit-exact with the batch
//! run. Moving time forward is always an explicit client assertion:
//! [`SessionCore::advance_to`] means "no input arrives before this cycle"
//! (the open-loop arrival primitive used by the paced driver), and
//! `step` advances only when the session is ingest-blocked — its in-flight
//! window is full or its next task waits behind a taskwait — or closed.

use crate::report::ExecReport;
use picos_trace::snap::{Dec, Enc};
use picos_trace::{SnapError, TaskDescriptor, Trace, Value};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Outcome of submitting a task to a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The task was admitted and will be created as early as the engine's
    /// timing model allows.
    Accepted,
    /// The session's in-flight window is saturated (the analogue of the
    /// paper's full-TRS stall reaching the submitting runtime). The task
    /// was **not** admitted; retry after draining with
    /// [`SessionCore::step`] or [`SessionCore::advance_to`].
    Backpressured,
}

/// Schedule activity drained from a session via
/// [`SessionCore::drain_events`] (collected only when
/// [`SessionConfig::collect_events`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A task started executing on a worker.
    TaskStarted {
        /// Dense task id (submission order).
        task: u32,
        /// Start cycle.
        at: u64,
    },
    /// A task finished executing.
    TaskFinished {
        /// Dense task id (submission order).
        task: u32,
        /// Completion cycle.
        at: u64,
    },
    /// A message crossed the inter-shard interconnect (cluster sessions
    /// only): a dependence-registration fragment, wake-up or finish notice.
    ShardMsg {
        /// Sending shard.
        from: u16,
        /// Receiving shard.
        to: u16,
        /// Cycle the message entered the link.
        at: u64,
    },
}

/// Per-session knobs, chosen when the session is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// Maximum tasks in flight (admitted but not finished) before
    /// [`SessionCore::submit`] returns [`Admission::Backpressured`].
    /// `None` (the default) admits unboundedly, which is the batch-run
    /// semantics: the trace is fully known, so nothing limits pre-loading.
    pub window: Option<usize>,
    /// Whether to record [`SimEvent`]s. Off by default: the batch driver
    /// never drains them, so collecting would grow an unread queue.
    pub collect_events: bool,
    /// Cycle width of the telemetry sampling windows. `None` (the
    /// default) attaches no sampler: probe points stay plain field
    /// increments and the run produces no
    /// [`Timeline`](picos_metrics::Timeline). Attaching one is
    /// observation-only — it changes no cycle of the schedule.
    pub timeline_window: Option<u64>,
    /// Whether to record task-lifecycle span events
    /// ([`picos_metrics::span::SpanLog`]). Off by default; attaching the
    /// recorder is observation-only — engines pay one branch per event
    /// site and no cycle of the schedule changes.
    pub trace_spans: bool,
}

impl SessionConfig {
    /// Batch-equivalent defaults: unbounded window, no event collection,
    /// no telemetry sampler.
    pub fn batch() -> Self {
        SessionConfig::default()
    }

    /// A paced/open-loop configuration: bounded in-flight window with
    /// event collection off.
    pub fn windowed(window: usize) -> Self {
        SessionConfig {
            window: Some(window),
            ..SessionConfig::default()
        }
    }

    /// Sets the telemetry sampling window.
    pub fn with_timeline(mut self, timeline_window: u64) -> Self {
        self.timeline_window = Some(timeline_window);
        self
    }

    /// Enables task-lifecycle span tracing.
    pub fn with_spans(mut self) -> Self {
        self.trace_spans = true;
        self
    }

    /// Rejects a zero-cycle telemetry window.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a backend configuration error.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeline_window == Some(0) {
            return Err("telemetry timeline window must be at least one cycle".into());
        }
        Ok(())
    }
}

/// The incremental-ingest interface every engine's concrete session
/// implements. The `picos_backend` crate's `SimSession` trait extends this
/// with a uniform `finish` and wraps the result types.
///
/// Task ids are dense submission indices: the `i`-th accepted task has id
/// `i` (matching [`TaskDescriptor::id`] when a whole trace is fed in
/// creation order). Sessions read the descriptor's dependences and
/// duration; its `id` field is ignored.
pub trait SessionCore {
    /// Offers a task to the session. On [`Admission::Accepted`] the task
    /// arrives at the current cycle and is created as early as the
    /// engine's own timing model allows; on [`Admission::Backpressured`]
    /// nothing was recorded and the caller must retry.
    fn submit(&mut self, task: &TaskDescriptor) -> Admission;

    /// Declares an OmpSs `taskwait`: every task submitted after this call
    /// is created only once all previously submitted tasks have finished.
    fn barrier(&mut self);

    /// Advances simulated time to `cycle`, asserting that no submission
    /// arrives earlier. Processes every internal event on the way; a
    /// `cycle` at or before the current time only settles current-time
    /// work.
    fn advance_to(&mut self, cycle: u64);

    /// Makes minimal safe progress: settles current-time work, and — only
    /// when the session is ingest-blocked (window full, or the next task
    /// gated behind a taskwait) or closed to input — advances to the next
    /// internal event. Returns `false` when nothing was done because the
    /// session is idle and waiting for input (or fully drained).
    fn step(&mut self) -> bool;

    /// Current simulated time.
    fn now(&self) -> u64;

    /// Tasks admitted but not yet finished.
    fn in_flight(&self) -> usize;

    /// Moves every recorded [`SimEvent`] into `out`, in emission order.
    /// Emission order is simulation-processing order, not timestamp
    /// order: a start is stamped with its dispatch-delayed cycle, so an
    /// event with a smaller `at` may follow one with a larger `at` within
    /// a dispatch window — sort by `at` if a strict timeline is needed.
    fn drain_events(&mut self, out: &mut Vec<SimEvent>);

    /// Hints that roughly `additional` more tasks will be submitted, so
    /// the session can pre-size its per-task state. Purely an
    /// optimization; the default does nothing.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }
}

/// Boxed sessions forward the whole ingest interface, so drivers that are
/// generic over `S: SessionCore` (the journaling wrapper, the feed loops)
/// work directly on `Box<dyn SimSession>`-shaped trait objects.
impl<S: SessionCore + ?Sized> SessionCore for Box<S> {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        (**self).submit(task)
    }

    fn barrier(&mut self) {
        (**self).barrier()
    }

    fn advance_to(&mut self, cycle: u64) {
        (**self).advance_to(cycle)
    }

    fn step(&mut self) -> bool {
        (**self).step()
    }

    fn now(&self) -> u64 {
        (**self).now()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        (**self).drain_events(out)
    }

    fn reserve(&mut self, additional: usize) {
        (**self).reserve(additional)
    }
}

/// The driver shape shared by the event-loop sessions (HIL platform,
/// cluster): a batch-loop body run at the current time ([`pump`]) plus
/// the earliest pending internal event ([`next_time`]).
///
/// The provided methods implement the [`SessionCore`] clock contract in
/// one place — `advance_to`'s "no input before this cycle" drive,
/// `step`'s blocked-only minimal advance, and the run-to-quiescence
/// finish — so the bit-exactness invariant cannot drift between engines.
///
/// [`pump`]: EventLoopCore::pump
/// [`next_time`]: EventLoopCore::next_time
pub trait EventLoopCore {
    /// Runs the loop body of the batch driver at the current time
    /// (completions, deliveries, feeding, dispatch). Must be idempotent
    /// at a fixed time.
    fn pump(&mut self);

    /// Time of the next internal event, if any.
    fn next_time(&self) -> Option<u64>;

    /// Current simulated time.
    fn clock(&self) -> u64;

    /// Moves the clock to `t` (monotone).
    fn set_clock(&mut self, t: u64);

    /// Called after the clock jumps past the last pending event (an
    /// `advance_to` beyond quiescence): bring the engine cores current at
    /// the new time.
    fn on_clock_jump(&mut self) {}

    /// Whether the next submission cannot be ingested right now (window
    /// saturated or the next task gated behind a taskwait).
    fn ingest_blocked(&self) -> bool;

    /// The `advance_to` drive: process every event up to `cycle`, then
    /// place the clock exactly there.
    fn drive_to(&mut self, cycle: u64) {
        loop {
            self.pump();
            match self.next_time() {
                Some(tn) if tn <= cycle => self.set_clock(tn),
                _ => break,
            }
        }
        if cycle > self.clock() {
            self.set_clock(cycle);
            self.on_clock_jump();
        }
    }

    /// The `step` drive: settle current-time work, and advance to the
    /// next event only when ingest-blocked. Returns whether progress was
    /// made.
    fn drive_step(&mut self) -> bool {
        let was_blocked = self.ingest_blocked();
        self.pump();
        if !self.ingest_blocked() {
            // Settling current-time work is progress in itself when it
            // unblocked ingestion (a completion at the current cycle can
            // free the window): the caller must retry its submission
            // rather than read `false` as a terminal stall.
            return was_blocked;
        }
        match self.next_time() {
            Some(tn) => {
                self.set_clock(tn);
                self.pump();
                true
            }
            None => false,
        }
    }

    /// The `finish` drive: run every remaining event to quiescence.
    fn drive_finish(&mut self) {
        loop {
            self.pump();
            match self.next_time() {
                Some(tn) => self.set_clock(tn),
                None => break,
            }
        }
    }
}

/// The feed loop could not make progress: a submission stayed
/// backpressured while [`SessionCore::step`] reported no possible
/// progress. With the default unbounded window this cannot happen; it
/// indicates a window too small for the workload's barrier structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStall {
    /// Index of the task whose submission stalled.
    pub task: u32,
}

impl fmt::Display for FeedStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session backpressured with no draining progress at task {}",
            self.task
        )
    }
}

impl std::error::Error for FeedStall {}

/// Feeds a whole trace into a session in creation order, declaring its
/// taskwait barriers and draining backpressure with [`SessionCore::step`].
/// This is the batch half of the `run(trace, cfg)` entry point; the caller
/// finishes the session afterwards to obtain the report.
///
/// # Errors
///
/// Returns [`FeedStall`] if a submission stays backpressured while the
/// session cannot progress (impossible with the default unbounded window).
pub fn feed_trace<S: SessionCore + ?Sized>(
    session: &mut S,
    trace: &Trace,
) -> Result<(), FeedStall> {
    session.reserve(trace.len());
    feed_range(session, trace, 0..trace.len())
}

/// Feeds tasks `range` of a trace like [`feed_trace`] feeds all of them:
/// each taskwait barrier recorded at position `i` in the range is declared
/// right before task `i`. Feeding consecutive ranges equals feeding the
/// whole trace, which is how snapshot, fork and what-if replicas resume a
/// partially fed workload.
///
/// # Errors
///
/// See [`feed_trace`].
pub fn feed_range<S: SessionCore + ?Sized>(
    session: &mut S,
    trace: &Trace,
    range: Range<usize>,
) -> Result<(), FeedStall> {
    let barriers = trace.barriers();
    let mut next = barriers.partition_point(|&b| (b as usize) < range.start);
    for (i, task) in range.clone().zip(&trace.tasks()[range]) {
        while barriers.get(next) == Some(&(i as u32)) {
            session.barrier();
            next += 1;
        }
        loop {
            match session.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => {
                    if !session.step() {
                        return Err(FeedStall { task: i as u32 });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Shared ingest bookkeeping for the concrete sessions: dense id
/// assignment, arrival stamping, per-task taskwait gates and the
/// in-flight window.
///
/// A task's *gate* is the number of previously submitted tasks that must
/// have finished before the engine may create it — exactly
/// `Trace::creation_limit` expressed per task: `feedable(i, done)` iff
/// `gates[i] <= done`.
#[derive(Debug, Clone, Default)]
pub struct Ingest {
    /// Taskwait gate of each admitted task.
    pub gates: Vec<u32>,
    /// Gate applied to the next submission.
    cur_gate: u32,
    /// Tasks admitted so far (the next task's dense id).
    pub admitted: usize,
    /// Tasks finished so far.
    pub finished: usize,
    /// In-flight window, from [`SessionConfig::window`].
    window: Option<usize>,
}

impl Ingest {
    /// Empty ingest state with the given in-flight window.
    pub fn new(window: Option<usize>) -> Self {
        Ingest {
            window,
            ..Ingest::default()
        }
    }

    /// Pre-sizes the per-task arrays for `additional` more admissions.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Whether a submission right now would be backpressured.
    pub fn saturated(&self) -> bool {
        self.window
            .is_some_and(|w| self.admitted - self.finished >= w)
    }

    /// Admits one task; returns its dense id. (Arrival stamping is left
    /// to the engines that consult it — only the software model does.)
    pub fn admit(&mut self) -> u32 {
        let id = self.admitted as u32;
        self.gates.push(self.cur_gate);
        self.admitted += 1;
        id
    }

    /// Declares a taskwait: subsequent tasks wait for everything admitted
    /// so far.
    pub fn barrier(&mut self) {
        self.cur_gate = self.admitted as u32;
    }

    /// Whether admitted task `i` may be created once `done` tasks have
    /// finished.
    pub fn feedable(&self, i: usize, done: usize) -> bool {
        i < self.admitted && self.gates[i] as usize <= done
    }

    /// Tasks admitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.admitted - self.finished
    }

    /// Serializes the ingest state (window included, as a restore guard).
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.opt_u64(self.window.map(|w| w as u64))
            .u32s(self.gates.iter().copied())
            .u32(self.cur_gate)
            .usize(self.admitted)
            .usize(self.finished);
        e.done()
    }

    /// Overwrites the ingest state from [`Ingest::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot
    /// was taken under a different in-flight window.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "ingest")?;
        let window = d.opt_u64()?.map(|w| w as usize);
        if window != self.window {
            return Err(SnapError::new(format!(
                "ingest: window mismatch (snapshot {window:?}, session {:?})",
                self.window
            )));
        }
        self.gates = d.u32s()?;
        self.cur_gate = d.u32()?;
        self.admitted = d.usize()?;
        self.finished = d.usize()?;
        Ok(())
    }
}

/// Shared event recorder: a no-op unless the session was opened with
/// [`SessionConfig::collect_events`].
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    enabled: bool,
    q: VecDeque<SimEvent>,
}

impl EventLog {
    /// An event recorder; a disabled one drops every push.
    pub fn new(enabled: bool) -> Self {
        EventLog {
            enabled,
            q: VecDeque::new(),
        }
    }

    /// Whether pushes are recorded (callers batching events elsewhere can
    /// skip the bookkeeping entirely when recording is off).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, ev: SimEvent) {
        if self.enabled {
            self.q.push_back(ev);
        }
    }

    /// Moves every recorded event into `out`, oldest first.
    pub fn drain_into(&mut self, out: &mut Vec<SimEvent>) {
        out.extend(self.q.drain(..));
    }

    /// Serializes the recorder: the enabled flag (a restore guard) and the
    /// undrained queue.
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.bool(self.enabled)
            .seq(self.q.iter(), crate::snap::enc_event);
        e.done()
    }

    /// Overwrites the recorder from [`EventLog::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or an enabled-flag
    /// mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "event log")?;
        picos_trace::snap::guard("event log enabled", d.bool()? as u64, self.enabled as u64)?;
        self.q = d.seq(crate::snap::dec_event)?.into();
        Ok(())
    }
}

/// Growable per-task schedule log shared by the sessions; finalizes into
/// an [`ExecReport`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleLog {
    /// Per-task start cycles, indexed by dense id.
    pub start: Vec<u64>,
    /// Per-task end cycles, indexed by dense id.
    pub end: Vec<u64>,
    /// Task ids in execution (start) order.
    pub order: Vec<u32>,
    /// Sum of admitted task durations (the report's sequential baseline).
    pub sequential: u64,
}

impl ScheduleLog {
    /// Pre-sizes the per-task arrays for `additional` more admissions.
    pub fn reserve(&mut self, additional: usize) {
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.order.reserve(additional);
    }

    /// Extends the per-task arrays for one admitted task of `duration`.
    pub fn admit(&mut self, duration: u64) {
        self.start.push(0);
        self.end.push(0);
        self.sequential += duration;
    }

    /// Records a task starting at `at` for `dur` cycles; returns its end.
    pub fn begin(&mut self, task: u32, at: u64, dur: u64) -> u64 {
        self.start[task as usize] = at;
        self.end[task as usize] = at + dur;
        self.order.push(task);
        at + dur
    }

    /// Re-records a task whose earlier execution was abandoned (fail-stop
    /// fault recovery): replaces its start/end and moves its entry to the
    /// back of the execution order — the re-execution is the one that
    /// really ran, and a restart is always the task's latest start, so the
    /// order stays topological. Returns the new end.
    pub fn rebegin(&mut self, task: u32, at: u64, dur: u64) -> u64 {
        self.start[task as usize] = at;
        self.end[task as usize] = at + dur;
        self.order.retain(|&x| x != task);
        self.order.push(task);
        at + dur
    }

    /// Serializes the schedule log.
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.u64s(self.start.iter().copied())
            .u64s(self.end.iter().copied())
            .u32s(self.order.iter().copied())
            .u64(self.sequential);
        e.done()
    }

    /// Overwrites the schedule log from [`ScheduleLog::save_state`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "schedule log")?;
        let start = d.u64s()?;
        let end = d.u64s()?;
        if start.len() != end.len() {
            return Err(SnapError::new("schedule log: start/end length mismatch"));
        }
        self.start = start;
        self.end = end;
        self.order = d.u32s()?;
        self.sequential = d.u64()?;
        Ok(())
    }

    /// Finalizes the log into an [`ExecReport`] under an engine label.
    pub fn into_report(self, engine: &str, workers: usize) -> ExecReport {
        ExecReport {
            engine: engine.into(),
            workers,
            makespan: self.end.iter().copied().max().unwrap_or(0),
            sequential: self.sequential,
            order: self.order,
            start: self.start,
            end: self.end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::{Dependence, KernelClass};

    #[test]
    fn ingest_gates_follow_barriers() {
        let mut ing = Ingest::new(None);
        ing.admit();
        ing.admit();
        ing.barrier();
        ing.admit();
        assert_eq!(ing.gates, vec![0, 0, 2]);
        assert!(ing.feedable(0, 0));
        assert!(!ing.feedable(2, 1));
        assert!(ing.feedable(2, 2));
        assert!(!ing.feedable(3, 2), "not yet admitted");
    }

    #[test]
    fn ingest_window_saturates() {
        let mut ing = Ingest::new(Some(2));
        assert!(!ing.saturated());
        ing.admit();
        ing.admit();
        assert!(ing.saturated());
        ing.finished += 1;
        assert!(!ing.saturated());
        assert_eq!(ing.in_flight(), 1);
    }

    #[test]
    fn feed_trace_declares_barriers_in_order() {
        /// Recording stub: logs submits and barriers.
        #[derive(Default)]
        struct Rec {
            log: Vec<String>,
        }
        impl SessionCore for Rec {
            fn submit(&mut self, task: &TaskDescriptor) -> Admission {
                self.log.push(format!("t{}", task.id.raw()));
                Admission::Accepted
            }
            fn barrier(&mut self) {
                self.log.push("|".into());
            }
            fn advance_to(&mut self, _: u64) {}
            fn step(&mut self) -> bool {
                false
            }
            fn now(&self) -> u64 {
                0
            }
            fn in_flight(&self) -> usize {
                0
            }
            fn drain_events(&mut self, _: &mut Vec<SimEvent>) {}
        }
        let mut tr = Trace::new("t");
        tr.push(KernelClass::GENERIC, [Dependence::inout(1)], 1);
        tr.push_taskwait();
        tr.push(KernelClass::GENERIC, [], 1);
        let mut rec = Rec::default();
        feed_trace(&mut rec, &tr).unwrap();
        assert_eq!(rec.log, vec!["t0", "|", "t1"]);
    }

    #[test]
    fn events_disabled_by_default() {
        let mut log = EventLog::new(false);
        log.push(SimEvent::TaskStarted { task: 0, at: 0 });
        let mut out = Vec::new();
        log.drain_into(&mut out);
        assert!(out.is_empty());
        let mut log = EventLog::new(true);
        log.push(SimEvent::TaskFinished { task: 1, at: 5 });
        log.drain_into(&mut out);
        assert_eq!(out, vec![SimEvent::TaskFinished { task: 1, at: 5 }]);
    }
}
