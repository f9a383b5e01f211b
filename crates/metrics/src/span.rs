//! Task-lifecycle span tracing: typed, cycle-stamped per-task events,
//! critical-path attribution, and Chrome Trace Event (Perfetto) export.
//!
//! The source paper attributes cycles to individual hardware stages
//! (Tables II/IV); the windowed [`crate::Timeline`] shows *when* units
//! were busy but not *which* latency bounded the makespan. A [`SpanLog`]
//! records the full lifecycle of every task — submitted →
//! deps-registered (per home shard) → last-dependence-released → ready →
//! dispatched → started → finished — plus interconnect message spans
//! (send / deliver / retry, keyed by packet id) and fault annotations.
//!
//! On top of the raw log:
//!
//! * [`critical_path`] reconstructs the makespan-critical chain and
//!   attributes every cycle of `[0, makespan)` to a [`CpCategory`]
//!   (arrival gap, DM registration, TRS wake latency, link transit,
//!   TS queue, dispatch, worker execution, drain). The segments are
//!   contiguous by construction, so the category totals sum to the
//!   makespan *exactly* — the acceptance invariant of the table.
//! * [`to_perfetto_json`] renders the log in the Chrome Trace Event
//!   JSON format (one track per worker lane per shard, one track for
//!   the interconnect, flow arrows along dependence edges), loadable
//!   by Perfetto / `chrome://tracing`.
//!
//! Recording follows the [`crate::WindowSampler`] contract: engines hold
//! an `Option`-wrapped recorder and pay one branch per event site when
//! tracing is off; the log is strictly observation-only.

use crate::{escape, MergeRule, MetricSet};
use picos_trace::snap::{Snap, SnapError};
use picos_trace::Value;

/// The type of one lifecycle or interconnect event.
///
/// The discriminant order is the canonical tie-break of
/// [`SpanLog::canonical_sort`]: within one cycle, a task's events sort in
/// lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// The task entered the session (driver-side admission).
    Submitted = 0,
    /// A home shard finished registering its dependence fragment with the
    /// DM (one event per shard holding a fragment; zero-dependence
    /// fragments register at Gateway accept).
    DepsRegistered = 1,
    /// The TRS released the task's last pending dependence.
    LastDepReleased = 2,
    /// The task reached the ready buffer (TS output).
    Ready = 3,
    /// The driver popped the task from the ready buffer towards a worker.
    Dispatched = 4,
    /// A worker began executing the task.
    Started = 5,
    /// The worker finished and the completion was processed.
    Finished = 6,
    /// An interconnect message carrying this task was queued on a link
    /// (`arg` is the packet id, `shard` the sender).
    MsgSend = 7,
    /// An interconnect message carrying this task was delivered (`arg` is
    /// the packet id, `shard` the receiver).
    MsgDeliver = 8,
    /// The fault layer retransmitted a packet (`arg` is the packet id).
    MsgRetry = 9,
    /// A fault-injection annotation (drop, pause, worker failure);
    /// `arg` carries the site-specific code.
    Fault = 10,
}

impl SpanKind {
    /// Stable lowercase name (JSON emit, tables).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submitted => "submitted",
            SpanKind::DepsRegistered => "deps_registered",
            SpanKind::LastDepReleased => "last_dep_released",
            SpanKind::Ready => "ready",
            SpanKind::Dispatched => "dispatched",
            SpanKind::Started => "started",
            SpanKind::Finished => "finished",
            SpanKind::MsgSend => "msg_send",
            SpanKind::MsgDeliver => "msg_deliver",
            SpanKind::MsgRetry => "msg_retry",
            SpanKind::Fault => "fault",
        }
    }
}

/// One cycle-stamped event of a [`SpanLog`]. Plain and `Copy` — recording
/// is a bounds-checked push into a preallocated arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Cycle the event occurred at.
    pub at: u64,
    /// Event type.
    pub kind: SpanKind,
    /// Shard (accelerator) the event occurred on; 0 for single-system
    /// engines and driver-level events.
    pub shard: u16,
    /// The task the event concerns (message events carry the task the
    /// message is about; `u32::MAX` when unknown, e.g. fault-layer
    /// retries that only know the packet).
    pub task: u32,
    /// Auxiliary payload: packet id for message events, worker hint or
    /// fault code elsewhere, 0 when unused.
    pub arg: u32,
}

/// The discriminant.
impl Snap for SpanKind {
    fn save(&self) -> Value {
        Value::Int(*self as u64)
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        Ok(match u8::load(v)? {
            0 => SpanKind::Submitted,
            1 => SpanKind::DepsRegistered,
            2 => SpanKind::LastDepReleased,
            3 => SpanKind::Ready,
            4 => SpanKind::Dispatched,
            5 => SpanKind::Started,
            6 => SpanKind::Finished,
            7 => SpanKind::MsgSend,
            8 => SpanKind::MsgDeliver,
            9 => SpanKind::MsgRetry,
            10 => SpanKind::Fault,
            other => return Err(SnapError::new(format!("unknown span kind {other}"))),
        })
    }
}

picos_trace::snap_struct!(SpanEvent {
    at,
    kind,
    shard,
    task,
    arg
});

/// A preallocated, append-only recorder of [`SpanEvent`]s.
///
/// Observation-only by contract: engines never read the log back during
/// simulation, and every record site is gated on the engine's
/// `Option<SpanLog>` being `Some` — one branch per event when tracing is
/// off, pinned bit-exact by the conformance tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    events: Vec<SpanEvent>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// An empty log with `cap` events preallocated (the arena: sessions
    /// size it from the expected task count so steady-state recording
    /// never allocates).
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            events: Vec::with_capacity(cap),
        }
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, at: u64, shard: u16, task: u32, arg: u32) {
        self.events.push(SpanEvent {
            at,
            kind,
            shard,
            task,
            arg,
        });
    }

    /// The recorded events, in recording order (or canonical order after
    /// [`SpanLog::canonical_sort`]).
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends every event of `other` (merging shard/lane logs).
    pub fn extend_from(&mut self, other: &SpanLog) {
        self.events.extend_from_slice(&other.events);
    }

    /// Reserves room for `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Sorts the log into its canonical order: `(cycle, kind, shard,
    /// task, arg)`. The serial and conservative-parallel cluster engines
    /// record identical event *multisets* in different interleavings;
    /// after this sort their logs are bit-equal, which is what the
    /// serial==parallel conformance tests pin.
    ///
    /// Sessions return logs in recording order and never sort on the hot
    /// finish path (`bench_smoke` gates that tracing stays cheap); the
    /// analysis entry points ([`critical_path`], [`to_perfetto_json`])
    /// index events per task and are order-insensitive, so this sort is
    /// only for consumers that compare logs or need a deterministic
    /// order. Uses the run-adaptive stable sort: a merged log is a
    /// concatenation of per-layer nearly-time-ordered runs, which merge
    /// in near-linear time.
    pub fn canonical_sort(&mut self) {
        self.events
            .sort_by_key(|e| (e.at, e.kind as u8, e.shard, e.task, e.arg));
    }

    /// Renders the raw log as a JSON array of event objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at\":{},\"kind\":\"{}\",\"shard\":{},\"task\":{},\"arg\":{}}}",
                e.at,
                e.kind.name(),
                e.shard,
                e.task,
                e.arg
            ));
        }
        out.push(']');
        out
    }
}

// ------------------------------------------------------------ resolution

/// The resolved lifecycle timestamps of one task, with missing events
/// collapsed onto their successors (engines without modelled hardware —
/// the perfect scheduler, the software runtime — record only the driver
/// events; the walker treats the absent hardware phases as zero-width).
#[derive(Debug, Clone, Copy, Default)]
struct TaskEvs {
    submitted: Option<u64>,
    /// Latest per-shard fragment registration.
    registered: Option<u64>,
    ready: Option<u64>,
    dispatched: Option<u64>,
    started: Option<u64>,
    finished: Option<u64>,
}

#[derive(Debug, Default)]
struct TaskTable {
    evs: Vec<TaskEvs>,
    /// Per-task interconnect activity, ascending `at`: (send cycles,
    /// deliver cycles).
    sends: Vec<Vec<u64>>,
    delivers: Vec<Vec<u64>>,
}

impl TaskTable {
    fn build(log: &SpanLog) -> TaskTable {
        let n = log
            .events()
            .iter()
            .filter(|e| e.task != u32::MAX)
            .map(|e| e.task as usize + 1)
            .max()
            .unwrap_or(0);
        let mut t = TaskTable {
            evs: vec![TaskEvs::default(); n],
            sends: vec![Vec::new(); n],
            delivers: vec![Vec::new(); n],
        };
        for e in log.events() {
            if e.task == u32::MAX {
                continue;
            }
            let i = e.task as usize;
            let slot = &mut t.evs[i];
            let max_in = |o: &mut Option<u64>, v: u64| *o = Some(o.map_or(v, |x| x.max(v)));
            match e.kind {
                SpanKind::Submitted => slot.submitted = Some(e.at),
                // Several shards may each register a fragment; the task
                // is fully registered at the latest of them.
                SpanKind::DepsRegistered => max_in(&mut slot.registered, e.at),
                SpanKind::LastDepReleased => max_in(&mut slot.ready, e.at),
                SpanKind::Ready => max_in(&mut slot.ready, e.at),
                SpanKind::Dispatched => slot.dispatched = Some(e.at),
                SpanKind::Started => slot.started = Some(e.at),
                SpanKind::Finished => max_in(&mut slot.finished, e.at),
                SpanKind::MsgSend => t.sends[i].push(e.at),
                SpanKind::MsgDeliver => t.delivers[i].push(e.at),
                SpanKind::MsgRetry | SpanKind::Fault => {}
            }
        }
        for v in t.sends.iter_mut().chain(t.delivers.iter_mut()) {
            v.sort_unstable();
        }
        t
    }
}

// ---------------------------------------------------------- critical path

/// A category of critical-path cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpCategory {
    /// The chain head had not been submitted yet (open-loop arrival gap).
    Arrival,
    /// Dependence registration: submission until the last home shard
    /// registered its DM fragment.
    DmRegister,
    /// TRS wake latency: dependence release / readiness bookkeeping
    /// between the bounding event and the ready buffer.
    TrsWake,
    /// Interconnect transit of the bounding finish/ready message.
    LinkTransit,
    /// Waiting in the ready buffer for the driver to dispatch.
    TsQueue,
    /// Dispatch-to-start latency (bus transfer, worker handoff).
    Dispatch,
    /// Worker execution.
    Exec,
    /// Post-execution drain: the last task had finished but the engine's
    /// makespan extends further (finish-notification travel).
    Drain,
}

impl CpCategory {
    /// All categories, timeline order.
    pub const ALL: [CpCategory; 8] = [
        CpCategory::Arrival,
        CpCategory::DmRegister,
        CpCategory::TrsWake,
        CpCategory::LinkTransit,
        CpCategory::TsQueue,
        CpCategory::Dispatch,
        CpCategory::Exec,
        CpCategory::Drain,
    ];

    /// Stable snake_case name (metric suffix, CSV column).
    pub fn name(self) -> &'static str {
        match self {
            CpCategory::Arrival => "arrival",
            CpCategory::DmRegister => "dm_register",
            CpCategory::TrsWake => "trs_wake",
            CpCategory::LinkTransit => "link_transit",
            CpCategory::TsQueue => "ts_queue",
            CpCategory::Dispatch => "dispatch",
            CpCategory::Exec => "exec",
            CpCategory::Drain => "drain",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("listed")
    }
}

/// One contiguous segment of the critical chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpSegment {
    /// What the cycles were spent on.
    pub category: CpCategory,
    /// The task the segment is attributed to (`u32::MAX` for the leading
    /// arrival gap and the trailing drain).
    pub task: u32,
    /// Segment start cycle (inclusive).
    pub start: u64,
    /// Segment end cycle (exclusive).
    pub end: u64,
}

/// The makespan-critical chain: contiguous segments covering exactly
/// `[0, makespan)`, so [`CriticalPath::totals`] sums to the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Segments in ascending time order; zero-width segments are elided.
    pub segments: Vec<CpSegment>,
    /// The makespan the walk covered.
    pub makespan: u64,
}

impl CriticalPath {
    /// Total cycles attributed to one category.
    pub fn total(&self, category: CpCategory) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.category == category)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Per-category totals, [`CpCategory::ALL`] order. Sums to
    /// [`CriticalPath::makespan`] by construction.
    pub fn totals(&self) -> [(CpCategory, u64); 8] {
        let mut out = CpCategory::ALL.map(|c| (c, 0u64));
        for s in &self.segments {
            out[s.category.index()].1 += s.end - s.start;
        }
        out
    }

    /// The registry view: one `critical_path.<category>` counter per
    /// category plus `critical_path.segments`.
    pub fn metric_set(&self) -> MetricSet {
        let mut set = MetricSet::new();
        for (c, v) in self.totals() {
            set.counter(format!("critical_path.{}", c.name()), v, MergeRule::Sum);
        }
        set.counter(
            "critical_path.segments",
            self.segments.len() as u64,
            MergeRule::Sum,
        );
        set
    }

    /// An aligned summary table (the `--critical-path` CLI output).
    pub fn table(&self) -> String {
        let mut out = format!("critical path over {} cycles:\n", self.makespan);
        out.push_str("  category      cycles          share\n");
        for (c, v) in self.totals() {
            if v == 0 {
                continue;
            }
            let pct = if self.makespan == 0 {
                0.0
            } else {
                v as f64 / self.makespan as f64 * 100.0
            };
            out.push_str(&format!("  {:<12}  {v:>12}  {pct:>12.2}%\n", c.name()));
        }
        out
    }

    /// Compact `cat:cycles;...` rendering (the sweep's critical-path
    /// composition column; categories with zero cycles are omitted).
    pub fn compact(&self) -> String {
        let mut parts = Vec::new();
        for (c, v) in self.totals() {
            if v > 0 {
                parts.push(format!("{}:{v}", c.name()));
            }
        }
        parts.join(";")
    }
}

/// Reconstructs the makespan-critical chain from a span log.
///
/// `preds` maps a task id to its dependence predecessors (the ground-truth
/// graph, e.g. `TaskGraph::preds`); `makespan` is the engine's reported
/// makespan, which may extend past the last task's finish (the gap becomes
/// [`CpCategory::Drain`]). Returns `None` when the log records no finished
/// task.
///
/// The walk is backward and contiguous: starting from the task that
/// finished last, each boundary either closes a lifecycle segment of the
/// current task or jumps to the predecessor whose finish bounded it, until
/// cycle 0. Missing lifecycle events (engines without modelled hardware)
/// collapse their phase to zero width.
pub fn critical_path<F>(log: &SpanLog, preds: F, makespan: u64) -> Option<CriticalPath>
where
    F: Fn(u32) -> Vec<u32>,
{
    let table = TaskTable::build(log);
    let last = (0..table.evs.len())
        .filter(|&i| table.evs[i].finished.is_some())
        .max_by_key(|&i| (table.evs[i].finished, i))?;

    let mut segs: Vec<CpSegment> = Vec::new();
    let mut push = |cat: CpCategory, task: u32, start: u64, end: u64| {
        if end > start {
            segs.push(CpSegment {
                category: cat,
                task,
                start,
                end,
            });
        }
    };

    let last_fin = table.evs[last].finished.expect("selected on finished");
    push(
        CpCategory::Drain,
        u32::MAX,
        last_fin.min(makespan),
        makespan,
    );

    let mut cur = last as u32;
    let mut bound = last_fin.min(makespan);
    // The dependence graph is acyclic, so the chain visits each task at
    // most once; the cap is a belt against malformed logs.
    for _ in 0..=table.evs.len() {
        let ev = table.evs[cur as usize];
        // Clamp monotonically so fallbacks can never produce a negative
        // segment: each boundary is at most the one above it.
        let b_start = ev.started.unwrap_or(bound).min(bound);
        let b_disp = ev.dispatched.unwrap_or(b_start).min(b_start);
        let b_ready = ev.ready.unwrap_or(b_disp).min(b_disp);
        push(CpCategory::Exec, cur, b_start, bound);
        push(CpCategory::Dispatch, cur, b_disp, b_start);
        push(CpCategory::TsQueue, cur, b_ready, b_disp);

        let reg = ev.registered.or(ev.submitted).unwrap_or(0).min(b_ready);
        let sub = ev.submitted.unwrap_or(0).min(reg);
        let lp = preds(cur)
            .into_iter()
            .filter_map(|p| {
                table
                    .evs
                    .get(p as usize)
                    .and_then(|e| e.finished)
                    .map(|f| (f, p))
            })
            .max();
        match lp {
            Some((pf, p)) if pf.min(b_ready) > reg.max(sub) && pf < bound => {
                let pf = pf.min(b_ready);
                // The bounding finish may have travelled the interconnect:
                // attribute its transit window when the predecessor's
                // message spans land inside (pf, b_ready].
                let deliver = table.delivers[p as usize]
                    .iter()
                    .copied()
                    .filter(|&d| d > pf && d <= b_ready)
                    .max();
                if let Some(d) = deliver {
                    let s = table.sends[p as usize]
                        .iter()
                        .copied()
                        .filter(|&s| s > pf && s <= d)
                        .min()
                        .unwrap_or(pf);
                    push(CpCategory::TrsWake, cur, d, b_ready);
                    push(CpCategory::LinkTransit, cur, s, d);
                    push(CpCategory::TrsWake, cur, pf, s);
                } else {
                    push(CpCategory::TrsWake, cur, pf, b_ready);
                }
                cur = p;
                bound = pf;
            }
            _ => {
                // The chain head: bounded by its own registration, not a
                // predecessor. Close out to cycle 0 and stop.
                push(CpCategory::TrsWake, cur, reg, b_ready);
                push(CpCategory::DmRegister, cur, sub, reg);
                push(CpCategory::Arrival, u32::MAX, 0, sub);
                bound = 0;
                break;
            }
        }
        if bound == 0 {
            break;
        }
    }
    // Malformed-log belt: whatever remains below the final bound is an
    // arrival gap, keeping the sum-to-makespan invariant unconditional.
    push(CpCategory::Arrival, u32::MAX, 0, bound);
    segs.reverse();
    Some(CriticalPath {
        segments: segs,
        makespan,
    })
}

// ------------------------------------------------------- Perfetto export

/// Renders the span log as Chrome Trace Event JSON (object format,
/// `{"traceEvents": [...]}`), loadable by Perfetto and `chrome://tracing`.
///
/// Tracks: one process per shard with one thread per *worker lane*
/// (greedy interval partitioning of the exec slices — the engines do not
/// name physical workers, so concurrent tasks get distinct lanes), plus
/// one `interconnect` process whose threads are the sending shards.
/// Dependence edges (`edges` as `(pred, succ)` pairs) become flow arrows
/// between exec slices; message retries and fault annotations become
/// instant events. Lifecycle waits (submit → start) are async spans keyed
/// by task id.
pub fn to_perfetto_json(log: &SpanLog, edges: &[(u32, u32)]) -> String {
    let table = TaskTable::build(log);
    let max_shard = log.events().iter().map(|e| e.shard).max().unwrap_or(0);
    let link_pid = max_shard as u64 + 2;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let emit = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };

    // Process/thread naming metadata.
    for shard in 0..=max_shard {
        emit(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                shard as u64 + 1,
                escape(&format!("shard{shard}"))
            ),
            &mut out,
            &mut first,
        );
    }
    emit(
        format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{link_pid},\"tid\":0,\
             \"args\":{{\"name\":\"interconnect\"}}}}"
        ),
        &mut out,
        &mut first,
    );

    // Exec slices on greedy worker lanes, per shard. Started events carry
    // the shard; sort by (start, task) for deterministic lane assignment.
    let mut shard_of = vec![0u16; table.evs.len()];
    for e in log.events() {
        if e.kind == SpanKind::Started && (e.task as usize) < shard_of.len() {
            shard_of[e.task as usize] = e.shard;
        }
    }
    let mut execs: Vec<(u64, u64, u32)> = (0..table.evs.len())
        .filter_map(|i| {
            let e = table.evs[i];
            Some((e.started?, e.finished?, i as u32))
        })
        .collect();
    execs.sort_unstable();
    // lanes[shard] holds each lane's last slice end.
    let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); max_shard as usize + 1];
    let mut lane_of = vec![0usize; table.evs.len()];
    for &(start, end, task) in &execs {
        let l = &mut lanes[shard_of[task as usize] as usize];
        let lane = match l.iter().position(|&busy_until| busy_until <= start) {
            Some(i) => i,
            None => {
                l.push(0);
                l.len() - 1
            }
        };
        l[lane] = end;
        lane_of[task as usize] = lane;
        emit(
            format!(
                "{{\"name\":\"t{task}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{start},\
                 \"dur\":{},\"pid\":{},\"tid\":{}}}",
                end - start,
                shard_of[task as usize] as u64 + 1,
                lane + 1
            ),
            &mut out,
            &mut first,
        );
    }

    // Lifecycle wait spans (async, id = task): submitted -> started.
    for (i, e) in table.evs.iter().enumerate() {
        if let (Some(sub), Some(start)) = (e.submitted, e.started) {
            if start > sub {
                let pid = shard_of[i] as u64 + 1;
                emit(
                    format!(
                        "{{\"name\":\"t{i}.wait\",\"cat\":\"lifecycle\",\"ph\":\"b\",\
                         \"id\":{i},\"ts\":{sub},\"pid\":{pid},\"tid\":0}}"
                    ),
                    &mut out,
                    &mut first,
                );
                emit(
                    format!(
                        "{{\"name\":\"t{i}.wait\",\"cat\":\"lifecycle\",\"ph\":\"e\",\
                         \"id\":{i},\"ts\":{start},\"pid\":{pid},\"tid\":0}}"
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }

    // Flow arrows along dependence edges, bound to the exec slices.
    for (fi, &(p, s)) in edges.iter().enumerate() {
        let (Some(pe), Some(se)) = (
            table.evs.get(p as usize).copied(),
            table.evs.get(s as usize).copied(),
        ) else {
            continue;
        };
        let (Some(pf), Some(ss)) = (pe.finished, se.started) else {
            continue;
        };
        emit(
            format!(
                "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":{},\"ts\":{pf},\
                 \"pid\":{},\"tid\":{}}}",
                fi + 1,
                shard_of[p as usize] as u64 + 1,
                lane_of[p as usize] + 1
            ),
            &mut out,
            &mut first,
        );
        emit(
            format!(
                "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
                 \"ts\":{ss},\"pid\":{},\"tid\":{}}}",
                fi + 1,
                shard_of[s as usize] as u64 + 1,
                lane_of[s as usize] + 1
            ),
            &mut out,
            &mut first,
        );
    }

    // Interconnect: match send/deliver by packet id into duration slices;
    // retries and faults become instants.
    let mut sends: Vec<(u32, u64, u16, u32)> = Vec::new(); // (packet, at, src, task)
    let mut delivers: Vec<(u32, u64)> = Vec::new();
    for e in log.events() {
        match e.kind {
            SpanKind::MsgSend => sends.push((e.arg, e.at, e.shard, e.task)),
            SpanKind::MsgDeliver => delivers.push((e.arg, e.at)),
            SpanKind::MsgRetry => emit(
                format!(
                    "{{\"name\":\"retry p{}\",\"cat\":\"link\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{},\"pid\":{link_pid},\"tid\":{}}}",
                    e.arg,
                    e.at,
                    e.shard as u64 + 1
                ),
                &mut out,
                &mut first,
            ),
            SpanKind::Fault => emit(
                format!(
                    "{{\"name\":\"fault {}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{},\"pid\":{link_pid},\"tid\":{}}}",
                    e.arg,
                    e.at,
                    e.shard as u64 + 1
                ),
                &mut out,
                &mut first,
            ),
            _ => {}
        }
    }
    delivers.sort_unstable();
    for (packet, at, src, task) in sends {
        // First delivery at-or-after the send with the same packet id
        // (duplicates deliver later; drops never match).
        let i = delivers.partition_point(|&(p, t)| (p, t) < (packet, at));
        let dur = match delivers.get(i) {
            Some(&(p, t)) if p == packet => t - at,
            _ => 0,
        };
        emit(
            format!(
                "{{\"name\":\"t{task} p{packet}\",\"cat\":\"link\",\"ph\":\"X\",\
                 \"ts\":{at},\"dur\":{dur},\"pid\":{link_pid},\"tid\":{}}}",
                src as u64 + 1
            ),
            &mut out,
            &mut first,
        );
    }

    out.push_str("]}");
    out
}

/// Picks a sampling window targeting `target_samples` timeline rows for a
/// run of roughly `makespan_estimate` cycles: the smallest power of two
/// yielding at most that many full windows, floored at 64 cycles. Callers
/// with an explicit window never call this — the explicit value wins.
pub fn auto_window(makespan_estimate: u64, target_samples: u64) -> u64 {
    let target = target_samples.max(1);
    let mut w = 64u64;
    while makespan_estimate / w > target && w < (1 << 62) {
        w *= 2;
    }
    w
}

/// The recorded events, in recording order.
impl Snap for SpanLog {
    fn save(&self) -> Value {
        self.events.save()
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        Ok(SpanLog {
            events: Snap::load(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle(log: &mut SpanLog, task: u32, ts: [u64; 7]) {
        let kinds = [
            SpanKind::Submitted,
            SpanKind::DepsRegistered,
            SpanKind::LastDepReleased,
            SpanKind::Ready,
            SpanKind::Dispatched,
            SpanKind::Started,
            SpanKind::Finished,
        ];
        for (k, t) in kinds.into_iter().zip(ts) {
            log.record(k, t, 0, task, 0);
        }
    }

    #[test]
    fn canonical_sort_orders_by_cycle_then_lifecycle() {
        let mut log = SpanLog::new();
        log.record(SpanKind::Finished, 10, 0, 1, 0);
        log.record(SpanKind::Started, 10, 0, 2, 0);
        log.record(SpanKind::Submitted, 5, 1, 0, 0);
        log.canonical_sort();
        let kinds: Vec<SpanKind> = log.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Submitted, SpanKind::Started, SpanKind::Finished]
        );
    }

    #[test]
    fn chain_walk_sums_to_makespan() {
        // Task 0: [submit 0, reg 5, rel 8, ready 10, disp 12, start 15, fin 100]
        // Task 1 depends on 0: ready only after 0 finishes.
        let mut log = SpanLog::new();
        lifecycle(&mut log, 0, [0, 5, 8, 10, 12, 15, 100]);
        lifecycle(&mut log, 1, [3, 7, 104, 106, 107, 110, 200]);
        let preds = |t: u32| if t == 1 { vec![0] } else { vec![] };
        let cp = critical_path(&log, preds, 210).unwrap();
        let total: u64 = cp.totals().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 210, "category cycles must sum to the makespan");
        assert_eq!(cp.total(CpCategory::Drain), 10);
        assert_eq!(cp.total(CpCategory::Exec), 85 + 90);
        assert_eq!(cp.total(CpCategory::Arrival), 0);
        // Chain: t1 exec [110,200), dispatch [107,110), ts [106,107),
        // wake [100,106) -> jump to t0, whose wake is [reg 5, ready 10).
        assert_eq!(cp.total(CpCategory::TrsWake), 6 + 5);
        assert_eq!(cp.total(CpCategory::Dispatch), 3 + 3);
        assert_eq!(cp.total(CpCategory::TsQueue), 1 + 2);
        assert_eq!(cp.total(CpCategory::DmRegister), 5);
        // Segments are contiguous and ascending.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(cp.segments.first().unwrap().start, 0);
        assert_eq!(cp.segments.last().unwrap().end, 210);
    }

    #[test]
    fn missing_hardware_events_collapse_to_zero_width() {
        // Driver-only log (perfect-scheduler shape): submit/start/finish.
        let mut log = SpanLog::new();
        log.record(SpanKind::Submitted, 0, 0, 0, 0);
        log.record(SpanKind::Started, 4, 0, 0, 0);
        log.record(SpanKind::Finished, 54, 0, 0, 0);
        let cp = critical_path(&log, |_| vec![], 54).unwrap();
        assert_eq!(cp.total(CpCategory::Exec), 50);
        assert_eq!(cp.total(CpCategory::TrsWake), 4, "pre-start gap");
        let total: u64 = cp.totals().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 54);
    }

    #[test]
    fn link_transit_attributed_between_send_and_deliver() {
        let mut log = SpanLog::new();
        lifecycle(&mut log, 0, [0, 0, 0, 0, 0, 0, 100]);
        // Finish message of task 0 crosses the link [102, 130).
        log.record(SpanKind::MsgSend, 102, 0, 0, 7);
        log.record(SpanKind::MsgDeliver, 130, 1, 0, 7);
        lifecycle(&mut log, 1, [0, 1, 133, 135, 135, 140, 220]);
        let cp = critical_path(&log, |t| if t == 1 { vec![0] } else { vec![] }, 220).unwrap();
        assert_eq!(cp.total(CpCategory::LinkTransit), 28);
        assert_eq!(cp.total(CpCategory::TrsWake), 2 + 5);
        let total: u64 = cp.totals().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 220);
    }

    #[test]
    fn empty_log_walks_to_none() {
        assert!(critical_path(&SpanLog::new(), |_| vec![], 10).is_none());
    }

    #[test]
    fn perfetto_emits_slices_flows_and_metadata() {
        let mut log = SpanLog::new();
        lifecycle(&mut log, 0, [0, 1, 2, 3, 4, 5, 50]);
        lifecycle(&mut log, 1, [0, 1, 52, 53, 54, 55, 90]);
        log.record(SpanKind::MsgSend, 51, 0, 0, 3);
        log.record(SpanKind::MsgDeliver, 52, 1, 0, 3);
        log.record(SpanKind::MsgRetry, 60, 0, u32::MAX, 3);
        let json = to_perfetto_json(&log, &[(0, 1)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"name\":\"shard0\""));
        assert!(json.contains("\"name\":\"interconnect\""));
        assert!(json.contains("retry p3"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn concurrent_tasks_get_distinct_lanes() {
        let mut log = SpanLog::new();
        lifecycle(&mut log, 0, [0, 0, 0, 0, 0, 10, 100]);
        lifecycle(&mut log, 1, [0, 0, 0, 0, 0, 10, 100]);
        let json = to_perfetto_json(&log, &[]);
        assert!(json.contains("\"tid\":1") && json.contains("\"tid\":2"));
    }

    #[test]
    fn auto_window_targets_sample_count() {
        assert_eq!(auto_window(0, 256), 64);
        assert_eq!(auto_window(64 * 256, 256), 64, "exact fit keeps the floor");
        let w = auto_window(10_000_000, 256);
        assert!(w.is_power_of_two());
        assert!(10_000_000 / w <= 256, "at most ~target samples");
        assert!(10_000_000 / (w / 2) > 256, "smallest such power of two");
    }

    #[test]
    fn span_log_json_renders_events() {
        let mut log = SpanLog::new();
        log.record(SpanKind::Submitted, 3, 1, 9, 0);
        let j = log.to_json();
        assert!(j.contains("\"kind\":\"submitted\""));
        assert!(j.contains("\"shard\":1"));
    }

    #[test]
    fn span_log_roundtrips() {
        let mut log = SpanLog::new();
        log.record(SpanKind::Submitted, 0, 1, 7, 0);
        log.record(SpanKind::MsgSend, 9, 2, u32::MAX, 3);
        let back = SpanLog::load(&log.save()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn every_span_kind_roundtrips() {
        for code in 0..=10u64 {
            let kind = SpanKind::load(&Value::Int(code)).unwrap();
            assert_eq!(kind as u64, code);
            assert_eq!(SpanKind::load(&kind.save()), Ok(kind));
        }
        assert!(SpanKind::load(&Value::Int(11)).is_err());
    }
}
