//! Open-loop paced driving of streaming sessions.
//!
//! The batch driver feeds a whole trace as fast as the engine admits it;
//! this module drives a session the way sustained traffic would: tasks
//! *arrive* on a clock that does not depend on how fast the system drains
//! them (open loop). [`run_paced`] advances the session to each arrival
//! cycle, submits, and rides out [`Admission::Backpressured`] by stepping
//! the simulation — the per-run [`PaceReport`] then tells whether the
//! engine kept up (achieved vs offered rate) and how often the in-flight
//! window pushed back.

use crate::backends::{BackendError, ExecBackend};
use crate::session::{Admission, SessionConfig};
use picos_core::Stats;
use picos_metrics::span::SpanLog;
use picos_metrics::{MergeRule, MetricSet, SeriesSpec, Timeline, WindowSampler};
use picos_runtime::ExecReport;
use picos_trace::{TaskDescriptor, Trace};

/// One item of an arrival stream: a task, its arrival cycle and whether an
/// OmpSs taskwait precedes it.
#[derive(Debug, Clone)]
pub struct PacedTask {
    /// The task to submit.
    pub task: TaskDescriptor,
    /// Cycle the task arrives (nondecreasing across the stream).
    pub arrival: u64,
    /// Whether a taskwait must be declared before this task.
    pub barrier_before: bool,
}

/// A stream of tasks with arrival times: anything that can feed a paced
/// session — a trace at a fixed rate ([`PacedTrace`]), a trace with
/// explicit per-task arrivals ([`ArrivalTrace`]), or a custom generator.
pub trait TraceSource {
    /// The next arrival, or `None` when the stream ends. Arrivals must be
    /// nondecreasing and tasks must come in creation order.
    fn next_paced(&mut self) -> Option<PacedTask>;
}

/// A trace offered at a fixed open-loop rate: task `i` arrives at
/// `i * interarrival` cycles (taskwaits are preserved as barriers).
#[derive(Debug, Clone)]
pub struct PacedTrace<'a> {
    trace: &'a Trace,
    interarrival: u64,
    next: usize,
    /// Cursor into the sorted barrier list (avoids a per-task scan).
    next_barrier: usize,
}

impl<'a> PacedTrace<'a> {
    /// Offers `trace` at one task per `interarrival` cycles.
    pub fn new(trace: &'a Trace, interarrival: u64) -> Self {
        PacedTrace {
            trace,
            interarrival,
            next: 0,
            next_barrier: 0,
        }
    }
}

impl TraceSource for PacedTrace<'_> {
    fn next_paced(&mut self) -> Option<PacedTask> {
        let task = self.trace.tasks().get(self.next)?.clone();
        let barrier_before = barrier_at(self.trace, &mut self.next_barrier, self.next);
        let item = PacedTask {
            task,
            arrival: self.next as u64 * self.interarrival,
            barrier_before,
        };
        self.next += 1;
        Some(item)
    }
}

/// Advances the barrier cursor past position `i`; returns whether a
/// taskwait sits exactly before task `i` (barriers are sorted and
/// deduplicated, so this is a constant-time cursor walk).
fn barrier_at(trace: &Trace, cursor: &mut usize, i: usize) -> bool {
    match trace.barriers().get(*cursor) {
        Some(&b) if b as usize == i => {
            *cursor += 1;
            true
        }
        _ => false,
    }
}

/// A trace with an explicit arrival cycle per task (e.g. from
/// [`picos_trace::gen::stream_requests`]).
#[derive(Debug, Clone)]
pub struct ArrivalTrace<'a> {
    trace: &'a Trace,
    arrivals: &'a [u64],
    next: usize,
    /// Cursor into the sorted barrier list (avoids a per-task scan).
    next_barrier: usize,
}

impl<'a> ArrivalTrace<'a> {
    /// Pairs `trace` with one arrival cycle per task.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn new(trace: &'a Trace, arrivals: &'a [u64]) -> Self {
        assert_eq!(trace.len(), arrivals.len(), "one arrival per task");
        ArrivalTrace {
            trace,
            arrivals,
            next: 0,
            next_barrier: 0,
        }
    }
}

impl TraceSource for ArrivalTrace<'_> {
    fn next_paced(&mut self) -> Option<PacedTask> {
        let task = self.trace.tasks().get(self.next)?.clone();
        let barrier_before = barrier_at(self.trace, &mut self.next_barrier, self.next);
        let item = PacedTask {
            task,
            arrival: self.arrivals[self.next],
            barrier_before,
        };
        self.next += 1;
        Some(item)
    }
}

/// Outcome of a paced run: the schedule report plus the driver-side
/// admission telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct PaceReport {
    /// The schedule, as from a batch run.
    pub report: ExecReport,
    /// Hardware counters, when the backend models Picos.
    pub stats: Option<Stats>,
    /// Tasks submitted (equals the source length; nothing is dropped).
    pub tasks: usize,
    /// Tasks whose first submission was backpressured.
    pub backpressured_tasks: usize,
    /// Total backpressured submission attempts.
    pub retries: u64,
    /// Arrival cycle of the last task (the offered-load horizon).
    pub last_arrival: u64,
    /// Cycle-windowed telemetry, when requested: the driver's own series
    /// (`pace.inflight`, `pace.backpressured`, `pace.retries` — windowed
    /// backpressure and in-flight occupancy on the arrival clock) stitched
    /// with the engine session's timeline.
    pub timeline: Option<Timeline>,
    /// Driver-side admission counters under the unified metrics
    /// vocabulary, including an in-flight occupancy histogram sampled at
    /// each arrival.
    pub metrics: MetricSet,
    /// Task-lifecycle span events, when the run was opened with
    /// [`SessionConfig::trace_spans`] (see [`run_paced_full`]). Recording
    /// order, like a batch session's output.
    pub spans: Option<SpanLog>,
}

impl PaceReport {
    /// Fraction of tasks that hit backpressure on first submission.
    pub fn backpressure_ratio(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.backpressured_tasks as f64 / self.tasks as f64
        }
    }

    /// Achieved throughput in tasks per kilocycle (over the makespan).
    pub fn achieved_per_kcycle(&self) -> f64 {
        if self.report.makespan == 0 {
            0.0
        } else {
            self.tasks as f64 * 1000.0 / self.report.makespan as f64
        }
    }

    /// Offered load in tasks per kilocycle (over the arrival horizon).
    pub fn offered_per_kcycle(&self) -> f64 {
        if self.last_arrival == 0 {
            0.0
        } else {
            self.tasks as f64 * 1000.0 / self.last_arrival as f64
        }
    }
}

/// Drives a [`TraceSource`] through a session of `backend` with the given
/// in-flight window: advance to each arrival, submit, and step the
/// simulation whenever the window pushes back. Finishes the session and
/// returns the [`PaceReport`].
///
/// # Errors
///
/// Propagates backend errors; reports a configuration error when a
/// backpressured session cannot make progress (a window smaller than a
/// barrier's prefix).
pub fn run_paced(
    backend: &dyn ExecBackend,
    source: impl TraceSource,
    window: Option<usize>,
) -> Result<PaceReport, BackendError> {
    run_paced_full(
        backend,
        source,
        SessionConfig {
            window,
            ..SessionConfig::batch()
        },
    )
}

/// The full-config paced driver: every [`SessionConfig`] knob applies to
/// the open-loop session. With [`SessionConfig::timeline_window`] set, the
/// driver samples its own backpressure and in-flight occupancy on the
/// arrival clock, the session records its engine-side series, and the
/// report's timeline stitches both (driver series under the `pace.`
/// scope). With [`SessionConfig::trace_spans`], a paced run records the
/// same task-lifecycle spans as a batch session, so
/// `--trace-out`/`--critical-path` work under pacing. Telemetry is
/// observation-only — the schedule and admission counts are identical to
/// a plain [`run_paced`]. The `window` field is the paced in-flight cap
/// ([`run_paced`]'s `window` argument).
///
/// # Errors
///
/// See [`run_paced`].
pub fn run_paced_full(
    backend: &dyn ExecBackend,
    mut source: impl TraceSource,
    cfg: SessionConfig,
) -> Result<PaceReport, BackendError> {
    let mut session = backend.open_with(cfg)?;
    let mut sampler = cfg.timeline_window.map(|w| {
        WindowSampler::new(
            w,
            vec![
                SeriesSpec::gauge("inflight"),
                SeriesSpec::delta("backpressured"),
                SeriesSpec::delta("retries"),
            ],
        )
    });
    let mut tasks = 0usize;
    let mut backpressured_tasks = 0usize;
    let mut retries = 0u64;
    let mut last_arrival = 0u64;
    let mut inflight_obs = Vec::new();
    while let Some(item) = source.next_paced() {
        if item.barrier_before {
            session.barrier();
        }
        if item.arrival > session.now() {
            session.advance_to(item.arrival);
        }
        if let Some(s) = &mut sampler {
            let (inflight, now) = (session.in_flight() as u64, session.now());
            s.advance(now, |out| {
                out[0] = inflight;
                out[1] = backpressured_tasks as u64;
                out[2] = retries;
            });
            inflight_obs.push(inflight);
        }
        last_arrival = item.arrival;
        let mut first = true;
        loop {
            match session.submit(&item.task) {
                Admission::Accepted => break,
                Admission::Backpressured => {
                    if first {
                        backpressured_tasks += 1;
                        first = false;
                    }
                    retries += 1;
                    if !session.step() {
                        return Err(BackendError::Config(format!(
                            "paced driver stalled: backpressured session \
                             cannot progress at task {tasks}"
                        )));
                    }
                }
            }
        }
        tasks += 1;
    }
    let driver_tl = sampler.map(|s| {
        let inflight = session.in_flight() as u64;
        s.finish(session.now(), |out| {
            out[0] = inflight;
            out[1] = backpressured_tasks as u64;
            out[2] = retries;
        })
    });
    let out = session.finish_full()?;
    let timeline = driver_tl.map(|driver| match &out.timeline {
        // The engine timeline spans the full makespan; the driver's
        // arrival-clock series pad out once arrivals stop.
        Some(engine) => Timeline::stitch(&[("", engine), ("pace.", &driver)]),
        None => driver,
    });
    let mut metrics = out.metrics;
    metrics
        .counter("pace.tasks", tasks as u64, MergeRule::Sum)
        .counter(
            "pace.backpressured_tasks",
            backpressured_tasks as u64,
            MergeRule::Sum,
        )
        .counter("pace.retries", retries, MergeRule::Sum)
        .counter("pace.last_arrival", last_arrival, MergeRule::Max);
    if !inflight_obs.is_empty() {
        metrics.histogram(
            "pace.inflight_hist",
            vec![0, 1, 2, 4, 8, 16, 32, 64, 128, 256],
            inflight_obs,
        );
    }
    Ok(PaceReport {
        report: out.report,
        stats: out.stats,
        tasks,
        backpressured_tasks,
        retries,
        last_arrival,
        timeline,
        metrics,
        spans: out.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendSpec, PerfectBackend};
    use picos_trace::gen;

    #[test]
    fn gentle_rate_never_backpressures() {
        let tr = gen::synthetic(gen::Case::Case1);
        let b = PerfectBackend { workers: 8 };
        let r = run_paced(&b, PacedTrace::new(&tr, 10_000), Some(64)).unwrap();
        assert_eq!(r.tasks, tr.len());
        assert_eq!(r.backpressured_tasks, 0);
        assert!(r.backpressure_ratio() == 0.0);
        r.report.validate(&tr).unwrap();
        // Open-loop arrival: the makespan at least spans the arrivals.
        assert!(r.report.makespan >= r.last_arrival);
    }

    #[test]
    fn saturating_rate_backpressures_but_drops_nothing() {
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let b = BackendSpec::Picos(picos_hil::HilMode::HwOnly)
            .builder(2)
            .build();
        let r = run_paced(&*b, PacedTrace::new(&tr, 1), Some(8)).unwrap();
        assert_eq!(r.tasks, tr.len(), "no task may be dropped");
        assert!(r.backpressured_tasks > 0, "rate 1/cycle must saturate");
        assert!(r.retries >= r.backpressured_tasks as u64);
        assert!(r.backpressure_ratio() > 0.0);
        r.report.validate(&tr).unwrap();
        let stats = r.stats.expect("picos counters");
        assert_eq!(stats.tasks_completed as usize, tr.len());
    }

    #[test]
    fn paced_barriers_are_respected() {
        let mut tr = Trace::new("barriered");
        let k = picos_trace::KernelClass::GENERIC;
        for _ in 0..5 {
            tr.push(k, [], 200);
        }
        tr.push_taskwait();
        for _ in 0..5 {
            tr.push(k, [], 200);
        }
        let b = PerfectBackend { workers: 4 };
        let r = run_paced(&b, PacedTrace::new(&tr, 50), Some(4)).unwrap();
        r.report.validate(&tr).unwrap();
    }

    #[test]
    fn arrival_trace_uses_explicit_cycles() {
        let (tr, arrivals) = gen::stream_requests(gen::StreamConfig {
            tasks: 50,
            ..gen::StreamConfig::default()
        });
        assert_eq!(tr.len(), arrivals.len());
        let b = PerfectBackend { workers: 8 };
        let r = run_paced(&b, ArrivalTrace::new(&tr, &arrivals), None).unwrap();
        assert_eq!(r.tasks, 50);
        assert_eq!(r.last_arrival, *arrivals.last().unwrap());
        r.report.validate(&tr).unwrap();
        // Tasks cannot start before they arrive.
        for (i, &a) in arrivals.iter().enumerate() {
            assert!(r.report.start[i] >= a, "task {i} started before arrival");
        }
    }

    #[test]
    fn faster_offered_rate_cannot_slow_completion() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let b = BackendSpec::Cluster(2).builder(8).build();
        let slow = run_paced(&*b, PacedTrace::new(&tr, 500), Some(64)).unwrap();
        let fast = run_paced(&*b, PacedTrace::new(&tr, 10), Some(64)).unwrap();
        assert!(fast.report.makespan <= slow.report.makespan);
        assert!(fast.offered_per_kcycle() > slow.offered_per_kcycle());
    }
}
