//! The uniform streaming-session object every backend opens.
//!
//! [`SimSession`] is the dyn-safe face of the per-engine concrete sessions
//! ([`PerfectSession`], [`SoftwareSession`], [`HilSession`],
//! [`ClusterSession`]): the incremental ingest interface of
//! [`SessionCore`] plus a uniform finish that folds each engine's result
//! and error types into one [`SessionOutput`] ([`ExecReport`], optional
//! hardware [`Stats`], optional [`Timeline`], labeled [`MetricSet`]).
//! `ExecBackend::run` is a default method driving one of these — no
//! backend carries its own batch loop.

use crate::backends::BackendError;
use picos_cluster::{merged_stats, ClusterSession};
use picos_core::Stats;
use picos_hil::HilSession;
use picos_metrics::span::SpanLog;
use picos_metrics::{MergeRule, MetricSet, Timeline};
use picos_runtime::{ExecReport, PerfectSession, SoftwareSession};
use picos_trace::{SnapError, Value};
use std::fmt;

pub use picos_runtime::session::{
    feed_range, feed_trace, Admission, FeedStall, SessionConfig, SessionCore, SimEvent,
};

/// Everything a finished session reports: the schedule, the engine's
/// hardware counters (when it models Picos), the cycle-windowed telemetry
/// (when the session was opened with
/// [`SessionConfig::timeline_window`]), and the unified metrics registry
/// with one labeled scope per layer (`core.` for a single accelerator,
/// `shardK.` for cluster shards, `run.` for schedule-level facts).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutput {
    /// The schedule, as from a batch run.
    pub report: ExecReport,
    /// Hardware counters, when the engine models Picos.
    pub stats: Option<Stats>,
    /// Cycle-windowed telemetry, when a timeline window was requested.
    pub timeline: Option<Timeline>,
    /// Task-lifecycle span events, when the session was opened with
    /// [`SessionConfig::trace_spans`]. Recording order (merged across
    /// engine layers and simulation lanes): the analysis entry points —
    /// the critical-path walker, the Perfetto exporter — are
    /// order-insensitive, so the finish path does not pay for a sort;
    /// call [`SpanLog::canonical_sort`] before comparing logs
    /// byte-for-byte or relying on a deterministic event order.
    pub spans: Option<SpanLog>,
    /// The run's counters under the unified metrics vocabulary.
    pub metrics: MetricSet,
}

/// Schedule-level facts every engine shares, under the `run.` scope.
fn run_metrics(report: &ExecReport) -> MetricSet {
    let mut set = MetricSet::new();
    set.counter("run.tasks", report.order.len() as u64, MergeRule::Sum)
        .counter("run.makespan", report.makespan, MergeRule::Max)
        .counter("run.sequential", report.sequential, MergeRule::Sum)
        .counter("run.workers", report.workers as u64, MergeRule::Sum);
    set
}

/// Output of an engine without modelled hardware: schedule facts plus a
/// schedule-derived worker-occupancy timeline when one was requested.
fn plain_output(
    report: ExecReport,
    timeline_window: Option<u64>,
    spans: Option<SpanLog>,
) -> SessionOutput {
    let timeline = timeline_window
        .map(|w| Timeline::from_schedule(w, &report.start, &report.end, report.makespan));
    let metrics = run_metrics(&report);
    SessionOutput {
        report,
        stats: None,
        timeline,
        spans,
        metrics,
    }
}

/// A streaming execution session, opened with `ExecBackend::open_with`.
///
/// Drive it with the [`SessionCore`] interface — `submit` tasks (handling
/// [`Admission::Backpressured`]), declare `barrier`s, `advance_to` arrival
/// times or `step` through backpressure, `drain_events` — then call
/// [`SimSession::finish`] (or [`SimSession::finish_full`] for telemetry)
/// to run the simulation to quiescence and collect the results.
pub trait SimSession: SessionCore + Send + fmt::Debug {
    /// Closes the input stream, runs the simulation to quiescence and
    /// returns everything the run produced: report, hardware counters,
    /// telemetry timeline and the labeled metrics registry.
    ///
    /// # Errors
    ///
    /// Returns the engine's stall/deadlock condition as a
    /// [`BackendError`].
    fn finish_full(self: Box<Self>) -> Result<SessionOutput, BackendError>;

    /// Closes the input stream, runs the simulation to quiescence and
    /// returns the schedule report, plus the engine's hardware counters
    /// when it models Picos.
    ///
    /// # Errors
    ///
    /// See [`SimSession::finish_full`].
    fn finish(self: Box<Self>) -> Result<(ExecReport, Option<Stats>), BackendError> {
        self.finish_full().map(|o| (o.report, o.stats))
    }

    /// Serializes the session's complete dynamic state — engine tables,
    /// clock, in-flight work, ingest window, schedule/event logs, attached
    /// telemetry — through the in-tree JSON codec. The snapshot embeds a
    /// configuration fingerprint, so it can only be restored into an
    /// identically-configured session.
    fn save_state(&self) -> Value;

    /// Overwrites this session's dynamic state with a snapshot taken from
    /// an identically-configured session ([`SimSession::save_state`]).
    /// After a successful load, driving this session is bit-exact with
    /// driving the snapshotted one.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on configuration mismatch or a malformed
    /// snapshot; the session must then be discarded.
    fn load_state(&mut self, v: &Value) -> Result<(), SnapError>;

    /// Deep-copies the session into an independent boxed replica — the
    /// cheap in-memory fork primitive. The replica shares no state with
    /// the original; driving either leaves the other untouched.
    fn fork_boxed(&self) -> Box<dyn SimSession>;
}

impl SimSession for PerfectSession {
    fn finish_full(self: Box<Self>) -> Result<SessionOutput, BackendError> {
        let window = self.timeline_window();
        let (report, spans) = (*self).into_output();
        Ok(plain_output(report, window, spans))
    }

    fn save_state(&self) -> Value {
        PerfectSession::save_state(self)
    }

    fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        PerfectSession::load_state(self, v)
    }

    fn fork_boxed(&self) -> Box<dyn SimSession> {
        Box::new(self.clone())
    }
}

impl SimSession for SoftwareSession {
    fn finish_full(self: Box<Self>) -> Result<SessionOutput, BackendError> {
        let window = self.timeline_window();
        let (report, spans) = (*self).into_output().map_err(BackendError::from)?;
        Ok(plain_output(report, window, spans))
    }

    fn save_state(&self) -> Value {
        SoftwareSession::save_state(self)
    }

    fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        SoftwareSession::load_state(self, v)
    }

    fn fork_boxed(&self) -> Box<dyn SimSession> {
        Box::new(self.clone())
    }
}

impl SimSession for HilSession {
    fn finish_full(self: Box<Self>) -> Result<SessionOutput, BackendError> {
        let (report, stats, timeline, spans) = (*self).into_output().map_err(BackendError::from)?;
        let mut metrics = run_metrics(&report);
        metrics.extend_scoped("core.", &stats.metric_set());
        Ok(SessionOutput {
            report,
            stats: Some(stats),
            timeline,
            spans,
            metrics,
        })
    }

    fn save_state(&self) -> Value {
        HilSession::save_state(self)
    }

    fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        HilSession::load_state(self, v)
    }

    fn fork_boxed(&self) -> Box<dyn SimSession> {
        Box::new(self.clone())
    }
}

impl SimSession for ClusterSession {
    fn finish_full(self: Box<Self>) -> Result<SessionOutput, BackendError> {
        let (report, per_shard, timeline, faults, spans) =
            (*self).into_output().map_err(BackendError::from)?;
        let mut metrics = run_metrics(&report);
        for (k, stats) in per_shard.iter().enumerate() {
            metrics.extend_scoped(&format!("shard{k}."), &stats.metric_set());
        }
        let merged = merged_stats(&per_shard);
        metrics.extend_scoped("core.", &merged.metric_set());
        if let Some(fc) = faults {
            // Fault-protocol counters, only when an active plan is
            // attached — a fault-free session registers no faults.* scope.
            metrics
                .counter("faults.drops", fc.drops, MergeRule::Sum)
                .counter("faults.retries", fc.retries, MergeRule::Sum)
                .counter("faults.redeliveries", fc.redeliveries, MergeRule::Sum)
                .counter("faults.recoveries", fc.recoveries, MergeRule::Sum);
        }
        Ok(SessionOutput {
            report,
            stats: Some(merged),
            timeline,
            spans,
            metrics,
        })
    }

    fn save_state(&self) -> Value {
        ClusterSession::save_state(self)
    }

    fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        ClusterSession::load_state(self, v)
    }

    fn fork_boxed(&self) -> Box<dyn SimSession> {
        Box::new(self.clone())
    }
}
