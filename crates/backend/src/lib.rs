//! Uniform execution-backend abstraction, streaming sessions and the
//! experiment-sweep harness.
//!
//! The paper's evaluation is a head-to-head comparison of dependence
//! managers: the Picos hardware model in its three HIL modes, the Nanos++
//! software runtime, the zero-overhead perfect scheduler and the sharded
//! cluster. This crate puts all of them behind one trait, [`ExecBackend`],
//! whose primary interface is the incremental, backpressure-aware
//! [`SimSession`] (`open_with` → `submit`/`barrier`/`advance_to`/`step` →
//! `finish`); the batch `run(&Trace, SessionConfig)` entry point is a
//! default method over a session. On top sit the [`Sweep`] harness — a
//! declarative experiment grid (workloads × workers × backends × DM
//! designs × instance counts) whose cells execute in parallel on OS
//! threads with deterministic result ordering — and the open-loop paced
//! driver ([`pace`]).
//!
//! See `ARCHITECTURE.md` at the repository root for the crate layering,
//! the session sequence diagram and a walkthrough of adding a new backend.
//!
//! # Quick example
//!
//! ```
//! use picos_backend::{BackendSpec, Sweep};
//! use picos_trace::gen::App;
//!
//! let result = Sweep::over_apps([App::Cholesky], [256])
//!     .workers([4])
//!     .backends([BackendSpec::Perfect, BackendSpec::Nanos])
//!     .run();
//! assert_eq!(result.rows().len(), 2);
//! let perfect = &result.rows()[0];
//! assert!(perfect.error.is_none() && perfect.speedup >= 1.0);
//! ```
//!
//! # Streaming a session
//!
//! ```
//! use picos_backend::{Admission, BackendSpec, SessionConfig, SessionCore};
//! use picos_trace::gen;
//!
//! let trace = gen::synthetic(gen::Case::Case1);
//! let backend = BackendSpec::Picos(picos_hil::HilMode::HwOnly)
//!     .builder(4)
//!     .build();
//! let mut session = backend.open_with(SessionConfig::batch())?;
//! for task in trace.iter() {
//!     while session.submit(task) == Admission::Backpressured {
//!         // step() returns false when the session cannot progress —
//!         // treat that as a stall instead of spinning.
//!         assert!(session.step(), "session stalled");
//!     }
//! }
//! let (report, stats) = session.finish()?;
//! assert_eq!(report.order.len(), trace.len());
//! assert!(stats.is_some());
//! # Ok::<(), picos_backend::BackendError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backends;
pub mod pace;
pub mod par;
mod session;
mod snap;
mod sweep;

pub use backends::{
    BackendBuilder, BackendError, BackendSpec, ClusterBackend, ExecBackend, PerfectBackend,
    PicosBackend, SoftwareBackend,
};
pub use pace::{
    run_paced, run_paced_full, ArrivalTrace, PaceReport, PacedTask, PacedTrace, TraceSource,
};
pub use picos_cluster::{FaultCounters, FaultPlan, ShardPause, WorkerFault};
pub use picos_metrics::{
    MergeRule, Metric, MetricSet, MetricValue, SeriesKind, SeriesSpec, Timeline,
};
pub use session::{
    feed_range, feed_trace, Admission, FeedStall, SessionConfig, SessionCore, SessionOutput,
    SimEvent, SimSession,
};
pub use snap::Snapshot;
pub use sweep::{Sweep, SweepCell, SweepResult, SweepRow, Workload};
