//! # picos-repro
//!
//! Reproduction of *"Performance Analysis of a Hardware Accelerator of
//! Dependence Management for Task-based Dataflow Programming models"*
//! (Tan, Bosch, Jiménez-González, Álvarez-Martínez, Ayguadé, Valero —
//! ISPASS 2016) as a family of Rust crates. This facade re-exports the
//! public API of every crate in the workspace:
//!
//! * [`trace`] — tasks, dependences, the dataflow graph and the paper's
//!   workload generators ([`picos_trace`]).
//! * [`core`] — the Picos hardware model: GW, TRS, DCT (DM/VM), ARB, TS
//!   ([`picos_core`]).
//! * [`runtime`] — the Nanos++-like software baseline and the perfect
//!   scheduler ([`picos_runtime`]).
//! * [`hil`] — the hardware-in-the-loop platform with its three modes
//!   ([`picos_hil`]).
//! * [`cluster`] — the sharded multi-Picos cluster with distributed
//!   dependence management ([`picos_cluster`]).
//! * [`backend`] — the uniform [`ExecBackend`](picos_backend::ExecBackend)
//!   trait over every engine plus the parallel experiment-sweep harness
//!   ([`picos_backend`]).
//! * [`serve`] — the multi-tenant simulation service: thousands of live
//!   journaled sessions behind one fair scheduler, over TCP or in-process
//!   ([`picos_serve`]).
//! * [`resources`] — the FPGA resource model ([`picos_resources`]).
//!
//! The crate layering and the recipe for adding a new execution backend
//! are documented in `ARCHITECTURE.md` at the repository root.
//!
//! # Quickstart
//!
//! ```
//! use picos_repro::prelude::*;
//!
//! // The paper's Cholesky workload at block size 64: fine-grained tasks,
//! // the regime the accelerator was built for.
//! let trace = gen::cholesky(gen::CholeskyConfig::paper(64));
//!
//! // Run it through the full Picos platform with 12 workers...
//! let batch = SessionConfig::batch();
//! let picos = PicosBackend::balanced(HilMode::FullSystem, 12).run(&trace, batch)?;
//! // ... and through the software-only runtime.
//! let nanos = SoftwareBackend::with_workers(12).run(&trace, batch)?;
//!
//! // The headline result: for fine-grained tasks, hardware dependence
//! // management keeps scaling where the software runtime collapses.
//! assert!(picos.report.speedup() > 1.5 * nanos.report.speedup());
//! // Engines that model Picos also report its hardware counters.
//! assert!(picos.stats.is_some() && nanos.stats.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use picos_backend as backend;
pub use picos_cluster as cluster;
pub use picos_core as core;
pub use picos_hil as hil;
pub use picos_metrics as metrics;
pub use picos_resources as resources;
pub use picos_runtime as runtime;
pub use picos_serve as serve;
pub use picos_trace as trace;

/// Everything a typical experiment needs, importable in one line.
pub mod prelude {
    pub use picos_backend::{
        feed_range, feed_trace, run_paced, run_paced_full, Admission, ArrivalTrace, BackendBuilder,
        BackendError, BackendSpec, ClusterBackend, ExecBackend, PaceReport, PacedTask, PacedTrace,
        PerfectBackend, PicosBackend, SessionConfig, SessionCore, SessionOutput, SimEvent,
        SimSession, Snapshot, SoftwareBackend, Sweep, SweepResult, SweepRow, Workload,
    };
    // `SyntheticMetrics` comes in through `picos_hil` below (re-exported
    // from the metrics crate).
    pub use picos_cluster::{
        home_shard, merged_stats, ClusterConfig, ClusterError, ClusterSession, FaultCounters,
        FaultPlan, ShardPause, ShardPolicy, WorkerFault,
    };
    pub use picos_core::{
        DmDesign, EngineError, FinishedReq, PicosConfig, PicosSystem, Timing, TsPolicy,
    };
    pub use picos_hil::{
        HilConfig, HilCostModel, HilError, HilMode, Link, LinkModel, SyntheticMetrics, Workers,
    };
    pub use picos_metrics::span;
    pub use picos_metrics::{
        MergeRule, Metric, MetricSet, MetricValue, SeriesKind, SeriesSpec, Timeline, WindowSampler,
    };
    pub use picos_resources::{full_picos_resources, table3, ResourceEstimate, XC7Z020};
    pub use picos_runtime::{
        replay_journal, replay_journal_tail, ExecReport, JournaledSession, NanosCostModel,
        SwRuntimeConfig,
    };
    pub use picos_serve::{
        ServeConfig, ServeError, ServeHandle, Service, SubmitOutcome, TenantSpec, TenantStats,
    };
    pub use picos_trace::gen;
    pub use picos_trace::{
        Dependence, Direction, JournalOp, SessionJournal, TaskDescriptor, TaskGraph, TaskId, Trace,
        TraceStats,
    };
}
