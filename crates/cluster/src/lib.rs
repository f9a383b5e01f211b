//! Sharded multi-Picos cluster model: distributed dependence management.
//!
//! The paper's scalability analysis ends at a single Picos — one Gateway,
//! one Arbiter, one set of TRS/DCT instances. This crate models the next
//! step: **N full Picos accelerators** with the dependence space sharded
//! across them by address, a front-end Distributor that places tasks on
//! shards, and an explicit inter-shard interconnect (built from the same
//! [`LinkModel`] delivery/service discipline as the HIL platform's AXI
//! Stream bus) carrying cross-shard dependence-registration, wake-up and
//! finish messages.
//!
//! # Model
//!
//! Every dependence address has a *home shard* ([`home_shard`]): the shard
//! whose Dependence Memory tracks that address's producer/consumer chain.
//! A task is *placed* on one shard by the configured [`ShardPolicy`]; its
//! dependence list is split into per-home-shard **fragments**. The local
//! fragment (deps homed at the placement shard — possibly empty) is
//! submitted directly; remote fragments cross the interconnect as
//! registration messages sized by their dependence count. Each shard
//! ingests fragments strictly in task-creation order (an ingress reorder
//! stage), which is what keeps per-address dependence chains identical to
//! the single-Picos analysis. A fragment that becomes ready at a remote
//! shard sends a wake-up notice back to the placement shard; the task
//! starts on a placement-shard worker once *all* of its fragments are
//! ready, and on finish the placement shard notifies every fragment's
//! shard so DM/VM/TM resources release and successors wake.
//!
//! A **one-shard cluster is cycle-identical to [`picos_hil::HilMode::HwOnly`]**:
//! every dependence is home, no message ever crosses the interconnect, and
//! the driver loop degenerates to the HW-only driver (this is pinned by the
//! conformance suite in `tests/cluster_conformance.rs`).
//!
//! # Quick example
//!
//! ```
//! use picos_cluster::{merged_stats, ClusterConfig, ClusterSession};
//! use picos_runtime::{feed_trace, SessionConfig};
//! use picos_trace::gen;
//!
//! let trace = gen::stream(gen::StreamConfig::heavy(400));
//! for shards in [1, 4] {
//!     let cfg = ClusterConfig::balanced(shards, 16);
//!     let mut session = ClusterSession::new(cfg, SessionConfig::batch())?;
//!     feed_trace(&mut session, &trace)?;
//!     let (report, per_shard, _timeline, _faults, _spans) = session.into_output()?;
//!     report.validate(&trace)?;
//!     assert_eq!(per_shard.len(), shards);
//!     let total = merged_stats(&per_shard);
//!     assert_eq!(total.tasks_completed, total.tasks_submitted);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod fault;
mod system;

pub use config::{home_shard, ClusterConfig, ClusterError, ShardPolicy};
pub use fault::{FaultCounters, FaultPlan, ShardPause, WorkerFault};
pub use picos_hil::LinkModel;
pub use system::{merged_stats, ClusterOutput, ClusterSession};
