//! Hardware-In-the-Loop platform model around the Picos core.
//!
//! Reproduces the embedded system of the paper's Section IV-B: the Picos
//! accelerator in the programmable logic, the AXI Stream interface with its
//! 200-300-cycle message cost, and the ARM-side software that creates tasks
//! and drives the close loop. The three operational modes of Table IV are
//! [`HilMode::HwOnly`], [`HilMode::HwComm`] and [`HilMode::FullSystem`].
//!
//! # Quick example
//!
//! ```
//! use picos_hil::{HilConfig, HilMode, HilSession};
//! use picos_runtime::{feed_trace, SessionConfig};
//! use picos_trace::gen;
//!
//! let trace = gen::synthetic(gen::Case::Case2);
//! let mut session =
//!     HilSession::new(HilMode::HwOnly, HilConfig::balanced(12), SessionConfig::batch())?;
//! feed_trace(&mut session, &trace)?;
//! let (report, stats, _timeline, _spans) = session.into_output()?;
//! let m = report.synthetic_metrics(trace.stats().avg_deps());
//! assert!(m.l1st > 0); // paper: 73 cycles
//! assert_eq!(stats.tasks_completed as usize, trace.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod metrics;
mod modes;
mod pool;

pub use cost::{HilCostModel, LinkModel};
pub use metrics::SyntheticMetrics;
pub use modes::{HilConfig, HilError, HilMode, HilSession};
pub use pool::{Link, Workers};
