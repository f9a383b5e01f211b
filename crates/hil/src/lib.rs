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
//! use picos_hil::{run_hil, HilConfig, HilMode};
//! use picos_trace::gen;
//!
//! let trace = gen::synthetic(gen::Case::Case2);
//! let report = run_hil(&trace, HilMode::HwOnly, &HilConfig::balanced(12))?;
//! let m = report.synthetic_metrics(trace.stats().avg_deps());
//! assert!(m.l1st > 0); // paper: 73 cycles
//! # Ok::<(), picos_hil::HilError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod metrics;
mod modes;
mod pool;

pub use cost::{HilCostModel, LinkModel};
pub use metrics::SyntheticMetrics;
pub use modes::{run_hil, run_hil_with_stats, HilConfig, HilError, HilMode, HilSession};
pub use pool::{Link, Workers};
