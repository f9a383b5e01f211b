//! Software execution engines for the Picos reproduction.
//!
//! Two baselines from the paper's evaluation live here:
//!
//! * [`SoftwareSession`] — a discrete-event model of the **Nanos++**
//!   software-only runtime: serial task creation/submission with the
//!   measured overhead magnitudes of the paper's Figure 10, a contended
//!   scheduler lock, and the real dependence-analysis algorithm
//!   ([`SoftwareDeps`]).
//! * [`PerfectSession`] — the **Perfect Simulator**: zero-overhead list
//!   scheduling, giving the roofline speedup of each application.
//!
//! Both engines are incremental streaming sessions: open one, feed it a
//! trace ([`feed_trace`]) or submit tasks one by one, and finish it with
//! its `into_output`. This crate also hosts the session vocabulary every
//! engine shares ([`SessionCore`], [`Admission`], [`SimEvent`],
//! [`SessionConfig`], [`feed_trace`], [`feed_range`]) — see the
//! [`session`] module for the timing semantics.
//!
//! # Quick example
//!
//! ```
//! use picos_runtime::{
//!     feed_trace, PerfectSession, SessionConfig, SoftwareSession, SwRuntimeConfig,
//! };
//! use picos_trace::gen;
//!
//! let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
//!
//! let mut perfect = PerfectSession::new(12, SessionConfig::batch())?;
//! feed_trace(&mut perfect, &trace)?;
//! let (roofline, _spans) = perfect.into_output();
//!
//! let nanos_cfg = SwRuntimeConfig::with_workers(12);
//! let mut nanos = SoftwareSession::new(nanos_cfg, SessionConfig::batch())?;
//! feed_trace(&mut nanos, &trace)?;
//! let (nanos, _spans) = nanos.into_output()?;
//!
//! assert!(roofline.speedup() >= nanos.speedup());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod depmap;
mod journal;
pub mod par;
mod perfect;
mod report;
pub mod session;
mod simrt;
pub mod snap;

pub use cost::NanosCostModel;
pub use depmap::SoftwareDeps;
pub use journal::{replay_journal, replay_journal_tail, JournaledSession};
pub use perfect::PerfectSession;
pub use report::ExecReport;
pub use session::{
    feed_range, feed_trace, Admission, EventLoopCore, FeedStall, SessionConfig, SessionCore,
    SimEvent,
};
pub use simrt::{SoftwareSession, SwError, SwRuntimeConfig};
