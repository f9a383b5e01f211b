//! `picos-serve` — the multi-tenant simulation service: thousands of live
//! journaled sessions multiplexed behind one deterministic fair scheduler.
//!
//! The paper's Picos is an online device serving a stream of task
//! submissions; this crate is the layer that serves *many users at once*
//! from a single process. A [`Service`] owns a registry of named tenants
//! — each an independent streaming session over any
//! [`BackendSpec`](picos_backend::BackendSpec), with its own window,
//! admission quota and journal — and multiplexes simulation progress with
//! a round-robin `step()` budget ([`Service::run_round`]). The session
//! invariant that `step` never moves the clock unless the session is
//! ingest-blocked makes the multiplexing invisible: every tenant's final
//! report is bit-identical to the same feed run solo, for any
//! interleaving (pinned by `tests/serve_conformance.rs`).
//!
//! Three layers, smallest first:
//!
//! * [`Service`] — the typed in-process API: `open` / `submit` /
//!   `barrier` / `advance_to` / `drain_events` / `stats` / `close`, the
//!   scheduler (`run_round` / `run_until_idle`), the metrics scrape
//!   ([`Service::scrape`]) and journal persistence + crash recovery
//!   ([`Service::flush_journals`], [`Service::new`]).
//! * [`ServeHandle`] ([`proto`]) — the line-delimited JSON protocol
//!   executed in-process: what the wire speaks, minus the socket.
//! * [`serve`] / [`serve_on`] ([`server`]) — the std-only nonblocking TCP
//!   front end with graceful shutdown (close listener, finish in-flight
//!   steps, flush journals).
//!
//! # Example
//!
//! ```
//! use picos_backend::BackendSpec;
//! use picos_serve::{ServeConfig, Service, SubmitOutcome, TenantSpec};
//! use picos_trace::gen;
//!
//! let mut svc = Service::new(ServeConfig::default()).unwrap();
//! svc.open("alice", &TenantSpec::new(BackendSpec::Perfect, 4)).unwrap();
//! svc.open("bob", &TenantSpec::new(BackendSpec::Nanos, 4)).unwrap();
//! let trace = gen::stream(gen::StreamConfig::heavy(20));
//! for task in trace.iter() {
//!     assert_eq!(svc.submit("alice", task).unwrap(), SubmitOutcome::Accepted);
//! }
//! svc.run_until_idle();
//! let out = svc.close("alice").unwrap();
//! assert_eq!(out.report.order.len(), trace.len());
//! assert!(svc.contains("bob"), "one tenant's close leaves the other live");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod proto;
pub mod server;
pub mod service;

pub use proto::{parse_response, Request, Response, ServeHandle};
pub use server::{serve, serve_on, ServerHandle, MAX_LINE_BYTES};
pub use service::{
    schedule_digest, Scrape, ServeConfig, ServeError, Service, SubmitOutcome, TenantSpec,
    TenantStats,
};
