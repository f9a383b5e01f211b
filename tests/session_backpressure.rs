//! Backpressure properties of the streaming-session API.
//!
//! The in-flight window is the session analogue of the paper's full-TRS
//! stall: when the admitted-but-unfinished population reaches the window,
//! `submit` must return `Backpressured` — exactly then, for every backend
//! family — and riding out backpressure with `step` must never lose a
//! task, even when the Picos core itself is squeezed down to a tiny
//! TM/TRS capacity underneath.

use picos_repro::prelude::*;
use picos_repro::trace::KernelClass;

/// Greedy windowed driver that checks the admission invariant at every
/// submission and returns how many submissions were backpressured.
fn drive_checked(backend: &dyn ExecBackend, trace: &Trace, window: usize) -> (ExecReport, u64) {
    let mut s = backend.open_with(SessionConfig::windowed(window)).unwrap();
    let mut backpressured = 0u64;
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        loop {
            let saturated = s.in_flight() >= window;
            match s.submit(task) {
                Admission::Accepted => {
                    assert!(
                        !saturated,
                        "{}: accepted while window full ({} in flight)",
                        backend.name(),
                        s.in_flight()
                    );
                    break;
                }
                Admission::Backpressured => {
                    assert!(
                        saturated,
                        "{}: backpressured below the window ({} in flight < {window})",
                        backend.name(),
                        s.in_flight()
                    );
                    backpressured += 1;
                    assert!(s.step(), "{}: blocked session must drain", backend.name());
                }
            }
        }
        assert!(s.in_flight() <= window, "{}", backend.name());
    }
    let (r, _) = s.finish().unwrap();
    (r, backpressured)
}

#[test]
fn submit_backpressures_exactly_at_the_window_on_every_backend() {
    let trace = gen::synthetic(gen::Case::Case2);
    for spec in BackendSpec::ALL {
        for window in [1usize, 3, 16] {
            let backend = spec.builder(4).build();
            let (r, backpressured) = drive_checked(&*backend, &trace, window);
            assert_eq!(
                r.order.len(),
                trace.len(),
                "{spec} window {window}: tasks were dropped"
            );
            r.validate(&trace).unwrap();
            if window < trace.len() {
                assert!(
                    backpressured > 0,
                    "{spec} window {window}: a window below the task count must push back"
                );
            }
        }
    }
}

#[test]
fn tiny_tm_capacity_backpressures_but_never_drops() {
    // Squeeze the core: a TM with very few entries forces the GW to stall
    // accepting tasks (the paper's full-TRS condition) while the session
    // window throttles the client above it. Everything must still finish.
    let mut cfg = PicosConfig::balanced();
    cfg.tm_entries = 4;
    let mut trace = Trace::new("tm-squeeze");
    for i in 0..400u64 {
        trace.push(
            KernelClass::GENERIC,
            [Dependence::inout(0x1000 + (i % 16) * 0x40)],
            300,
        );
    }
    for spec in [
        BackendSpec::Picos(picos_repro::hil::HilMode::HwOnly),
        BackendSpec::Cluster(2),
    ] {
        let backend = spec.builder(4).picos(&cfg).build();
        let (r, backpressured) = drive_checked(&*backend, &trace, 8);
        assert_eq!(r.order.len(), 400, "{spec}: tasks were dropped");
        r.validate(&trace).unwrap();
        assert!(backpressured > 0, "{spec}: 8-task window must push back");
        // The hardware stall is visible in the counters too.
        let stats = backend.run(&trace, SessionConfig::batch()).unwrap().stats;
        let stats = stats.unwrap();
        assert!(
            stats.tm_stalls > 0,
            "{spec}: a 4-entry TM must stall the gateway"
        );
    }
}

#[test]
fn window_one_serializes_admission() {
    // The tightest window: at most one task in flight; the session
    // degenerates to closed-loop submit-wait-complete.
    let trace = gen::synthetic(gen::Case::Case1);
    let backend = BackendSpec::Perfect.builder(8).build();
    let mut s = backend.open_with(SessionConfig::windowed(1)).unwrap();
    for task in trace.iter() {
        loop {
            match s.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => {
                    assert_eq!(s.in_flight(), 1);
                    assert!(s.step());
                }
            }
        }
    }
    let (r, _) = s.finish().unwrap();
    assert_eq!(r.order.len(), trace.len());
    // One at a time: tasks execute back to back, no overlap.
    assert_eq!(r.makespan, trace.sequential_time());
}

#[test]
fn settling_progress_that_frees_the_window_is_not_a_stall() {
    // Regression: with zero dispatch cost and zero-duration tasks, a task
    // started in one pump completes at the same cycle; the step() that
    // settles it frees the window and must count as progress — callers
    // treat false as a terminal stall (FeedStall / "paced driver
    // stalled").
    let mut trace = Trace::new("zero-cycle");
    for _ in 0..20 {
        trace.push(KernelClass::GENERIC, [], 0);
    }
    let mut hil_cfg = picos_repro::hil::HilConfig::balanced(1);
    hil_cfg.cost.dispatch = 0;
    let backend = picos_repro::backend::PicosBackend {
        mode: picos_repro::hil::HilMode::HwOnly,
        cfg: hil_cfg,
    };
    let mut s = backend.open_with(SessionConfig::windowed(1)).unwrap();
    feed_trace(&mut *s, &trace).expect("no spurious FeedStall");
    let (r, _) = s.finish().unwrap();
    assert_eq!(r.order.len(), 20);
}

#[test]
fn tiny_windows_coexist_with_taskwaits() {
    // A 1-task window across taskwait boundaries: admitted tasks always
    // drain (in-flight work produces events), so even the tightest window
    // completes barriered traces through the standard feed helper.
    let mut trace = Trace::new("undersized-window");
    let k = KernelClass::GENERIC;
    trace.push(k, [], 100);
    trace.push(k, [], 100);
    trace.push_taskwait();
    trace.push(k, [], 100);
    for spec in BackendSpec::ALL {
        let backend = spec.builder(4).build();
        let mut s = backend.open_with(SessionConfig::windowed(1)).unwrap();
        feed_trace(&mut *s, &trace).unwrap();
        let (r, _) = s.finish().unwrap();
        assert_eq!(r.order.len(), 3, "{spec}");
        r.validate(&trace).unwrap();
    }
}
