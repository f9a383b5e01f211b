//! Session conformance: streaming execution is bit-exact with batch.
//!
//! For every backend family × every synthetic testcase plus the Cholesky
//! and SparseLU applications, a session driven one task at a time — and
//! one driven with a random interleaving of submits, steps and event
//! drains — must reproduce the batch `run` result exactly:
//! makespan, schedule order, per-task start/end times and hardware
//! counters. This pins the core promise of the session API: submission
//! call patterns never perturb the simulation, because the engine's own
//! timing model (not the client's call clock) decides when tasks are
//! created, and `step` refuses to run ahead of an open input stream.

use picos_repro::prelude::*;
use picos_trace::rng::SplitMix64;

/// The conformance workloads: all seven synthetic cases plus the two
/// paper applications named by the roadmap issue.
fn workloads() -> Vec<Trace> {
    let mut out: Vec<Trace> = gen::Case::ALL.into_iter().map(gen::synthetic).collect();
    out.push(gen::cholesky(gen::CholeskyConfig::paper(128)));
    out.push(gen::sparselu(gen::SparseLuConfig::paper(128)));
    out
}

/// The batch run's schedule and hardware counters.
fn run_batch(
    backend: &dyn ExecBackend,
    trace: &Trace,
) -> (ExecReport, Option<picos_repro::core::Stats>) {
    let out = backend.run(trace, SessionConfig::batch()).unwrap();
    (out.report, out.stats)
}

/// Feeds the trace one task at a time, declaring barriers, stepping on
/// backpressure — the canonical streaming client.
fn drive_one_at_a_time(
    backend: &dyn ExecBackend,
    trace: &Trace,
) -> (ExecReport, Option<picos_repro::core::Stats>) {
    let mut s = backend.open_with(SessionConfig::batch()).unwrap();
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        loop {
            match s.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => assert!(s.step(), "must drain"),
            }
        }
    }
    s.finish().unwrap()
}

/// Feeds the trace with a seeded random interleaving of submits, steps
/// and event drains. Steps while the session is open and unblocked are
/// no-ops by contract, which is exactly what keeps this bit-exact.
fn drive_randomly(
    backend: &dyn ExecBackend,
    trace: &Trace,
    seed: u64,
) -> (ExecReport, Option<picos_repro::core::Stats>) {
    let mut rng = SplitMix64::new(seed);
    let mut s = backend
        .open_with(SessionConfig {
            collect_events: true,
            ..SessionConfig::batch()
        })
        .unwrap();
    let mut events = Vec::new();
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        // Interleave a random burst of steps and event drains between
        // submissions (steps are no-ops while the session is open and
        // unblocked — that contract is what keeps this bit-exact).
        for _ in 0..rng.below(4) {
            if rng.below(2) == 0 {
                s.step();
            } else {
                s.drain_events(&mut events);
            }
        }
        loop {
            match s.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => assert!(s.step(), "must drain"),
            }
        }
    }
    s.drain_events(&mut events);
    s.finish().unwrap()
}

#[test]
fn one_at_a_time_sessions_are_bit_exact_with_batch() {
    for trace in workloads() {
        for spec in BackendSpec::ALL {
            let backend = spec.builder(8).build();
            let batch = run_batch(&*backend, &trace);
            let streamed = drive_one_at_a_time(&*backend, &trace);
            assert_eq!(
                batch, streamed,
                "{spec} on {}: streaming diverged from batch",
                trace.name
            );
        }
    }
}

#[test]
fn random_interleavings_are_bit_exact_with_batch() {
    for trace in workloads() {
        for spec in BackendSpec::ALL {
            let backend = spec.builder(8).build();
            let batch = run_batch(&*backend, &trace);
            for seed in [0x5EED, 0xD1CE] {
                let streamed = drive_randomly(&*backend, &trace, seed);
                assert_eq!(
                    batch, streamed,
                    "{spec} on {} seed {seed:#x}: random interleaving diverged",
                    trace.name
                );
            }
        }
    }
}

#[test]
fn parallel_cluster_sessions_are_bit_exact_with_serial_batch() {
    // The conservative-parallel cluster engine under every session call
    // pattern, compared against the *serial* engine's batch result: this
    // pins session bit-exactness and parallel==serial in one assertion.
    // (Feeds still admit through the serial path; the epoch engine takes
    // over once the input stream closes or the session jumps time.)
    for trace in workloads() {
        let serial = run_batch(&*BackendSpec::Cluster(4).builder(8).build(), &trace);
        for threads in [2usize, 4] {
            let backend = BackendSpec::Cluster(4)
                .builder(8)
                .picos(&PicosConfig::balanced())
                .threads(Some(threads))
                .build();
            let streamed = drive_one_at_a_time(&*backend, &trace);
            assert_eq!(
                serial, streamed,
                "cluster t{threads} on {}: one-at-a-time diverged from serial batch",
                trace.name
            );
            for seed in [0x5EED, 0xD1CE] {
                let streamed = drive_randomly(&*backend, &trace, seed);
                assert_eq!(
                    serial, streamed,
                    "cluster t{threads} on {} seed {seed:#x}: random interleaving \
                     diverged from serial batch",
                    trace.name
                );
            }
        }
    }
}

#[test]
fn batch_default_methods_agree_with_each_other() {
    // The one batch entry point reports the same schedule and counters
    // under every observation knob, for every family.
    let trace = gen::synthetic(gen::Case::Case4);
    for spec in BackendSpec::ALL {
        let backend = spec.builder(6).build();
        let plain = run_batch(&*backend, &trace);
        for cfg in [
            SessionConfig::batch().with_timeline(500),
            SessionConfig::batch().with_spans(),
        ] {
            let observed = backend.run(&trace, cfg).unwrap();
            assert_eq!(plain, (observed.report, observed.stats), "{spec}");
        }
    }
}

#[test]
fn open_sessions_hold_time_while_unblocked() {
    // The mechanism behind bit-exactness: an open, unblocked session never
    // advances its clock on step(), for every backend family.
    let trace = gen::synthetic(gen::Case::Case1);
    for spec in BackendSpec::ALL {
        let backend = spec.builder(4).build();
        let mut s = backend.open_with(SessionConfig::batch()).unwrap();
        for task in trace.iter().take(10) {
            assert_eq!(s.submit(task), Admission::Accepted, "{spec}");
            assert!(!s.step(), "{spec}: open unblocked session must hold");
            assert_eq!(s.now(), 0, "{spec}: clock moved while open");
        }
        let (r, _) = s.finish().unwrap();
        assert_eq!(r.order.len(), 10, "{spec}");
    }
}

#[test]
fn taskwait_traces_stream_bit_exact() {
    // Barrier declarations through the session API must reproduce the
    // trace's creation-gating exactly.
    let mut tr = Trace::new("barriered");
    let k = picos_repro::trace::KernelClass::GENERIC;
    for i in 0..30u64 {
        tr.push(k, [Dependence::inout(0x4000 + (i % 7) * 0x40)], 200);
    }
    tr.push_taskwait();
    for i in 0..30u64 {
        tr.push(k, [Dependence::inout(0x8000 + (i % 5) * 0x40)], 150);
    }
    tr.push_taskwait();
    for _ in 0..10u64 {
        tr.push(k, [], 75);
    }
    for spec in BackendSpec::ALL {
        let backend = spec.builder(4).build();
        let batch = run_batch(&*backend, &tr);
        let streamed = drive_one_at_a_time(&*backend, &tr);
        assert_eq!(batch, streamed, "{spec}");
        batch.0.validate(&tr).unwrap();
    }
}

#[test]
fn events_describe_the_reported_schedule() {
    // Event streams are a faithful narration of the report: one start and
    // one finish per task, at the report's recorded cycles.
    let trace = gen::synthetic(gen::Case::Case3);
    for spec in BackendSpec::ALL {
        let backend = spec.builder(8).build();
        let mut s = backend
            .open_with(SessionConfig {
                collect_events: true,
                ..SessionConfig::batch()
            })
            .unwrap();
        feed_trace(&mut *s, &trace).unwrap();
        // Events materialize as the session runs; drain after advancing
        // far past the makespan, then finish.
        s.advance_to(1 << 40);
        let mut events = Vec::new();
        s.drain_events(&mut events);
        let (r, _) = s.finish().unwrap();
        let mut starts = vec![None; trace.len()];
        let mut finishes = vec![None; trace.len()];
        for e in &events {
            match *e {
                SimEvent::TaskStarted { task, at } => starts[task as usize] = Some(at),
                SimEvent::TaskFinished { task, at } => finishes[task as usize] = Some(at),
                SimEvent::ShardMsg { .. } => {}
            }
        }
        for i in 0..trace.len() {
            assert_eq!(starts[i], Some(r.start[i]), "{spec} task {i} start");
            assert_eq!(finishes[i], Some(r.end[i]), "{spec} task {i} end");
        }
    }
}
