//! Fault-layer and session-journal conformance pins.
//!
//! Two bit-identity contracts guard the fault subsystem:
//!
//! * **Zero-fault identity** — attaching a [`FaultPlan`] that can inject
//!   nothing must leave every observable of a cluster run untouched:
//!   makespan, execution order, per-task start/end times, hardware
//!   counters, telemetry timelines and the metrics registry, on every
//!   golden workload, DM design and simulation thread count.
//! * **Journal-replay identity** — replaying a [`SessionJournal`] recorded
//!   from a session's *accepted* ingest stream into a fresh session must
//!   reproduce the original run bit-for-bit: for batch feeds, for random
//!   step/drain/advance interleavings, and for the crash-recovery shape
//!   (replay the journal, then keep feeding live).
//!
//! Faulted runs themselves are pinned on determinism — the same plan over
//! the same trace twice gives identical schedules, counters and errors —
//! and on engine identity: the epoch engine at any thread count
//! reproduces the serial pump's whole output under random active plans,
//! in batch and windowed drives and across snapshots.

use picos_backend::{feed_trace, Admission, BackendSpec, SessionConfig, SessionCore, SimEvent};
use picos_cluster::{ClusterConfig, ClusterError, ClusterOutput, ClusterSession, FaultPlan};
use picos_core::{DmDesign, PicosConfig, Stats};
use picos_runtime::{replay_journal, ExecReport, JournaledSession};
use picos_trace::rng::SplitMix64;
use picos_trace::{gen, SessionJournal, Trace};

const WORKERS: usize = 12;

/// Batch-runs a trace through a cluster session, keeping each shard's
/// hardware counters.
fn cluster_run(
    trace: &Trace,
    cfg: &ClusterConfig,
) -> Result<(ExecReport, Vec<Stats>), ClusterError> {
    let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch())?;
    feed_trace(&mut s, trace).unwrap();
    s.into_output().map(|(r, per_shard, ..)| (r, per_shard))
}

/// Every workload the golden-timing suite pins, plus the stream generator
/// (same set as `tests/cluster_conformance.rs`).
fn golden_workloads() -> Vec<(String, Trace)> {
    let mut out: Vec<(String, Trace)> = gen::Case::ALL
        .into_iter()
        .map(|c| (format!("{c:?}"), gen::synthetic(c)))
        .collect();
    out.push((
        "cholesky256".into(),
        gen::cholesky(gen::CholeskyConfig::paper(256)),
    ));
    out.push((
        "sparselu128".into(),
        gen::sparselu(gen::SparseLuConfig::paper(128)),
    ));
    out.push(("stream".into(), gen::stream(gen::StreamConfig::heavy(400))));
    out
}

/// Thread counts the pins run at; `CLUSTER_TEST_THREADS=2,8` narrows the
/// sweep (CI re-runs the suite that way under
/// `PICOS_CLUSTER_FORCE_THREADS=1`, which puts the lanes on real OS
/// threads).
fn test_thread_counts() -> Vec<usize> {
    match std::env::var("CLUSTER_TEST_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CLUSTER_TEST_THREADS: bad count"))
            .collect(),
        Err(_) => (1..=8).collect(),
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    // The serial plan-free run is the single reference; zero-fault runs at
    // every thread count must match it exactly (parallel == serial is
    // already pinned by cluster_conformance, so one reference suffices).
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(8, WORKERS)
            };
            let (base, base_stats) = cluster_run(&trace, &cfg).expect("plain run completes");
            for threads in test_thread_counts() {
                let faulted_cfg = cfg
                    .clone()
                    .with_threads(threads)
                    .with_faults(FaultPlan::new(0xD15EA5E));
                let (r, stats) = cluster_run(&trace, &faulted_cfg)
                    .unwrap_or_else(|e| panic!("{label} {dm} t{threads}: {e}"));
                assert_eq!(
                    r.makespan, base.makespan,
                    "{label} {dm} t{threads}: makespan drifted"
                );
                assert_eq!(
                    r.order, base.order,
                    "{label} {dm} t{threads}: order drifted"
                );
                assert_eq!(
                    r.start, base.start,
                    "{label} {dm} t{threads}: start times drifted"
                );
                assert_eq!(
                    r.end, base.end,
                    "{label} {dm} t{threads}: end times drifted"
                );
                assert_eq!(
                    stats, base_stats,
                    "{label} {dm} t{threads}: hardware counters drifted"
                );
            }
        }
    }
}

#[test]
fn fault_telemetry_is_gated_on_active_plans() {
    // A zero-fault plan must be invisible in telemetry too: identical
    // timeline and metrics, no faults.* series. An active plan registers
    // the full faults.* scope.
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let run = |faults: Option<FaultPlan>| {
        let cfg = SessionConfig {
            timeline_window: Some(2_000),
            ..SessionConfig::batch()
        };
        BackendSpec::Cluster(4)
            .builder(8)
            .faults(faults)
            .build()
            .run(&trace, cfg)
            .expect("cluster completes")
    };
    let plain = run(None);
    let zero = run(Some(FaultPlan::new(9)));
    assert_eq!(
        zero, plain,
        "zero-fault output must be identical to no plan"
    );
    let plain_tl = plain.timeline.as_ref().expect("timeline requested");
    assert!(
        plain_tl.series_index("faults.drops").is_none(),
        "fault-free runs register no faults.* series"
    );

    let lossy = run(Some(FaultPlan::new(9).with_drop_rate(0.05)));
    let tl = lossy.timeline.as_ref().expect("timeline requested");
    for name in [
        "faults.drops",
        "faults.retries",
        "faults.redeliveries",
        "faults.recoveries",
    ] {
        assert!(
            tl.series_index(name).is_some(),
            "{name} series missing from a lossy run's timeline"
        );
    }
    assert!(
        lossy.metrics.value("faults.drops").is_some(),
        "lossy runs report fault counters"
    );
}

#[test]
fn faulted_runs_are_deterministic_and_counted() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let plan = FaultPlan::new(41)
        .with_drop_rate(0.08)
        .with_dup_rate(0.05)
        .with_jitter(0.2, 24);
    let cfg = ClusterConfig::balanced(4, 8).with_faults(plan);
    let run = || {
        let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch()).expect("valid config");
        feed_trace(&mut s, &trace).expect("batch window cannot stall");
        s.into_output()
    };
    match (run(), run()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "same plan, same trace: outputs must be identical");
            let counters = a.3.expect("active plans report counters");
            assert!(counters.drops > 0, "an 8% drop rate must drop something");
            a.0.validate(&trace).expect("faulted schedule stays legal");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "errors must repeat");
        }
        (a, b) => panic!("nondeterministic outcome: {a:?} vs {b:?}"),
    }
}

/// Shards of the engine-identity cluster: two workers each, so a
/// fail-stop fault always leaves one.
const ID_SHARDS: usize = 8;

/// A seeded random active plan, drawn like
/// `capacity_and_failure::random_fault_plans_always_terminate`: drop,
/// duplication and jitter rates, a tight timeout and retry budget, maybe a
/// pause window and a few worker faults.
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(0x5EED_FA17 ^ seed);
    let mut plan = FaultPlan::new(rng.next_u64())
        .with_drop_rate(rng.f64() * 0.3)
        .with_dup_rate(rng.f64() * 0.3)
        .with_jitter(rng.f64() * 0.5, rng.range_u64(1, 64))
        .with_link_timeout(rng.range_u64(32, 2048))
        .with_max_retries(rng.range_u64(1, 6) as u32);
    if rng.bool(0.7) {
        let at = rng.range_u64(0, 20_000);
        let shard = rng.range_u64(0, ID_SHARDS as u64 - 1) as u16;
        plan = plan.with_pause(shard, at, at + rng.range_u64(1, 20_000));
    }
    for shard in 0..ID_SHARDS as u16 {
        if rng.bool(0.3) {
            plan = plan.with_worker_fault(shard, rng.range_u64(0, 10_000));
        }
    }
    plan
}

/// The identity pins' plans: random active ones plus a jitter-only plan,
/// which never engages the ack/retry tables (the untracked send path).
fn identity_plans() -> Vec<FaultPlan> {
    let mut plans: Vec<FaultPlan> = (0..6).map(random_plan).collect();
    plans.push(FaultPlan::new(77).with_jitter(0.4, 32));
    plans
}

/// The identity pins' input for plan `i`: random graphs and the
/// message-heavy stream generator, alternately.
fn identity_trace(i: usize) -> Trace {
    if i.is_multiple_of(2) {
        gen::random_trace(gen::RandomConfig::default(), i as u64)
    } else {
        gen::stream(gen::StreamConfig::heavy(300))
    }
}

/// Spans in canonical order: serial and parallel drives record the same
/// multiset in different interleavings.
fn canonical(mut out: Result<ClusterOutput, ClusterError>) -> Result<ClusterOutput, ClusterError> {
    if let Ok((.., Some(spans))) = out.as_mut() {
        spans.canonical_sort();
    }
    out
}

type Drive = (Result<ClusterOutput, ClusterError>, Vec<SimEvent>);

/// The batch drive with every observer on: the whole trace admitted at
/// once, then bounded advances (draining events) until nothing is in
/// flight or the clock passes a cap (an exhausted retry budget leaves
/// tasks in flight forever), then the unbounded finish.
fn batch_drive(trace: &Trace, cfg: &ClusterConfig) -> Drive {
    let scfg = SessionConfig {
        collect_events: true,
        ..SessionConfig::batch().with_timeline(256).with_spans()
    };
    let mut s = ClusterSession::new(cfg.clone(), scfg).expect("valid config");
    feed_trace(&mut s, trace).expect("batch window cannot stall");
    let mut events = Vec::new();
    while s.in_flight() > 0 && s.now() < 1_000_000 {
        s.advance_to(s.now() + 7_919);
        s.drain_events(&mut events);
    }
    (canonical(s.into_output()), events)
}

/// Feeds `tasks` through `submit`/`step` with an occasional bounded
/// advance, draining events as it goes. Stops early when a backpressured
/// session cannot progress (a retry budget ran out).
fn windowed_feed(
    s: &mut ClusterSession,
    tasks: &[&picos_trace::TaskDescriptor],
    events: &mut Vec<SimEvent>,
) {
    for (i, task) in tasks.iter().enumerate() {
        while s.submit(task) == Admission::Backpressured {
            if !s.step() {
                return;
            }
        }
        if i.is_multiple_of(23) {
            s.advance_to(s.now() + 600);
        }
        s.drain_events(events);
    }
}

/// The streaming drive: a 16-task window fed through `submit`/`step`.
fn windowed_drive(trace: &Trace, cfg: &ClusterConfig) -> Drive {
    let scfg = SessionConfig {
        collect_events: true,
        ..SessionConfig::windowed(16)
    };
    let mut s = ClusterSession::new(cfg.clone(), scfg).expect("valid config");
    let tasks: Vec<_> = trace.iter().collect();
    let mut events = Vec::new();
    windowed_feed(&mut s, &tasks, &mut events);
    (canonical(s.into_output()), events)
}

#[test]
fn faulted_epoch_engine_is_bit_identical_to_serial() {
    // The serial pump at one thread is the reference; the epoch engine
    // must reproduce its whole output — report, counters, timeline, fault
    // counters, spans — and its event stream, or fail with the same typed
    // error. Under CLUSTER_TEST_THREADS the engine runs on exactly those
    // thread counts (CI forces real OS threads that way).
    let threads: Vec<usize> = match std::env::var("CLUSTER_TEST_THREADS") {
        Ok(_) => test_thread_counts(),
        Err(_) => vec![2, 4],
    };
    let mut injected = picos_cluster::FaultCounters::default();
    for (i, plan) in identity_plans().into_iter().enumerate() {
        let trace = identity_trace(i);
        let cfg = ClusterConfig::balanced(ID_SHARDS, 2 * ID_SHARDS).with_faults(plan.clone());
        for (name, drive) in [
            ("batch", batch_drive as fn(&Trace, &ClusterConfig) -> Drive),
            ("windowed", windowed_drive),
        ] {
            let serial = drive(&trace, &cfg);
            if let Ok((.., counters, _)) = &serial.0 {
                let c = counters.expect("active plans report counters");
                injected.drops += c.drops;
                injected.redeliveries += c.redeliveries;
                injected.recoveries += c.recoveries;
            }
            for &t in &threads {
                let par = drive(&trace, &cfg.clone().with_threads(t));
                assert!(
                    par.0 == serial.0,
                    "plan {i} ({plan:?}) {name} t{t}: output differs from serial"
                );
                assert!(
                    par.1 == serial.1,
                    "plan {i} {name} t{t}: event stream differs from serial"
                );
            }
        }
    }
    assert!(
        injected.drops > 0 && injected.redeliveries > 0 && injected.recoveries > 0,
        "the plans must drop, redeliver and recover for this to test anything: {injected:?}"
    );
}

#[test]
fn faulted_snapshot_from_threads_restores_on_one_thread() {
    let trace = gen::stream(gen::StreamConfig::heavy(300));
    let tasks: Vec<_> = trace.iter().collect();
    let (first, rest) = tasks.split_at(tasks.len() / 2);
    let plan = FaultPlan::new(11)
        .with_drop_rate(0.05)
        .with_dup_rate(0.05)
        .with_jitter(0.2, 8)
        .with_pause(1, 400, 900)
        .with_worker_fault(0, 700);
    let cfg = ClusterConfig::balanced(ID_SHARDS, 2 * ID_SHARDS).with_faults(plan);
    let scfg = SessionConfig::windowed(16).with_timeline(64).with_spans();
    let par_cfg = cfg.clone().with_threads(4);
    let mut events = Vec::new();

    let mut live = ClusterSession::new(par_cfg.clone(), scfg).expect("valid config");
    windowed_feed(&mut live, first, &mut events);
    live.advance_to(live.now() + 1_000);
    let text = picos_trace::snap::value_to_json(&live.save_state());
    let snap = picos_trace::snap::value_from_json(&text).expect("codec roundtrips");

    let mut restored = ClusterSession::new(cfg, scfg).expect("valid config");
    restored.load_state(&snap).expect("snapshot restores");
    windowed_feed(&mut live, rest, &mut events);
    windowed_feed(&mut restored, rest, &mut events);
    let a = canonical(live.into_output());
    let b = canonical(restored.into_output());
    assert!(
        a == b,
        "restored serial run differs from the threaded original"
    );
    let c = a
        .expect("the plan's budget suffices")
        .3
        .expect("active plan");
    assert!(
        c.drops + c.retries + c.redeliveries + c.recoveries > 0,
        "the plan must actually inject faults for this to test anything"
    );
}

/// A fresh 4-shard cluster session for the journal pins.
fn cluster_session(cfg: SessionConfig) -> ClusterSession {
    ClusterSession::new(ClusterConfig::balanced(4, 8), cfg).expect("valid config")
}

#[test]
fn journal_replay_reproduces_batch_feeds_bit_exactly() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let mut s = JournaledSession::new(cluster_session(SessionConfig::batch()));
    feed_trace(&mut s, &trace).expect("batch window cannot stall");
    let (inner, journal) = s.into_parts();
    let original = inner.into_output().expect("original completes");
    let mut fresh = cluster_session(SessionConfig::batch());
    replay_journal(&mut fresh, &journal).expect("replay cannot stall");
    let replayed = fresh.into_output().expect("replay completes");
    assert_eq!(replayed, original, "batch replay drifted");
}

#[test]
fn journal_replay_reproduces_random_interleavings_bit_exactly() {
    // The journal records only accepted submits, barriers and advances —
    // no step calls. Replay must still reproduce the run exactly, for any
    // interleaving of voluntary steps and idle advances in the original.
    let trace = gen::stream(gen::StreamConfig::heavy(300));
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(0x10AD ^ seed);
        let mut s = JournaledSession::new(cluster_session(SessionConfig::windowed(8)));
        for task in trace.iter() {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "seed {seed}: session stalled");
            }
            if rng.bool(0.3) {
                s.step();
            }
            if rng.bool(0.1) {
                let target = s.now() + rng.range_u64(1, 5_000);
                s.advance_to(target);
            }
            if rng.bool(0.05) {
                s.barrier();
            }
        }
        let (inner, journal) = s.into_parts();
        let original = inner.into_output().expect("original completes");
        // Roundtrip through the JSON codec: recovery reads a journal file.
        let journal = SessionJournal::from_json(&journal.to_json()).expect("codec roundtrips");
        let mut fresh = cluster_session(SessionConfig::windowed(8));
        replay_journal(&mut fresh, &journal).expect("replay cannot stall");
        let replayed = fresh.into_output().expect("replay completes");
        assert_eq!(replayed.0, original.0, "seed {seed}: report drifted");
        assert_eq!(replayed.1, original.1, "seed {seed}: stats drifted");
    }
}

#[test]
fn crash_recovery_replays_then_continues_live() {
    // The recovery shape: a client crashes mid-stream, a fresh session
    // replays the journal, and the producer keeps feeding where it left
    // off. The stitched run must equal one uninterrupted session.
    let trace = gen::stream(gen::StreamConfig::heavy(300));
    let tasks: Vec<_> = trace.iter().collect();
    let half = tasks.len() / 2;

    let drive_first_half = |s: &mut dyn SessionCore, rng: &mut SplitMix64| {
        for task in &tasks[..half] {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "session stalled");
            }
            if rng.bool(0.25) {
                s.step();
            }
        }
    };
    let drive_second_half = |s: &mut dyn SessionCore| {
        for task in &tasks[half..] {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "session stalled");
            }
        }
    };

    // Reference: one uninterrupted session.
    let mut reference = cluster_session(SessionConfig::windowed(8));
    let mut rng = SplitMix64::new(7);
    drive_first_half(&mut reference, &mut rng);
    drive_second_half(&mut reference);
    let expect = reference.into_output().expect("reference completes");

    // Crash after the first half: only the serialized journal survives.
    let mut rng = SplitMix64::new(7);
    let mut s = JournaledSession::new(cluster_session(SessionConfig::windowed(8)));
    drive_first_half(&mut s, &mut rng);
    let (_lost_session, journal) = s.into_parts();
    let journal = SessionJournal::from_json(&journal.to_json()).expect("codec roundtrips");

    let mut recovered = cluster_session(SessionConfig::windowed(8));
    replay_journal(&mut recovered, &journal).expect("replay cannot stall");
    drive_second_half(&mut recovered);
    let got = recovered.into_output().expect("recovered run completes");
    assert_eq!(got.0, expect.0, "recovered schedule drifted");
    assert_eq!(got.1, expect.1, "recovered counters drifted");
}
