//! Cluster conformance suite (extends the `golden_timing` pattern).
//!
//! The load-bearing pin: a **one-shard cluster is cycle-identical to
//! `HilMode::HwOnly`** — same makespan, same per-task start/end times, same
//! execution order, and the same hardware counters — on every synthetic
//! testcase and the golden cholesky/sparselu workloads, across all three
//! DM designs. Any drift in either driver breaks this suite loudly.
//!
//! Multi-shard runs cannot be cycle-compared against anything, so they are
//! pinned on the invariants that must hold for *any* shard count:
//! TaskGraph-order legality, completeness, and determinism.

use picos_backend::{feed_trace, BackendSpec, ExecBackend, PicosBackend, SessionConfig};
use picos_cluster::{ClusterConfig, ClusterError, ClusterSession, ShardPolicy};
use picos_core::{DmDesign, PicosConfig, Stats};
use picos_hil::{HilConfig, HilMode};
use picos_runtime::ExecReport;
use picos_trace::{gen, Trace};

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

/// Every workload the golden-timing suite pins, plus the stream generator.
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

#[test]
fn one_shard_cluster_is_cycle_identical_to_hw_only() {
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let hil = PicosBackend {
                mode: HilMode::HwOnly,
                cfg: HilConfig {
                    picos: PicosConfig::baseline(dm),
                    ..HilConfig::balanced(WORKERS)
                },
            };
            let out = hil
                .run(&trace, SessionConfig::batch())
                .expect("HW-only completes");
            let (hw, hw_stats) = (out.report, out.stats.expect("HW-only reports counters"));
            let cluster_cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(1, WORKERS)
            };
            let (cl, cl_stats) = cluster_run(&trace, &cluster_cfg).expect("cluster completes");
            assert_eq!(cl_stats.len(), 1);
            assert_eq!(
                cl.makespan, hw.makespan,
                "{label} {dm}: makespan drifted (cluster {} vs hw-only {})",
                cl.makespan, hw.makespan
            );
            assert_eq!(cl.order, hw.order, "{label} {dm}: execution order drifted");
            assert_eq!(cl.start, hw.start, "{label} {dm}: start times drifted");
            assert_eq!(cl.end, hw.end, "{label} {dm}: end times drifted");
            assert_eq!(
                cl_stats[0], hw_stats,
                "{label} {dm}: hardware counters drifted"
            );
        }
    }
}

#[test]
fn one_shard_backend_matches_hw_only_backend() {
    // Through the ExecBackend layer too: the boxed cluster backend at one
    // shard must agree with the boxed HW-only backend.
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    let picos = PicosConfig::balanced();
    let hw = BackendSpec::Picos(HilMode::HwOnly)
        .builder(8)
        .picos(&picos)
        .build()
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    let cl = BackendSpec::Cluster(1)
        .builder(8)
        .picos(&picos)
        .build()
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    assert_eq!(cl.makespan, hw.makespan);
    assert_eq!(cl.order, hw.order);
}

#[test]
fn every_shard_count_preserves_task_graph_order() {
    for (label, trace) in golden_workloads() {
        let graph = picos_trace::TaskGraph::build(&trace);
        for shards in [2usize, 4] {
            let cfg = ClusterConfig::balanced(shards, WORKERS.max(shards));
            let (r, stats) =
                cluster_run(&trace, &cfg).unwrap_or_else(|e| panic!("{label} x{shards}: {e}"));
            assert_eq!(r.order.len(), trace.len(), "{label} x{shards}: incomplete");
            assert!(
                graph.is_topological(&r.order),
                "{label} x{shards}: order violates the dataflow graph"
            );
            r.validate(&trace)
                .unwrap_or_else(|e| panic!("{label} x{shards}: {e}"));
            let total = picos_cluster::merged_stats(&stats);
            assert_eq!(total.tasks_completed, total.tasks_submitted);
        }
    }
}

#[test]
fn placement_policies_agree_on_legality() {
    let trace = gen::stream(gen::StreamConfig::heavy(800));
    let graph = picos_trace::TaskGraph::build(&trace);
    for policy in ShardPolicy::ALL {
        let cfg = ClusterConfig {
            policy,
            ..ClusterConfig::balanced(4, 16)
        };
        let (r, _) = cluster_run(&trace, &cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert!(graph.is_topological(&r.order), "{policy}: illegal order");
    }
}

#[test]
fn cluster_is_deterministic_through_the_backend() {
    let trace = gen::stream(gen::StreamConfig::heavy(500));
    let picos = PicosConfig::balanced();
    let backend = BackendSpec::Cluster(4).builder(16).picos(&picos).build();
    let a = backend.run(&trace, SessionConfig::batch()).unwrap().report;
    let b = backend.run(&trace, SessionConfig::batch()).unwrap().report;
    assert_eq!(a, b);
}

/// Thread counts the parallel-engine pins run at. Defaults to every count
/// in `1..=8`; `CLUSTER_TEST_THREADS=2,8` narrows the sweep (CI runs the
/// suite twice, once per thread count, with
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
fn parallel_engine_is_bit_identical_on_every_golden_workload() {
    // The conservative-parallel engine must be indistinguishable from the
    // serial reference — same makespan, same schedule, same per-task
    // times, same hardware counters — on every golden workload, every DM
    // design, and every thread count, with threads striding an 8-shard
    // cluster unevenly (8 % 3 != 0) as well as exactly.
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(8, WORKERS)
            };
            let (serial, serial_stats) =
                cluster_run(&trace, &cfg).expect("serial reference completes");
            for threads in test_thread_counts() {
                let cfg_t = cfg.clone().with_threads(threads);
                let (par, par_stats) = cluster_run(&trace, &cfg_t)
                    .unwrap_or_else(|e| panic!("{label} {dm} t{threads}: {e}"));
                assert_eq!(
                    par.makespan, serial.makespan,
                    "{label} {dm} t{threads}: makespan drifted"
                );
                assert_eq!(
                    par.order, serial.order,
                    "{label} {dm} t{threads}: execution order drifted"
                );
                assert_eq!(
                    par.start, serial.start,
                    "{label} {dm} t{threads}: start times drifted"
                );
                assert_eq!(
                    par.end, serial.end,
                    "{label} {dm} t{threads}: end times drifted"
                );
                assert_eq!(
                    par_stats, serial_stats,
                    "{label} {dm} t{threads}: hardware counters drifted"
                );
            }
        }
    }
}

#[test]
fn parallel_engine_matches_serial_with_attached_timelines() {
    // Timed sessions probe global state mid-run, so the cluster falls
    // back to the serial engine whenever a sampler is attached; the
    // telemetry (and everything else) of a threads-N run must therefore
    // equal the serial run exactly. This pins the fallback: if the
    // parallel engine ever runs under a sampler and skews a window, this
    // breaks.
    let trace = gen::stream(gen::StreamConfig::heavy(600));
    let cfg = SessionConfig {
        timeline_window: Some(1_000),
        ..SessionConfig::batch()
    };
    let run = |threads: usize| {
        BackendSpec::Cluster(4)
            .builder(WORKERS)
            .threads(Some(threads))
            .build()
            .run(&trace, cfg)
            .expect("cluster completes")
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        let par = run(threads);
        assert_eq!(par.report, serial.report, "t{threads}: report drifted");
        assert_eq!(par.stats, serial.stats, "t{threads}: counters drifted");
        assert_eq!(
            par.timeline, serial.timeline,
            "t{threads}: telemetry drifted"
        );
    }
}

#[test]
fn sharded_dm_beats_one_big_dm_under_sustained_load() {
    // The tentpole's raison d'être: open-loop arrival faster than one
    // Picos pipeline's task throughput. Four shards keep up where one
    // saturates — with the default (fast) interconnect, four shards must
    // finish the stream decisively earlier.
    let trace = gen::stream(gen::StreamConfig {
        interarrival: 15,
        mean_duration: 200,
        ..gen::StreamConfig::heavy(1_500)
    });
    let one = cluster_run(&trace, &ClusterConfig::balanced(1, 16))
        .unwrap()
        .0;
    let four = cluster_run(&trace, &ClusterConfig::balanced(4, 16))
        .unwrap()
        .0;
    assert!(
        (four.makespan as f64) < 0.9 * one.makespan as f64,
        "4 shards ({}) must beat 1 shard ({}) under sustained load",
        four.makespan,
        one.makespan
    );
}
