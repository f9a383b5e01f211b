//! Capacity-limit and failure-injection tests: the engine must stall
//! gracefully (and recover) at every hardware limit, and must report —
//! never mask — runs that cannot complete.

use picos_core::{EngineError, PicosConfig, PicosSystem, Stats};
use picos_repro::prelude::*;
use picos_repro::trace::KernelClass;

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

/// TM exhaustion: more submitted tasks than slots; the GW backpressures and
/// the run completes once finishes drain slots.
#[test]
fn tm_exhaustion_recovers() {
    let mut trace = Trace::new("tm-stress");
    for _ in 0..1000 {
        trace.push(KernelClass::GENERIC, [], 50_000);
    }
    let out = PicosBackend::balanced(HilMode::HwOnly, 4)
        .run(&trace, SessionConfig::batch())
        .unwrap();
    let (r, stats) = (out.report, out.stats.unwrap());
    assert_eq!(r.order.len(), 1000);
    assert!(stats.tm_stalls > 0, "must have hit the TM limit");
    assert!(stats.peak_in_flight <= 256);
}

/// VM exhaustion: a small VM forces dependence stalls but never deadlock.
#[test]
fn vm_exhaustion_recovers() {
    let mut cfg = PicosConfig::balanced();
    cfg.vm_entries = 8;
    let mut trace = Trace::new("vm-stress");
    for i in 0..200u64 {
        trace.push(
            KernelClass::GENERIC,
            [
                Dependence::input(0x1000 + (i % 40) * 8),
                Dependence::output(0x9000 + i * 8),
            ],
            5_000,
        );
    }
    let hil = PicosBackend {
        mode: HilMode::HwOnly,
        cfg: HilConfig {
            picos: cfg,
            ..HilConfig::balanced(4)
        },
    };
    let out = hil.run(&trace, SessionConfig::batch()).unwrap();
    let (r, stats) = (out.report, out.stats.unwrap());
    assert_eq!(r.order.len(), 200);
    assert!(stats.vm_stalls > 0, "must have hit the VM limit");
    assert!(stats.peak_vm_live <= 8);
    r.validate(&trace).unwrap();
}

/// A tiny DM with heavy clustering: conflicts throttle but never wedge the
/// system as long as single tasks cannot pin a whole set by themselves.
#[test]
fn dm_exhaustion_recovers() {
    let mut cfg = PicosConfig::baseline(DmDesign::EightWay);
    cfg.dm_sets = 2;
    let mut trace = Trace::new("dm-stress");
    for i in 0..300u64 {
        // Two deps per task on word-strided addresses: at most 2 per set.
        trace.push(
            KernelClass::GENERIC,
            [
                Dependence::inout(0x1000 + (i % 64) * 8),
                Dependence::input(0x5000 + (i % 32) * 8),
            ],
            5_000,
        );
    }
    let hil = PicosBackend {
        mode: HilMode::HwOnly,
        cfg: HilConfig {
            picos: cfg,
            ..HilConfig::balanced(6)
        },
    };
    let out = hil.run(&trace, SessionConfig::batch()).unwrap();
    let (r, stats) = (out.report, out.stats.unwrap());
    assert_eq!(r.order.len(), 300);
    assert!(stats.dm_conflicts > 0);
    r.validate(&trace).unwrap();
}

/// Withholding finish notifications must surface as a deadlock error from
/// the engine's own runner, not silent progress.
#[test]
fn withheld_finish_reports_deadlock() {
    let mut sys = PicosSystem::new(PicosConfig::balanced());
    sys.submit(picos_repro::trace::TaskId::new(0), vec![]);
    let r = sys.run_to_quiescence(100_000, |_| None);
    assert!(matches!(r, Err(EngineError::Deadlock { .. })));
    assert_eq!(sys.in_flight(), 1);
}

/// Tasks over the dependence limit are rejected at the API boundary.
#[test]
#[should_panic(expected = "max_deps_per_task")]
fn too_many_deps_rejected() {
    let mut sys = PicosSystem::new(PicosConfig::balanced());
    let deps: Vec<_> = (0..16).map(|i| Dependence::input(0x100 + i * 64)).collect();
    sys.submit(picos_repro::trace::TaskId::new(0), deps);
}

/// Invalid configurations cannot construct a system.
#[test]
#[should_panic(expected = "invalid Picos configuration")]
fn invalid_config_rejected() {
    let mut cfg = PicosConfig::balanced();
    cfg.num_dct = 0;
    let _ = PicosSystem::new(cfg);
}

/// Cluster per-shard TM exhaustion: far more independent tasks than any
/// shard's TM slots. Each shard's Gateway backpressures its own ingress,
/// the Distributor keeps feeding as finishes drain slots, and the run
/// completes with TM stalls on record.
#[test]
fn cluster_tm_exhaustion_stalls_and_recovers() {
    let mut trace = Trace::new("cluster-tm-stress");
    for _ in 0..1200 {
        trace.push(KernelClass::GENERIC, [], 50_000);
    }
    let cfg = ClusterConfig::balanced(4, 8);
    let (r, per_shard) = cluster_run(&trace, &cfg).unwrap();
    assert_eq!(r.order.len(), 1200);
    let merged = merged_stats(&per_shard);
    assert!(merged.tm_stalls > 0, "must have hit a shard's TM limit");
    assert!(merged.peak_in_flight <= 256, "per-shard TM capacity holds");
    r.validate(&trace).unwrap();
}

/// Cluster per-shard VM exhaustion: shrunken Dependence Memories force
/// version stalls on every shard, but the sharded engine never wedges.
#[test]
fn cluster_vm_exhaustion_stalls_and_recovers() {
    let mut picos = PicosConfig::balanced();
    picos.vm_entries = 8;
    let mut trace = Trace::new("cluster-vm-stress");
    for i in 0..240u64 {
        trace.push(
            KernelClass::GENERIC,
            [
                Dependence::input(0x1000 + (i % 40) * 8),
                Dependence::output(0x9000 + i * 8),
            ],
            5_000,
        );
    }
    let cfg = ClusterConfig {
        picos,
        ..ClusterConfig::balanced(4, 8)
    };
    let (r, per_shard) = cluster_run(&trace, &cfg).unwrap();
    assert_eq!(r.order.len(), 240);
    let merged = merged_stats(&per_shard);
    assert!(merged.vm_stalls > 0, "must have hit a shard's VM limit");
    assert!(merged.peak_vm_live <= 8, "per-shard VM capacity holds");
    r.validate(&trace).unwrap();
}

/// Termination property: a random fault plan over a random trace must
/// always terminate — either completing a valid schedule or surfacing a
/// typed retry-exhaustion error. Never a hang, never a panic. Plans are
/// drawn across the whole fault taxonomy: drop/dup/jitter rates, tight
/// retry budgets, shard pauses and fail-stop worker faults.
#[test]
fn random_fault_plans_always_terminate() {
    use picos_repro::trace::rng::SplitMix64;
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(0xFA017 ^ seed);
        let tr = gen::random_trace(gen::RandomConfig::default(), seed);
        let mut plan = FaultPlan::new(rng.next_u64())
            .with_drop_rate(rng.f64() * 0.4)
            .with_dup_rate(rng.f64() * 0.3)
            .with_jitter(rng.f64() * 0.5, rng.range_u64(1, 64))
            .with_link_timeout(rng.range_u64(32, 2048))
            .with_max_retries(rng.range_u64(1, 6) as u32);
        let shards = 4;
        if rng.bool(0.5) {
            let at = rng.range_u64(0, 40_000);
            plan = plan.with_pause(
                rng.range_u64(0, 3) as u16,
                at,
                at + rng.range_u64(1, 30_000),
            );
        }
        if rng.bool(0.5) {
            // One fault per shard at most: balanced(4, 8) gives every
            // shard two workers, so one fail-stop still leaves one.
            plan = plan.with_worker_fault(rng.range_u64(0, 3) as u16, rng.range_u64(0, 60_000));
        }
        let cfg = ClusterConfig::balanced(shards, 8).with_faults(plan.clone());
        match cluster_run(&tr, &cfg) {
            Ok((r, _)) => {
                assert_eq!(r.order.len(), tr.len(), "seed {seed}: tasks missing");
                r.validate(&tr)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
            Err(ClusterError::LinkTimeout { attempts, .. }) => {
                assert!(attempts >= 1, "seed {seed}: exhausted without retrying");
            }
            Err(other) => panic!("seed {seed}: unexpected error {other:?} under {plan:?}"),
        }
    }
}

/// The full-system driver completes even when the worker count far exceeds
/// the available parallelism (idle workers are harmless).
#[test]
fn oversubscribed_workers() {
    let trace = gen::synthetic(gen::Case::Case4); // serial chain
    let r = PicosBackend::balanced(HilMode::FullSystem, 64)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    assert_eq!(r.order.len(), trace.len());
    assert!(
        r.speedup() <= 1.01,
        "a chain cannot speed up: {}",
        r.speedup()
    );
}

/// Stats snapshots are internally consistent after a heavy run.
#[test]
fn stats_consistency() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(64));
    let out = PicosBackend::balanced(HilMode::FullSystem, 12)
        .run(&trace, SessionConfig::batch())
        .unwrap();
    let (r, stats) = (out.report, out.stats.unwrap());
    assert_eq!(stats.tasks_submitted, trace.len() as u64);
    assert_eq!(stats.tasks_completed, trace.len() as u64);
    let total_deps: u64 = trace.iter().map(|t| t.num_deps() as u64).sum();
    assert_eq!(stats.deps_processed, total_deps);
    assert!(stats.peak_in_flight <= 256);
    assert!(stats.peak_vm_live <= 512);
    assert_eq!(r.order.len(), trace.len());
}

/// An empty trace is a no-op everywhere.
#[test]
fn empty_trace_everywhere() {
    let trace = Trace::new("empty");
    for mode in HilMode::ALL {
        let r = PicosBackend::balanced(mode, 4)
            .run(&trace, SessionConfig::batch())
            .unwrap();
        assert_eq!(r.report.makespan, 0);
    }
    let batch = SessionConfig::batch();
    let perfect = PerfectBackend { workers: 4 }.run(&trace, batch).unwrap();
    assert_eq!(perfect.report.makespan, 0);
    let nanos = SoftwareBackend::with_workers(4).run(&trace, batch).unwrap();
    assert_eq!(nanos.report.makespan, 0);
}
