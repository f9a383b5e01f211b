//! Cross-engine integration tests, generic over `dyn ExecBackend`: every
//! execution engine must produce a legal schedule of the same ground-truth
//! dataflow graph, and their relative performance must respect the
//! structural bounds (perfect is a roofline; nobody beats the critical
//! path or the work bound).
//!
//! The legality/bounds tests iterate `BackendSpec::ALL`, so a backend
//! added to that list is covered here with no test changes.

use picos_repro::prelude::*;

/// Builds every backend family at a worker count and balanced Picos core.
fn all_backends(workers: usize) -> Vec<Box<dyn ExecBackend>> {
    BackendSpec::ALL
        .iter()
        .map(|spec| spec.builder(workers).build())
        .collect()
}

/// Every backend, every app (coarsest + second paper block size), 8
/// workers: schedules must validate against the dataflow graph.
#[test]
fn all_engines_legal_on_all_apps() {
    for app in gen::App::ALL {
        let sizes = app.paper_block_sizes();
        for bs in [sizes[0], sizes[1]] {
            let trace = app.generate(bs);
            for backend in all_backends(8) {
                let r = backend
                    .run(&trace, SessionConfig::batch())
                    .unwrap_or_else(|e| panic!("{} {app} bs {bs}: {e}", backend.name()))
                    .report;
                r.validate(&trace)
                    .unwrap_or_else(|e| panic!("{} {app} bs {bs}: {e}", backend.name()));
            }
        }
    }
}

/// The perfect scheduler is a roofline: no backend may exceed it, and no
/// backend may beat the critical-path or work bounds.
#[test]
fn perfect_dominates_and_bounds_hold() {
    for app in [gen::App::Cholesky, gen::App::SparseLu, gen::App::Heat] {
        let bs = app.paper_block_sizes()[1];
        let trace = app.generate(bs);
        let graph = TaskGraph::build(&trace);
        let cp = graph.critical_path();
        let work = trace.sequential_time();
        for w in [2usize, 8, 16] {
            let roofline = PerfectBackend { workers: w }
                .run(&trace, SessionConfig::batch())
                .unwrap()
                .report
                .speedup();
            for backend in all_backends(w) {
                let r = backend.run(&trace, SessionConfig::batch()).unwrap().report;
                assert!(
                    roofline + 1e-9 >= r.speedup(),
                    "{app} w{w}: {} {} beat roofline {roofline}",
                    backend.name(),
                    r.speedup()
                );
                assert!(
                    r.makespan >= cp,
                    "{app} w{w} {}: below critical path",
                    r.engine
                );
                assert!(
                    r.makespan >= work / w as u64,
                    "{app} w{w} {}: below work bound",
                    r.engine
                );
            }
        }
    }
}

/// All three Picos DM designs execute every workload correctly; the design
/// only affects timing, never the schedule's legality.
#[test]
fn dm_designs_all_legal() {
    for app in [gen::App::Heat, gen::App::Lu] {
        let trace = app.generate(app.paper_block_sizes()[1]);
        for dm in DmDesign::ALL {
            let backend = BackendSpec::Picos(HilMode::HwOnly)
                .builder(12)
                .picos(&PicosConfig::baseline(dm))
                .build();
            let r = backend.run(&trace, SessionConfig::batch()).unwrap().report;
            r.validate(&trace)
                .unwrap_or_else(|e| panic!("{app} {dm}: {e}"));
        }
    }
}

/// Multi-instance (future architecture) configurations agree with the
/// baseline on legality and complete every task.
#[test]
fn future_architecture_legal() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(64));
    for n in [1usize, 2, 4] {
        let backend = BackendSpec::Picos(HilMode::HwOnly)
            .builder(16)
            .picos(&PicosConfig::future(n, DmDesign::PearsonEightWay))
            .build();
        let r = backend.run(&trace, SessionConfig::batch()).unwrap().report;
        r.validate(&trace)
            .unwrap_or_else(|e| panic!("{n}x{n}: {e}"));
        assert_eq!(r.order.len(), trace.len());
    }
}

/// Same trace, same configuration: byte-identical reports across runs for
/// every backend (the whole reproduction is deterministic).
#[test]
fn determinism_across_engines() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(64));
    for spec in BackendSpec::ALL {
        let backend = spec.builder(12).build();
        let a = backend.run(&trace, SessionConfig::batch()).unwrap().report;
        let b = backend.run(&trace, SessionConfig::batch()).unwrap().report;
        assert_eq!(a, b, "{spec}");
    }
}

/// A single worker serializes every backend to (at least) the sequential
/// time; the perfect scheduler hits it exactly.
#[test]
fn single_worker_serializes() {
    let trace = gen::heat(gen::HeatConfig::paper(256));
    let seq = trace.sequential_time();
    assert_eq!(
        PerfectBackend { workers: 1 }
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .report
            .makespan,
        seq
    );
    for backend in all_backends(1) {
        let r = backend.run(&trace, SessionConfig::batch()).unwrap().report;
        assert!(
            r.makespan >= seq,
            "{}: {} below sequential {seq}",
            backend.name(),
            r.makespan
        );
    }
}

/// The LIFO task scheduler produces a different but still legal schedule.
#[test]
fn lifo_schedule_is_legal_and_different() {
    let trace = gen::lu(gen::LuConfig::paper(64));
    let spec = BackendSpec::Picos(HilMode::HwOnly);
    let fifo = spec
        .builder(12)
        .build()
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    let lifo = spec
        .builder(12)
        .picos(&PicosConfig::balanced().with_ts_policy(TsPolicy::Lifo))
        .build()
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    lifo.validate(&trace).unwrap();
    assert_ne!(fifo.order, lifo.order, "policies must differ on Lu");
}

/// Engine labels are stable API surface the sweep harness relies on: the
/// spec label, the backend name and the report's engine field all agree.
#[test]
fn engine_labels() {
    let trace = gen::synthetic(gen::Case::Case1);
    for spec in BackendSpec::ALL {
        let backend = spec.builder(2).build();
        assert_eq!(backend.name(), spec.label());
        let out = backend.run(&trace, SessionConfig::batch()).unwrap();
        assert_eq!(out.report.engine, spec.label());
    }
    assert_eq!(BackendSpec::Picos(HilMode::HwOnly).label(), "picos-hw-only");
    assert_eq!(BackendSpec::Picos(HilMode::HwComm).label(), "picos-hw-comm");
    assert_eq!(
        BackendSpec::Picos(HilMode::FullSystem).label(),
        "picos-full"
    );
    assert_eq!(BackendSpec::Perfect.label(), "perfect");
    assert_eq!(BackendSpec::Nanos.label(), "nanos");
}
