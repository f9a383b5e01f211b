//! Taskwait (explicit synchronization, paper Section II-A) integration
//! tests: every engine must respect `#pragma omp taskwait` barriers — later
//! tasks may not start before every earlier task finished.

use picos_repro::prelude::*;
use picos_repro::trace::KernelClass;

/// Independent tasks split by a taskwait: the barrier must show up in every
/// engine's schedule even though there are no data dependences at all.
fn barrier_trace(per_side: usize) -> Trace {
    let mut tr = Trace::new("barrier");
    let k = KernelClass::GENERIC;
    for i in 0..per_side as u64 {
        tr.push(k, [Dependence::output(0x1000 + i * 8)], 500);
    }
    tr.push_taskwait();
    for i in 0..per_side as u64 {
        tr.push(k, [Dependence::output(0x9000 + i * 8)], 500);
    }
    tr
}

#[test]
fn all_engines_respect_taskwait() {
    let tr = barrier_trace(20);
    let perfect = PerfectBackend { workers: 8 }
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    perfect.validate(&tr).unwrap();
    let nanos = SoftwareBackend::with_workers(8)
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    nanos.validate(&tr).unwrap();
    for mode in HilMode::ALL {
        let picos = PicosBackend::balanced(mode, 8)
            .run(&tr, SessionConfig::batch())
            .unwrap()
            .report;
        picos
            .validate(&tr)
            .unwrap_or_else(|e| panic!("{mode}: {e}"));
    }
}

#[test]
fn taskwait_halves_parallel_throughput() {
    // Two batches of independent equal tasks: with the barrier the perfect
    // makespan is exactly two batch-rounds.
    let tr = barrier_trace(16);
    let r = PerfectBackend { workers: 16 }
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    assert_eq!(r.makespan, 2 * 500);
    // Without a barrier the same tasks finish in one round.
    let mut free = Trace::new("free");
    let k = KernelClass::GENERIC;
    for i in 0..32u64 {
        free.push(k, [Dependence::output(0x1000 + i * 8)], 500);
    }
    assert_eq!(
        PerfectBackend { workers: 32 }
            .run(&free, SessionConfig::batch())
            .unwrap()
            .report
            .makespan,
        500
    );
}

#[test]
fn graph_treats_barrier_as_cut() {
    let tr = barrier_trace(4);
    let g = TaskGraph::build(&tr);
    assert_eq!(g.barriers(), &[4]);
    // No explicit dataflow edges (distinct addresses), yet an order that
    // interleaves the two halves is illegal.
    assert_eq!(g.num_edges(), 0);
    assert!(g.is_topological(&[0, 1, 2, 3, 4, 5, 6, 7]));
    assert!(!g.is_topological(&[0, 1, 2, 4, 3, 5, 6, 7]));
    // Critical path is two tasks deep because of the cut.
    assert_eq!(g.critical_path(), 1_000);
}

#[test]
fn heat_sweeps_with_taskwait_run_everywhere() {
    let tr = gen::heat(gen::HeatConfig {
        sweeps: 3,
        taskwait_between_sweeps: true,
        calibrate: false,
        ..gen::HeatConfig::paper(256)
    });
    assert_eq!(tr.barriers().len(), 2);
    let picos = PicosBackend::balanced(HilMode::FullSystem, 8)
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    picos.validate(&tr).unwrap();
    let nanos = SoftwareBackend::with_workers(8)
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    nanos.validate(&tr).unwrap();
    let perfect = PerfectBackend { workers: 8 }
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    perfect.validate(&tr).unwrap();
    assert!(perfect.speedup() + 1e-9 >= picos.speedup());
}

#[test]
fn software_master_blocks_at_taskwait() {
    // With one executing worker and a taskwait in the middle, the second
    // half cannot even be created before the first half retires: makespan
    // must exceed the duration sum of the first half plus the creation
    // overhead of the second.
    let tr = barrier_trace(10);
    let r = SoftwareBackend::with_workers(2)
        .run(&tr, SessionConfig::batch())
        .unwrap()
        .report;
    r.validate(&tr).unwrap();
    let first_half_end = (0..10).map(|i| r.end[i]).max().unwrap();
    let second_half_start = (10..20).map(|i| r.start[i]).min().unwrap();
    assert!(second_half_start >= first_half_end);
}

#[test]
fn validate_catches_barrier_violation() {
    let tr = barrier_trace(1);
    let bogus = picos_repro::runtime::ExecReport {
        engine: "bogus".into(),
        workers: 2,
        makespan: 500,
        sequential: 1_000,
        order: vec![0, 1],
        start: vec![0, 0], // both at once: violates the taskwait
        end: vec![500, 500],
    };
    let err = bogus.validate(&tr).unwrap_err();
    assert!(err.contains("taskwait"), "{err}");
}
