//! Sweep-harness acceptance tests: the full paper grid — every application
//! at two block sizes crossed with every backend family — completes
//! through the parallel harness, and parallel execution is byte-identical
//! to serial execution regardless of thread count.

use picos_repro::prelude::*;
use picos_trace::gen::App;
use std::sync::Arc;

/// `App::ALL` × 2 block sizes × {perfect, nanos, all HIL modes}.
fn paper_grid() -> Sweep {
    let workloads = App::ALL.into_iter().flat_map(|app| {
        let sizes = app.paper_block_sizes();
        [sizes[0], sizes[1]]
            .into_iter()
            .map(move |bs| Workload::from_app(app, bs))
    });
    Sweep::new(workloads)
        .workers([8])
        .backends(BackendSpec::ALL)
}

#[test]
fn full_grid_completes_in_parallel_and_matches_serial() {
    let parallel = paper_grid().run(); // default: available parallelism
    assert_eq!(
        parallel.rows().len(),
        App::ALL.len() * 2 * BackendSpec::ALL.len(),
        "every cell must produce a row"
    );
    assert_eq!(parallel.first_error(), None, "every cell must complete");
    let serial = paper_grid().serial().run();
    assert_eq!(
        serial, parallel,
        "parallel results must equal serial results"
    );
}

#[test]
fn thread_count_never_changes_results() {
    let grid = || {
        Sweep::over_apps([App::Cholesky, App::Heat], [128])
            .workers([2, 8])
            .backends([
                BackendSpec::Perfect,
                BackendSpec::Nanos,
                BackendSpec::Picos(HilMode::FullSystem),
            ])
    };
    let reference = grid().threads(1).run();
    for threads in [2, 3, 16] {
        assert_eq!(
            grid().threads(threads).run(),
            reference,
            "{threads} threads"
        );
    }
}

#[test]
fn sweep_rows_match_direct_backend_runs() {
    // The harness must report exactly what a hand-driven backend reports.
    let trace = Arc::new(App::SparseLu.generate(128));
    let result = Sweep::new([Workload::from_trace("sparselu", Arc::clone(&trace))])
        .workers([4])
        .backends(BackendSpec::ALL)
        .run();
    for (row, spec) in result.rows().iter().zip(BackendSpec::ALL) {
        let direct = spec
            .builder(4)
            .build()
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .report;
        assert_eq!(row.backend, spec);
        assert_eq!(row.makespan, direct.makespan, "{spec}");
        assert_eq!(row.sequential, direct.sequential, "{spec}");
        assert!((row.speedup - direct.speedup()).abs() < 1e-12, "{spec}");
    }
}

#[test]
fn filter_and_errors_are_reported_per_row() {
    // An impossible cell (zero workers) errors without failing the sweep.
    let result = Sweep::over_apps([App::Cholesky], [256])
        .workers([0, 4])
        .backends([BackendSpec::Nanos])
        .run();
    assert_eq!(result.rows().len(), 2);
    assert!(result.rows()[0].error.is_some(), "w0 must fail");
    assert!(result.rows()[1].error.is_none(), "w4 must pass");

    // Early-exit filter: prune the failing cells from the grid instead.
    let filtered = Sweep::over_apps([App::Cholesky], [256])
        .workers([0, 4])
        .backends([BackendSpec::Nanos])
        .filter(|cell| cell.workers > 0)
        .run();
    assert_eq!(filtered.rows().len(), 1);
    assert_eq!(filtered.first_error(), None);
}
