//! Quickstart: run one workload through every execution backend.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates the paper's Cholesky factorization at a fine task granularity
//! and executes it on every engine behind the uniform [`ExecBackend`]
//! trait — the Picos hardware model (three HIL modes), the Nanos++-like
//! software runtime and the zero-overhead perfect scheduler — then prints
//! the speedup of each: the core comparison of the paper's Figure 11.

use picos_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 12;
    let trace = gen::cholesky(gen::CholeskyConfig::paper(64));
    println!(
        "workload: {} ({} tasks, {} cycles sequential)",
        trace.name,
        trace.len(),
        trace.sequential_time()
    );

    let graph = TaskGraph::build(&trace);
    let profile = graph.parallelism();
    println!(
        "graph: {} edges, critical path {} cycles, avg parallelism {:.1}\n",
        graph.num_edges(),
        profile.critical_path,
        profile.avg_parallelism
    );

    println!("engine          speedup ({workers} workers)");
    println!("--------------  -------");
    let mut picos_full = 0.0;
    let mut roofline = 0.0;
    for spec in BackendSpec::ALL {
        let backend = spec.builder(workers).build();
        let report = backend.run(&trace, SessionConfig::batch())?.report;
        // Every schedule must respect the dataflow graph.
        report.validate(&trace)?;
        println!("{:<14}  {:>7.2}", report.engine, report.speedup());
        match spec {
            BackendSpec::Perfect => roofline = report.speedup(),
            BackendSpec::Picos(HilMode::FullSystem) => picos_full = report.speedup(),
            _ => {}
        }
    }
    println!(
        "\nPicos Full-system keeps {:.0}% of the perfect-scheduler roofline.",
        100.0 * picos_full / roofline
    );
    Ok(())
}
