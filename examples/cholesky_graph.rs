//! Cholesky task-graph illustration (the paper's Figure 2).
//!
//! ```text
//! cargo run --release --example cholesky_graph
//! ```
//!
//! Builds the dependence graph of a small blocked Cholesky factorization,
//! prints the kernel of every task with its predecessors, and shows a
//! 6-worker zero-overhead schedule — tasks sharing a time slot run in
//! parallel, like the colour groups of the paper's figure.

use picos_repro::prelude::*;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4x4-block Cholesky: 4 potrf + 6 trsm + 6 syrk + 4 gemm = 20 tasks.
    let trace = gen::cholesky(gen::CholeskyConfig {
        problem_size: 1024,
        block_size: 256,
        calibrate: false,
    });
    let graph = TaskGraph::build(&trace);

    println!(
        "task graph ({} tasks, {} edges):",
        trace.len(),
        graph.num_edges()
    );
    for t in trace.iter() {
        let preds: Vec<String> = graph.preds(t.id).iter().map(|&p| format!("T{p}")).collect();
        println!(
            "  {:<4} {:<6} <- [{}]",
            t.id.to_string(),
            trace.kernel_name(t.kernel),
            preds.join(", ")
        );
    }

    // The paper's "one possible parallel execution ... for a 6 cores
    // machine (tasks with the same color are run in parallel)".
    let schedule = PerfectBackend { workers: 6 }
        .run(&trace, SessionConfig::batch())?
        .report;
    schedule.validate(&trace)?;
    let mut waves: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (task, &start) in schedule.start.iter().enumerate() {
        waves.entry(start).or_default().push(task as u32);
    }
    println!("\n6-worker schedule (tasks starting together run in parallel):");
    for (i, (start, tasks)) in waves.iter().enumerate() {
        let labels: Vec<String> = tasks
            .iter()
            .map(|&t| {
                format!(
                    "T{t}:{}",
                    trace.kernel_name(trace.tasks()[t as usize].kernel)
                )
            })
            .collect();
        println!("  wave {:<2} (t={start:>8}): {}", i, labels.join("  "));
    }
    println!(
        "\nmakespan {} cycles, speedup {:.2} on 6 workers",
        schedule.makespan,
        schedule.speedup()
    );
    Ok(())
}
