//! Cluster quickstart: scale dependence management past one Picos.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```
//!
//! Generates an open-loop stream workload (requests arriving faster than
//! one Picos pipeline's task throughput — sustained heavy traffic) and
//! runs it on 1, 2, 4 and 8 shards, printing makespan, speedup and the
//! per-shard dependence-processing split. A one-shard cluster is
//! cycle-identical to the HW-only HIL platform, so the 1-shard row *is*
//! the paper-calibrated baseline.

use picos_repro::core::Stats;
use picos_repro::prelude::*;

/// Batch-runs the trace through a cluster session, keeping each shard's
/// hardware counters.
fn run_shards(trace: &Trace, cfg: ClusterConfig) -> Result<(ExecReport, Vec<Stats>), ClusterError> {
    let mut session = ClusterSession::new(cfg, SessionConfig::batch())?;
    feed_trace(&mut session, trace).expect("batch sessions never backpressure");
    session
        .into_output()
        .map(|(report, per_shard, ..)| (report, per_shard))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 16;
    // ~133 requests per 2k cycles: roughly twice what one Picos pipeline
    // sustains, so a single dependence manager saturates.
    let trace = gen::stream(gen::StreamConfig {
        interarrival: 15,
        mean_duration: 200,
        ..gen::StreamConfig::heavy(2_000)
    });
    println!(
        "workload: {} ({} tasks, {} cycles sequential)\n",
        trace.name,
        trace.len(),
        trace.sequential_time()
    );

    println!("shards  makespan  speedup  deps/shard (split)");
    let mut baseline = 0u64;
    for shards in [1usize, 2, 4, 8] {
        let cfg = ClusterConfig::balanced(shards, workers);
        let (report, per_shard) = run_shards(&trace, cfg)?;
        report.validate(&trace)?;
        if shards == 1 {
            baseline = report.makespan;
        }
        let split: Vec<String> = per_shard
            .iter()
            .map(|s| s.deps_processed.to_string())
            .collect();
        println!(
            "{shards:>6}  {:>8}  {:>6.2}x  [{}]  ({:.2}x vs 1 shard)",
            report.makespan,
            report.speedup(),
            split.join(", "),
            baseline as f64 / report.makespan as f64
        );
    }

    // Placement policy matters: compare interconnect pressure at 4 shards.
    println!("\npolicy           cross-shard regs  makespan");
    for policy in ShardPolicy::ALL {
        let cfg = ClusterConfig {
            policy,
            ..ClusterConfig::balanced(4, workers)
        };
        let (report, per_shard) = run_shards(&trace, cfg)?;
        let total = merged_stats(&per_shard);
        // Fragments submitted beyond one per task crossed the interconnect.
        let cross = total.tasks_submitted - trace.len() as u64;
        println!("{policy:<15}  {cross:>16}  {:>8}", report.makespan);
    }
    Ok(())
}
