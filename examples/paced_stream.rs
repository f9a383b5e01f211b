//! Open-loop streaming quickstart: drive a cluster session with paced
//! arrivals at two offered rates and compare achieved throughput and
//! backpressure.
//!
//! ```text
//! cargo run --release --example paced_stream
//! ```
//!
//! The workload is a 10 000-request open-loop stream
//! (`gen::stream_requests`: independent tenants, no pacer-chain encoding —
//! arrival times feed the session directly). At a gentle rate the cluster
//! keeps up and admission never pushes back; near the per-shard dependence
//! managers' saturation point the in-flight window throttles the client,
//! which is exactly the full-TRS stall a real runtime would see.

use picos_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (trace, arrivals) = picos_repro::trace::gen::stream_requests(gen::StreamConfig {
        tasks: 10_000,
        ..gen::StreamConfig::default()
    });
    println!(
        "workload: {} requests, {:.0} cycles sequential work\n",
        trace.len(),
        trace.sequential_time() as f64
    );

    let backend = BackendSpec::Cluster(4).builder(16).build();
    println!(
        "backend: {} (4 shards, 16 workers), window 256\n",
        backend.name()
    );

    // Two offered rates: one task per 200 cycles (gentle) and one per 8
    // cycles — past both the dependence managers' throughput (~70
    // cycles/task per Picos, Table IV) and the worker pool's drain rate,
    // so the window must push back.
    for interarrival in [200u64, 8] {
        let r = run_paced(&*backend, PacedTrace::new(&trace, interarrival), Some(256))?;
        println!("offered 1 task / {interarrival} cycles:");
        println!(
            "  offered rate:    {:>7.3} tasks/kcycle",
            r.offered_per_kcycle()
        );
        println!(
            "  achieved rate:   {:>7.3} tasks/kcycle (makespan {} cycles)",
            r.achieved_per_kcycle(),
            r.report.makespan
        );
        println!(
            "  backpressure:    {:>6.1}% of submissions pushed back ({} retries)",
            r.backpressure_ratio() * 100.0,
            r.retries
        );
        println!();
    }

    // The same stream under its own recorded arrival gaps (the generator's
    // jittered inter-arrival draw) instead of a uniform rate.
    let r = run_paced(&*backend, ArrivalTrace::new(&trace, &arrivals), Some(256))?;
    println!(
        "recorded arrivals (mean gap {} cycles): achieved {:.3} tasks/kcycle, \
         backpressure {:.1}%",
        arrivals.last().unwrap() / trace.len() as u64,
        r.achieved_per_kcycle(),
        r.backpressure_ratio() * 100.0
    );
    Ok(())
}
