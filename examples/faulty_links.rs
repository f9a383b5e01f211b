//! Fault injection on the cluster interconnect.
//!
//! ```text
//! cargo run --release --example faulty_links
//! ```
//!
//! Runs a heavy stream workload on a 4-shard cluster while a seeded
//! [`FaultPlan`] drops (and occasionally duplicates) interconnect
//! messages. The ack/retry protocol recovers every loss, so the schedule
//! stays legal at any drop rate — it just gets slower as retry timeouts
//! stretch the critical path. The sweep prints that cost next to the
//! recovery counters.
//!
//! Two properties worth seeing in the output:
//!
//! * the **0% row is bit-identical** to a run with no plan attached
//!   (asserted below — the zero-fault identity the conformance suite
//!   pins), and
//! * every faulted run is **deterministic**: same seed, same trace, same
//!   makespan and counters, every time.
//!
//! The last section starves the retry budget on a badly lossy link, so
//! the run terminates with the typed [`ClusterError::LinkTimeout`]
//! instead of hanging — the fail-stop edge of the fault model.

use picos_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 16;
    let trace = gen::stream(gen::StreamConfig {
        interarrival: 15,
        mean_duration: 200,
        ..gen::StreamConfig::heavy(2_000)
    });
    println!(
        "workload: {} ({} tasks) on a 4-shard cluster\n",
        trace.name,
        trace.len()
    );

    // Baseline: no plan attached at all.
    let plain = ClusterBackend::balanced(4, workers)
        .run(&trace, SessionConfig::batch())?
        .report;

    println!("drop%   makespan  slowdown  drops  retries  redeliveries");
    for drop_pct in [0u32, 1, 2, 5, 10, 20] {
        let plan = FaultPlan::new(0xBAD_11A1).with_drop_rate(drop_pct as f64 / 100.0);
        let cfg = ClusterConfig::balanced(4, workers).with_faults(plan);
        let mut session = ClusterSession::new(cfg, SessionConfig::batch())?;
        feed_trace(&mut session, &trace).expect("batch sessions never backpressure");
        let (report, _, _, counters, _) = session.into_output()?;
        report.validate(&trace)?;
        let c = counters.unwrap_or_default();
        println!(
            "{drop_pct:>4}%  {:>9}  {:>7.3}x  {:>5}  {:>7}  {:>12}",
            report.makespan,
            report.makespan as f64 / plain.makespan as f64,
            c.drops,
            c.retries,
            c.redeliveries,
        );
        if drop_pct == 0 {
            // Zero-fault identity: an inert plan is invisible.
            assert_eq!(report.makespan, plain.makespan);
        }
    }

    // A plan the protocol cannot absorb: 60% loss with a single retry.
    // The run must still terminate — with a typed error naming the link.
    let hopeless = FaultPlan::new(7)
        .with_drop_rate(0.6)
        .with_link_timeout(64)
        .with_max_retries(1);
    let cfg = ClusterConfig::balanced(4, workers).with_faults(hopeless);
    let mut session = ClusterSession::new(cfg, SessionConfig::batch())?;
    feed_trace(&mut session, &trace).expect("batch sessions never backpressure");
    match session.into_output() {
        Err(ClusterError::LinkTimeout {
            from,
            to,
            at,
            attempts,
        }) => println!(
            "\n60% loss, 1 retry: link {from}->{to} gave up at cycle {at} \
             after {attempts} attempts (typed error, no hang)"
        ),
        Ok((r, ..)) => println!(
            "\n60% loss, 1 retry: survived anyway (makespan {})",
            r.makespan
        ),
        Err(other) => return Err(other.into()),
    }
    Ok(())
}
