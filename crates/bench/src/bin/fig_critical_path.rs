//! Regenerates the **critical-path attribution** figure: where the
//! makespan-critical chain spends its cycles as the DM design and the
//! shard count vary.
//!
//! Every cell runs the same workload through the cluster backend with
//! span tracing attached, then walks the span log backward from the
//! last-finishing task and attributes every cycle of the makespan to a
//! category — DM registration wait, TRS wake latency, TS queueing, link
//! transit, dispatch, worker execution. The shares of one row sum to
//! 100% by construction (the walk is contiguous from cycle 0 to the
//! makespan), so the table shows directly which stage bounds each design
//! point and how the bottleneck shifts when the same workload spreads
//! over more shards.

use picos_backend::{BackendSpec, SessionConfig};
use picos_bench::Table;
use picos_core::{DmDesign, PicosConfig};
use picos_metrics::span;
use picos_trace::{gen, TaskGraph, TaskId};

const SHARDS: [usize; 3] = [1, 2, 4];
const WORKERS: usize = 8;

fn main() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let graph = TaskGraph::build(&trace);
    let mut headers = vec!["Design", "Shards", "Makespan"];
    headers.extend(span::CpCategory::ALL.map(|c| c.name()));
    let mut t = Table::new(
        format!(
            "Critical-path attribution: category shares of the makespan \
             (cluster backend, {} bs128, {WORKERS} workers)",
            trace.name
        ),
        &headers,
    );
    for dm in DmDesign::ALL {
        for shards in SHARDS {
            let backend = BackendSpec::Cluster(shards)
                .builder(WORKERS)
                .picos(&PicosConfig::future(1, dm))
                .build();
            let cfg = SessionConfig {
                trace_spans: true,
                ..SessionConfig::batch()
            };
            let out = backend.run(&trace, cfg).expect("cluster run completes");
            let log = out.spans.as_ref().expect("span tracing was requested");
            let cp = span::critical_path(
                log,
                |task| graph.preds(TaskId::new(task)).to_vec(),
                out.report.makespan,
            )
            .expect("the run finished tasks");
            let attributed: u64 = cp.totals().iter().map(|&(_, v)| v).sum();
            assert_eq!(
                attributed, out.report.makespan,
                "attributed cycles must cover the whole makespan"
            );
            let mut cells = vec![
                dm.name().to_string(),
                shards.to_string(),
                out.report.makespan.to_string(),
            ];
            cells
                .extend(cp.totals().map(|(_, v)| {
                    format!("{:.1}%", v as f64 / out.report.makespan as f64 * 100.0)
                }));
            t.row(cells);
        }
    }
    t.emit("fig_critical_path");
}
