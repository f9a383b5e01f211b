//! **Per-unit utilization over time** — the saturation-regime plot the
//! paper's analysis implies but never draws.
//!
//! Table II and the busy-cycle breakdown attribute *total* cycles to the
//! GW/TRS/DCT/ARB/TS units; this figure resolves the same attribution in
//! time: each workload runs on the raw hardware model with a cycle-windowed
//! telemetry timeline attached, across all three DM designs, and the
//! emitted traces show which unit saturates when — the DCT ramping to its
//! initiation-interval ceiling on dependence-heavy phases, the DM/VM
//! occupancy climbing until conflicts throttle the pipeline, the ready
//! buffer backing up when workers are the bottleneck.
//!
//! The sampling window adapts per workload (about [`TARGET_WINDOWS`]
//! samples over the makespan) so a 70-Mcycle Cholesky and a 2-Mcycle
//! stream both produce plot-sized traces. Emits, per workload,
//! `results/fig_utilization_<w>.{csv,json}` and
//! `results/fig_utilization_<w>_timeline.csv` (long format: one row per
//! cell × window × series), plus the combined
//! `results/fig_utilization_summary.{txt,csv}` peak/mean table.
//!
//! Knob: `FIG_UTIL_WINDOWS` — target samples per run (default 200).

use picos_backend::{BackendSpec, SessionConfig, Sweep, Workload};
use picos_bench::{f2, results_dir, Table};
use picos_core::DmDesign;
use picos_hil::HilMode;
use picos_trace::gen::{self, App};
use std::sync::Arc;

/// The per-unit busy-delta series of the core timeline, paper order.
const UNITS: [&str; 5] = [
    "core.busy.gw",
    "core.busy.trs",
    "core.busy.dct",
    "core.busy.arb",
    "core.busy.ts",
];

/// Target sample count per run (the window adapts to the makespan).
const TARGET_WINDOWS: u64 = 200;

fn target_windows() -> u64 {
    std::env::var("FIG_UTIL_WINDOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(TARGET_WINDOWS)
}

fn main() {
    let target = target_windows();
    let stream = Arc::new(gen::stream(gen::StreamConfig::heavy(2_000)));
    let workloads = vec![
        Workload::from_app(App::Cholesky, 256),
        Workload::from_app(App::SparseLu, 128),
        Workload::from_trace("stream", stream),
    ];
    let dir = results_dir();
    let mut table = Table::new(
        "Per-unit utilization over time (HW-only, 8 workers)",
        &[
            "workload",
            "dm",
            "unit",
            "window",
            "peak util",
            "mean util",
            "peak at",
        ],
    );
    for workload in workloads {
        // Size the sampling window off a probe run's makespan so every
        // workload yields about `target` samples regardless of scale.
        let probe = BackendSpec::Picos(HilMode::HwOnly)
            .builder(8)
            .build()
            .run(&workload.trace, SessionConfig::batch())
            .expect("probe run completes")
            .report;
        let window = (probe.makespan / target).max(1);
        let result = Sweep::new([workload.clone()])
            .workers([8])
            .backends([BackendSpec::Picos(HilMode::HwOnly)])
            .dm_designs(DmDesign::ALL)
            .timeline(window)
            .run();
        if let Some(e) = result.first_error() {
            eprintln!("fig_utilization: failing cell: {e}");
            std::process::exit(1);
        }
        for row in result.rows() {
            let tl = row.timeline.as_ref().expect("timeline requested");
            for unit in UNITS {
                let col = tl.column(unit).expect("core series present");
                // Utilization of a window = busy delta / window width; the
                // final partial window normalizes by its own width.
                let mut peak = 0.0f64;
                let mut peak_at = 0u64;
                let mut total_busy = 0u64;
                for (i, &busy) in col.iter().enumerate() {
                    let (start, end, _) = tl.sample(i);
                    let u = busy as f64 / (end - start) as f64;
                    if u > peak {
                        peak = u;
                        peak_at = start;
                    }
                    total_busy += busy;
                }
                let mean = total_busy as f64 / row.makespan.max(1) as f64;
                table.row(vec![
                    row.workload.clone(),
                    row.dm.name().replace(' ', "-"),
                    unit.trim_start_matches("core.busy.").to_string(),
                    window.to_string(),
                    f2(peak),
                    f2(mean),
                    peak_at.to_string(),
                ]);
            }
        }
        let name = format!("fig_utilization_{}", result.rows()[0].workload);
        if let Err(e) = result.write_files(&dir, &name) {
            eprintln!("fig_utilization: writing results: {e}");
            std::process::exit(1);
        }
    }
    table.emit("fig_utilization_summary");
    println!("wrote {}/fig_utilization_*.{{csv,json}}", dir.display());
}
