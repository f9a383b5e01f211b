//! Regenerates **Table IV**: latency and throughput of the synthetic
//! benchmarks under the three HIL modes, 12 workers.

use picos_backend::{ExecBackend, PicosBackend, SessionConfig};
use picos_bench::{f1, Table};
use picos_hil::HilMode;
use picos_trace::gen::{synthetic, Case};

/// One mode's reference row: (L1st, thrTask, thrDep) per synthetic case.
type ModeRow = [(u64, f64, f64); 7];

/// Paper Table IV reference: per mode, per case, (L1st, thrTask, thrDep).
/// `0.0` stands for the paper's `-` (no dependences).
const PAPER: &[(&str, ModeRow)] = &[
    (
        "HW-only",
        [
            (45, 15.0, 0.0),
            (73, 24.0, 24.0),
            (312, 243.0, 16.0),
            (72, 24.0, 24.0),
            (96, 35.0, 18.0),
            (287, 38.0, 19.0),
            (233, 178.0, 16.0),
        ],
    ),
    (
        "HW+comm.",
        [
            (1172, 740.0, 0.0),
            (1174, 740.0, 740.0),
            (1293, 734.0, 49.0),
            (1151, 743.0, 743.0),
            (1158, 743.0, 371.0),
            (1274, 743.0, 372.0),
            (1279, 743.0, 68.0),
        ],
    ),
    (
        "Full-system",
        [
            (3879, 2729.0, 0.0),
            (4240, 3125.0, 3125.0),
            (4710, 3413.0, 228.0),
            (4246, 3124.0, 3124.0),
            (4217, 3168.0, 1584.0),
            (4531, 3165.0, 1583.0),
            (4549, 3379.0, 307.0),
        ],
    ),
];

fn main() {
    let mut t = Table::new(
        "Table IV: synthetic benchmarks, 12 workers — measured (paper)",
        &[
            "Mode", "Metric", "Case1", "Case2", "Case3", "Case4", "Case5", "Case6", "Case7",
        ],
    );
    for (mode, (mode_name, paper)) in HilMode::ALL.into_iter().zip(PAPER) {
        let mut l1st = vec![mode_name.to_string(), "L1st".to_string()];
        let mut thr_t = vec![mode_name.to_string(), "thrTask".to_string()];
        let mut thr_d = vec![mode_name.to_string(), "thrDep".to_string()];
        for (case, p) in Case::ALL.into_iter().zip(paper) {
            let tr = synthetic(case);
            let r = PicosBackend::balanced(mode, 12)
                .run(&tr, SessionConfig::batch())
                .expect("synthetic run completes")
                .report;
            let m = r.synthetic_metrics(tr.stats().avg_deps());
            l1st.push(format!("{} ({})", m.l1st, p.0));
            thr_t.push(format!("{} ({})", f1(m.thr_task), f1(p.1)));
            thr_d.push(match m.thr_dep {
                Some(d) => format!("{} ({})", f1(d), f1(p.2)),
                None => "- (-)".to_string(),
            });
        }
        t.row(l1st);
        t.row(thr_t);
        t.row(thr_d);
    }
    t.emit("table4_synthetic");
}
