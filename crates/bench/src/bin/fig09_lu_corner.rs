//! Regenerates **Figure 9**: the Lu corner case.
//!
//! Left side: the modified-creation-order Lu ("MLu") where the paper
//! reorders the update tasks so the wake-from-last-consumer policy no
//! longer postpones the critical path. Right side: the original Lu with a
//! LIFO Task Scheduler instead of the default FIFO.

use picos_backend::{BackendSpec, SessionConfig};
use picos_bench::{f2, Table};
use picos_core::{DmDesign, PicosConfig, TsPolicy};
use picos_hil::HilMode;
use picos_trace::gen::{lu, LuConfig};

fn main() {
    let mut t = Table::new(
        "Figure 9: modified Lu (MLu) and LIFO task scheduler (HW-only, 12 workers)",
        &[
            "Workload",
            "BlockSize",
            "TS policy",
            "DM 8way",
            "DM 16way",
            "DM P+8way",
        ],
    );
    for bs in [64u64, 32] {
        for (label, cfg, policy) in [
            ("Lu", LuConfig::paper(bs), TsPolicy::Fifo),
            ("MLu", LuConfig::paper_modified(bs), TsPolicy::Fifo),
            ("Lu", LuConfig::paper(bs), TsPolicy::Lifo),
        ] {
            let tr = lu(cfg);
            let mut cells = vec![
                label.to_string(),
                bs.to_string(),
                format!("{policy:?}").to_uppercase(),
            ];
            for dm in DmDesign::ALL {
                let r = BackendSpec::Picos(HilMode::HwOnly)
                    .builder(12)
                    .picos(&PicosConfig::baseline(dm).with_ts_policy(policy))
                    .build()
                    .run(&tr, SessionConfig::batch())
                    .expect("HW-only run completes")
                    .report;
                cells.push(f2(r.speedup()));
            }
            t.row(cells);
        }
    }
    t.emit("fig09_lu_corner");
}
