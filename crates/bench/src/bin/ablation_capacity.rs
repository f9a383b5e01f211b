//! Ablation beyond the paper: TM / VM capacity sweep.
//!
//! Figure 11's roofline gaps at the finest granularities trace back to the
//! prototype's fixed capacities (256 in-flight tasks, 512 versions). This
//! ablation scales each memory independently to show which one binds per
//! workload — the quantitative backing for the paper's Section V-D remark
//! about "the lack of hardware resources".

use picos_backend::{BackendSpec, SessionConfig};
use picos_bench::{f2, Table};
use picos_core::PicosConfig;
use picos_hil::HilMode;
use picos_trace::gen::App;

fn main() {
    let mut t = Table::new(
        "Ablation: TM/VM capacity sweep (HW-only, 24 workers, DM P+8way)",
        &[
            "App",
            "BlockSize",
            "TM entries",
            "VM entries",
            "DM sets",
            "speedup",
        ],
    );
    for (app, bs) in [(App::Heat, 32), (App::H264dec, 2)] {
        let tr = app.generate(bs);
        for (tm, vm, sets) in [
            (256usize, 512usize, 64usize), // the paper's prototype
            (256, 2048, 64),               // 4x versions
            (1024, 512, 64),               // 4x tasks
            (256, 512, 256),               // 4x DM tags
            (1024, 2048, 256),             // 4x everything
            (4096, 8192, 1024),            // far future
        ] {
            let mut cfg = PicosConfig::balanced();
            cfg.tm_entries = tm;
            cfg.vm_entries = vm;
            cfg.dm_sets = sets;
            let s = BackendSpec::Picos(HilMode::HwOnly)
                .builder(24)
                .picos(&cfg)
                .build()
                .run(&tr, SessionConfig::batch())
                .expect("HW-only run completes")
                .report
                .speedup();
            t.row(vec![
                app.name().to_string(),
                bs.to_string(),
                tm.to_string(),
                vm.to_string(),
                sets.to_string(),
                f2(s),
            ]);
        }
        eprintln!("capacity: {} bs {} done", app.name(), bs);
    }
    t.emit("ablation_capacity");
}
