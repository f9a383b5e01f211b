//! Golden timing snapshots: cycle-exact pins of the discrete-event core.
//!
//! Every row pins the makespan and the key hardware counters of one
//! workload × DM-design cell under `PicosConfig::baseline`. The table was
//! captured from the engine *before* the timing-wheel rewrite, so these
//! tests prove the rewritten event core is cycle-identical to the original
//! `BinaryHeap` + `schedule_all` engine — and they fail loudly on any
//! future change that silently shifts cycle counts.
//!
//! Regenerate (after an *intentional* timing change) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_timing -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN` table below.

use picos_backend::{ExecBackend, PicosBackend, SessionConfig};
use picos_core::{DmDesign, FinishedReq, PicosConfig, PicosSystem, Stats};
use picos_hil::{HilConfig, HilMode};
use picos_trace::{gen, TaskGraph, Trace};

/// One pinned cell: workload label, DM design, makespan, counters.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    workload: &'static str,
    dm: DmDesign,
    makespan: u64,
    deps_processed: u64,
    dm_conflicts: u64,
    vm_stalls: u64,
    tm_stalls: u64,
    wakes_sent: u64,
    chain_wakes: u64,
    peak_ready: usize,
    peak_in_flight: usize,
    busy_gw: u64,
    busy_trs: u64,
    busy_dct: u64,
    busy_arb: u64,
    busy_ts: u64,
}

impl Golden {
    fn capture(workload: &'static str, dm: DmDesign, makespan: u64, s: &Stats) -> Self {
        Golden {
            workload,
            dm,
            makespan,
            deps_processed: s.deps_processed,
            dm_conflicts: s.dm_conflicts,
            vm_stalls: s.vm_stalls,
            tm_stalls: s.tm_stalls,
            wakes_sent: s.wakes_sent,
            chain_wakes: s.chain_wakes,
            peak_ready: s.peak_ready,
            peak_in_flight: s.peak_in_flight,
            busy_gw: s.busy_gw,
            busy_trs: s.busy_trs,
            busy_dct: s.busy_dct,
            busy_arb: s.busy_arb,
            busy_ts: s.busy_ts,
        }
    }

    fn print_row(&self) {
        println!(
            "    g({:?}, DmDesign::{:?}, {}, &[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]),",
            self.workload,
            self.dm,
            self.makespan,
            self.deps_processed,
            self.dm_conflicts,
            self.vm_stalls,
            self.tm_stalls,
            self.wakes_sent,
            self.chain_wakes,
            self.peak_ready,
            self.peak_in_flight,
            self.busy_gw,
            self.busy_trs,
            self.busy_dct,
            self.busy_arb,
            self.busy_ts
        );
    }
}

/// Compact golden-row constructor so the pinned table stays readable.
fn g(workload: &'static str, dm: DmDesign, makespan: u64, c: &[u64; 13]) -> Golden {
    Golden {
        workload,
        dm,
        makespan,
        deps_processed: c[0],
        dm_conflicts: c[1],
        vm_stalls: c[2],
        tm_stalls: c[3],
        wakes_sent: c[4],
        chain_wakes: c[5],
        peak_ready: c[6] as usize,
        peak_in_flight: c[7] as usize,
        busy_gw: c[8],
        busy_trs: c[9],
        busy_dct: c[10],
        busy_arb: c[11],
        busy_ts: c[12],
    }
}

/// Runs a trace through the bare engine with instant workers; returns the
/// final simulation time, the stats, and the execution order.
fn run_engine(cfg: PicosConfig, trace: &Trace) -> (u64, Stats, Vec<u32>) {
    let mut sys = PicosSystem::new(cfg);
    sys.submit_all(trace);
    let mut order = Vec::with_capacity(trace.len());
    sys.run_to_quiescence(200_000_000, |r| {
        order.push(r.task.raw());
        Some(FinishedReq {
            task: r.task,
            slot: r.slot,
        })
    })
    .expect("golden run must complete");
    (sys.now(), sys.stats(), order)
}

fn current_rows() -> Vec<Golden> {
    let mut rows = Vec::new();
    // Bare engine, instant workers: all seven synthetic cases.
    for case in gen::Case::ALL {
        let trace = gen::synthetic(case);
        let graph = TaskGraph::build(&trace);
        for dm in DmDesign::ALL {
            let label: &'static str = match case {
                gen::Case::Case1 => "case1",
                gen::Case::Case2 => "case2",
                gen::Case::Case3 => "case3",
                gen::Case::Case4 => "case4",
                gen::Case::Case5 => "case5",
                gen::Case::Case6 => "case6",
                gen::Case::Case7 => "case7",
            };
            let (makespan, stats, order) = run_engine(PicosConfig::baseline(dm), &trace);
            assert_eq!(order.len(), trace.len(), "{label} {dm} incomplete");
            assert!(graph.is_topological(&order), "{label} {dm} order illegal");
            rows.push(Golden::capture(label, dm, makespan, &stats));
        }
    }
    // Full HIL platform (HW-only): the two apps the acceptance pins.
    let apps: [(&'static str, Trace); 2] = [
        (
            "cholesky256",
            gen::cholesky(gen::CholeskyConfig::paper(256)),
        ),
        (
            "sparselu128",
            gen::sparselu(gen::SparseLuConfig::paper(128)),
        ),
    ];
    for (label, trace) in &apps {
        for dm in DmDesign::ALL {
            let hil = PicosBackend {
                mode: HilMode::HwOnly,
                cfg: HilConfig {
                    picos: PicosConfig::baseline(dm),
                    ..HilConfig::balanced(12)
                },
            };
            let out = hil
                .run(trace, SessionConfig::batch())
                .expect("HIL run completes");
            let (report, stats) = (out.report, out.stats.expect("HIL reports counters"));
            report.validate(trace).expect("order must be legal");
            rows.push(Golden::capture(label, dm, report.makespan, &stats));
        }
    }
    rows
}

fn golden_rows() -> Vec<Golden> {
    vec![
        // ===== BEGIN GOLDEN TABLE (captured pre-rewrite) =====
        g(
            "case1",
            DmDesign::EightWay,
            1522,
            &[0, 0, 0, 0, 0, 0, 1, 3, 1600, 1300, 0, 0, 400],
        ),
        g(
            "case1",
            DmDesign::SixteenWay,
            1522,
            &[0, 0, 0, 0, 0, 0, 1, 3, 1600, 1300, 0, 0, 400],
        ),
        g(
            "case1",
            DmDesign::PearsonEightWay,
            1522,
            &[0, 0, 0, 0, 0, 0, 1, 3, 1600, 1300, 0, 0, 400],
        ),
        g(
            "case2",
            DmDesign::EightWay,
            2439,
            &[100, 0, 0, 0, 0, 0, 1, 36, 1700, 1800, 2600, 200, 400],
        ),
        g(
            "case2",
            DmDesign::SixteenWay,
            2439,
            &[100, 0, 0, 0, 0, 0, 1, 36, 1700, 1800, 2600, 200, 400],
        ),
        g(
            "case2",
            DmDesign::PearsonEightWay,
            2439,
            &[100, 0, 0, 0, 0, 0, 1, 36, 1700, 1800, 2600, 200, 400],
        ),
        g(
            "case3",
            DmDesign::EightWay,
            24881,
            &[1500, 0, 0, 0, 0, 0, 1, 89, 3100, 8800, 27800, 3000, 400],
        ),
        g(
            "case3",
            DmDesign::SixteenWay,
            24881,
            &[1500, 0, 0, 0, 0, 0, 1, 89, 3100, 8800, 27800, 3000, 400],
        ),
        g(
            "case3",
            DmDesign::PearsonEightWay,
            24881,
            &[1500, 0, 0, 0, 0, 0, 1, 89, 3100, 8800, 27800, 3000, 400],
        ),
        g(
            "case4",
            DmDesign::EightWay,
            2668,
            &[100, 0, 0, 0, 99, 0, 1, 56, 1700, 1899, 2600, 299, 400],
        ),
        g(
            "case4",
            DmDesign::SixteenWay,
            2668,
            &[100, 0, 0, 0, 99, 0, 1, 56, 1700, 1899, 2600, 299, 400],
        ),
        g(
            "case4",
            DmDesign::PearsonEightWay,
            2668,
            &[100, 0, 0, 0, 99, 0, 1, 56, 1700, 1899, 2600, 299, 400],
        ),
        g(
            "case5",
            DmDesign::EightWay,
            4442,
            &[220, 0, 0, 0, 10, 0, 1, 65, 1980, 2540, 4840, 450, 440],
        ),
        g(
            "case5",
            DmDesign::SixteenWay,
            4442,
            &[220, 0, 0, 0, 10, 0, 1, 65, 1980, 2540, 4840, 450, 440],
        ),
        g(
            "case5",
            DmDesign::PearsonEightWay,
            4442,
            &[220, 0, 0, 0, 10, 0, 1, 65, 1980, 2540, 4840, 450, 440],
        ),
        g(
            "case6",
            DmDesign::EightWay,
            4279,
            &[210, 0, 0, 0, 21, 0, 1, 66, 1970, 2501, 4660, 441, 440],
        ),
        g(
            "case6",
            DmDesign::SixteenWay,
            4279,
            &[210, 0, 0, 0, 21, 0, 1, 66, 1970, 2501, 4660, 441, 440],
        ),
        g(
            "case6",
            DmDesign::PearsonEightWay,
            4279,
            &[210, 0, 0, 0, 21, 0, 1, 66, 1970, 2501, 4660, 441, 440],
        ),
        g(
            "case7",
            DmDesign::EightWay,
            18469,
            &[1100, 0, 0, 0, 0, 0, 1, 87, 2700, 6800, 20600, 2200, 400],
        ),
        g(
            "case7",
            DmDesign::SixteenWay,
            18469,
            &[1100, 0, 0, 0, 0, 0, 1, 87, 2700, 6800, 20600, 2200, 400],
        ),
        g(
            "case7",
            DmDesign::PearsonEightWay,
            18469,
            &[1100, 0, 0, 0, 0, 0, 1, 87, 2700, 6800, 20600, 2200, 400],
        ),
        g(
            "cholesky256",
            DmDesign::EightWay,
            111475201,
            &[288, 3, 0, 0, 105, 127, 13, 120, 2208, 3232, 6144, 808, 480],
        ),
        g(
            "cholesky256",
            DmDesign::SixteenWay,
            115934211,
            &[288, 0, 0, 0, 119, 133, 16, 120, 2208, 3252, 6144, 828, 480],
        ),
        g(
            "cholesky256",
            DmDesign::PearsonEightWay,
            115934211,
            &[288, 0, 0, 0, 119, 133, 16, 120, 2208, 3252, 6144, 828, 480],
        ),
        g(
            "sparselu128",
            DmDesign::EightWay,
            98735531,
            &[
                1304, 83, 0, 136, 173, 301, 9, 256, 9112, 13338, 27376, 3082, 1952,
            ],
        ),
        g(
            "sparselu128",
            DmDesign::SixteenWay,
            108422939,
            &[
                1304, 41, 0, 83, 373, 596, 34, 256, 9112, 13833, 27376, 3577, 1952,
            ],
        ),
        g(
            "sparselu128",
            DmDesign::PearsonEightWay,
            113639359,
            &[
                1304, 0, 0, 48, 487, 673, 52, 256, 9112, 14024, 27376, 3768, 1952,
            ],
        ),
        // ===== END GOLDEN TABLE =====
    ]
}

#[test]
fn timing_matches_pre_rewrite_golden_snapshots() {
    let current = current_rows();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for row in &current {
            row.print_row();
        }
        return;
    }
    let golden = golden_rows();
    assert_eq!(
        current.len(),
        golden.len(),
        "row count drifted; regenerate with GOLDEN_PRINT=1"
    );
    for (c, g) in current.iter().zip(&golden) {
        assert_eq!(c, g, "cycle counts shifted for {} / {}", g.workload, g.dm);
    }
}
