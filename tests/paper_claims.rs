//! The paper's headline claims, encoded as integration tests. Each test
//! names the section/figure it reproduces; thresholds are deliberately
//! loose (we reproduce shapes, not testbed-exact numbers).

use picos_repro::prelude::*;

/// Figure 1 / Section I: for a constant problem size, the software-only
/// runtime's speedup first rises with decreasing block size, then collapses
/// once overhead outweighs the parallelism gain.
#[test]
fn fig1_software_rises_then_collapses() {
    let s = |bs| {
        SoftwareBackend::with_workers(12)
            .run(
                &gen::cholesky(gen::CholeskyConfig::paper(bs)),
                SessionConfig::batch(),
            )
            .unwrap()
            .report
            .speedup()
    };
    let (s256, s128, s32) = (s(256), s(128), s(32));
    assert!(s128 > s256, "rise: {s128} vs {s256}");
    assert!(s32 < s128 / 3.0, "collapse: {s32} vs {s128}");
}

/// Section V-D (Figure 11): for fine-grained tasks Picos greatly outperforms
/// the software runtime, and keeps scaling where Nanos++ degrades.
#[test]
fn fig11_picos_beats_nanos_on_fine_grain() {
    for (app, bs) in [
        (gen::App::Cholesky, 32),
        (gen::App::SparseLu, 32),
        (gen::App::Heat, 32),
    ] {
        let trace = app.generate(bs);
        let picos = PicosBackend::balanced(HilMode::FullSystem, 12)
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .report
            .speedup();
        let nanos = SoftwareBackend::with_workers(12)
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .report
            .speedup();
        assert!(
            picos > 2.0 * nanos,
            "{app} bs {bs}: picos {picos:.2} vs nanos {nanos:.2}"
        );
    }
}

/// Section V-D: Nanos++ scales up to ~8 workers then degrades; Picos keeps
/// advancing (SparseLu at block size 64, the paper's example).
#[test]
fn fig11_nanos_degrades_after_8_workers() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(32));
    let nanos8 = SoftwareBackend::with_workers(8)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report
        .speedup();
    let nanos24 = SoftwareBackend::with_workers(24)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report
        .speedup();
    assert!(
        nanos24 < nanos8,
        "nanos must degrade beyond 8 workers: {nanos8} -> {nanos24}"
    );
    let picos8 = PicosBackend::balanced(HilMode::FullSystem, 8)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report
        .speedup();
    let picos16 = PicosBackend::balanced(HilMode::FullSystem, 16)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report
        .speedup();
    assert!(
        picos16 > picos8,
        "picos must keep scaling: {picos8} -> {picos16}"
    );
}

/// Section V-A (Figure 8): on Heat's clustered addresses the direct-hash
/// designs do not scale from 2 to 12 workers while Pearson does.
#[test]
fn fig8_direct_hash_flat_on_heat() {
    let trace = gen::heat(gen::HeatConfig::paper(64));
    let speed = |dm, w| {
        BackendSpec::Picos(HilMode::HwOnly)
            .builder(w)
            .picos(&PicosConfig::baseline(dm))
            .build()
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .report
            .speedup()
    };
    let d2 = speed(DmDesign::EightWay, 2);
    let d12 = speed(DmDesign::EightWay, 12);
    assert!(d12 < d2 * 2.0, "8way must not scale: {d2} -> {d12}");
    let p2 = speed(DmDesign::PearsonEightWay, 2);
    let p12 = speed(DmDesign::PearsonEightWay, 12);
    assert!(p12 > p2 * 2.5, "pearson must scale: {p2} -> {p12}");
}

/// Table II: conflict ordering 8way >= 16way >> P+8way on the clustered
/// benchmarks.
#[test]
fn table2_conflict_ordering() {
    let trace = gen::heat(gen::HeatConfig::paper(128));
    let conflicts = |dm| {
        BackendSpec::Picos(HilMode::HwOnly)
            .builder(12)
            .picos(&PicosConfig::baseline(dm))
            .build()
            .run(&trace, SessionConfig::batch())
            .unwrap()
            .stats
            .unwrap()
            .dm_conflicts
    };
    let c8 = conflicts(DmDesign::EightWay);
    let c16 = conflicts(DmDesign::SixteenWay);
    let cp = conflicts(DmDesign::PearsonEightWay);
    assert!(c8 >= c16, "8way {c8} >= 16way {c16}");
    assert!(cp * 5 < c8, "pearson {cp} must be far below 8way {c8}");
}

/// Section V-A: the Lu corner case — with FIFO scheduling, DM 16way beats
/// DM P+8way on the original Lu; MLu (modified creation order) and LIFO
/// both restore P+8way's advantage (Figure 9).
#[test]
fn fig9_lu_corner_case_and_fixes() {
    let lu = gen::lu(gen::LuConfig::paper(32));
    let mlu = gen::lu(gen::LuConfig::paper_modified(32));
    let speed = |trace: &Trace, dm, policy| {
        BackendSpec::Picos(HilMode::HwOnly)
            .builder(12)
            .picos(&PicosConfig::baseline(dm).with_ts_policy(policy))
            .build()
            .run(trace, SessionConfig::batch())
            .unwrap()
            .report
            .speedup()
    };
    // The corner case: 16way > P+8way on plain Lu with FIFO.
    let lu_16 = speed(&lu, DmDesign::SixteenWay, TsPolicy::Fifo);
    let lu_p8 = speed(&lu, DmDesign::PearsonEightWay, TsPolicy::Fifo);
    assert!(
        lu_16 > lu_p8,
        "corner case: 16way {lu_16} vs P+8way {lu_p8}"
    );
    // Fix 1: MLu restores P+8way.
    let mlu_p8 = speed(&mlu, DmDesign::PearsonEightWay, TsPolicy::Fifo);
    assert!(mlu_p8 > lu_p8, "MLu must help P+8way: {mlu_p8} vs {lu_p8}");
    // Fix 2: LIFO restores P+8way on the original Lu.
    let lu_p8_lifo = speed(&lu, DmDesign::PearsonEightWay, TsPolicy::Lifo);
    assert!(
        lu_p8_lifo > lu_p8,
        "LIFO must help: {lu_p8_lifo} vs {lu_p8}"
    );
}

/// Table IV structure: the three HIL modes are strictly ordered in cost,
/// and the Full-system throughput is dominated by ARM+communication, making
/// per-dependence cost amortize for many-dependence tasks.
#[test]
fn table4_mode_ordering_and_amortization() {
    let case3 = gen::synthetic(gen::Case::Case3);
    let run = |mode| {
        PicosBackend::balanced(mode, 12)
            .run(&case3, SessionConfig::batch())
            .unwrap()
            .report
    };
    let hw = run(HilMode::HwOnly);
    let comm = run(HilMode::HwComm);
    let full = run(HilMode::FullSystem);
    let avg = case3.stats().avg_deps();
    let m_hw = hw.synthetic_metrics(avg);
    let m_comm = comm.synthetic_metrics(avg);
    let m_full = full.synthetic_metrics(avg);
    assert!(m_hw.thr_task < m_comm.thr_task);
    assert!(m_comm.thr_task < m_full.thr_task);
    // thrDep for 15-dep tasks amortizes to near the DCT interval in HW-only
    // and stays far below the per-task cost in Full-system.
    assert!(m_hw.thr_dep.unwrap() < 25.0);
    assert!(m_full.thr_dep.unwrap() < m_full.thr_task / 10.0);
}

/// Section V-B / Table III: Pearson adds little cost to the 8-way DM while
/// the 16-way DM nearly doubles the block-RAM budget; the full design fits
/// comfortably on the XC7Z020.
#[test]
fn table3_resource_story() {
    let dm8 = picos_repro::resources::dm_resources(DmDesign::EightWay, 64);
    let dmp = picos_repro::resources::dm_resources(DmDesign::PearsonEightWay, 64);
    let dm16 = picos_repro::resources::dm_resources(DmDesign::SixteenWay, 64);
    assert!(dmp.bram36 <= dm8.bram36 + 3);
    assert!(dm16.bram36 as f64 >= 1.6 * dm8.bram36 as f64);
    let full = full_picos_resources(&PicosConfig::balanced());
    let (lut, ff, bram) = full.percent_of(XC7Z020);
    assert!(lut < 10.0 && ff < 3.0 && bram < 25.0);
}

/// Section VI ("main lessons"): the way data is exchanged with the
/// accelerator matters — the communication layer costs more than the raw
/// dependence management (HW+comm >> HW-only per task), and the software
/// side dominates end to end (Full-system >> HW+comm).
#[test]
fn lessons_transfer_overhead_dominates() {
    let case2 = gen::synthetic(gen::Case::Case2);
    let avg = case2.stats().avg_deps();
    let metrics = |mode| {
        PicosBackend::balanced(mode, 12)
            .run(&case2, SessionConfig::batch())
            .unwrap()
            .report
            .synthetic_metrics(avg)
    };
    let m_hw = metrics(HilMode::HwOnly);
    let m_comm = metrics(HilMode::HwComm);
    let m_full = metrics(HilMode::FullSystem);
    assert!(
        m_comm.thr_task > 10.0 * m_hw.thr_task,
        "communication must dwarf hardware time: {} vs {}",
        m_comm.thr_task,
        m_hw.thr_task
    );
    assert!(
        m_full.thr_task > 3.0 * m_comm.thr_task,
        "software must dwarf communication: {} vs {}",
        m_full.thr_task,
        m_comm.thr_task
    );
}

/// The prototype headline: "able to manage up to 256 in-flight tasks with
/// up to 15 dependences each".
#[test]
fn headline_capacities() {
    let cfg = PicosConfig::balanced();
    assert_eq!(cfg.in_flight_capacity(), 256);
    assert_eq!(cfg.max_deps_per_task, 15);
    // A trace exercising both limits completes.
    let mut trace = Trace::new("capacity");
    let k = picos_repro::trace::KernelClass::GENERIC;
    for i in 0..300u64 {
        let deps: Vec<_> = (0..15)
            .map(|d| Dependence::input(0x100000 + (i * 15 + d) * 8))
            .collect();
        trace.push(k, deps, 10);
    }
    let r = PicosBackend::balanced(HilMode::HwOnly, 12)
        .run(&trace, SessionConfig::batch())
        .unwrap()
        .report;
    assert_eq!(r.order.len(), 300);
}
