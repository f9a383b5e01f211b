//! Latency/throughput metrics of Table IV.
//!
//! The paper evaluates the processing capacity of the prototype with three
//! numbers per testcase and mode:
//!
//! * **L1st** — the latency of the first task: cycles from the start of the
//!   run until the first task begins executing;
//! * **thrTask** — throughput for additional tasks: the steady-state
//!   execution-start interval between consecutive tasks;
//! * **thrDep** — throughput for additional dependences: `thrTask` divided
//!   by the average number of dependences per task (undefined for
//!   dependence-free streams, printed as `-` in the paper).

//!
//! The extraction itself lives in `picos_metrics` and works on *any*
//! engine's [`ExecReport`](picos_runtime::ExecReport) through
//! `ExecReport::synthetic_metrics(trace.stats().avg_deps())`; this module
//! pins the HIL modes against the paper's magnitudes.

pub use picos_metrics::SyntheticMetrics;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HilConfig, HilMode, HilSession};
    use picos_runtime::{feed_trace, SessionConfig};
    use picos_trace::gen;

    fn metrics(case: gen::Case, mode: HilMode) -> SyntheticMetrics {
        let tr = gen::synthetic(case);
        let mut s = HilSession::new(mode, HilConfig::balanced(12), SessionConfig::batch()).unwrap();
        feed_trace(&mut s, &tr).unwrap();
        let (r, ..) = s.into_output().unwrap();
        r.synthetic_metrics(tr.stats().avg_deps())
    }

    #[test]
    fn case1_hw_only_matches_paper_magnitudes() {
        // Paper: L1st 45, thrTask 15.
        let m = metrics(gen::Case::Case1, HilMode::HwOnly);
        assert!((30..=60).contains(&m.l1st), "L1st {}", m.l1st);
        assert!(
            (12.0..=20.0).contains(&m.thr_task),
            "thrTask {}",
            m.thr_task
        );
        assert!(m.thr_dep.is_none());
    }

    #[test]
    fn case2_hw_only_dep_cost() {
        // Paper: L1st 73, thrTask 24, thrDep 24.
        let m = metrics(gen::Case::Case2, HilMode::HwOnly);
        assert!((55..=95).contains(&m.l1st), "L1st {}", m.l1st);
        assert!(
            (18.0..=32.0).contains(&m.thr_task),
            "thrTask {}",
            m.thr_task
        );
        let d = m.thr_dep.unwrap();
        assert!((18.0..=32.0).contains(&d), "thrDep {d}");
    }

    #[test]
    fn case3_hw_only_pipelines_deps() {
        // Paper: L1st 312, thrTask 243, thrDep 16: the per-dependence cost
        // pipelines down towards the DCT initiation interval.
        let m = metrics(gen::Case::Case3, HilMode::HwOnly);
        assert!((240..=400).contains(&m.l1st), "L1st {}", m.l1st);
        assert!(
            (200.0..=300.0).contains(&m.thr_task),
            "thrTask {}",
            m.thr_task
        );
        let d = m.thr_dep.unwrap();
        assert!((13.0..=20.0).contains(&d), "thrDep {d}");
    }

    #[test]
    fn comm_mode_is_bus_bound() {
        // Paper: thrTask ~740 for every case in HW+comm mode.
        for case in [gen::Case::Case1, gen::Case::Case3, gen::Case::Case7] {
            let m = metrics(case, HilMode::HwComm);
            assert!(
                (650.0..=850.0).contains(&m.thr_task),
                "{case:?}: thrTask {}",
                m.thr_task
            );
        }
    }

    #[test]
    fn full_system_adds_arm_overhead() {
        // Paper: Case1 thrTask 2729, L1st 3879.
        let m = metrics(gen::Case::Case1, HilMode::FullSystem);
        assert!(
            (2_300.0..=3_300.0).contains(&m.thr_task),
            "thrTask {}",
            m.thr_task
        );
        assert!((2_800..=4_800).contains(&m.l1st), "L1st {}", m.l1st);
    }

    #[test]
    fn full_system_thr_dep_drops_with_many_deps() {
        // Paper: Case3 thrDep 228 in Full-system: per-dependence cost is
        // amortized because the ARM-side cost is per task.
        let m1 = metrics(gen::Case::Case2, HilMode::FullSystem);
        let m15 = metrics(gen::Case::Case3, HilMode::FullSystem);
        let d1 = m1.thr_dep.unwrap();
        let d15 = m15.thr_dep.unwrap();
        assert!(d15 < d1 / 5.0, "thrDep must amortize: {d1} vs {d15}");
    }
}
