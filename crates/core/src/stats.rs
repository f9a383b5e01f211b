//! Aggregate statistics of a Picos run.
//!
//! [`Stats`] is the flat, field-addressable view the hot path increments;
//! its vocabulary — which fields are monotone totals and which are
//! high-water marks — lives in one table ([`Stats::FIELDS`]) shared with
//! the [`picos_metrics::MetricSet`] registry view, so merge semantics can
//! never drift between the struct and the registry.

use picos_metrics::{MergeRule, MetricSet};

/// Inclusive bucket bounds of the DM version-chain-length histogram
/// (chain depth observed after each successful dependence registration).
pub const DM_CHAIN_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Inclusive bucket bounds of the TRS wake-to-ready latency histogram:
/// cycles from the delivery of the message that ultimately readied a task
/// to the TRS finishing the readiness service (queueing included).
pub const TRS_WAKE_BOUNDS: [u64; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Bucket index of an observation under inclusive upper `bounds` (the
/// last bucket is the overflow bucket).
#[inline]
pub fn hist_bucket(bounds: &[u64], v: u64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// Counters and high-water marks collected by the engine.
///
/// `dm_conflicts` is the paper's Table II metric: the number of dependences
/// that found their DM set full and had to stall.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Tasks accepted by the Gateway.
    pub tasks_submitted: u64,
    /// Tasks whose finish was fully processed.
    pub tasks_completed: u64,
    /// Dependences registered by all DCTs.
    pub deps_processed: u64,
    /// Dependences that stalled on a full DM set (Table II).
    pub dm_conflicts: u64,
    /// Dependences that stalled on a full VM.
    pub vm_stalls: u64,
    /// New tasks the GW could not take because no TM slot was free.
    pub tm_stalls: u64,
    /// Wake packets sent by DCTs.
    pub wakes_sent: u64,
    /// Chain wake-ups forwarded backwards by TRS units.
    pub chain_wakes: u64,
    /// Peak in-flight tasks over all TRS instances.
    pub peak_in_flight: usize,
    /// Peak live DM entries over all DCT instances.
    pub peak_dm_live: usize,
    /// Peak live VM entries over all DCT instances.
    pub peak_vm_live: usize,
    /// Peak occupancy of the ready-task output buffer.
    pub peak_ready: usize,
    /// Busy cycles of the Gateway (new-task + finished ports).
    pub busy_gw: u64,
    /// Busy cycles summed over all TRS instances.
    pub busy_trs: u64,
    /// Busy cycles summed over all DCT instances (both ports).
    pub busy_dct: u64,
    /// Busy cycles of the Arbiter.
    pub busy_arb: u64,
    /// Busy cycles of the Task Scheduler.
    pub busy_ts: u64,
    /// Cycles the Gateway's new-task port spent blocked on a free TM slot
    /// (the blocked-on-whom refinement of the `tm_stalls` event count).
    pub gw_wait_tm: u64,
    /// Cycles DCT new-dependence queue heads spent blocked on a DM way.
    pub dct_wait_dm: u64,
    /// Cycles DCT new-dependence queue heads spent blocked on a VM entry.
    pub dct_wait_vm: u64,
    /// DM version-chain depth per registration, bucketed by
    /// [`DM_CHAIN_BOUNDS`] (+1 overflow bucket).
    pub dm_chain_hist: [u64; DM_CHAIN_BOUNDS.len() + 1],
    /// TRS wake-to-ready latency per readied task, bucketed by
    /// [`TRS_WAKE_BOUNDS`] (+1 overflow bucket).
    pub trs_wake_hist: [u64; TRS_WAKE_BOUNDS.len() + 1],
}

/// Field accessor table: name, merge rule, getter, setter. One row per
/// [`Stats`] field, in declaration order.
type FieldRow = (
    &'static str,
    MergeRule,
    fn(&Stats) -> u64,
    fn(&mut Stats, u64),
);

impl Stats {
    /// The metric vocabulary of a Picos run: every field with its name and
    /// merge rule. Totals (task/dependence counts, stalls, busy cycles)
    /// merge by sum; `peak_*` high-water marks merge by max — peaks
    /// observed on different shards at different times must not be added.
    pub const FIELDS: [FieldRow; 20] = [
        (
            "tasks_submitted",
            MergeRule::Sum,
            |s| s.tasks_submitted,
            |s, v| s.tasks_submitted = v,
        ),
        (
            "tasks_completed",
            MergeRule::Sum,
            |s| s.tasks_completed,
            |s, v| s.tasks_completed = v,
        ),
        (
            "deps_processed",
            MergeRule::Sum,
            |s| s.deps_processed,
            |s, v| s.deps_processed = v,
        ),
        (
            "dm_conflicts",
            MergeRule::Sum,
            |s| s.dm_conflicts,
            |s, v| s.dm_conflicts = v,
        ),
        (
            "vm_stalls",
            MergeRule::Sum,
            |s| s.vm_stalls,
            |s, v| s.vm_stalls = v,
        ),
        (
            "tm_stalls",
            MergeRule::Sum,
            |s| s.tm_stalls,
            |s, v| s.tm_stalls = v,
        ),
        (
            "wakes_sent",
            MergeRule::Sum,
            |s| s.wakes_sent,
            |s, v| s.wakes_sent = v,
        ),
        (
            "chain_wakes",
            MergeRule::Sum,
            |s| s.chain_wakes,
            |s, v| s.chain_wakes = v,
        ),
        (
            "peak_in_flight",
            MergeRule::Max,
            |s| s.peak_in_flight as u64,
            |s, v| s.peak_in_flight = v as usize,
        ),
        (
            "peak_dm_live",
            MergeRule::Max,
            |s| s.peak_dm_live as u64,
            |s, v| s.peak_dm_live = v as usize,
        ),
        (
            "peak_vm_live",
            MergeRule::Max,
            |s| s.peak_vm_live as u64,
            |s, v| s.peak_vm_live = v as usize,
        ),
        (
            "peak_ready",
            MergeRule::Max,
            |s| s.peak_ready as u64,
            |s, v| s.peak_ready = v as usize,
        ),
        (
            "busy_gw",
            MergeRule::Sum,
            |s| s.busy_gw,
            |s, v| s.busy_gw = v,
        ),
        (
            "busy_trs",
            MergeRule::Sum,
            |s| s.busy_trs,
            |s, v| s.busy_trs = v,
        ),
        (
            "busy_dct",
            MergeRule::Sum,
            |s| s.busy_dct,
            |s, v| s.busy_dct = v,
        ),
        (
            "busy_arb",
            MergeRule::Sum,
            |s| s.busy_arb,
            |s, v| s.busy_arb = v,
        ),
        (
            "busy_ts",
            MergeRule::Sum,
            |s| s.busy_ts,
            |s, v| s.busy_ts = v,
        ),
        (
            "gw_wait_tm",
            MergeRule::Sum,
            |s| s.gw_wait_tm,
            |s, v| s.gw_wait_tm = v,
        ),
        (
            "dct_wait_dm",
            MergeRule::Sum,
            |s| s.dct_wait_dm,
            |s, v| s.dct_wait_dm = v,
        ),
        (
            "dct_wait_vm",
            MergeRule::Sum,
            |s| s.dct_wait_vm,
            |s, v| s.dct_wait_vm = v,
        ),
    ];

    /// Accumulates another instance's counters into `self` by each field's
    /// [`MergeRule`]: totals sum, peaks take the maximum.
    ///
    /// This is the aggregation for *concurrent* systems — the per-shard
    /// statistics of a clustered configuration. A one-shard cluster's
    /// merged stats equal the single system's stats (merging into the
    /// zeroed default is the identity under both rules). For peaks the max
    /// is itself conservative — shard peaks need not coincide in time —
    /// but unlike the old element-wise sum it never reports an occupancy
    /// that no memory ever held.
    pub fn merge(&mut self, other: &Stats) {
        for (_, rule, get, set) in Self::FIELDS {
            set(self, rule.apply(get(self), get(other)));
        }
        // Histogram buckets are observation counts, so they sum (the
        // `FieldRow` table is scalar-only; the array-valued fields
        // merge here).
        for (a, b) in self.dm_chain_hist.iter_mut().zip(other.dm_chain_hist) {
            *a += b;
        }
        for (a, b) in self.trs_wake_hist.iter_mut().zip(other.trs_wake_hist) {
            *a += b;
        }
    }

    /// The registry view of these counters: one metric per field, under
    /// the shared names and merge rules of [`Stats::FIELDS`]. Peaks become
    /// gauges (peak-only; the live value is a timeline concern), totals
    /// become counters.
    pub fn metric_set(&self) -> MetricSet {
        let mut set = MetricSet::new();
        for (name, rule, get, _) in Self::FIELDS {
            match rule {
                MergeRule::Sum => {
                    set.counter(name, get(self), MergeRule::Sum);
                }
                MergeRule::Max => {
                    set.gauge(name, get(self), get(self));
                }
            }
        }
        set.histogram_counts(
            "dm_chain_len",
            DM_CHAIN_BOUNDS.to_vec(),
            self.dm_chain_hist.to_vec(),
        );
        set.histogram_counts(
            "trs_wake_latency",
            TRS_WAKE_BOUNDS.to_vec(),
            self.trs_wake_hist.to_vec(),
        );
        set
    }

    /// Utilization of a unit class over a run of `makespan` cycles,
    /// normalized per instance.
    pub fn utilization(busy: u64, makespan: u64, instances: usize) -> f64 {
        if makespan == 0 || instances == 0 {
            0.0
        } else {
            busy as f64 / makespan as f64 / instances as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = Stats::default();
        assert_eq!(s.tasks_submitted, 0);
        assert_eq!(s.dm_conflicts, 0);
        assert_eq!(s.peak_ready, 0);
        assert_eq!(s.busy_gw, 0);
    }

    fn sample(scale: u64) -> Stats {
        let mut s = Stats::default();
        for (i, (_, _, _, set)) in Stats::FIELDS.iter().enumerate() {
            set(&mut s, (i as u64 + 1) * scale);
        }
        s
    }

    #[test]
    fn merge_adds_totals_and_maxes_peaks() {
        let mut a = Stats {
            tasks_submitted: 1,
            dm_conflicts: 2,
            peak_ready: 3,
            busy_dct: 4,
            ..Stats::default()
        };
        let b = Stats {
            tasks_submitted: 10,
            dm_conflicts: 20,
            peak_ready: 30,
            busy_dct: 40,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_submitted, 11);
        assert_eq!(a.dm_conflicts, 22);
        assert_eq!(a.peak_ready, 30, "peaks take the max, never the sum");
        assert_eq!(a.busy_dct, 44);
    }

    #[test]
    fn one_shard_merge_is_the_identity() {
        // The documented invariant: merging a single system's stats into
        // the zeroed default reproduces them exactly, so a one-shard
        // cluster reports the single system's counters bit-for-bit.
        let b = sample(7);
        let mut c = Stats::default();
        c.merge(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn merge_agrees_with_metric_set_merge() {
        // The struct merge and the registry merge share one rule table;
        // pin that they cannot drift.
        let mut a = sample(3);
        let b = sample(5);
        let mut view = a.metric_set();
        view.merge(&b.metric_set());
        a.merge(&b);
        for (name, _, get, _) in Stats::FIELDS {
            assert_eq!(view.value(name), Some(get(&a)), "{name}");
        }
        assert_eq!(view.len(), Stats::FIELDS.len() + 2, "plus two histograms");
    }

    #[test]
    fn histograms_sum_under_both_merges() {
        let mut a = Stats::default();
        a.dm_chain_hist[0] = 3;
        a.trs_wake_hist[2] = 1;
        let mut b = Stats::default();
        b.dm_chain_hist[0] = 4;
        b.trs_wake_hist[2] = 5;
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.dm_chain_hist[0], 7);
        assert_eq!(m.trs_wake_hist[2], 6);
        // The registry view carries the same buckets.
        let view = m.metric_set();
        let picos_metrics::MetricValue::Histogram { bounds, counts } =
            &view.get("dm_chain_len").expect("registered").value
        else {
            panic!("dm_chain_len must be a histogram");
        };
        assert_eq!(bounds, &DM_CHAIN_BOUNDS.to_vec());
        assert_eq!(counts[0], 7);
    }

    #[test]
    fn hist_bucket_respects_inclusive_bounds() {
        assert_eq!(hist_bucket(&DM_CHAIN_BOUNDS, 1), 0);
        assert_eq!(hist_bucket(&DM_CHAIN_BOUNDS, 2), 1);
        assert_eq!(hist_bucket(&DM_CHAIN_BOUNDS, 3), 2);
        assert_eq!(hist_bucket(&DM_CHAIN_BOUNDS, 32), 5);
        assert_eq!(hist_bucket(&DM_CHAIN_BOUNDS, 33), 6, "overflow bucket");
    }

    #[test]
    fn utilization_math() {
        assert_eq!(Stats::utilization(50, 100, 1), 0.5);
        assert_eq!(Stats::utilization(100, 100, 2), 0.5);
        assert_eq!(Stats::utilization(10, 0, 1), 0.0);
    }
}
