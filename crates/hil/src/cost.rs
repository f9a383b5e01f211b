//! Cost model of the HIL platform around the Picos core.
//!
//! The paper's embedded system adds two cost layers on top of the raw
//! hardware (Section IV-B and Table IV):
//!
//! * **communication** — each message over the AXI Stream interface takes
//!   "around 200 to 300 cycles"; three messages cross per task (new task in,
//!   ready task out, finished task in), which is why the HW+comm throughput
//!   sits near 740 cycles/task;
//! * **ARM-side software** — in Full-system mode the ARM core creates each
//!   task, packs its dependences, retrieves ready tasks and forwards
//!   finishes, adding roughly 2000 serial cycles per task.

/// Delivery cost model of a serializing link: the AXI Stream bus of the
/// HIL platform and the inter-shard interconnect of the cluster model both
/// follow this discipline (one message at a time, per-flit occupancy, a
/// fixed delivery latency after the slot ends, a one-time setup cost).
///
/// A message of `w` payload words occupies the link for
/// `occupancy * ceil(w / width)` cycles, so `width` is the knob that trades
/// link wires for serialization: a wide link moves a long dependence list
/// in one flit, a narrow one streams it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// Link occupancy per flit (serializes all traffic on the link).
    pub occupancy: u64,
    /// Additional delivery latency after a message's last flit.
    pub latency: u64,
    /// One-time setup before the first message can flow.
    pub setup: u64,
    /// Payload words per flit (`>= 1`).
    pub width: usize,
}

picos_trace::snap_struct!(LinkModel {
    occupancy,
    latency,
    setup,
    width
});

impl LinkModel {
    /// Number of flits a message of `words` payload words occupies.
    pub fn flits(&self, words: usize) -> u64 {
        words.max(1).div_ceil(self.width.max(1)) as u64
    }

    /// Default inter-shard interconnect of the cluster model: an on-board
    /// network an order of magnitude faster than the AXI Stream interface
    /// (which crosses into the processing system), two words per flit.
    pub fn interconnect() -> Self {
        LinkModel {
            occupancy: 8,
            latency: 32,
            setup: 0,
            width: 2,
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::interconnect()
    }
}

/// Per-operation costs of the HIL platform, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilCostModel {
    /// HW-only: TS output to worker start (workers live in the PL).
    pub dispatch: u64,
    /// Bus occupancy per AXI message (serializes all traffic).
    pub axi_occupancy: u64,
    /// Additional delivery latency per AXI message.
    pub axi_latency: u64,
    /// One-time interface setup before the first message can flow.
    pub axi_setup: u64,
    /// Depth of the new-task FIFO visible through status register SR0; the
    /// sender stops when this many submissions are in flight.
    pub sr_queue: usize,
    /// Full-system: one-time ARM-side setup before the first task.
    pub arm_startup: u64,
    /// Full-system: task creation on the ARM core.
    pub arm_create: u64,
    /// Full-system: fixed submission cost when a task has dependences.
    pub arm_submit_base: u64,
    /// Full-system: submission cost per dependence.
    pub arm_submit_per_dep: u64,
    /// Full-system: ready-task retrieval handling.
    pub arm_retrieve: u64,
    /// Full-system: handing a retrieved task to a worker thread.
    pub arm_dispatch: u64,
    /// Full-system: finished-task forwarding.
    pub arm_finish: u64,
}

impl Default for HilCostModel {
    fn default() -> Self {
        HilCostModel {
            dispatch: 3,
            axi_occupancy: 247,
            axi_latency: 30,
            axi_setup: 400,
            sr_queue: 1,
            arm_startup: 700,
            arm_create: 1_100,
            arm_submit_base: 380,
            arm_submit_per_dep: 20,
            arm_retrieve: 300,
            arm_dispatch: 250,
            arm_finish: 350,
        }
    }
}

impl HilCostModel {
    /// The AXI Stream interface as a [`LinkModel`]: single-word flits with
    /// the platform's occupancy/latency/setup costs. The HIL bus and any
    /// other consumer of the AXI discipline build their link from this.
    pub fn axi_link(&self) -> LinkModel {
        LinkModel {
            occupancy: self.axi_occupancy,
            latency: self.axi_latency,
            setup: self.axi_setup,
            width: 1,
        }
    }

    /// ARM-side submission cost for a task with `ndeps` dependences.
    pub fn arm_submit(&self, ndeps: usize) -> u64 {
        if ndeps == 0 {
            0
        } else {
            self.arm_submit_base + self.arm_submit_per_dep * ndeps as u64
        }
    }

    /// The steady-state ARM + bus cost per dependence-free task in
    /// Full-system mode (used by calibration tests).
    pub fn full_system_per_task(&self) -> u64 {
        self.arm_create
            + self.arm_retrieve
            + self.arm_dispatch
            + self.arm_finish
            + 3 * self.axi_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_zero_deps_is_free() {
        let m = HilCostModel::default();
        assert_eq!(m.arm_submit(0), 0);
        assert!(m.arm_submit(1) > 0);
        assert_eq!(
            m.arm_submit(15) - m.arm_submit(1),
            14 * m.arm_submit_per_dep
        );
    }

    #[test]
    fn full_system_magnitude_matches_paper() {
        // Paper Table IV: Full-system thrTask for Case1 is 2729 cycles.
        let m = HilCostModel::default();
        let t = m.full_system_per_task();
        assert!((2_400..3_100).contains(&t), "per-task {t}");
    }

    #[test]
    fn axi_link_mirrors_cost_model() {
        let m = HilCostModel::default();
        let l = m.axi_link();
        assert_eq!(l.occupancy, m.axi_occupancy);
        assert_eq!(l.latency, m.axi_latency);
        assert_eq!(l.setup, m.axi_setup);
        assert_eq!(l.width, 1);
    }

    #[test]
    fn flit_count_respects_width() {
        let l = LinkModel {
            occupancy: 10,
            latency: 0,
            setup: 0,
            width: 4,
        };
        assert_eq!(l.flits(0), 1, "empty payloads still need a header flit");
        assert_eq!(l.flits(1), 1);
        assert_eq!(l.flits(4), 1);
        assert_eq!(l.flits(5), 2);
        assert_eq!(l.flits(16), 4);
        let narrow = LinkModel { width: 0, ..l };
        assert_eq!(narrow.flits(3), 3, "zero width is clamped to one word");
    }

    #[test]
    fn comm_magnitude_matches_paper() {
        // Paper Table IV: HW+comm thrTask is ~740 = 3 AXI messages.
        let m = HilCostModel::default();
        let t = 3 * m.axi_occupancy;
        assert!((700..800).contains(&t), "per-task {t}");
    }
}
