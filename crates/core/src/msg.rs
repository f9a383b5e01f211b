//! Packet types exchanged between the Picos units.
//!
//! These mirror the packets of the paper's operational flow (Section III-B):
//! new-task and dependence packets on the N1-N6 path, finished and wake-up
//! packets on the F1-F4 path.

use picos_trace::{Dependence, TaskId};

/// A Task Memory slot: which TRS instance and which TM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotRef {
    /// TRS instance index.
    pub trs: u8,
    /// TM entry index inside that TRS.
    pub entry: u16,
}

impl SlotRef {
    /// Creates a slot reference.
    pub const fn new(trs: u8, entry: u16) -> Self {
        SlotRef { trs, entry }
    }
}

impl std::fmt::Display for SlotRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trs{}#{}", self.trs, self.entry)
    }
}

/// A Version Memory entry: which DCT instance and which VM index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmRef {
    /// DCT instance index.
    pub dct: u8,
    /// VM entry index inside that DCT.
    pub idx: u16,
}

impl VmRef {
    /// Creates a version reference.
    pub const fn new(dct: u8, idx: u16) -> Self {
        VmRef { dct, idx }
    }
}

impl std::fmt::Display for VmRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dct{}@{}", self.dct, self.idx)
    }
}

/// A new task as submitted by the runtime (GW input, N1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewTaskReq {
    /// Software task identifier.
    pub task: TaskId,
    /// The task's dependences (address + direction), shared with the trace
    /// so submission never copies the dependence list.
    pub deps: std::sync::Arc<[Dependence]>,
}

/// A finished-task notification from a worker (GW input, F1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedReq {
    /// Software task identifier (for logging / validation).
    pub task: TaskId,
    /// The TM slot the task occupies.
    pub slot: SlotRef,
}

/// A ready-to-execute task delivered by the TS unit to the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTask {
    /// Software task identifier.
    pub task: TaskId,
    /// The TM slot to quote back in the finished notification.
    pub slot: SlotRef,
    /// Cycle at which the task became available at the TS output.
    pub ready_at: super::Cycle,
}

/// How a dependence was resolved by the DCT (the N5 response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveKind {
    /// The dependence is independent / already satisfied: a ready packet.
    Ready,
    /// The dependence must wait; `prev_consumer` carries the previous
    /// consumer of the same version for TRS-side chain bookkeeping
    /// (paper, Section III-D).
    Dependent {
        /// Previous consumer of the version, if this dependence extends a
        /// consumer chain.
        prev_consumer: Option<SlotRef>,
    },
}

/// Messages consumed by a TRS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrsMsg {
    /// N3: a new task dispatched by the GW into a TM slot.
    NewTask {
        /// Assigned slot.
        slot: SlotRef,
        /// Software task id.
        task: TaskId,
        /// Number of dependences the DCT will report on.
        num_deps: u8,
    },
    /// N5: the DCT's verdict on one dependence.
    Resolve {
        /// Slot of the owning task.
        slot: SlotRef,
        /// Index of the dependence within the task.
        dep_idx: u8,
        /// The VM entry now tracking this dependence.
        vm: VmRef,
        /// Ready or dependent.
        kind: ResolveKind,
    },
    /// F4 / chain link: wake the dependence of `slot` tracked by `vm`.
    Wake {
        /// Slot of the task to wake.
        slot: SlotRef,
        /// VM entry identifying which dependence is being satisfied.
        vm: VmRef,
    },
    /// F2: the task in `slot` finished; release its dependences.
    Finished {
        /// Slot of the finished task.
        slot: SlotRef,
    },
}

/// Messages consumed by a DCT instance on the new-dependence port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewDepMsg {
    /// Slot of the owning task.
    pub slot: SlotRef,
    /// Index of the dependence within the task.
    pub dep_idx: u8,
    /// The dependence itself.
    pub dep: Dependence,
    /// Set once the message has been counted as a DM conflict, so retries
    /// are not double-counted.
    pub conflict_counted: bool,
    /// Set once the message has been counted as a VM-capacity stall.
    pub vm_stall_counted: bool,
}

/// Messages consumed by a DCT instance on the finished-dependence port (F3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepFinMsg {
    /// The version the finishing task was registered under.
    pub vm: VmRef,
    /// Slot of the finishing task (distinguishes producer from consumers).
    pub from: SlotRef,
}

/// A packet in transit through the Arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbMsg {
    /// DCT -> TRS or TRS -> TRS traffic.
    ToTrs(u8, TrsMsg),
    /// TRS -> DCT finished-dependence traffic.
    ToDctFin(u8, DepFinMsg),
}

// ---------------------------------------------------------------- snapshots

picos_trace::snap_struct!(NewTaskReq { task, deps });
picos_trace::snap_struct!(FinishedReq { task, slot });
picos_trace::snap_struct!(ReadyTask {
    task,
    slot,
    ready_at
});

// The variant code is the explicit ready flag: folded into one
// `Option<Option<SlotRef>>`, `Dependent { prev_consumer: None }` would
// decode as `Ready`.
picos_trace::snap_enum!(ResolveKind {
    0 => Ready,
    1 => Dependent { prev_consumer },
});
picos_trace::snap_enum!(TrsMsg {
    0 => NewTask { slot, task, num_deps },
    1 => Resolve { slot, dep_idx, vm, kind },
    2 => Wake { slot, vm },
    3 => Finished { slot },
});
picos_trace::snap_struct!(NewDepMsg {
    slot,
    dep_idx,
    dep,
    conflict_counted,
    vm_stall_counted,
});
picos_trace::snap_struct!(DepFinMsg { vm, from });
picos_trace::snap_enum!(ArbMsg {
    0 => ToTrs(trs, msg),
    1 => ToDctFin(dct, msg),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_and_vm_display() {
        assert_eq!(SlotRef::new(1, 42).to_string(), "trs1#42");
        assert_eq!(VmRef::new(0, 7).to_string(), "dct0@7");
    }

    #[test]
    fn resolve_kind_equality() {
        assert_eq!(ResolveKind::Ready, ResolveKind::Ready);
        let a = ResolveKind::Dependent {
            prev_consumer: Some(SlotRef::new(0, 1)),
        };
        let b = ResolveKind::Dependent {
            prev_consumer: None,
        };
        assert_ne!(a, b);
    }
}
