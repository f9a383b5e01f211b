//! Snapshot helpers shared by the core types: packed references, the
//! sparse unit tables, the config fingerprint and the reference checks.
//!
//! Each core type's [`Snap`] encoding lives next to its definition, except
//! the references, which pack into single integers here (`SlotRef` =
//! `trs << 16 | entry`, `VmRef` = `dct << 16 | idx`, `DmSlot` =
//! `set << 32 | way`), so snapshots stay compact. A decoded reference fits its field but may
//! still name a unit or entry the restoring configuration does not have;
//! [`Refs`] checks every one after a load, so a corrupted snapshot fails
//! with a [`SnapError`] instead of panicking later inside a unit.

use crate::config::PicosConfig;
use crate::msg::{
    ArbMsg, DepFinMsg, FinishedReq, NewDepMsg, ReadyTask, ResolveKind, SlotRef, TrsMsg, VmRef,
};
use crate::DmSlot;
use picos_trace::snap::{fingerprint, Snap, SnapError};
use picos_trace::{TaskId, Value};

/// Implements [`Snap`] for two-field references packed into one integer,
/// `hi << shift | lo`; decoding rejects a part that does not fit its field.
macro_rules! packed {
    ($($ty:ident { $hi:ident, $lo:ident } << $shift:literal;)+) => {$(
        impl Snap for $ty {
            fn save(&self) -> Value {
                Value::Int((self.$hi as u64) << $shift | self.$lo as u64)
            }

            fn load(v: &Value) -> Result<Self, SnapError> {
                let n = u64::load(v)?;
                Ok($ty {
                    $hi: Snap::load(&Value::Int(n >> $shift))?,
                    $lo: Snap::load(&Value::Int(n & ((1 << $shift) - 1)))?,
                })
            }
        }
    )+};
}

packed! {
    SlotRef { trs, entry } << 16;
    VmRef { dct, idx } << 16;
    DmSlot { set, way } << 32;
}

/// Encodes a slab of `Option` entries as `[index, entry]` pairs of its
/// live entries.
pub(crate) fn save_sparse<T: Snap>(entries: &[Option<T>]) -> Value {
    Value::Arr(
        entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| Value::Arr(vec![i.save(), e.save()])))
            .collect(),
    )
}

/// Overwrites a slab from [`save_sparse`] output: every entry not listed
/// becomes free.
pub(crate) fn load_sparse<T: Snap>(
    entries: &mut [Option<T>],
    v: &Value,
    what: &str,
) -> Result<(), SnapError> {
    let live: Vec<(usize, T)> = Snap::load(v)?;
    entries.iter_mut().for_each(|e| *e = None);
    for (i, e) in live {
        *entries
            .get_mut(i)
            .ok_or_else(|| SnapError::new(format!("{what}: live index {i} out of range")))? =
            Some(e);
    }
    Ok(())
}

/// One fingerprint over every behaviour-relevant configuration field.
/// Restore overwrites dynamic state only, so the restoring session must be
/// built from an identical config; a fingerprint mismatch is a hard error,
/// never silent corruption.
pub(crate) fn config_fingerprint(cfg: &PicosConfig) -> u64 {
    let t = &cfg.timing;
    fingerprint([
        match cfg.dm_design {
            crate::DmDesign::EightWay => 1,
            crate::DmDesign::SixteenWay => 2,
            crate::DmDesign::PearsonEightWay => 3,
        },
        cfg.dm_sets as u64,
        cfg.num_trs as u64,
        cfg.num_dct as u64,
        cfg.tm_entries as u64,
        cfg.vm_entries as u64,
        cfg.max_deps_per_task as u64,
        match cfg.ts_policy {
            crate::TsPolicy::Fifo => 1,
            crate::TsPolicy::Lifo => 2,
        },
        t.wire,
        t.gw_task,
        t.gw_dep,
        t.gw_fin,
        t.trs_new,
        t.trs_resolve,
        t.trs_wake,
        t.trs_fin,
        t.trs_fin_dep,
        t.dct_dep,
        t.dct_task_sync,
        t.dct_fin,
        t.arb,
        t.ts,
    ])
}

/// Rejects index `i` of a table of `n`.
pub(crate) fn bound(what: &str, i: usize, n: usize) -> Result<(), SnapError> {
    if i < n {
        Ok(())
    } else {
        Err(SnapError::new(format!("{what} {i} out of range (< {n})")))
    }
}

impl PicosConfig {
    /// Checks that a decoded TM slot reference names a slot of this
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the TRS or the TM entry is out of range.
    pub fn check_slot(&self, s: SlotRef) -> Result<(), SnapError> {
        bound("TRS", s.trs.into(), self.num_trs)?;
        bound("TM entry", s.entry.into(), self.tm_entries)
    }
}

/// The unit and table references a decoded value holds, checked against
/// the restoring configuration.
pub(crate) trait Refs {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError>;
}

/// Implements [`Refs`] for a struct by checking the listed fields.
macro_rules! refs {
    ($($ty:ty: $($f:tt),+;)+) => {$(
        impl $crate::snap::Refs for $ty {
            fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
                $($crate::snap::Refs::check(&self.$f, cfg)?;)+
                Ok(())
            }
        }
    )+};
}
pub(crate) use refs;

refs! {
    NewDepMsg: slot;
    DepFinMsg: vm, from;
    ReadyTask: slot;
    FinishedReq: slot;
    (TaskId, SlotRef): 1;
    (SlotRef, VmRef): 0, 1;
}

impl Refs for SlotRef {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        cfg.check_slot(*self)
    }
}

impl Refs for VmRef {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        bound("DCT", self.dct.into(), cfg.num_dct)?;
        bound("VM entry", self.idx.into(), cfg.vm_entries)
    }
}

impl Refs for DmSlot {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        bound("DM set", self.set, cfg.dm_sets)?;
        bound("DM way", self.way, cfg.dm_design.ways())
    }
}

impl<T: Refs> Refs for Option<T> {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        self.as_ref().map_or(Ok(()), |t| t.check(cfg))
    }
}

impl<T: Refs> Refs for Vec<T> {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        self.as_slice().check(cfg)
    }
}

impl<T: Refs> Refs for [T] {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        self.iter().try_for_each(|t| t.check(cfg))
    }
}

impl Refs for TrsMsg {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        match *self {
            TrsMsg::NewTask { slot, .. } | TrsMsg::Finished { slot } => slot.check(cfg),
            TrsMsg::Resolve { slot, vm, kind, .. } => {
                if let ResolveKind::Dependent { prev_consumer } = kind {
                    prev_consumer.check(cfg)?;
                }
                (slot, vm).check(cfg)
            }
            TrsMsg::Wake { slot, vm } => (slot, vm).check(cfg),
        }
    }
}

impl Refs for ArbMsg {
    fn check(&self, cfg: &PicosConfig) -> Result<(), SnapError> {
        match self {
            ArbMsg::ToTrs(i, m) => bound("TRS", (*i).into(), cfg.num_trs).and(m.check(cfg)),
            ArbMsg::ToDctFin(j, m) => bound("DCT", (*j).into(), cfg.num_dct).and(m.check(cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::snap::value_to_json;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(t: T) {
        let text = value_to_json(&t.save());
        let v = picos_trace::snap::value_from_json(&text).unwrap();
        assert_eq!(T::load(&v).unwrap(), t);
    }

    #[test]
    fn refs_pack_roundtrip() {
        roundtrip(SlotRef::new(3, 65535));
        roundtrip(VmRef::new(255, 1));
        roundtrip(DmSlot { set: 63, way: 15 });
        assert!(
            SlotRef::load(&Value::Int(256 << 16)).is_err(),
            "trs overflows u8"
        );
        assert!(
            VmRef::load(&Value::Int(1 << 24)).is_err(),
            "dct overflows u8"
        );
    }

    #[test]
    fn trs_msg_roundtrip() {
        let msgs = [
            TrsMsg::NewTask {
                slot: SlotRef::new(0, 9),
                task: TaskId::new(7),
                num_deps: 3,
            },
            TrsMsg::Resolve {
                slot: SlotRef::new(1, 2),
                dep_idx: 1,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Ready,
            },
            TrsMsg::Resolve {
                slot: SlotRef::new(1, 2),
                dep_idx: 1,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Dependent {
                    prev_consumer: None,
                },
            },
            TrsMsg::Resolve {
                slot: SlotRef::new(1, 2),
                dep_idx: 1,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Dependent {
                    prev_consumer: Some(SlotRef::new(0, 3)),
                },
            },
            TrsMsg::Wake {
                slot: SlotRef::new(0, 1),
                vm: VmRef::new(1, 2),
            },
            TrsMsg::Finished {
                slot: SlotRef::new(0, 0),
            },
        ];
        for m in msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn refs_are_checked_against_the_config() {
        let cfg = PicosConfig::balanced();
        assert!(SlotRef::new(0, 0).check(&cfg).is_ok());
        assert!(SlotRef::new(cfg.num_trs as u8, 0).check(&cfg).is_err());
        assert!(VmRef::new(200, 0).check(&cfg).is_err());
        let way = cfg.dm_design.ways();
        assert!(DmSlot { set: 0, way }.check(&cfg).is_err());
        let m = ArbMsg::ToDctFin(
            0,
            DepFinMsg {
                vm: VmRef::new(0, cfg.vm_entries as u16),
                from: SlotRef::new(0, 0),
            },
        );
        assert!(m.check(&cfg).is_err());
    }

    #[test]
    fn fingerprint_sees_timing_and_policy() {
        let a = PicosConfig::balanced();
        let mut b = a.clone();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.timing.dct_dep += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = a.clone();
        c.ts_policy = crate::TsPolicy::Lifo;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }
}
