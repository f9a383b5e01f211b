//! Snapshot/restore for [`ClusterSession`]: the full dynamic cluster
//! state — every shard core, worker pool and interconnect port, the
//! ingress reorder stages, the Distributor's per-task plan, the fault
//! layer and the observation state — through the positional codec.
//!
//! The restore contract mirrors the other engines': build a session with
//! the *identical* configuration, then [`ClusterSession::load_state`]
//! overwrites its dynamic state. A configuration fingerprint (plus
//! attachment guards for the sampler, span log and fault plan) rejects
//! mismatched targets instead of silently diverging. The engine thread
//! count is deliberately **not** fingerprinted: the parallel engine is
//! bit-identical to the serial one, so a snapshot taken under either
//! drives on unchanged under the other.

use super::{ClusterMsg, ClusterSession};
use crate::config::{ClusterConfig, ShardPolicy};
use picos_trace::snap::{fingerprint, Dec, Enc, SnapError};
use picos_trace::Value;

/// Stable wire code of a placement policy.
fn policy_code(p: ShardPolicy) -> u64 {
    match p {
        ShardPolicy::AddrHash => 0,
        ShardPolicy::RoundRobin => 1,
        ShardPolicy::LocalityAffine => 2,
    }
}

/// Mixes every behaviour-relevant cluster configuration field (including
/// the attached fault plan — its seed alone changes every fault draw)
/// into a fingerprint, so a snapshot only restores into a session built
/// from an equivalent config. Each shard core's own configuration is
/// guarded separately inside its [`picos_core::PicosSystem`] record.
fn cluster_fingerprint(cfg: &ClusterConfig) -> u64 {
    let mut fields = vec![
        cfg.shards as u64,
        policy_code(cfg.policy),
        cfg.workers as u64,
        cfg.link.occupancy,
        cfg.link.latency,
        cfg.link.setup,
        cfg.link.width as u64,
        cfg.dispatch,
    ];
    if let Some(p) = &cfg.faults {
        fields.extend([
            1,
            p.seed,
            p.drop_rate.to_bits(),
            p.dup_rate.to_bits(),
            p.jitter_rate.to_bits(),
            p.max_jitter,
            p.link_timeout,
            p.max_retries as u64,
            p.pauses.len() as u64,
            p.worker_faults.len() as u64,
        ]);
        for w in &p.pauses {
            fields.extend([w.shard as u64, w.at, w.until]);
        }
        for f in &p.worker_faults {
            fields.extend([f.shard as u64, f.at]);
        }
    }
    fingerprint(fields)
}

picos_trace::snap_enum!(ClusterMsg {
    0 => Register { task, deps },
    1 => Ready { task },
    2 => Finish { task },
});

impl ClusterSession {
    /// Serializes the full dynamic cluster state.
    /// [`ClusterSession::load_state`] overwrites an identically configured
    /// session with it; [`Clone`] is the in-memory fork.
    pub fn save_state(&self) -> Value {
        Enc::new()
            .put(&cluster_fingerprint(&self.cfg))
            .put(&self.sampler.is_some())
            .put(&self.spans.is_some())
            .put(&self.faults.is_some())
            .val(Value::Arr(
                self.sys.iter().map(|s| s.save_state()).collect(),
            ))
            .val(Value::Arr(
                self.workers.iter().map(|w| w.save_state()).collect(),
            ))
            .val(Value::Arr(
                self.links.iter().map(|l| l.save_state()).collect(),
            ))
            .put(&self.expected)
            .put(&self.arrived)
            .put(&self.slot_at)
            .put(&self.exec_q)
            .put(&self.placement)
            .put(&self.local)
            .put(&self.remote)
            .put(&self.frag_total)
            .put(&self.frag_ready)
            .put(&self.local_popped)
            .put(&self.local_slot)
            .put(&self.durs)
            .put(&self.rr)
            .put(&self.next_feed)
            .put(&self.t)
            .put(&self.link_sent)
            .put(&self.restarts)
            .val(self.ingest.save_state())
            .val(self.log.save_state())
            .val(self.events.save_state())
            .put(&self.sampler)
            .put(&self.spans)
            .val(self.faults.as_ref().map_or(Value::Null, |f| f.save_state()))
            .done()
    }

    /// Overwrites this session's dynamic state with the state recorded by
    /// [`ClusterSession::save_state`]. Continuing the restored session —
    /// under either the serial or the parallel engine — is bit-exact with
    /// the session the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record, when the snapshot was
    /// taken under a different cluster configuration, fault plan or
    /// observation setup, when its per-task tables disagree with the
    /// admitted task count, or when it holds a shard index, task id or TM
    /// slot out of range. The session must then be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let k = self.cfg.shards;
        let mut d = Dec::new(v, "cluster session")?;
        d.expect("cluster config", &cluster_fingerprint(&self.cfg))?;
        d.expect("cluster sampler attached", &self.sampler.is_some())?;
        d.expect("cluster spans attached", &self.spans.is_some())?;
        d.expect("cluster fault layer attached", &self.faults.is_some())?;
        for (s, v) in self.sys.iter_mut().zip(d.units("shard core", k)?) {
            s.load_state(v)?;
        }
        for (w, v) in self.workers.iter_mut().zip(d.units("worker pool", k)?) {
            w.load_state(v)?;
        }
        for (l, v) in self.links.iter_mut().zip(d.units("link", k)?) {
            l.load_state(v)?;
        }
        self.expected = d.table("expected", k)?;
        self.arrived = d.table("arrived", k)?;
        self.slot_at = d.table("slot_at", k)?;
        self.exec_q = d.table("exec_q", k)?;
        self.placement = d.get()?;
        self.local = d.get()?;
        self.remote = d.get()?;
        self.frag_total = d.get()?;
        self.frag_ready = d.get()?;
        self.local_popped = d.get()?;
        self.local_slot = d.get()?;
        self.durs = d.get()?;
        self.rr = d.get()?;
        self.next_feed = d.get()?;
        self.t = d.get()?;
        self.link_sent = d.table("link counter", k)?;
        self.restarts = d.get()?;
        self.ingest.load_state(d.val()?)?;
        self.log.load_state(d.val()?)?;
        self.events.load_state(d.val()?)?;
        self.sampler = d.get()?;
        self.spans = d.get()?;
        match (&mut self.faults, d.val()?) {
            (None, Value::Null) => {}
            (Some(f), v) => f.load_state(v)?,
            (None, _) => {
                return Err(SnapError::new("cluster session: unexpected fault state"));
            }
        }
        self.engine_err = None;
        self.check_tables()?;
        self.check_slots()
    }

    /// Checks that the per-task tables cover exactly the admitted tasks and
    /// that every shard index and task id the driver holds is in range, so
    /// a restore that passed never panics when driven.
    fn check_tables(&self) -> Result<(), SnapError> {
        let n = self.ingest.admitted;
        let k = self.cfg.shards;
        let lens = [
            ("placement", self.placement.len()),
            ("local", self.local.len()),
            ("remote", self.remote.len()),
            ("frag_total", self.frag_total.len()),
            ("frag_ready", self.frag_ready.len()),
            ("local_popped", self.local_popped.len()),
            ("local_slot", self.local_slot.len()),
            ("durs", self.durs.len()),
            ("schedule start", self.log.start.len()),
            ("schedule end", self.log.end.len()),
        ];
        if let Some((name, len)) = lens.into_iter().find(|&(_, len)| len != n) {
            return Err(SnapError::new(format!(
                "cluster session: {len} {name} entries for {n} admitted tasks"
            )));
        }
        let counts = self
            .frag_total
            .iter()
            .zip(&self.frag_ready)
            .zip(&self.remote);
        if counts
            .into_iter()
            .any(|((&total, &ready), frags)| total as usize != 1 + frags.len() || ready > total)
        {
            return Err(SnapError::new(
                "cluster session: fragment counts disagree with the plan",
            ));
        }
        let homes = self.placement.iter().copied().chain(
            self.remote
                .iter()
                .flat_map(|frags| frags.iter().map(|&(h, _)| h)),
        );
        if let Some(h) = homes.into_iter().find(|&h| h as usize >= k) {
            return Err(SnapError::new(format!("cluster session: shard {h} of {k}")));
        }
        if self.next_feed > n {
            return Err(SnapError::new(format!(
                "cluster session: feed cursor {} past {n} admitted tasks",
                self.next_feed
            )));
        }
        let tasks = self
            .expected
            .iter()
            .flatten()
            .chain(self.exec_q.iter().flatten())
            .chain(self.arrived.iter().flat_map(|m| m.keys()))
            .chain(self.slot_at.iter().flat_map(|m| m.keys()))
            .chain(self.restarts.iter());
        if let Some(task) = tasks.into_iter().find(|&&t| t as usize >= n) {
            return Err(SnapError::new(format!(
                "cluster session: task {task} of {n} admitted"
            )));
        }
        Ok(())
    }

    /// Checks every TM slot the driver holds outside the shard cores.
    fn check_slots(&self) -> Result<(), SnapError> {
        let cfg = &self.cfg.picos;
        self.workers
            .iter()
            .flat_map(|w| w.slots())
            .chain(self.local_slot.iter().copied())
            .chain(self.slot_at.iter().flat_map(|m| m.values().copied()))
            .try_for_each(|slot| cfg.check_slot(slot))
    }
}
