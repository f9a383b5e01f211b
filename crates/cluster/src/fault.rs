//! Deterministic fault injection for the cluster interconnect and shards.
//!
//! A [`FaultPlan`] is a *seeded schedule* of typed faults: per-link message
//! drops, duplications and extra-delay jitter (drawn from a [`SplitMix64`]
//! stream, so the same seed always faults the same messages), shard
//! pause/straggler windows, and fail-stop worker faults with deterministic
//! task re-execution. Attaching a plan also arms an ack/timeout/retry
//! protocol on every interconnect message: the sender keeps each message
//! pending until the receiver's (instantaneous) acknowledgement, retries
//! with bounded exponential backoff when a cycle-based timeout fires, and
//! surfaces [`ClusterError::LinkTimeout`] instead of hanging once the
//! retry budget is exhausted.
//!
//! # Zero-fault bit-identity
//!
//! A plan with all rates at zero and no pause/worker faults is
//! **bit-identical** to a run without any plan (pinned by
//! `tests/fault_conformance.rs`):
//!
//! * no RNG draw ever happens at zero rates, so no state diverges;
//! * [`Link::send_words_delayed`] with zero extra delay is exactly
//!   `send_words`, so link timing is unchanged;
//! * the sender-side tracking tables are engaged only when a plan can
//!   actually lose, duplicate or defer a message (nonzero drop/dup rate,
//!   or pause windows). Otherwise every copy provably arrives and its
//!   instantaneous ack would clear the deadline in the delivering pump,
//!   so the untracked send is observationally identical — and the
//!   zero-fault hot path costs only a branch per message (the
//!   `cluster_fault0` bench guard pins this within 3% of the plain
//!   engine). When tracking *is* engaged, a pending message's retry
//!   deadline is strictly later than its own delivery time, so deadlines
//!   never determine the event clock before their message could have
//!   arrived.
//!
//! # Retry state machine
//!
//! ```text
//!   send ──> PENDING(attempt 0, deadline = arrival + timeout)
//!              │ delivered & acked            │ deadline fires
//!              ▼                              ▼
//!            DONE                 attempt += 1; attempt > max_retries?
//!                                   │ no: resend (timeout << attempt)
//!                                   │ yes: ClusterError::LinkTimeout
//! ```
//!
//! Dropped messages still occupy their link slot (the flits burn wire time
//! before the loss is "noticed") and are discarded at delivery. Duplicates
//! share the original's packet id; the receiver deduplicates by id, so a
//! redelivered message — duplicate or retry of one whose ack was lost — is
//! counted ([`FaultCounters::redeliveries`]) and dropped.
//!
//! # Two halves
//!
//! The runtime state splits where the parallel epoch engine needs it to.
//! [`ShardFaults`] is one shard's local half: pause deferral, the drop
//! discard, id dedup, its worker faults and counters — no random draw and
//! nothing another shard touches. [`FaultState`] holds the sender side:
//! the RNG stream, packet ids, the pending and deadline tables, retries.
//! The serial pump runs [`next_arrival`] and then [`FaultState::ack`] back
//! to back; the epoch engine runs [`next_arrival`] in the shard's lane and
//! replays sends, acks and retries through [`FaultState`] in the merge, in
//! serial pump order, so both engines draw the same numbers.

use crate::config::{ClusterConfig, ClusterError};
use picos_hil::Link;
use picos_trace::rng::SplitMix64;
use picos_trace::snap::{Dec, Enc, Snap, SnapError};
use picos_trace::Value;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A shard ingress pause window: deliveries into `shard` arriving at
/// `at <= t < until` are deferred to `until` (a straggler shard whose
/// inbound processing stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPause {
    /// The paused shard.
    pub shard: u16,
    /// First stalled cycle.
    pub at: u64,
    /// First cycle past the stall; deferred deliveries process here.
    pub until: u64,
}

/// A fail-stop worker fault: at cycle `at`, one of `shard`'s workers dies
/// permanently. If it was executing a task, the task is deterministically
/// re-executed from the shard's ready queue (the earliest-completing task
/// is the victim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// The shard losing a worker.
    pub shard: u16,
    /// The cycle the worker dies.
    pub at: u64,
}

/// End-of-run fault/recovery counters, surfaced as `faults.*` metrics and
/// telemetry series when the plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages lost in flight (discarded at delivery).
    pub drops: u64,
    /// Timeout-triggered resends.
    pub retries: u64,
    /// Deliveries of an already-delivered packet id (duplicates, or
    /// retries of a message whose acknowledgement was lost), discarded by
    /// receiver-side dedup.
    pub redeliveries: u64,
    /// Tasks re-executed after a fail-stop worker fault killed their
    /// first execution.
    pub recoveries: u64,
}

picos_trace::snap_struct!(FaultCounters {
    drops,
    retries,
    redeliveries,
    recoveries
});

impl FaultCounters {
    /// Adds `other` field by field.
    pub(crate) fn add(&mut self, other: &FaultCounters) {
        self.drops += other.drops;
        self.retries += other.retries;
        self.redeliveries += other.redeliveries;
        self.recoveries += other.recoveries;
    }

    /// The values in the order of the `faults.*` telemetry series.
    pub(crate) fn series(&self) -> [u64; 4] {
        [self.drops, self.retries, self.redeliveries, self.recoveries]
    }
}

/// A deterministic, seeded fault schedule for one cluster run.
///
/// Link faults (drop/duplication/jitter) are drawn per message from a
/// [`SplitMix64`] stream seeded by [`FaultPlan::seed`]; pause and worker
/// faults are explicit typed entries. The default plan ([`FaultPlan::new`])
/// injects nothing — attaching it only arms the ack/retry protocol, which
/// is bit-identical to the fault-free engine (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-message fault draws.
    pub seed: u64,
    /// Probability that a message (or its acknowledgement) is lost.
    pub drop_rate: f64,
    /// Probability that a message is sent twice (same packet id; the
    /// receiver deduplicates).
    pub dup_rate: f64,
    /// Probability that a delivery ages extra cycles beyond the link
    /// latency.
    pub jitter_rate: f64,
    /// Upper bound (inclusive) of the extra jitter delay in cycles.
    pub max_jitter: u64,
    /// Base retry timeout in cycles, measured from the expected arrival;
    /// attempt `n` waits `link_timeout << min(n, 6)`.
    pub link_timeout: u64,
    /// Resends after the original before the sender gives up with
    /// [`ClusterError::LinkTimeout`].
    pub max_retries: u32,
    /// Shard ingress pause windows (must not overlap per shard).
    pub pauses: Vec<ShardPause>,
    /// Fail-stop worker faults (strictly fewer per shard than the shard's
    /// workers, so every shard keeps at least one).
    pub worker_faults: Vec<WorkerFault>,
}

impl FaultPlan {
    /// A plan injecting no faults: all rates zero, no pause or worker
    /// faults, default timeout/retry budget.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            jitter_rate: 0.0,
            max_jitter: 16,
            link_timeout: 256,
            max_retries: 8,
            pauses: Vec::new(),
            worker_faults: Vec::new(),
        }
    }

    /// Sets the message/ack loss probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the message duplication probability.
    pub fn with_dup_rate(mut self, rate: f64) -> Self {
        self.dup_rate = rate;
        self
    }

    /// Sets the delivery-jitter probability and maximum extra delay.
    pub fn with_jitter(mut self, rate: f64, max_jitter: u64) -> Self {
        self.jitter_rate = rate;
        self.max_jitter = max_jitter;
        self
    }

    /// Sets the base retry timeout in cycles.
    pub fn with_link_timeout(mut self, cycles: u64) -> Self {
        self.link_timeout = cycles;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Adds a shard ingress pause window.
    pub fn with_pause(mut self, shard: u16, at: u64, until: u64) -> Self {
        self.pauses.push(ShardPause { shard, at, until });
        self
    }

    /// Adds a fail-stop worker fault.
    pub fn with_worker_fault(mut self, shard: u16, at: u64) -> Self {
        self.worker_faults.push(WorkerFault { shard, at });
        self
    }

    /// Whether the plan can inject anything at all. An inactive plan still
    /// arms the ack/retry protocol but never perturbs the run, and the
    /// engine keeps its telemetry/metrics identical to a plan-free run.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.jitter_rate > 0.0
            || !self.pauses.is_empty()
            || !self.worker_faults.is_empty()
    }

    /// Retry timeout after `attempts` resends: bounded exponential
    /// backoff.
    pub(crate) fn timeout_after(&self, attempts: u32) -> u64 {
        self.link_timeout.saturating_mul(1u64 << attempts.min(6))
    }

    /// Validates the plan against a cluster configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint: rates
    /// must be probabilities, the timeout/retry budget positive, jitter
    /// bounded, pause windows well-formed and non-overlapping per shard,
    /// and worker faults must leave every shard at least one worker.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("jitter_rate", self.jitter_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault {name} {rate} is not a probability"));
            }
        }
        if self.link_timeout == 0 {
            return Err("fault link_timeout must be at least one cycle".into());
        }
        if self.max_retries == 0 {
            return Err("fault max_retries must be at least one".into());
        }
        if self.jitter_rate > 0.0 && self.max_jitter == 0 {
            return Err("fault max_jitter must be nonzero when jitter_rate is".into());
        }
        let mut windows: Vec<&ShardPause> = self.pauses.iter().collect();
        windows.sort_by_key(|p| (p.shard, p.at));
        for w in &windows {
            if w.shard as usize >= cfg.shards {
                return Err(format!("pause names shard {} of {}", w.shard, cfg.shards));
            }
            if w.at >= w.until {
                return Err(format!("pause window [{}, {}) is empty", w.at, w.until));
            }
        }
        for pair in windows.windows(2) {
            if pair[0].shard == pair[1].shard && pair[1].at < pair[0].until {
                return Err(format!(
                    "overlapping pause windows on shard {}",
                    pair[0].shard
                ));
            }
        }
        let mut per_shard = vec![0usize; cfg.shards];
        for f in &self.worker_faults {
            if f.shard as usize >= cfg.shards {
                return Err(format!(
                    "worker fault names shard {} of {}",
                    f.shard, cfg.shards
                ));
            }
            per_shard[f.shard as usize] += 1;
        }
        for (s, &n) in per_shard.iter().enumerate() {
            if n >= cfg.shard_workers(s) && n > 0 {
                return Err(format!(
                    "{} worker faults on shard {s} would leave it below one \
                     of its {} workers",
                    n,
                    cfg.shard_workers(s)
                ));
            }
        }
        Ok(())
    }
}

/// The interconnect envelope under a fault layer: a packet id for
/// ack/dedup matching and the send-time drop fate. Id `0` is the *plain*
/// path — the packet of a session without a fault plan — which skips every
/// fault check.
#[derive(Debug, Clone)]
pub(crate) struct Packet<P> {
    pub(crate) id: u32,
    pub(crate) drop: bool,
    pub(crate) msg: P,
}

impl<P> Packet<P> {
    /// Wraps a message for a fault-free session: no tracking, no fate.
    pub(crate) fn plain(msg: P) -> Self {
        Packet {
            id: 0,
            drop: false,
            msg,
        }
    }
}

picos_trace::snap_struct!(Packet<P> { id, drop, msg });

/// A sent message awaiting acknowledgement.
#[derive(Debug, Clone)]
struct Pending<P> {
    from: u16,
    to: u16,
    words: u32,
    attempts: u32,
    deadline: u64,
    msg: P,
}

picos_trace::snap_struct!(Pending<P> {
    from,
    to,
    words,
    attempts,
    deadline,
    msg,
});

/// Indexed access to the destination links of fault-layer sends: the
/// session's link vector in the serial pump, the shard lanes in the
/// epoch engine's merge.
pub(crate) trait LinkSet<P> {
    /// The ingress link of shard `to`.
    fn link(&mut self, to: u16) -> &mut Link<Packet<P>>;
}

impl<P> LinkSet<P> for Vec<Link<Packet<P>>> {
    fn link(&mut self, to: u16) -> &mut Link<Packet<P>> {
        &mut self[to as usize]
    }
}

/// What one packet reaching a shard leaves for the engine to do.
#[derive(Debug)]
pub(crate) struct Arrival<P> {
    /// The payload to handle, or `None` when the fault layer consumed the
    /// packet: deferred by a pause window, lost to its drop fate, or
    /// discarded as a redelivery.
    pub(crate) msg: Option<P>,
    /// The wire packet id (0 on the plain path).
    pub(crate) id: u32,
    /// Whether the sender must be acknowledged ([`FaultState::ack`]).
    pub(crate) ack: bool,
}

/// Pops the next packet reaching a shard at `t` and runs it through the
/// shard-local half of the receive path: pause-released deferrals first
/// (they arrived earlier), then fresh link arrivals. Without a fault layer
/// it is a plain link pop. The serial pump and the parallel lanes share
/// this one helper; it draws no randomness, so the caller applies each
/// ack through [`FaultState::ack`] in serial pump order.
pub(crate) fn next_arrival<P>(
    link: &mut Link<Packet<P>>,
    faults: Option<&mut ShardFaults<P>>,
    t: u64,
) -> Option<Arrival<P>> {
    let Some(f) = faults else {
        return link.pop_delivery_at(t).map(|pkt| Arrival {
            msg: Some(pkt.msg),
            id: pkt.id,
            ack: false,
        });
    };
    let pkt = match f.deferred.front() {
        Some(&(release, _)) if release <= t => f.deferred.pop_front().map(|(_, pkt)| pkt),
        _ => link.pop_delivery_at(t),
    }?;
    Some(f.receive(t, pkt))
}

/// The shard-local half of the fault layer: everything one shard's own
/// deliveries and workers touch. The epoch engine lends each to its
/// shard's lane for a drive; no field here depends on another shard or on
/// a random draw.
#[derive(Debug, Clone)]
pub(crate) struct ShardFaults<P> {
    /// Pause windows `(at, until)`, sorted; non-overlapping by plan
    /// validation.
    pauses: Vec<(u64, u64)>,
    /// Deferred deliveries `(release, packet)`; releases are
    /// non-decreasing because deferral time is and windows don't overlap.
    deferred: VecDeque<(u64, Packet<P>)>,
    /// Packet ids first delivered here. A packet id only ever travels to
    /// one shard, so per-shard dedup is global dedup.
    delivered: HashSet<u32>,
    /// This shard's worker-fault cycles, ascending, consumed through a
    /// cursor.
    worker_faults: Vec<u64>,
    wf_next: usize,
    /// Drops, redeliveries and recoveries seen here (retries are the
    /// sender's).
    counters: FaultCounters,
}

impl<P> ShardFaults<P> {
    /// Earliest shard-local fault event: a deferred delivery's release or
    /// the next worker fault.
    pub(crate) fn next_time(&self) -> Option<u64> {
        let release = self.deferred.front().map(|&(r, _)| r);
        let fault = self.worker_faults.get(self.wf_next).copied();
        release.into_iter().chain(fault).min()
    }

    /// Consumes the next worker fault if it is due at or before `t` (call
    /// in a loop).
    pub(crate) fn due_worker_fault(&mut self, t: u64) -> bool {
        let due = self
            .worker_faults
            .get(self.wf_next)
            .is_some_and(|&at| at <= t);
        self.wf_next += usize::from(due);
        due
    }

    /// Records a task re-execution after a fail-stop worker fault.
    pub(crate) fn note_recovery(&mut self) {
        self.counters.recoveries += 1;
    }

    /// The counters this shard accumulated.
    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The shard-local half of a delivery at `t`: pause deferral, the
    /// drop fate drawn at send, and id dedup. Successful (and redelivered)
    /// tracked packets ask for an ack — a redelivery usually exists
    /// because the first ack was lost.
    fn receive(&mut self, t: u64, pkt: Packet<P>) -> Arrival<P> {
        let id = pkt.id;
        let consumed = |ack| Arrival { msg: None, id, ack };
        if let Some(release) = self.pause_release(t) {
            self.deferred.push_back((release, pkt));
            return consumed(false);
        }
        if pkt.drop {
            self.counters.drops += 1;
            return consumed(false);
        }
        if id != 0 && !self.delivered.insert(id) {
            self.counters.redeliveries += 1;
            return consumed(true);
        }
        Arrival {
            msg: Some(pkt.msg),
            id,
            ack: id != 0,
        }
    }

    /// The release time of the pause window containing `t`, strictly
    /// greater than `t` by construction (`at <= t < until`).
    fn pause_release(&self, t: u64) -> Option<u64> {
        self.pauses
            .iter()
            .find(|&&(at, until)| at <= t && t < until)
            .map(|&(_, until)| until)
    }
}

/// The runtime state of an attached [`FaultPlan`]: the sender side (the
/// RNG stream, packet ids, the pending/retry tables, the retry counter and
/// the first error) plus one [`ShardFaults`] per shard. Every random draw
/// and every sender-side table update happens here. Cloning is a deep
/// copy — the fork primitive of the snapshot subsystem.
#[derive(Debug, Clone)]
pub(crate) struct FaultState<P> {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Whether sends engage the ack/retry tracking tables. False when no
    /// fault can ever lose, duplicate or defer a message — then every
    /// copy arrives and immediately acks, so tracking would be a pure
    /// no-op and the send path stays as cheap as the plain engine's.
    track: bool,
    next_id: u32,
    pending: HashMap<u32, Pending<P>>,
    /// Retry deadlines ordered by `(deadline, id)`; acks remove their
    /// entry eagerly so `next_time` never sees a stale deadline.
    deadlines: BTreeSet<(u64, u32)>,
    /// The shard-local halves, index = shard. Empty while a parallel
    /// drive has lent them to its lanes.
    shards: Vec<ShardFaults<P>>,
    /// Timeout-triggered resends (the one counter the sender keeps).
    retries: u64,
    error: Option<ClusterError>,
}

impl<P: Clone> FaultState<P> {
    pub(crate) fn new(plan: FaultPlan, shards: usize) -> Self {
        let mut per_shard: Vec<ShardFaults<P>> = (0..shards)
            .map(|_| ShardFaults {
                pauses: Vec::new(),
                deferred: VecDeque::new(),
                delivered: HashSet::new(),
                worker_faults: Vec::new(),
                wf_next: 0,
                counters: FaultCounters::default(),
            })
            .collect();
        for p in &plan.pauses {
            per_shard[p.shard as usize].pauses.push((p.at, p.until));
        }
        for f in &plan.worker_faults {
            per_shard[f.shard as usize].worker_faults.push(f.at);
        }
        for s in per_shard.iter_mut() {
            s.pauses.sort_unstable();
            s.worker_faults.sort_unstable();
        }
        FaultState {
            rng: SplitMix64::new(plan.seed),
            track: plan.drop_rate > 0.0 || plan.dup_rate > 0.0 || !plan.pauses.is_empty(),
            next_id: 0,
            pending: HashMap::new(),
            deadlines: BTreeSet::new(),
            shards: per_shard,
            retries: 0,
            error: None,
            plan,
        }
    }

    /// Whether the attached plan can inject anything (gates the `faults.*`
    /// telemetry so an inactive plan stays observationally identical to no
    /// plan).
    pub(crate) fn plan_active(&self) -> bool {
        self.plan.is_active()
    }

    /// The run's fault counters: the sender's plus every shard's held
    /// here (a parallel drive adds its lanes' own).
    pub(crate) fn counters(&self) -> FaultCounters {
        let mut c = FaultCounters {
            retries: self.retries,
            ..FaultCounters::default()
        };
        for s in &self.shards {
            c.add(&s.counters);
        }
        c
    }

    /// The first fault-layer error (retry exhaustion), if any. Only
    /// surfaced when the run fails to complete — a run that finishes
    /// despite a timed-out message reports success.
    pub(crate) fn error(&self) -> Option<&ClusterError> {
        self.error.as_ref()
    }

    /// Shard `s`'s local half.
    pub(crate) fn shard_mut(&mut self, s: usize) -> &mut ShardFaults<P> {
        &mut self.shards[s]
    }

    /// Lends every shard-local half out (to the epoch engine's lanes).
    pub(crate) fn take_shards(&mut self) -> Vec<ShardFaults<P>> {
        std::mem::take(&mut self.shards)
    }

    /// Takes the shard-local halves back, in shard order.
    pub(crate) fn return_shards(&mut self, shards: Vec<ShardFaults<P>>) {
        self.shards = shards;
    }

    /// The earliest pending retry deadline.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.deadlines.first().map(|&(d, _)| d)
    }

    /// Earliest fault-layer event: a retry deadline, a deferred delivery's
    /// release, or a scheduled worker fault.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(ShardFaults::next_time)
            .chain(self.next_deadline())
            .min()
    }

    /// Sends `msg` from shard `from` to shard `to` under the fault layer:
    /// assigns a packet id, draws the drop/jitter fate (only when the
    /// matching rate is nonzero — zero-rate plans never touch the RNG),
    /// possibly duplicates, and registers the retry deadline. Returns the
    /// assigned packet id (0 on the untracked path, like a plain send).
    pub(crate) fn send<L: LinkSet<P> + ?Sized>(
        &mut self,
        t: u64,
        from: u16,
        to: u16,
        msg: P,
        words: usize,
        links: &mut L,
    ) -> u32 {
        if !self.track {
            // No fault can lose, duplicate or defer this message, so its
            // ack would clear the retry deadline in the very pump that
            // delivers it — skip the tracking tables and send untracked
            // (id 0 = the plain path; jitter, when enabled, still draws
            // and applies).
            let extra = if self.plan.jitter_rate > 0.0 && self.rng.bool(self.plan.jitter_rate) {
                self.rng.range_u64(1, self.plan.max_jitter.max(1))
            } else {
                0
            };
            links
                .link(to)
                .send_words_delayed(t, Packet::plain(msg), words, extra);
            return 0;
        }
        self.next_id += 1;
        let id = self.next_id;
        let mut p = Pending {
            from,
            to,
            words: words as u32,
            attempts: 0,
            deadline: 0,
            msg,
        };
        p.deadline = self.transmit(t, id, &p, links);
        if self.plan.dup_rate > 0.0 && self.rng.bool(self.plan.dup_rate) {
            // The duplicate shares the id; whichever copy arrives second
            // is discarded by receiver dedup. Only the original's deadline
            // is tracked.
            let _ = self.transmit(t, id, &p, links);
        }
        self.deadlines.insert((p.deadline, id));
        self.pending.insert(id, p);
        id
    }

    /// One physical transmission of a pending message: draws this copy's
    /// fate and queues it on the destination link. Returns the retry
    /// deadline: expected arrival plus the backoff timeout for the current
    /// attempt — always strictly after the arrival, which is what keeps an
    /// inactive plan's deadlines invisible to the event clock.
    fn transmit<L: LinkSet<P> + ?Sized>(
        &mut self,
        t: u64,
        id: u32,
        p: &Pending<P>,
        links: &mut L,
    ) -> u64 {
        let drop = self.plan.drop_rate > 0.0 && self.rng.bool(self.plan.drop_rate);
        let extra = if self.plan.jitter_rate > 0.0 && self.rng.bool(self.plan.jitter_rate) {
            self.rng.range_u64(1, self.plan.max_jitter.max(1))
        } else {
            0
        };
        let link = links.link(p.to);
        let pkt = Packet {
            id,
            drop,
            msg: p.msg.clone(),
        };
        let slot_end = link.send_words_delayed(t, pkt, p.words as usize, extra);
        slot_end + link.model().latency + extra + self.plan.timeout_after(p.attempts)
    }

    /// Fires every retry deadline due at `t`: resends with backoff, or
    /// records [`ClusterError::LinkTimeout`] once the budget is exhausted.
    /// Returns the `(from, to)` of each resend for event/traffic
    /// accounting.
    pub(crate) fn pump_retries<L: LinkSet<P> + ?Sized>(
        &mut self,
        t: u64,
        links: &mut L,
    ) -> Vec<(u16, u16)> {
        let mut sent = Vec::new();
        while let Some(&(deadline, id)) = self.deadlines.first() {
            if deadline > t {
                break;
            }
            self.deadlines.remove(&(deadline, id));
            let Some(p) = self.pending.get_mut(&id) else {
                continue;
            };
            p.attempts += 1;
            if p.attempts > self.plan.max_retries {
                let p = self.pending.remove(&id).expect("present above");
                if self.error.is_none() {
                    self.error = Some(ClusterError::LinkTimeout {
                        from: p.from,
                        to: p.to,
                        at: t,
                        attempts: p.attempts - 1,
                    });
                }
                continue;
            }
            self.retries += 1;
            let snapshot = p.clone();
            let deadline = self.transmit(t, id, &snapshot, links);
            let p = self.pending.get_mut(&id).expect("present above");
            p.deadline = deadline;
            self.deadlines.insert((deadline, id));
            sent.push((snapshot.from, snapshot.to));
        }
        sent
    }

    /// The sender-side half of a delivery: clears the pending entry behind
    /// an acknowledged packet, unless the acknowledgement itself is lost
    /// (drawn at the message drop rate). Acks of packets no longer pending
    /// draw nothing.
    pub(crate) fn ack(&mut self, id: u32) {
        if !self.pending.contains_key(&id) {
            return;
        }
        if self.plan.drop_rate > 0.0 && self.rng.bool(self.plan.drop_rate) {
            return;
        }
        let p = self.pending.remove(&id).expect("checked above");
        self.deadlines.remove(&(p.deadline, id));
    }
}

impl<P: Snap> ShardFaults<P> {
    /// Serializes this shard's dynamic state; the pause windows and the
    /// worker-fault schedule are rebuilt from the plan.
    fn save_state(&self) -> Value {
        Enc::new()
            .put(&self.deferred)
            .put(&self.delivered)
            .put(&self.wf_next)
            .put(&self.counters)
            .done()
    }

    /// Overwrites the dynamic state from [`ShardFaults::save_state`] output.
    fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "shard faults")?;
        self.deferred = d.get()?;
        self.delivered = d.get()?;
        self.wf_next = d.get()?;
        if self.wf_next > self.worker_faults.len() {
            return Err(SnapError::new(
                "shard faults: worker-fault cursor out of range",
            ));
        }
        self.counters = d.get()?;
        Ok(())
    }
}

impl<P: Snap + Clone> FaultState<P> {
    /// Serializes the dynamic fault-layer state: the sender side, then one
    /// record per shard. Plan-derived fields (`track`, the pause windows,
    /// the worker-fault schedule) are rebuilt from the plan by
    /// [`FaultState::new`] and not recorded; the RNG resumes from its raw
    /// state, so fault draws continue exactly where they left off.
    pub(crate) fn save_state(&self) -> Value {
        let error = self.error.as_ref().map(|e| match *e {
            ClusterError::LinkTimeout {
                from,
                to,
                at,
                attempts,
            } => (from, to, at, attempts),
            _ => unreachable!("only LinkTimeout is ever recorded here"),
        });
        Enc::new()
            .put(&self.rng.state())
            .put(&self.next_id)
            .put(&self.pending)
            .put(&self.deadlines)
            .val(Value::Arr(
                self.shards.iter().map(ShardFaults::save_state).collect(),
            ))
            .put(&self.retries)
            .put(&error)
            .done()
    }

    /// Overwrites the dynamic state from [`FaultState::save_state`] output.
    /// The plan itself is guarded by the session's configuration
    /// fingerprint, not here.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record, a shard count that
    /// does not match the plan's or a worker-fault cursor past its
    /// shard's schedule.
    pub(crate) fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "fault state")?;
        self.rng = SplitMix64::new(d.get()?);
        self.next_id = d.get()?;
        self.pending = d.get()?;
        self.deadlines = d.get()?;
        let n = self.shards.len();
        for (s, v) in self.shards.iter_mut().zip(d.units("shard faults", n)?) {
            s.load_state(v)?;
        }
        self.retries = d.get()?;
        self.error =
            d.get::<Option<_>>()?
                .map(|(from, to, at, attempts)| ClusterError::LinkTimeout {
                    from,
                    to,
                    at,
                    attempts,
                });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_hil::LinkModel;

    fn links(n: usize) -> Vec<Link<Packet<u32>>> {
        (0..n)
            .map(|_| {
                Link::new(LinkModel {
                    occupancy: 2,
                    latency: 5,
                    setup: 0,
                    width: 1,
                })
            })
            .collect()
    }

    /// The serial pump's delivery step at shard `s`: every arrival through
    /// the shared helper, each ack applied back to back. Returns the
    /// payloads handed to the engine.
    fn arrive(
        f: &mut FaultState<u32>,
        links: &mut [Link<Packet<u32>>],
        s: usize,
        t: u64,
    ) -> Vec<u32> {
        let mut got = Vec::new();
        while let Some(a) = next_arrival(&mut links[s], Some(f.shard_mut(s)), t) {
            if a.ack {
                f.ack(a.id);
            }
            got.extend(a.msg);
        }
        got
    }

    #[test]
    fn zero_rate_plan_draws_no_randomness_and_skips_tracking() {
        let mut f: FaultState<u32> = FaultState::new(FaultPlan::new(1), 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 7, 1, &mut ls);
        // Same timing as a plain send: slot [0,2), delivery at 7.
        assert_eq!(ls[1].next_delivery(), Some(7));
        // Nothing can fault this message, so it is untracked: no retry
        // deadline feeds the event clock.
        assert!(f.next_time().is_none());
        let a = next_arrival(&mut ls[1], Some(f.shard_mut(1)), 7).expect("delivered");
        assert_eq!(a.id, 0, "untracked sends take the plain path");
        assert!(!a.ack, "untracked packets ask for no ack");
        assert_eq!(a.msg, Some(7));
        assert_eq!(f.counters(), FaultCounters::default());
        // The RNG was never advanced.
        assert_eq!(f.rng.clone().next_u64(), SplitMix64::new(1).next_u64());
    }

    #[test]
    fn lossy_plan_arms_the_retry_deadline() {
        // drop_rate > 0 engages tracking; with seed 1 the first draw keeps
        // the message, so it is delivered, acked and the deadline clears.
        let plan = FaultPlan::new(1).with_drop_rate(0.01);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 7, 1, &mut ls);
        assert_eq!(
            f.next_time(),
            Some(7 + 256),
            "the deadline sits strictly after the delivery"
        );
        let a = next_arrival(&mut ls[1], Some(f.shard_mut(1)), 7).expect("delivered");
        assert!(a.id != 0, "tracked sends carry a packet id");
        assert_eq!((a.msg, a.ack), (Some(7), true));
        assert_eq!(f.next_time(), Some(7 + 256), "the lane side draws nothing");
        f.ack(a.id);
        assert!(f.next_time().is_none(), "ack clears the deadline eagerly");
    }

    #[test]
    fn dropped_message_retries_and_eventually_exhausts() {
        let plan = FaultPlan::new(3)
            .with_drop_rate(1.0)
            .with_link_timeout(10)
            .with_max_retries(2);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 9, 1, &mut ls);
        let mut retries = 0;
        let mut guard = 0;
        while f.error().is_none() {
            guard += 1;
            assert!(guard < 100, "retry protocol must terminate");
            let t = [ls[1].next_delivery(), f.next_time()]
                .into_iter()
                .flatten()
                .min()
                .expect("work pending");
            assert!(arrive(&mut f, &mut ls, 1, t).is_empty(), "all copies drop");
            retries += f.pump_retries(t, &mut ls).len();
        }
        assert_eq!(retries, 2);
        assert_eq!(f.counters().drops, 3, "original + 2 retries all dropped");
        assert!(matches!(
            f.error(),
            Some(ClusterError::LinkTimeout {
                from: 0,
                to: 1,
                attempts: 2,
                ..
            })
        ));
        // After exhaustion the layer is quiescent.
        assert!(f.next_time().is_none());
    }

    #[test]
    fn duplicates_are_delivered_once() {
        let plan = FaultPlan::new(5).with_dup_rate(1.0);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 42, 1, &mut ls);
        assert_eq!(ls[1].in_flight(), 2, "duplicate occupies a second slot");
        let mut got = Vec::new();
        for t in [7u64, 9] {
            got.extend(arrive(&mut f, &mut ls, 1, t));
        }
        assert_eq!(got, vec![42], "dedup passes exactly one copy");
        assert_eq!(f.counters().redeliveries, 1);
        assert!(f.next_time().is_none(), "first copy acked the sender");
    }

    #[test]
    fn pause_defers_delivery_to_window_end() {
        let plan = FaultPlan::new(9).with_pause(1, 0, 50);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 11, 1, &mut ls);
        assert!(
            arrive(&mut f, &mut ls, 1, 7).is_empty(),
            "paused shard defers"
        );
        assert_eq!(f.next_time(), Some(50), "release feeds the event clock");
        assert!(arrive(&mut f, &mut ls, 1, 49).is_empty());
        assert_eq!(arrive(&mut f, &mut ls, 1, 50), vec![11], "released");
        assert_eq!(f.counters(), FaultCounters::default());
    }

    #[test]
    fn worker_faults_fire_per_shard_in_time_order() {
        let plan = FaultPlan::new(0)
            .with_worker_fault(1, 30)
            .with_worker_fault(0, 10);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        assert_eq!(f.next_time(), Some(10));
        assert!(!f.shard_mut(0).due_worker_fault(5));
        assert!(!f.shard_mut(1).due_worker_fault(10));
        assert!(f.shard_mut(0).due_worker_fault(10));
        assert!(!f.shard_mut(0).due_worker_fault(10));
        assert_eq!(f.next_time(), Some(30));
        assert!(f.shard_mut(1).due_worker_fault(100));
        assert!(f.next_time().is_none());
    }

    #[test]
    fn shard_records_roundtrip_and_reject_a_cursor_past_the_schedule() {
        let plan = FaultPlan::new(5).with_dup_rate(1.0).with_worker_fault(1, 3);
        let mut f: FaultState<u32> = FaultState::new(plan.clone(), 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 42, 1, &mut ls);
        assert_eq!(arrive(&mut f, &mut ls, 1, 7), vec![42]);
        assert!(f.shard_mut(1).due_worker_fault(7));
        let snap = f.save_state();
        let mut back: FaultState<u32> = FaultState::new(plan.clone(), 2);
        back.load_state(&snap).unwrap();
        assert_eq!(back.next_time(), f.next_time());
        assert!(!back.shard_mut(1).due_worker_fault(u64::MAX), "cursor kept");
        // The duplicate still in flight is deduplicated after the restore.
        assert!(arrive(&mut back, &mut ls, 1, 9).is_empty());
        assert_eq!(back.counters().redeliveries, 1);
        // Field 4 holds the shard records; field 2 of each is its cursor.
        let mut bad = snap.clone();
        let Value::Arr(fields) = &mut bad else {
            unreachable!("a fault record is an array")
        };
        let Value::Arr(shards) = &mut fields[4] else {
            unreachable!("field 4 is the shard table")
        };
        let Value::Arr(shard0) = &mut shards[0] else {
            unreachable!("a shard record is an array")
        };
        shard0[2] = Value::Int(1);
        let err = FaultState::<u32>::new(plan, 2)
            .load_state(&bad)
            .unwrap_err();
        assert!(err.to_string().contains("cursor"), "got: {err}");
    }

    #[test]
    fn plan_validation_rejects_bad_schedules() {
        let cfg = ClusterConfig::balanced(2, 4);
        assert!(FaultPlan::new(0).validate(&cfg).is_ok());
        assert!(FaultPlan::new(0)
            .with_drop_rate(1.5)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_link_timeout(0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_max_retries(0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_jitter(0.5, 0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(2, 0, 10)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 10, 10)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 0, 10)
            .with_pause(0, 5, 15)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 0, 10)
            .with_pause(0, 10, 15)
            .validate(&cfg)
            .is_ok());
        // 2 faults on a 2-worker shard would leave zero workers.
        let two = FaultPlan::new(0)
            .with_worker_fault(0, 1)
            .with_worker_fault(0, 2);
        assert!(two.validate(&cfg).is_err());
        assert!(FaultPlan::new(0)
            .with_worker_fault(0, 1)
            .validate(&cfg)
            .is_ok());
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let p = FaultPlan::new(0).with_link_timeout(8);
        assert_eq!(p.timeout_after(0), 8);
        assert_eq!(p.timeout_after(1), 16);
        assert_eq!(p.timeout_after(6), 8 << 6);
        assert_eq!(p.timeout_after(60), 8 << 6, "backoff saturates");
    }
}
