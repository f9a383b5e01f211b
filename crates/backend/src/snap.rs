//! [`Snapshot`]: a captured session state, portable through JSON.
//!
//! Every engine in the workspace is a deterministic state machine whose
//! concrete sessions serialize their complete dynamic state — engine
//! tables, clocks, in-flight work, ingest window, schedule/event logs,
//! attached telemetry — through the in-tree codec
//! ([`picos_trace::snap`]). `Snapshot` is the backend-level face of that
//! subsystem, working uniformly on boxed [`SimSession`]s of any family:
//!
//! * [`Snapshot::capture`] a live session,
//! * persist it ([`Snapshot::to_json`] / [`Snapshot::from_json`]),
//! * [`Snapshot::restore`] it into a freshly opened, **identically
//!   configured** session — after which driving the restored session is
//!   bit-exact with driving the original (report, hardware counters,
//!   timelines, span logs),
//! * or skip serialization entirely and [`SimSession::fork_boxed`] an
//!   ephemeral in-memory replica.
//!
//! Snapshots embed configuration fingerprints, so restoring into a
//! differently configured session fails with a typed error instead of
//! silently corrupting state. Together with the input journal
//! (`picos_runtime::JournaledSession`) this gives checkpointed recovery:
//! persist a snapshot plus the journal tail recorded after it, and
//! recovery is restore + tail replay instead of full-journal replay.

use crate::session::SimSession;
use picos_trace::snap::{value_from_json, value_to_json};
use picos_trace::{SnapError, Value};

/// A complete point-in-time copy of a session's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    state: Value,
}

impl Snapshot {
    /// Captures the session's complete dynamic state.
    pub fn capture(session: &dyn SimSession) -> Self {
        Snapshot {
            state: session.save_state(),
        }
    }

    /// Restores this snapshot into a freshly opened session of the same
    /// family and configuration. After a successful restore, driving
    /// `session` is bit-exact with driving the captured session.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the session's configuration does not
    /// match the snapshot's embedded fingerprint, or the snapshot is
    /// malformed; the session must then be discarded.
    pub fn restore(&self, session: &mut dyn SimSession) -> Result<(), SnapError> {
        session.load_state(&self.state)
    }

    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        value_to_json(&self.state)
    }

    /// Parses a snapshot from [`Snapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on malformed JSON. Structural problems
    /// surface later, at [`Snapshot::restore`].
    pub fn from_json(s: &str) -> Result<Self, SnapError> {
        Ok(Snapshot {
            state: value_from_json(s)?,
        })
    }

    /// The raw state tree (for embedding in larger documents, e.g. a
    /// serve tenant checkpoint holding a snapshot plus a journal tail).
    pub fn value(&self) -> &Value {
        &self.state
    }

    /// Wraps a raw state tree produced by [`Snapshot::value`] /
    /// [`SimSession::save_state`].
    pub fn from_value(state: Value) -> Self {
        Snapshot { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendSpec, ExecBackend};
    use crate::session::{feed_range, feed_trace, Admission, SessionConfig, SessionCore};
    use picos_hil::HilMode;
    use picos_runtime::{replay_journal, replay_journal_tail, JournaledSession};
    use picos_trace::rng::SplitMix64;
    use picos_trace::{
        gen, Dependence, JournalOp, KernelClass, SessionJournal, TaskDescriptor, TaskId,
    };

    /// Every engine family, plus a genuinely sharded cluster (the `ALL`
    /// list's cluster entry is the one-shard degenerate point).
    fn families() -> Vec<BackendSpec> {
        BackendSpec::ALL
            .into_iter()
            .chain([BackendSpec::Cluster(3)])
            .collect()
    }

    fn build(spec: BackendSpec) -> Box<dyn ExecBackend> {
        spec.builder(4).build()
    }

    #[test]
    fn restore_equals_continuous_for_every_family() {
        // The tentpole conformance pin: capture mid-run (through the JSON
        // codec), restore into a fresh session, finish — every observable
        // (report, hw counters, timeline, span log, metrics) must be
        // bit-exact with the uninterrupted run, for every engine family,
        // including cuts at the very start and next to the end.
        // Small uncalibrated instance: calibrated paper traces run for
        // ~1e9 cycles, which a 64-cycle timeline window cannot hold.
        let tr = gen::sparselu(gen::SparseLuConfig {
            problem_size: 64,
            block_size: 8,
            calibrate: false,
        });
        let cfg = SessionConfig::windowed(16).with_timeline(64).with_spans();
        for spec in families() {
            let b = build(spec);
            let mut cont = b.open_with(cfg).unwrap();
            feed_range(&mut *cont, &tr, 0..tr.len()).unwrap();
            let expected = cont.finish_full().unwrap();
            for cut in [0, tr.len() / 3, tr.len() - 1] {
                let mut live = b.open_with(cfg).unwrap();
                feed_range(&mut *live, &tr, 0..cut).unwrap();
                let snap = Snapshot::capture(&*live);
                let snap = Snapshot::from_json(&snap.to_json()).unwrap();
                let mut restored = b.open_with(cfg).unwrap();
                snap.restore(&mut *restored).unwrap();
                feed_range(&mut *restored, &tr, cut..tr.len()).unwrap();
                let out = restored.finish_full().unwrap();
                assert_eq!(out, expected, "{spec} cut {cut}");
            }
        }
    }

    #[test]
    fn fork_is_independent_for_every_family() {
        let tr = gen::stream(gen::StreamConfig::heavy(120));
        let half = tr.len() / 2;
        for spec in families() {
            let b = build(spec);
            let mut cont = b.open_with(SessionConfig::batch()).unwrap();
            feed_range(&mut *cont, &tr, 0..tr.len()).unwrap();
            let expected = cont.finish_full().unwrap();

            let mut live = b.open_with(SessionConfig::batch()).unwrap();
            feed_range(&mut *live, &tr, 0..half).unwrap();
            let baseline = live.save_state();
            let mut fork = live.fork_boxed();
            feed_range(&mut *fork, &tr, half..tr.len()).unwrap();
            assert_eq!(fork.finish_full().unwrap(), expected, "{spec} fork");
            // Driving the replica must not have touched the original...
            assert_eq!(live.save_state(), baseline, "{spec} isolation");
            // ...which still finishes identically itself.
            feed_range(&mut *live, &tr, half..tr.len()).unwrap();
            assert_eq!(live.finish_full().unwrap(), expected, "{spec} original");
        }
    }

    #[test]
    fn restore_rejects_wrong_family_and_wrong_config() {
        let tr = gen::synthetic(gen::Case::Case2);
        let b = build(BackendSpec::Picos(HilMode::FullSystem));
        let mut live = b.open_with(SessionConfig::batch()).unwrap();
        feed_range(&mut *live, &tr, 0..tr.len()).unwrap();
        let snap = Snapshot::capture(&*live);
        // Same family, different worker count.
        let mut other = BackendSpec::Picos(HilMode::FullSystem)
            .builder(8)
            .build()
            .open_with(SessionConfig::batch())
            .unwrap();
        assert!(snap.restore(&mut *other).is_err(), "workers must guard");
        // A different family entirely.
        let mut perfect = build(BackendSpec::Perfect)
            .open_with(SessionConfig::batch())
            .unwrap();
        assert!(snap.restore(&mut *perfect).is_err(), "family must guard");
    }

    /// Rebuilds the first `n` ops of a journal as a standalone journal
    /// (the state a checkpointer replays before snapshotting).
    fn journal_prefix(journal: &SessionJournal, n: usize) -> SessionJournal {
        let mut p = SessionJournal::new();
        for op in &journal.ops()[..n] {
            match op {
                JournalOp::Submit(t) => p.record_submit(t),
                JournalOp::Barrier => p.record_barrier(),
                JournalOp::AdvanceTo(c) => p.record_advance_to(*c),
            }
        }
        p
    }

    #[test]
    fn mid_journal_checkpoint_recovery_for_every_family() {
        // Checkpointed recovery — restore a snapshot taken at journal
        // cursor `cut`, replay only the tail — must equal the
        // uninterrupted run for every family, at every cut.
        let tr = gen::stream(gen::StreamConfig::heavy(80));
        let cfg = SessionConfig::windowed(8).with_timeline(128);
        for spec in families() {
            let b = build(spec);
            let mut live = JournaledSession::new(b.open_with(cfg).unwrap());
            feed_trace(&mut live, &tr).unwrap();
            let (live, journal) = live.into_parts();
            let expected = live.finish_full().unwrap();
            for cut in [0, journal.len() / 2, journal.len()] {
                let mut pre = b.open_with(cfg).unwrap();
                replay_journal(&mut pre, &journal_prefix(&journal, cut)).unwrap();
                let snap = Snapshot::from_json(&Snapshot::capture(&*pre).to_json()).unwrap();
                let mut rec = b.open_with(cfg).unwrap();
                snap.restore(&mut *rec).unwrap();
                replay_journal_tail(&mut rec, &journal, cut).unwrap();
                assert_eq!(rec.finish_full().unwrap(), expected, "{spec} cut {cut}");
            }
        }
    }

    /// One random input op for the property drive: mostly submissions
    /// over a small address pool (so dependences chain), with occasional
    /// barriers and open-loop clock advances.
    fn random_ops(rng: &mut SplitMix64, n: usize) -> Vec<JournalOp> {
        let mut ops = Vec::with_capacity(n);
        let mut id = 0u32;
        let mut clock = 0u64;
        for _ in 0..n {
            match rng.next_u64() % 10 {
                0 if id > 0 => ops.push(JournalOp::Barrier),
                1 => {
                    clock += rng.next_u64() % 400;
                    ops.push(JournalOp::AdvanceTo(clock));
                }
                _ => {
                    let addr = |r: &mut SplitMix64| 64 * (r.next_u64() % 12);
                    let deps = [
                        Dependence::input(addr(rng)),
                        Dependence::inout(addr(rng)),
                        Dependence::output(addr(rng)),
                    ];
                    let nd = (rng.next_u64() % 4) as usize;
                    let dur = 20 + rng.next_u64() % 300;
                    ops.push(JournalOp::Submit(TaskDescriptor::new(
                        TaskId::new(id),
                        KernelClass::GENERIC,
                        deps[..nd].iter().copied(),
                        dur,
                    )));
                    id += 1;
                }
            }
        }
        ops
    }

    fn apply_ops<S: SessionCore + ?Sized>(s: &mut S, ops: &[JournalOp]) {
        for op in ops {
            match op {
                JournalOp::Submit(t) => loop {
                    match s.submit(t) {
                        Admission::Accepted => break,
                        Admission::Backpressured => assert!(s.step(), "stall"),
                    }
                },
                JournalOp::Barrier => s.barrier(),
                JournalOp::AdvanceTo(c) => s.advance_to(*c),
            }
        }
    }

    #[test]
    fn property_random_interleavings_checkpoint_anywhere() {
        // Satellite: snapshot × journal interaction under random op
        // interleavings. A checkpoint (snapshot + journal compaction,
        // through JSON) taken at a random cursor of a random op stream,
        // followed by crash recovery (restore + tail replay), must equal
        // the uninterrupted run — across engine families and window
        // configurations.
        let specs = [
            BackendSpec::Perfect,
            BackendSpec::Nanos,
            BackendSpec::Picos(HilMode::HwOnly),
            BackendSpec::Picos(HilMode::FullSystem),
            BackendSpec::Cluster(2),
        ];
        let mut rng = SplitMix64::new(0x5eed_cafe);
        for round in 0..15 {
            let spec = specs[(rng.next_u64() % specs.len() as u64) as usize];
            let cfg = if rng.next_u64().is_multiple_of(2) {
                SessionConfig::batch()
            } else {
                SessionConfig::windowed(4 + (rng.next_u64() % 12) as usize)
            };
            let n = 20 + (rng.next_u64() % 50) as usize;
            let ops = random_ops(&mut rng, n);
            let b = build(spec);

            // Uninterrupted reference.
            let mut cont = b.open_with(cfg).unwrap();
            apply_ops(&mut *cont, &ops);
            let expected = cont.finish_full().unwrap();

            // Live run with a checkpoint at a random op index: persist
            // the snapshot, compact the journal to the tail.
            let cut = (rng.next_u64() % (ops.len() as u64 + 1)) as usize;
            let mut live = JournaledSession::new(b.open_with(cfg).unwrap());
            apply_ops(&mut live, &ops[..cut]);
            let checkpoint =
                Snapshot::from_json(&Snapshot::capture(&**live.inner()).to_json()).unwrap();
            let cursor = live.journal().len();
            live.compact(cursor);
            apply_ops(&mut live, &ops[cut..]);
            let (_, tail) = live.into_parts();

            // Crash: recover from checkpoint + tail only.
            let tail = SessionJournal::from_json(&tail.to_json()).unwrap();
            let mut rec = b.open_with(cfg).unwrap();
            checkpoint.restore(&mut *rec).unwrap();
            replay_journal_tail(&mut rec, &tail, 0).unwrap();
            assert_eq!(
                rec.finish_full().unwrap(),
                expected,
                "round {round}: {spec} cut {cut}/{}",
                ops.len()
            );
        }
    }
}
