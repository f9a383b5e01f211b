//! Crash recovery for streaming sessions: record the accepted input
//! stream, replay it into a fresh session.
//!
//! [`JournaledSession`] wraps any [`SessionCore`] and appends every
//! *accepted* input operation — admitted submissions, barriers and
//! `advance_to` assertions — to a [`SessionJournal`]. Because every
//! engine's schedule is a deterministic function of that stream (pinned by
//! the session-conformance suite: any submit/step interleaving is
//! bit-exact with the batch run), [`replay_journal`] rebuilds a crashed
//! session's state cycle-for-cycle in a new session, which then continues
//! accepting live input.
//!
//! `step`, `now`, `in_flight` and `drain_events` are observational or
//! forced (a `step` only moves the clock when the session is
//! ingest-blocked, where the replay driver must make the same advance to
//! drain its own backpressure) and are deliberately not recorded.

use crate::session::{Admission, FeedStall, SessionCore, SimEvent};
use picos_trace::{JournalOp, SessionJournal, TaskDescriptor};

/// A [`SessionCore`] wrapper that journals the accepted input stream.
///
/// # Examples
///
/// ```
/// use picos_runtime::{
///     replay_journal, JournaledSession, PerfectSession, SessionConfig, SessionCore,
/// };
/// use picos_trace::{Dependence, KernelClass, TaskDescriptor, TaskId};
///
/// let session = PerfectSession::new(2, SessionConfig::batch()).unwrap();
/// let mut live = JournaledSession::new(session);
/// let t = TaskDescriptor::new(TaskId::new(0), KernelClass::GENERIC, [Dependence::inout(64)], 9);
/// live.submit(&t);
/// live.barrier();
/// let (_, journal) = live.into_parts();
///
/// // ... the original process dies; recover from the journal:
/// let mut recovered = PerfectSession::new(2, SessionConfig::batch()).unwrap();
/// replay_journal(&mut recovered, &journal).unwrap();
/// assert_eq!(recovered.in_flight(), 1);
/// ```
#[derive(Debug)]
pub struct JournaledSession<S> {
    inner: S,
    journal: SessionJournal,
}

impl<S: SessionCore> JournaledSession<S> {
    /// Wraps a session, journaling from now on (the session should be
    /// freshly opened — ops accepted before wrapping are not in the
    /// journal).
    pub fn new(inner: S) -> Self {
        JournaledSession {
            inner,
            journal: SessionJournal::new(),
        }
    }

    /// Resumes journaling over a recovered session: the wrapper adopts
    /// `journal` (typically the snapshot-time tail kept by a checkpoint)
    /// and appends new ops after it, so the persisted journal stays the
    /// exact op suffix since the last snapshot.
    pub fn from_parts(inner: S, journal: SessionJournal) -> Self {
        JournaledSession { inner, journal }
    }

    /// The journal recorded so far (persist with
    /// [`SessionJournal::to_json`] as often as the crash-recovery window
    /// requires).
    pub fn journal(&self) -> &SessionJournal {
        &self.journal
    }

    /// Drops every recorded op up to (excluding) `from`, keeping the tail.
    /// A checkpointer calls this right after persisting a snapshot taken
    /// at journal cursor `from`: recovery becomes snapshot + tail replay,
    /// and the journal stops growing without bound.
    pub fn compact(&mut self, from: usize) {
        self.journal = self.journal.tail(from);
    }

    /// Read access to the wrapped session.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped session, **bypassing the journal**.
    /// For state surgery that must not be recorded — restoring a snapshot
    /// into a recovered session before replaying the journal tail. Do not
    /// feed input through this: unjournaled ops are unrecoverable.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps into the session and its journal (for finishing the run:
    /// the inner session owns the report).
    pub fn into_parts(self) -> (S, SessionJournal) {
        (self.inner, self.journal)
    }
}

impl<S: SessionCore> SessionCore for JournaledSession<S> {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        let adm = self.inner.submit(task);
        if adm == Admission::Accepted {
            self.journal.record_submit(task);
        }
        adm
    }

    fn barrier(&mut self) {
        self.journal.record_barrier();
        self.inner.barrier();
    }

    fn advance_to(&mut self, cycle: u64) {
        self.journal.record_advance_to(cycle);
        self.inner.advance_to(cycle);
    }

    fn step(&mut self) -> bool {
        self.inner.step()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        self.inner.drain_events(out)
    }

    fn reserve(&mut self, additional: usize) {
        self.journal.reserve(additional);
        self.inner.reserve(additional)
    }
}

/// Replays a journal into a fresh session, rebuilding the recorded input
/// stream op for op. Backpressured submissions are drained with
/// [`SessionCore::step`], exactly like the batch feed loop — the journal
/// records only accepted offers, so the replaying driver re-derives the
/// same forced clock advances the original client made.
///
/// After replay the session is bit-exact with the original at the point
/// the journal was cut and accepts further live input.
///
/// # Errors
///
/// Returns [`FeedStall`] if a submission stays backpressured while the
/// session cannot progress. A journal recorded from a working session
/// replays into an identically configured session without stalling; a
/// stall means the replay target was opened with a smaller window than
/// the recorder.
pub fn replay_journal<S: SessionCore + ?Sized>(
    session: &mut S,
    journal: &SessionJournal,
) -> Result<(), FeedStall> {
    replay_journal_tail(session, journal, 0)
}

/// Replays the journal suffix starting at op index `from` — the
/// checkpointed-recovery primitive: restore a session from a snapshot
/// taken at journal cursor `from`, then replay only the tail recorded
/// after it. `replay_journal` is the `from == 0` special case (recovery
/// without a snapshot). Indexes past the end replay nothing.
///
/// # Errors
///
/// Returns [`FeedStall`] under the same conditions as [`replay_journal`];
/// the reported task index counts submissions within the tail.
pub fn replay_journal_tail<S: SessionCore + ?Sized>(
    session: &mut S,
    journal: &SessionJournal,
    from: usize,
) -> Result<(), FeedStall> {
    let ops = &journal.ops()[from.min(journal.len())..];
    session.reserve(
        ops.iter()
            .filter(|op| matches!(op, JournalOp::Submit(_)))
            .count(),
    );
    let mut submitted: u32 = 0;
    for op in ops {
        match op {
            JournalOp::Submit(task) => {
                loop {
                    match session.submit(task) {
                        Admission::Accepted => break,
                        Admission::Backpressured => {
                            if !session.step() {
                                return Err(FeedStall { task: submitted });
                            }
                        }
                    }
                }
                submitted += 1;
            }
            JournalOp::Barrier => session.barrier(),
            JournalOp::AdvanceTo(cycle) => session.advance_to(*cycle),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfect::PerfectSession;
    use crate::session::{feed_trace, SessionConfig};
    use picos_trace::gen;

    fn perfect(workers: usize, cfg: SessionConfig) -> PerfectSession {
        PerfectSession::new(workers, cfg).unwrap()
    }

    #[test]
    fn journaled_feed_replays_bit_exact() {
        let trace = gen::stream(gen::StreamConfig::heavy(60));
        let mut live = JournaledSession::new(perfect(4, SessionConfig::batch()));
        feed_trace(&mut live, &trace).unwrap();
        let (live, journal) = live.into_parts();
        let original = live.into_output().0;

        assert_eq!(journal.submitted(), trace.len());
        let mut recovered = perfect(4, SessionConfig::batch());
        replay_journal(&mut recovered, &journal).unwrap();
        assert_eq!(recovered.into_output().0, original);
    }

    #[test]
    fn backpressured_offers_are_recorded_once_and_replay_exactly() {
        let trace = gen::stream(gen::StreamConfig::heavy(40));
        let mut live = JournaledSession::new(perfect(2, SessionConfig::windowed(3)));
        feed_trace(&mut live, &trace).unwrap();
        let (live, journal) = live.into_parts();
        let original = live.into_output().0;
        // Every task appears exactly once despite backpressure retries.
        assert_eq!(journal.submitted(), trace.len());

        let mut recovered = perfect(2, SessionConfig::windowed(3));
        replay_journal(&mut recovered, &journal).unwrap();
        assert_eq!(recovered.into_output().0, original);
    }

    /// Rebuilds the first `n` ops of a journal as a standalone journal
    /// (the state a checkpointer would have replayed into its snapshot).
    fn prefix(journal: &SessionJournal, n: usize) -> SessionJournal {
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
    fn checkpoint_plus_tail_replay_equals_full_replay() {
        let trace = gen::stream(gen::StreamConfig::heavy(50));
        let mut live = JournaledSession::new(perfect(3, SessionConfig::windowed(8)));
        feed_trace(&mut live, &trace).unwrap();
        let (live, journal) = live.into_parts();
        let original = live.into_output().0;

        for cut in [0, 1, journal.len() / 2, journal.len()] {
            // The checkpoint: state at op cursor `cut`, through JSON.
            let mut pre = perfect(3, SessionConfig::windowed(8));
            replay_journal(&mut pre, &prefix(&journal, cut)).unwrap();
            let text = picos_trace::snap::value_to_json(&pre.save_state());
            let snap = picos_trace::snap::value_from_json(&text).unwrap();
            // The recovery: snapshot + tail replay only.
            let mut rec = perfect(3, SessionConfig::windowed(8));
            rec.load_state(&snap).unwrap();
            replay_journal_tail(&mut rec, &journal, cut).unwrap();
            assert_eq!(rec.into_output().0, original, "cut {cut}");
        }
    }

    #[test]
    fn compact_keeps_only_the_tail() {
        let trace = gen::stream(gen::StreamConfig::heavy(10));
        let mut live = JournaledSession::new(perfect(2, SessionConfig::batch()));
        feed_trace(&mut live, &trace).unwrap();
        let cursor = live.journal().len();
        live.compact(cursor);
        assert!(live.journal().is_empty(), "checkpoint consumed the journal");
        let extra = trace.tasks()[0].clone();
        live.submit(&extra);
        assert_eq!(live.journal().len(), 1, "tail keeps post-checkpoint ops");
        // Past-the-end compaction is a no-op empty tail, not a panic.
        live.compact(99);
        assert!(live.journal().is_empty());
    }

    #[test]
    fn journal_roundtrips_through_json_and_still_replays() {
        let trace = gen::stream(gen::StreamConfig::heavy(30));
        let mut live = JournaledSession::new(perfect(4, SessionConfig::batch()));
        feed_trace(&mut live, &trace).unwrap();
        live.advance_to(10_000);
        let (live, journal) = live.into_parts();
        let original = live.into_output().0;

        let journal = picos_trace::SessionJournal::from_json(&journal.to_json()).unwrap();
        let mut recovered = perfect(4, SessionConfig::batch());
        replay_journal(&mut recovered, &journal).unwrap();
        assert_eq!(recovered.into_output().0, original);
    }
}
