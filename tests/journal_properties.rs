//! Journal-under-rejection properties: a session journal records the
//! *accepted* input stream and nothing else.
//!
//! Backpressured offers (window full) and quota-rejected offers (serve
//! admission control) are retried by callers, so recording them would
//! double-submit on replay. These tests pin the invariant from both ends:
//! the journal written while driving a backpressured session contains
//! exactly the accepted ops, and replaying such a journal — itself under
//! pressure — re-records the identical journal.

use picos_repro::prelude::*;
use picos_repro::trace::KernelClass;
use picos_trace::rng::SplitMix64;

/// Drives `trace` through a journaled windowed session, riding out
/// backpressure with `step`. Returns the report, the journal and how many
/// offers were rejected.
fn drive_journaled(
    backend: &dyn ExecBackend,
    trace: &Trace,
    window: usize,
) -> (ExecReport, SessionJournal, u64) {
    let inner = backend.open_with(SessionConfig::windowed(window)).unwrap();
    let mut s = JournaledSession::new(inner);
    let mut rejected = 0u64;
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        while s.submit(task) == Admission::Backpressured {
            rejected += 1;
            assert!(s.step(), "{}: blocked session must drain", backend.name());
        }
    }
    let (inner, journal) = s.into_parts();
    let (r, _) = inner.finish().unwrap();
    (r, journal, rejected)
}

/// Rejected offers never reach the journal: for any random trace and a
/// window small enough to push back, the journal holds exactly one Submit
/// per trace task plus the barriers — however many times each offer was
/// retried.
#[test]
fn backpressured_offers_are_never_journaled() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x10A1u64.wrapping_mul(0x9e37).wrapping_add(case));
        let cfg = gen::RandomConfig {
            tasks: rng.range_usize(2, 80),
            addr_pool: rng.range_usize(1, 12),
            max_deps: rng.range_usize(0, 4),
            write_fraction: rng.f64(),
            max_duration: rng.range_u64(1, 500),
        };
        let seed = rng.range_u64(0, 999);
        let trace = gen::random_trace(cfg, seed);
        if trace.is_empty() {
            continue;
        }
        let window = rng.range_usize(1, 4);
        for spec in [
            BackendSpec::Perfect,
            BackendSpec::Nanos,
            BackendSpec::Cluster(2),
        ] {
            let backend = spec.builder(2).build();
            let (r, journal, rejected) = drive_journaled(&*backend, &trace, window);
            assert_eq!(r.order.len(), trace.len(), "seed {seed} {spec}");
            assert_eq!(
                journal.submitted(),
                trace.len(),
                "seed {seed} {spec}: journal must hold exactly the accepted submits"
            );
            assert_eq!(
                journal.len(),
                trace.len() + trace.barriers().len(),
                "seed {seed} {spec}: rejected offers leaked into the journal \
                 ({rejected} rejections)"
            );
        }
    }
}

/// Replaying a journal under the same pressure re-records the identical
/// journal: replay retries backpressure internally, so no rejected op can
/// ever appear in a replayed journal either — recovery is closed under
/// itself.
#[test]
fn replayed_journals_never_contain_rejected_ops() {
    let mut trace = Trace::new("replay-pressure");
    for i in 0..120u64 {
        trace.push(
            KernelClass::GENERIC,
            [Dependence::inout(0x4000 + (i % 8) * 0x40)],
            200,
        );
        if i % 40 == 39 {
            trace.push_taskwait();
        }
    }
    for spec in BackendSpec::ALL {
        let backend = spec.builder(4).build();
        let (solo, journal, rejected) = drive_journaled(&*backend, &trace, 3);
        assert!(rejected > 0, "{spec}: a 3-task window must push back");

        // Replay through a *fresh* journaling wrapper with the same tiny
        // window: the re-recorded journal must equal the original.
        let inner = backend.open_with(SessionConfig::windowed(3)).unwrap();
        let mut replayed = JournaledSession::new(inner);
        replay_journal(&mut replayed, &journal).unwrap();
        let (inner, rejournal) = replayed.into_parts();
        assert_eq!(
            rejournal, journal,
            "{spec}: replay re-recorded a different input stream"
        );
        let (r, _) = inner.finish().unwrap();
        assert_eq!(r.makespan, solo.makespan, "{spec}");
        assert_eq!(r.order, solo.order, "{spec}: replay must be bit-exact");
    }
}

/// The serve layer's admission quota sits *above* the session: offers
/// rejected for quota never reach the engine, so they can never be
/// journaled — the tenant journal always equals the accepted stream.
#[test]
fn serve_quota_rejections_are_never_journaled() {
    let mut svc = Service::new(ServeConfig {
        default_quota: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    svc.open("t", &TenantSpec::new(BackendSpec::Nanos, 4))
        .unwrap();
    let trace = gen::stream(gen::StreamConfig::heavy(64));
    let mut quota_rejections = 0u64;
    for task in trace.iter() {
        loop {
            match svc.submit("t", task).unwrap() {
                SubmitOutcome::Accepted => break,
                SubmitOutcome::Backpressured | SubmitOutcome::QuotaExceeded => {
                    quota_rejections += 1;
                    svc.run_round();
                }
            }
        }
        let journal = svc.journal("t").unwrap();
        assert!(
            journal.submitted() <= trace.len(),
            "journal grew past the accepted stream"
        );
    }
    assert!(
        quota_rejections > 0,
        "a 4-task quota over 64 tasks must reject"
    );
    assert_eq!(
        svc.journal("t").unwrap().submitted(),
        trace.len(),
        "quota rejections leaked into the journal"
    );
    svc.run_until_idle();
    let out = svc.close("t").unwrap();
    assert_eq!(out.report.order.len(), trace.len());
}
