//! Result checking: every op the benchmark times is checked after the
//! timed window, and a failed check counts against the run's ok ratio
//! instead of aborting it.
//!
//! On the default seed each reference schedule digest is compared with a
//! value pinned in `pins.txt`; on every other (held-out) seed it is
//! compared with an independent reference run instead (cluster at one
//! thread, a solo session, a direct backend run).

use picos_runtime::ExecReport;
use picos_trace::Trace;
use std::collections::HashMap;

/// The seed whose reference digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned digests, one `namespace key digest` line each.
const PINS: &str = include_str!("../pins.txt");

/// FNV-1a digest of a schedule: makespan, execution order, start and end
/// cycles. The same function `picos serve` puts in its close replies.
pub fn digest(report: &ExecReport) -> u64 {
    picos_serve::schedule_digest(report)
}

/// FNV-1a digest of a workload's input traces (task durations and
/// dependences), so a run's record shows which inputs it measured.
pub fn input_digest<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for trace in traces {
        eat(trace.len() as u64);
        for t in trace.iter() {
            eat(t.duration);
            for d in t.deps.iter() {
                eat(d.addr);
                eat(d.dir as u64);
            }
        }
    }
    h
}

/// Validates a schedule against its trace and returns its digest.
pub fn validated_digest(report: &ExecReport, trace: &Trace) -> Result<u64, String> {
    report.validate(trace)?;
    Ok(digest(report))
}

/// Attempted and failed op counts plus the pinned-digest table.
#[derive(Debug)]
pub struct Checker {
    namespace: String,
    pins: Option<HashMap<String, u64>>,
    recorded: Option<Vec<(String, u64)>>,
    inject: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    /// A checker for one workload and input size. `default_seed` selects
    /// pinned-digest checks; `record` collects digests for `--write-pins`
    /// instead of checking them; `inject` corrupts the first expected
    /// digest so the failure path can be tested.
    pub fn new(namespace: String, default_seed: bool, record: bool, inject: bool) -> Self {
        let pins = (default_seed && !record).then(|| {
            PINS.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (ns, key, d) = (f.next()?, f.next()?, f.next()?);
                    (ns == namespace).then(|| (key.to_string(), u64::from_str_radix(d, 16).ok()))
                })
                .filter_map(|(k, d)| Some((k, d?)))
                .collect()
        });
        Checker {
            namespace,
            pins,
            recorded: record.then(Vec::new),
            inject,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one op with its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Compares a digest with its expected value (the injected mismatch,
    /// when armed, corrupts the first comparison).
    pub fn same(&mut self, what: &str, got: u64, mut want: u64) -> Result<(), String> {
        if std::mem::take(&mut self.inject) {
            want ^= 1;
        }
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: digest {got:016x} != expected {want:016x}"))
        }
    }

    /// On the default seed, compares a reference digest with its pin; on
    /// held-out seeds there is no pin and this passes.
    pub fn pinned(&mut self, key: &str, got: u64) -> Result<(), String> {
        if let Some(rec) = &mut self.recorded {
            rec.push((key.to_string(), got));
            return Ok(());
        }
        let Some(pins) = &self.pins else {
            return Ok(());
        };
        match pins.get(key).copied() {
            Some(want) => self.same(key, got, want),
            None => Err(format!("{key}: no pinned digest")),
        }
    }

    /// Whether digests are being recorded for `--write-pins`.
    pub fn recording(&self) -> bool {
        self.recorded.is_some()
    }

    /// Ops counted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed ops so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure reasons.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Pin lines recorded under `--write-pins`, sorted by key.
    pub fn pin_lines(&self) -> Vec<String> {
        let mut rec = self.recorded.clone().unwrap_or_default();
        rec.sort();
        rec.dedup();
        rec.iter()
            .map(|(k, d)| format!("{} {k} {d:016x}", self.namespace))
            .collect()
    }
}
