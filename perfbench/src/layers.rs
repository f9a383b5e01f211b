//! Layer probes: the benchmark's calls into each layer, one span per call,
//! and the per-layer metrics derived from those spans.
//!
//! The same inputs are replayed one rung down the stack at a time, so
//! each layer's marginal cost per task falls out of the difference
//! between adjacent rungs without touching program code.

use crate::check::{digest, validated_digest};
use crate::span::Tracer;
use crate::stats::{median, quantile};
use crate::Ctx;
use picos_backend::{
    feed_trace, Admission, ArrivalTrace, BackendSpec, ExecBackend, FaultPlan, SessionConfig,
    SessionCore, Snapshot, TraceSource,
};
use picos_core::{DmDesign, FinishedReq, PicosConfig, PicosSystem, Stats, TsPolicy};
use picos_hil::HilMode;
use picos_runtime::ExecReport;
use picos_trace::Trace;
use std::sync::Arc;
use std::time::Instant;

/// Worker count of the probes that are not sweep cells.
pub const PROBE_WORKERS: usize = 8;

/// The fault plan of faulty cluster cells: 1% link drop.
pub fn drop_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_drop_rate(0.01)
}

/// One experiment-grid cell, run directly through its backend.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index of the cell's input trace.
    pub input: usize,
    /// Backend family.
    pub spec: BackendSpec,
    /// Picos DM design (Picos and cluster families).
    pub dm: DmDesign,
    /// Worker count.
    pub workers: usize,
    /// Cluster simulation threads.
    pub threads: usize,
    /// Cluster fault plan.
    pub fault: Option<FaultPlan>,
}

impl Cell {
    /// The backend exactly as the sweep harness builds it for this cell.
    pub fn backend(&self) -> Box<dyn ExecBackend> {
        self.spec
            .builder(self.workers)
            .picos(&PicosConfig::future(1, self.dm).with_ts_policy(TsPolicy::Fifo))
            .threads(Some(self.threads))
            .faults(self.fault.clone())
            .build()
    }

    /// Stable key naming the cell (thread count excluded: it never changes
    /// a schedule).
    pub fn key(&self, input_label: &str) -> String {
        let dm = if self.spec.uses_picos_config() {
            format!("{:?}", self.dm)
        } else {
            "-".to_string()
        };
        let fault = if self.fault.is_some() {
            "drop1"
        } else {
            "nofault"
        };
        format!(
            "{input_label}/{}x{}/{dm}/w{}/{fault}",
            self.spec.label(),
            self.spec.shards(),
            self.workers
        )
    }

    /// The span naming the layer this cell exercises.
    fn span_name(&self) -> &'static str {
        match (self.spec, self.fault.is_some(), self.threads > 1) {
            (BackendSpec::Perfect, ..) => "runtime.perfect",
            (BackendSpec::Nanos, ..) => "runtime.nanos",
            (BackendSpec::Picos(_), ..) => "hil.run",
            (BackendSpec::Cluster(_), true, _) => "cluster.fault",
            (BackendSpec::Cluster(_), false, true) => "cluster.batch",
            (BackendSpec::Cluster(_), false, false) => "cluster.batch_serial",
        }
    }
}

/// What a direct cell run produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The schedule.
    pub report: ExecReport,
    /// Picos hardware counters, when the family models Picos.
    pub stats: Option<Stats>,
    /// Link retransmissions under the cell's fault plan.
    pub retries: Option<u64>,
}

/// Runs a cell as open → feed → finish, each call in its own span.
pub fn run_cell(tr: &mut Tracer, op: u64, cell: &Cell, trace: &Trace) -> Result<CellRun, String> {
    let backend = cell.backend();
    let outer = tr.begin(cell.span_name(), op);
    let out = (|| {
        let mut s = tr
            .span("backend.open", op, || {
                backend.open_with(SessionConfig::batch())
            })
            .map_err(|e| e.to_string())?;
        tr.span("backend.feed", op, || feed_trace(&mut *s, trace))
            .map_err(|e| e.to_string())?;
        tr.span("backend.finish", op, || s.finish_full())
            .map_err(|e| e.to_string())
    })();
    tr.end(outer);
    let out = out?;
    cell.add_work(tr, trace.len() as u64);
    Ok(CellRun {
        retries: out.metrics.value("faults.retries"),
        report: out.report,
        stats: out.stats,
    })
}

/// Runs the bare Picos core over a trace with instant workers (the bottom
/// rung of every ladder) and returns its counters.
pub fn run_core(tr: &mut Tracer, op: u64, trace: &Trace) -> Result<Stats, String> {
    let id = tr.begin("core.engine", op);
    let mut sys = PicosSystem::new(PicosConfig::balanced());
    sys.submit_all(trace);
    let r = sys.run_to_quiescence(1 << 40, |r| {
        Some(FinishedReq {
            task: r.task,
            slot: r.slot,
        })
    });
    tr.end(id);
    r.map_err(|e| format!("core engine: {e}"))?;
    let stats = sys.stats();
    if stats.tasks_completed != trace.len() as u64 {
        return Err(format!(
            "core engine completed {} of {} tasks",
            stats.tasks_completed,
            trace.len()
        ));
    }
    tr.add_work("core.engine", trace.len() as u64);
    tr.add_work("core.deps", stats.deps_processed);
    Ok(stats)
}

/// The batch-rung cells of each trace, in this order: perfect, nanos,
/// the three HIL modes, then a 4-shard cluster on `nproc` threads, on one
/// thread, and on one thread under 1% link drop.
pub fn batch_cells(traces: &[Arc<Trace>], nproc: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for input in 0..traces.len() {
        let base = Cell {
            input,
            spec: BackendSpec::Perfect,
            dm: DmDesign::PearsonEightWay,
            workers: PROBE_WORKERS,
            threads: 1,
            fault: None,
        };
        for spec in [
            BackendSpec::Perfect,
            BackendSpec::Nanos,
            BackendSpec::Picos(HilMode::HwOnly),
            BackendSpec::Picos(HilMode::HwComm),
            BackendSpec::Picos(HilMode::FullSystem),
        ] {
            cells.push(Cell {
                spec,
                ..base.clone()
            });
        }
        let cluster = Cell {
            spec: BackendSpec::Cluster(4),
            ..base
        };
        cells.push(Cell {
            threads: nproc.clamp(1, 4),
            ..cluster.clone()
        });
        cells.push(cluster.clone());
        cells.push(Cell {
            fault: Some(drop_plan(7)),
            ..cluster
        });
    }
    cells
}

/// Per-layer metrics of the batch rungs, from the spans `run_cell` and
/// `run_core` recorded and the counters of the cell runs.
pub fn batch_metrics(ctx: &mut Ctx, runs: &[(Cell, CellRun)]) {
    let tr = &ctx.tracer;
    let m = &mut ctx.layer;
    m.set(
        "core.engine_ns_per_task",
        tr.ns_per_unit("core.engine", "core.engine"),
        "ns",
    );
    m.set(
        "core.ns_per_dep",
        tr.ns_per_unit("core.engine", "core.deps"),
        "ns",
    );
    m.set(
        "hil.ns_per_task",
        tr.ns_per_unit("hil.run", "hil.run"),
        "ns",
    );
    m.set(
        "runtime.nanos_ns_per_task",
        tr.ns_per_unit("runtime.nanos", "runtime.nanos"),
        "ns",
    );
    m.set(
        "runtime.perfect_ns_per_task",
        tr.ns_per_unit("runtime.perfect", "runtime.perfect"),
        "ns",
    );
    m.set("backend.open_us", tr.mean_ns("backend.open") / 1e3, "us");
    m.set(
        "backend.feed_ns_per_task",
        tr.ns_per_unit("backend.feed", "backend.feed"),
        "ns",
    );
    m.set(
        "backend.finish_ns_per_task",
        tr.ns_per_unit("backend.finish", "backend.feed"),
        "ns",
    );
    m.set(
        "cluster.batch_ns_per_task",
        tr.ns_per_unit("cluster.batch", "cluster.batch"),
        "ns",
    );
    m.set(
        "cluster.batch_serial_ns_per_task",
        tr.ns_per_unit("cluster.batch_serial", "cluster.batch_serial"),
        "ns",
    );
    m.set(
        "cluster.fault_ns_per_task",
        tr.ns_per_unit("cluster.fault", "cluster.fault"),
        "ns",
    );
    let sum = |f: &dyn Fn(&CellRun) -> Option<u64>| {
        runs.iter().filter_map(|(_, r)| f(r)).sum::<u64>() as f64
    };
    m.set("cluster.fault.retries", sum(&|r| r.retries), "count");
    m.set(
        "core.sim.dm_conflicts",
        sum(&|r| r.stats.as_ref().map(|s| s.dm_conflicts)),
        "count",
    );
    m.set(
        "core.sim.tm_stalls",
        sum(&|r| r.stats.as_ref().map(|s| s.tm_stalls)),
        "count",
    );
    m.set(
        "core.sim.vm_stalls",
        sum(&|r| r.stats.as_ref().map(|s| s.vm_stalls)),
        "count",
    );
}

impl Cell {
    /// Records the units of work of a finished run under this cell's spans.
    pub fn add_work(&self, tr: &mut Tracer, tasks: u64) {
        tr.add_work(self.span_name(), tasks);
        tr.add_work("backend.feed", tasks);
    }
}

/// Checks that a direct cell run produced a valid schedule and returns
/// the schedule's digest.
pub fn check_cell_run(run: &Result<CellRun, String>, trace: &Trace) -> Result<u64, String> {
    let run = run.as_ref().map_err(Clone::clone)?;
    validated_digest(&run.report, trace)
}

/// What one paced drive produced.
#[derive(Debug, Clone)]
pub struct PacedRun {
    /// The schedule.
    pub report: ExecReport,
    /// Submission attempts.
    pub submits: u64,
    /// Backpressured attempts.
    pub backpressured: u64,
    /// Clock-moving calls (`advance_to` and `step`).
    pub drives: u64,
}

/// The paced driver of `pace::run_paced`, call by call in spans: advance
/// to each arrival, submit, step while the window pushes back.
pub fn paced(
    tr: &mut Tracer,
    op: u64,
    backend: &dyn ExecBackend,
    trace: &Trace,
    arrivals: &[u64],
    window: usize,
) -> Result<PacedRun, String> {
    let mut src = ArrivalTrace::new(trace, arrivals);
    let mut s = tr
        .span("session.open", op, || {
            backend.open_with(SessionConfig::windowed(window))
        })
        .map_err(|e| e.to_string())?;
    let (mut submits, mut backpressured, mut drives) = (0u64, 0u64, 0u64);
    while let Some(item) = src.next_paced() {
        if item.barrier_before {
            s.barrier();
        }
        if item.arrival > s.now() {
            tr.span("session.advance_to", op, || s.advance_to(item.arrival));
            drives += 1;
        }
        loop {
            submits += 1;
            match tr.span("session.submit", op, || s.submit(&item.task)) {
                Admission::Accepted => break,
                Admission::Backpressured => {
                    backpressured += 1;
                    drives += 1;
                    if !tr.span("session.step", op, || s.step()) {
                        return Err("paced drive stalled".into());
                    }
                }
            }
        }
    }
    let out = tr
        .span("session.finish", op, || s.finish_full())
        .map_err(|e| e.to_string())?;
    Ok(PacedRun {
        report: out.report,
        submits,
        backpressured,
        drives,
    })
}

/// The paced rungs: the same drives on a 4-shard cluster at `nproc`
/// simulation threads (spanned call by call) and at one thread. Each
/// drive's schedule must equal the reference digest.
pub fn paced_ladder(
    ctx: &mut Ctx,
    streams: &[(Arc<Trace>, Arc<Vec<u64>>)],
    window: usize,
    reference: &dyn Fn(usize) -> Option<u64>,
) -> Result<(), String> {
    let build = |threads: usize| {
        BackendSpec::Cluster(4)
            .builder(PROBE_WORKERS)
            .threads(Some(threads))
            .build()
    };
    let par = build(ctx.nproc.clamp(1, 4));
    let serial = build(1);
    let (mut submits, mut backpressured, mut drives, mut tasks) = (0u64, 0u64, 0u64, 0u64);
    let (mut par_ns, mut serial_ns) = (0f64, 0f64);
    for (i, (trace, arrivals)) in streams.iter().enumerate() {
        let t0 = Instant::now();
        let r = paced(&mut ctx.tracer, i as u64, &*par, trace, arrivals, window);
        par_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let s = paced(
            &mut Tracer::new(false),
            i as u64,
            &*serial,
            trace,
            arrivals,
            window,
        );
        serial_ns += t0.elapsed().as_nanos() as f64;
        let verdict = (|| {
            let r = r?;
            let s = s?;
            let d = validated_digest(&r.report, trace)?;
            ctx.check
                .same("paced parallel vs serial", d, digest(&s.report))?;
            if let Some(want) = reference(i) {
                ctx.check.same("paced probe vs run_paced", d, want)?;
            }
            submits += r.submits;
            backpressured += r.backpressured;
            drives += r.drives;
            tasks += trace.len() as u64;
            Ok(())
        })();
        ctx.check.op(verdict);
    }
    let tr = &ctx.tracer;
    let m = &mut ctx.layer;
    m.set("backend.pace.drives", drives as f64, "count");
    m.set(
        "backend.pace.backpressured_ratio",
        backpressured as f64 / submits.max(1) as f64,
        "ratio",
    );
    m.set(
        "backend.session.submit_ns",
        tr.mean_ns("session.submit"),
        "ns",
    );
    let adv = tr.durations_ns("session.advance_to");
    m.set(
        "backend.session.advance_us_p50",
        quantile(&adv, 0.5) / 1e3,
        "us",
    );
    m.set(
        "backend.session.advance_us_p99",
        quantile(&adv, 0.99) / 1e3,
        "us",
    );
    m.set(
        "backend.session.step_us",
        tr.mean_ns("session.step") / 1e3,
        "us",
    );
    m.set(
        "backend.session.finish_ms",
        tr.mean_ns("session.finish") / 1e6,
        "ms",
    );
    let tasks = tasks.max(1) as f64;
    m.set("cluster.paced_serial_ns_per_task", serial_ns / tasks, "ns");
    m.set(
        "cluster.paced_par_over_serial",
        par_ns / serial_ns.max(1.0),
        "ratio",
    );
    Ok(())
}

/// Snapshot round trips of a session fed with `trace`: capture, encode,
/// decode and restore, each step in its own span, `reps` times. The
/// restored session must finish with the captured session's schedule.
pub fn snapshot_steps(
    ctx: &mut Ctx,
    backend: &dyn ExecBackend,
    trace: &Trace,
    reps: usize,
) -> Result<(), String> {
    let open = || {
        backend
            .open_with(SessionConfig::batch())
            .map_err(|e| e.to_string())
    };
    let mut mid = open()?;
    feed_trace(&mut *mid, trace).map_err(|e| e.to_string())?;
    let tr = &mut ctx.tracer;
    let mut bytes = 0usize;
    let mut restored = None;
    for i in 0..reps.max(1) as u64 {
        let snap = tr.span("snap.capture", i, || Snapshot::capture(&*mid));
        let json = tr.span("snap.encode", i, || snap.to_json());
        bytes = json.len();
        let back = tr
            .span("snap.decode", i, || Snapshot::from_json(&json))
            .map_err(|e| e.to_string())?;
        let mut fresh = open()?;
        tr.span("snap.restore", i, || back.restore(&mut *fresh))
            .map_err(|e| e.to_string())?;
        restored = Some(fresh);
    }
    let verdict = (|| {
        let fresh = restored.ok_or("no snapshot restored")?;
        let a = fresh.finish().map_err(|e| e.to_string())?.0;
        let b = mid.finish().map_err(|e| e.to_string())?.0;
        let d = validated_digest(&a, trace)?;
        ctx.check
            .same("snapshot restore vs continuous", d, digest(&b))
    })();
    ctx.check.op(verdict);
    let tr = &ctx.tracer;
    let m = &mut ctx.layer;
    for (step, name) in [
        ("capture", "snap.capture"),
        ("encode", "snap.encode"),
        ("decode", "snap.decode"),
        ("restore", "snap.restore"),
    ] {
        m.set(
            format!("backend.snap.{step}_us"),
            median(&tr.durations_ns(name)) / 1e3,
            "us",
        );
    }
    m.set("backend.snap.bytes", bytes as f64, "bytes");
    Ok(())
}

/// The batch rungs for workloads that do not load them: the families of
/// `batch_cells` over `traces`, once as a cell-parallel sweep (for the
/// sweep's efficiency) and once cell by cell in spans; the bare core; and
/// the checks that sweep rows equal direct runs and the parallel cluster
/// equals the serial one.
pub fn batch_probe(ctx: &mut Ctx, traces: &[Arc<Trace>]) -> Result<(), String> {
    use picos_backend::{Sweep, Workload as Input};
    let families = [
        BackendSpec::Perfect,
        BackendSpec::Nanos,
        BackendSpec::Picos(HilMode::HwOnly),
        BackendSpec::Picos(HilMode::HwComm),
        BackendSpec::Picos(HilMode::FullSystem),
    ];
    let inputs = traces
        .iter()
        .enumerate()
        .map(|(i, t)| Input::from_trace(format!("in{i}"), Arc::clone(t)));
    let sweep = Sweep::new(inputs)
        .backends(families)
        .dm_designs([DmDesign::PearsonEightWay])
        .workers([PROBE_WORKERS])
        .threads(ctx.nproc);
    let t0 = Instant::now();
    let rows = ctx.tracer.span("backend.sweep.run", 0, || sweep.run());
    let wall = t0.elapsed().as_secs_f64();

    let cells = batch_cells(traces, ctx.nproc);
    let mut serial_s = 0.0;
    let mut digests = Vec::new();
    let mut runs = Vec::new();
    for (op, cell) in cells.iter().enumerate() {
        let trace = &traces[cell.input];
        let t0 = Instant::now();
        let run = run_cell(&mut ctx.tracer, op as u64, cell, trace);
        if !matches!(cell.spec, BackendSpec::Cluster(_)) {
            serial_s += t0.elapsed().as_secs_f64();
        }
        digests.push(check_cell_run(&run, trace));
        if let Ok(r) = run {
            runs.push((cell.clone(), r));
        }
    }
    // Row order is inputs × families, the same as the first five cells of
    // each input in `batch_cells`.
    let per_input = cells.len() / traces.len().max(1);
    for (i, row) in rows.rows().iter().enumerate() {
        let c = (i / families.len()) * per_input + i % families.len();
        let verdict = digests[c].clone().and_then(|_| {
            let r = runs
                .iter()
                .find(|(cell, _)| cell.input == cells[c].input && cell.spec == cells[c].spec)
                .ok_or("no direct run")?;
            if row.error.is_none() && row.makespan == r.1.report.makespan {
                Ok(())
            } else {
                Err(format!(
                    "sweep row {} differs from its direct run",
                    row.backend
                ))
            }
        });
        ctx.check.op(verdict);
    }
    for (input, trace) in traces.iter().enumerate() {
        let (par, serial, fault) = (
            input * per_input + 5,
            input * per_input + 6,
            input * per_input + 7,
        );
        let verdict = match (&digests[par], &digests[serial]) {
            (Ok(p), Ok(s)) => ctx.check.same("cluster parallel vs serial", *p, *s),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        ctx.check.op(verdict);
        ctx.check.op(digests[fault].clone().map(|_| ()));
        let core = run_core(&mut ctx.tracer, input as u64, trace).map(|_| ());
        ctx.check.op(core);
    }
    ctx.layer.set(
        "backend.sweep.efficiency",
        serial_s / (wall * ctx.nproc as f64),
        "ratio",
    );
    batch_metrics(ctx, &runs);
    Ok(())
}
