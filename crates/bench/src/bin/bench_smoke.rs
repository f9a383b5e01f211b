//! Bench smoke: quick engine + sweep throughput check for CI.
//!
//! Runs the bare engine (instant workers), the batch backend path
//! (session-driven), the paced streaming driver at saturation, a snapshot
//! roundtrip, a perfect/nanos/HW-only sweep grid, a cluster-backend grid,
//! the serial-vs-parallel cluster engine A/B (fault-free and under 1% link
//! drop), and the multi-tenant
//! serve-layer A/B (256 multiplexed stream tenants vs the same sessions
//! solo), and emits `BENCH_engine.json` with tasks/sec and cells/sec,
//! alongside the pinned pre-rewrite baseline.
//!
//! Every figure comes from one sampler, [`sample`]: the sides of an A/B
//! run in alternating rounds, at least [`MIN_ROUNDS`] per side, and each
//! side reports its median call time.
//!
//! CI guard: the batch `ExecBackend::run` path is a default method over a
//! streaming session since the SimSession redesign; this binary exits
//! non-zero if that path falls below a quarter of the raw engine's
//! throughput in the same process (the drivers add worker simulation on
//! top of the same core, so the ratio is stable across machines —
//! measured ~0.75 on the reference machine).
//!
//! Knob: `BENCH_SMOKE_MS` — wall time each side of a measurement gets
//! (default 300).

use picos_backend::{
    feed_trace, pace, BackendSpec, ExecBackend, FaultPlan, SessionConfig, Snapshot, Sweep, Workload,
};
use picos_core::{FinishedReq, PicosConfig, PicosSystem};
use picos_hil::HilMode;
use picos_serve::{ServeConfig, Service, SubmitOutcome, TenantSpec};
use picos_trace::gen::{self, App};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-rewrite `engine/sparselu128/instant-workers` throughput (tasks/sec),
/// measured on the reference machine with the `BinaryHeap` +
/// `schedule_all` engine immediately before the timing-wheel rewrite.
const BASELINE_TASKS_PER_SEC: f64 = 311_189.0;

fn window_ms() -> u64 {
    std::env::var("BENCH_SMOKE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Fewest timed calls per side, however short the window.
const MIN_ROUNDS: usize = 5;

/// The one sampler: runs every side once to warm up, then in alternating
/// rounds — so host noise hits all sides alike — until each side has had
/// `window` of wall time and at least [`MIN_ROUNDS`] calls. Returns each
/// side's median seconds per call.
fn sample<const N: usize>(window: Duration, sides: [&dyn Fn(); N]) -> [f64; N] {
    for side in sides {
        side();
    }
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let start = Instant::now();
    while start.elapsed() < window * N as u32 || times[0].len() < MIN_ROUNDS {
        for (side, t) in sides.iter().zip(&mut times) {
            let t0 = Instant::now();
            side();
            t.push(t0.elapsed().as_secs_f64());
        }
    }
    times.map(|mut v| {
        v.sort_unstable_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

fn main() {
    let window = Duration::from_millis(window_ms());
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let tasks = trace.len() as f64;

    // The bare engine, and the metrics overhead guard: the same raw-engine
    // run with and without a coarse-window telemetry timeline attached.
    // Probes themselves are always-on plain field increments; the guard
    // measures what *attaching a sampler* adds (one branch per clock move
    // plus one probe per window). The off side is the engine's
    // throughput.
    let engine_run = |timeline: Option<u64>| {
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        if let Some(w) = timeline {
            sys.attach_timeline(w);
        }
        sys.submit_all(&trace);
        sys.run_to_quiescence(200_000_000, |r| {
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .expect("engine run completes");
        std::hint::black_box(sys.now());
        std::hint::black_box(sys.take_timeline().map(|t| t.len()));
    };
    let [tasks_per_sec, metrics_timeline_tasks_per_sec] =
        sample(window, [&|| engine_run(None), &|| engine_run(Some(65_536))]).map(|t| tasks / t);

    // The batch backend path, and the span-recorder overhead guard:
    // ExecBackend::run is a default method over a streaming session (feed
    // the trace, finish) — the same core as above plus worker/dispatch
    // simulation — with and without task-lifecycle span tracing attached.
    // Tracing adds one preallocated-vec push per lifecycle event; the
    // guard pins that the spans-on run stays within 10% of the spans-off
    // side, which is the batch path's throughput.
    let hw = BackendSpec::Picos(picos_hil::HilMode::HwOnly)
        .builder(8)
        .build();
    let batch_run = |spans: bool| {
        let cfg = SessionConfig {
            trace_spans: spans,
            ..SessionConfig::batch()
        };
        let out = hw.run(&trace, cfg).expect("batch run completes");
        std::hint::black_box(out.report.makespan);
        std::hint::black_box(out.spans.map(|l| l.len()));
    };
    let [batch_tasks_per_sec, spans_on_tasks_per_sec] =
        sample(window, [&|| batch_run(false), &|| batch_run(true)]).map(|t| tasks / t);

    // Timeline-shape regression gate: one golden workload through the
    // batch path with a coarse window attached, asserting the exact
    // invariants of the sampled series (delta series reproduce their
    // end-of-run counters; samples tile the run). Runs are deterministic,
    // so a violation means the sampler or a probe site regressed.
    {
        let cfg = SessionConfig {
            timeline_window: Some(65_536),
            ..SessionConfig::batch()
        };
        let out = hw.run(&trace, cfg).expect("golden timeline run completes");
        let tl = out.timeline.as_ref().expect("timeline was requested");
        let stats = out.stats.as_ref().expect("picos backends report stats");
        assert!(!tl.is_empty(), "golden run must produce samples");
        assert_eq!(tl.sample(0).0, 0, "first window starts at cycle 0");
        let column_sum = |suffix: &str| -> u64 {
            let name = tl
                .series()
                .iter()
                .map(|s| s.name.clone())
                .find(|n| n.ends_with(suffix))
                .unwrap_or_else(|| panic!("series *{suffix} must exist"));
            tl.column(&name).expect("column exists").iter().sum()
        };
        assert_eq!(
            column_sum("done.tasks"),
            trace.len() as u64,
            "done.tasks deltas must sum to the task count"
        );
        assert_eq!(
            column_sum("busy.ts"),
            stats.busy_ts,
            "busy.ts deltas must reproduce the end-of-run counter"
        );
        assert_eq!(
            column_sum("done.deps"),
            stats.deps_processed,
            "done.deps deltas must reproduce the end-of-run counter"
        );
    }

    // The streaming session at saturation: open-loop arrivals every cycle
    // against a bounded in-flight window, so admission backpressure and
    // the step/drain machinery are on the measured path.
    let [session_run] = sample(
        window,
        [&|| {
            let r = pace::run_paced(&*hw, pace::PacedTrace::new(&trace, 1), Some(64))
                .expect("paced run completes");
            std::hint::black_box(r.report.makespan);
        }],
    );
    let session_tasks_per_sec = tasks / session_run;

    // Snapshot roundtrip: capture a mid-feed Picos session, serialize it
    // through the in-tree JSON codec, parse it back and restore into a
    // fresh session — the full save/restore cycle a serve checkpoint or a
    // what-if replica pays per snapshot.
    let snap_trace = gen::stream(gen::StreamConfig::heavy(400));
    let mut mid = hw
        .open_with(SessionConfig::batch())
        .expect("open snapshot session");
    feed_trace(&mut *mid, &snap_trace).expect("snapshot feed");
    let [snapshot_roundtrip] = sample(
        window,
        [&|| {
            let snap = Snapshot::capture(&*mid);
            let json = snap.to_json();
            let back = Snapshot::from_json(&json).expect("snapshot parses");
            let mut fresh = hw
                .open_with(SessionConfig::batch())
                .expect("open restore target");
            back.restore(&mut *fresh).expect("snapshot restores");
            std::hint::black_box(fresh.now());
        }],
    );
    let snapshot_roundtrip_per_sec = 1.0 / snapshot_roundtrip;
    drop(mid);

    // The sweep grid: two Cholesky granularities x three backends x four
    // worker counts, cell-parallel.
    let grid = Sweep::over_apps([App::Cholesky], [256, 128])
        .workers([2, 4, 8, 12])
        .backends([
            BackendSpec::Perfect,
            BackendSpec::Nanos,
            BackendSpec::Picos(HilMode::HwOnly),
        ]);
    let cells = grid.cells().len() as f64;
    let [sweep] = sample(
        window,
        [&|| {
            std::hint::black_box(grid.run().rows().len());
        }],
    );
    let cells_per_sec = cells / sweep;

    // Cluster backend: shard counts over the open-loop stream workload
    // (its home turf), so the new backend's perf trajectory is covered
    // from day one.
    let stream = Arc::new(gen::stream(gen::StreamConfig::heavy(800)));
    let cluster_grid = Sweep::new([Workload::from_trace("stream", stream)])
        .workers([8])
        .backends([1usize, 2, 4].map(BackendSpec::Cluster));
    let cluster_cells = cluster_grid.cells().len() as f64;
    let [cluster_sweep] = sample(
        window,
        [&|| {
            std::hint::black_box(cluster_grid.run().rows().len());
        }],
    );
    let cluster_cells_per_sec = cluster_cells / cluster_sweep;

    // Serial vs parallel cluster engine at 4 shards on the same stream
    // workload. The parallel engine is bit-identical to serial, so
    // this measures pure wall-clock: the epoch engine's O(events)
    // processing against the serial driver's O(shards)-per-event pump
    // scans (the epoch engine runs its lanes inline on one OS thread).
    // A third side measures the fault layer's zero-fault overhead: a
    // cluster with an attached all-zero-rates FaultPlan runs the exact
    // same schedule bit-identically (pinned below), so the delta vs the
    // plain serial engine is the pure cost of the packet wrapper and the
    // per-pump fault-phase checks.
    let stream4 = gen::stream(gen::StreamConfig::heavy(800));
    let cluster_at = |threads: usize, faults: Option<FaultPlan>| {
        BackendSpec::Cluster(4)
            .builder(8)
            .picos(&PicosConfig::balanced())
            .threads(Some(threads))
            .faults(faults)
            .build()
    };
    let serial4 = cluster_at(1, None);
    let par4 = cluster_at(4, None);
    let fault0 = cluster_at(1, Some(FaultPlan::new(1)));
    let batch = SessionConfig::batch();
    let serial_makespan = serial4
        .run(&stream4, batch)
        .expect("serial cluster completes")
        .report;
    let par_makespan = par4
        .run(&stream4, batch)
        .expect("parallel cluster completes")
        .report;
    let fault0_makespan = fault0
        .run(&stream4, batch)
        .expect("zero-fault cluster completes")
        .report;
    assert_eq!(
        serial_makespan, par_makespan,
        "parallel cluster engine must be bit-identical to serial"
    );
    assert_eq!(
        serial_makespan, fault0_makespan,
        "zero-fault plan must be bit-identical to no plan"
    );
    // fault0 runs adjacent to serial4 (its comparison side), so the
    // multi-threaded par4 run's thermal wake biases neither.
    let cluster_run = |backend: &dyn ExecBackend| {
        std::hint::black_box(backend.run(&stream4, batch).expect("cluster run completes"));
    };
    let [cluster_serial4_cells_per_sec, cluster_fault0_cells_per_sec, cluster_par_cells_per_sec] =
        sample(
            window,
            [
                &|| cluster_run(&*serial4),
                &|| cluster_run(&*fault0),
                &|| cluster_run(&*par4),
            ],
        )
        .map(|t| 1.0 / t);

    // The same serial-vs-parallel A/B under an active fault plan (1% link
    // drop): the epoch engine replays every fault draw, ack and retry in
    // the merge, so the faulted schedule is bit-identical (pinned below)
    // and the figure is the price of that serial bookkeeping.
    let drop1 = || Some(FaultPlan::new(1).with_drop_rate(0.01));
    let fault_serial = cluster_at(1, drop1());
    let fault_par = cluster_at(4, drop1());
    assert_eq!(
        fault_serial
            .run(&stream4, batch)
            .expect("faulted serial cluster completes")
            .report,
        fault_par
            .run(&stream4, batch)
            .expect("faulted parallel cluster completes")
            .report,
        "faulted parallel cluster engine must be bit-identical to serial"
    );
    let [cluster_fault_serial_cells_per_sec, cluster_fault_par_cells_per_sec] = sample(
        window,
        [&|| cluster_run(&*fault_serial), &|| {
            cluster_run(&*fault_par)
        }],
    )
    .map(|t| 1.0 / t);

    // Serve-layer multiplexing tax: 256 stream tenants multiplexed behind
    // one Service on one scheduler thread, against the same 256 sessions
    // run solo back to back under the identical effective session config.
    // The scheduler is invisible to the schedules (pinned by the serve
    // conformance suite), so the A/B isolates the service's bookkeeping —
    // registry lookups, admission checks, journaling, fair rounds — per
    // session.
    let serve_tenants = 256usize;
    let serve_trace = gen::stream(gen::StreamConfig::heavy(24));
    let serve_spec = TenantSpec::new(BackendSpec::Nanos, 2);
    let serve_names: Vec<String> = (0..serve_tenants).map(|i| format!("b{i:03}")).collect();
    let serve_tasks: Vec<_> = serve_trace.iter().collect();
    let mux_run = || {
        let mut svc = Service::new(ServeConfig::default()).expect("service starts");
        for name in &serve_names {
            svc.open(name, &serve_spec).expect("open tenant");
            // The same buffer pre-sizing feed_trace gives a solo session.
            svc.reserve(name, serve_trace.len()).expect("reserve");
        }
        // Clients submit in short bursts, interleaved across all tenants.
        for chunk in serve_tasks.chunks(8) {
            for name in &serve_names {
                for task in chunk {
                    while svc.submit(name, task).expect("submit") != SubmitOutcome::Accepted {
                        svc.run_round();
                    }
                }
            }
        }
        // LIFO close order: removing the newest tenant is a registry pop.
        for name in serve_names.iter().rev() {
            let out = svc.close(name).expect("close tenant");
            std::hint::black_box(out.report.makespan);
        }
    };
    let solo_cfg = serve_spec.effective_session_config(ServeConfig::default().default_quota);
    let solo_run = || {
        for _ in 0..serve_tenants {
            let backend = serve_spec.build_backend();
            let mut s = backend.open_with(solo_cfg).expect("open solo session");
            feed_trace(&mut *s, &serve_trace).expect("solo feed");
            let (r, _) = s.finish().expect("solo finish");
            std::hint::black_box(r.makespan);
        }
    };
    let [serve_sessions_per_sec, serve_solo_sessions_per_sec] =
        sample(window, [&mux_run, &solo_run]).map(|t| serve_tenants as f64 / t);

    let json = format!(
        "{{\n  \"workload\": \"sparselu128\",\n  \"tasks\": {},\n  \
         \"baseline_tasks_per_sec\": {:.0},\n  \
         \"baseline_note\": \"pre-rewrite engine on the reference machine; \
         speedup_vs_baseline is only meaningful there — across CI runners \
         compare tasks_per_sec between runs instead\",\n  \
         \"tasks_per_sec\": {:.0},\n  \
         \"speedup_vs_baseline\": {:.2},\n  \
         \"metrics_timeline_tasks_per_sec\": {:.0},\n  \
         \"spans_on_tasks_per_sec\": {:.0},\n  \
         \"batch_tasks_per_sec\": {:.0},\n  \
         \"session_tasks_per_sec\": {:.0},\n  \
         \"snapshot_roundtrip_per_sec\": {:.1},\n  \"sweep_cells\": {},\n  \
         \"sweep_cells_per_sec\": {:.1},\n  \
         \"cluster_cells\": {},\n  \
         \"cluster_cells_per_sec\": {:.1},\n  \
         \"cluster_serial4_cells_per_sec\": {:.1},\n  \
         \"cluster_par_cells_per_sec\": {:.1},\n  \
         \"cluster_fault0_cells_per_sec\": {:.1},\n  \
         \"cluster_fault_serial_cells_per_sec\": {:.1},\n  \
         \"cluster_fault_par_cells_per_sec\": {:.1},\n  \
         \"serve_tenants\": {},\n  \
         \"serve_sessions_per_sec\": {:.1},\n  \
         \"serve_solo_sessions_per_sec\": {:.1}\n}}\n",
        tasks as u64,
        BASELINE_TASKS_PER_SEC,
        tasks_per_sec,
        tasks_per_sec / BASELINE_TASKS_PER_SEC,
        metrics_timeline_tasks_per_sec,
        spans_on_tasks_per_sec,
        batch_tasks_per_sec,
        session_tasks_per_sec,
        snapshot_roundtrip_per_sec,
        cells as u64,
        cells_per_sec,
        cluster_cells as u64,
        cluster_cells_per_sec,
        cluster_serial4_cells_per_sec,
        cluster_par_cells_per_sec,
        cluster_fault0_cells_per_sec,
        cluster_fault_serial_cells_per_sec,
        cluster_fault_par_cells_per_sec,
        serve_tenants,
        serve_sessions_per_sec,
        serve_solo_sessions_per_sec
    );
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_engine.json", &json) {
        eprintln!("warning: could not write BENCH_engine.json: {e}");
    }
    // CI assertion: the session-backed batch path must stay within a
    // sanity factor of the raw engine measured in the same process. A
    // violation means the session refactor (or a later change) put
    // something expensive on the batch hot path.
    if batch_tasks_per_sec < tasks_per_sec / 4.0 {
        eprintln!(
            "FAIL: batch path {batch_tasks_per_sec:.0} tasks/s fell below a \
             quarter of the raw engine's {tasks_per_sec:.0} tasks/s"
        );
        std::process::exit(1);
    }
    // CI assertion: attaching a coarse-window (65536-cycle) timeline must
    // cost no more than 10% of engine throughput — the telemetry layer's
    // overhead contract (one branch per clock move, one probe per window).
    if metrics_timeline_tasks_per_sec < tasks_per_sec * 0.9 {
        eprintln!(
            "FAIL: coarse-window timeline run {metrics_timeline_tasks_per_sec:.0} \
             tasks/s fell more than 10% below the probes-only \
             {tasks_per_sec:.0} tasks/s"
        );
        std::process::exit(1);
    }
    // CI assertion: attaching the span recorder must cost no more than 10%
    // of batch throughput — the span layer's overhead contract (one branch
    // per lifecycle site when detached, one preallocated push when
    // attached).
    if spans_on_tasks_per_sec < batch_tasks_per_sec * 0.9 {
        eprintln!(
            "FAIL: spans-on batch run {spans_on_tasks_per_sec:.0} tasks/s \
             fell more than 10% below the spans-off \
             {batch_tasks_per_sec:.0} tasks/s"
        );
        std::process::exit(1);
    }
    // CI assertion: the parallel cluster engine must never be slower than
    // the serial reference (5% sampling-noise allowance; measured >= 1.7x
    // faster even single-core, where the win is the epoch engine's
    // O(events) processing replacing the serial driver's per-event shard
    // scans — multi-core runners add near-linear thread speedup on top).
    if cluster_par_cells_per_sec < cluster_serial4_cells_per_sec * 0.95 {
        eprintln!(
            "FAIL: parallel 4-shard cluster {cluster_par_cells_per_sec:.1} \
             cells/s fell below the serial engine's \
             {cluster_serial4_cells_per_sec:.1} cells/s"
        );
        std::process::exit(1);
    }
    // CI assertion: an attached zero-fault plan must cost no more than 3%
    // of serial cluster throughput — the fault layer's overhead contract
    // (the packet wrapper adds one u32 + bool per message and the pump
    // adds constant-time empty-queue checks; no RNG draws at zero rates).
    if cluster_fault0_cells_per_sec < cluster_serial4_cells_per_sec * 0.97 {
        eprintln!(
            "FAIL: zero-fault 4-shard cluster {cluster_fault0_cells_per_sec:.1} \
             cells/s fell more than 3% below the plain serial engine's \
             {cluster_serial4_cells_per_sec:.1} cells/s"
        );
        std::process::exit(1);
    }
    // CI assertion: under an active fault plan the parallel engine must
    // not be slower than the serial reference either (same 5% allowance
    // as the fault-free gate).
    if cluster_fault_par_cells_per_sec < cluster_fault_serial_cells_per_sec * 0.95 {
        eprintln!(
            "FAIL: faulted parallel 4-shard cluster \
             {cluster_fault_par_cells_per_sec:.1} cells/s fell below the \
             faulted serial engine's {cluster_fault_serial_cells_per_sec:.1} cells/s"
        );
        std::process::exit(1);
    }
    // CI assertion: multiplexing 256 tenants behind the service must keep
    // aggregate session throughput within 25% of the same sessions run
    // solo — the serve layer's overhead contract (registry lookup +
    // admission check per submit, fair rounds amortised across tenants).
    if serve_sessions_per_sec < serve_solo_sessions_per_sec * 0.75 {
        eprintln!(
            "FAIL: multiplexed service {serve_sessions_per_sec:.1} sessions/s \
             fell more than 25% below the solo reference's \
             {serve_solo_sessions_per_sec:.1} sessions/s"
        );
        std::process::exit(1);
    }
}
