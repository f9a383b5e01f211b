//! `serve_wire`: `picos_serve::serve` on localhost, driven by one client
//! thread over two connections as a closed loop of 64 callers, each with
//! one request outstanding.
//!
//! A caller opens a tenant (families spread over perfect, nanos, HIL
//! hw-only, HIL full-system and a 2-shard cluster), submits its task
//! stream — retrying quota and backpressure rejections — with a `stats`
//! every 16 accepted tasks and a `drain-events` every 32, then closes the
//! tenant and opens the next one. A task's latency runs from its first
//! `submit` to its `accepted` reply.
//!
//! The timed server keeps its journals in memory. A journaled server
//! (journal directory on disk, callers also `checkpoint` every 64 tasks)
//! runs only in short untimed probes: its file writes run on the one
//! server thread, and on a shared host they made the latency tail of the
//! whole closed loop follow the host's disk rather than the server.

use crate::check::validated_digest;
use crate::layers::{self, run_core};
use crate::stats::{median, quantile};
use crate::{Ctx, Pass, Workload};
use picos_backend::{feed_trace, BackendSpec};
use picos_hil::HilMode;
use picos_runtime::JournaledSession;
use picos_serve::{serve, Request, ServeConfig, ServeHandle, ServerHandle, TenantSpec};
use picos_trace::gen::{self, StreamConfig};
use picos_trace::rng::SplitMix64;
use picos_trace::Trace;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop callers.
const CALLERS: usize = 64;
/// Client connections the callers share.
const CONNS: usize = 2;
/// Service admission quota per tenant.
const QUOTA: usize = 16;
/// Tenant families, in caller order.
const FAMILIES: [BackendSpec; 5] = [
    BackendSpec::Perfect,
    BackendSpec::Nanos,
    BackendSpec::Picos(HilMode::HwOnly),
    BackendSpec::Picos(HilMode::FullSystem),
    BackendSpec::Cluster(2),
];

/// Journal directories handed out so far (each service gets a fresh one,
/// so no service recovers another's tenants).
static JOURNALS: AtomicUsize = AtomicUsize::new(0);

/// The tenant recipe of a family: event collection on (callers drain),
/// and an engine window below the quota for every other family, so both
/// quota and backpressure rejections occur.
fn tenant_spec(family: usize) -> TenantSpec {
    let mut spec = TenantSpec::new(FAMILIES[family], 4);
    spec.collect_events = true;
    if family % 2 == 1 {
        spec.window = Some(8);
    }
    spec
}

fn serve_config(journal_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        default_quota: QUOTA,
        journal_dir,
        ..ServeConfig::default()
    }
}

/// The tenant task streams: seeded stream traces of one length.
fn tenant_pool(seed: u64, count: usize, tiny: bool) -> Vec<Arc<Trace>> {
    let mut rng = SplitMix64::new(seed ^ 0x5E7E);
    let tasks = if tiny { 70 } else { 160 };
    (0..count)
        .map(|_| {
            Arc::new(gen::stream(StreamConfig {
                seed: rng.next_u64(),
                ..StreamConfig::heavy(tasks)
            }))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Open,
    Submit,
    Stats,
    Drain,
    Checkpoint,
    Close,
}

impl Verb {
    fn span(self) -> &'static str {
        match self {
            Verb::Open => "wire.open",
            Verb::Submit => "wire.submit",
            Verb::Stats => "wire.stats",
            Verb::Drain => "wire.drain",
            Verb::Checkpoint => "wire.checkpoint",
            Verb::Close => "wire.close",
        }
    }
}

/// One closed-loop caller: a tenant lifecycle at a time.
#[derive(Debug)]
struct Caller {
    conn: usize,
    generation: usize,
    name: String,
    family: usize,
    trace: usize,
    opened: bool,
    next: usize,
    first_try: Option<Instant>,
    extra: VecDeque<Verb>,
}

impl Caller {
    fn new(k: usize, generation: usize, pool: usize) -> Caller {
        Caller {
            conn: k % CONNS,
            generation,
            name: format!("c{k}g{generation}"),
            family: (k + generation) % FAMILIES.len(),
            trace: (k * 3 + generation) % pool,
            opened: false,
            next: 0,
            first_try: None,
            extra: VecDeque::new(),
        }
    }

    /// The caller's next request.
    fn request(&mut self, pool: &[Arc<Trace>]) -> (Verb, Request) {
        let tenant = self.name.clone();
        if !self.opened {
            let spec = tenant_spec(self.family);
            return (Verb::Open, Request::Open { tenant, spec });
        }
        if let Some(v) = self.extra.pop_front() {
            let req = match v {
                Verb::Stats => Request::Stats { tenant },
                Verb::Drain => Request::DrainEvents { tenant },
                _ => Request::Checkpoint {
                    tenant: Some(tenant),
                },
            };
            return (v, req);
        }
        let trace = &pool[self.trace];
        match trace.tasks().get(self.next) {
            Some(task) => {
                self.first_try.get_or_insert_with(Instant::now);
                let task = task.clone();
                (Verb::Submit, Request::Submit { tenant, task })
            }
            None => (Verb::Close, Request::Close { tenant }),
        }
    }
}

/// Verdict counts of the submit replies.
#[derive(Debug, Default, Clone, Copy)]
struct Verdicts {
    accepted: u64,
    quota: u64,
    backpressured: u64,
}

/// A running server plus the client side of the closed loop.
pub struct WireRig {
    server: Option<ServerHandle>,
    conns: Vec<TcpStream>,
    inbuf: Vec<Vec<u8>>,
    outbuf: Vec<Vec<u8>>,
    outstanding: Vec<VecDeque<(usize, Verb, Instant)>>,
    callers: Vec<Caller>,
    pool: Vec<Arc<Trace>>,
    /// (family, trace, digest) of every closed tenant.
    closes: Vec<(usize, usize, Result<u64, String>)>,
    replies_ok: u64,
    failures: Vec<String>,
    verdicts: Verdicts,
    /// Whether the server has a journal directory (and callers checkpoint).
    journaled: bool,
}

impl WireRig {
    /// Binds a server on localhost, connects, and opens one tenant per
    /// caller over the wire. A `journaled` server persists its journals
    /// under the run's work directory and its callers checkpoint.
    pub fn start(ctx: &Ctx, pool: Vec<Arc<Trace>>, journaled: bool) -> Result<WireRig, String> {
        let dir = journaled.then(|| {
            let n = JOURNALS.fetch_add(1, Ordering::SeqCst);
            ctx.work_dir.join(format!("journal-{n}"))
        });
        let server = serve(serve_config(dir), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let c = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            c.set_nonblocking(true).map_err(|e| e.to_string())?;
            conns.push(c);
        }
        let callers = (0..CALLERS)
            .map(|k| Caller::new(k, 0, pool.len()))
            .collect();
        let mut rig = WireRig {
            server: Some(server),
            conns,
            inbuf: vec![Vec::new(); CONNS],
            outbuf: vec![Vec::new(); CONNS],
            outstanding: vec![VecDeque::new(); CONNS],
            callers,
            pool,
            closes: Vec::new(),
            replies_ok: 0,
            failures: Vec::new(),
            verdicts: Verdicts::default(),
            journaled,
        };
        // The opens are set-up: run the loop until every caller is open.
        let mut tr = crate::span::Tracer::new(false);
        rig.run(&mut tr, 0.0)?;
        Ok(rig)
    }

    fn issue(&mut self, k: usize) {
        let (verb, req) = self.callers[k].request(&self.pool);
        let c = self.callers[k].conn;
        self.outbuf[c].extend_from_slice(req.to_line().as_bytes());
        self.outbuf[c].push(b'\n');
        self.outstanding[c].push_back((k, verb, Instant::now()));
    }

    /// Handles one reply; returns whether the caller goes on.
    fn reply(
        &mut self,
        tr: &mut crate::span::Tracer,
        pass: &mut Pass,
        k: usize,
        verb: Verb,
        sent: Instant,
        line: &str,
    ) {
        tr.record(verb.span(), k as u64, sent);
        pass.requests += 1;
        if !line.starts_with("{\"ok\":true") {
            self.failures
                .push(format!("{:?} {}: {line}", verb, self.callers[k].name));
            // Start the caller over on a fresh tenant so it cannot loop on
            // a failing request.
            let g = self.callers[k].generation + 1;
            self.callers[k] = Caller::new(k, g, self.pool.len());
            return;
        }
        self.replies_ok += 1;
        let checkpoint_every = if self.journaled { 64 } else { usize::MAX };
        let c = &mut self.callers[k];
        match verb {
            Verb::Open => c.opened = true,
            Verb::Submit => {
                if line.contains("\"accepted\"") {
                    self.verdicts.accepted += 1;
                    let t0 = c.first_try.take().unwrap_or(sent);
                    pass.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    pass.tasks += 1;
                    c.next += 1;
                    for (every, v) in [
                        (16, Verb::Stats),
                        (32, Verb::Drain),
                        (checkpoint_every, Verb::Checkpoint),
                    ] {
                        if c.next.is_multiple_of(every) {
                            c.extra.push_back(v);
                        }
                    }
                } else if line.contains("\"quota\"") {
                    self.verdicts.quota += 1;
                } else {
                    self.verdicts.backpressured += 1;
                }
            }
            Verb::Close => {
                let digest = picos_serve::parse_response(line)
                    .ok()
                    .and_then(|v| v.as_obj()?.get("digest")?.as_int())
                    .ok_or_else(|| format!("close reply without digest: {line}"));
                self.closes.push((c.family, c.trace, digest));
                let g = c.generation + 1;
                *c = Caller::new(k, g, self.pool.len());
            }
            Verb::Stats | Verb::Drain | Verb::Checkpoint => {}
        }
    }

    /// Runs the closed loop for `secs` (0: until every caller is open),
    /// then lets the outstanding requests drain.
    fn run(&mut self, tr: &mut crate::span::Tracer, secs: f64) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let start = Instant::now();
        let setup = secs == 0.0;
        for k in 0..self.callers.len() {
            if !(setup && self.callers[k].opened) {
                self.issue(k);
            }
        }
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let mut progressed = false;
            let open = if setup {
                false
            } else {
                start.elapsed().as_secs_f64() < secs
            };
            for c in 0..CONNS {
                loop {
                    match self.conns[c].read(&mut chunk) {
                        Ok(0) => return Err("server closed the connection".into()),
                        Ok(n) => {
                            self.inbuf[c].extend_from_slice(&chunk[..n]);
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.to_string()),
                    }
                }
                let buf = std::mem::take(&mut self.inbuf[c]);
                let mut from = 0;
                while let Some(nl) = buf[from..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&buf[from..from + nl]).into_owned();
                    from += nl + 1;
                    let (k, verb, sent) = self.outstanding[c]
                        .pop_front()
                        .ok_or("reply without a request")?;
                    self.reply(tr, &mut pass, k, verb, sent, &line);
                    if open || (setup && !self.callers[k].opened) {
                        self.issue(k);
                    }
                }
                self.inbuf[c] = buf[from..].to_vec();
                while !self.outbuf[c].is_empty() {
                    match self.conns[c].write(&self.outbuf[c]) {
                        Ok(0) => return Err("server stopped reading".into()),
                        Ok(n) => {
                            self.outbuf[c].drain(..n);
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.to_string()),
                    }
                }
            }
            if self.outstanding.iter().all(VecDeque::is_empty) && !open {
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        pass.secs = start.elapsed().as_secs_f64();
        Ok(pass)
    }

    /// Checks every reply and every closed tenant's digest against a solo
    /// session of the same spec and stream (and, with `pin`, the solo
    /// digest against its pinned value).
    fn check(&mut self, ctx: &mut Ctx, pin: bool) {
        let mut refs: HashMap<(usize, usize), Result<u64, String>> = HashMap::new();
        for (family, trace, got) in std::mem::take(&mut self.closes) {
            let want = refs
                .entry((family, trace))
                .or_insert_with(|| {
                    let d = solo_digest(family, &self.pool[trace])?;
                    if pin {
                        ctx.check.pinned(&format!("f{family}/t{trace}"), d)?;
                    }
                    Ok(d)
                })
                .clone();
            let verdict = match (got, want) {
                (Ok(g), Ok(w)) => ctx.check.same("tenant close vs solo", g, w),
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            ctx.check.op(verdict);
        }
        for _ in 0..self.replies_ok {
            ctx.check.op(Ok(()));
        }
        self.replies_ok = 0;
        for f in self.failures.drain(..) {
            ctx.check.op(Err(f));
        }
    }

    /// Per-verb wire latency and submit verdict ratios.
    fn metrics(&self, ctx: &mut Ctx) {
        for verb in [
            Verb::Open,
            Verb::Submit,
            Verb::Stats,
            Verb::Drain,
            Verb::Checkpoint,
            Verb::Close,
        ] {
            let name = verb.span();
            let p50 = median(&ctx.tracer.durations_ns(name)) / 1e3;
            ctx.layer.set(format!("serve.{name}_p50_us"), p50, "us");
        }
        let v = self.verdicts;
        let all = (v.accepted + v.quota + v.backpressured).max(1) as f64;
        let m = &mut ctx.layer;
        m.set("serve.accepted_ratio", v.accepted as f64 / all, "ratio");
        m.set("serve.quota_rejected_ratio", v.quota as f64 / all, "ratio");
        m.set(
            "serve.backpressured_ratio",
            v.backpressured as f64 / all,
            "ratio",
        );
    }
}

impl Drop for WireRig {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown() {
                eprintln!("perfbench: server shutdown: {e}");
            }
        }
    }
}

/// The digest of a tenant's stream run as a solo session under the
/// configuration the service opens it with.
fn solo_digest(family: usize, trace: &Trace) -> Result<u64, String> {
    let spec = tenant_spec(family);
    let mut s = spec
        .build_backend()
        .open_with(spec.effective_session_config(QUOTA))
        .map_err(|e| e.to_string())?;
    feed_trace(&mut *s, trace).map_err(|e| e.to_string())?;
    let (report, _) = s.finish().map_err(|e| e.to_string())?;
    validated_digest(&report, trace)
}

pub struct ServeWire {
    rig: WireRig,
    slice_s: f64,
}

impl Workload for ServeWire {
    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let pool = tenant_pool(ctx.seed, 64, ctx.tiny);
        ctx.input_digest = crate::check::input_digest(pool.iter().map(|t| &**t));
        let rig = WireRig::start(ctx, pool, false)?;
        Ok(ServeWire {
            rig,
            slice_s: if ctx.tiny { 0.2 } else { 1.0 },
        })
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, String> {
        self.rig.run(&mut ctx.tracer, self.slice_s)
    }

    fn check(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if ctx.check.recording() {
            // Pin every (family, stream) pair a caller can reach.
            for family in 0..FAMILIES.len() {
                for (t, trace) in self.rig.pool.iter().enumerate() {
                    let d = solo_digest(family, trace)?;
                    ctx.check.pinned(&format!("f{family}/t{t}"), d)?;
                }
            }
        }
        self.rig.check(ctx, true);
        Ok(())
    }

    fn layers(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        self.rig.metrics(ctx);
        let pool = self.rig.pool.clone();
        // The timed callers never checkpoint; the journaled probe does.
        drop(journaled_probe(ctx, pool.clone())?);
        let p50 = median(&ctx.tracer.durations_ns(Verb::Checkpoint.span())) / 1e3;
        ctx.layer.set("serve.wire.checkpoint_p50_us", p50, "us");
        ladder(ctx, &pool)?;
        layers::snapshot_steps(
            ctx,
            &*tenant_spec(2).build_backend(),
            &snapshot_input(ctx),
            32,
        )?;
        layers::batch_probe(ctx, &pool[..2])?;
        crate::stream::probe(ctx)
    }
}

/// The snapshot input: a 400-task heavy stream from the seed.
fn snapshot_input(ctx: &Ctx) -> Trace {
    gen::stream(StreamConfig {
        seed: ctx.seed,
        ..StreamConfig::heavy(if ctx.tiny { 40 } else { 400 })
    })
}

/// A short wire run of a journaled server, its spans recorded by the
/// run's tracer and its replies and digests checked.
fn journaled_probe(ctx: &mut Ctx, pool: Vec<Arc<Trace>>) -> Result<WireRig, String> {
    let mut rig = WireRig::start(ctx, pool, true)?;
    let mut tr = std::mem::replace(&mut ctx.tracer, crate::span::Tracer::new(false));
    let r = rig.run(&mut tr, if ctx.tiny { 0.2 } else { 1.0 });
    ctx.tracer = tr;
    r?;
    rig.check(ctx, false);
    Ok(rig)
}

/// The serve layers for workloads that do not load them: a short wire
/// run, the in-process ladder and the snapshot steps on small inputs.
pub fn probe(ctx: &mut Ctx) -> Result<(), String> {
    let pool = tenant_pool(ctx.seed, 8, ctx.tiny);
    let rig = journaled_probe(ctx, pool.clone())?;
    rig.metrics(ctx);
    drop(rig);
    ladder(ctx, &pool)?;
    layers::snapshot_steps(
        ctx,
        &*tenant_spec(2).build_backend(),
        &snapshot_input(ctx),
        8,
    )
}

/// Tenants of the in-process ladder: (name, family, trace).
fn ladder_tenants(pool: &[Arc<Trace>]) -> Vec<(String, usize, Arc<Trace>)> {
    pool.iter()
        .enumerate()
        .map(|(i, t)| (format!("t{i}"), i % FAMILIES.len(), Arc::clone(t)))
        .collect()
}

/// One in-process serve rung: every tenant submits its stream one task per
/// scheduler round, retrying rejections after the round, then closes.
/// `parsed` selects `ServeHandle::handle` on typed requests over
/// `handle_line` on protocol lines. Returns (requests, closes' digests).
fn serve_rung(
    ctx: &mut Ctx,
    tenants: &[(String, usize, Arc<Trace>)],
    parsed: bool,
) -> Result<(u64, Vec<u64>), String> {
    let mut h = ServeHandle::new(serve_config(None)).map_err(|e| e.to_string())?;
    let tr = &mut ctx.tracer;
    let verb_span = if parsed {
        "service.handle"
    } else {
        "proto.handle_line"
    };
    let mut requests = 0u64;
    let mut call = |tr: &mut crate::span::Tracer, h: &mut ServeHandle, req: Request| -> String {
        requests += 1;
        if parsed {
            tr.span(verb_span, 0, || h.handle(&req)).to_line()
        } else {
            let line = req.to_line();
            tr.span(verb_span, 0, || h.handle_line(&line))
        }
    };
    for (tenant, family, _) in tenants {
        let spec = tenant_spec(*family);
        let tenant = tenant.clone();
        let r = call(tr, &mut h, Request::Open { tenant, spec });
        if !r.starts_with("{\"ok\":true") {
            return Err(format!("in-process open failed: {r}"));
        }
    }
    let mut next = vec![0usize; tenants.len()];
    let mut rounds = Vec::new();
    loop {
        let mut live = false;
        for (i, (tenant, _, trace)) in tenants.iter().enumerate() {
            let Some(task) = trace.tasks().get(next[i]) else {
                continue;
            };
            live = true;
            let req = Request::Submit {
                tenant: tenant.clone(),
                task: task.clone(),
            };
            let r = call(tr, &mut h, req);
            if r.contains("\"accepted\"") {
                next[i] += 1;
            } else if !r.starts_with("{\"ok\":true") {
                return Err(format!("in-process submit failed: {r}"));
            }
        }
        if !live {
            break;
        }
        let t0 = Instant::now();
        let steps = tr.span("service.run_round", 0, || h.service_mut().run_round());
        rounds.push((t0.elapsed().as_nanos() as f64, steps as f64));
    }
    let mut digests = Vec::new();
    for (tenant, _, _) in tenants {
        let r = call(
            tr,
            &mut h,
            Request::Close {
                tenant: tenant.clone(),
            },
        );
        let d = picos_serve::parse_response(&r)
            .ok()
            .and_then(|v| v.as_obj()?.get("digest")?.as_int())
            .ok_or_else(|| format!("in-process close failed: {r}"))?;
        digests.push(d);
    }
    if !parsed && tr.is_on() {
        let ns: Vec<f64> = rounds.iter().map(|r| r.0).collect();
        let stepping: Vec<f64> = rounds.iter().filter(|r| r.1 > 0.0).map(|r| r.1).collect();
        ctx.layer
            .set("serve.run_round_us_p50", quantile(&ns, 0.5) / 1e3, "us");
        ctx.layer
            .set("serve.run_round_us_p99", quantile(&ns, 0.99) / 1e3, "us");
        ctx.layer
            .set("serve.steps_per_round", median(&stepping), "count");
    }
    Ok((requests, digests))
}

/// One solo rung: every tenant's stream through its own session, bare or
/// behind the journaling wrapper. Returns the digests.
fn solo_rung(tenants: &[(String, usize, Arc<Trace>)], journaled: bool) -> Result<Vec<u64>, String> {
    tenants
        .iter()
        .map(|(_, family, trace)| {
            let spec = tenant_spec(*family);
            let s = spec
                .build_backend()
                .open_with(spec.effective_session_config(QUOTA))
                .map_err(|e| e.to_string())?;
            let s = if journaled {
                let mut j = JournaledSession::new(s);
                feed_trace(&mut j, trace).map_err(|e| e.to_string())?;
                std::hint::black_box(j.journal());
                j.into_parts().0
            } else {
                let mut s = s;
                feed_trace(&mut *s, trace).map_err(|e| e.to_string())?;
                s
            };
            let (report, _) = s.finish().map_err(|e| e.to_string())?;
            validated_digest(&report, trace)
        })
        .collect()
}

/// The serve ladder: proto (`handle_line`) → service (`handle` on parsed
/// requests) → journaled session → bare session → core, on the same
/// tenant streams, three interleaved rounds; each rung's median time per
/// task and its marginal cost over the rung below.
pub fn ladder(ctx: &mut Ctx, pool: &[Arc<Trace>]) -> Result<(), String> {
    let tenants = ladder_tenants(pool);
    let tasks: u64 = tenants.iter().map(|t| t.2.len() as u64).sum();
    let mut ns: [Vec<f64>; 5] = Default::default();
    let mut requests = [0u64; 2];
    for _ in 0..3 {
        let t0 = Instant::now();
        let (n, proto) = serve_rung(ctx, &tenants, false)?;
        ns[0].push(t0.elapsed().as_nanos() as f64);
        requests[0] = n;
        let t0 = Instant::now();
        let (n, service) = serve_rung(ctx, &tenants, true)?;
        ns[1].push(t0.elapsed().as_nanos() as f64);
        requests[1] = n;
        let t0 = Instant::now();
        let journal = ctx
            .tracer
            .span("journal.feed", 0, || solo_rung(&tenants, true));
        ns[2].push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let session = ctx
            .tracer
            .span("session.feed", 0, || solo_rung(&tenants, false));
        ns[3].push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for (i, (_, _, trace)) in tenants.iter().enumerate() {
            run_core(&mut ctx.tracer, i as u64, trace)?;
        }
        ns[4].push(t0.elapsed().as_nanos() as f64);
        let verdict = (|| {
            let session = session?;
            for (other, what) in [
                (journal?, "journaled"),
                (proto, "proto"),
                (service, "service"),
            ] {
                for (g, w) in other.iter().zip(&session) {
                    ctx.check.same(what, *g, *w)?;
                }
            }
            Ok(())
        })();
        ctx.check.op(verdict);
    }
    let per_task: Vec<f64> = ns.iter().map(|v| median(v) / tasks.max(1) as f64).collect();
    let m = &mut ctx.layer;
    m.set(
        "serve.proto.ns_per_req",
        median(&ns[0]) / requests[0].max(1) as f64,
        "ns",
    );
    m.set(
        "serve.service.ns_per_req",
        median(&ns[1]) / requests[1].max(1) as f64,
        "ns",
    );
    m.set("runtime.journal.ns_per_task", per_task[2], "ns");
    m.set("backend.session.solo_ns_per_task", per_task[3], "ns");
    m.set("core.solo_ns_per_task", per_task[4], "ns");
    m.set("serve.proto.marginal_ns", per_task[0] - per_task[1], "ns");
    m.set("serve.service.marginal_ns", per_task[1] - per_task[2], "ns");
    m.set(
        "runtime.journal.marginal_ns",
        per_task[2] - per_task[3],
        "ns",
    );
    m.set(
        "backend.session.marginal_ns",
        per_task[3] - per_task[4],
        "ns",
    );
    Ok(())
}
