//! `stream_cluster`: seeded open-loop request streams, paced by
//! `pace::run_paced` with a bounded in-flight window into a 4-shard
//! cluster on `nproc` simulation threads. One request is one paced drive
//! of one stream: thousands of `advance_to`/`step` calls, where
//! `paper_sweep` makes one batch drive per cell.

use crate::check::validated_digest;
use crate::layers;
use crate::{Ctx, Pass, Workload};
use picos_backend::{pace, ArrivalTrace, BackendSpec, ExecBackend};
use picos_trace::gen::{self, StreamConfig};
use picos_trace::rng::SplitMix64;
use picos_trace::Trace;
use std::sync::Arc;
use std::time::Instant;

/// In-flight window of the paced session.
const WINDOW: usize = 16;

/// Mean cycles between arrivals: faster than the cluster drains at this
/// window, so drives both advance to arrivals and step under backpressure.
const INTERARRIVAL: u64 = 40;

pub struct StreamCluster {
    streams: Vec<(Arc<Trace>, Arc<Vec<u64>>)>,
    backend: Box<dyn ExecBackend>,
    /// (stream index, schedule digest or error) of every timed drive.
    drives: Vec<(usize, Result<u64, String>)>,
}

/// The cluster the timed drives run on.
fn cluster(threads: usize) -> Box<dyn ExecBackend> {
    BackendSpec::Cluster(4)
        .builder(layers::PROBE_WORKERS)
        .threads(Some(threads))
        .build()
}

impl Workload for StreamCluster {
    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let (count, tasks) = if ctx.tiny { (2, 200) } else { (8, 1500) };
        let streams = streams(ctx.seed, count, tasks);
        ctx.input_digest = crate::check::input_digest(streams.iter().map(|s| &*s.0));
        Ok(StreamCluster {
            streams,
            backend: cluster(ctx.nproc.clamp(1, 4)),
            drives: Vec::new(),
        })
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let start = Instant::now();
        for (i, (trace, arrivals)) in self.streams.iter().enumerate() {
            let t0 = Instant::now();
            let r = ctx.tracer.span("backend.pace.run_paced", i as u64, || {
                pace::run_paced(
                    &*self.backend,
                    ArrivalTrace::new(trace, arrivals),
                    Some(WINDOW),
                )
            });
            pass.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            pass.requests += 1;
            pass.tasks += trace.len() as u64;
            let digest = r
                .map_err(|e| e.to_string())
                .and_then(|r| validated_digest(&r.report, trace));
            self.drives.push((i, digest));
        }
        pass.secs = start.elapsed().as_secs_f64();
        Ok(pass)
    }

    fn check(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        // Reference: the same drive on the serial cluster engine.
        let serial = cluster(1);
        let refs: Vec<Result<u64, String>> = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, (trace, arrivals))| {
                let r = pace::run_paced(&*serial, ArrivalTrace::new(trace, arrivals), Some(WINDOW))
                    .map_err(|e| e.to_string())?;
                let d = validated_digest(&r.report, trace)?;
                ctx.check.pinned(&format!("stream{i}"), d)?;
                Ok(d)
            })
            .collect();
        for (i, got) in &self.drives {
            let verdict = match (got, &refs[*i]) {
                (Ok(g), Ok(want)) => ctx.check.same("paced drive vs serial", *g, *want),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            ctx.check.op(verdict);
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        // The spanned driver must reproduce `run_paced` exactly.
        let run_paced: Vec<Option<u64>> = self
            .streams
            .iter()
            .map(|(trace, arrivals)| {
                pace::run_paced(
                    &*self.backend,
                    ArrivalTrace::new(trace, arrivals),
                    Some(WINDOW),
                )
                .ok()
                .map(|r| crate::check::digest(&r.report))
            })
            .collect();
        layers::paced_ladder(ctx, &self.streams, WINDOW, &|i| run_paced[i])?;
        let traces: Vec<Arc<Trace>> = self
            .streams
            .iter()
            .take(2)
            .map(|s| Arc::clone(&s.0))
            .collect();
        layers::batch_probe(ctx, &traces)?;
        crate::serve::probe(ctx)
    }
}

/// The seeded request streams: `count` streams of `tasks` requests.
fn streams(seed: u64, count: usize, tasks: usize) -> Vec<(Arc<Trace>, Arc<Vec<u64>>)> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let (trace, arrivals) = gen::stream_requests(StreamConfig {
                seed: rng.next_u64(),
                interarrival: INTERARRIVAL,
                ..StreamConfig::heavy(tasks)
            });
            (Arc::new(trace), Arc::new(arrivals))
        })
        .collect()
}

/// The paced rungs for workloads that do not load them, on two small
/// streams of their own.
pub fn probe(ctx: &mut Ctx) -> Result<(), String> {
    let s = streams(ctx.seed ^ 0x9ACE, 2, if ctx.tiny { 100 } else { 400 });
    layers::paced_ladder(ctx, &s, WINDOW, &|_| None)
}
