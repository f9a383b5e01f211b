//! `paper_sweep`: the paper's own use — a batch design-space sweep.
//!
//! The five applications at their two coarsest Table I block sizes plus one
//! seeded random trace, crossed with perfect, nanos, the three HIL modes,
//! every DM design and two worker counts (cells in parallel on `nproc`
//! threads), and 4-shard cluster cells with a fault axis (no fault, 1%
//! link drop), run serially at `nproc` cluster threads. One request is one
//! `Sweep::run` over one input's grid.

use crate::layers::{self, Cell, CellRun};
use crate::{Ctx, Pass, Workload};
use picos_backend::{BackendSpec, Sweep, SweepCell, SweepRow, Workload as Input};
use picos_core::DmDesign;
use picos_hil::HilMode;
use picos_trace::gen::{self, App, RandomConfig};
use picos_trace::Trace;
use std::sync::Arc;
use std::time::Instant;

/// Worker counts of the grid.
const WORKERS: [usize; 2] = [4, 12];

/// One input's grid: the sweep and its cells, in row order.
struct Grid {
    input: usize,
    sweep: Sweep,
    cells: Vec<SweepCell>,
    cluster: bool,
}

pub struct PaperSweep {
    labels: Vec<String>,
    traces: Vec<Arc<Trace>>,
    grids: Vec<Grid>,
    /// Rows of every timed sweep: (grid index, rows).
    results: Vec<(usize, Vec<SweepRow>)>,
    /// Wall time of the non-cluster sweeps of each pass.
    grid_wall_s: Vec<f64>,
}

/// The application inputs: (app, block size) pairs.
fn app_inputs(tiny: bool) -> Vec<(App, u64)> {
    App::ALL
        .iter()
        .flat_map(|&app| {
            let bs = app.paper_block_sizes();
            if tiny {
                vec![(app, bs[0])]
            } else {
                vec![(app, bs[0]), (app, bs[1])]
            }
        })
        .collect()
}

impl Workload for PaperSweep {
    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let mut labels = Vec::new();
        let mut traces = Vec::new();
        for (app, bs) in app_inputs(ctx.tiny) {
            labels.push(format!("{app}-{bs}"));
            traces.push(Arc::new(app.generate(bs)));
        }
        let random = RandomConfig {
            tasks: if ctx.tiny { 300 } else { 1000 },
            ..RandomConfig::default()
        };
        labels.push("random".to_string());
        traces.push(Arc::new(gen::random_trace(random, ctx.seed)));
        ctx.input_digest = crate::check::input_digest(traces.iter().map(|t| &**t));

        let mut grids = Vec::new();
        for (input, (label, trace)) in labels.iter().zip(&traces).enumerate() {
            let w = || vec![Input::from_trace(label.clone(), Arc::clone(trace))];
            let batch = Sweep::new(w())
                .backends([
                    BackendSpec::Perfect,
                    BackendSpec::Nanos,
                    BackendSpec::Picos(HilMode::HwOnly),
                    BackendSpec::Picos(HilMode::HwComm),
                    BackendSpec::Picos(HilMode::FullSystem),
                ])
                .dm_designs(DmDesign::ALL)
                .workers(WORKERS)
                .threads(ctx.nproc);
            let cluster = Sweep::new(w())
                .backends([BackendSpec::Cluster(4)])
                .workers(WORKERS)
                .faults([None, Some(layers::drop_plan(ctx.seed))])
                .serial()
                .cluster_threads(ctx.nproc);
            for (sweep, is_cluster) in [(batch, false), (cluster, true)] {
                grids.push(Grid {
                    input,
                    cells: sweep.cells(),
                    sweep,
                    cluster: is_cluster,
                });
            }
        }
        Ok(PaperSweep {
            labels,
            traces,
            grids,
            results: Vec::new(),
            grid_wall_s: Vec::new(),
        })
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut grid_wall = 0.0;
        let start = Instant::now();
        for (g, grid) in self.grids.iter().enumerate() {
            let t0 = Instant::now();
            let result = ctx
                .tracer
                .span("backend.sweep.run", g as u64, || grid.sweep.run());
            let dt = t0.elapsed().as_secs_f64();
            if !grid.cluster {
                grid_wall += dt;
            }
            pass.latencies_us.push(dt * 1e6);
            pass.requests += 1;
            pass.tasks += (grid.cells.len() * self.traces[grid.input].len()) as u64;
            self.results.push((g, result.rows().to_vec()));
        }
        pass.secs = start.elapsed().as_secs_f64();
        self.grid_wall_s.push(grid_wall);
        Ok(pass)
    }

    fn check(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        // One direct reference run per distinct cell (spanned in traced
        // runs: these are the batch rungs), then every timed row against it.
        let mut refs: Vec<Vec<Result<CellRun, String>>> = Vec::new();
        let mut serial_cell_s = 0.0;
        let mut runs = Vec::new();
        for (g, grid) in self.grids.iter().enumerate() {
            let trace = &self.traces[grid.input];
            let mut grid_refs = Vec::new();
            for sc in &grid.cells {
                let cell = Cell {
                    input: grid.input,
                    spec: sc.backend,
                    dm: sc.dm,
                    workers: sc.workers,
                    threads: 1,
                    fault: sc.fault.clone(),
                };
                let t0 = Instant::now();
                let run = layers::run_cell(&mut ctx.tracer, g as u64, &cell, trace);
                if !grid.cluster {
                    serial_cell_s += t0.elapsed().as_secs_f64();
                }
                let key = cell.key(&self.labels[grid.input]);
                let verdict = layers::check_cell_run(&run, trace)
                    .and_then(|d| ctx.check.pinned(&key, d).map(|()| d));
                // The parallel cluster engine must equal the serial one;
                // traced runs time it as the cluster.batch rung.
                let verdict = match (
                    &verdict,
                    grid.cluster && cell.fault.is_none() && ctx.tracer.is_on(),
                ) {
                    (Ok(d), true) => {
                        let par = Cell {
                            threads: ctx.nproc.clamp(1, 4),
                            ..cell.clone()
                        };
                        let pr = layers::run_cell(&mut ctx.tracer, g as u64, &par, trace);
                        layers::check_cell_run(&pr, trace)
                            .and_then(|p| ctx.check.same(&key, p, *d))
                            .map(|()| *d)
                    }
                    _ => verdict,
                };
                if let Ok(r) = &run {
                    runs.push((cell, r.clone()));
                }
                grid_refs.push(verdict.and(run));
            }
            refs.push(grid_refs);
        }
        for (g, rows) in &self.results {
            for (row, reference) in rows.iter().zip(&refs[*g]) {
                ctx.check.op(row_matches(row, reference));
            }
        }
        if ctx.tracer.is_on() {
            let wall = crate::stats::median(&self.grid_wall_s);
            ctx.layer.set(
                "backend.sweep.efficiency",
                serial_cell_s / (wall * ctx.nproc as f64),
                "ratio",
            );
            for (i, trace) in self.traces.iter().enumerate() {
                let verdict = layers::run_core(&mut ctx.tracer, i as u64, trace).map(|_| ());
                ctx.check.op(verdict);
            }
            layers::batch_metrics(ctx, &runs);
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        // The batch rungs ran as this workload's reference pass; the paced
        // and serve layers run once on small inputs of their own.
        crate::stream::probe(ctx)?;
        crate::serve::probe(ctx)
    }
}

/// A timed row against its reference run.
fn row_matches(row: &SweepRow, reference: &Result<CellRun, String>) -> Result<(), String> {
    let r = reference.as_ref().map_err(Clone::clone)?;
    if let Some(e) = &row.error {
        return Err(format!("sweep cell failed: {e}"));
    }
    let stats = r.stats.as_ref();
    let same = row.makespan == r.report.makespan
        && row.dm_conflicts == stats.map(|s| s.dm_conflicts)
        && row.tm_stalls == stats.map(|s| s.tm_stalls)
        && row.vm_stalls == stats.map(|s| s.vm_stalls)
        && row.link_retries.unwrap_or(0) == r.retries.unwrap_or(0);
    if same {
        Ok(())
    } else {
        Err(format!(
            "sweep row {}/{} w{} differs from its direct run: makespan {} vs {}, \
             dm {:?}/{:?} tm {:?}/{:?} vm {:?}/{:?} retries {:?}/{:?}",
            row.workload,
            row.backend,
            row.workers,
            row.makespan,
            r.report.makespan,
            row.dm_conflicts,
            stats.map(|s| s.dm_conflicts),
            row.tm_stalls,
            stats.map(|s| s.tm_stalls),
            row.vm_stalls,
            stats.map(|s| s.vm_stalls),
            row.link_retries,
            r.retries
        ))
    }
}
