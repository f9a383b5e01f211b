//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|stream_cluster|serve_wire> --seed <n>
//!           --seconds <s> --trace <0|1> [--size tiny] [--inject-mismatch]
//!           [--write-pins]
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! measures it for `--seconds`, checks every op it timed, and prints one
//! JSON object as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod check;
mod layers;
mod serve;
mod span;
mod stats;
mod stream;
mod sweep;

use check::Checker;
use span::Tracer;
use stats::{median, quantile, Metrics};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups before the timed window. Untimed runs also set up once more
/// after every timed pass, so the set-ups sample the host across the whole
/// run; `setup_s` is the median of them all.
const SETUP_REPS: usize = 5;

/// Everything a workload needs while it runs.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Small inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Host threads available to the process.
    pub nproc: usize,
    /// The benchmark's span recorder (on in traced runs).
    pub tracer: Tracer,
    /// Attempted/failed op counts.
    pub check: Checker,
    /// Per-layer metrics, filled by traced runs.
    pub layer: Metrics,
    /// Scratch directory inside the output directory, removed at exit.
    pub work_dir: PathBuf,
    /// Digest of the inputs the workload generated from the seed.
    pub input_digest: u64,
}

/// One timed pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Simulated tasks completed.
    pub tasks: u64,
    /// Requests answered (sweeps, paced drives or wire request lines).
    pub requests: u64,
    /// Host seconds the pass took.
    pub secs: f64,
    /// Per-request latency in microseconds.
    pub latencies_us: Vec<f64>,
}

/// A benchmark workload: set up, run timed passes, check, measure layers.
pub trait Workload: Sized {
    /// Generates the inputs and builds what the timed passes use.
    fn setup(ctx: &mut Ctx) -> Result<Self, String>;
    /// Runs one timed pass, recording what `check` needs.
    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, String>;
    /// Checks every op of every pass (outside the timed window).
    fn check(&mut self, ctx: &mut Ctx) -> Result<(), String>;
    /// Traced runs only: measures the per-layer metrics.
    fn layers(&mut self, ctx: &mut Ctx) -> Result<(), String>;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: bool,
    write_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject: false,
        write_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                a.tiny = match val()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            "--inject-mismatch" => a.inject = true,
            "--write-pins" => a.write_pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short command, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    let mut c = std::process::Command::new(cmd);
    c.args(args);
    // Never report the revision of a repository above the checkout.
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(parent) = cwd.parent() {
            c.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload end to end and returns the metrics to print.
fn run<W: Workload>(ctx: &mut Ctx, traced: bool) -> Result<Metrics, String> {
    // Set up several times; keep the last instance.
    let mut setup_s = Vec::new();
    let mut timed_setup = |ctx: &mut Ctx| -> Result<W, String> {
        let t0 = Instant::now();
        let w = W::setup(ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(w)
    };
    let mut wl = timed_setup(ctx)?;
    for _ in 1..SETUP_REPS {
        drop(wl);
        wl = timed_setup(ctx)?;
    }

    // One untimed warm-up pass, then the timed window. Traced runs
    // alternate untraced and traced passes, which gives the overhead.
    // Each pass is reduced to its latency quantiles as soon as it ends, so
    // the samples held do not grow with the run, which `peak_rss_mb` would
    // otherwise count.
    ctx.tracer.set_on(false);
    wl.pass(ctx)?;
    let mut passes: Vec<(bool, Pass, [f64; 2])> = Vec::new();
    let window = Instant::now();
    loop {
        let on = traced && passes.len() % 2 == 1;
        ctx.tracer.set_on(on);
        let mut p = wl.pass(ctx)?;
        let lat = std::mem::take(&mut p.latencies_us);
        passes.push((on, p, [quantile(&lat, 0.50), quantile(&lat, 0.90)]));
        if !traced {
            drop(timed_setup(ctx)?);
        }
        let enough = passes.len() >= if traced { 4 } else { 3 };
        if enough && window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    ctx.tracer.set_on(traced);
    wl.check(ctx)?;

    let rate = |on: bool, f: &dyn Fn(&Pass) -> u64| {
        let v: Vec<f64> = passes
            .iter()
            .filter(|(o, _, _)| *o == on)
            .map(|(_, p, _)| f(p) as f64 / p.secs)
            .collect();
        median(&v)
    };
    // Latency quantiles are medians over the untraced passes of each
    // pass's own quantile: a burst of host noise moves one pass, not the
    // run.
    let latency = |i: usize| {
        let v: Vec<f64> = passes
            .iter()
            .filter(|(o, _, _)| !*o)
            .map(|(_, _, q)| q[i])
            .collect();
        median(&v)
    };
    let mut m = Metrics::default();
    if traced {
        wl.layers(ctx)?;
        std::mem::swap(&mut m, &mut ctx.layer);
        let on = rate(true, &|p| p.tasks);
        let off = rate(false, &|p| p.tasks);
        m.set("trace.traced_over_untraced", on / off, "ratio");
    } else {
        m.set("tasks_per_s", rate(false, &|p| p.tasks), "1/s");
        m.set("req_per_s", rate(false, &|p| p.requests), "1/s");
        m.set("req_p50_us", latency(0), "us");
        m.set("req_p90_us", latency(1), "us");
        m.set("setup_s", median(&setup_s), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let rates: Vec<String> = passes
        .iter()
        .map(|(_, p, _)| format!("{:.0}", p.tasks as f64 / p.secs))
        .collect();
    eprintln!(
        "{} timed passes, {} requests; tasks/s per pass: {}",
        passes.len(),
        passes.iter().map(|(_, p, _)| p.requests).sum::<u64>(),
        rates.join(" ")
    );
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let size = if args.tiny { "tiny" } else { "full" };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        tracer: Tracer::new(args.trace),
        check: Checker::new(
            format!("{}/{size}", args.workload),
            args.seed == check::DEFAULT_SEED,
            args.write_pins,
            args.inject,
        ),
        layer: Metrics::default(),
        work_dir: work_dir.clone(),
        input_digest: 0,
    };
    let result = match args.workload.as_str() {
        "paper_sweep" => run::<sweep::PaperSweep>(&mut ctx, args.trace),
        "stream_cluster" => run::<stream::StreamCluster>(&mut ctx, args.trace),
        "serve_wire" => run::<serve::ServeWire>(&mut ctx, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in ctx.check.failures() {
        eprintln!("check failed: {f}");
    }

    if args.write_pins {
        let lines = ctx.check.pin_lines();
        println!("{}", lines.join("\n"));
        return;
    }

    // Spans and the self-time table of traced runs.
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        println!("self time by span (count, total ms, self ms):");
        for (name, (n, total, own)) in ctx.tracer.self_times() {
            println!(
                "  {name:<28} {n:>9} {:>11.3} {:>11.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!("self time by layer (ms):");
        for (layer, own) in ctx.tracer.layer_self_ns() {
            println!("  {layer:<28} {:>11.3}", own as f64 / 1e6);
        }
        if ctx.tracer.dropped() > 0 {
            println!("spans dropped: {}", ctx.tracer.dropped());
        }
    }

    let mut metrics = metrics;
    if !args.trace {
        let ok = 1.0 - ctx.check.failed() as f64 / ctx.check.attempted().max(1) as f64;
        metrics.set("ok_ratio", ok, "ratio");
    }

    // The run's provenance, printed and appended to the history record.
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":\"{size}\",\
         \"input_digest\":\"{:016x}\",\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\
         \"metrics\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.input_digest,
        command_line("git", &["rev-parse", "HEAD"]),
        ctx.nproc,
        command_line("rustc", &["--version"]),
        metrics.to_json()
    );
    println!("{meta}");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("history.jsonl"))
    {
        use std::io::Write;
        let _ = writeln!(f, "{meta}");
    }

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        ctx.check.failed() == 0 && ctx.check.attempted() > 0,
        ctx.check.attempted().max(1),
        ctx.check.failed(),
        metrics.to_json()
    );
}
