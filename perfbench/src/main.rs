//! End-to-end and per-layer benchmark of the kernelcv workspace.
//!
//! `perfbench --workload <paper|bigdata|streams> --seed <n>
//! --seconds <s> [--spans <file>] [--tiny]` sets the workload up (several
//! times, timing each), runs its closed loop for `--seconds`, checks every
//! answer against an oracle, and prints one JSON line. The untraced build
//! reports the end-to-end metrics; the traced build (`--features metrics`)
//! adds every per-layer metric. `run.py` builds both and drives them.

mod batch;
mod host;
mod oracle;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kcv_bench::alloc_track;
use kcv_obs::{Recorder, Snapshot};

use trace::Tracer;

/// One timed step of a cycle: a selection call, or a whole stream cycle.
pub struct Step {
    kind: &'static str,
    ops: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// Times one step, from [`Meter::start`] to [`Meter::stop`].
pub struct Meter {
    wall: Instant,
    cpu: f64,
}

impl Meter {
    /// Starts the clocks.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: host::process_cpu_seconds(),
        }
    }

    /// Stops the clocks. `ops` counts the operations the step attempted
    /// (selection calls or arrivals), `failed` those that returned an
    /// error or whose arrival was not applied.
    pub fn stop(self, kind: &'static str, ops: u64, failed: u64) -> Step {
        let cpu_s = host::process_cpu_seconds() - self.cpu;
        Step {
            kind,
            ops,
            failed,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s,
        }
    }
}

/// Wall and CPU seconds of one cycle, robust to transient host slowdowns:
/// each kind of step contributes its median time, as often as it occurs
/// per cycle.
fn cycle_seconds(steps: &[Step], cycles: u64) -> (f64, f64) {
    let mut kinds: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in steps {
        let k = kinds.entry(s.kind).or_default();
        k.0.push(s.wall_s);
        k.1.push(s.cpu_s);
    }
    kinds.values().fold((0.0, 0.0), |(wall, cpu), (w, c)| {
        let per_cycle = w.len() as f64 / cycles as f64;
        (
            wall + per_cycle * host::median(w),
            cpu + per_cycle * host::median(c),
        )
    })
}

/// One benchmark workload: a closed loop with a single caller thread.
pub trait Workload {
    /// Runs one cycle, timing each step and recording spans around each
    /// public call.
    fn cycle(&mut self, tr: &mut Tracer, steps: &mut Vec<Step>);
    /// Checks every answer against its oracle; runs after the timed pass.
    fn check(&self) -> Result<(), String>;
    /// Per-layer values only the workload can read (device and service
    /// reports). `cycles` is the number of cycles the pass ran.
    fn layers(&self, cycles: u64, out: &mut Layers);
}

/// Every per-layer metric, with its unit, in output order. A metric whose
/// layer does no work on a workload reads 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.steal_frac", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("data.sample_ms", "ms"),
    ("select.one_call_ms.n500", "ms"),
    ("select.one_call_ms.n1000", "ms"),
    ("select.one_call_ms.n2000", "ms"),
    ("cv.sort_cpu_ms", "ms"),
    ("cv.sweep_cpu_ms", "ms"),
    ("select.argmin_cpu_ms", "ms"),
    ("cv.sort_comparisons", "count"),
    ("cv.kernel_evals", "count"),
    ("cv.skip_ratio", "ratio"),
    ("obs.scope_enters", "count"),
    ("gpu.classic_ms", "ms"),
    ("gpu.windowed_ms", "ms"),
    ("gpu.launch_cpu_ms", "ms"),
    ("gpu.reduce_cpu_ms", "ms"),
    ("gpu.mem_transactions", "count"),
    ("gpu.sim_cycles", "count"),
    ("gpu.search_probes", "count"),
    ("gpu.classic.h2d_mb", "MB"),
    ("gpu.windowed.h2d_mb", "MB"),
    ("gpu.classic.device_peak_mb", "MB"),
    ("gpu.windowed.device_peak_mb", "MB"),
    ("gpu.classic.sim_s", "sim_s"),
    ("gpu.windowed.sim_s", "sim_s"),
    ("cv.prefix_par_ms", "ms"),
    ("select.bagged_ms", "ms"),
    ("multi.fast_ms", "ms"),
    ("cv.argsort_cpu_ms", "ms"),
    ("cv.prefix_cpu_ms", "ms"),
    ("cv.window_cpu_ms", "ms"),
    ("cv.bag_cpu_ms", "ms"),
    ("cv.multi_cpu_ms", "ms"),
    ("cv.window_queries", "count"),
    ("select.bags_run", "count"),
    ("multi.dim_sweeps", "count"),
    ("stream.reselect_cpu_s", "s"),
    ("stream.reselects_per_1k", "count"),
    ("stream.update_cpu_s", "s"),
    ("stream.tree_updates_per_arrival", "count"),
    ("stream.reselect_share", "ratio"),
    ("serve.send_us.p50", "us"),
    ("serve.send_us.p999", "us"),
    ("serve.enqueue_cpu_s", "s"),
    ("serve.batch_cpu_s", "s"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.residence_ms.p50", "ms"),
    ("serve.residence_ms.p99", "ms"),
    ("serve.shutdown_ms", "ms"),
    ("serve.report_mb", "MB"),
    ("serve.queue_high_water", "count"),
    ("serve.shed", "count"),
];

/// Per-layer values by name (see [`LAYER_METRICS`]).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric; the name must be listed in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// The median of every span called `name`, in milliseconds.
fn median_span_ms(tr: &Tracer, name: &str) -> f64 {
    host::median(&tr.durations_ms(name))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    spans: Option<std::path::PathBuf>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        spans: None,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--spans" => args.spans = Some(value()?.into()),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Builds the workload: data generation, grids, selectors, service and
/// stream opens. Returns the workload and its data-generation seconds.
fn setup(args: &Args) -> Result<(Box<dyn Workload>, f64), String> {
    let (seed, tiny) = (args.seed, args.tiny);
    Ok(match args.workload.as_str() {
        "paper" => {
            let (w, data_s) = batch::Paper::setup(seed, tiny)?;
            (Box::new(w), data_s)
        }
        "bigdata" => {
            let (w, data_s) = batch::BigData::setup(seed, tiny)?;
            (Box::new(w), data_s)
        }
        "streams" => {
            let (w, data_s) = stream::Streams::setup(stream::Shape::streams(tiny), seed)?;
            (Box::new(w), data_s)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Sets the workload up repeatedly — at least five times and for at least
/// half a second, at most 200 times — keeping the last instance.
/// Returns it with the median set-up and data-generation seconds.
fn timed_setup(args: &Args) -> Result<(Box<dyn Workload>, f64, f64), String> {
    let (min_reps, max_reps) = if args.tiny { (1, 1) } else { (5, 200) };
    let budget = Duration::from_millis(500);
    let started = Instant::now();
    let (mut setup_s, mut data_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    while setup_s.len() < min_reps || (started.elapsed() < budget && setup_s.len() < max_reps) {
        drop(kept.take());
        let t = Instant::now();
        let (w, d) = setup(args)?;
        setup_s.push(t.elapsed().as_secs_f64());
        data_s.push(d);
        kept = Some(w);
    }
    let w = kept.expect("at least one set-up ran");
    Ok((w, host::median(&setup_s), host::median(&data_s)))
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    // `{:?}` prints the shortest string that round-trips the value.
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
    ));
}

fn run(args: &Args) -> Result<bool, String> {
    let (mut workload, setup_s, data_s) = timed_setup(args)?;
    let mut tr = Tracer::default();
    let recorder = Recorder::new();

    let scope = recorder.install();
    let ticks0 = host::CpuTicks::now();
    let cpu0 = host::process_cpu_seconds();
    let t0 = Instant::now();
    let (mut steps, mut peaks, mut cycles) = (Vec::new(), Vec::new(), 0u64);
    loop {
        alloc_track::reset_peak();
        let heap = alloc_track::current_bytes();
        workload.cycle(&mut tr, &mut steps);
        peaks.push(alloc_track::peak_bytes().saturating_sub(heap) as f64 / 1e6);
        cycles += 1;
        if args.tiny || t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let ops: u64 = steps.iter().map(|s| s.ops).sum();
    let failed: u64 = steps.iter().map(|s| s.failed).sum();
    let ops_per_cycle = ops.max(1) as f64 / cycles as f64;
    let (cycle_wall, cycle_cpu) = cycle_seconds(&steps, cycles);
    let cpu = host::process_cpu_seconds() - cpu0;
    let steal = ticks0.steal_frac_until(host::CpuTicks::now());
    drop(scope);
    let pass: Snapshot = recorder.snapshot();

    let verdict = workload.check();
    if let Err(why) = &verdict {
        eprintln!("perfbench: {} answer check failed: {why}", args.workload);
    }

    let nproc = host::nproc();
    println!(
        "# {} seed={} cycles={cycles} ops={ops} wall_s={wall:.3} cpu_s={cpu:.3} nproc={nproc} \
         steal_frac={steal:.4} cpu_util={:.3}",
        args.workload,
        args.seed,
        cpu / wall
    );

    let mut out = String::from("{");
    metric(&mut out, "setup_s", setup_s, "s");
    metric(&mut out, "ops_per_s", ops_per_cycle / cycle_wall, "1/s");
    metric(
        &mut out,
        "cpu_us_per_op",
        cycle_cpu * 1e6 / ops_per_cycle,
        "us",
    );
    metric(&mut out, "peak_heap_mb", host::median(&peaks), "MB");
    if trace::ON {
        let mut layers = Layers::default();
        generic_layers(&mut layers, &pass, &tr, ops.max(1) as f64, cycles as f64);
        layers.set("host.nproc", nproc as f64);
        layers.set("host.steal_frac", steal);
        layers.set("proc.cpu_util", cpu / wall);
        layers.set("data.sample_ms", data_s * 1e3);
        workload.layers(cycles, &mut layers);
        for &(name, unit) in LAYER_METRICS {
            metric(
                &mut out,
                name,
                layers.0.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        if let Some(path) = &args.spans {
            tr.write(path)
                .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        }
    }
    out.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{ops},\"failed\":{failed},\"metrics\":{out}}}",
        verdict.is_ok()
    );
    Ok(verdict.is_ok())
}

/// Layer values read from the pass recorder and the caller-side spans.
fn generic_layers(l: &mut Layers, pass: &Snapshot, tr: &Tracer, ops: f64, cycles: f64) {
    let per_op_ms = |phase: &str| pass.phase_nanos(phase) as f64 * 1e-6 / ops;
    let per_op = |counter: &str| pass.counter(counter) as f64 / ops;
    for (metric, span) in [
        ("select.one_call_ms.n500", "select.one_call.n500"),
        ("select.one_call_ms.n1000", "select.one_call.n1000"),
        ("select.one_call_ms.n2000", "select.one_call.n2000"),
        ("gpu.classic_ms", "gpu.classic"),
        ("gpu.windowed_ms", "gpu.windowed"),
        ("cv.prefix_par_ms", "cv.prefix_par"),
        ("select.bagged_ms", "select.bagged"),
        ("multi.fast_ms", "multi.fast"),
        ("serve.shutdown_ms", "serve.shutdown"),
    ] {
        l.set(metric, median_span_ms(tr, span));
    }
    for (metric, phase) in [
        ("cv.sort_cpu_ms", "cv.sort"),
        ("cv.sweep_cpu_ms", "cv.sweep"),
        ("select.argmin_cpu_ms", "select.argmin"),
        ("gpu.launch_cpu_ms", "gpu.launch"),
        ("gpu.reduce_cpu_ms", "gpu.reduce"),
        ("cv.argsort_cpu_ms", "cv.argsort"),
        ("cv.prefix_cpu_ms", "cv.prefix"),
        ("cv.window_cpu_ms", "cv.window"),
        ("cv.bag_cpu_ms", "cv.bag"),
        ("cv.multi_cpu_ms", "cv.multi"),
    ] {
        l.set(metric, per_op_ms(phase));
    }
    for (metric, counter) in [
        ("cv.sort_comparisons", "sort_comparisons"),
        ("cv.kernel_evals", "kernel_evals"),
        ("obs.scope_enters", "scope_enters"),
        ("gpu.mem_transactions", "mem_transactions"),
        ("gpu.sim_cycles", "gpu_sim_cycles"),
        ("gpu.search_probes", "binary_search_probes"),
        ("cv.window_queries", "window_queries"),
        ("select.bags_run", "bags_run"),
        ("multi.dim_sweeps", "dim_sweeps"),
    ] {
        l.set(metric, per_op(counter));
    }
    let evaluated = pass.counter("kernel_evals") as f64;
    let skipped = pass.counter("loo_terms_skipped") as f64;
    if evaluated + skipped > 0.0 {
        l.set("cv.skip_ratio", skipped / (evaluated + skipped));
    }
    let sends = tr.sorted_send_nanos();
    l.set("serve.send_us.p50", host::percentile(&sends, 0.5) * 1e-3);
    l.set("serve.send_us.p999", host::percentile(&sends, 0.999) * 1e-3);
    l.set(
        "serve.enqueue_cpu_s",
        pass.phase_nanos("serve.enqueue") as f64 * 1e-9 / cycles,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
