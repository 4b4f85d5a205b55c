//! The serving workload: one producer thread feeds a `BandwidthService`
//! with lossless `send_blocking`, arrivals interleaved round-robin across
//! streams like independent sensors, then calls `shutdown()`.
//!
//! Each cycle is one service lifetime: send every arrival, shut down, then
//! start and open the next cycle's service (under a millisecond against a
//! cycle of seconds), so every cycle begins with a service ready. Set-up
//! starts the first one.

use std::time::Instant;

use kcv_core::cv::SlidingWindowSelector;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp, Sample};
use kcv_obs::Snapshot;
use kcv_serve::{merge_snapshots, BandwidthService, ServeConfig};

use crate::batch::sub_seed;
use crate::host;
use crate::oracle::{same_optimum, Answer, Repeat};
use crate::trace::Tracer;
use crate::{Layers, Meter, Step, Workload};

/// Sizes of the serving workload.
pub struct Shape {
    streams: usize,
    per_stream: usize,
    window: usize,
    cadence: usize,
}

impl Shape {
    /// Re-selection heavy: 64 streams × 1,000 arrivals, W = 256, cadence 50.
    pub fn streams(tiny: bool) -> Self {
        if tiny {
            Self {
                streams: 8,
                per_stream: 100,
                window: 32,
                cadence: 10,
            }
        } else {
            Self {
                streams: 64,
                per_stream: 1_000,
                window: 256,
                cadence: 50,
            }
        }
    }
}

type Service = BandwidthService<Epanechnikov>;

/// The `streams` workload.
pub struct Streams {
    data: Vec<Sample>,
    grid: BandwidthGrid,
    config: ServeConfig,
    ready: Option<Service>,
    repeat: Repeat,
    served: Snapshot,
    unapplied: u64,
    arrivals: u64,
    residence_ms: Vec<(f64, f64)>,
    report_mb: f64,
}

/// Starts a service and opens every stream on it.
fn start(grid: &BandwidthGrid, config: &ServeConfig, streams: usize) -> Result<Service, String> {
    let svc = BandwidthService::new(Epanechnikov, grid.clone(), config.clone())
        .map_err(|e| e.to_string())?;
    for id in 0..streams as u64 {
        svc.open(id).map_err(|e| e.to_string())?;
    }
    Ok(svc)
}

impl Streams {
    /// Generates every stream's arrivals, the grid (64 log-spaced points
    /// over [10⁻³, 0.3]·domain), and the first cycle's service with
    /// nproc − 1 shards (at least one) and 1,024-deep queues.
    pub fn setup(shape: Shape, seed: u64) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let data: Vec<Sample> = (0..shape.streams)
            .map(|s| PaperDgp.sample(shape.per_stream, sub_seed(seed, 100 + s as u64)))
            .collect();
        let data_s = t.elapsed().as_secs_f64();
        let (lo, hi) = data
            .iter()
            .flat_map(|s| &s.x)
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let domain = hi - lo;
        let grid =
            BandwidthGrid::log(1e-3 * domain, 0.3 * domain, 64).map_err(|e| e.to_string())?;
        let shards = host::nproc().saturating_sub(1).max(1);
        let config = ServeConfig::new(shards, shape.window, shape.cadence);
        let ready = Some(start(&grid, &config, shape.streams)?);
        let w = Self {
            data,
            grid,
            config,
            ready,
            repeat: Repeat::default(),
            served: Snapshot::default(),
            unapplied: 0,
            arrivals: 0,
            residence_ms: Vec::new(),
            report_mb: 0.0,
        };
        Ok((w, data_s))
    }
}

impl Workload for Streams {
    fn cycle(&mut self, tr: &mut Tracer, steps: &mut Vec<Step>) {
        let meter = Meter::start();
        let svc = self
            .ready
            .take()
            .expect("a service is ready at every cycle start");
        let per_stream = self.data[0].len();
        for t in 0..per_stream {
            for (id, s) in self.data.iter().enumerate() {
                let op = tr.next_op();
                let start = Instant::now();
                // An error leaves the arrival unapplied, and every arrival
                // sent but not applied counts as failed below.
                let _ = svc.send_blocking(id as u64, s.x[t], s.y[t]);
                tr.send(op, start, Instant::now());
            }
        }
        let op = tr.next_op();
        let id = tr.begin("serve.shutdown", op);
        let report = svc.shutdown();
        tr.end(id);
        self.ready = Some(
            start(&self.grid, &self.config, self.data.len()).expect("service restarts as set up"),
        );
        let sent = (per_stream * self.data.len()) as u64;
        let applied: u64 = report.streams.iter().map(|r| r.outcome.arrivals).sum();
        let unapplied = sent.saturating_sub(applied) + report.metrics.counter("shed_requests");
        steps.push(meter.stop("serve.cycle", sent, unapplied));
        self.unapplied += unapplied;

        let answers: Vec<Answer> = (0..self.data.len() as u64)
            .map(|id| {
                let r = report.streams.iter().find(|r| r.stream == id)?;
                let opt = r.outcome.final_optimum?;
                Some(vec![opt.index as f64, opt.bandwidth])
            })
            .collect();
        self.repeat.record(answers);

        if crate::trace::ON {
            let mut lat = report.latencies_nanos;
            lat.sort_unstable();
            let ms = |p| host::percentile(&lat, p) * 1e-6;
            self.residence_ms.push((ms(0.5), ms(0.99)));
            self.report_mb = lat.len() as f64 * 8.0 / 1e6;
            self.served = merge_snapshots(&[std::mem::take(&mut self.served), report.metrics]);
            self.arrivals += applied;
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.unapplied > 0 {
            return Err(format!(
                "{} arrivals were shed, rejected or lost",
                self.unapplied
            ));
        }
        let answers = self.repeat.answers()?;
        for (id, (s, got)) in self.data.iter().zip(answers).enumerate() {
            let Some(got) = got else {
                return Err(format!("stream {id}: no close-time optimum"));
            };
            let mut oracle = SlidingWindowSelector::new(
                Epanechnikov,
                self.grid.clone(),
                self.config.window,
                self.config.cadence,
            )
            .map_err(|e| e.to_string())?;
            for (&x, &y) in s.x.iter().zip(&s.y) {
                oracle.push_deferred(x, y).map_err(|e| e.to_string())?;
            }
            let want = oracle.reselect_now().map_err(|e| e.to_string())?;
            same_optimum(
                &format!("stream {id}"),
                (got[0] as usize, got[1]),
                (want.index, want.bandwidth),
            )?;
        }
        Ok(())
    }

    fn layers(&self, cycles: u64, out: &mut Layers) {
        let s = &self.served;
        let cycles = cycles.max(1) as f64;
        let arrivals = self.arrivals.max(1) as f64;
        let reselect_ns = s.phase_nanos("cv.reselect") as f64;
        out.set("stream.reselect_cpu_s", reselect_ns * 1e-9 / cycles);
        out.set(
            "stream.reselects_per_1k",
            s.counter("reselects") as f64 * 1e3 / arrivals,
        );
        out.set(
            "stream.update_cpu_s",
            s.phase_nanos("cv.update") as f64 * 1e-9 / cycles,
        );
        out.set(
            "stream.tree_updates_per_arrival",
            s.counter("tree_updates") as f64 / arrivals,
        );
        // Close-time re-selections run after the last batch, outside
        // `serve.batch`; take their mean-cost share out of the numerator.
        let calls = s
            .phases
            .iter()
            .find(|p| p.name == "cv.reselect")
            .map_or(0, |p| p.calls) as f64;
        let closes = self.data.len() as f64 * cycles;
        let batch_ns = s.phase_nanos("serve.batch") as f64;
        if calls > 0.0 && batch_ns > 0.0 {
            out.set(
                "stream.reselect_share",
                reselect_ns * ((calls - closes).max(0.0) / calls) / batch_ns,
            );
        }
        out.set("serve.batch_cpu_s", batch_ns * 1e-9 / cycles);
        out.set(
            "serve.coalesce_ratio",
            s.counter("coalesced_arrivals") as f64 / arrivals,
        );
        let p50: Vec<f64> = self.residence_ms.iter().map(|r| r.0).collect();
        let p99: Vec<f64> = self.residence_ms.iter().map(|r| r.1).collect();
        out.set("serve.residence_ms.p50", host::median(&p50));
        out.set("serve.residence_ms.p99", host::median(&p99));
        out.set("serve.report_mb", self.report_mb);
        out.set(
            "serve.queue_high_water",
            s.counter("queue_high_water") as f64,
        );
        out.set("serve.shed", s.counter("shed_requests") as f64);
    }
}
