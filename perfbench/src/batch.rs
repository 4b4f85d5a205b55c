//! The batch-selection workloads: `paper` (the paper's own §IV sizes) and
//! `bigdata` (past the paper's n ≈ 20,000 device-memory wall).

use std::time::Instant;

use kcv_bench::programs::{multi_dataset, multi_grids};
use kcv_core::cv::cv_profile_sorted;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::multi::{select_full_grid, select_full_grid_naive};
use kcv_core::select::{
    select_bandwidth, BaggedSelector, BandwidthSelector, GridSpec, SortedGridSearch,
};
use kcv_core::util::SplitMix64;
use kcv_data::{Dgp, PaperDgp, Sample};
use kcv_gpu::{
    select_bandwidth_gpu, select_bandwidth_gpu_windowed, GpuConfig, PipelineReport, WindowedReport,
};

use crate::oracle::{same_bits, same_vec_bits, within_one_step, Answer, Repeat};
use crate::trace::Tracer;
use crate::{Layers, Meter, Step, Workload};

/// A seed for the `tag`-th input of a workload, derived from the run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Runs one public call as a timed step inside a span with a fresh op id;
/// an `Err` becomes a `None` answer and a failed operation.
fn call<T, E>(
    tr: &mut Tracer,
    steps: &mut Vec<Step>,
    span: &'static str,
    f: impl FnOnce() -> Result<T, E>,
) -> Option<T> {
    let op = tr.next_op();
    let id = tr.begin(span, op);
    let meter = Meter::start();
    let out = f().ok();
    steps.push(meter.stop(span, 1, u64::from(out.is_none())));
    tr.end(id);
    out
}

/// The paper's §IV experiment: six one-call selections (n = 500, 1000,
/// 2000, two samples each, k = 200, full-window guard) and one classic GPU
/// program run (n = 1000, k = 100, Tesla S10).
pub struct Paper {
    samples: Vec<(&'static str, Sample)>,
    gpu_sample: Sample,
    gpu_grid: BandwidthGrid,
    gpu_config: GpuConfig,
    repeat: Repeat,
    gpu_report: Option<PipelineReport>,
}

impl Paper {
    /// Generates the seven samples and the device grid.
    pub fn setup(seed: u64, tiny: bool) -> Result<(Self, f64), String> {
        let scale = if tiny { 10 } else { 1 };
        let t = Instant::now();
        let mut samples = Vec::new();
        for (i, (n, span)) in [
            (500, "select.one_call.n500"),
            (1000, "select.one_call.n1000"),
            (2000, "select.one_call.n2000"),
        ]
        .into_iter()
        .enumerate()
        {
            for rep in 0..2 {
                samples.push((
                    span,
                    PaperDgp.sample(n / scale, sub_seed(seed, (2 * i + rep) as u64)),
                ));
            }
        }
        let gpu_sample = PaperDgp.sample(1000 / scale, sub_seed(seed, 6));
        let data_s = t.elapsed().as_secs_f64();
        let gpu_grid =
            BandwidthGrid::paper_default(&gpu_sample.x, 100).map_err(|e| e.to_string())?;
        let w = Self {
            samples,
            gpu_sample,
            gpu_grid,
            gpu_config: GpuConfig::default(),
            repeat: Repeat::default(),
            gpu_report: None,
        };
        Ok((w, data_s))
    }
}

impl Workload for Paper {
    fn cycle(&mut self, tr: &mut Tracer, steps: &mut Vec<Step>) {
        let mut answers: Vec<Answer> = Vec::with_capacity(7);
        for (span, s) in &self.samples {
            answers.push(call(tr, steps, span, || select_bandwidth(&s.x, &s.y)).map(|h| vec![h]));
        }
        let (s, grid, config) = (&self.gpu_sample, &self.gpu_grid, &self.gpu_config);
        let run = call(tr, steps, "gpu.classic", || {
            select_bandwidth_gpu(&s.x, &s.y, grid, config)
        });
        answers.push(run.as_ref().map(|r| vec![r.bandwidth]));
        if let Some(run) = run {
            self.gpu_report = Some(run.report);
        }
        self.repeat.record(answers);
    }

    fn check(&self) -> Result<(), String> {
        let answers = self.repeat.answers()?;
        for ((_, s), got) in self.samples.iter().zip(answers) {
            let Some(got) = got else { continue };
            let want = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(200))
                .with_min_included(s.len())
                .select(&s.x, &s.y)
                .map_err(|e| format!("sequential oracle: {e}"))?;
            same_bits(&format!("one-call n={}", s.len()), got[0], want.bandwidth)?;
        }
        if let Some(got) = &answers[6] {
            let s = &self.gpu_sample;
            let want = cv_profile_sorted(&s.x, &s.y, &self.gpu_grid, &Epanechnikov)
                .and_then(|p| p.argmin())
                .map_err(|e| format!("sorted-profile oracle: {e}"))?;
            within_one_step("gpu classic", got[0], want.bandwidth, self.gpu_grid.step())?;
        }
        Ok(())
    }

    fn layers(&self, _cycles: u64, out: &mut Layers) {
        if let Some(r) = &self.gpu_report {
            out.set("gpu.classic.h2d_mb", r.h2d_bytes as f64 / 1e6);
            out.set(
                "gpu.classic.device_peak_mb",
                r.device_bytes_peak as f64 / 1e6,
            );
            out.set("gpu.classic.sim_s", r.total_simulated_seconds);
        }
    }
}

/// Past the paper's wall: parallel prefix-moment CV at n = 2·10⁴ and the
/// windowed device program on the same sample, bagged selection on
/// n = 10⁶, and d = 2 fast-sum selection on a 10×10 lattice.
pub struct BigData {
    prefix_sample: Sample,
    prefix_grid: BandwidthGrid,
    prefix: SortedGridSearch<Epanechnikov>,
    gpu_config: GpuConfig,
    bag_sample: Sample,
    bagged: BaggedSelector<Epanechnikov>,
    columns: Vec<Vec<f64>>,
    multi_y: Vec<f64>,
    lattice: Vec<Vec<f64>>,
    repeat: Repeat,
    windowed_report: Option<WindowedReport>,
}

impl BigData {
    /// Generates the three samples, grids and selectors.
    pub fn setup(seed: u64, tiny: bool) -> Result<(Self, f64), String> {
        let (n_prefix, n_bag, bags, bag_size, n_multi, side) = if tiny {
            (2_000, 20_000, 4, 500, 300, 4)
        } else {
            (20_000, 1_000_000, 16, 2_000, 2_000, 10)
        };
        let t = Instant::now();
        let prefix_sample = PaperDgp.sample(n_prefix, sub_seed(seed, 10));
        let bag_sample = PaperDgp.sample(n_bag, sub_seed(seed, 11));
        let multi = PaperDgp.sample(n_multi, sub_seed(seed, 12));
        let (columns, multi_y) = multi_dataset(&multi.x, &multi.y);
        let data_s = t.elapsed().as_secs_f64();

        let prefix_grid =
            BandwidthGrid::paper_default(&prefix_sample.x, 100).map_err(|e| e.to_string())?;
        let bag_grid = BandwidthGrid::log(1e-4, 0.5, 100).map_err(|e| e.to_string())?;
        let lattice = multi_grids(&columns, side)?;
        let w = Self {
            prefix: SortedGridSearch::prefix_par(
                Epanechnikov,
                GridSpec::Explicit(prefix_grid.clone()),
            ),
            prefix_sample,
            prefix_grid,
            gpu_config: GpuConfig::default(),
            bagged: BaggedSelector::new(Epanechnikov, GridSpec::Explicit(bag_grid), bags, bag_size)
                .with_seed(sub_seed(seed, 13)),
            bag_sample,
            columns,
            multi_y,
            lattice,
            repeat: Repeat::default(),
            windowed_report: None,
        };
        Ok((w, data_s))
    }
}

impl Workload for BigData {
    fn cycle(&mut self, tr: &mut Tracer, steps: &mut Vec<Step>) {
        let mut answers: Vec<Answer> = Vec::with_capacity(4);
        let s = &self.prefix_sample;
        answers.push(
            call(tr, steps, "cv.prefix_par", || {
                self.prefix.select(&s.x, &s.y)
            })
            .map(|r| vec![r.bandwidth]),
        );
        let (grid, config) = (&self.prefix_grid, &self.gpu_config);
        let run = call(tr, steps, "gpu.windowed", || {
            select_bandwidth_gpu_windowed(&s.x, &s.y, grid, config)
        });
        answers.push(run.as_ref().map(|r| vec![r.bandwidth]));
        if let Some(run) = run {
            self.windowed_report = Some(run.report);
        }
        let b = &self.bag_sample;
        answers.push(
            call(tr, steps, "select.bagged", || {
                self.bagged.select(&b.x, &b.y)
            })
            .map(|r| vec![r.bandwidth]),
        );
        let (cols, y, lattice) = (&self.columns, &self.multi_y, &self.lattice);
        answers.push(
            call(tr, steps, "multi.fast", || {
                select_full_grid(cols, y, &Epanechnikov, lattice)
            })
            .map(|r| r.bandwidths),
        );
        self.repeat.record(answers);
    }

    fn check(&self) -> Result<(), String> {
        let answers = self.repeat.answers()?;
        let s = &self.prefix_sample;
        let prefix_par = answers[0].as_ref().map(|a| a[0]);
        if let Some(got) = prefix_par {
            let want = SortedGridSearch::prefix(
                Epanechnikov,
                GridSpec::Explicit(self.prefix_grid.clone()),
            )
            .select(&s.x, &s.y)
            .map_err(|e| format!("sequential prefix oracle: {e}"))?;
            same_bits("prefix_par", got, want.bandwidth)?;
        }
        if let (Some(got), Some(want)) = (&answers[1], prefix_par) {
            within_one_step("gpu windowed", got[0], want, self.prefix_grid.step())?;
        }
        if let Some(got) = &answers[2] {
            let b = &self.bag_sample;
            let want = self
                .bagged
                .clone()
                .sequential()
                .select(&b.x, &b.y)
                .map_err(|e| format!("sequential bagged oracle: {e}"))?;
            same_bits("bagged", got[0], want.bandwidth)?;
        }
        if let Some(got) = &answers[3] {
            let want =
                select_full_grid_naive(&self.columns, &self.multi_y, &Epanechnikov, &self.lattice)
                    .map_err(|e| format!("naive multivariate oracle: {e}"))?;
            same_vec_bits("multi fast", got, &want.bandwidths)?;
        }
        Ok(())
    }

    fn layers(&self, _cycles: u64, out: &mut Layers) {
        if let Some(r) = &self.windowed_report {
            out.set("gpu.windowed.h2d_mb", r.h2d_bytes as f64 / 1e6);
            out.set(
                "gpu.windowed.device_peak_mb",
                r.device_bytes_peak as f64 / 1e6,
            );
            out.set("gpu.windowed.sim_s", r.total_simulated_seconds);
        }
    }
}
