//! Reproduces **Figure 1 — run times by program and sample size** as an
//! ASCII log-log chart plus a CSV series file.
//!
//! Usage: `cargo run -p kcv-bench --release --bin figure1 -- [--max-n N]
//! [--reps R] [--k K] [--nmulti M] [--out results/figure1.csv]`

use kcv_bench::chart::{render_loglog, Series};
use kcv_bench::programs::Program;
use kcv_bench::sweep::figure1_sweep;
use kcv_bench::table::{arg_parse, arg_value, write_csv};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = arg_parse(&args, "--max-n", 5_000usize);
    let reps = arg_parse(&args, "--reps", 3usize);
    let k = arg_parse(&args, "--k", 50usize);
    let nmulti = arg_parse(&args, "--nmulti", 2usize);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results/figure1.csv".into());

    eprintln!("Figure 1 sweep: n ≤ {max_n}, k = {k}, {reps} reps, nmulti = {nmulti}");
    let rows = figure1_sweep(max_n, k, reps, nmulti);

    let mut series = Vec::new();
    let marks = [('r', Program::RacineHayfield), ('m', Program::MulticoreR),
                 ('s', Program::SequentialC), ('p', Program::PrefixC),
                 ('g', Program::CudaGpu),
                 ('w', Program::WindowedGpu), ('b', Program::Bagged),
                 ('f', Program::MultiFast)];
    for (mark, program) in marks {
        let points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.program == program)
            .map(|r| (r.n as f64, r.wall_seconds.max(1e-4)))
            .collect();
        series.push(Series { label: format!("{} (wall)", program.label()), mark, points });
    }
    // The simulated-GPU series: what the cost model says the Tesla takes.
    for (mark, program, label) in [
        ('G', Program::CudaGpu, "CUDA on GPU (simulated device time)"),
        ('W', Program::WindowedGpu, "Windowed GPU (simulated device time)"),
    ] {
        let sim_points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.program == program)
            .filter_map(|r| r.simulated_seconds.map(|s| (r.n as f64, s.max(1e-4))))
            .collect();
        series.push(Series { label: label.into(), mark, points: sim_points });
    }

    println!("\nFIGURE 1 (measured) — RUN TIMES BY PROGRAM AND SAMPLE SIZE\n");
    println!("{}", render_loglog(&series, 72, 24));

    let mut csv_rows = Vec::new();
    for r in &rows {
        csv_rows.push(vec![
            r.n as f64,
            match r.program {
                Program::RacineHayfield => 1.0,
                Program::MulticoreR => 2.0,
                Program::SequentialC => 3.0,
                Program::CudaGpu => 4.0,
                // Beyond the paper's four program codes (5 was the retired
                // merge-sweep).
                Program::PrefixC => 6.0,
                Program::WindowedGpu => 7.0,
                Program::Bagged => 8.0,
                Program::MultiFast => 9.0,
                Program::Streaming => 10.0,
            },
            r.wall_seconds,
            r.simulated_seconds.unwrap_or(f64::NAN),
            r.bandwidth,
        ]);
    }
    let path = PathBuf::from(out);
    write_csv(&path, &["n", "program", "wall_seconds", "simulated_seconds", "bandwidth"], &csv_rows)
        .expect("write CSV");
    eprintln!("wrote {}", path.display());
}
