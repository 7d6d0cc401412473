//! `sweep` — parallel experiment sweep CLI.
//!
//! ```text
//! sweep [--jobs N] [--systems memtis,tpp,...] [--benches 654.roms,btree,...]
//!       [--ratios 1:8,1:16] [--seeds K] [--accesses N] [--window EVENTS]
//!       [--cxl] [--test-scale] [--migration-bw BYTES_PER_NS]
//!       [--migration-queue DEPTH] [--faults SPEC] [--chunk N]
//!       [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!       [--hysteresis on|off|WINDOW:BASE:MAX]
//! ```
//!
//! Runs the (policy × workload × ratio × seed) matrix across worker
//! threads, prints the merged table, writes `sweep.csv` and
//! `BENCH_sweep.json` under `target/experiments/`, and reports the
//! parallel-scaling numbers. Defaults: the paper's Fig. 5 systems over all
//! benchmarks at 1:8, one seed, `--jobs` = available cores. A malformed or
//! unknown argument exits 2.

use memtis_bench::cli::{self, Args, CliError};
use memtis_bench::sweep::{emit_sweep, matrix, run_sweep, SweepConfig};
use memtis_bench::{access_budget, driver_config, CapacityKind, Ratio, SnapshotOpts, System};
use memtis_workloads::{Benchmark, Scale};
use std::num::{NonZeroU32, NonZeroUsize};

const USAGE: &str = "usage: sweep [--jobs N] [--systems a,b,..] [--benches x,y,..] \
     [--ratios F:C,..] [--seeds K] [--accesses N] [--window EVENTS] \
     [--cxl] [--test-scale] [--migration-bw BYTES_PER_NS] \
     [--migration-queue DEPTH] [--faults SPEC] [--chunk N] \
     [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] \
     [--hysteresis on|off|WINDOW:BASE:MAX]";

/// The shared run flags `sweep` takes.
const RUN: &[&str] = &[
    "--window",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--admission",
    "--shadow",
    "--hysteresis",
];

fn main() {
    let mut args = Args::from_env();
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut systems: Vec<System> = System::FIG5.to_vec();
    let mut benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
    let mut ratios = vec![Ratio {
        fast: 1,
        capacity: 8,
    }];
    let mut seeds: u32 = 1;
    let mut kind = CapacityKind::Nvm;
    let mut scale = Scale::DEFAULT;
    let mut accesses = access_budget();
    let mut driver = driver_config();
    let mut parse = || -> Result<(), CliError> {
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--jobs" => jobs = args.value::<NonZeroUsize>(&flag)?.get(),
                "--systems" => systems = args.list(&flag, cli::system)?,
                "--benches" => benches = args.list(&flag, cli::benchmark)?,
                "--ratios" => ratios = args.list(&flag, Ratio::parse)?,
                "--seeds" => seeds = args.value::<NonZeroU32>(&flag)?.get(),
                "--accesses" => accesses = args.value(&flag)?,
                "--cxl" => kind = CapacityKind::Cxl,
                "--test-scale" => scale = Scale::TEST,
                f if cli::run_flag(
                    &mut args,
                    f,
                    RUN,
                    &mut driver,
                    &mut SnapshotOpts::default(),
                )? => {}
                _ => return Err(CliError::unknown(&flag)),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        cli::exit_usage(&e, USAGE);
    }

    let cells = matrix(&systems, &benches, &ratios, kind, seeds);
    println!(
        "sweep: {} cells ({} systems x {} benches x {} ratios x {} seeds), {} jobs, {} accesses/cell",
        cells.len(),
        systems.len(),
        benches.len(),
        ratios.len(),
        seeds,
        jobs,
        accesses
    );
    if let Some(banner) = cli::modes_banner(&driver) {
        println!("{banner}");
    }
    let cfg = SweepConfig {
        jobs,
        scale,
        accesses,
        driver,
    };
    let result = run_sweep(&cells, &cfg);
    emit_sweep("sweep", &result);
}
