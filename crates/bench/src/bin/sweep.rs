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
//! benchmarks at 1:8, one seed, `--jobs` = available cores.

use memtis_bench::sweep::{emit_sweep, matrix, run_sweep, SweepConfig};
use memtis_bench::{
    access_budget, parse_admission, parse_hysteresis, parse_shadow, CapacityKind, ModeOverrides,
    Ratio, System, DEFAULT_WINDOW_EVENTS,
};
use memtis_sim::prelude::DEFAULT_CHUNK;
use memtis_workloads::{Benchmark, Scale};

fn parse_ratio(s: &str) -> Option<Ratio> {
    let (f, c) = s.split_once(':')?;
    Some(Ratio {
        fast: f.parse().ok()?,
        capacity: c.parse().ok()?,
    })
}

fn find_system(name: &str) -> Option<System> {
    [
        System::AutoNuma,
        System::AutoTiering,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
        System::MemtisNs,
        System::MemtisVanilla,
        System::MultiClock,
        System::Tmts,
        System::AllNvm,
        System::AllDram,
    ]
    .into_iter()
    .find(|s| s.name().eq_ignore_ascii_case(name))
}

fn parse_list<T>(arg: &str, what: &str, f: impl Fn(&str) -> Option<T>) -> Vec<T> {
    arg.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| match f(s.trim()) {
            Some(v) => v,
            None => {
                eprintln!("error: unknown {what} {s:?}");
                std::process::exit(2);
            }
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--jobs N] [--systems a,b,..] [--benches x,y,..] \
         [--ratios F:C,..] [--seeds K] [--accesses N] [--window EVENTS] \
         [--cxl] [--test-scale] [--migration-bw BYTES_PER_NS] \
         [--migration-queue DEPTH] [--faults SPEC] [--chunk N] \
         [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] \
         [--hysteresis on|off|WINDOW:BASE:MAX]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

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
    let mut window_events = DEFAULT_WINDOW_EVENTS;
    let mut migration_bw: Option<f64> = None;
    let mut migration_queue: Option<usize> = None;
    let mut faults: Option<memtis_sim::faults::FaultPlan> = None;
    let mut chunk = DEFAULT_CHUNK;
    let mut modes = ModeOverrides::default();

    let mut i = 0;
    while i < args.len() {
        let value = |j: usize| -> &str {
            match args.get(j) {
                Some(v) => v,
                None => usage(),
            }
        };
        match args[i].as_str() {
            "--jobs" => {
                jobs = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--systems" => {
                systems = parse_list(value(i + 1), "system", find_system);
                i += 2;
            }
            "--benches" => {
                benches = parse_list(value(i + 1), "benchmark", Benchmark::from_name);
                i += 2;
            }
            "--ratios" => {
                ratios = parse_list(value(i + 1), "ratio", parse_ratio);
                i += 2;
            }
            "--seeds" => {
                seeds = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--accesses" => {
                accesses = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--window" => {
                window_events = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--migration-bw" => {
                migration_bw = Some(value(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--migration-queue" => {
                migration_queue = Some(value(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--faults" => {
                match memtis_sim::faults::FaultPlan::parse(value(i + 1)) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("error: bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--chunk" => {
                chunk = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--admission" => {
                modes.admission = Some(parse_admission(value(i + 1)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--shadow" => {
                modes.shadow = Some(parse_shadow(value(i + 1)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--hysteresis" => {
                modes.hysteresis = Some(parse_hysteresis(value(i + 1)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--cxl" => {
                kind = CapacityKind::Cxl;
                i += 1;
            }
            "--test-scale" => {
                scale = Scale::TEST;
                i += 1;
            }
            _ => usage(),
        }
    }

    let cells = matrix(&systems, &benches, &ratios, kind, seeds.max(1));
    if cells.is_empty() {
        eprintln!("error: empty sweep matrix");
        std::process::exit(2);
    }
    println!(
        "sweep: {} cells ({} systems x {} benches x {} ratios x {} seeds), {} jobs, {} accesses/cell",
        cells.len(),
        systems.len(),
        benches.len(),
        ratios.len(),
        seeds.max(1),
        jobs,
        accesses
    );
    if modes.any() {
        println!(
            "engine modes: admission={:?} shadow={:?} hysteresis={:?}",
            modes.admission, modes.shadow, modes.hysteresis
        );
    }
    let cfg = SweepConfig {
        jobs,
        scale,
        accesses,
        window_events,
        migration_bw,
        migration_queue,
        faults,
        chunk,
        modes,
    };
    let result = run_sweep(&cells, &cfg);
    emit_sweep("sweep", &result);
}
