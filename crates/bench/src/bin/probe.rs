//! Diagnostic probe: run one (benchmark, ratio, system) cell and dump the
//! detailed report.
//!
//! ```text
//! probe [<benchmark>] [<ratio>] [<system>|all] [--test-scale]
//!       [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]
//!       [--report-out PATH] [--heartbeat EVENTS]
//!       [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH]
//!       [--faults SPEC] [--chunk N]
//!       [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!       [--hysteresis on|off|WINDOW:BASE:MAX]
//!       [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! ```
//!
//! `<benchmark>` is a full benchmark name in any case (`654.roms`, `silo`),
//! `<ratio>` one of `1:2`, `1:8`, `1:16`, `2:1`, and `<system>` a Fig. 5
//! system name. A missing positional takes its default (PageRank, 1:8,
//! all); an unknown one prints usage and exits 2.
//!
//! `--faults` takes a seeded fault plan, e.g.
//! `seed=7,abort=0.02,dirty=0.05,drop=0.05,outage=400000:50000`
//! (see `memtis_sim::faults::FaultPlan::parse`).
//!
//! With `--trace-out` and/or `--report-out`, the first selected system's
//! run is re-executed under a tracing observer; `--trace-out` writes the
//! event/window trace, `--report-out` a `memtis-report-v1` JSON document
//! (throughput, fault counters, flight-recorder percentiles, phase
//! self-profile) for `memtis diff`. `--heartbeat N` emits a one-line JSON
//! status to stderr every N workload events.
//!
//! Service mode: `--snapshot-out PATH --snapshot-every N` checkpoints the
//! full simulation state to PATH (atomically overwritten) every N workload
//! events; `--resume PATH` restores such a checkpoint into an identically
//! configured run and continues bit-exactly. Snapshot flags require a
//! single selected system.

use memtis_bench::{
    access_budget, driver_config_with_window, machine_for, parse_admission, parse_hysteresis,
    parse_shadow, run_baseline, run_cell_traced, run_system_with_driver, write_trace, CapacityKind,
    ModeOverrides, Ratio, System, TraceFormat, DEFAULT_WINDOW_EVENTS, SEED,
};
use memtis_workloads::{Benchmark, Scale};

fn probe_memtis(
    bench: Benchmark,
    ratio: Ratio,
    scale: Scale,
    driver: memtis_sim::prelude::DriverConfig,
) {
    use memtis_core::{MemtisConfig, MemtisPolicy};
    use memtis_sim::prelude::Simulation;
    use memtis_workloads::SpecStream;
    let machine = memtis_bench::machine_for(bench, scale, ratio, CapacityKind::Nvm);
    let mut wl = SpecStream::new(bench.spec(scale, memtis_bench::access_budget()), SEED);
    let mut sim = Simulation::new(
        machine,
        MemtisPolicy::new(MemtisConfig::sim_scaled()),
        driver,
    );
    let _ = sim.run(&mut wl).unwrap();
    let p = sim.policy();
    let st = &p.stats;
    println!(
        "  memtis internals: samples={} adapts={} coolings={} estimates={} \
         rhr={:.3} ehr={:.3} candidates={} requested={} splits={} collapses={} \
         thr={:?} base_thr={:?} period={}",
        st.samples,
        st.adaptations,
        st.coolings,
        st.estimates,
        st.last_rhr,
        st.last_ehr,
        st.split_candidates,
        st.split_requested,
        st.splits,
        st.collapses,
        (p.thresholds().hot, p.thresholds().warm, p.thresholds().cold),
        (
            p.base_thresholds().hot,
            p.base_thresholds().warm,
            p.base_thresholds().cold
        ),
        p.load_period(),
    );
    println!("  page hist: {:?}", p.histogram().bins());
    println!("  base hist: {:?}", p.base_histogram().bins());
}

fn usage() -> ! {
    eprintln!(
        "usage: probe [<benchmark>] [<ratio>] [<system>|all] [--test-scale] \
         [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS] \
         [--report-out PATH] [--heartbeat EVENTS] [--migration-bw BYTES_PER_NS] \
         [--migration-queue DEPTH] [--faults SPEC] [--chunk N] \
         [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] \
         [--hysteresis on|off|WINDOW:BASE:MAX] \
         [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]\n\
         benchmarks: {}; ratios: 1:2 1:8 1:16 2:1; systems: all {}",
        Benchmark::ALL.map(|b| b.name()).join(" "),
        System::FIG5.map(|s| s.name()).join(" "),
    );
    std::process::exit(2);
}

/// Resolves an optional positional: `None` keeps `default`, a value
/// `parse` rejects prints usage.
fn positional_or<T>(arg: Option<&String>, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
    match arg {
        None => default,
        Some(s) => parse(s).unwrap_or_else(|| {
            eprintln!("error: unknown argument {s:?}");
            usage()
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut window = DEFAULT_WINDOW_EVENTS;
    let mut scale = Scale::DEFAULT;
    let mut migration_bw: Option<f64> = None;
    let mut migration_queue: Option<usize> = None;
    let mut faults: Option<memtis_sim::faults::FaultPlan> = None;
    let mut chunk: Option<usize> = None;
    let mut report_out: Option<String> = None;
    let mut heartbeat: Option<u64> = None;
    let mut modes = ModeOverrides::default();
    let mut snap = memtis_bench::SnapshotOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                trace_out = args.get(i + 1).cloned();
                i += 2;
            }
            "--snapshot-out" => {
                snap.out = args.get(i + 1).cloned();
                i += 2;
            }
            "--snapshot-every" => {
                snap.every = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--resume" => {
                snap.resume = args.get(i + 1).cloned();
                i += 2;
            }
            "--report-out" => {
                report_out = args.get(i + 1).cloned();
                i += 2;
            }
            "--heartbeat" => {
                heartbeat = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--trace-format" => {
                trace_format = match args.get(i + 1).and_then(|s| TraceFormat::parse(s)) {
                    Some(f) => f,
                    None => {
                        eprintln!("error: --trace-format must be jsonl or perfetto");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--window" => {
                window = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(DEFAULT_WINDOW_EVENTS);
                i += 2;
            }
            "--test-scale" => {
                scale = Scale::TEST;
                i += 1;
            }
            "--migration-bw" => {
                migration_bw = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--migration-queue" => {
                migration_queue = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--chunk" => {
                chunk = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--admission" => {
                match args.get(i + 1).map(|s| parse_admission(s)) {
                    Some(Ok(a)) => modes.admission = Some(a),
                    Some(Err(e)) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --admission needs on|off|HORIZON[:WINDOW]");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--shadow" => {
                match args.get(i + 1).map(|s| parse_shadow(s)) {
                    Some(Ok(s)) => modes.shadow = Some(s),
                    Some(Err(e)) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --shadow needs on|off");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--hysteresis" => {
                match args.get(i + 1).map(|s| parse_hysteresis(s)) {
                    Some(Ok(h)) => modes.hysteresis = Some(h),
                    Some(Err(e)) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --hysteresis needs on|off|WINDOW:BASE:MAX");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--faults" => {
                match args
                    .get(i + 1)
                    .map(|s| memtis_sim::faults::FaultPlan::parse(s))
                {
                    Some(Ok(plan)) => faults = Some(plan),
                    Some(Err(e)) => {
                        eprintln!("error: bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --faults needs a spec");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    let bench = positional_or(
        positional.first(),
        Benchmark::PageRank,
        Benchmark::from_name,
    );
    let ratio = positional_or(
        positional.get(1),
        Ratio {
            fast: 1,
            capacity: 8,
        },
        |s| match s {
            "1:2" => Some(Ratio {
                fast: 1,
                capacity: 2,
            }),
            "1:8" => Some(Ratio {
                fast: 1,
                capacity: 8,
            }),
            "1:16" => Some(Ratio {
                fast: 1,
                capacity: 16,
            }),
            "2:1" => Some(Ratio::TWO_TO_ONE),
            _ => None,
        },
    );
    let systems: Vec<System> = positional_or(positional.get(2), System::FIG5.to_vec(), |name| {
        if name == "all" {
            return Some(System::FIG5.to_vec());
        }
        System::FIG5
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .map(|s| vec![s])
    });
    if positional.len() > 3 {
        eprintln!("error: unexpected argument {:?}", positional[3]);
        usage();
    }
    let mut driver = memtis_bench::driver_config();
    driver.migration_bw = migration_bw;
    driver.migration_queue = migration_queue;
    driver.faults = faults;
    if let Some(c) = chunk {
        driver.chunk = c;
    }
    driver.heartbeat_events = heartbeat;
    modes.apply(&mut driver);
    if let Err(e) = snap.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if snap.is_active() && systems.len() != 1 {
        eprintln!("error: snapshot flags need a single selected system (not `all`)");
        std::process::exit(2);
    }
    let base = run_baseline(bench, scale, CapacityKind::Nvm);
    println!(
        "baseline all-NVM: wall={:.2}ms thpt={:.1}M/s llc_miss={:.3}",
        base.wall_ns / 1e6,
        base.throughput() / 1e6,
        base.llc.miss_ratio()
    );
    for &sys in &systems {
        let r = if snap.is_active() {
            let machine = machine_for(bench, scale, ratio, CapacityKind::Nvm);
            match memtis_bench::run_cell_snapshotted(
                bench,
                scale,
                machine,
                sys.build(),
                driver.clone(),
                access_budget(),
                SEED,
                &snap,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: snapshotted run failed: {e:?}");
                    std::process::exit(1);
                }
            }
        } else {
            run_system_with_driver(bench, scale, ratio, CapacityKind::Nvm, sys, driver.clone())
        };
        println!(
            "{:<12} norm={:.3} wall={:.2}ms app_extra={:.2}ms daemon={:.2}ms dcores={:.2} \
             fastHR={:.3} promo4k={} demo4k={} splits={} shootdowns={} hintfaults={} rss={}MB \
             tlb_miss={:.4} llc_miss={:.3} avg_lat={:.1}ns",
            sys.name(),
            base.wall_ns / r.wall_ns,
            r.wall_ns / 1e6,
            r.app_extra_ns / 1e6,
            r.daemon_ns / 1e6,
            r.daemon_core_usage(),
            r.stats.fast_tier_hit_ratio(),
            r.stats.migration.promoted_4k,
            r.stats.migration.demoted_4k,
            r.stats.migration.splits,
            r.stats.shootdowns,
            r.stats.hint_faults,
            r.rss_final_bytes >> 20,
            r.tlb.miss_ratio(),
            r.llc.miss_ratio(),
            r.app_access_ns / r.accesses as f64,
        );
        if faults.is_some() {
            println!(
                "  faults: {:?} hist_underflows={}",
                r.faults, r.hist_underflows
            );
        }
        if sys == System::Memtis {
            probe_memtis(bench, ratio, scale, driver.clone());
        }
    }

    if trace_out.is_some() || report_out.is_some() {
        let sys = systems.first().copied().unwrap_or(System::Memtis);
        let machine = machine_for(bench, scale, ratio, CapacityKind::Nvm);
        let mut traced_driver = driver_config_with_window(window);
        traced_driver.migration_bw = migration_bw;
        traced_driver.migration_queue = migration_queue;
        traced_driver.faults = faults;
        if let Some(c) = chunk {
            traced_driver.chunk = c;
        }
        traced_driver.heartbeat_events = heartbeat;
        modes.apply(&mut traced_driver);
        let (report, obs) = run_cell_traced(
            bench,
            scale,
            machine,
            sys.build(),
            traced_driver,
            access_budget(),
            SEED,
        );
        if let Some(path) = trace_out {
            write_trace(&path, trace_format, &obs, &report.windows);
        }
        if let Some(path) = report_out {
            let profile = obs.profiler.as_ref().map(|p| p.stats());
            let body = memtis_bench::report_to_json(&report, profile.as_deref());
            match std::fs::write(&path, body) {
                Ok(()) => println!("[report written to {path}]"),
                Err(e) => eprintln!("warning: could not write report {path}: {e}"),
            }
        }
    }
}
