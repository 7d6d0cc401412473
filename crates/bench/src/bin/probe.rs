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
//! `<ratio>` a tiering ratio `F:C` (e.g. `1:8`, `2:1`), and `<system>` a
//! system name from `memtis list` in any case. A missing positional takes
//! its default (PageRank, 1:8, all Fig. 5 systems); an unknown or malformed
//! argument prints usage and exits 2.
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

use memtis_bench::cli::{self, Args, CliError};
use memtis_bench::{
    access_budget, driver_config, machine_for, run_baseline, run_cell_traced, run_snapshotted,
    write_trace, CapacityKind, Ratio, SnapshotOpts, System, TraceFormat, SEED,
};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::Simulation;
use memtis_workloads::{Benchmark, Scale, SpecStream};

const USAGE: &str = "usage: probe [<benchmark>] [<ratio>] [<system>|all] [--test-scale] \
     [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS] \
     [--report-out PATH] [--heartbeat EVENTS] [--migration-bw BYTES_PER_NS] \
     [--migration-queue DEPTH] [--faults SPEC] [--chunk N] \
     [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] \
     [--hysteresis on|off|WINDOW:BASE:MAX] \
     [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]";

/// MEMTIS's internal counters, thresholds and histograms after a run.
fn memtis_internals(p: &MemtisPolicy) -> String {
    let st = &p.stats;
    format!(
        "  memtis internals: samples={} adapts={} coolings={} estimates={} \
         rhr={:.3} ehr={:.3} candidates={} requested={} splits={} collapses={} \
         thr={:?} base_thr={:?} period={}\n  page hist: {:?}\n  base hist: {:?}",
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
        p.histogram().bins(),
        p.base_histogram().bins(),
    )
}

struct Opts {
    bench: Benchmark,
    ratio: Ratio,
    systems: Vec<System>,
    scale: Scale,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    report_out: Option<String>,
    driver: memtis_sim::prelude::DriverConfig,
    snap: SnapshotOpts,
}

fn parse(mut args: Args) -> Result<Opts, CliError> {
    let mut o = Opts {
        bench: Benchmark::PageRank,
        ratio: Ratio {
            fast: 1,
            capacity: 8,
        },
        systems: System::FIG5.to_vec(),
        scale: Scale::DEFAULT,
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
        report_out: None,
        driver: driver_config(),
        snap: SnapshotOpts::default(),
    };
    let mut positional = 0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test-scale" => o.scale = Scale::TEST,
            "--trace-out" => o.trace_out = Some(args.value(&arg)?),
            "--trace-format" => o.trace_format = args.value_with(&arg, TraceFormat::parse)?,
            "--report-out" => o.report_out = Some(args.value(&arg)?),
            f if cli::run_flag(&mut args, f, &cli::RUN_FLAGS, &mut o.driver, &mut o.snap)? => {}
            f if f.starts_with("--") => return Err(CliError::unknown(f)),
            value => {
                let slot = ["<benchmark>", "<ratio>", "<system>"].get(positional);
                let Some(&slot) = slot else {
                    return Err(CliError::new(value, "unexpected argument"));
                };
                let bad = |e| CliError::new(slot, e);
                match positional {
                    0 => o.bench = cli::benchmark(value).map_err(bad)?,
                    1 => o.ratio = Ratio::parse(value).map_err(bad)?,
                    _ if value == "all" => {}
                    _ => o.systems = vec![cli::system(value).map_err(bad)?],
                }
                positional += 1;
            }
        }
    }
    o.snap.validate()?;
    if o.snap.is_active() && o.systems.len() != 1 {
        return Err(CliError::new(
            "<system>",
            "snapshot flags need a single selected system (not `all`)",
        ));
    }
    Ok(o)
}

fn main() {
    let o = parse(Args::from_env()).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    let accesses = access_budget().unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    let (bench, scale) = (o.bench, o.scale);
    let base = run_baseline(bench, scale, CapacityKind::Nvm, accesses);
    println!(
        "baseline all-NVM: wall={:.2}ms thpt={:.1}M/s llc_miss={:.3}",
        base.wall_ns / 1e6,
        base.throughput() / 1e6,
        base.llc.miss_ratio()
    );
    for &sys in &o.systems {
        let machine = machine_for(bench, scale, o.ratio, CapacityKind::Nvm);
        let mut wl = SpecStream::new(bench.spec(scale, accesses), SEED);
        let driver = o.driver.clone();
        // MEMTIS runs as the concrete policy so its internals print from
        // this same run.
        let (r, internals) = if sys == System::Memtis {
            let policy = MemtisPolicy::new(MemtisConfig::sim_scaled());
            let mut sim = Simulation::new(machine, policy, driver);
            let r = cli::run_or_exit(run_snapshotted(&mut sim, &mut wl, &o.snap));
            (r, Some(memtis_internals(sim.policy())))
        } else {
            let mut sim = Simulation::new(machine, sys.build(), driver);
            (
                cli::run_or_exit(run_snapshotted(&mut sim, &mut wl, &o.snap)),
                None,
            )
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
        if o.driver.faults.is_some() {
            println!(
                "  faults: {:?} hist_underflows={}",
                r.faults, r.hist_underflows
            );
        }
        if let Some(internals) = internals {
            println!("{internals}");
        }
    }

    if o.trace_out.is_some() || o.report_out.is_some() {
        let sys = o.systems[0];
        let machine = machine_for(bench, scale, o.ratio, CapacityKind::Nvm);
        let (report, obs) = run_cell_traced(
            bench,
            scale,
            machine,
            sys.build(),
            o.driver.clone(),
            accesses,
            SEED,
        );
        if let Some(path) = &o.trace_out {
            write_trace(path, o.trace_format, &obs, &report.windows);
        }
        if let Some(path) = &o.report_out {
            let profile = obs.profiler.as_ref().map(|p| p.stats());
            let body = memtis_bench::report_to_json(&report, profile.as_deref());
            match std::fs::write(path, body) {
                Ok(()) => println!("[report written to {path}]"),
                Err(e) => eprintln!("warning: could not write report {path}: {e}"),
            }
        }
    }
}
