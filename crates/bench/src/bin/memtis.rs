//! `memtis` — ad-hoc experiment CLI.
//!
//! ```text
//! memtis run  <benchmark> [--ratio 1:8] [--policy memtis] [--cxl] [--accesses N]
//!             [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]
//!             [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC]
//!             [--chunk N]
//!             [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!             [--hysteresis on|off|WINDOW:BASE:MAX]
//!             [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! memtis compare <benchmark> [--ratio 1:8] [--cxl] [--accesses N]
//!             [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC]
//!             [--chunk N]
//! memtis record <benchmark> --out PATH [--accesses N]
//! memtis replay <benchmark> <trace> [--policy memtis] [--ratio 1:8] [--cxl]
//!             [--in-memory] [--chunk-bytes N]
//! memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]
//! memtis list
//! ```
//!
//! `run` executes one cell and prints the detailed report; `compare` runs
//! every system on one benchmark; `diff` compares two run-report (or
//! `BENCH_*.json`) documents with relative-tolerance bands and exits
//! nonzero on regression; `list` shows benchmarks and policies. A
//! malformed, misplaced or unknown argument exits 2.
//!
//! Service mode: `--snapshot-out PATH --snapshot-every N` checkpoints the
//! full simulation state (machine, policy, driver cursors, trace observer)
//! to PATH every N workload events; `--resume PATH` restores a checkpoint
//! into an identically configured invocation and continues bit-exactly.
//!
//! Trace ingestion: `record` streams a benchmark's workload events to a
//! versioned binary trace file with bounded memory; `replay` drives a
//! simulation from such a file through the chunked [`TraceFileReader`]
//! (default), or whole-trace in-memory with `--in-memory` — both produce
//! the identical deterministic report line, so the two modes can be
//! byte-compared. `--chunk-bytes N` sets the streamed reader's buffer.
//!
//! [`TraceFileReader`]: memtis_workloads::TraceFileReader

use memtis_bench::cli::{self, Args, CliError};
use memtis_bench::{
    access_budget, driver_config, machine_for, normalized, run_baseline, run_cell, run_snapshotted,
    write_trace, CapacityKind, Ratio, SnapshotOpts, System, Table, TraceFormat, SEED,
};
use memtis_sim::obs::TracingObserver;
use memtis_sim::prelude::{DriverConfig, Simulation};
use memtis_workloads::{Benchmark, Scale, SpecStream};

const USAGE: &str =
    "usage:\n  memtis run <benchmark> [--ratio F:C] [--policy NAME] [--cxl] [--accesses N]\n    \
     [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]\n    \
     [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC] [--chunk N]\n    \
     [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] [--hysteresis on|off|W:B:M]\n    \
     [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]\n  \
     memtis compare <benchmark> [--ratio F:C] [--cxl] [--accesses N]\n    \
     [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC] [--chunk N]\n  \
     memtis record <benchmark> --out PATH [--accesses N]\n  \
     memtis replay <benchmark> <trace> [--policy NAME] [--ratio F:C] [--cxl]\n    \
     [--in-memory] [--chunk-bytes N]\n  \
     memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]\n  \
     memtis list";

/// The flags each cell subcommand takes: its own, then the shared run
/// flags ([`cli::run_flag`]).
fn flags(cmd: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match cmd {
        "run" => (
            &[
                "--ratio",
                "--policy",
                "--cxl",
                "--accesses",
                "--trace-out",
                "--trace-format",
            ],
            &[
                "--window",
                "--migration-bw",
                "--migration-queue",
                "--faults",
                "--chunk",
                "--admission",
                "--shadow",
                "--hysteresis",
                "--snapshot-out",
                "--snapshot-every",
                "--resume",
            ],
        ),
        "compare" => (
            &["--ratio", "--cxl", "--accesses"],
            &["--migration-bw", "--migration-queue", "--faults", "--chunk"],
        ),
        "record" => (&["--out", "--accesses"], &[]),
        "replay" => (
            &[
                "--policy",
                "--ratio",
                "--cxl",
                "--in-memory",
                "--chunk-bytes",
            ],
            &[],
        ),
        _ => (&[], &[]),
    }
}

/// One `run` / `compare` / `record` / `replay` invocation.
struct Opts {
    bench: Benchmark,
    ratio: Ratio,
    kind: CapacityKind,
    policy: System,
    accesses: u64,
    /// The trace file: `record --out PATH`, or `replay`'s `<trace>`.
    trace: Option<String>,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    in_memory: bool,
    chunk_bytes: Option<usize>,
    driver: DriverConfig,
    snap: SnapshotOpts,
}

fn parse(cmd: &str, mut args: Args) -> Result<Opts, CliError> {
    let mut o = Opts {
        bench: args.value_with("<benchmark>", cli::benchmark)?,
        ratio: Ratio {
            fast: 1,
            capacity: 8,
        },
        kind: CapacityKind::Nvm,
        policy: System::Memtis,
        accesses: access_budget(),
        trace: None,
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
        in_memory: false,
        chunk_bytes: None,
        driver: driver_config(),
        snap: SnapshotOpts::default(),
    };
    if cmd == "replay" {
        o.trace = Some(args.value("<trace>")?);
    }
    let (own, run) = flags(cmd);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            f if cli::run_flag(&mut args, f, run, &mut o.driver, &mut o.snap)? => {}
            f if !own.contains(&f) => return Err(CliError::unknown(f)),
            "--ratio" => o.ratio = args.value_with(&flag, Ratio::parse)?,
            "--policy" => o.policy = args.value_with(&flag, cli::system)?,
            "--cxl" => o.kind = CapacityKind::Cxl,
            "--accesses" => o.accesses = args.value(&flag)?,
            "--trace-out" => o.trace_out = Some(args.value(&flag)?),
            "--trace-format" => o.trace_format = args.value_with(&flag, TraceFormat::parse)?,
            "--out" => o.trace = Some(args.value(&flag)?),
            "--in-memory" => o.in_memory = true,
            "--chunk-bytes" => o.chunk_bytes = Some(args.value(&flag)?),
            f => return Err(CliError::unknown(f)),
        }
    }
    if cmd == "record" && o.trace.is_none() {
        return Err(CliError::new("--out", "record needs --out PATH"));
    }
    o.snap.validate()?;
    Ok(o)
}

/// Exits 1 with `what` and the error.
fn fail(what: &str, e: &dyn std::fmt::Debug) -> ! {
    eprintln!("error: {what}: {e:?}");
    std::process::exit(1);
}

/// Streams a benchmark's workload events to a binary trace file with
/// bounded memory ([`memtis_workloads::TraceFileWriter`]).
fn run_record(o: Opts) {
    use memtis_sim::prelude::AccessStream;
    use memtis_workloads::TraceFileWriter;
    let path = o.trace.expect("parse requires --out");
    let mut writer = TraceFileWriter::create(&path)
        .unwrap_or_else(|e| fail(&format!("cannot create {path}"), &e));
    let mut stream = SpecStream::new(o.bench.spec(Scale::DEFAULT, o.accesses), SEED);
    while let Some(ev) = stream.next_event() {
        if let Err(e) = writer.record(&ev) {
            fail(&format!("write to {path} failed"), &e);
        }
    }
    let events = writer.events();
    if let Err(e) = writer.finish() {
        fail(&format!("flushing {path} failed"), &e);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("recorded {events} events ({bytes} bytes) to {path}");
}

/// Drives a simulation from a recorded trace file — streamed through the
/// bounded-buffer reader by default, whole-trace in-memory with
/// `--in-memory`. Prints only sim-deterministic quantities so the two
/// modes are byte-comparable.
fn run_replay(o: Opts) {
    use memtis_workloads::{Bytes, TraceFileReader, TraceReplay};
    let path = o.trace.expect("parse requires <trace>");
    let machine = machine_for(o.bench, Scale::DEFAULT, o.ratio, o.kind);
    let mut sim = Simulation::new(machine, o.policy.build(), o.driver);
    let r = if o.in_memory {
        let data = std::fs::read(&path).unwrap_or_else(|e| fail("cannot read trace", &e));
        let mut replay = TraceReplay::new(Bytes::from(data), "replay")
            .unwrap_or_else(|e| fail("invalid trace", &e));
        let r = sim.run(&mut replay).unwrap_or_else(|e| fail("run", &e));
        if let Some(e) = replay.take_error() {
            fail("trace decode", &e);
        }
        r
    } else {
        let open = match o.chunk_bytes {
            Some(n) => TraceFileReader::with_chunk_bytes(&path, "replay", n),
            None => TraceFileReader::open(&path, "replay"),
        };
        let mut reader = open.unwrap_or_else(|e| fail("cannot open trace", &e));
        let r = sim.run(&mut reader).unwrap_or_else(|e| fail("run", &e));
        if let Some(e) = reader.take_error() {
            fail("trace decode", &e);
        }
        r
    };
    println!(
        "{} replay of {path}: wall={:.2}ms accesses={} events={} fastHR={:.4} \
         promo4k={} demo4k={} splits={} rss={}MB tlb_miss={:.4} llc_miss={:.4}",
        o.policy.name(),
        r.wall_ns / 1e6,
        r.accesses,
        r.sim_events,
        r.stats.fast_tier_hit_ratio(),
        r.stats.migration.promoted_4k,
        r.stats.migration.demoted_4k,
        r.stats.migration.splits,
        r.rss_final_bytes >> 20,
        r.tlb.miss_ratio(),
        r.llc.miss_ratio(),
    );
}

fn run_diff(args: Args) -> ! {
    use memtis_bench::{diff_reports, parse_diff_args, render_diff};
    use memtis_sim::obs::json::Json;
    let (old_path, new_path, opts) =
        parse_diff_args(args).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    let load = |path: &str| -> Json {
        let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&body).unwrap_or_else(|e| {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let d = diff_reports(&load(&old_path), &load(&new_path), &opts);
    print!("{}", render_diff(&d));
    if d.has_breach() {
        eprintln!("diff: regression detected ({old_path} -> {new_path})");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Executes one cell and prints the detailed report.
fn run_one(o: Opts) {
    let base = run_baseline(o.bench, Scale::DEFAULT, o.kind, o.accesses);
    let machine = machine_for(o.bench, Scale::DEFAULT, o.ratio, o.kind);
    let mut wl = SpecStream::new(o.bench.spec(Scale::DEFAULT, o.accesses), SEED);
    let driver = o.driver.clone();
    let r = match &o.trace_out {
        Some(path) => {
            let obs = TracingObserver::new();
            let mut sim = Simulation::with_observer(machine, o.policy.build(), driver, obs);
            let r = cli::run_or_exit(run_snapshotted(&mut sim, &mut wl, &o.snap));
            write_trace(path, o.trace_format, sim.observer(), &r.windows);
            r
        }
        None => {
            let mut sim = Simulation::new(machine, o.policy.build(), driver);
            cli::run_or_exit(run_snapshotted(&mut sim, &mut wl, &o.snap))
        }
    };
    let kind = match o.kind {
        CapacityKind::Cxl => "CXL",
        CapacityKind::Nvm => "NVM",
    };
    println!(
        "{} on {} at {} ({kind}):",
        o.policy.name(),
        o.bench.name(),
        o.ratio.label(),
    );
    println!(
        "  normalized perf   : {:.3} (vs all-{kind} w/ THP)",
        normalized(&base, &r),
    );
    println!("  wall time         : {:.2} ms", r.wall_ns / 1e6);
    println!("  throughput        : {:.1} M acc/s", r.throughput() / 1e6);
    println!(
        "  sim self-thpt     : {:.2} M events/s (host)",
        r.self_events_per_sec() / 1e6
    );
    println!(
        "  fast-tier hits    : {:.1}%",
        r.stats.fast_tier_hit_ratio() * 100.0
    );
    println!(
        "  migration traffic : {} 4K pages",
        r.stats.migration.traffic_4k()
    );
    println!("  huge-page splits  : {}", r.stats.migration.splits);
    println!(
        "  RSS (peak/final)  : {} / {} MB",
        r.rss_peak_bytes >> 20,
        r.rss_final_bytes >> 20
    );
    println!("  daemon CPU        : {:.2} cores", r.daemon_core_usage());
    println!("  app-path overhead : {:.2} ms", r.app_extra_ns / 1e6);
    if o.driver.faults.is_some() {
        println!(
            "  faults injected   : {} ({:?})",
            r.faults.total(),
            r.faults
        );
        println!("  hist underflows   : {}", r.hist_underflows);
    }
    let thpt: Vec<f64> = r.timeline.iter().map(|s| s.window_throughput).collect();
    let fhr: Vec<f64> = r.timeline.iter().map(|s| s.window_fast_hit_ratio).collect();
    if !thpt.is_empty() {
        println!(
            "  throughput  (t →) : {}",
            memtis_bench::sparkline(&thpt, 48)
        );
        println!(
            "  fast-hit %  (t →) : {}",
            memtis_bench::sparkline(&fhr, 48)
        );
    }
}

/// Runs every Fig. 5 system on one benchmark, best first.
fn run_compare(o: Opts) {
    let base = run_baseline(o.bench, Scale::DEFAULT, o.kind, o.accesses);
    let mut t = Table::new(vec![
        "policy",
        "normalized",
        "fast-hit %",
        "traffic 4K",
        "splits",
    ]);
    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    for sys in System::FIG5 {
        let machine = machine_for(o.bench, Scale::DEFAULT, o.ratio, o.kind);
        let r = run_cell(
            o.bench,
            Scale::DEFAULT,
            machine,
            sys.build(),
            o.driver.clone(),
            o.accesses,
        );
        let n = normalized(&base, &r);
        rows.push((
            n,
            vec![
                sys.name().to_string(),
                format!("{n:.3}"),
                format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
                r.stats.migration.traffic_4k().to_string(),
                r.stats.migration.splits.to_string(),
            ],
        ));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, row) in rows {
        t.row(row);
    }
    println!("{} at {}:\n{}", o.bench.name(), o.ratio.label(), t.render());
}

fn main() {
    let mut args = Args::from_env();
    let cmd = args.next().unwrap_or_default();
    let cell = |args| parse(&cmd, args).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    match cmd.as_str() {
        "list" => {
            if let Some(extra) = args.next() {
                cli::exit_usage(&CliError::unknown(&extra), USAGE);
            }
            println!("benchmarks:");
            for b in Benchmark::ALL {
                println!("  {:<12} {}", b.name(), b.description());
            }
            println!("\npolicies:");
            for s in System::ALL {
                println!("  {}", s.name());
            }
        }
        "run" => run_one(cell(args)),
        "compare" => run_compare(cell(args)),
        "record" => run_record(cell(args)),
        "replay" => run_replay(cell(args)),
        "diff" => run_diff(args),
        "" => cli::exit_usage(&CliError::new("<command>", "missing"), USAGE),
        _ => cli::exit_usage(&CliError::unknown(&cmd), USAGE),
    }
}
