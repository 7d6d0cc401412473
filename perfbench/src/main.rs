//! Host benchmark of the MEMTIS simulator: four serial workloads, each run
//! in one process on one thread through the public `memtis-bench`,
//! `memtis-sim` and `memtis-workloads` API.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--rev REV] [--rustc VERSION] [--source-hash HASH]
//! perfbench --list
//! ```
//!
//! `--trace 0` repeats untraced runs for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` alternates untraced and wrapped runs and
//! prints the per-layer metrics. Either way the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/NOTES.md` for the workloads, metrics and known defects.

mod layers;
mod metrics;
mod run;

use std::path::{Path, PathBuf};

use memtis_baselines::{TppConfig, TppPolicy};
use memtis_bench::{Ratio, SEED};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale, SpecStream, TraceFileWriter};

use metrics::{traced, untraced};
use run::{Ctx, PolicyProbe};

/// Fast:capacity ratio of every workload.
const RATIO: Ratio = Ratio {
    fast: 1,
    capacity: 8,
};

/// Workload scale of every workload.
const SCALE: Scale = Scale::DEFAULT;

/// Checkpoint interval of the service workload, in workload events.
const CHECKPOINT_EVERY: u64 = 1_000_000;

/// Accesses replayed through the isolated TLB and LLC.
const UNIT_COST_ACCESSES: usize = 1 << 20;

/// Measured untraced repetitions per run, at least.
const MIN_REPS: usize = 8;

/// One benchmark workload: a benchmark under a policy, with the `DriverConfig`
/// settings that decide which layers do work.
struct Workload {
    name: &'static str,
    /// Exact `Benchmark::name()` of the generator.
    bench: &'static str,
    /// Exact `PolicyDescriptor::name` of the policy.
    policy: &'static str,
    /// Accesses per repetition.
    accesses: u64,
    /// Migration-link cap in bytes/ns; `None` keeps instantaneous migration.
    migration_bw: Option<f64>,
    /// Replay from a recorded trace file under a `TracingObserver`, with
    /// checkpoints and one restore per process.
    service: bool,
}

const WORKLOADS: [Workload; 4] = [
    // Batched, coalesced fast path on huge pages: the stream generator and
    // PEBS delivery dominate; engine, hint faults, obs and snap sit idle.
    Workload {
        name: "roms_memtis",
        bench: "654.roms",
        policy: "MEMTIS",
        accesses: 6_000_000,
        migration_bw: None,
        service: false,
    },
    // Long-running service: trace decode instead of generation, telemetry,
    // checkpoints and a restore; splits huge pages.
    Workload {
        name: "silo_memtis_service",
        bench: "Silo",
        policy: "MEMTIS",
        accesses: 6_000_000,
        migration_bw: None,
        service: true,
    },
    // TPP is not batch-safe: the per-event loop with hint faults,
    // shootdowns and migration; PEBS and the histogram sit idle.
    Workload {
        name: "btree_tpp",
        bench: "Btree",
        policy: "TPP",
        accesses: 3_000_000,
        migration_bw: None,
        service: false,
    },
    // A capped migration link engages the asynchronous engine, which
    // forces the full per-access path.
    Workload {
        name: "btree_memtis_bwcap",
        bench: "Btree",
        policy: "MEMTIS",
        accesses: 3_000_000,
        migration_bw: Some(64.0),
        service: false,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    rustc: String,
    source_hash: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, SEED, 10.0, false);
    let unknown = || "unknown".to_string();
    let (mut rev, mut rustc, mut source_hash) = (unknown(), unknown(), unknown());
    while let Some(flag) = it.next() {
        if flag == "--list" {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            std::process::exit(0);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| format!("bad {what} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (want one of {names:?})")
                })?;
                workload = Some(w);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => seconds = num("seconds")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                }
            }
            "--rev" => rev = value,
            "--rustc" => rustc = value,
            "--source-hash" => source_hash = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rev,
        rustc,
        source_hash,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let result = match w.policy {
        "MEMTIS" => bench(&args, || MemtisPolicy::new(MemtisConfig::sim_scaled())),
        "TPP" => bench(&args, || TppPolicy::new(TppConfig::default())),
        other => Err(format!("unknown policy {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Resolves the workload, runs it and prints the result.
fn bench<P, F>(args: &Args, make_policy: F) -> Result<(), String>
where
    P: TieringPolicy + PolicyProbe,
    F: Fn() -> P,
{
    let w = args.workload;
    let bench = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == w.bench)
        .ok_or_else(|| format!("unknown benchmark {:?}", w.bench))?;
    let descriptor = make_policy().descriptor().name;
    if descriptor != w.policy {
        return Err(format!(
            "policy resolved to {descriptor:?}, want {:?}",
            w.policy
        ));
    }
    let trace = if w.service {
        let dir = PathBuf::from(".perfbench_tmp");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let trace = TempTrace(dir.join(format!("{}-{}.trace", w.name, std::process::id())));
        record_trace(&trace.0, bench, w.accesses, args.seed)?;
        Some(trace)
    } else {
        None
    };
    let ctx = Ctx {
        w,
        bench,
        seed: args.seed,
        trace_path: trace.as_ref().map(|t| t.0.clone()),
        clock_overhead: layers::clock_overhead_ns(),
    };
    let (fingerprint, desc) = ctx.fingerprint();
    println!(
        "perfbench provenance: rev={} rustc=\"{}\" source_hash={} nproc={} seed={} \
         config_fingerprint={fingerprint:016x}",
        args.rev,
        args.rustc,
        args.source_hash,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
    );
    println!("perfbench config: {desc}");
    let result = if args.trace {
        traced(args, &ctx, &make_policy)
    } else {
        untraced(args, &ctx, &make_policy)
    };
    let (outcome, metrics, resolved) = result;
    if let Some(r) = &resolved {
        println!(
            "perfbench resolved: workload={} -> {:?}, policy={:?}",
            w.name, r.workload, r.policy
        );
    }
    let mut json = String::new();
    for (name, (value, unit)) in &metrics {
        println!("{name} = {value} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
    );
    Ok(())
}

/// A recorded trace file, deleted (with its directory, once empty) when
/// dropped.
struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Records the service workload's generated stream to `path`.
fn record_trace(path: &Path, bench: Benchmark, accesses: u64, seed: u64) -> Result<(), String> {
    let err = |e: memtis_workloads::TraceError| format!("cannot record trace: {e}");
    let mut writer = TraceFileWriter::create(path).map_err(err)?;
    let mut stream = SpecStream::new(bench.spec(SCALE, accesses), seed);
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); DEFAULT_CHUNK];
    loop {
        let n = stream.fill(&mut buf);
        if n == 0 {
            break;
        }
        for ev in &buf[..n] {
            writer.record(ev).map_err(err)?;
        }
    }
    writer.finish().map_err(err)?;
    Ok(())
}
