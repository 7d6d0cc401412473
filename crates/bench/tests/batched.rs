//! Property test: the chunked driver pipeline is byte-identical to the
//! legacy per-event loop over random benchmark cells.
//!
//! Each case picks a workload, system, chunk size, window length, and
//! optionally a fault plan and a migration bandwidth cap, then runs the
//! same cell twice — once at `chunk = 1` (the per-event oracle) and once
//! at the sampled chunk size — under a tracing observer. The `RunReport`
//! (with host wall-clock zeroed) and the full exported JSONL event/window
//! trace must render byte-for-byte identically. A deterministic grid does
//! the same for MEMTIS on a bandwidth-capped link, whose bursts stop at the
//! migration engine's next due time.

use memtis_bench::{machine_for, run_cell_traced, CapacityKind, Ratio, System, SEED};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::obs::export_jsonl;
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale};
use proptest::prelude::*;

const BENCHES: [Benchmark; 4] = [
    Benchmark::Roms,
    Benchmark::Btree,
    Benchmark::Silo,
    Benchmark::XsBench,
];
// Memtis exercises the deferred batch-safe path; TPP and HeMem run their
// samples inline through the chunked-but-per-event dispatch.
const SYSTEMS: [System; 3] = [System::Memtis, System::Tpp, System::Hemem];
const CHUNKS: [usize; 4] = [2, 7, 64, DEFAULT_CHUNK];

/// Render a report for comparison, ignoring only host wall-clock.
fn signature(mut report: RunReport) -> String {
    report.host_elapsed_ns = 0;
    format!("{report:?}")
}

#[allow(clippy::too_many_arguments)]
fn run_with_chunk(
    bench: Benchmark,
    sys: System,
    chunk: usize,
    accesses: u64,
    window: u64,
    seed: u64,
    faults: Option<&str>,
    migration_bw: Option<f64>,
) -> (String, String) {
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let machine = machine_for(bench, Scale::TEST, ratio, CapacityKind::Nvm);
    let mut driver = DriverConfig {
        window_events: window,
        chunk,
        migration_bw,
        ..memtis_bench::driver_config()
    };
    driver.faults = faults.map(|s| {
        memtis_sim::faults::FaultPlan::parse(s).expect("fault spec used by the test is valid")
    });
    let (report, obs) = run_cell_traced(
        bench,
        Scale::TEST,
        machine,
        sys.build(),
        driver,
        accesses,
        seed,
    );
    let trace = export_jsonl(&obs, &report.windows);
    (signature(report), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_pipeline_matches_per_event_oracle(
        bench_idx in 0usize..BENCHES.len(),
        sys_idx in 0usize..SYSTEMS.len(),
        chunk_idx in 0usize..CHUNKS.len(),
        accesses in 2_000u64..8_000,
        window in 500u64..3_000,
        seed_salt in 0u64..1_000_000,
        with_faults in proptest::bool::ANY,
        fault_seed in 1u64..100,
        with_bw in proptest::bool::ANY,
    ) {
        let bench = BENCHES[bench_idx];
        let sys = SYSTEMS[sys_idx];
        let chunk = CHUNKS[chunk_idx];
        let seed = SEED ^ seed_salt;
        let spec = format!("seed={fault_seed},abort=0.05,dirty=0.1,drop=0.05,outage=60000:20000");
        let faults = with_faults.then_some(spec.as_str());
        let migration_bw = with_bw.then_some(0.5);

        let (oracle_report, oracle_trace) =
            run_with_chunk(bench, sys, 1, accesses, window, seed, faults, migration_bw);
        let (batched_report, batched_trace) =
            run_with_chunk(bench, sys, chunk, accesses, window, seed, faults, migration_bw);

        prop_assert_eq!(oracle_report, batched_report);
        prop_assert_eq!(oracle_trace, batched_trace);
    }
}

/// MEMTIS tuned to sample and migrate within a short test run, so its
/// transfers occupy the bandwidth-capped link for most of the run.
fn eager_memtis() -> Box<dyn TieringPolicy> {
    Box::new(MemtisPolicy::new(MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 500,
        cooling_interval: 5_000,
        min_estimate_samples: 1_000,
        control_interval: 1_000,
        ..MemtisConfig::sim_scaled()
    }))
}

/// One MEMTIS cell on a bandwidth-capped link: report signature, JSONL
/// trace, and the migration counters that show the engine was engaged.
fn run_engine_cell(
    bench: Benchmark,
    migration_bw: f64,
    migration_queue: Option<usize>,
    modes: bool,
    chunk: usize,
) -> (String, String, MigrationStats) {
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let machine = machine_for(bench, Scale::TEST, ratio, CapacityKind::Nvm);
    let driver = DriverConfig {
        window_events: 2_000,
        chunk,
        migration_bw: Some(migration_bw),
        migration_queue,
        admission: Some(modes.then(AdmissionConfig::default)),
        hysteresis: Some(modes.then(HysteresisConfig::default)),
        ..memtis_bench::driver_config()
    };
    let (report, obs) = run_cell_traced(
        bench,
        Scale::TEST,
        machine,
        eager_memtis(),
        driver,
        ENGINE_ACCESSES,
        SEED,
    );
    let trace = export_jsonl(&obs, &report.windows);
    let stats = report.stats.migration.clone();
    (signature(report), trace, stats)
}

const ENGINE_ACCESSES: u64 = 150_000;

/// Bandwidth-capped MEMTIS runs through the batched loop, each burst
/// bounded by the migration engine's next due time. Every cell must match
/// the per-event oracle byte for byte, with copies in flight: Btree over
/// link speed × queue depth, Silo with admission and hysteresis on, and
/// roms, whose stores dirty in-flight copies and force re-copies.
#[test]
fn engine_active_memtis_matches_per_event_oracle() {
    let mut cells: Vec<(Benchmark, f64, Option<usize>, bool)> = Vec::new();
    for bw in [0.5, 8.0, 64.0] {
        for queue in [Some(1), None] {
            cells.push((Benchmark::Btree, bw, queue, false));
        }
    }
    cells.push((Benchmark::Silo, 8.0, None, true));
    cells.push((Benchmark::Roms, 64.0, None, false));
    for (bench, bw, queue, modes) in cells {
        let cell = format!("{bench:?} bw={bw} queue={queue:?} modes={modes}");
        let (oracle_report, oracle_trace, stats) = run_engine_cell(bench, bw, queue, modes, 1);
        assert!(
            oracle_trace.contains("\"kind\":\"migration_started\""),
            "{cell}: no copy ever started ({stats:?})"
        );
        if modes {
            assert!(stats.promotion_backoffs > 0, "{cell}: hysteresis idle");
        }
        if bench == Benchmark::Roms {
            assert!(stats.recopies > 0, "{cell}: no dirty re-copy");
        }
        for chunk in [2, 7, 64, DEFAULT_CHUNK] {
            let (report, trace, _) = run_engine_cell(bench, bw, queue, modes, chunk);
            assert_eq!(
                oracle_report, report,
                "{cell} chunk={chunk}: report diverged"
            );
            assert_eq!(oracle_trace, trace, "{cell} chunk={chunk}: trace diverged");
        }
    }
}
