//! §6.3.5 — the overheads of PEBS-based access tracking.
//!
//! `ksampled` adjusts its sampling period against a 3%-of-one-core budget:
//! on 654.roms (very high LLC-miss rate) the paper sees the period climb
//! from 200 to ~1400, while on 603.bwaves it stays at its initial value.
//! The paper reports 2.016% average CPU for ksampled and 0.922% average
//! performance impact.

use memtis_bench::{
    driver_config, machine_for, normalized, run_baseline, run_sim, run_system, CapacityKind, Ratio,
    System, Table,
};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "initial period",
        "final period",
        "ksampled cpu (EMA)",
        "samples",
        "perf vs no-sampling MEMTIS",
    ]);
    for bench in Benchmark::ALL {
        let (report, sim) = run_sim(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled()),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let p = sim.policy();
        // Reference: the same run with free sampling (no per-sample cost),
        // isolating the CPU overhead of tracking itself.
        let free_cfg = MemtisConfig {
            sample_cost_ns: 0.0,
            ..MemtisConfig::sim_scaled()
        };
        let free = run_sim(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(free_cfg),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        )
        .0;
        table.row(vec![
            bench.name().to_string(),
            MemtisConfig::sim_scaled().load_period.to_string(),
            p.load_period().to_string(),
            format!("{:.2}%", p.stats.cpu_usage_ema * 100.0),
            p.stats.samples.to_string(),
            format!("{:+.2}%", (free.wall_ns / report.wall_ns - 1.0) * -100.0),
        ]);
    }
    memtis_bench::emit(
        "overhead_tracking",
        "ksampled dynamic period + CPU budget (paper §6.3.5: avg 2.016% CPU, 0.922% overhead)",
        &table,
    );

    // Sanity anchor: MEMTIS overall overhead stays near the all-NVM case
    // even with the fast tier effectively disabled (tiny fast tier).
    let bench = Benchmark::Roms;
    let base = run_baseline(
        bench,
        scale,
        CapacityKind::Nvm,
        memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
    );
    let r = run_system(
        bench,
        scale,
        Ratio {
            fast: 1,
            capacity: 16,
        },
        CapacityKind::Nvm,
        System::Memtis,
    );
    println!(
        "654.roms 1:16 normalized (placement+overhead combined): {:.3}",
        normalized(&base, &r)
    );
}
