//! Figure 8 — detailed comparison to HeMem under HeMem-favorable settings.
//!
//! 16 application threads (leaving spare cores for HeMem's busy sampling
//! thread, so its CPU contention disappears) at the 1:2 configuration.
//! HeMem+ additionally gets the same configured fast-tier size as MEMTIS
//! (no over-allocation compensation). The paper still finds MEMTIS ahead,
//! because HeMem's static thresholds waste fast memory on arbitrary cold
//! pages.

use memtis_baselines::{HememConfig, HememPolicy};
use memtis_bench::{
    driver_config, machine_for, normalized, run_cell, run_sim, CapacityKind, Ratio, System, Table,
    TIME_COMPRESSION,
};
use memtis_sim::prelude::MachineConfig;
use memtis_workloads::{Benchmark, Scale};

fn sixteen_threads(mut m: MachineConfig) -> MachineConfig {
    m.app_threads = 16;
    m
}

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 2,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "HeMem",
        "HeMem+",
        "MEMTIS",
        "memtis vs hemem+",
    ]);
    for bench in Benchmark::ALL {
        // Baseline at 16 threads too.
        let rss = bench.spec(scale, 1).total_bytes();
        let base_machine = sixteen_threads(
            MachineConfig::dram_nvm(2 << 21, rss * 2 + (64 << 21))
                .with_bandwidth_scale(TIME_COMPRESSION),
        );
        let base = run_cell(
            bench,
            scale,
            base_machine,
            System::AllNvm.build(),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );

        // HeMem with its fast tier reduced by the measured over-allocation.
        let probe_machine = sixteen_threads(machine_for(bench, scale, ratio, CapacityKind::Nvm));
        let (_r, sim) = run_sim(
            bench,
            scale,
            probe_machine.clone(),
            HememPolicy::new(HememConfig::default()),
            driver_config(),
            200_000,
        );
        let overalloc = sim.policy().overallocated_bytes;
        let mut hemem_machine = probe_machine.clone();
        hemem_machine.tiers[0].capacity = hemem_machine.tiers[0]
            .capacity
            .saturating_sub(overalloc)
            .max(2 << 21);
        let hemem = run_cell(
            bench,
            scale,
            hemem_machine,
            System::Hemem.build(),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        // HeMem+: full fast-tier size (same as MEMTIS).
        let hemem_plus = run_cell(
            bench,
            scale,
            probe_machine.clone(),
            System::Hemem.build(),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let memtis = run_cell(
            bench,
            scale,
            probe_machine,
            System::Memtis.build(),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let (nh, nhp, nm) = (
            normalized(&base, &hemem),
            normalized(&base, &hemem_plus),
            normalized(&base, &memtis),
        );
        table.row(vec![
            bench.name().to_string(),
            format!("{nh:.3}"),
            format!("{nhp:.3}"),
            format!("{nm:.3}"),
            format!("{:+.1}%", (nm / nhp - 1.0) * 100.0),
        ]);
    }
    memtis_bench::emit(
        "fig8_hemem_detail",
        "MEMTIS vs HeMem/HeMem+ with 16 threads, 1:2 (paper Fig. 8)",
        &table,
    );
}
