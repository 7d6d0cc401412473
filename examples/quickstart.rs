//! Quickstart: run MEMTIS on a synthetic Zipf workload over a DRAM+NVM
//! machine and compare it to static placement.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use memtis_repro::baselines::StaticPolicy;
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{
    assign_addresses, OpMix, Pattern, PhaseSpec, RegionSpec, SpecStream, WorkloadSpec,
};

/// A small hand-rolled workload: populate 256 MiB, then hammer it with a
/// skewed (Zipf) read-mostly mix.
fn workload() -> WorkloadSpec {
    let mut regions = vec![RegionSpec::dense("heap", 256 << 20, true)];
    assign_addresses(&mut regions);
    WorkloadSpec {
        name: "quickstart".into(),
        regions,
        phases: vec![
            PhaseSpec {
                name: "populate",
                accesses: 200_000,
                alloc: vec![0],
                free: vec![],
                ops: vec![OpMix {
                    region: 0,
                    weight: 1.0,
                    pattern: Pattern::Sequential,
                    store_fraction: 1.0,
                    rank_offset: 0,
                }],
            },
            PhaseSpec {
                name: "serve",
                accesses: 800_000,
                alloc: vec![],
                free: vec![],
                ops: vec![OpMix {
                    region: 0,
                    weight: 1.0,
                    pattern: Pattern::Zipf(0.9),
                    store_fraction: 0.05,
                    rank_offset: 0,
                }],
            },
        ],
    }
}

fn run(policy: impl TieringPolicy, label: &str) -> f64 {
    // 64 MiB of fast DRAM in front of 1 GiB of NVM.
    let machine = MachineConfig::dram_nvm(64 << 20, 1 << 30).with_bandwidth_scale(64.0);
    let driver = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        ..Default::default()
    };
    let mut wl = SpecStream::new(workload(), 7);
    let mut sim = Simulation::new(machine, policy, driver);
    let report = sim.run(&mut wl).expect("run");
    // Tiering work is charged either to the application (`app_extra`) or to
    // the background daemons (`daemon`); MEMTIS keeps the former at zero.
    println!(
        "{label:<22} wall = {:6.2} ms   throughput = {:6.1} M acc/s   fast-tier hit ratio = {:.1}%   app extra = {:5.2} ms   daemon = {:5.2} ms",
        report.wall_ns / 1e6,
        report.throughput() / 1e6,
        report.stats.fast_tier_hit_ratio() * 100.0,
        report.app_extra_ns / 1e6,
        report.daemon_ns / 1e6,
    );
    report.wall_ns
}

fn main() {
    println!("quickstart: 256 MiB Zipf(0.9) working set, 64 MiB DRAM + 1 GiB NVM\n");
    let nvm = run(StaticPolicy::all_slow(), "all-NVM (baseline)");
    let first_touch = run(NoopPolicy, "first-touch");
    let memtis = run(MemtisPolicy::new(MemtisConfig::sim_scaled()), "MEMTIS");
    println!(
        "\nMEMTIS speedup: {:.2}x over all-NVM, {:.2}x over first-touch",
        nvm / memtis,
        first_touch / memtis
    );
}
