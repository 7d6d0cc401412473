//! Figure 2 — hot pages identified by HeMem over time.
//!
//! PageRank: the static-threshold hot set stays far below the fast-tier
//! size, leaving the rest of fast memory to arbitrary cold pages. XSBench:
//! the hot set overshoots the fast tier mid-run and later collapses. Both
//! pathologies motivate MEMTIS's distribution-based thresholds.

use memtis_baselines::{HememConfig, HememPolicy};
use memtis_bench::{driver_config, machine_for, run_sim, CapacityKind, Ratio, Table};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "fast tier (MB)",
        "hot set min (MB)",
        "hot set max (MB)",
        "time under fast size",
        "time over fast size",
    ]);
    for bench in [Benchmark::PageRank, Benchmark::XsBench] {
        let machine = machine_for(bench, scale, ratio, CapacityKind::Nvm);
        let fast = machine.tiers[0].capacity;
        let (_report, sim) = run_sim(
            bench,
            scale,
            machine,
            HememPolicy::new(HememConfig::default()),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let series = &sim.policy().hot_series;
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        let min = series.iter().map(|&(_, h)| h).min().unwrap_or(0);
        let max = series.iter().map(|&(_, h)| h).max().unwrap_or(0);
        let under = series.iter().filter(|&&(_, h)| h <= fast).count();
        let over = series.len() - under;
        table.row(vec![
            bench.name().to_string(),
            format!("{:.1}", mb(fast)),
            format!("{:.1}", mb(min)),
            format!("{:.1}", mb(max)),
            format!("{:.0}%", under as f64 / series.len().max(1) as f64 * 100.0),
            format!("{:.0}%", over as f64 / series.len().max(1) as f64 * 100.0),
        ]);

        // Full series CSV for plotting.
        let mut csv = Table::new(vec!["time_ns", "hot_bytes", "fast_bytes"]);
        for &(t, h) in series {
            csv.row(vec![format!("{t:.0}"), h.to_string(), fast.to_string()]);
        }
        memtis_bench::emit(
            &format!("fig2_hemem_hotset_{}", bench.name().to_lowercase()),
            &format!("HeMem identified hot set over time, {}", bench.name()),
            &csv,
        );
    }
    memtis_bench::emit(
        "fig2_hemem_hotset",
        "HeMem hot-set size vs fast-tier capacity (paper Fig. 2)",
        &table,
    );
}
