//! Figure 9 — hot/warm/cold data identified by MEMTIS over time.
//!
//! For PageRank, XSBench, Liblinear, and 603.bwaves at 1:2 and 1:8, the
//! classified hot-set size should track the fast-tier capacity (dashed line
//! in the paper): MEMTIS sizes its hot threshold from the access
//! distribution so the hot set approximates the fast tier from below, with
//! the warm band filling the remainder.
//!
//! The series comes from the shared telemetry window collector
//! (`RunReport::windows`): each window carries the policy's
//! `hot_bytes`/`warm_bytes`/`cold_bytes` gauges at the window close.

use memtis_bench::{driver_config, machine_for, run_sim, CapacityKind, Ratio, Table};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let mut summary = Table::new(vec![
        "benchmark",
        "ratio",
        "fast (MB)",
        "median hot (MB)",
        "median warm (MB)",
        "hot/fast median",
        "snapshots hot<=fast",
    ]);
    for bench in [
        Benchmark::PageRank,
        Benchmark::XsBench,
        Benchmark::Liblinear,
        Benchmark::Bwaves,
    ] {
        for ratio in [
            Ratio {
                fast: 1,
                capacity: 2,
            },
            Ratio {
                fast: 1,
                capacity: 8,
            },
        ] {
            let machine = machine_for(bench, scale, ratio, CapacityKind::Nvm);
            let fast = machine.tiers[0].capacity;
            let (report, _sim) = run_sim(
                bench,
                scale,
                machine,
                MemtisPolicy::new(MemtisConfig::sim_scaled()),
                driver_config(),
                memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
            );
            let mb = |b: f64| b / (1 << 20) as f64;
            let series: Vec<(f64, f64, f64, f64)> = report
                .windows
                .iter()
                .map(|w| {
                    let get = |k: &str| w.gauge(k).unwrap_or(0.0);
                    (
                        w.wall_ns,
                        get("hot_bytes"),
                        get("warm_bytes"),
                        get("cold_bytes"),
                    )
                })
                .collect();
            let mut csv = Table::new(vec!["time_ns", "hot_mb", "warm_mb", "cold_mb", "fast_mb"]);
            for &(t, h, w, c) in &series {
                csv.row(vec![
                    format!("{t:.0}"),
                    format!("{:.1}", mb(h)),
                    format!("{:.1}", mb(w)),
                    format!("{:.1}", mb(c)),
                    format!("{:.1}", mb(fast as f64)),
                ]);
            }
            memtis_bench::emit(
                &format!(
                    "fig9_hotset_{}_{}to{}",
                    bench.name().to_lowercase().replace('.', "_"),
                    ratio.fast,
                    ratio.capacity
                ),
                &format!(
                    "MEMTIS classification series, {} {}",
                    bench.name(),
                    ratio.label()
                ),
                &csv,
            );

            let mut hot: Vec<f64> = series.iter().map(|s| s.1).collect();
            let mut warm: Vec<f64> = series.iter().map(|s| s.2).collect();
            hot.sort_by(f64::total_cmp);
            warm.sort_by(f64::total_cmp);
            let med = |v: &[f64]| if v.is_empty() { 0.0 } else { v[v.len() / 2] };
            let within = series.iter().filter(|s| s.1 <= fast as f64 * 1.1).count();
            summary.row(vec![
                bench.name().to_string(),
                ratio.label(),
                format!("{:.0}", mb(fast as f64)),
                format!("{:.0}", mb(med(&hot))),
                format!("{:.0}", mb(med(&warm))),
                format!("{:.2}", med(&hot) / fast as f64),
                format!("{:.0}%", within as f64 / series.len().max(1) as f64 * 100.0),
            ]);
        }
    }
    memtis_bench::emit(
        "fig9_hotset_series",
        "MEMTIS hot/warm/cold classification vs fast-tier size (paper Fig. 9)",
        &summary,
    );
}
