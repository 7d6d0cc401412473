//! Figure 3 — hotness vs huge-page utilization scatter.
//!
//! Liblinear (dense data): hot huge pages have high utilization — hotness
//! and utilization correlate, so huge pages should stay whole. Silo
//! (hash-scattered records): no correlation — a hot huge page holds only a
//! few hot subpages, the case the skewness-aware split exploits.

use memtis_bench::{driver_config, machine_for, run_sim, CapacityKind, Ratio, Table};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::PageSize;
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 2,
    };
    let mut summary = Table::new(vec![
        "benchmark",
        "huge pages",
        "mean utilization (of 512)",
        "utilization of hottest decile",
        "hotness-utilization correlation",
        "paper shape",
    ]);
    for (bench, paper_shape) in [
        (Benchmark::Liblinear, "positive correlation (Fig. 3a)"),
        (Benchmark::Silo, "no correlation, low utilization (Fig. 3b)"),
    ] {
        // Track with MEMTIS but without split/migration side effects on the
        // scatter: disable split so pages stay huge.
        let cfg = MemtisConfig::sim_scaled().without_split();
        let (_report, sim) = run_sim(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(cfg),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let policy = sim.policy();
        // One dot per huge page: (utilization = touched subpages, hotness).
        let mut dots: Vec<(u32, u64)> = Vec::new();
        for (_v, meta) in policy.pages_iter() {
            if meta.size != PageSize::Huge {
                continue;
            }
            let Some(sub) = meta.sub.as_ref() else {
                continue;
            };
            let touched = sub.counts.iter().filter(|&&c| c > 0).count() as u32;
            if meta.count > 0 {
                dots.push((touched, meta.count));
            }
        }
        let mut csv = Table::new(vec!["utilization", "hotness"]);
        for &(u, h) in &dots {
            csv.row(vec![u.to_string(), h.to_string()]);
        }
        memtis_bench::emit(
            &format!("fig3_skew_scatter_{}", bench.name().to_lowercase()),
            &format!("hotness vs utilization dots, {}", bench.name()),
            &csv,
        );

        let n = dots.len().max(1) as f64;
        let mean_u: f64 = dots.iter().map(|&(u, _)| u as f64).sum::<f64>() / n;
        let mean_h: f64 = dots.iter().map(|&(_, h)| h as f64).sum::<f64>() / n;
        let cov: f64 = dots
            .iter()
            .map(|&(u, h)| (u as f64 - mean_u) * (h as f64 - mean_h))
            .sum::<f64>();
        let var_u: f64 = dots.iter().map(|&(u, _)| (u as f64 - mean_u).powi(2)).sum();
        let var_h: f64 = dots.iter().map(|&(_, h)| (h as f64 - mean_h).powi(2)).sum();
        let corr = if var_u > 0.0 && var_h > 0.0 {
            cov / (var_u.sqrt() * var_h.sqrt())
        } else {
            0.0
        };
        // Utilization of the hottest 10% of huge pages.
        let mut sorted = dots.clone();
        sorted.sort_by_key(|&(_, h)| std::cmp::Reverse(h));
        let top = sorted.len().div_ceil(10).max(1);
        let hot_util: f64 = sorted[..top].iter().map(|&(u, _)| u as f64).sum::<f64>() / top as f64;
        summary.row(vec![
            bench.name().to_string(),
            dots.len().to_string(),
            format!("{mean_u:.0}"),
            format!("{hot_util:.0}"),
            format!("{corr:.2}"),
            paper_shape.to_string(),
        ]);
    }
    memtis_bench::emit(
        "fig3_skew_scatter",
        "hotness vs huge-page utilization (paper Fig. 3)",
        &summary,
    );
}
