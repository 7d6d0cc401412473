//! Figure 12 — fast-tier hit ratios at 1:8: the estimated base-page-only
//! hit ratio (eHR), the real hit ratio with splits (rHR), and the real hit
//! ratio without splits (rHR-NS).
//!
//! Paper shape: Silo and Btree show a large eHR − rHR-NS gap (64.1% and
//! 36.4%) that the split mostly closes (+52.91% and +19.92% rHR); dense
//! workloads (Graph500, PageRank, Liblinear) show eHR ≈ or below rHR — no
//! reason to split; 603.bwaves keeps a low rHR because short-lived
//! allocation churn keeps demoting hot pages.

use memtis_bench::{driver_config, machine_for, run_sim, CapacityKind, Ratio, Table};
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
        "eHR",
        "rHR (with split)",
        "rHR-NS (no split)",
        "split closes gap",
        "splits",
    ]);
    for bench in Benchmark::ALL {
        let (with_r, with_sim) = run_sim(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled()),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        let (without_r, without_sim) = run_sim(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled().without_split()),
            driver_config(),
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        // Steady-state values: average over the second half of the run's
        // estimation windows.
        let avg_tail = |series: &[(f64, f64, f64)], idx: usize| -> f64 {
            let tail = &series[series.len() / 2..];
            if tail.is_empty() {
                return 0.0;
            }
            tail.iter()
                .map(|t| if idx == 0 { t.1 } else { t.2 })
                .sum::<f64>()
                / tail.len() as f64
        };
        let rhr = avg_tail(&with_sim.policy().stats.hr_series, 0);
        let ehr = avg_tail(&without_sim.policy().stats.hr_series, 1);
        let rhr_ns = avg_tail(&without_sim.policy().stats.hr_series, 0);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.1}%", ehr * 100.0),
            format!("{:.1}%", rhr * 100.0),
            format!("{:.1}%", rhr_ns * 100.0),
            format!("{:+.1}pp", (rhr - rhr_ns) * 100.0),
            with_sim.policy().stats.splits.to_string(),
        ]);
        let _ = (with_r, without_r);
    }
    memtis_bench::emit(
        "fig12_hit_ratios",
        "eHR / rHR / rHR-NS at 1:8 (paper Fig. 12)",
        &table,
    );
}
