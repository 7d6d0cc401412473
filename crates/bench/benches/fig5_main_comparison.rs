//! Figure 5 — main performance comparison.
//!
//! Eight benchmarks × three tiering ratios (1:2, 1:8, 1:16) × seven systems,
//! with NVM as the capacity tier, normalized to all-NVM-with-THP. The paper
//! reports MEMTIS best in 23/24 cells and 33.6% (geomean) over the
//! second-best system.

use memtis_bench::{
    geomean, normalized, run_baseline, run_system, CapacityKind, Ratio, System, Table,
};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let systems = System::FIG5;
    let mut header: Vec<String> = vec!["benchmark".into(), "ratio".into()];
    header.extend(systems.iter().map(|s| s.name().to_string()));
    header.push("memtis/2nd-best".into());
    let mut table = Table::new(header);

    // Per-system normalized scores across all cells, for the geomean rows.
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    let mut memtis_vs_second = Vec::new();
    let mut memtis_best_cells = 0usize;
    let mut cells = 0usize;

    for bench in Benchmark::ALL {
        let base = run_baseline(
            bench,
            scale,
            CapacityKind::Nvm,
            memtis_bench::access_budget().expect("valid MEMTIS_ACCESSES"),
        );
        for ratio in Ratio::MAIN {
            let mut row: Vec<String> = vec![bench.name().into(), ratio.label()];
            let mut cell_scores = Vec::new();
            for (i, sys) in systems.iter().enumerate() {
                let r = run_system(bench, scale, ratio, CapacityKind::Nvm, *sys);
                let n = normalized(&base, &r);
                scores[i].push(n);
                cell_scores.push(n);
                row.push(format!("{n:.3}"));
            }
            let memtis = *cell_scores.last().unwrap();
            let second = cell_scores[..cell_scores.len() - 1]
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max);
            memtis_vs_second.push(memtis / second);
            cells += 1;
            if memtis >= second {
                memtis_best_cells += 1;
            }
            row.push(format!("{:+.1}%", (memtis / second - 1.0) * 100.0));
            table.row(row);
        }
    }

    let mut geo_row: Vec<String> = vec!["geomean".into(), "all".into()];
    for s in &scores {
        geo_row.push(format!("{:.3}", geomean(s)));
    }
    geo_row.push(format!(
        "{:+.1}%",
        (geomean(&memtis_vs_second) - 1.0) * 100.0
    ));
    table.row(geo_row);

    memtis_bench::emit(
        "fig5_main_comparison",
        "normalized performance vs all-NVM (NVM capacity tier); paper: MEMTIS best in 23/24, +33.6% geomean over second-best",
        &table,
    );
    println!(
        "MEMTIS best in {memtis_best_cells}/{cells} cells; geomean vs second-best {:+.1}%",
        (geomean(&memtis_vs_second) - 1.0) * 100.0
    );
}
