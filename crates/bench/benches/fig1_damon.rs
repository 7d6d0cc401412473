//! Figure 1 — DAMON's granularity / interval / CPU-overhead trade-off.
//!
//! Three DAMON configurations monitor the 654.roms access stream (the
//! paper's heat-map workload):
//!
//! - `5ms-10-1000`   — coarse regions, short interval: cheap but lumps
//!   pages with distinct frequencies together (2.15% CPU in the paper).
//! - `500ms-10K-20K` — fine regions, long interval: cannot separate
//!   frequencies in time (3.18% CPU).
//! - `5ms-10K-20K`   — fine + fast: accurate but 72.85% CPU.
//!
//! Emits a CPU-overhead table plus one heat-map CSV per configuration
//! (time bin × address bin → aggregated access count).

use memtis_bench::{access_budget, Table, SEED};
use memtis_sim::prelude::{AccessStream, VirtAddr, WorkloadEvent};
use memtis_tracking::damon::{Damon, DamonConfig};
use memtis_workloads::{Benchmark, Scale, SpecStream};

/// Nominal per-access wall contribution (ns) at 20 threads.
const NS_PER_ACCESS: f64 = 10.0;
/// DAMON's intervals are compressed by this factor to fit the simulated
/// run length; its per-region check cost shrinks by the same factor so the
/// CPU-overhead *percentages* stay comparable to the paper's.
const INTERVAL_COMPRESSION: f64 = 2000.0;
const TIME_BINS: usize = 40;
const ADDR_BINS: usize = 32;

fn main() {
    let scale = Scale::DEFAULT;
    let spec = Benchmark::Roms.spec(scale, access_budget().expect("valid MEMTIS_ACCESSES"));
    // Monitoring targets: the workload's regions.
    let ranges: Vec<(VirtAddr, u64)> = spec.regions.iter().map(|r| (r.addr, r.bytes)).collect();
    let lo = ranges.iter().map(|(a, _)| a.0).min().unwrap();
    let hi = ranges.iter().map(|(a, b)| a.0 + b).max().unwrap();
    let total_ns = access_budget().expect("valid MEMTIS_ACCESSES") as f64 * NS_PER_ACCESS;

    let configs: [(&str, DamonConfig); 3] = [
        ("5ms-10-1000", DamonConfig::paper(5.0, 10, 1000)),
        ("500ms-10K-20K", DamonConfig::paper(500.0, 10_000, 20_000)),
        ("5ms-10K-20K", DamonConfig::paper(5.0, 10_000, 20_000)),
    ];

    let mut table = Table::new(vec![
        "config",
        "regions (end)",
        "snapshots",
        "cpu overhead (1 core)",
        "paper cpu overhead",
        "addr bins with signal",
    ]);
    let paper_cpu = ["2.15%", "3.18%", "72.85%"];

    for (i, (name, cfg)) in configs.into_iter().enumerate() {
        // Time is compressed in the sim; scale DAMON's intervals by the same
        // factor the harness applies to everything else (64x) so interval-
        // to-runtime ratios match the paper's minutes-scale runs.
        let cfg = DamonConfig {
            sample_interval_ns: cfg.sample_interval_ns / INTERVAL_COMPRESSION,
            aggregate_interval_ns: cfg.aggregate_interval_ns / INTERVAL_COMPRESSION,
            ..cfg
        };
        let mut damon = Damon::new(cfg, &ranges, SEED);
        let mut wl = SpecStream::new(spec.clone(), SEED);
        let mut t = 0.0f64;
        while let Some(ev) = wl.next_event() {
            if let WorkloadEvent::Access(a) = ev {
                t += NS_PER_ACCESS;
                damon.observe(t, a.vaddr.base_page());
            }
        }
        damon.advance(t);

        // Build the heat map.
        let mut heat = vec![vec![0u64; ADDR_BINS]; TIME_BINS];
        for (when, snap) in &damon.history {
            let tb = (((when / total_ns) * TIME_BINS as f64) as usize).min(TIME_BINS - 1);
            for r in snap {
                let a0 = r.start.addr().0;
                let a1 = r.end.addr().0;
                let b0 = (((a0 - lo) as f64 / (hi - lo) as f64) * ADDR_BINS as f64) as usize;
                let b1 = (((a1 - lo) as f64 / (hi - lo) as f64) * ADDR_BINS as f64) as usize;
                for cell in &mut heat[tb][b0..=b1.min(ADDR_BINS - 1)] {
                    *cell += r.nr_accesses as u64;
                }
            }
        }
        let mut csv = Table::new(
            std::iter::once("time_bin".to_string())
                .chain((0..ADDR_BINS).map(|b| format!("addr{b}")))
                .collect::<Vec<_>>(),
        );
        for (tb, row) in heat.iter().enumerate() {
            let mut cells = vec![tb.to_string()];
            cells.extend(row.iter().map(|v| v.to_string()));
            csv.row(cells);
        }
        let csv_name = format!("fig1_damon_heatmap_{i}");
        memtis_bench::emit(&csv_name, &format!("DAMON heat map, config {name}"), &csv);

        let signal_bins = (0..ADDR_BINS)
            .filter(|&b| heat.iter().map(|r| r[b]).sum::<u64>() > 0)
            .count();
        table.row(vec![
            name.to_string(),
            damon.regions().len().to_string(),
            damon.history.len().to_string(),
            format!(
                "{:.2}%",
                damon.cpu_ns / INTERVAL_COMPRESSION / total_ns * 100.0
            ),
            paper_cpu[i].to_string(),
            signal_bins.to_string(),
        ]);
    }
    memtis_bench::emit(
        "fig1_damon",
        "DAMON granularity/interval/CPU trade-off (paper Fig. 1)",
        &table,
    );
}
