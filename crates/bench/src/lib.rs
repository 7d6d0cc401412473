//! # memtis-bench — experiment harness for every paper table and figure
//!
//! Shared infrastructure for the `benches/` targets, each of which
//! regenerates one table or figure of the MEMTIS paper (see DESIGN.md §3
//! for the full index). Run them all with `cargo bench`; per-target with
//! `cargo bench --bench fig5_main_comparison`. The access budget per run is
//! controlled by the `MEMTIS_ACCESSES` environment variable.

pub mod harness;
pub mod plot;
pub mod report;
pub mod rundiff;
pub mod sweep;

pub use harness::{
    access_budget, driver_config, driver_config_with_window, geomean, machine_all_fast,
    machine_for, normalized, parse_admission, parse_hysteresis, parse_shadow, run_baseline,
    run_cell, run_cell_seeded, run_cell_snapshotted, run_cell_traced, run_cell_traced_snapshotted,
    run_sim, run_sim_traced, run_snapshotted, run_system, run_system_with_driver, write_snapshot,
    write_trace, CapacityKind, ModeOverrides, Ratio, SnapshotOpts, System, TraceFormat,
    DEFAULT_WINDOW_EVENTS, SEED, TIME_COMPRESSION,
};
pub use plot::{bar, sparkline};
pub use report::{emit, emit_bench_json, emit_bench_json_with_meta, experiments_dir, Table};
pub use rundiff::{
    diff_reports, flatten, glob_match, parse_diff_args, render_diff, report_to_json, DiffOptions,
    DiffReport, DiffRow, REPORT_SCHEMA,
};
pub use sweep::{
    emit_sweep, matrix, run_sweep, windows_table, SweepCell, SweepConfig, SweepResult,
};
