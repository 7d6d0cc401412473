//! The serial report contract: the probe cell
//! `654.roms 1:8 memtis --test-scale --window 25000` at 200k accesses must
//! reproduce the committed `golden/report_roms_1to8.json` exactly. Only the
//! host-time blocks (`host.*`, `profile.*`) may differ; every simulated
//! quantity is held to a zero tolerance band through the `memtis diff`
//! machinery.

use memtis_bench::{
    diff_reports, driver_config_with_window, machine_for, render_diff, report_to_json,
    run_cell_traced, CapacityKind, DiffOptions, Ratio, System, SEED,
};
use memtis_sim::obs::json::Json;
use memtis_workloads::{Benchmark, Scale};

const GOLDEN: &str = include_str!("../../../golden/report_roms_1to8.json");

#[test]
fn serial_report_matches_golden_exactly() {
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let (report, obs) = run_cell_traced(
        Benchmark::Roms,
        Scale::TEST,
        machine_for(Benchmark::Roms, Scale::TEST, ratio, CapacityKind::Nvm),
        System::Memtis.build(),
        driver_config_with_window(25_000),
        200_000,
        SEED,
    );
    let profile = obs.profiler.as_ref().map(|p| p.stats());
    let fresh = report_to_json(&report, profile.as_deref());
    let opts = DiffOptions {
        tol: 0.0,
        per_key: Vec::new(),
        ignore: vec!["host.*".to_string(), "profile.*".to_string()],
    };
    let d = diff_reports(
        &Json::parse(GOLDEN).expect("golden report parses"),
        &Json::parse(&fresh).expect("fresh report parses"),
        &opts,
    );
    assert!(d.compared > 0, "the ignore globs swallowed every key");
    assert!(
        d.rows.is_empty() && d.str_mismatches.is_empty(),
        "serial report drifted from the golden:\n{}",
        render_diff(&d)
    );
}
