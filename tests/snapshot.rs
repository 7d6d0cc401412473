//! Checkpoint/restore oracle: a run interrupted at an arbitrary event
//! boundary, snapshotted, restored into a freshly built simulation, and
//! resumed must produce a byte-identical [`RunReport`] (windows and timeline
//! included) versus the uninterrupted run — across policies, per-event and
//! batched execution, active fault injection, and migration link speeds.

use memtis_repro::baselines::{HememConfig, HememPolicy, TppConfig, TppPolicy};
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};
use proptest::prelude::*;

const SEED: u64 = 0x5EED_CAFE;
const ACCESSES: u64 = 30_000;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 256 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    // Slow link: transfers stay in flight across checkpoints, so snapshots
    // must carry the migration engine's state to resume bit-exactly.
    cfg.migration.bandwidth_limit = Some(4.0);
    cfg
}

/// `migration_bw` overrides the machine's 4 B/ns link (`Some(0.5)` keeps
/// each huge-page copy in flight for most of the run).
fn driver(chunk: usize, faults: Option<FaultPlan>, migration_bw: Option<f64>) -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 150_000.0,
        window_events: 7_000,
        chunk,
        faults,
        migration_bw,
        ..Default::default()
    }
}

fn plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        abort_per_pump: 0.05,
        dirty_per_pump: 0.05,
        sample_drop: 0.05,
        sample_dup: 0.05,
        tick_skip: 0.05,
        tick_delay: 0.05,
        outage: Some(OutageSpec {
            period_ns: 400_000.0,
            duration_ns: 50_000.0,
        }),
        pressure: Some(PressureSpec {
            period_ns: 600_000.0,
            duration_ns: 100_000.0,
            bytes: 2 * HUGE_PAGE_SIZE,
        }),
        ..FaultPlan::default()
    }
}

fn memtis_policy() -> Box<dyn TieringPolicy> {
    Box::new(MemtisPolicy::new(MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 500,
        cooling_interval: 5_000,
        min_estimate_samples: 1_000,
        control_interval: 1_000,
        sample_cost_ns: 2.0,
        ..MemtisConfig::sim_scaled()
    }))
}

fn tpp_policy() -> Box<dyn TieringPolicy> {
    Box::new(TppPolicy::new(TppConfig {
        sweep_rounds: 8,
        ..Default::default()
    }))
}

fn hemem_policy() -> Box<dyn TieringPolicy> {
    Box::new(HememPolicy::new(HememConfig {
        load_period: 4,
        store_period: 64,
        hot_threshold: 4,
        cool_threshold: 16,
        ..Default::default()
    }))
}

fn stream() -> SpecStream {
    SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), SEED)
}

/// Everything in the report except host wall-clock time must match.
fn report_sig(mut r: RunReport) -> String {
    r.host_elapsed_ns = 0;
    format!("{r:?}")
}

/// Runs the full matrix cell once uninterrupted and once interrupted at
/// `pause_at` events (snapshot → fresh sim → restore → resume), asserting
/// byte-identical reports.
fn oracle(
    mk_policy: &dyn Fn() -> Box<dyn TieringPolicy>,
    chunk: usize,
    faults: Option<FaultPlan>,
    migration_bw: Option<f64>,
    pause_at: u64,
) -> Result<(), TestCaseError> {
    let driver = || driver(chunk, faults, migration_bw);
    let full = {
        let mut sim = Simulation::new(machine(), mk_policy(), driver());
        report_sig(sim.run(&mut stream()).expect("uninterrupted run completes"))
    };

    let mut sim = Simulation::new(machine(), mk_policy(), driver());
    let mut wl = stream();
    let resumed_report = match sim
        .run_until(&mut wl, Some(pause_at))
        .expect("run to pause")
    {
        // Pause point landed past the end of the stream: nothing to resume.
        Some(report) => report,
        None => {
            prop_assert!(sim.is_paused());
            let bytes = sim.snapshot();
            drop(sim);
            drop(wl);
            let mut resumed = Simulation::new(machine(), mk_policy(), driver());
            resumed.restore(&bytes).expect("restore succeeds");
            // A fresh stream from event zero: run_until fast-forwards it to
            // the snapshot's position before executing anything.
            resumed
                .run_until(&mut stream(), None)
                .expect("resumed run completes")
                .expect("resumed run reaches the end")
        }
    };
    prop_assert_eq!(
        full,
        report_sig(resumed_report),
        "interrupt at {} diverged (chunk={}, migration_bw={:?})",
        pause_at,
        chunk,
        migration_bw
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random pause points across the policy × chunked × faulted × link
    /// speed matrix: every interruption must be invisible in the final
    /// report.
    #[test]
    fn interrupted_runs_resume_bit_exactly(
        pause_frac in 0.05f64..0.95,
        policy_ix in 0usize..3,
        chunked in prop::bool::ANY,
        faulted in prop::bool::ANY,
        slow_link in prop::bool::ANY,
    ) {
        let mk_policy: &dyn Fn() -> Box<dyn TieringPolicy> = match policy_ix {
            0 => &memtis_policy,
            1 => &tpp_policy,
            _ => &hemem_policy,
        };
        let chunk = if chunked { DEFAULT_CHUNK } else { 1 };
        let faults = faulted.then(plan);
        let pause_at = (ACCESSES as f64 * pause_frac) as u64;
        oracle(mk_policy, chunk, faults, slow_link.then_some(0.5), pause_at.max(1))?;
    }
}

/// HeMem serializes its page map sorted and selects demotion victims in
/// ascending-vpage order, so — unlike the original hash-order scan — a
/// restored policy replays the exact same victim choices. Pin one serial
/// and one batched+faulted cell deterministically (the proptest
/// above samples the policy at random).
#[test]
fn hemem_interrupted_run_resumes_bit_exactly() {
    oracle(&hemem_policy, 1, None, None, 12_000).unwrap();
    oracle(&hemem_policy, DEFAULT_CHUNK, Some(plan()), None, 12_000).unwrap();
}

/// Unfaulted MEMTIS on a capped link runs through the batched loop; pin
/// checkpoints taken mid-transfer on both link speeds (the proptest above
/// reaches this cell only by chance).
#[test]
fn batched_memtis_resumes_mid_transfer_bit_exactly() {
    for migration_bw in [None, Some(0.5)] {
        for pause_at in [12_000, 21_000] {
            let mut sim = Simulation::new(
                machine(),
                memtis_policy(),
                driver(DEFAULT_CHUNK, None, migration_bw),
            );
            assert!(sim
                .run_until(&mut stream(), Some(pause_at))
                .unwrap()
                .is_none());
            assert!(
                sim.machine().transfers_in_flight() > 0,
                "no transfer in flight at {pause_at} (migration_bw={migration_bw:?})"
            );
            oracle(&memtis_policy, DEFAULT_CHUNK, None, migration_bw, pause_at).unwrap();
        }
    }
}

/// A run interrupted twice — resume from the first snapshot, pause again,
/// snapshot again, resume from the second — still matches the straight run.
#[test]
fn double_interruption_resumes_bit_exactly() {
    let dcfg = || driver(DEFAULT_CHUNK, Some(plan()), None);
    let full = {
        let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
        report_sig(sim.run(&mut stream()).unwrap())
    };

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    assert!(sim.run_until(&mut stream(), Some(8_000)).unwrap().is_none());
    let first = sim.snapshot();
    drop(sim);

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    sim.restore(&first).unwrap();
    assert!(sim
        .run_until(&mut stream(), Some(20_000))
        .unwrap()
        .is_none());
    let second = sim.snapshot();
    drop(sim);

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    sim.restore(&second).unwrap();
    let r = sim
        .run_until(&mut stream(), None)
        .unwrap()
        .expect("final leg completes");
    assert_eq!(full, report_sig(r));
}

/// Restoring a TPP snapshot into a TPP policy with different tuning is
/// rejected up front instead of silently diverging.
#[test]
fn restore_rejects_mismatched_policy() {
    let dcfg = || driver(DEFAULT_CHUNK, None, None);
    let mut sim = Simulation::new(machine(), tpp_policy(), dcfg());
    assert!(sim.run_until(&mut stream(), Some(5_000)).unwrap().is_none());
    let bytes = sim.snapshot();
    drop(sim);

    let other: Box<dyn TieringPolicy> = Box::new(TppPolicy::new(TppConfig {
        promote_faults: 7,
        ..Default::default()
    }));
    let mut sim = Simulation::new(machine(), other, dcfg());
    assert!(
        sim.restore(&bytes).is_err(),
        "mismatched policy config must be rejected"
    );
}

/// Gauge keys decode only against the restoring policy's own timeline
/// names: renaming one saved key, in the timeline rows or in a telemetry
/// window, makes the snapshot corrupt instead of minting a new name.
#[test]
fn restore_rejects_unknown_timeline_key() {
    let dcfg = || driver(DEFAULT_CHUNK, None, None);
    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    assert!(sim
        .run_until(&mut stream(), Some(20_000))
        .unwrap()
        .is_none());
    let bytes = sim.snapshot();
    drop(sim);

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    sim.restore(&bytes).expect("untouched snapshot restores");

    let key = b"warm_bytes";
    let hits: Vec<usize> = bytes
        .windows(key.len())
        .enumerate()
        .filter(|(_, w)| w == key)
        .map(|(at, _)| at)
        .collect();
    assert!(
        hits.len() >= 2,
        "timeline rows and windows both carry the key"
    );
    for at in [hits[0], hits[hits.len() - 1]] {
        let mut bad = bytes.clone();
        bad[at..at + key.len()].copy_from_slice(b"worm_bytes");
        let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
        match sim.restore(&bad) {
            Err(SimError::Snapshot(msg)) => assert!(msg.contains("unknown name"), "{msg}"),
            other => panic!("renamed key at byte {at} must be rejected, got {other:?}"),
        }
    }
}
