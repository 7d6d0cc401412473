//! `chaos` — randomized fault-plan soak.
//!
//! ```text
//! chaos [--plans N] [--accesses N] [--seed MASTER] [--systems memtis,tpp,...]
//!       [--heartbeat EVENTS] [--snapshot-every EVENTS]
//!       [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!       [--hysteresis on|off|WINDOW:BASE:MAX]
//! ```
//!
//! Derives `N` randomized [`FaultPlan`]s from a master seed and runs each
//! against a bandwidth-limited machine at test scale, checking after every
//! run that the invariants the fault-free engine guarantees survived the
//! abuse:
//!
//! - page conservation: tier usage == RSS + in-flight reservations +
//!   retained shadow frames + fault-injected pressure reservations;
//! - zero histogram underflows (policy metadata never desyncs);
//! - determinism: every 10th plan is re-run and must reproduce the same
//!   wall clock, stats, and fault schedule bit-for-bit.
//!
//! With `--snapshot-every N`, every run is additionally driven through
//! pause/checkpoint cycles every N events, and the periodic determinism
//! re-run *resumes from the last mid-run checkpoint* instead of starting
//! over — proving that snapshot/restore reproduces the uninterrupted run
//! byte-for-byte even while fault injection is rewriting schedules.
//!
//! Exits non-zero if any plan violates an invariant, printing the plan so
//! it can be pinned as a regression.

use memtis_bench::{
    machine_for, parse_admission, parse_hysteresis, parse_shadow, CapacityKind, ModeOverrides,
    Ratio, System,
};
use memtis_sim::faults::{FaultCounters, FaultPlan, FaultRng, OutageSpec, PressureSpec};
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale, SpecStream};

const WORKLOAD_SEED: u64 = 20231023;

fn find_system(name: &str) -> Option<System> {
    [
        System::AutoNuma,
        System::AutoTiering,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
        System::MemtisNs,
        System::MemtisVanilla,
        System::MultiClock,
        System::Tmts,
    ]
    .into_iter()
    .find(|s| s.name().eq_ignore_ascii_case(name))
}

/// A randomized-but-reproducible plan: index `i` under one master seed
/// always yields the same plan.
fn random_plan(rng: &mut FaultRng) -> FaultPlan {
    FaultPlan {
        seed: rng.next_u64(),
        abort_per_pump: rng.next_f64() * 0.25,
        dirty_per_pump: rng.next_f64() * 0.25,
        sample_drop: rng.next_f64() * 0.25,
        sample_dup: rng.next_f64() * 0.25,
        tick_skip: rng.next_f64() * 0.25,
        tick_delay: rng.next_f64() * 0.25,
        outage: (!rng.next_u64().is_multiple_of(3)).then(|| OutageSpec {
            period_ns: 150_000.0 + rng.next_f64() * 500_000.0,
            duration_ns: 10_000.0 + rng.next_f64() * 100_000.0,
        }),
        pressure: (!rng.next_u64().is_multiple_of(3)).then(|| PressureSpec {
            period_ns: 200_000.0 + rng.next_f64() * 600_000.0,
            duration_ns: 30_000.0 + rng.next_f64() * 200_000.0,
            bytes: HUGE_PAGE_SIZE * (1 + rng.next_u64() % 4),
        }),
        ..FaultPlan::default()
    }
}

struct SoakOutcome {
    signature: String,
    faults: FaultCounters,
    violations: Vec<String>,
    /// The last mid-run checkpoint, when driven with `--snapshot-every`.
    snapshot: Option<Vec<u8>>,
}

/// How one soak run is driven to completion.
enum SoakMode<'a> {
    /// One uninterrupted `run` call.
    Straight,
    /// Pause/checkpoint every N events; the outcome carries the last
    /// mid-run snapshot.
    Checkpointed(u64),
    /// Restore this checkpoint into the fresh simulation, then run to
    /// completion (the stream fast-forwards past the cursor).
    Resume(&'a [u8]),
}

fn soak_one(
    system: System,
    bench: Benchmark,
    plan: FaultPlan,
    accesses: u64,
    heartbeat: Option<u64>,
    modes: &ModeOverrides,
    mode: SoakMode<'_>,
) -> SoakOutcome {
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut machine = machine_for(bench, Scale::TEST, ratio, CapacityKind::Nvm);
    // Keep transfers in flight long enough for abort/dirty/outage faults to
    // find targets.
    machine.migration.bandwidth_limit = Some(8.0);
    let mut driver = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        window_events: 25_000,
        faults: Some(plan),
        heartbeat_events: heartbeat,
        ..Default::default()
    };
    modes.apply(&mut driver);
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, accesses), WORKLOAD_SEED);
    let mut sim = Simulation::new(machine, system.build(), driver);
    let mut snapshot = None;
    let fail = |e: String| SoakOutcome {
        signature: String::new(),
        faults: FaultCounters::default(),
        violations: vec![e],
        snapshot: None,
    };
    let run_result = match mode {
        SoakMode::Straight => sim.run(&mut wl),
        SoakMode::Resume(bytes) => match sim.restore(bytes) {
            Ok(()) => sim.run(&mut wl),
            Err(e) => return fail(format!("restore failed: {e:?}")),
        },
        SoakMode::Checkpointed(every) => loop {
            let target = (sim.sim_events() / every + 1) * every;
            match sim.run_until(&mut wl, Some(target)) {
                Ok(Some(r)) => break Ok(r),
                Ok(None) => snapshot = Some(sim.snapshot()),
                Err(e) => break Err(e),
            }
        },
    };
    let report = match run_result {
        Ok(r) => r,
        Err(e) => return fail(format!("run failed: {e:?}")),
    };

    let mut violations = Vec::new();
    if report.hist_underflows != 0 {
        violations.push(format!(
            "histogram underflowed {} pages",
            report.hist_underflows
        ));
    }
    let m = sim.machine();
    let used: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();
    let reserved = m.inflight_reserved_bytes();
    let shadow = m.shadow_bytes();
    let expected = m.rss_bytes() + reserved + shadow + m.fault_reserved_bytes();
    if used != expected {
        violations.push(format!(
            "page conservation violated: used={used} != rss({}) + inflight({reserved}) \
             + shadow({shadow}) + pressure({})",
            m.rss_bytes(),
            m.fault_reserved_bytes()
        ));
    }
    if m.used_bytes(TierId::FAST) > m.capacity_bytes(TierId::FAST) {
        violations.push("fast tier over capacity".into());
    }
    let signature = format!(
        "{:x}|{:?}|{:?}|{}",
        report.wall_ns.to_bits(),
        report.stats,
        report.faults,
        report.accesses,
    );
    SoakOutcome {
        signature,
        faults: report.faults,
        violations,
        snapshot,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut plans: usize = 120;
    let mut accesses: u64 = 60_000;
    let mut master_seed: u64 = 0xC4A0_5000;
    let mut systems = vec![System::Memtis];
    let mut heartbeat: Option<u64> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut modes = ModeOverrides::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--plans" => {
                plans = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(plans);
                i += 2;
            }
            "--accesses" => {
                accesses = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(accesses);
                i += 2;
            }
            "--seed" => {
                master_seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(master_seed);
                i += 2;
            }
            "--heartbeat" => {
                heartbeat = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--snapshot-every" => {
                snapshot_every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0);
                i += 2;
            }
            "--admission" => {
                match args.get(i + 1).map(|s| parse_admission(s)) {
                    Some(Ok(a)) => modes.admission = Some(a),
                    _ => {
                        eprintln!("error: --admission needs on|off|HORIZON[:WINDOW]");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--shadow" => {
                match args.get(i + 1).map(|s| parse_shadow(s)) {
                    Some(Ok(s)) => modes.shadow = Some(s),
                    _ => {
                        eprintln!("error: --shadow needs on|off");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--hysteresis" => {
                match args.get(i + 1).map(|s| parse_hysteresis(s)) {
                    Some(Ok(h)) => modes.hysteresis = Some(h),
                    _ => {
                        eprintln!("error: --hysteresis needs on|off|WINDOW:BASE:MAX");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--systems" => {
                systems = args
                    .get(i + 1)
                    .map(|v| {
                        v.split(',')
                            .filter_map(|s| {
                                let sys = find_system(s.trim());
                                if sys.is_none() {
                                    eprintln!("error: unknown system {s:?}");
                                    std::process::exit(2);
                                }
                                sys
                            })
                            .collect()
                    })
                    .unwrap_or(systems);
                i += 2;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!(
                    "usage: chaos [--plans N] [--accesses N] [--seed MASTER] \
                     [--systems memtis,tpp,...] [--heartbeat EVENTS] \
                     [--snapshot-every EVENTS] [--admission on|off|HORIZON[:WINDOW]] \
                     [--shadow on|off] [--hysteresis on|off|WINDOW:BASE:MAX]"
                );
                std::process::exit(2);
            }
        }
    }

    let benches = [Benchmark::Silo, Benchmark::XsBench, Benchmark::Btree];
    let mut rng = FaultRng::new(master_seed);
    let mut failures = 0usize;
    let mut totals = FaultCounters::default();
    println!(
        "chaos soak: {} plans x {} systems, {} accesses/plan, master seed {master_seed}",
        plans,
        systems.len(),
        accesses
    );
    if modes.any() {
        println!(
            "engine modes: admission={:?} shadow={:?} hysteresis={:?}",
            modes.admission, modes.shadow, modes.hysteresis
        );
    }
    for p in 0..plans {
        let plan = random_plan(&mut rng);
        let bench = benches[p % benches.len()];
        for &system in &systems {
            let mode = match snapshot_every {
                Some(n) => SoakMode::Checkpointed(n),
                None => SoakMode::Straight,
            };
            let out = soak_one(system, bench, plan, accesses, heartbeat, &modes, mode);
            totals.merge(&out.faults);
            for v in &out.violations {
                failures += 1;
                eprintln!("FAIL plan {p} ({} on {}): {v}", system.name(), bench.name());
                eprintln!("  plan: {plan:?}");
            }
            // Every 10th plan doubles as a determinism check; with
            // --snapshot-every the replay resumes from the last mid-run
            // checkpoint instead of starting over, so the comparison also
            // proves snapshot/restore bit-exactness under faults.
            if p % 10 == 0 && out.violations.is_empty() {
                let again_mode = match &out.snapshot {
                    Some(bytes) => SoakMode::Resume(bytes),
                    None => SoakMode::Straight,
                };
                let again = soak_one(system, bench, plan, accesses, heartbeat, &modes, again_mode);
                if again.signature != out.signature {
                    failures += 1;
                    let kind = if out.snapshot.is_some() {
                        "nondeterministic resume from checkpoint"
                    } else {
                        "nondeterministic replay"
                    };
                    eprintln!(
                        "FAIL plan {p} ({} on {}): {kind}",
                        system.name(),
                        bench.name()
                    );
                    eprintln!("  plan: {plan:?}");
                }
            }
        }
        if (p + 1) % 20 == 0 {
            println!(
                "  {}/{} plans done, {} faults injected",
                p + 1,
                plans,
                totals.total()
            );
        }
    }
    println!(
        "chaos soak finished: {} plans, faults injected: {totals:?}",
        plans
    );
    if failures > 0 {
        eprintln!("chaos soak FAILED: {failures} violation(s)");
        std::process::exit(1);
    }
    println!("all invariants held");
}
