//! The bench CLIs' shared argument handling: every run flag lands in its
//! `DriverConfig` / `SnapshotOpts` field, every bad value is an error that
//! names its flag (or `MEMTIS_ACCESSES`, for the access budget), and the
//! built binaries turn such errors into exit 2 instead of running with a
//! default, panicking or hanging.

use memtis_bench::cli::{run_flag, Args, CliError, RUN_FLAGS};
use memtis_bench::{access_budget, driver_config, parse_diff_args, Ratio, SnapshotOpts, System};
use memtis_sim::prelude::DriverConfig;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

type Landed = fn(&DriverConfig, &SnapshotOpts) -> bool;

/// Applies one shared run flag with `value` to fresh defaults.
fn apply(flag: &str, value: &[&str]) -> Result<(DriverConfig, SnapshotOpts), CliError> {
    let (mut driver, mut snap) = (driver_config(), SnapshotOpts::default());
    let mut args = Args::new(value.iter().copied());
    assert!(run_flag(
        &mut args,
        flag,
        &RUN_FLAGS,
        &mut driver,
        &mut snap
    )?);
    Ok((driver, snap))
}

#[test]
fn each_run_flag_lands_in_its_field() {
    let cases: [(&str, &str, Landed); 12] = [
        ("--window", "25000", |d, _| d.window_events == 25_000),
        ("--migration-bw", "32", |d, _| d.migration_bw == Some(32.0)),
        ("--migration-queue", "64", |d, _| {
            d.migration_queue == Some(64)
        }),
        ("--faults", "seed=7,abort=0.02", |d, _| {
            d.faults
                .is_some_and(|f| f.seed == 7 && f.abort_per_pump == 0.02)
        }),
        ("--chunk", "1", |d, _| d.chunk == 1),
        ("--heartbeat", "500", |d, _| d.heartbeat_events == Some(500)),
        ("--admission", "1e5:2e6", |d, _| {
            format!("{:?}", d.admission)
                == "Some(Some(AdmissionConfig { horizon_ns: 100000.0, window_ns: 2000000.0 }))"
        }),
        ("--shadow", "on", |d, _| d.shadow == Some(true)),
        ("--hysteresis", "1:2:3", |d, _| {
            format!("{:?}", d.hysteresis)
                == "Some(Some(HysteresisConfig { window_ns: 1.0, base_backoff_ns: 2.0, \
                    max_backoff_ns: 3.0 }))"
        }),
        ("--snapshot-out", "ck.snap", |_, s| {
            s.out.as_deref() == Some("ck.snap")
        }),
        ("--snapshot-every", "1000", |_, s| s.every == Some(1000)),
        ("--resume", "ck.snap", |_, s| {
            s.resume.as_deref() == Some("ck.snap")
        }),
    ];
    assert_eq!(cases.map(|c| c.0), RUN_FLAGS, "one case per run flag");
    let default_driver = format!("{:?}", driver_config());
    for (flag, value, landed) in cases {
        let (driver, snap) = apply(flag, &[value]).unwrap();
        assert!(landed(&driver, &snap), "{flag} {value} missed its field");
        // A snapshot flag leaves the driver alone; a driver flag the
        // snapshot schedule.
        let snapshot_flag = matches!(flag, "--snapshot-out" | "--snapshot-every" | "--resume");
        assert_eq!(
            format!("{driver:?}") == default_driver,
            snapshot_flag,
            "{flag}"
        );
        assert_eq!(snap.is_active(), snapshot_flag, "{flag}");
    }
}

#[test]
fn bad_run_flag_values_are_errors_naming_the_flag() {
    let unparsable: &[(&str, &str)] = &[
        ("--window", "x"),
        ("--window", "0"),
        ("--migration-bw", "abc"),
        ("--migration-bw", "-1"),
        ("--migration-bw", "NaN"),
        ("--migration-bw", "inf"),
        ("--migration-queue", "-3"),
        ("--faults", "outage=0:1000"),
        ("--faults", "pressure=-5:1000:4096"),
        ("--faults", "nope=1"),
        ("--chunk", "x"),
        ("--heartbeat", "0"),
        ("--admission", "banana"),
        ("--admission", "0:1e6"),
        ("--admission", "NaN"),
        ("--shadow", "maybe"),
        ("--hysteresis", "1:2"),
        ("--hysteresis", "1:-2:3"),
        ("--snapshot-every", "zz"),
        ("--snapshot-every", "0"),
    ];
    for &(flag, value) in unparsable {
        let e = apply(flag, &[value]).expect_err(&format!("{flag} {value} accepted"));
        assert_eq!(e.flag, flag);
        assert!(e.to_string().contains(flag), "{e}");
    }
    for flag in RUN_FLAGS {
        for missing in [&[][..], &["--window", "5"][..]] {
            let e = apply(flag, missing).expect_err(&format!("{flag} without a value"));
            assert_eq!(e.flag, flag);
            assert!(e.to_string().contains("missing value"), "{e}");
        }
    }
}

#[test]
fn unknown_flags_are_errors_naming_the_flag() {
    let (mut driver, mut snap) = (driver_config(), SnapshotOpts::default());
    let mut args = Args::new(["5"]);
    // Not a run flag, or a run flag this command does not take: the caller
    // gets to reject it.
    for flag in ["--bogus", "--window"] {
        let applied = run_flag(&mut args, flag, &["--chunk"], &mut driver, &mut snap).unwrap();
        assert!(!applied, "{flag}");
    }
    assert!(CliError::unknown("--bogus").to_string().contains("--bogus"));
    let e = parse_diff_args(Args::new(["a.json", "b.json", "--bogus"])).unwrap_err();
    assert_eq!(e.flag, "--bogus");
    let e = parse_diff_args(Args::new(["a.json", "b.json", "--tol", "-1"])).unwrap_err();
    assert_eq!(e.flag, "--tol");
}

#[test]
fn ratios_need_two_positive_terms() {
    assert_eq!(
        Ratio::parse("1:8"),
        Ok(Ratio {
            fast: 1,
            capacity: 8
        })
    );
    assert_eq!(Ratio::parse("2:1"), Ok(Ratio::TWO_TO_ONE));
    for bad in [
        "0:0",
        "0:8",
        "1:0",
        "banana",
        "1:",
        ":8",
        "1:8:2",
        "-1:8",
        "4294967296:1",
    ] {
        assert!(Ratio::parse(bad).is_err(), "{bad} accepted");
    }
    // The largest terms the parser accepts cannot overflow the split.
    let max = Ratio::parse("4294967295:4294967295").unwrap();
    assert_eq!(max.fast_bytes(u64::MAX), u64::MAX / 2);
}

const MEMTIS: &str = env!("CARGO_BIN_EXE_memtis");
const PROBE: &str = env!("CARGO_BIN_EXE_probe");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const CHAOS: &str = env!("CARGO_BIN_EXE_chaos");

/// Runs a built binary with `MEMTIS_ACCESSES` set to `accesses`, failing
/// (after killing it) if it outlives `deadline`. Returns the exit code and
/// stderr.
fn run_bin(bin: &str, args: &[&str], accesses: &str, deadline: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .env("MEMTIS_ACCESSES", accesses)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bench binary");
    let mut pipe = child.stderr.take().expect("piped stderr");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (status.code(), reader.join().expect("stderr reader"))
}

#[test]
fn malformed_invocations_exit_2_naming_the_flag() {
    let probe = |extra: &[&'static str]| -> Vec<&'static str> {
        let mut v = vec![
            "silo",
            "1:8",
            "memtis",
            "--test-scale",
            "--migration-bw",
            "32",
        ];
        v.extend_from_slice(extra);
        v
    };
    let cases: Vec<(&str, Vec<&str>, &str)> = vec![
        (
            MEMTIS,
            vec![
                "run",
                "654.roms",
                "--ratio",
                "banana",
                "--policy",
                "nosuch",
                "--migration-bw",
                "abc",
                "--bogus",
            ],
            "--ratio",
        ),
        (
            MEMTIS,
            vec!["run", "654.roms", "--policy", "nosuch"],
            "--policy",
        ),
        (
            MEMTIS,
            vec!["run", "654.roms", "--migration-bw", "abc"],
            "--migration-bw",
        ),
        (MEMTIS, vec!["run", "654.roms", "--bogus"], "--bogus"),
        (MEMTIS, vec!["run", "654.roms", "--ratio", "0:0"], "--ratio"),
        (
            MEMTIS,
            vec!["compare", "654.roms", "--trace-out", "t.jsonl"],
            "--trace-out",
        ),
        (SWEEP, vec!["--ratios", "0:0", "--test-scale"], "--ratios"),
        (CHAOS, vec!["--plans", "x"], "--plans"),
        (PROBE, probe(&["--chunk", "x"]), "--chunk"),
        (
            PROBE,
            probe(&["--snapshot-every", "zz"]),
            "--snapshot-every",
        ),
        (
            PROBE,
            probe(&["--faults", "seed=1,outage=0:1000"]),
            "--faults",
        ),
        (
            PROBE,
            probe(&["--faults", "seed=1,pressure=-5:1000:4096"]),
            "--faults",
        ),
    ];
    for (bin, args, flag) in cases {
        let (code, stderr) = run_bin(bin, &args, "2000", Duration::from_secs(30));
        assert_eq!(code, Some(2), "{bin} {args:?} exited {code:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{bin} {args:?} stderr lacks {flag}: {stderr}"
        );
    }
}

#[test]
fn bad_access_budget_env_exits_2_naming_it() {
    let invocations: [(&str, &[&str]); 3] = [
        (MEMTIS, &["run", "silo", "--ratio", "1:8"]),
        (PROBE, &["silo", "1:8", "memtis", "--test-scale"]),
        (
            SWEEP,
            &["--systems", "memtis", "--benches", "silo", "--test-scale"],
        ),
    ];
    for (bin, args) in invocations {
        for bad in ["abc", "0", "-3", "", "1e6", "12x", "99999999999999999999"] {
            let (code, stderr) = run_bin(bin, args, bad, Duration::from_secs(30));
            assert_eq!(code, Some(2), "{bin} MEMTIS_ACCESSES={bad:?}: {stderr}");
            assert!(
                stderr.contains("MEMTIS_ACCESSES"),
                "{bin} MEMTIS_ACCESSES={bad:?} stderr lacks the variable: {stderr}"
            );
        }
    }
}

/// Unset means the default budget; set, it must be a positive integer.
/// The only test in this binary that touches its own environment (the
/// spawned binaries get `MEMTIS_ACCESSES` explicitly).
#[test]
fn access_budget_reads_the_env_strictly() {
    std::env::remove_var("MEMTIS_ACCESSES");
    assert_eq!(access_budget(), Ok(1_500_000));
    std::env::set_var("MEMTIS_ACCESSES", "2500");
    assert_eq!(access_budget(), Ok(2_500));
    for bad in ["abc", "0", " 7", ""] {
        std::env::set_var("MEMTIS_ACCESSES", bad);
        let err = access_budget().expect_err(bad);
        assert_eq!(err.flag, "MEMTIS_ACCESSES", "{bad:?}");
    }
    std::env::remove_var("MEMTIS_ACCESSES");
}

#[test]
fn memtis_list_prints_every_system_and_names_round_trip() {
    let out = Command::new(MEMTIS)
        .arg("list")
        .output()
        .expect("run memtis list");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    let (_, policies) = stdout.split_once("policies:").expect("policies section");
    let listed: Vec<&str> = policies.split_whitespace().collect();
    assert_eq!(listed, System::ALL.map(|s| s.name()));
    for s in System::ALL {
        let name = s.name();
        let mixed: String = name
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect();
        for spelling in [
            name.to_string(),
            name.to_lowercase(),
            name.to_uppercase(),
            mixed,
        ] {
            assert_eq!(System::from_name(&spelling), Some(s), "{spelling}");
        }
    }
    assert_eq!(System::from_name("nosuch"), None);
}
