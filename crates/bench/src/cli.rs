//! Command-line parsing shared by the bench binaries (`probe`, `memtis`,
//! `sweep`, `chaos`): the system registry, the tiering-ratio and engine-mode
//! specs, an argument cursor whose every failure names its flag, and the
//! run flags applied straight onto a [`DriverConfig`] / [`SnapshotOpts`].
//!
//! Nothing here falls back to a default on bad input: a missing,
//! unparsable, out-of-range or unknown argument is a [`CliError`], which the
//! binaries print with their usage before exiting 2 ([`exit_usage`]).

use crate::harness::{Ratio, SnapshotOpts, System};
use memtis_sim::faults::FaultPlan;
use memtis_sim::prelude::{AdmissionConfig, DriverConfig, HysteresisConfig, SimResult};
use memtis_workloads::Benchmark;
use std::fmt::{self, Display};
use std::num::NonZeroU64;
use std::str::FromStr;

/// A rejected command line: the flag (or positional) at fault and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The offending flag or positional, e.g. `--chunk` or `<benchmark>`.
    pub flag: String,
    /// What is wrong with it.
    pub reason: String,
}

impl CliError {
    /// An error about `flag`.
    pub fn new(flag: impl Into<String>, reason: impl Into<String>) -> Self {
        CliError {
            flag: flag.into(),
            reason: reason.into(),
        }
    }

    /// `flag` is not an argument this command takes.
    pub fn unknown(flag: &str) -> Self {
        CliError::new(flag, "unknown argument")
    }
}

impl Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for CliError {}

/// Prints `err` and `usage` to stderr and exits with status 2.
pub fn exit_usage(err: &CliError, usage: &str) -> ! {
    eprintln!("error: {err}\n{usage}");
    std::process::exit(2)
}

/// Unwraps a simulation result, exiting 1 with the error on failure.
pub fn run_or_exit<T>(result: SimResult<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: run failed: {e:?}");
        std::process::exit(1)
    })
}

impl System {
    /// Every system, in `memtis list` order.
    pub const ALL: [System; 13] = [
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
        System::AllNvm,
        System::AllDram,
    ];

    /// Looks a system up by its display name, in any ASCII case.
    pub fn from_name(name: &str) -> Option<System> {
        System::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

impl Ratio {
    /// Parses `FAST:CAPACITY`, e.g. `1:8`; both terms must be positive.
    pub fn parse(s: &str) -> Result<Ratio, String> {
        let terms = s
            .split_once(':')
            .and_then(|(f, c)| Some((f.parse::<u32>().ok()?, c.parse::<u32>().ok()?)));
        match terms {
            Some((fast, capacity)) if fast > 0 && capacity > 0 => Ok(Ratio { fast, capacity }),
            _ => Err(format!("bad ratio {s:?} (want F:C with positive terms)")),
        }
    }
}

/// [`Benchmark::from_name`] as a parser.
pub fn benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// [`System::from_name`] as a parser.
pub fn system(name: &str) -> Result<System, String> {
    System::from_name(name).ok_or_else(|| format!("unknown system {name:?}"))
}

/// Parses a finite sim-time or bandwidth figure that is `> 0` when
/// `positive`, else `>= 0`.
fn finite(s: &str, what: &str, positive: bool) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && (v > 0.0 || (v == 0.0 && !positive)) => Ok(v),
        _ => Err(format!(
            "bad {what} {s:?} (want a finite {} number)",
            if positive { "positive" } else { "non-negative" }
        )),
    }
}

/// Parses an `--admission` spec: `on` (defaults), `off` (force off), or
/// `HORIZON_NS[:WINDOW_NS]` in sim nanoseconds (floats accepted, e.g.
/// `5e7:1e6`).
pub fn parse_admission(spec: &str) -> Result<Option<AdmissionConfig>, String> {
    match spec {
        "on" | "default" => Ok(Some(AdmissionConfig::default())),
        "off" => Ok(None),
        _ => {
            let mut cfg = AdmissionConfig::default();
            let (horizon, window) = match spec.split_once(':') {
                Some((h, w)) => (h, Some(w)),
                None => (spec, None),
            };
            cfg.horizon_ns = finite(horizon, "admission horizon", true)?;
            if let Some(w) = window {
                cfg.window_ns = finite(w, "admission window", true)?;
            }
            Ok(Some(cfg))
        }
    }
}

/// Parses a `--shadow` spec: `on` or `off`.
pub fn parse_shadow(spec: &str) -> Result<bool, String> {
    match spec {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("bad shadow spec {spec:?} (want on|off)")),
    }
}

/// Parses a `--hysteresis` spec: `on` (defaults), `off` (force off), or
/// `WINDOW_NS:BASE_BACKOFF_NS:MAX_BACKOFF_NS` in sim nanoseconds.
pub fn parse_hysteresis(spec: &str) -> Result<Option<HysteresisConfig>, String> {
    match spec {
        "on" | "default" => Ok(Some(HysteresisConfig::default())),
        "off" => Ok(None),
        _ => match spec.split(':').collect::<Vec<_>>()[..] {
            [w, b, m] => Ok(Some(HysteresisConfig {
                window_ns: finite(w, "hysteresis window", false)?,
                base_backoff_ns: finite(b, "hysteresis base backoff", false)?,
                max_backoff_ns: finite(m, "hysteresis max backoff", false)?,
            })),
            _ => Err(format!(
                "bad hysteresis spec {spec:?} (want on|off|WINDOW:BASE:MAX)"
            )),
        },
    }
}

/// A cursor over command-line arguments. Iterating yields the next raw
/// argument (a flag or a positional); [`Args::value`] and friends consume
/// the value that follows a flag.
#[derive(Debug, Clone)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// A cursor over `args` (program name excluded).
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Args(
            args.into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// A cursor over this process's arguments.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Consumes `flag`'s value and parses it with `parse`. A missing value
    /// (end of input, or another `--flag`) and a rejected one are both
    /// errors naming `flag`.
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        match self.0.next() {
            Some(v) if !v.starts_with("--") => parse(&v).map_err(|e| CliError::new(flag, e)),
            _ => Err(CliError::new(flag, "missing value")),
        }
    }

    /// Consumes `flag`'s value and parses it with [`FromStr`].
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.value_with(flag, |s| {
            s.parse().map_err(|e| format!("bad value {s:?} ({e})"))
        })
    }

    /// Consumes `flag`'s comma-separated value as a non-empty list.
    pub fn list<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, CliError> {
        let items: Vec<T> = self.value_with(flag, |s| {
            s.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(parse)
                .collect()
        })?;
        if items.is_empty() {
            return Err(CliError::new(flag, "empty list"));
        }
        Ok(items)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// The run flags [`run_flag`] applies, in usage order.
pub const RUN_FLAGS: [&str; 12] = [
    "--window",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--heartbeat",
    "--admission",
    "--shadow",
    "--hysteresis",
    "--snapshot-out",
    "--snapshot-every",
    "--resume",
];

/// Applies `flag` — when it is one of the `allowed` [`RUN_FLAGS`] — by
/// consuming its value into `driver` / `snap`. Returns whether it did, so a
/// caller can fall through to its own flags and then to
/// [`CliError::unknown`].
pub fn run_flag(
    args: &mut Args,
    flag: &str,
    allowed: &[&str],
    driver: &mut DriverConfig,
    snap: &mut SnapshotOpts,
) -> Result<bool, CliError> {
    if !allowed.contains(&flag) {
        return Ok(false);
    }
    match flag {
        "--window" => driver.window_events = args.value::<NonZeroU64>(flag)?.get(),
        "--migration-bw" => {
            driver.migration_bw = Some(args.value_with(flag, |s| finite(s, "bandwidth", false))?)
        }
        "--migration-queue" => driver.migration_queue = Some(args.value(flag)?),
        "--faults" => driver.faults = Some(args.value_with(flag, FaultPlan::parse)?),
        "--chunk" => driver.chunk = args.value(flag)?,
        "--heartbeat" => driver.heartbeat_events = Some(args.value::<NonZeroU64>(flag)?.get()),
        "--admission" => driver.admission = Some(args.value_with(flag, parse_admission)?),
        "--shadow" => driver.shadow = Some(args.value_with(flag, parse_shadow)?),
        "--hysteresis" => driver.hysteresis = Some(args.value_with(flag, parse_hysteresis)?),
        "--snapshot-out" => snap.out = Some(args.value(flag)?),
        "--snapshot-every" => snap.every = Some(args.value::<NonZeroU64>(flag)?.get()),
        "--resume" => snap.resume = Some(args.value(flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The `engine modes: ...` banner line, when any mode flag was given.
pub fn modes_banner(driver: &DriverConfig) -> Option<String> {
    let any = driver.admission.is_some() || driver.shadow.is_some() || driver.hysteresis.is_some();
    any.then(|| {
        format!(
            "engine modes: admission={:?} shadow={:?} hysteresis={:?}",
            driver.admission, driver.shadow, driver.hysteresis
        )
    })
}
