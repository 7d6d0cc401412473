//! Run-report serialization and the `diff` regression tool.
//!
//! `report_to_json` renders a [`RunReport`] (plus the optional phase
//! self-profile) as a `memtis-report-v1` JSON document using the
//! workspace's dependency-free JSON helpers. `diff_reports` compares two
//! such documents (or any flat-ish JSON, e.g. `BENCH_*.json`) key by key
//! with configurable relative-tolerance bands, for CI regression gating:
//! `memtis diff old.json new.json --tol 0.1 --tol throughput=0.05
//! --ignore 'host.*'` exits nonzero when any key moved outside its band.

use crate::cli::{Args, CliError};
use memtis_sim::obs::json::{escape, fmt_f64, Json};
use memtis_sim::obs::SpanStat;
use memtis_sim::prelude::RunReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag emitted at the top of every report document.
pub const REPORT_SCHEMA: &str = "memtis-report-v1";

fn push_kv(out: &mut String, indent: &str, key: &str, val: &str, comma: bool) {
    let _ = writeln!(
        out,
        "{indent}\"{}\": {val}{}",
        escape(key),
        if comma { "," } else { "" }
    );
}

/// Renders a run report (and, when available, the profiler's phase
/// attribution table) as a `memtis-report-v1` JSON document.
///
/// Deterministic, simulated-time quantities are top-level; *host*-time
/// quantities live under `"host"` and `"profile"` so a diff can exclude
/// them wholesale (`--ignore 'host.*' --ignore 'profile.*'`).
pub fn report_to_json(report: &RunReport, profile: Option<&[SpanStat]>) -> String {
    let mut out = String::from("{\n");
    push_kv(
        &mut out,
        "  ",
        "schema",
        &format!("\"{REPORT_SCHEMA}\""),
        true,
    );
    push_kv(
        &mut out,
        "  ",
        "workload",
        &format!("\"{}\"", escape(&report.workload)),
        true,
    );
    push_kv(
        &mut out,
        "  ",
        "policy",
        &format!("\"{}\"", escape(&report.policy)),
        true,
    );
    let scalars: Vec<(&str, f64)> = vec![
        ("wall_ns", report.wall_ns),
        ("accesses", report.accesses as f64),
        ("sim_events", report.sim_events as f64),
        ("throughput", report.throughput()),
        ("app_access_ns", report.app_access_ns),
        ("app_extra_ns", report.app_extra_ns),
        ("daemon_ns", report.daemon_ns),
        ("rss_peak_bytes", report.rss_peak_bytes as f64),
        ("rss_final_bytes", report.rss_final_bytes as f64),
        ("hist_underflows", report.hist_underflows as f64),
        ("fast_tier_hit_ratio", report.stats.fast_tier_hit_ratio()),
        ("tlb_miss_ratio", report.tlb.miss_ratio()),
        ("llc_miss_ratio", report.llc.miss_ratio()),
        ("windows_len", report.windows.len() as f64),
    ];
    for (k, v) in scalars {
        push_kv(&mut out, "  ", k, &fmt_f64(v), true);
    }
    // Migration counters (simulated-time, deterministic).
    let mig = &report.stats.migration;
    out.push_str("  \"migration\": {\n");
    let mut mig_rows: Vec<(&str, f64)> = vec![
        ("promoted_4k", mig.promoted_4k as f64),
        ("demoted_4k", mig.demoted_4k as f64),
        ("splits", mig.splits as f64),
        ("migrated_bytes", mig.migrated_bytes as f64),
        ("traffic_4k", mig.traffic_4k() as f64),
        ("shootdowns", report.stats.shootdowns as f64),
        ("hint_faults", report.stats.hint_faults as f64),
    ];
    // Engine-mode counters: emitted only when an admission / shadow /
    // hysteresis mode produced activity, so mode-off reports stay
    // byte-identical to goldens written before these modes existed.
    let mode_rows: Vec<(&str, f64)> = vec![
        ("admission_rejects", mig.admission_rejects as f64),
        ("admission_payback_ns", mig.admission_payback_ns),
        ("promotion_backoffs", mig.promotion_backoffs as f64),
        ("shadow_retained_4k", mig.shadow_retained_4k as f64),
        (
            "shadow_free_demotions_4k",
            mig.shadow_free_demotions_4k as f64,
        ),
        ("shadow_reclaimed_4k", mig.shadow_reclaimed_4k as f64),
    ];
    mig_rows.extend(mode_rows.into_iter().filter(|(_, v)| *v != 0.0));
    for (i, (k, v)) in mig_rows.iter().enumerate() {
        push_kv(&mut out, "    ", k, &fmt_f64(*v), i + 1 < mig_rows.len());
    }
    out.push_str("  },\n");
    // Fault-injection tallies (all zero on normal runs).
    let f = &report.faults;
    out.push_str("  \"faults\": {\n");
    let fault_rows: Vec<(&str, u64)> = vec![
        ("forced_aborts", f.forced_aborts),
        ("injected_dirty", f.injected_dirty),
        ("link_outages", f.link_outages),
        ("sample_drops", f.sample_drops),
        ("sample_dups", f.sample_dups),
        ("tick_skips", f.tick_skips),
        ("tick_delays", f.tick_delays),
        ("pressure_spikes", f.pressure_spikes),
    ];
    for (i, (k, v)) in fault_rows.iter().enumerate() {
        push_kv(
            &mut out,
            "    ",
            k,
            &fmt_f64(*v as f64),
            i + 1 < fault_rows.len(),
        );
    }
    out.push_str("  },\n");
    // Flight-recorder latency rows, exactly as the driver produced them.
    out.push_str("  \"lat\": {\n");
    for (i, (k, v)) in report.lat.iter().enumerate() {
        push_kv(&mut out, "    ", k, &fmt_f64(*v), i + 1 < report.lat.len());
    }
    out.push_str("  },\n");
    // Phase self-profile (host time; excluded from golden diffs).
    out.push_str("  \"profile\": {\n");
    if let Some(stats) = profile {
        for (i, s) in stats.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"calls\": {}, \"ns\": {} }}{}",
                s.id.name(),
                s.calls,
                s.ns,
                if i + 1 < stats.len() { "," } else { "" }
            );
        }
    }
    out.push_str("  },\n");
    // Host (simulator self-throughput) quantities.
    out.push_str("  \"host\": {\n");
    push_kv(
        &mut out,
        "    ",
        "elapsed_ns",
        &fmt_f64(report.host_elapsed_ns as f64),
        true,
    );
    push_kv(
        &mut out,
        "    ",
        "events_per_sec",
        &fmt_f64(report.self_events_per_sec()),
        false,
    );
    out.push_str("  }\n}\n");
    out
}

/// Flattens a JSON document into dotted-key leaves: numbers (and booleans,
/// as 0/1) into `nums`, strings into `strs`. Array elements are indexed
/// (`a.0`, `a.1`, …); nulls are skipped.
pub fn flatten(
    v: &Json,
    prefix: &str,
    nums: &mut BTreeMap<String, f64>,
    strs: &mut BTreeMap<String, String>,
) {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match v {
        Json::Obj(m) => {
            for (k, child) in m {
                flatten(child, &key(k), nums, strs);
            }
        }
        Json::Arr(a) => {
            for (i, child) in a.iter().enumerate() {
                flatten(child, &key(&i.to_string()), nums, strs);
            }
        }
        Json::Num(n) => {
            nums.insert(prefix.to_string(), *n);
        }
        Json::Bool(b) => {
            nums.insert(prefix.to_string(), if *b { 1.0 } else { 0.0 });
        }
        Json::Str(s) => {
            strs.insert(prefix.to_string(), s.clone());
        }
        Json::Null => {}
    }
}

/// Matches a simple glob pattern against a key: `*` matches any (possibly
/// empty) substring, all other characters match literally.
pub fn glob_match(pattern: &str, key: &str) -> bool {
    fn inner(p: &[u8], k: &[u8]) -> bool {
        match p.first() {
            None => k.is_empty(),
            Some(b'*') => {
                // Try every split point, longest-first not needed.
                (0..=k.len()).any(|i| inner(&p[1..], &k[i..]))
            }
            Some(c) => k.first() == Some(c) && inner(&p[1..], &k[1..]),
        }
    }
    inner(pattern.as_bytes(), key.as_bytes())
}

/// Tolerance configuration for a diff.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Default symmetric relative tolerance for every numeric key.
    pub tol: f64,
    /// Per-key overrides, first match wins (`--tol KEY=FRAC`; KEY may be a
    /// glob).
    pub per_key: Vec<(String, f64)>,
    /// Keys excluded from comparison (`--ignore GLOB`).
    pub ignore: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol: 0.05,
            per_key: Vec::new(),
            ignore: Vec::new(),
        }
    }
}

impl DiffOptions {
    fn ignored(&self, key: &str) -> bool {
        self.ignore.iter().any(|g| glob_match(g, key))
    }

    fn tolerance_for(&self, key: &str) -> f64 {
        self.per_key
            .iter()
            .find(|(g, _)| glob_match(g, key))
            .map(|(_, t)| *t)
            .unwrap_or(self.tol)
    }
}

/// One compared key.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Dotted key.
    pub key: String,
    /// Value in the old (reference) document, if present.
    pub old: Option<f64>,
    /// Value in the new document, if present.
    pub new: Option<f64>,
    /// Relative change `(new-old)/max(|old|,|new|,eps)`.
    pub rel: f64,
    /// Tolerance band the key was held to.
    pub tol: f64,
    /// Whether the change breaches the band (or the key is one-sided).
    pub breach: bool,
}

/// Result of diffing two documents.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// All rows where the value changed or is missing on one side
    /// (unchanged keys are elided).
    pub rows: Vec<DiffRow>,
    /// Keys compared (after ignores).
    pub compared: usize,
    /// String-valued keys that differ (always a breach).
    pub str_mismatches: Vec<(String, String, String)>,
}

impl DiffReport {
    /// Whether any key moved outside its tolerance band.
    pub fn has_breach(&self) -> bool {
        !self.str_mismatches.is_empty() || self.rows.iter().any(|r| r.breach)
    }
}

/// Compares two parsed JSON documents key by key.
///
/// The relative change uses `max(|old|, |new|, eps)` as the denominator so
/// zero-valued references do not blow up and symmetric swaps score
/// symmetrically. A key present on only one side is a breach (the document
/// shape changed) unless ignored.
pub fn diff_reports(old: &Json, new: &Json, opts: &DiffOptions) -> DiffReport {
    const EPS: f64 = 1e-9;
    let (mut anums, mut astrs) = (BTreeMap::new(), BTreeMap::new());
    let (mut bnums, mut bstrs) = (BTreeMap::new(), BTreeMap::new());
    flatten(old, "", &mut anums, &mut astrs);
    flatten(new, "", &mut bnums, &mut bstrs);
    let mut report = DiffReport::default();

    let keys: std::collections::BTreeSet<&String> = anums.keys().chain(bnums.keys()).collect();
    for key in keys {
        if opts.ignored(key) {
            continue;
        }
        report.compared += 1;
        let (a, b) = (anums.get(key).copied(), bnums.get(key).copied());
        let tol = opts.tolerance_for(key);
        match (a, b) {
            (Some(a), Some(b)) => {
                let denom = a.abs().max(b.abs()).max(EPS);
                let rel = (b - a) / denom;
                if a != b {
                    report.rows.push(DiffRow {
                        key: key.clone(),
                        old: Some(a),
                        new: Some(b),
                        rel,
                        tol,
                        breach: rel.abs() > tol,
                    });
                }
            }
            (a, b) => {
                report.rows.push(DiffRow {
                    key: key.clone(),
                    old: a,
                    new: b,
                    rel: f64::INFINITY,
                    tol,
                    breach: true,
                });
            }
        }
    }
    let skeys: std::collections::BTreeSet<&String> = astrs.keys().chain(bstrs.keys()).collect();
    for key in skeys {
        if opts.ignored(key) {
            continue;
        }
        report.compared += 1;
        let a = astrs.get(key).cloned().unwrap_or_default();
        let b = bstrs.get(key).cloned().unwrap_or_default();
        if a != b {
            report.str_mismatches.push((key.clone(), a, b));
        }
    }
    report
}

/// Renders a diff report for humans; one line per changed key.
pub fn render_diff(d: &DiffReport) -> String {
    let mut out = String::new();
    for (k, a, b) in &d.str_mismatches {
        let _ = writeln!(out, "BREACH {k}: {a:?} -> {b:?} (string mismatch)");
    }
    for r in &d.rows {
        let verdict = if r.breach { "BREACH" } else { "ok    " };
        match (r.old, r.new) {
            (Some(a), Some(b)) => {
                let _ = writeln!(
                    out,
                    "{verdict} {}: {} -> {} ({:+.2}% vs ±{:.1}%)",
                    r.key,
                    fmt_f64(a),
                    fmt_f64(b),
                    r.rel * 100.0,
                    r.tol * 100.0
                );
            }
            (a, b) => {
                let _ = writeln!(
                    out,
                    "{verdict} {}: present only in {} document",
                    r.key,
                    if a.is_some() { "old" } else { "new" }
                );
                let _ = b;
            }
        }
    }
    let breaches = d.str_mismatches.len() + d.rows.iter().filter(|r| r.breach).count();
    let _ = writeln!(
        out,
        "compared {} keys: {} changed, {} breached",
        d.compared,
        d.rows.len() + d.str_mismatches.len(),
        breaches
    );
    out
}

/// Parses `diff` CLI arguments (after the subcommand) into file paths and
/// options. A malformed or unknown flag, a negative or non-finite
/// tolerance, or other than two files is an error.
pub fn parse_diff_args(args: Args) -> Result<(String, String, DiffOptions), CliError> {
    let tolerance = |s: &str| match s.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!("bad tolerance {s:?} (want a finite fraction >= 0)")),
    };
    let mut args = args;
    let mut files = Vec::new();
    let mut opts = DiffOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tol" => {
                let v: String = args.value(&arg)?;
                match v.split_once('=') {
                    Some((key, frac)) => {
                        let t = tolerance(frac).map_err(|e| CliError::new(&arg, e))?;
                        opts.per_key.push((key.to_string(), t));
                    }
                    None => opts.tol = tolerance(&v).map_err(|e| CliError::new(&arg, e))?,
                }
            }
            "--ignore" => opts.ignore.push(args.value(&arg)?),
            flag if flag.starts_with("--") => return Err(CliError::unknown(flag)),
            _ => files.push(arg),
        }
    }
    match <[String; 2]>::try_from(files) {
        Ok([old, new]) => Ok((old, new, opts)),
        Err(files) => Err(CliError::new(
            "<old.json> <new.json>",
            format!("expected exactly two report files, got {}", files.len()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matches() {
        assert!(glob_match("host.*", "host.elapsed_ns"));
        assert!(glob_match("*_ns", "lat.demand_p99_ns"));
        assert!(glob_match("throughput", "throughput"));
        assert!(!glob_match("host.*", "throughput"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("a*b", "acbc"));
        assert!(glob_match("a*b*c", "aXbYc"));
    }

    #[test]
    fn flatten_produces_dotted_keys() {
        let doc = Json::parse(r#"{"a": {"b": 1, "c": [2, 3]}, "s": "x", "t": true}"#).unwrap();
        let (mut n, mut s) = (BTreeMap::new(), BTreeMap::new());
        flatten(&doc, "", &mut n, &mut s);
        assert_eq!(n["a.b"], 1.0);
        assert_eq!(n["a.c.0"], 2.0);
        assert_eq!(n["a.c.1"], 3.0);
        assert_eq!(n["t"], 1.0);
        assert_eq!(s["s"], "x");
    }

    #[test]
    fn diff_flags_breaches_and_respects_bands() {
        let a = Json::parse(r#"{"throughput": 100.0, "wall_ns": 50.0, "x": 1}"#).unwrap();
        let b = Json::parse(r#"{"throughput": 89.0, "wall_ns": 51.0, "x": 1}"#).unwrap();
        let d = diff_reports(&a, &b, &DiffOptions::default());
        // throughput moved -11% (> 5%), wall_ns moved ~2% (ok), x unchanged.
        assert!(d.has_breach());
        let t = d.rows.iter().find(|r| r.key == "throughput").unwrap();
        assert!(t.breach);
        let w = d.rows.iter().find(|r| r.key == "wall_ns").unwrap();
        assert!(!w.breach);
        assert!(!d.rows.iter().any(|r| r.key == "x"));
    }

    #[test]
    fn diff_per_key_tolerance_and_ignore() {
        let a = Json::parse(r#"{"throughput": 100.0, "host": {"elapsed_ns": 5}}"#).unwrap();
        let b = Json::parse(r#"{"throughput": 92.0, "host": {"elapsed_ns": 500}}"#).unwrap();
        let opts = DiffOptions {
            tol: 0.05,
            per_key: vec![("throughput".to_string(), 0.10)],
            ignore: vec!["host.*".to_string()],
        };
        let d = diff_reports(&a, &b, &opts);
        assert!(!d.has_breach(), "{}", render_diff(&d));
    }

    #[test]
    fn diff_missing_key_is_a_breach() {
        let a = Json::parse(r#"{"x": 1, "y": 2}"#).unwrap();
        let b = Json::parse(r#"{"x": 1}"#).unwrap();
        let d = diff_reports(&a, &b, &DiffOptions::default());
        assert!(d.has_breach());
        assert!(d.rows.iter().any(|r| r.key == "y" && r.new.is_none()));
    }

    #[test]
    fn diff_string_mismatch_is_a_breach() {
        let a = Json::parse(r#"{"schema": "memtis-report-v1"}"#).unwrap();
        let b = Json::parse(r#"{"schema": "memtis-report-v2"}"#).unwrap();
        let d = diff_reports(&a, &b, &DiffOptions::default());
        assert!(d.has_breach());
    }

    #[test]
    fn zero_reference_does_not_divide_by_zero() {
        let a = Json::parse(r#"{"x": 0}"#).unwrap();
        let b = Json::parse(r#"{"x": 1}"#).unwrap();
        let d = diff_reports(&a, &b, &DiffOptions::default());
        assert!(d.rows[0].rel.is_finite());
        assert!(d.rows[0].breach);
    }

    #[test]
    fn parse_diff_args_handles_flags() {
        let args: Vec<String> = [
            "a.json",
            "--tol",
            "0.1",
            "b.json",
            "--tol",
            "throughput=0.02",
            "--ignore",
            "host.*",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (a, b, opts) = parse_diff_args(Args::new(args)).unwrap();
        assert_eq!(a, "a.json");
        assert_eq!(b, "b.json");
        assert_eq!(opts.tol, 0.1);
        assert_eq!(opts.per_key, vec![("throughput".to_string(), 0.02)]);
        assert_eq!(opts.ignore, vec!["host.*".to_string()]);
        assert!(parse_diff_args(Args::new(["one.json"])).is_err());
        assert!(parse_diff_args(Args::new(["a", "b", "--bogus"])).is_err());
        assert!(parse_diff_args(Args::new(["a", "b", "--tol", "NaN"])).is_err());
    }

    #[test]
    fn report_json_roundtrips_through_parser() {
        let report = RunReport {
            workload: "selftest".to_string(),
            policy: "MEMTIS".to_string(),
            wall_ns: 1.5e6,
            accesses: 1000,
            sim_events: 1100,
            lat: vec![
                ("demand_count".to_string(), 1000.0),
                ("demand_p99_ns".to_string(), 404.0),
            ],
            ..Default::default()
        };
        let body = report_to_json(&report, None);
        let doc = Json::parse(&body).expect("report JSON must parse");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(doc.get("accesses").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            doc.get("lat")
                .unwrap()
                .get("demand_p99_ns")
                .unwrap()
                .as_f64(),
            Some(404.0)
        );
        // A document diffed against itself is clean.
        let d = diff_reports(&doc, &doc, &DiffOptions::default());
        assert!(!d.has_breach());
        assert!(d.rows.is_empty());
    }
}
