//! Statistics over repetitions, and the end-to-end and per-layer metrics.

use std::collections::BTreeMap;

use memtis_sim::prelude::*;

use crate::run::{repeat, resume, service_observer, Ctx, Kind, Outcome, PolicyProbe, Rep};
use crate::{layers, Args, MIN_REPS};

/// Metric values with their units, by name.
pub(crate) type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run's tallies, its metrics, and the report all repetitions agreed on.
pub(crate) type Measured = (Outcome, Metrics, Option<RunReport>);

/// End-to-end metrics from untraced repetitions.
pub(crate) fn untraced<P, F>(args: &Args, ctx: &Ctx, make_policy: &F) -> Measured
where
    P: TieringPolicy + PolicyProbe,
    F: Fn() -> P,
{
    let mut outcome = Outcome::default();
    let runs = repeat(
        args,
        ctx,
        make_policy,
        &[Kind::Plain],
        MIN_REPS,
        &mut outcome,
    );
    if ctx.w.service {
        let res = resume(ctx, make_policy(), service_observer(), &runs.checkpoint);
        outcome.admit_resume(res);
    }
    // When other tenants share the host's cores, identical repetitions
    // slow by up to 1.7x in phases of seconds. The median over every
    // repetition of the run was the steadiest estimate (see NOTES.md).
    let of =
        |f: &dyn Fn(&Rep) -> f64| -> f64 { median(&runs.reps.iter().map(f).collect::<Vec<_>>()) };
    println!(
        "perfbench samples: {} repetitions, each with {} chunk intervals",
        runs.reps.len(),
        runs.reps
            .first()
            .map_or(0, |r| r.fill_calls.saturating_sub(1)),
    );
    let mut m = Metrics::new();
    m.insert(
        "events_per_s",
        (
            of(&|r| r.events as f64 / (r.run_ns as f64 * r.host_speed * 1e-9)),
            "events/s",
        ),
    );
    m.insert(
        "setup_s",
        (of(&|r| r.setup_ns as f64 * r.host_speed * 1e-9), "s"),
    );
    m.insert(
        "chunk_p50_us",
        (of(&|r| r.chunk_p50_ns * r.host_speed * 1e-3), "us"),
    );
    m.insert(
        "chunk_p99_us",
        (of(&|r| r.chunk_p99_ns * r.host_speed * 1e-3), "us"),
    );
    m.insert("host_peak_rss_mb", (runs.peak_rss_mib, "MiB"));
    if let Some(r) = &runs.report {
        m.insert("sim_wall_ms", (r.wall_ns * 1e-6, "ms"));
        m.insert(
            "sim_fast_hit_ratio",
            (r.stats.fast_tier_hit_ratio(), "ratio"),
        );
    }
    (outcome, m, runs.report)
}

/// Per-layer metrics from wrapped repetitions, alternated with untraced
/// ones for the tracing overhead.
pub(crate) fn traced<P, F>(args: &Args, ctx: &Ctx, make_policy: &F) -> Measured
where
    P: TieringPolicy + PolicyProbe,
    F: Fn() -> P,
{
    let mut outcome = Outcome::default();
    let kinds: &[Kind] = if ctx.w.service {
        &[Kind::Plain, Kind::Traced, Kind::NoObs]
    } else {
        &[Kind::Plain, Kind::Traced]
    };
    let runs = repeat(args, ctx, make_policy, kinds, 2, &mut outcome);
    let restore_ns = if ctx.w.service {
        let res = resume(ctx, make_policy(), service_observer(), &runs.checkpoint);
        outcome.admit_resume(res).unwrap_or(0)
    } else {
        0
    };
    let of = |k: Kind| runs.reps.iter().filter(move |r| r.kind == k);
    let traced: Vec<&Rep> = of(Kind::Traced).collect();
    let (Some(first), Some(report)) = (traced.first(), &runs.report) else {
        return (outcome, Metrics::new(), runs.report);
    };
    // Ratio of the median run times of two kinds of repetition, minus 1.
    let overhead = |num: Kind, den: Kind| {
        let t = |k| {
            median(
                &of(k)
                    .map(|r| r.run_ns as f64 * r.host_speed)
                    .collect::<Vec<_>>(),
            )
        };
        ratio(t(num), t(den)) - 1.0
    };
    let k = traced.len() as f64;
    // Host times summed in reference-host ns; counts summed as they are.
    let sum_ns =
        |f: &dyn Fn(&Rep) -> f64| -> f64 { traced.iter().map(|r| f(r) * r.host_speed).sum() };
    let sum = |f: &dyn Fn(&Rep) -> f64| -> f64 { traced.iter().map(|r| f(r)).sum() };
    let total = sum_ns(&|r| r.run_ns as f64);
    let pt = |r: &Rep| r.policy_times.clone().unwrap_or_default();
    let ot = |r: &Rep| r.obs_times.unwrap_or_default();
    let share = |ns: f64| ratio(ns, total);

    let fill_ns = sum_ns(&|r| r.fill_ns as f64);
    let batch_ns = sum_ns(&|r| pt(r).batch_ns as f64);
    let access_ns = sum_ns(&|r| pt(r).access_ns());
    let hint_ns = sum_ns(&|r| pt(r).hint_ns as f64);
    let tick_ns = sum_ns(&|r| pt(r).tick_ns as f64);
    let xfer_ns = sum_ns(&|r| pt(r).xfer_ns as f64);
    let alloc_ns = sum_ns(&|r| pt(r).alloc_ns as f64);
    let record_ns = sum_ns(&|r| ot(r).record_ns as f64);
    let window_ns = sum_ns(&|r| ot(r).window_ns as f64);
    let save_ns = sum_ns(&|r| r.save_ns as f64);
    let policy_ns = sum_ns(&|r| pt(r).total_ns());
    let residual = 1.0 - share(fill_ns + policy_ns + record_ns + window_ns + save_ns);

    let t = pt(first);
    let o = ot(first);
    let c = &first.counters;
    let mig = &report.stats.migration;
    let tlb_lookups = (report.tlb.hits + report.tlb.misses) as f64;
    let llc_lookups = (report.llc.hits + report.llc.misses) as f64;
    let unit = layers::unit_costs(&ctx.machine(), &runs.translated);
    let translation_share = share(k * tlb_lookups * unit.tlb_ns_per_lookup);
    let llc_share = share(k * llc_lookups * unit.llc_ns_per_access);

    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.insert(name, (value, unit));
    };
    put("workloads.fill.share", share(fill_ns), "ratio");
    put(
        "workloads.fill.ns_per_event",
        ratio(fill_ns, sum(&|r| r.fill_events as f64)),
        "ns",
    );
    put("workloads.fill.calls", first.fill_calls as f64, "count");
    put("policy.on_access_batch.share", share(batch_ns), "ratio");
    put(
        "policy.on_access_batch.ns_per_record",
        ratio(batch_ns, sum(&|r| pt(r).batch_records as f64)),
        "ns",
    );
    put(
        "policy.on_access_batch.records",
        t.batch_records as f64,
        "count",
    );
    put("policy.memtis.samples", c.samples as f64, "count");
    put(
        "policy.memtis.sample_ratio",
        ratio(c.samples as f64, report.llc.misses as f64),
        "ratio",
    );
    put("policy.on_access.share", share(access_ns), "ratio");
    put("policy.on_access.calls", t.access_calls as f64, "count");
    put("policy.on_hint_fault.share", share(hint_ns), "ratio");
    put("policy.on_hint_fault.calls", t.hint_calls as f64, "count");
    put("policy.on_transfer_end.share", share(xfer_ns), "ratio");
    put("policy.on_transfer_end.calls", t.xfer_calls as f64, "count");
    put("policy.alloc.share", share(alloc_ns), "ratio");
    put("policy.tick.share", share(tick_ns), "ratio");
    put(
        "policy.tick.ns_per_call",
        ratio(tick_ns, sum(&|r| pt(r).tick_calls as f64)),
        "ns",
    );
    put("policy.tick.calls", t.tick_calls as f64, "count");
    put("policy.memtis.coolings", c.coolings as f64, "count");
    put("policy.memtis.adaptations", c.adaptations as f64, "count");
    put(
        "policy.memtis.split_candidates",
        c.split_candidates as f64,
        "count",
    );
    put("obs.record.calls", o.record_calls as f64, "count");
    put("obs.record.share", share(record_ns), "ratio");
    put("obs.on_window.calls", o.window_calls as f64, "count");
    put("obs.on_window.share", share(window_ns), "ratio");
    let obs_overhead = if ctx.w.service {
        overhead(Kind::Plain, Kind::NoObs)
    } else {
        0.0
    };
    put("obs.overhead_frac", obs_overhead, "ratio");
    put("snap.save.calls", first.saves as f64, "count");
    put(
        "snap.save.ns_per_call",
        ratio(save_ns, sum(&|r| r.saves as f64)),
        "ns",
    );
    put("snap.save.bytes", runs.checkpoint.len() as f64, "bytes");
    put("snap.restore.ns", restore_ns as f64, "ns");
    put("snap.share", share(save_ns), "ratio");
    put("sim.residual.share", residual, "ratio");
    put("sim.tlb.lookups", tlb_lookups, "count");
    put("sim.tlb.miss_ratio", report.tlb.miss_ratio(), "ratio");
    put("sim.tlb.ns_per_lookup", unit.tlb_ns_per_lookup, "ns");
    put("sim.llc.lookups", llc_lookups, "count");
    put("sim.llc.miss_ratio", report.llc.miss_ratio(), "ratio");
    put("sim.llc.ns_per_access", unit.llc_ns_per_access, "ns");
    put("sim.translation.share", translation_share, "ratio");
    put("sim.llc.share", llc_share, "ratio");
    put(
        "sim.other.share",
        residual - translation_share - llc_share,
        "ratio",
    );
    put("sim.shootdowns", report.stats.shootdowns as f64, "count");
    put("sim.hint_faults", report.stats.hint_faults as f64, "count");
    put("sim.engine.completed", t.xfer_completed as f64, "count");
    put("sim.migration.traffic_4k", mig.traffic_4k() as f64, "count");
    put("sim.migration.splits", mig.splits as f64, "count");
    put("sim.migration.failed", mig.failed as f64, "count");
    put("sim.migration.aborted", mig.aborted as f64, "count");
    put("sim.migration.recopies", mig.recopies as f64, "count");
    put(
        "sim.migration.in_flight_peak",
        mig.in_flight_peak as f64,
        "count",
    );
    put(
        "sim.migration.useful_ratio",
        ratio(
            mig.migrated_bytes as f64,
            (mig.migrated_bytes + mig.aborted_bytes) as f64,
        ),
        "ratio",
    );
    put(
        "trace.overhead_frac",
        overhead(Kind::Traced, Kind::Plain),
        "ratio",
    );
    println!(
        "perfbench samples: {} traced and {} untraced repetitions",
        traced.len(),
        runs.reps.len() - traced.len()
    );
    (outcome, m, runs.report)
}
