//! One repetition of a workload, its checks, and the loop that repeats it.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use memtis_baselines::TppPolicy;
use memtis_bench::{driver_config, machine_for, CapacityKind};
use memtis_core::MemtisPolicy;
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, SpecStream, TraceFileReader};

use crate::layers::{Clocked, HostProbe, PolicyTimes, Timed, TimedObs, Translated};
use crate::metrics::{peak_rss_mib, quantile};
use crate::{Args, Workload, CHECKPOINT_EVERY, RATIO, SCALE, UNIT_COST_ACCESSES};

/// Deterministic policy-internal counters.
#[derive(Debug, Default, Clone)]
pub(crate) struct PolicyCounters {
    pub(crate) samples: u64,
    pub(crate) coolings: u64,
    pub(crate) adaptations: u64,
    pub(crate) split_candidates: u64,
}

/// Reads counters (and, for the timing wrapper, times) off a policy.
pub(crate) trait PolicyProbe {
    fn counters(&self) -> PolicyCounters;
    fn times(&self) -> Option<PolicyTimes> {
        None
    }
}

impl PolicyProbe for MemtisPolicy {
    fn counters(&self) -> PolicyCounters {
        PolicyCounters {
            samples: self.stats.samples,
            coolings: self.stats.coolings,
            adaptations: self.stats.adaptations,
            split_candidates: self.stats.split_candidates,
        }
    }
}

impl PolicyProbe for TppPolicy {
    fn counters(&self) -> PolicyCounters {
        PolicyCounters::default()
    }
}

impl<P: PolicyProbe> PolicyProbe for Timed<P> {
    fn counters(&self) -> PolicyCounters {
        self.inner.counters()
    }
    fn times(&self) -> Option<PolicyTimes> {
        Some(self.t.clone())
    }
}

/// Observer wrapper times: `record` calls and ns, `on_window` calls and ns.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ObsTimes {
    pub(crate) record_calls: u64,
    pub(crate) record_ns: u64,
    pub(crate) window_calls: u64,
    pub(crate) window_ns: u64,
}

/// Reads the event count (and, for the timing wrapper, times) off an
/// observer.
pub(crate) trait ObsProbe {
    /// Events recorded, for the service workload's work floor.
    fn events(&self) -> u64;
    fn times(&self) -> Option<ObsTimes> {
        None
    }
}

impl ObsProbe for NopObserver {
    fn events(&self) -> u64 {
        0
    }
}

impl ObsProbe for TracingObserver {
    fn events(&self) -> u64 {
        self.ring.pushed()
    }
}

impl<O: ObsProbe> ObsProbe for TimedObs<O> {
    fn events(&self) -> u64 {
        self.inner.events()
    }
    fn times(&self) -> Option<ObsTimes> {
        Some(ObsTimes {
            record_calls: self.record_calls,
            record_ns: self.record_ns,
            window_calls: self.window_calls,
            window_ns: self.window_ns,
        })
    }
}

/// The event source of a repetition: generated, or replayed from a file.
enum Source {
    Spec(SpecStream),
    Trace(TraceFileReader),
}

impl AccessStream for Source {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        match self {
            Source::Spec(s) => s.next_event(),
            Source::Trace(s) => s.next_event(),
        }
    }
    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        match self {
            Source::Spec(s) => s.fill(buf),
            Source::Trace(s) => s.fill(buf),
        }
    }
    fn skip_events(&mut self, n: u64) {
        match self {
            Source::Spec(s) => s.skip_events(n),
            Source::Trace(s) => s.skip_events(n),
        }
    }
    fn position(&self) -> Option<u64> {
        match self {
            Source::Spec(s) => s.position(),
            Source::Trace(s) => s.position(),
        }
    }
    fn name(&self) -> &str {
        match self {
            Source::Spec(s) => s.name(),
            Source::Trace(s) => s.name(),
        }
    }
}

/// Everything a repetition needs that does not change between them.
pub(crate) struct Ctx {
    pub(crate) w: &'static Workload,
    pub(crate) bench: Benchmark,
    pub(crate) seed: u64,
    /// Recorded trace of the service workload.
    pub(crate) trace_path: Option<PathBuf>,
    pub(crate) clock_overhead: u64,
}

impl Ctx {
    pub(crate) fn machine(&self) -> MachineConfig {
        machine_for(self.bench, SCALE, RATIO, CapacityKind::Nvm)
    }

    fn driver(&self) -> DriverConfig {
        let mut d = driver_config();
        d.migration_bw = self.w.migration_bw;
        d
    }

    fn open(&self) -> Result<Source, String> {
        match &self.trace_path {
            Some(path) => TraceFileReader::open(path, self.bench.name())
                .map(Source::Trace)
                .map_err(|e| format!("cannot open trace {}: {e}", path.display())),
            None => Ok(Source::Spec(SpecStream::new(
                self.bench.spec(SCALE, self.w.accesses),
                self.seed,
            ))),
        }
    }

    /// Hash of every setting that shapes the simulated outcome.
    pub(crate) fn fingerprint(&self) -> (u64, String) {
        let desc = format!(
            "scale={:?} ratio={} policy={} bw={:?} chunk={} accesses={} checkpoint_every={:?} \
             service={} machine={:?} driver={:?}",
            SCALE,
            RATIO.label(),
            self.w.policy,
            self.w.migration_bw,
            self.driver().chunk,
            self.w.accesses,
            self.w.service.then_some(CHECKPOINT_EVERY),
            self.w.service,
            self.machine(),
            self.driver(),
        );
        (Fnv1a::new().mix_str(&desc).finish(), desc)
    }
}

/// Which wrappers a repetition runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The workload as a user runs it: no wrappers.
    Plain,
    /// Policy and observer wrapped for layer timing.
    Traced,
    /// The service workload with `NopObserver` in place of its tracer.
    NoObs,
}

/// Summary of one repetition. Everything large (report, checkpoint,
/// chunk intervals) is dropped or reduced before it is kept, so the
/// process's peak memory does not grow with the repetition count.
pub(crate) struct Rep {
    pub(crate) kind: Kind,
    /// One over the host probe's mean [`HostProbe::slowdown`] before and
    /// after this repetition: below 1 when the host ran slow. Host times
    /// are multiplied by it to express them in reference-host ns.
    pub(crate) host_speed: f64,
    pub(crate) setup_ns: u64,
    pub(crate) run_ns: u64,
    pub(crate) events: u64,
    /// Median and p99 of the host ns between consecutive chunks.
    pub(crate) chunk_p50_ns: f64,
    pub(crate) chunk_p99_ns: f64,
    pub(crate) fill_ns: u64,
    pub(crate) fill_calls: u64,
    pub(crate) fill_events: u64,
    pub(crate) saves: u64,
    pub(crate) save_ns: u64,
    pub(crate) obs_events: u64,
    pub(crate) counters: PolicyCounters,
    pub(crate) policy_times: Option<PolicyTimes>,
    pub(crate) obs_times: Option<ObsTimes>,
}

/// A finished repetition: its summary and what the checks need.
struct Done {
    rep: Rep,
    report: RunReport,
    /// The latest checkpoint taken (service workload).
    checkpoint: Vec<u8>,
    stream_error: Option<String>,
    /// The workload's access sequence translated through the final page
    /// table, when asked for (isolated TLB/LLC costs).
    translated: Vec<Translated>,
}

/// Runs one repetition: setup, then the whole stream (with checkpoints for
/// the service workload).
fn run_rep<P, O>(
    ctx: &Ctx,
    kind: Kind,
    make_policy: impl FnOnce() -> P,
    make_obs: impl FnOnce() -> O,
    want_translated: bool,
) -> Result<Done, String>
where
    P: TieringPolicy + PolicyProbe,
    O: Observer + ObsProbe,
{
    let t0 = Instant::now();
    let mut sim = Simulation::with_observer(ctx.machine(), make_policy(), ctx.driver(), make_obs());
    let mut stream = Clocked::new(ctx.open()?, ctx.clock_overhead);
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let (mut saves, mut save_ns, mut checkpoint) = (0, 0, Vec::new());
    let report = if ctx.w.service {
        loop {
            let target = (sim.sim_events() / CHECKPOINT_EVERY + 1) * CHECKPOINT_EVERY;
            match sim.run_until(&mut stream, Some(target)) {
                Ok(Some(report)) => break report,
                Ok(None) => {
                    // Only the latest checkpoint is kept; freeing the last
                    // one first keeps peak memory independent of how the
                    // allocator places the two.
                    drop(std::mem::take(&mut checkpoint));
                    let ts = Instant::now();
                    checkpoint = sim.snapshot();
                    save_ns += ts.elapsed().as_nanos() as u64;
                    saves += 1;
                }
                Err(e) => return Err(format!("run failed: {e:?}")),
            }
        }
    } else {
        sim.run(&mut stream)
            .map_err(|e| format!("run failed: {e:?}"))?
    };
    let run_ns = t1.elapsed().as_nanos() as u64;

    let stream_error = match &mut stream.inner {
        Source::Trace(r) => r.take_error().map(|e| format!("trace decode error: {e}")),
        Source::Spec(_) => None,
    };
    let intervals: Vec<f64> = stream.intervals_ns.iter().map(|&ns| ns as f64).collect();
    Ok(Done {
        rep: Rep {
            kind,
            host_speed: 1.0,
            setup_ns,
            run_ns,
            events: report.sim_events,
            chunk_p50_ns: quantile(&intervals, 0.5),
            chunk_p99_ns: quantile(&intervals, 0.99),
            fill_ns: stream.fill_ns,
            fill_calls: stream.calls,
            fill_events: stream.events,
            saves,
            save_ns,
            obs_events: sim.observer().events(),
            counters: sim.policy().counters(),
            policy_times: sim.policy().times(),
            obs_times: sim.observer().times(),
        },
        translated: if want_translated {
            translate(ctx, sim.machine())
        } else {
            Vec::new()
        },
        report,
        checkpoint,
        stream_error,
    })
}

/// The first accesses of the workload, translated through `machine`'s
/// final page table (unmapped pages keep their virtual address).
fn translate(ctx: &Ctx, machine: &Machine) -> Vec<Translated> {
    let mut stream = SpecStream::new(ctx.bench.spec(SCALE, ctx.w.accesses), ctx.seed);
    let mut out = Vec::with_capacity(UNIT_COST_ACCESSES);
    while out.len() < UNIT_COST_ACCESSES {
        match stream.next_event() {
            Some(WorkloadEvent::Access(a)) => {
                let vp = a.vaddr.base_page();
                let offset = a.vaddr.0 & (BASE_PAGE_SIZE - 1);
                out.push(match machine.translate(vp) {
                    Some(t) => (vp, t.size, PhysAddr(t.frame.addr().0 + offset)),
                    None => (vp, PageSize::Base, PhysAddr(a.vaddr.0)),
                });
            }
            Some(_) => {}
            None => break,
        }
    }
    out
}

/// Restores `checkpoint` into a fresh simulation and finishes the run from
/// the checkpoint's stream position. Returns the report and the host ns of
/// `Simulation::restore`.
pub(crate) fn resume<P: TieringPolicy, O: Observer>(
    ctx: &Ctx,
    policy: P,
    obs: O,
    checkpoint: &[u8],
) -> Result<(RunReport, u64), String> {
    let mut sim = Simulation::with_observer(ctx.machine(), policy, ctx.driver(), obs);
    let t0 = Instant::now();
    sim.restore(checkpoint)
        .map_err(|e| format!("restore failed: {e:?}"))?;
    let restore_ns = t0.elapsed().as_nanos() as u64;
    let mut stream = ctx.open()?;
    let report = sim
        .run(&mut stream)
        .map_err(|e| format!("resumed run failed: {e:?}"))?;
    if let Source::Trace(r) = &mut stream {
        if let Some(e) = r.take_error() {
            return Err(format!("trace decode error after restore: {e}"));
        }
    }
    Ok((report, restore_ns))
}

/// Digest of the simulated outcome: wall time, machine counters (migration
/// included), TLB, LLC and telemetry windows. Host timings are excluded.
fn digest(r: &RunReport) -> u64 {
    Fnv1a::new()
        .mix_str(&r.workload)
        .mix_str(&r.policy)
        .mix_u64(r.wall_ns.to_bits())
        .mix_u64(r.sim_events)
        .mix_u64(r.accesses)
        .mix_str(&format!("{:?}", r.stats))
        .mix_str(&format!("{:?}", r.tlb))
        .mix_str(&format!("{:?}", r.llc))
        .mix_str(&format!("{:?}", r.windows))
        .finish()
}

/// The checks every repetition must pass. Returns what failed.
fn check(ctx: &Ctx, done: &Done) -> Vec<String> {
    let (rep, r) = (&done.rep, &done.report);
    let m = &r.stats.migration;
    let mut errs = Vec::new();
    if r.workload != ctx.w.bench || r.policy != ctx.w.policy {
        errs.push(format!(
            "resolved {:?} under {:?}, want {:?} under {:?}",
            r.workload, r.policy, ctx.w.bench, ctx.w.policy
        ));
    }
    if r.hist_underflows != 0 {
        errs.push(format!("{} histogram underflows", r.hist_underflows));
    }
    if let Some(e) = &done.stream_error {
        errs.push(e.clone());
    }
    // Work floors: each workload must still do the work it was chosen for.
    let floors: &[(&str, bool)] = match ctx.w.name {
        "roms_memtis" => &[("PEBS samples", rep.counters.samples > 0)],
        "silo_memtis_service" => &[
            ("splits", m.splits > 0),
            ("checkpoints", rep.saves > 0),
            (
                "observer events",
                rep.kind == Kind::NoObs || rep.obs_events > 0,
            ),
        ],
        "btree_tpp" => &[
            ("hint faults", r.stats.hint_faults > 0),
            ("migration traffic", m.traffic_4k() > 0),
        ],
        "btree_memtis_bwcap" => &[
            (
                "engine transfers",
                m.in_flight_peak > 0 && m.traffic_4k() > 0,
            ),
            (
                "completed transfer ends",
                rep.policy_times
                    .as_ref()
                    .is_none_or(|t| t.xfer_completed > 0),
            ),
        ],
        _ => &[],
    };
    for (what, ok) in floors {
        if !ok {
            errs.push(format!("work floor: no {what}"));
        }
    }
    errs
}

/// Tallies of one benchmark run.
#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    reference: Option<u64>,
}

impl Outcome {
    /// Counts `rep` (or its error), checking it and its digest against the
    /// first successful repetition.
    fn admit(&mut self, ctx: &Ctx, done: Result<Done, String>) -> Option<Done> {
        self.attempted += 1;
        let done = match done {
            Ok(done) => done,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: repetition failed: {e}");
                return None;
            }
        };
        let kind = done.rep.kind;
        let mut errs = check(ctx, &done);
        let d = digest(&done.report);
        match self.reference {
            None => self.reference = Some(d),
            Some(want) if want != d => errs.push(format!(
                "{kind:?} run digest {d:016x} differs from {want:016x}"
            )),
            Some(_) => {}
        }
        if !errs.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: {kind:?} repetition failed: {}", errs.join("; "));
        }
        Some(done)
    }

    /// Counts the restore-and-resume check against the reference digest.
    pub(crate) fn admit_resume(&mut self, res: Result<(RunReport, u64), String>) -> Option<u64> {
        self.attempted += 1;
        let outcome = res.and_then(|(report, ns)| {
            let d = digest(&report);
            match self.reference {
                Some(want) if want == d => Ok(ns),
                want => Err(format!(
                    "resumed run digest {d:016x} differs from uninterrupted {want:016x?}"
                )),
            }
        });
        match outcome {
            Ok(ns) => Some(ns),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {e}");
                None
            }
        }
    }
}

/// The observer of the service workload: events and the flight recorder.
pub(crate) fn service_observer() -> TracingObserver {
    TracingObserver {
        flight: true,
        ..TracingObserver::events_only()
    }
}

/// Runs one repetition of `kind`. Non-service workloads run under
/// `NopObserver`.
fn rep_of<P, F>(ctx: &Ctx, kind: Kind, make_policy: &F, translated: bool) -> Result<Done, String>
where
    P: TieringPolicy + PolicyProbe,
    F: Fn() -> P,
{
    let overhead = ctx.clock_overhead;
    match (kind, ctx.w.service) {
        (Kind::Plain, true) => run_rep(ctx, kind, make_policy, service_observer, false),
        (Kind::Plain, false) | (Kind::NoObs, _) => {
            run_rep(ctx, kind, make_policy, || NopObserver, false)
        }
        (Kind::Traced, service) => {
            let spent = Rc::new(Cell::new(0));
            let policy = || Timed::new(make_policy(), spent.clone(), overhead);
            if service {
                let obs = || TimedObs::new(service_observer(), spent.clone(), overhead);
                run_rep(ctx, kind, policy, obs, translated)
            } else {
                let obs = || TimedObs::new(NopObserver, spent.clone(), overhead);
                run_rep(ctx, kind, policy, obs, translated)
            }
        }
    }
}

/// The repetitions of one benchmark run.
#[derive(Default)]
pub(crate) struct Runs {
    pub(crate) reps: Vec<Rep>,
    /// The report of the first repetition (all digests agree with it).
    pub(crate) report: Option<RunReport>,
    /// A checkpoint of the service workload, for the restore check.
    pub(crate) checkpoint: Vec<u8>,
    /// The translated access sequence of one traced repetition.
    pub(crate) translated: Vec<Translated>,
    /// Peak resident memory of the process through set-up and the warm-up
    /// repetition, in MiB, before the host probe allocates its buffers.
    pub(crate) peak_rss_mib: f64,
}

/// Repetitions of `kinds` in turn, after one unmeasured warm-up, until
/// `seconds` have passed and every kind has at least `min_each` measured
/// repetitions.
pub(crate) fn repeat<P, F>(
    args: &Args,
    ctx: &Ctx,
    make_policy: &F,
    kinds: &[Kind],
    min_each: usize,
    outcome: &mut Outcome,
) -> Runs
where
    P: TieringPolicy + PolicyProbe,
    F: Fn() -> P,
{
    let mut runs = Runs::default();
    let keep = |runs: &mut Runs, done: Done| {
        runs.report.get_or_insert(done.report);
        if runs.checkpoint.is_empty() {
            runs.checkpoint = done.checkpoint;
        }
        if runs.translated.is_empty() {
            runs.translated = done.translated;
        }
        done.rep
    };
    if let Some(done) = outcome.admit(ctx, rep_of(ctx, Kind::Plain, make_policy, false)) {
        keep(&mut runs, done);
    }
    runs.peak_rss_mib = peak_rss_mib();
    let mut probe = HostProbe::new();
    let mut before = probe.slowdown();
    let start = Instant::now();
    for round in 0.. {
        for &kind in kinds {
            let want = kind == Kind::Traced && runs.translated.is_empty();
            if let Some(done) = outcome.admit(ctx, rep_of(ctx, kind, make_policy, want)) {
                let mut rep = keep(&mut runs, done);
                let after = probe.slowdown();
                rep.host_speed = 2.0 / (before + after);
                before = after;
                println!(
                    "perfbench rep {}: {kind:?} setup_ns={} run_ns={} events_per_s={:.0} \
                     chunk_p50_ns={:.0} chunk_p99_ns={:.0} host_speed={:.3}",
                    runs.reps.len(),
                    rep.setup_ns,
                    rep.run_ns,
                    rep.events as f64 / (rep.run_ns as f64 * 1e-9),
                    rep.chunk_p50_ns,
                    rep.chunk_p99_ns,
                    rep.host_speed,
                );
                runs.reps.push(rep);
            }
        }
        if round + 1 >= min_each && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    runs
}
