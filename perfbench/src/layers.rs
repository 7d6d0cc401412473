//! Layer timing from outside the program: wrappers around the public
//! `AccessStream`, `TieringPolicy` and `Observer` interfaces that count
//! calls and time them with `Instant`, the isolated TLB/LLC unit-cost
//! measurement used to split the simulator's residual time, and the probe
//! that tracks how fast the host is running.
//!
//! Every wrapper forwards every trait method unchanged, so a wrapped run
//! simulates exactly the same machine as an unwrapped one; the benchmark
//! checks this by comparing report digests.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use memtis_sim::cache::Llc;
use memtis_sim::obs::profile::Profiler;
use memtis_sim::obs::{Event, SnapError, SnapReader, SnapWriter};
use memtis_sim::prelude::*;
use memtis_sim::tlb::Tlb;

/// One in `ACCESS_SAMPLE` per-event `on_access` calls is timed, chosen at
/// random so the sample cannot lock onto a policy's own sampling period;
/// the sampled mean is scaled by the exact call count. Timing all of them
/// (two clock reads per access) inflated the per-event workloads by about
/// half and buried the shares in clock overhead.
pub const ACCESS_SAMPLE: u64 = 32;

/// Host cost of one `Instant::now()` read, in ns.
/// Subtracted from every timed interval so clock reads are not billed to
/// the layer being timed.
pub fn clock_overhead_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..64 {
        let t0 = Instant::now();
        for _ in 0..256 {
            black_box(Instant::now());
        }
        best = best.min(t0.elapsed().as_nanos() as u64 / 256);
    }
    best
}

/// Host ns per operation of [`HostProbe`]'s kernel over its 1 MiB and its
/// 4 MiB buffer on a quiet host of the kind the benchmark was sized on
/// (4th-generation Xeon, KVM guest with 2 vCPUs): about the fifth
/// percentile of the kernel run beside 946 repetitions of the four
/// workloads.
pub const PROBE_REF_NS: [f64; 2] = [2.2, 2.4];

/// A fixed memory-bound kernel, independent of the simulator's code, timed
/// beside every repetition to track how fast the host is running.
///
/// Other tenants of the host slow identical repetitions by up to 1.7x, in
/// phases of seconds to minutes, through the shared cache and memory. The
/// kernel updates random words of a buffer. Over a 1 MiB buffer (within
/// the core's own cache) it tracks the neighbours' load on the core; over
/// a 4 MiB buffer, their load on the shared cache and memory. Over 25-s
/// windows the simulator's slowdown moved further than the 1 MiB kernel's
/// and less far than the 4 MiB kernel's (log-log slopes 1.4 to 3.2 and 0.4
/// to 0.9 over the four workloads), so the probe reports the geometric
/// mean of the two.
pub struct HostProbe {
    bufs: [Vec<u64>; 2],
}

impl HostProbe {
    const OPS: u64 = 1_000_000;

    /// Allocates the probe's buffers.
    pub fn new() -> Self {
        HostProbe {
            bufs: [vec![1; 1 << 17], vec![1; 1 << 19]],
        }
    }

    /// How many times slower than the reference host this host runs now:
    /// the geometric mean over both buffers of the kernel's ns per
    /// operation over [`PROBE_REF_NS`]. Each buffer gets one untimed pass
    /// first, so the timing does not depend on what the simulator left in
    /// the caches.
    pub fn slowdown(&mut self) -> f64 {
        let mut product = 1.0;
        for (buf, ref_ns) in self.bufs.iter_mut().zip(PROBE_REF_NS) {
            Self::kernel(buf);
            let t0 = Instant::now();
            Self::kernel(buf);
            product *= t0.elapsed().as_nanos() as f64 / Self::OPS as f64 / ref_ns;
        }
        product.sqrt()
    }

    fn kernel(buf: &mut [u64]) {
        let mask = buf.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..Self::OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = &mut buf[x as usize & mask];
            *w = w.wrapping_add(i ^ x);
        }
        black_box(buf);
    }
}

/// Nanoseconds since `t0`, minus the clock-read overhead.
#[inline]
fn since(t0: Instant, overhead: u64) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_sub(overhead)
}

/// Stream wrapper: records the host time between consecutive `fill` calls
/// (one chunk of simulation each) and the time spent inside `fill`.
pub struct Clocked<S> {
    /// The wrapped stream.
    pub inner: S,
    overhead: u64,
    last_entry: Option<Instant>,
    /// Host ns between consecutive `fill` entries.
    pub intervals_ns: Vec<u64>,
    /// Host ns spent inside `fill`.
    pub fill_ns: u64,
    /// `fill` calls.
    pub calls: u64,
    /// Events delivered through `fill`.
    pub events: u64,
}

impl<S: AccessStream> Clocked<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, overhead: u64) -> Self {
        Clocked {
            inner,
            overhead,
            last_entry: None,
            intervals_ns: Vec::new(),
            fill_ns: 0,
            calls: 0,
            events: 0,
        }
    }
}

impl<S: AccessStream> AccessStream for Clocked<S> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.inner.next_event()
    }

    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        let t0 = Instant::now();
        if let Some(prev) = self.last_entry {
            self.intervals_ns
                .push(t0.duration_since(prev).as_nanos() as u64);
        }
        self.last_entry = Some(t0);
        let n = self.inner.fill(buf);
        self.fill_ns += since(t0, self.overhead);
        self.calls += 1;
        self.events += n as u64;
        n
    }

    fn skip_events(&mut self, n: u64) {
        self.inner.skip_events(n)
    }

    fn position(&self) -> Option<u64> {
        self.inner.position()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Host time and call counts of each policy entry point.
#[derive(Debug, Default, Clone)]
pub struct PolicyTimes {
    /// `on_access_batch` self time (ns) and records delivered.
    pub batch_ns: u64,
    pub batch_records: u64,
    /// `on_access` calls, and the calls timed with their self time (ns).
    pub access_calls: u64,
    pub access_timed: u64,
    pub access_timed_ns: u64,
    /// `on_hint_fault` self time (ns) and calls.
    pub hint_ns: u64,
    pub hint_calls: u64,
    /// `tick` self time (ns) and calls.
    pub tick_ns: u64,
    pub tick_calls: u64,
    /// `on_transfer_end` self time (ns), calls, and completed transfers.
    pub xfer_ns: u64,
    pub xfer_calls: u64,
    pub xfer_completed: u64,
    /// `alloc_tier` + `on_alloc` self time (ns).
    pub alloc_ns: u64,
}

impl PolicyTimes {
    /// `on_access` time scaled from the timed sample to every call.
    pub fn access_ns(&self) -> f64 {
        if self.access_timed == 0 {
            0.0
        } else {
            self.access_timed_ns as f64 * self.access_calls as f64 / self.access_timed as f64
        }
    }

    /// Every timed policy entry point, in ns.
    pub fn total_ns(&self) -> f64 {
        (self.batch_ns + self.hint_ns + self.tick_ns + self.xfer_ns + self.alloc_ns) as f64
            + self.access_ns()
    }
}

/// Policy wrapper timing each entry point. Time the wrapped observer spent
/// inside a policy call (events the policy emits) is subtracted, so policy
/// and `obs` shares do not overlap.
pub struct Timed<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Accumulated times and counts.
    pub t: PolicyTimes,
    obs_ns: Rc<Cell<u64>>,
    overhead: u64,
    /// xorshift state picking the timed `on_access` calls.
    rng: u64,
}

impl<P: TieringPolicy> Timed<P> {
    /// Wraps `inner`; `obs_ns` is the observer wrapper's running total.
    pub fn new(inner: P, obs_ns: Rc<Cell<u64>>, overhead: u64) -> Self {
        Timed {
            inner,
            t: PolicyTimes::default(),
            obs_ns,
            overhead,
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Runs `f` on the inner policy and returns its result and self time.
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> (R, u64) {
        let obs0 = self.obs_ns.get();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let ns = since(t0, self.overhead);
        (r, ns.saturating_sub(self.obs_ns.get() - obs0))
    }
}

impl<P: TieringPolicy> TieringPolicy for Timed<P> {
    fn descriptor(&self) -> PolicyDescriptor {
        self.inner.descriptor()
    }
    fn init(&mut self, ops: &mut PolicyOps<'_>) {
        self.inner.init(ops)
    }
    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) -> TierId {
        let (tier, ns) = self.time(|p| p.alloc_tier(ops, vpage, size));
        self.t.alloc_ns += ns;
        tier
    }
    fn on_alloc(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize, tier: TierId) {
        let ((), ns) = self.time(|p| p.on_alloc(ops, vpage, size, tier));
        self.t.alloc_ns += ns;
    }
    fn on_free(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) {
        self.inner.on_free(ops, vpage, size)
    }
    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        self.t.access_calls += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng.is_multiple_of(ACCESS_SAMPLE) {
            let ((), ns) = self.time(|p| p.on_access(ops, access, outcome));
            self.t.access_timed += 1;
            self.t.access_timed_ns += ns;
        } else {
            self.inner.on_access(ops, access, outcome)
        }
    }
    fn batch_safe(&self) -> bool {
        self.inner.batch_safe()
    }
    fn batch_record_filter(&self) -> RecordFilter {
        self.inner.batch_record_filter()
    }
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        let ((), ns) = self.time(|p| p.on_access_batch(ops, batch));
        self.t.batch_ns += ns;
        self.t.batch_records += batch.len() as u64;
    }
    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        let ((), ns) = self.time(|p| p.on_hint_fault(ops, vpage));
        self.t.hint_ns += ns;
        self.t.hint_calls += 1;
    }
    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        let ((), ns) = self.time(|p| p.tick(ops));
        self.t.tick_ns += ns;
        self.t.tick_calls += 1;
    }
    fn on_transfer_end(&mut self, ops: &mut PolicyOps<'_>, end: &TransferEnd) {
        let ((), ns) = self.time(|p| p.on_transfer_end(ops, end));
        self.t.xfer_ns += ns;
        self.t.xfer_calls += 1;
        self.t.xfer_completed += u64::from(end.aborted.is_none());
    }
    fn dedicated_daemon_cores(&self) -> f64 {
        self.inner.dedicated_daemon_cores()
    }
    fn timeline(&self, out: &mut Vec<(&'static str, f64)>) {
        self.inner.timeline(out)
    }
    fn histogram_bins(&self, out: &mut Vec<u64>) {
        self.inner.histogram_bins(out)
    }
    fn hist_underflows(&self) -> u64 {
        self.inner.hist_underflows()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Observer wrapper timing `record` and `on_window`. Its running total is
/// shared with [`Timed`] so the policy wrapper can subtract it.
pub struct TimedObs<O> {
    /// The wrapped observer.
    pub inner: O,
    /// `record` calls and `on_window` calls.
    pub record_calls: u64,
    pub window_calls: u64,
    /// Host ns spent in `record` and in `on_window`.
    pub record_ns: u64,
    pub window_ns: u64,
    spent: Rc<Cell<u64>>,
    overhead: u64,
}

impl<O: Observer> TimedObs<O> {
    /// Wraps `inner`, adding its time to `spent`.
    pub fn new(inner: O, spent: Rc<Cell<u64>>, overhead: u64) -> Self {
        TimedObs {
            inner,
            record_calls: 0,
            window_calls: 0,
            record_ns: 0,
            window_ns: 0,
            spent,
            overhead,
        }
    }
}

impl<O: Observer> Observer for TimedObs<O> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record(&mut self, event: Event) {
        let t0 = Instant::now();
        self.inner.record(event);
        let ns = since(t0, self.overhead);
        self.record_ns += ns;
        self.record_calls += 1;
        self.spent.set(self.spent.get() + ns);
    }
    fn on_window(&mut self, sample: &WindowSample) {
        let t0 = Instant::now();
        self.inner.on_window(sample);
        let ns = since(t0, self.overhead);
        self.window_ns += ns;
        self.window_calls += 1;
        self.spent.set(self.spent.get() + ns);
    }
    fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.inner.profiler()
    }
    fn flight_enabled(&self) -> bool {
        self.inner.flight_enabled()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Isolated unit costs of the translation and LLC structures, measured by
/// replaying an address sequence through a fresh [`Tlb`] and [`Llc`] built
/// from the run's machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// Host ns per TLB lookup (including the insert after a miss).
    pub tlb_ns_per_lookup: f64,
    /// Host ns per LLC access.
    pub llc_ns_per_access: f64,
}

/// One access of the replayed sequence: virtual page, mapping size, and
/// physical address.
pub type Translated = (VirtPage, PageSize, PhysAddr);

/// Times the TLB and the LLC on `seq`, best of three passes each (the
/// best pass is the one least disturbed by the host), in reference-host ns
/// (see [`HostProbe`]).
pub fn unit_costs(cfg: &MachineConfig, seq: &[Translated]) -> UnitCosts {
    let n = seq.len().max(1) as f64;
    let mut tlb_best = f64::MAX;
    let mut llc_best = f64::MAX;
    let mut probe = HostProbe::new();
    let before = probe.slowdown();
    for _ in 0..3 {
        let mut tlb = Tlb::new(&cfg.tlb);
        let t0 = Instant::now();
        for &(vp, size, _) in seq {
            if !tlb.lookup(vp, size) {
                tlb.insert(vp, size);
            }
        }
        tlb_best = tlb_best.min(t0.elapsed().as_nanos() as f64 / n);
        black_box(tlb.stats.hits);

        let mut llc = Llc::new(cfg.llc_bytes);
        let t0 = Instant::now();
        for &(_, _, pa) in seq {
            llc.access(pa);
        }
        llc_best = llc_best.min(t0.elapsed().as_nanos() as f64 / n);
        black_box(llc.stats.hits);
    }
    let host_speed = 2.0 / (before + probe.slowdown());
    UnitCosts {
        tlb_ns_per_lookup: tlb_best * host_speed,
        llc_ns_per_access: llc_best * host_speed,
    }
}
