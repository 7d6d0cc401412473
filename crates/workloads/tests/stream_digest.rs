//! Pins the generator's output: an FNV-1a digest over every event (address,
//! load/store, alloc/free) of each benchmark stream. Any change to slot
//! placement, Zipf sampling or RNG consumption order changes a digest, so
//! generator optimizations must leave every constant here untouched.
//!
//! Each stream is driven twice — through `fill` with a 1024-event buffer
//! and through `next_event` — and both must give the recorded digest.

use memtis_sim::prelude::{Access, AccessKind, AccessStream, WorkloadEvent};
use memtis_workloads::{Benchmark, Scale, SpecStream};

const ACCESSES: u64 = 200_000;
const CHUNK: usize = 1024;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn event(&mut self, ev: &WorkloadEvent) {
        match *ev {
            WorkloadEvent::Access(a) => {
                self.word(match a.kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                });
                self.word(a.vaddr.0);
            }
            WorkloadEvent::Alloc { addr, bytes, thp } => {
                self.word(2 + u64::from(thp));
                self.word(addr.0);
                self.word(bytes);
            }
            WorkloadEvent::Free { addr, bytes } => {
                self.word(4);
                self.word(addr.0);
                self.word(bytes);
            }
        }
    }
}

/// Digest of the stream driven through `fill`.
fn digest_fill(mut s: SpecStream) -> u64 {
    let mut h = Fnv::new();
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); CHUNK];
    loop {
        let n = s.fill(&mut buf);
        if n == 0 {
            return h.0;
        }
        buf[..n].iter().for_each(|ev| h.event(ev));
    }
}

/// Digest of the stream driven through `next_event`.
fn digest_next(mut s: SpecStream) -> u64 {
    let mut h = Fnv::new();
    while let Some(ev) = s.next_event() {
        h.event(&ev);
    }
    h.0
}

fn check(bench: Benchmark, scale: Scale, seed: u64, expect: u64) {
    let mk = || SpecStream::new(bench.spec(scale, ACCESSES), seed);
    let fill = digest_fill(mk());
    let next = digest_next(mk());
    assert_eq!(fill, next, "{}: fill and next_event disagree", bench.name());
    assert_eq!(
        fill,
        expect,
        "{} at scale {} seed {seed}: digest {fill:#018x}",
        bench.name(),
        scale.0
    );
}

#[test]
fn test_scale_streams_are_pinned() {
    let expect: [(Benchmark, u64); 8] = [
        (Benchmark::Graph500, 0xd467_4de9_2873_5a5d),
        (Benchmark::PageRank, 0x0056_2e42_e4e6_8f6a),
        (Benchmark::XsBench, 0xfa27_ed68_003f_f3c1),
        (Benchmark::Liblinear, 0xe3bd_a8e1_2c17_b7ea),
        (Benchmark::Silo, 0x8bd1_0ae1_e372_a4ef),
        (Benchmark::Btree, 0xcef9_6bb9_187c_58b0),
        (Benchmark::Bwaves, 0x36eb_fb14_b5a1_cb9b),
        (Benchmark::Roms, 0x46a1_8762_10dd_ac20),
    ];
    for (bench, digest) in expect {
        check(bench, Scale::TEST, 1, digest);
    }
}

/// Default scale covers the multi-huge-page dense branch and Zipf tables
/// large enough to span many guide buckets.
#[test]
fn default_scale_streams_are_pinned() {
    for (bench, digest) in [
        (Benchmark::Roms, 0x396a_2256_249a_695f),
        (Benchmark::Silo, 0xdaed_bac7_c38e_3a3a),
        (Benchmark::Btree, 0xa760_5890_4268_df71),
    ] {
        check(bench, Scale::DEFAULT, 4242, digest);
    }
}
