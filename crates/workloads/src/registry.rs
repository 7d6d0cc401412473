//! Benchmark registry — the paper's Table 2 as data.

use crate::scale::Scale;
use crate::spec::WorkloadSpec;

/// Identifier of one of the eight paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Graph500 generation + BFS.
    Graph500,
    /// GAP PageRank on the Twitter graph.
    PageRank,
    /// XSBench Monte Carlo cross-section lookup.
    XsBench,
    /// Liblinear on KDD12.
    Liblinear,
    /// Silo under YCSB-C.
    Silo,
    /// Mitosis Btree lookups.
    Btree,
    /// SPEC CPU 2017 603.bwaves_s.
    Bwaves,
    /// SPEC CPU 2017 654.roms_s.
    Roms,
}

impl Benchmark {
    /// All eight benchmarks, in the paper's Table 2 order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Graph500,
        Benchmark::PageRank,
        Benchmark::XsBench,
        Benchmark::Liblinear,
        Benchmark::Silo,
        Benchmark::Btree,
        Benchmark::Bwaves,
        Benchmark::Roms,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Graph500 => "Graph500",
            Benchmark::PageRank => "PageRank",
            Benchmark::XsBench => "XSBench",
            Benchmark::Liblinear => "Liblinear",
            Benchmark::Silo => "Silo",
            Benchmark::Btree => "Btree",
            Benchmark::Bwaves => "603.bwaves",
            Benchmark::Roms => "654.roms",
        }
    }

    /// Looks a benchmark up by its [`Benchmark::name`], ignoring ASCII
    /// case. Anything else — an abbreviation such as `"roms"` included — is
    /// `None`, so callers can reject it instead of guessing.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Paper RSS in GiB (Table 2).
    pub fn paper_rss_gb(self) -> f64 {
        match self {
            Benchmark::Graph500 => crate::graph500::PAPER_RSS_GB,
            Benchmark::PageRank => crate::pagerank::PAPER_RSS_GB,
            Benchmark::XsBench => crate::xsbench::PAPER_RSS_GB,
            Benchmark::Liblinear => crate::liblinear::PAPER_RSS_GB,
            Benchmark::Silo => crate::silo::PAPER_RSS_GB,
            Benchmark::Btree => crate::btree::PAPER_RSS_GB,
            Benchmark::Bwaves => crate::bwaves::PAPER_RSS_GB,
            Benchmark::Roms => crate::roms::PAPER_RSS_GB,
        }
    }

    /// Paper huge-page ratio (Table 2).
    pub fn paper_rhp(self) -> f64 {
        match self {
            Benchmark::Graph500 => crate::graph500::PAPER_RHP,
            Benchmark::PageRank => crate::pagerank::PAPER_RHP,
            Benchmark::XsBench => crate::xsbench::PAPER_RHP,
            Benchmark::Liblinear => crate::liblinear::PAPER_RHP,
            Benchmark::Silo => crate::silo::PAPER_RHP,
            Benchmark::Btree => crate::btree::PAPER_RHP,
            Benchmark::Bwaves => crate::bwaves::PAPER_RHP,
            Benchmark::Roms => crate::roms::PAPER_RHP,
        }
    }

    /// Table 2 description.
    pub fn description(self) -> &'static str {
        match self {
            Benchmark::Graph500 => crate::graph500::DESCRIPTION,
            Benchmark::PageRank => crate::pagerank::DESCRIPTION,
            Benchmark::XsBench => crate::xsbench::DESCRIPTION,
            Benchmark::Liblinear => crate::liblinear::DESCRIPTION,
            Benchmark::Silo => crate::silo::DESCRIPTION,
            Benchmark::Btree => crate::btree::DESCRIPTION,
            Benchmark::Bwaves => crate::bwaves::DESCRIPTION,
            Benchmark::Roms => crate::roms::DESCRIPTION,
        }
    }

    /// Builds the workload spec at the given scale and access budget.
    ///
    /// The per-phase budget split rounds down; any remainder is assigned to
    /// the last access-issuing phase so the stream emits exactly
    /// `total_accesses` accesses.
    pub fn spec(self, scale: Scale, total_accesses: u64) -> WorkloadSpec {
        let mut spec = self.spec_inner(scale, total_accesses);
        let emitted = spec.total_accesses();
        if emitted < total_accesses {
            if let Some(p) = spec.phases.iter_mut().rev().find(|p| !p.ops.is_empty()) {
                p.accesses += total_accesses - emitted;
            }
        }
        spec
    }

    fn spec_inner(self, scale: Scale, total_accesses: u64) -> WorkloadSpec {
        match self {
            Benchmark::Graph500 => crate::graph500::spec(scale, total_accesses),
            Benchmark::PageRank => crate::pagerank::spec(scale, total_accesses),
            Benchmark::XsBench => crate::xsbench::spec(scale, total_accesses),
            Benchmark::Liblinear => crate::liblinear::spec(scale, total_accesses),
            Benchmark::Silo => crate::silo::spec(scale, total_accesses),
            Benchmark::Btree => crate::btree::spec(scale, total_accesses),
            Benchmark::Bwaves => crate::bwaves::spec(scale, total_accesses),
            Benchmark::Roms => crate::roms::spec(scale, total_accesses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_matches_full_names_in_any_case() {
        for name in ["654.roms", "654.ROMS", "654.Roms"] {
            assert_eq!(Benchmark::from_name(name), Some(Benchmark::Roms));
        }
        assert_eq!(Benchmark::from_name("silo"), Some(Benchmark::Silo));
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        for bad in ["roms", "bwaves", "", "654.roms "] {
            assert_eq!(Benchmark::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn all_specs_validate_at_default_scale() {
        for b in Benchmark::ALL {
            let s = b.spec(Scale::DEFAULT, 100_000);
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(s.name, b.name());
        }
    }

    #[test]
    fn scaled_rss_tracks_paper_rss() {
        for b in Benchmark::ALL {
            let s = b.spec(Scale::DEFAULT, 1000);
            let scaled = s.total_bytes() as f64;
            let expect = b.paper_rss_gb() / 64.0 * (1u64 << 30) as f64;
            let err = (scaled - expect).abs() / expect;
            assert!(err < 0.12, "{}: {:.1}% off", b.name(), err * 100.0);
        }
    }

    #[test]
    fn rhp_ordering_matches_paper() {
        // Btree has the lowest huge-page ratio, XSBench the highest.
        let rhp = |b: Benchmark| {
            let s = b.spec(Scale::DEFAULT, 100);
            let thp: u64 = s.regions.iter().filter(|r| r.thp).map(|r| r.bytes).sum();
            thp as f64 / s.total_bytes() as f64
        };
        assert!(rhp(Benchmark::Btree) < rhp(Benchmark::Silo));
        assert!(rhp(Benchmark::Silo) < rhp(Benchmark::XsBench) + 1e-9);
    }
}
