//! Access counts and energy accounting.

use std::fmt;
use std::ops::{Add, AddAssign, Mul};

use rfh_isa::access::{AccessKind, AccessPlan, Datapath, Place, RegAccess};
use rfh_isa::Level;

use crate::model::EnergyModel;

/// Register file hierarchy access counts, in units of one 128-bit (4-thread
/// cluster) access.
///
/// Reads and writes that interact with the shared datapath (SFU/MEM/TEX)
/// are tracked separately because their wire runs are longer (Table 4); the
/// LRF is reachable only from the private datapath, so it has no shared
/// variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// MRF reads (either datapath; both sit 1 mm away).
    pub mrf_read: u64,
    /// MRF writes.
    pub mrf_write: u64,
    /// ORF reads consumed by the private (ALU) datapath.
    pub orf_read_private: u64,
    /// ORF reads consumed by the shared datapath.
    pub orf_read_shared: u64,
    /// ORF writes produced by the private datapath.
    pub orf_write_private: u64,
    /// ORF writes produced by the shared datapath (e.g. load results).
    pub orf_write_shared: u64,
    /// LRF reads (private datapath only).
    pub lrf_read: u64,
    /// LRF writes (private datapath only).
    pub lrf_write: u64,
}

impl AccessCounts {
    /// Total reads across the hierarchy.
    pub fn total_reads(&self) -> u64 {
        self.mrf_read + self.orf_read_private + self.orf_read_shared + self.lrf_read
    }

    /// Total writes across the hierarchy.
    pub fn total_writes(&self) -> u64 {
        self.mrf_write + self.orf_write_private + self.orf_write_shared + self.lrf_write
    }

    /// Reads per level, for reporting.
    pub fn reads(&self, level: Level) -> u64 {
        match level {
            Level::Mrf => self.mrf_read,
            Level::Orf => self.orf_read_private + self.orf_read_shared,
            Level::Lrf => self.lrf_read,
        }
    }

    /// Writes per level, for reporting.
    pub fn writes(&self, level: Level) -> u64 {
        match level {
            Level::Mrf => self.mrf_write,
            Level::Orf => self.orf_write_private + self.orf_write_shared,
            Level::Lrf => self.lrf_write,
        }
    }

    /// Tallies one resolved register-file access.
    ///
    /// This is the single mapping from the canonical [`RegAccess`] form to
    /// the count fields the energy model prices: reads and writes land at
    /// their level split by datapath, and a fill deposit is a private-side
    /// ORF write (its paired MRF read arrives as its own `Read` access).
    pub fn record(&mut self, access: &RegAccess) {
        let shared = access.datapath == Datapath::Shared;
        match (access.kind, access.place) {
            (AccessKind::Read, Place::Mrf) => self.mrf_read += 1,
            (AccessKind::Read, Place::Orf(_)) if shared => self.orf_read_shared += 1,
            (AccessKind::Read, Place::Orf(_)) => self.orf_read_private += 1,
            (AccessKind::Read, Place::Lrf(_)) => self.lrf_read += 1,
            (AccessKind::Fill, _) => self.orf_write_private += 1,
            (AccessKind::Write, Place::Mrf) => self.mrf_write += 1,
            (AccessKind::Write, Place::Orf(_)) if shared => self.orf_write_shared += 1,
            (AccessKind::Write, Place::Orf(_)) => self.orf_write_private += 1,
            (AccessKind::Write, Place::Lrf(_)) => self.lrf_write += 1,
        }
    }

    /// Tallies every access of a resolved instruction plan.
    pub fn record_plan(&mut self, plan: &AccessPlan) {
        for access in plan.accesses() {
            self.record(access);
        }
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(mut self, rhs: AccessCounts) -> AccessCounts {
        self += rhs;
        self
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        self.mrf_read += rhs.mrf_read;
        self.mrf_write += rhs.mrf_write;
        self.orf_read_private += rhs.orf_read_private;
        self.orf_read_shared += rhs.orf_read_shared;
        self.orf_write_private += rhs.orf_write_private;
        self.orf_write_shared += rhs.orf_write_shared;
        self.lrf_read += rhs.lrf_read;
        self.lrf_write += rhs.lrf_write;
    }
}

/// Every count multiplied by `n`: the counts of `n` identical, independent
/// repetitions (e.g. `n` warps issuing one instruction trace).
impl Mul<u64> for AccessCounts {
    type Output = AccessCounts;

    fn mul(self, n: u64) -> AccessCounts {
        AccessCounts {
            mrf_read: self.mrf_read * n,
            mrf_write: self.mrf_write * n,
            orf_read_private: self.orf_read_private * n,
            orf_read_shared: self.orf_read_shared * n,
            orf_write_private: self.orf_write_private * n,
            orf_write_shared: self.orf_write_shared * n,
            lrf_read: self.lrf_read * n,
            lrf_write: self.lrf_write * n,
        }
    }
}

/// Energy split into access and wire components per hierarchy level (all in
/// pJ), matching the stacking of the paper's Figure 14.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MRF bank access energy.
    pub mrf_access: f64,
    /// MRF wire energy.
    pub mrf_wire: f64,
    /// ORF bank access energy.
    pub orf_access: f64,
    /// ORF wire energy.
    pub orf_wire: f64,
    /// LRF access energy.
    pub lrf_access: f64,
    /// LRF wire energy.
    pub lrf_wire: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total(&self) -> f64 {
        self.mrf_access
            + self.mrf_wire
            + self.orf_access
            + self.orf_wire
            + self.lrf_access
            + self.lrf_wire
    }

    /// This breakdown scaled by `1 / baseline_total`, for normalized plots.
    pub fn normalized_to(&self, baseline_total: f64) -> EnergyBreakdown {
        let s = 1.0 / baseline_total;
        EnergyBreakdown {
            mrf_access: self.mrf_access * s,
            mrf_wire: self.mrf_wire * s,
            orf_access: self.orf_access * s,
            orf_wire: self.orf_wire * s,
            lrf_access: self.lrf_access * s,
            lrf_wire: self.lrf_wire * s,
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MRF {:.2}+{:.2} ORF {:.2}+{:.2} LRF {:.2}+{:.2} (total {:.2} pJ)",
            self.mrf_access,
            self.mrf_wire,
            self.orf_access,
            self.orf_wire,
            self.lrf_access,
            self.lrf_wire,
            self.total()
        )
    }
}

impl EnergyModel {
    /// Converts access counts into an access/wire energy breakdown for a
    /// hierarchy with `orf_entries` ORF entries per thread.
    ///
    /// # Panics
    ///
    /// Panics if `orf_entries` is outside the ORF table (1–8). A hierarchy
    /// with no ORF can simply leave the ORF counts at zero.
    pub fn energy(&self, c: &AccessCounts, orf_entries: usize) -> EnergyBreakdown {
        let orf = self.orf_access(orf_entries);
        let n = |x: u64| x as f64;
        EnergyBreakdown {
            mrf_access: n(c.mrf_read) * self.mrf_read_pj + n(c.mrf_write) * self.mrf_write_pj,
            mrf_wire: n(c.mrf_read + c.mrf_write) * self.wire_128(self.mrf_to_private_mm),
            orf_access: n(c.orf_read_private + c.orf_read_shared) * orf.read_pj
                + n(c.orf_write_private + c.orf_write_shared) * orf.write_pj,
            orf_wire: n(c.orf_read_private + c.orf_write_private)
                * self.wire_128(self.orf_to_private_mm)
                + n(c.orf_read_shared + c.orf_write_shared) * self.wire_128(self.orf_to_shared_mm),
            lrf_access: n(c.lrf_read) * self.lrf_read_pj + n(c.lrf_write) * self.lrf_write_pj,
            lrf_wire: n(c.lrf_read + c.lrf_write) * self.wire_128(self.lrf_to_private_mm),
        }
    }

    /// The energy the same traffic would cost on a single-level register
    /// file (every access served by the MRF) — the normalization baseline.
    pub fn baseline_energy(&self, total_reads: u64, total_writes: u64) -> EnergyBreakdown {
        let c = AccessCounts {
            mrf_read: total_reads,
            mrf_write: total_writes,
            ..Default::default()
        };
        self.energy(&c, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::paper()
    }

    #[test]
    fn totals_sum_all_levels() {
        let c = AccessCounts {
            mrf_read: 1,
            mrf_write: 2,
            orf_read_private: 3,
            orf_read_shared: 4,
            orf_write_private: 5,
            orf_write_shared: 6,
            lrf_read: 7,
            lrf_write: 8,
        };
        assert_eq!(c.total_reads(), 15);
        assert_eq!(c.total_writes(), 21);
        assert_eq!(c.reads(Level::Orf), 7);
        assert_eq!(c.writes(Level::Orf), 11);
        assert_eq!(c.reads(Level::Lrf), 7);
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let mut a = AccessCounts {
            mrf_read: 1,
            ..Default::default()
        };
        let b = AccessCounts {
            mrf_read: 2,
            lrf_write: 5,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.mrf_read, 3);
        assert_eq!(a.lrf_write, 5);
        let c = a + b;
        assert_eq!(c.mrf_read, 5);
    }

    #[test]
    fn scaling_equals_repeated_addition() {
        let a = AccessCounts {
            mrf_read: 3,
            orf_read_shared: 1,
            lrf_write: 2,
            ..Default::default()
        };
        assert_eq!(a * 3, a + a + a);
    }

    #[test]
    fn record_maps_accesses_to_fields() {
        use rfh_isa::access::{AccessKind, AccessSlot, Datapath, Place, RegAccess};
        use rfh_isa::{Reg, Width};
        let mk = |kind, place, datapath| RegAccess {
            kind,
            place,
            datapath,
            reg: Reg::new(0),
            slot: AccessSlot::Src(0),
            width: Width::W32,
        };
        let mut c = AccessCounts::default();
        c.record(&mk(AccessKind::Read, Place::Mrf, Datapath::Shared));
        c.record(&mk(AccessKind::Read, Place::Orf(1), Datapath::Shared));
        c.record(&mk(AccessKind::Read, Place::Lrf(None), Datapath::Private));
        c.record(&mk(AccessKind::Fill, Place::Orf(0), Datapath::Private));
        c.record(&mk(AccessKind::Write, Place::Orf(2), Datapath::Shared));
        c.record(&mk(AccessKind::Write, Place::Lrf(None), Datapath::Private));
        c.record(&mk(AccessKind::Write, Place::Mrf, Datapath::Shared));
        assert_eq!(c.mrf_read, 1);
        assert_eq!(c.orf_read_shared, 1);
        assert_eq!(c.lrf_read, 1);
        assert_eq!(c.orf_write_private, 1, "the fill is a private ORF write");
        assert_eq!(c.orf_write_shared, 1);
        assert_eq!(c.lrf_write, 1);
        assert_eq!(c.mrf_write, 1);
    }

    #[test]
    fn mrf_only_energy_matches_hand_calculation() {
        let c = AccessCounts {
            mrf_read: 10,
            mrf_write: 5,
            ..Default::default()
        };
        let e = model().energy(&c, 3);
        assert!((e.mrf_access - (10.0 * 8.0 + 5.0 * 11.0)).abs() < 1e-9);
        let wire_per_access = model().wire_128(1.0);
        assert!((e.mrf_wire - 15.0 * wire_per_access).abs() < 1e-9);
        assert_eq!(e.orf_access, 0.0);
        assert_eq!(e.lrf_wire, 0.0);
    }

    #[test]
    fn shared_orf_wire_costs_more_than_private() {
        let private = AccessCounts {
            orf_read_private: 10,
            ..Default::default()
        };
        let shared = AccessCounts {
            orf_read_shared: 10,
            ..Default::default()
        };
        let m = model();
        let ep = m.energy(&private, 3);
        let es = m.energy(&shared, 3);
        assert_eq!(ep.orf_access, es.orf_access);
        assert!(es.orf_wire > ep.orf_wire);
        assert!(
            (es.orf_wire / ep.orf_wire - 2.0).abs() < 1e-9,
            "0.4 mm vs 0.2 mm"
        );
    }

    #[test]
    fn lrf_is_far_cheaper_than_mrf() {
        let m = model();
        let lrf = AccessCounts {
            lrf_read: 100,
            lrf_write: 100,
            ..Default::default()
        };
        let mrf = AccessCounts {
            mrf_read: 100,
            mrf_write: 100,
            ..Default::default()
        };
        assert!(m.energy(&lrf, 1).total() < m.energy(&mrf, 1).total() / 5.0);
    }

    #[test]
    fn baseline_energy_equals_all_mrf_traffic() {
        let m = model();
        let b = m.baseline_energy(100, 50);
        let c = AccessCounts {
            mrf_read: 100,
            mrf_write: 50,
            ..Default::default()
        };
        assert_eq!(b, m.energy(&c, 1));
    }

    #[test]
    fn normalization_scales_every_component() {
        let c = AccessCounts {
            mrf_read: 10,
            lrf_read: 10,
            ..Default::default()
        };
        let e = model().energy(&c, 3);
        let n = e.normalized_to(e.total() * 2.0);
        assert!((n.total() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ideal_lrf_bound_is_near_paper() {
        // Paper §7: "An ideal system where every access is to the LRF would
        // reduce register file energy by 87%." With 1.6 reads and 0.8
        // writes per instruction, check we land in the same regime (>80%).
        let m = model();
        let ideal = AccessCounts {
            lrf_read: 160,
            lrf_write: 80,
            ..Default::default()
        };
        let base = m.baseline_energy(160, 80).total();
        let saving = 1.0 - m.energy(&ideal, 1).total() / base;
        assert!(saving > 0.80 && saving < 0.95, "saving = {saving}");
    }
}
