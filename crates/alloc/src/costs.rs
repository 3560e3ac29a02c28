//! Per-access energy costs and the savings functions of Figures 6 and 9.

use rfh_energy::EnergyModel;
use rfh_isa::Unit;

use rfh_analysis::ReadRef;

/// Flattened per-access costs (access + wire, pJ per 128-bit access) for a
/// fixed ORF size, as seen by the allocator's savings functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Costs {
    /// MRF read delivered to the private datapath.
    pub mrf_read_private: f64,
    /// MRF read delivered to the shared datapath.
    pub mrf_read_shared: f64,
    /// MRF write.
    pub mrf_write: f64,
    /// ORF read by the private datapath.
    pub orf_read_private: f64,
    /// ORF read by the shared datapath.
    pub orf_read_shared: f64,
    /// ORF write from the private datapath.
    pub orf_write_private: f64,
    /// ORF write from the shared datapath.
    pub orf_write_shared: f64,
    /// LRF read (private only).
    pub lrf_read: f64,
    /// LRF write (private only).
    pub lrf_write: f64,
}

impl Costs {
    /// Derives costs from an energy model for a hierarchy with
    /// `orf_entries` entries per thread (clamped to at least 1 for lookup,
    /// since a 0-entry configuration never computes ORF savings).
    pub fn from_model(model: &EnergyModel, orf_entries: usize) -> Costs {
        let orf = model.orf_access(orf_entries.max(1));
        Costs {
            mrf_read_private: model.mrf_read_pj + model.wire_128(model.mrf_to_private_mm),
            mrf_read_shared: model.mrf_read_pj + model.wire_128(model.mrf_to_shared_mm),
            mrf_write: model.mrf_write_pj + model.wire_128(model.mrf_to_private_mm),
            orf_read_private: orf.read_pj + model.wire_128(model.orf_to_private_mm),
            orf_read_shared: orf.read_pj + model.wire_128(model.orf_to_shared_mm),
            orf_write_private: orf.write_pj + model.wire_128(model.orf_to_private_mm),
            orf_write_shared: orf.write_pj + model.wire_128(model.orf_to_shared_mm),
            lrf_read: model.lrf_read_pj + model.wire_128(model.lrf_to_private_mm),
            lrf_write: model.lrf_write_pj + model.wire_128(model.lrf_to_private_mm),
        }
    }

    /// Cost of one MRF read consumed by `unit`.
    pub fn mrf_read(&self, unit: Unit) -> f64 {
        if unit.is_shared() {
            self.mrf_read_shared
        } else {
            self.mrf_read_private
        }
    }

    /// Cost of one ORF read consumed by `unit`.
    pub fn orf_read(&self, unit: Unit) -> f64 {
        if unit.is_shared() {
            self.orf_read_shared
        } else {
            self.orf_read_private
        }
    }

    /// Cost of one ORF write produced by `unit`.
    pub fn orf_write(&self, unit: Unit) -> f64 {
        if unit.is_shared() {
            self.orf_write_shared
        } else {
            self.orf_write_private
        }
    }

    /// Figure 6: energy saved by allocating a produced value to the ORF.
    ///
    /// `reads` are the covered reads (each is one 32-bit operand access, so
    /// reads of 64-bit values appear once per half and are *not* scaled).
    /// `members` are the producing definitions as `(producer_shared,
    /// width_slots)`: more than one for a merge group, each paying an ORF
    /// write from its datapath per entry it writes (a 64-bit value writes
    /// two). `live_out` values must also be written to the MRF, so the
    /// MRF-write saving only applies to values dying in the strand.
    pub fn orf_write_savings(
        &self,
        reads: &[ReadRef],
        members: impl IntoIterator<Item = (bool, usize)>,
        live_out: bool,
    ) -> f64 {
        let mut savings: f64 = reads
            .iter()
            .map(|r| self.mrf_read(r.unit) - self.orf_read(r.unit))
            .sum();
        for (producer_shared, width_slots) in members {
            let w = width_slots as f64;
            let unit = if producer_shared {
                Unit::Mem
            } else {
                Unit::Alu
            };
            savings -= self.orf_write(unit) * w;
            if !live_out {
                savings += self.mrf_write * w;
            }
        }
        savings
    }

    /// Figure 6 with LRF energies: saving of allocating a produced value to
    /// the LRF (private datapath only, 32-bit only).
    pub fn lrf_write_savings(&self, reads: &[ReadRef], writes: usize, live_out: bool) -> f64 {
        let read_gain: f64 = reads
            .iter()
            .map(|r| self.mrf_read(r.unit) - self.lrf_read)
            .sum();
        let mut savings = read_gain - writes as f64 * self.lrf_write;
        if !live_out {
            savings += writes as f64 * self.mrf_write;
        }
        savings
    }

    /// Figure 9: energy saved by allocating a *read operand* to the ORF.
    /// The first read still comes from the MRF (and fills the ORF entry),
    /// so only reads of **later instructions** gain — operands of the same
    /// instruction are read simultaneously and cannot see the fill — and
    /// the fill write is pure overhead.
    pub fn read_operand_savings(&self, reads: &[ReadRef]) -> f64 {
        let Some(first) = reads.first() else {
            return f64::NEG_INFINITY;
        };
        let gain: f64 = reads
            .iter()
            .filter(|r| r.pos > first.pos)
            .map(|r| self.mrf_read(r.unit) - self.orf_read(r.unit))
            .sum();
        if gain == 0.0 {
            return f64::NEG_INFINITY;
        }
        gain - self.orf_write_private
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::{BlockId, InstrRef, Reg, Slot};

    fn read(pos: usize, unit: Unit) -> ReadRef {
        ReadRef {
            at: InstrRef {
                block: BlockId::new(0),
                index: pos,
            },
            slot: Slot::A,
            reg: Reg::new(0),
            pos,
            unit,
        }
    }

    fn costs() -> Costs {
        Costs::from_model(&EnergyModel::paper(), 3)
    }

    #[test]
    fn reads_cost_less_from_upper_levels() {
        let c = costs();
        assert!(c.orf_read_private < c.mrf_read_private);
        assert!(c.lrf_read < c.orf_read_private);
        assert!(c.orf_read_shared < c.mrf_read_shared);
        assert!(
            c.orf_read_shared > c.orf_read_private,
            "longer wire to shared units"
        );
    }

    #[test]
    fn single_read_dying_value_saves_energy() {
        // One read + death in strand: saves an MRF read and an MRF write,
        // pays an ORF write — clearly profitable (the dominant GPU case).
        let c = costs();
        let r = [read(1, Unit::Alu)];
        assert!(c.orf_write_savings(&r, [(false, 1)], false) > 0.0);
    }

    #[test]
    fn live_out_single_read_is_marginal() {
        let c = costs();
        let r = [read(1, Unit::Alu)];
        let dying = c.orf_write_savings(&r, [(false, 1)], false);
        let live = c.orf_write_savings(&r, [(false, 1)], true);
        assert!(live < dying);
        assert!((dying - live - c.mrf_write).abs() < 1e-9);
    }

    #[test]
    fn more_reads_save_more() {
        let c = costs();
        let r1 = [read(1, Unit::Alu)];
        let r3 = [read(1, Unit::Alu), read(2, Unit::Alu), read(3, Unit::Alu)];
        assert!(
            c.orf_write_savings(&r3, [(false, 1)], true)
                > c.orf_write_savings(&r1, [(false, 1)], true)
        );
    }

    #[test]
    fn merge_groups_pay_per_definition() {
        // For live-out values a second definition is pure cost (another ORF
        // write with no offsetting MRF-write saving); for dying values each
        // extra definition also elides an MRF write, so it helps.
        let c = costs();
        let r = [read(2, Unit::Alu)];
        let one_live = c.orf_write_savings(&r, [(false, 1)], true);
        let two_live = c.orf_write_savings(&r, [(false, 1); 2], true);
        assert!(
            two_live < one_live,
            "a second definition costs another ORF write"
        );
        assert!((one_live - two_live - c.orf_write_private).abs() < 1e-9);
    }

    #[test]
    fn wide_values_scale_write_costs_only() {
        let c = costs();
        let r = [read(1, Unit::Alu)];
        let narrow = c.orf_write_savings(&r, [(false, 1)], false);
        let wide = c.orf_write_savings(&r, [(false, 2)], false);
        let expected = narrow - c.orf_write_private + c.mrf_write;
        assert!(
            (wide - expected).abs() < 1e-9,
            "one extra entry write, one extra MRF write saved"
        );
    }

    #[test]
    fn lrf_beats_orf_for_private_reads() {
        let c = costs();
        let r = [read(1, Unit::Alu)];
        assert!(c.lrf_write_savings(&r, 1, false) > c.orf_write_savings(&r, [(false, 1)], false));
    }

    #[test]
    fn read_operand_needs_two_reads() {
        let c = costs();
        assert_eq!(
            c.read_operand_savings(&[read(0, Unit::Alu)]),
            f64::NEG_INFINITY
        );
        let many: Vec<ReadRef> = (0..8).map(|i| read(i, Unit::Alu)).collect();
        assert!(
            c.read_operand_savings(&many) > 0.0,
            "Figure 8b: 8 reads clearly profit"
        );
    }

    #[test]
    fn read_operand_savings_grow_with_reads() {
        // (N−1)·(MRFr − ORFr) − ORFw: profitable from two reads with the
        // paper's numbers, and each further read adds one read's gain.
        let c = costs();
        let two = [read(0, Unit::Alu), read(1, Unit::Alu)];
        let three = [read(0, Unit::Alu), read(1, Unit::Alu), read(2, Unit::Alu)];
        let s2 = c.read_operand_savings(&two);
        let s3 = c.read_operand_savings(&three);
        assert!(s2 > 0.0);
        assert!((s3 - s2 - (c.mrf_read_private - c.orf_read_private)).abs() < 1e-9);
    }
}
