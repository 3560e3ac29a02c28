//! Allocation configuration: hierarchy shape and optimization toggles.

use std::fmt;
use std::ops::RangeInclusive;

/// The ORF sizes a user may select, in entries per thread: the rows of
/// the energy model's ORF table (Table 3). `rfhc` flags and the daemon's
/// `config.orf` share this bound, so no size is accepted that cannot be
/// priced.
pub const ORF_SIZES: RangeInclusive<usize> = 1..=rfh_energy::ORF_TABLE.len();

/// How the last result file is organized (paper §3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LrfMode {
    /// No LRF: a two-level ORF + MRF hierarchy.
    #[default]
    None,
    /// One LRF bank per lane (a single entry per thread).
    Unified,
    /// One LRF bank per operand slot (A, B, C) per lane; a value is only
    /// LRF-eligible if all its reads use one slot.
    Split,
}

impl LrfMode {
    /// Whether any LRF exists.
    pub const fn enabled(self) -> bool {
        !matches!(self, LrfMode::None)
    }

    /// Number of LRF banks per lane: none, one unified bank, or one bank
    /// per operand slot (A, B, C).
    pub const fn banks(self) -> usize {
        match self {
            LrfMode::None => 0,
            LrfMode::Unified => 1,
            LrfMode::Split => 3,
        }
    }

    /// Parses the `none|unified|split` spelling shared by the `rfhc
    /// --lrf` flag and the daemon's `config.lrf` field.
    pub fn parse(name: &str) -> Option<LrfMode> {
        match name {
            "none" => Some(LrfMode::None),
            "unified" => Some(LrfMode::Unified),
            "split" => Some(LrfMode::Split),
            _ => None,
        }
    }
}

impl fmt::Display for LrfMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LrfMode::None => write!(f, "no LRF"),
            LrfMode::Unified => write!(f, "unified LRF"),
            LrfMode::Split => write!(f, "split LRF"),
        }
    }
}

/// Configuration of the allocation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocConfig {
    /// ORF entries per thread (0 disables the ORF; the paper sweeps 1–8).
    pub orf_entries: usize,
    /// LRF organization.
    pub lrf: LrfMode,
    /// Enable partial range allocation (§4.3).
    pub partial_ranges: bool,
    /// Enable read operand allocation (§4.4).
    pub read_operands: bool,
    /// §7 idealization: assume the LRF/ORF survive descheduling (strands
    /// end only at backward branches). Not realizable in hardware with
    /// temporally-shared upper levels; used by the limit study.
    pub ideal_no_deschedule_split: bool,
    /// Divide each candidate's energy savings by the static instruction
    /// slots it would occupy (Figure 7's priority). Disabling this ranks
    /// by raw savings and lets long-lived values hog entries; kept as an
    /// ablation knob.
    pub occupancy_priority: bool,
}

impl AllocConfig {
    /// The single-level baseline: everything in the MRF.
    pub const fn baseline() -> Self {
        AllocConfig {
            orf_entries: 0,
            lrf: LrfMode::None,
            partial_ranges: false,
            read_operands: false,
            ideal_no_deschedule_split: false,
            occupancy_priority: true,
        }
    }

    /// The §4.2 baseline algorithm alone: a two-level hierarchy without the
    /// partial-range / read-operand optimizations.
    pub const fn two_level_plain(orf_entries: usize) -> Self {
        AllocConfig {
            orf_entries,
            ..AllocConfig::baseline()
        }
    }

    /// A two-level hierarchy with all optimizations (the paper's "SW" bars).
    pub const fn two_level(orf_entries: usize) -> Self {
        AllocConfig {
            orf_entries,
            partial_ranges: true,
            read_operands: true,
            ..AllocConfig::baseline()
        }
    }

    /// A three-level hierarchy with all optimizations; `split` selects the
    /// split-LRF design ("SW LRF Split", the paper's most efficient
    /// configuration at 3 ORF entries).
    pub const fn three_level(orf_entries: usize, split: bool) -> Self {
        AllocConfig {
            orf_entries,
            lrf: if split {
                LrfMode::Split
            } else {
                LrfMode::Unified
            },
            partial_ranges: true,
            read_operands: true,
            ..AllocConfig::baseline()
        }
    }

    /// Whether this configuration has any upper level at all.
    pub const fn is_baseline(&self) -> bool {
        self.orf_entries == 0 && !self.lrf.enabled()
    }
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig::three_level(3, true)
    }
}

impl fmt::Display for AllocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ORF entries, {}", self.orf_entries, self.lrf)?;
        if self.partial_ranges {
            write!(f, ", partial ranges")?;
        }
        if self.read_operands {
            write!(f, ", read operands")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(AllocConfig::baseline().is_baseline());
        assert!(!AllocConfig::two_level(3).is_baseline());
        assert_eq!(AllocConfig::two_level(3).orf_entries, 3);
        assert!(!AllocConfig::two_level_plain(3).partial_ranges);
        assert_eq!(AllocConfig::three_level(3, true).lrf, LrfMode::Split);
        assert_eq!(AllocConfig::three_level(3, false).lrf, LrfMode::Unified);
        assert_eq!(AllocConfig::default(), AllocConfig::three_level(3, true));
    }

    #[test]
    fn lrf_mode_enabled() {
        assert!(!LrfMode::None.enabled());
        assert!(LrfMode::Unified.enabled());
        assert!(LrfMode::Split.enabled());
    }

    #[test]
    fn display_mentions_options() {
        let s = AllocConfig::three_level(3, true).to_string();
        assert!(s.contains("3 ORF"));
        assert!(s.contains("split"));
        assert!(s.contains("partial"));
    }
}
