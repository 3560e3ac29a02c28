//! Register file hierarchy placement annotations.
//!
//! The compiler encodes, in each instruction, whether the value produced
//! should be written to the LRF, ORF, MRF, or a combination, and which level
//! each read operand should come from (paper §3.1, §4.2). In hardware this
//! is expressed by partitioning the architectural register namespace; in the
//! IR we carry explicit annotations, which is equivalent and keeps the
//! namespace question orthogonal (see paper §6.5 for the encoding-cost
//! analysis, reproduced by `rfh-experiments::encoding`).

use std::fmt;

use crate::operand::Slot;

/// A level of the register file hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Last result file: 1 entry/thread, private-datapath only, cheapest.
    Lrf,
    /// Operand register file: a few entries/thread, reachable from both
    /// datapaths.
    Orf,
    /// Main register file: large banked SRAM holding all thread context.
    Mrf,
}

impl Level {
    /// All levels, upper (cheapest) first.
    pub const ALL: [Level; 3] = [Level::Lrf, Level::Orf, Level::Mrf];
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Lrf => write!(f, "LRF"),
            Level::Orf => write!(f, "ORF"),
            Level::Mrf => write!(f, "MRF"),
        }
    }
}

/// Where a source operand is read from.
///
/// Produced by the allocator in `rfh-alloc`; the default for every register
/// operand is the MRF (the single-level baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReadLoc {
    /// Read from the main register file.
    #[default]
    Mrf,
    /// Read from the given ORF entry (64-bit values also occupy
    /// `entry + 1`).
    Orf(u8),
    /// Read from the LRF. `bank` is `None` for a unified LRF and names the
    /// per-operand-slot bank in the split LRF design.
    Lrf(Option<Slot>),
    /// Read from the MRF *and* deposit the value into the given ORF entry:
    /// the first read of a read-operand allocation (paper §4.4, Figure 9).
    /// Costs one MRF read plus one ORF write.
    MrfFillOrf(u8),
}

impl ReadLoc {
    /// The hierarchy level this read is served from.
    pub const fn level(self) -> Level {
        match self {
            ReadLoc::Mrf | ReadLoc::MrfFillOrf(_) => Level::Mrf,
            ReadLoc::Orf(_) => Level::Orf,
            ReadLoc::Lrf(_) => Level::Lrf,
        }
    }

    /// The ORF entry this read fills, if it is a read-operand fill.
    pub const fn orf_fill(self) -> Option<u8> {
        match self {
            ReadLoc::MrfFillOrf(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for ReadLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadLoc::Mrf => write!(f, "MRF"),
            ReadLoc::Orf(e) => write!(f, "ORF{e}"),
            ReadLoc::Lrf(None) => write!(f, "LRF"),
            ReadLoc::Lrf(Some(s)) => write!(f, "LRF.{s}"),
            ReadLoc::MrfFillOrf(e) => write!(f, "MRF>ORF{e}"),
        }
    }
}

/// Where a produced value is written.
///
/// A value goes to the LRF *or* the ORF but never both (paper §4.6), and
/// optionally *also* to the MRF — either because it is live out of the
/// strand, or because only a partial range of its reads was allocated to
/// the upper level (paper §4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WriteLoc {
    /// Write only to the main register file (the baseline).
    #[default]
    Mrf,
    /// Write to the given ORF entry; `also_mrf` additionally writes the MRF
    /// in the same instruction (no writeback ever occurs later).
    Orf {
        /// Physical ORF entry index (64-bit values also occupy `entry + 1`).
        entry: u8,
        /// Whether the MRF copy is written simultaneously.
        also_mrf: bool,
    },
    /// Write to the LRF (`bank` as in [`ReadLoc::Lrf`]); `also_mrf` as for
    /// ORF writes.
    Lrf {
        /// Split-LRF bank, or `None` for a unified LRF.
        bank: Option<Slot>,
        /// Whether the MRF copy is written simultaneously.
        also_mrf: bool,
    },
}

impl WriteLoc {
    /// Whether this write touches the MRF.
    pub const fn writes_mrf(self) -> bool {
        matches!(
            self,
            WriteLoc::Mrf
                | WriteLoc::Orf { also_mrf: true, .. }
                | WriteLoc::Lrf { also_mrf: true, .. }
        )
    }

    /// The upper hierarchy level written, if any.
    pub const fn upper_level(self) -> Option<Level> {
        match self {
            WriteLoc::Mrf => None,
            WriteLoc::Orf { .. } => Some(Level::Orf),
            WriteLoc::Lrf { .. } => Some(Level::Lrf),
        }
    }

    /// The ORF entry written, if any.
    pub const fn orf_entry(self) -> Option<u8> {
        match self {
            WriteLoc::Orf { entry, .. } => Some(entry),
            _ => None,
        }
    }
}

impl fmt::Display for WriteLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteLoc::Mrf => write!(f, "MRF"),
            WriteLoc::Orf { entry, also_mrf } => {
                write!(f, "ORF{entry}")?;
                if *also_mrf {
                    write!(f, "+MRF")?;
                }
                Ok(())
            }
            WriteLoc::Lrf { bank, also_mrf } => {
                match bank {
                    None => write!(f, "LRF")?,
                    Some(s) => write!(f, "LRF.{s}")?,
                }
                if *also_mrf {
                    write!(f, "+MRF")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_loc_levels() {
        assert_eq!(ReadLoc::Mrf.level(), Level::Mrf);
        assert_eq!(ReadLoc::Orf(2).level(), Level::Orf);
        assert_eq!(ReadLoc::Lrf(None).level(), Level::Lrf);
        assert_eq!(ReadLoc::Lrf(Some(Slot::B)).level(), Level::Lrf);
        assert_eq!(ReadLoc::MrfFillOrf(1).level(), Level::Mrf);
    }

    #[test]
    fn orf_fill_accessor() {
        assert_eq!(ReadLoc::MrfFillOrf(4).orf_fill(), Some(4));
        assert_eq!(ReadLoc::Orf(4).orf_fill(), None);
        assert_eq!(ReadLoc::MrfFillOrf(4).to_string(), "MRF>ORF4");
    }

    #[test]
    fn write_loc_mrf_participation() {
        assert!(WriteLoc::Mrf.writes_mrf());
        assert!(!WriteLoc::Orf {
            entry: 0,
            also_mrf: false
        }
        .writes_mrf());
        assert!(WriteLoc::Orf {
            entry: 0,
            also_mrf: true
        }
        .writes_mrf());
        assert!(WriteLoc::Lrf {
            bank: None,
            also_mrf: true
        }
        .writes_mrf());
    }

    #[test]
    fn write_loc_accessors() {
        let w = WriteLoc::Orf {
            entry: 3,
            also_mrf: false,
        };
        assert_eq!(w.orf_entry(), Some(3));
        assert_eq!(w.upper_level(), Some(Level::Orf));

        let l = WriteLoc::Lrf {
            bank: Some(Slot::C),
            also_mrf: true,
        };
        assert_eq!(l.upper_level(), Some(Level::Lrf));
        assert_eq!(WriteLoc::Mrf.upper_level(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReadLoc::Orf(1).to_string(), "ORF1");
        assert_eq!(ReadLoc::Lrf(Some(Slot::A)).to_string(), "LRF.A");
        assert_eq!(
            WriteLoc::Orf {
                entry: 2,
                also_mrf: true
            }
            .to_string(),
            "ORF2+MRF"
        );
        assert_eq!(
            WriteLoc::Lrf {
                bank: None,
                also_mrf: false
            }
            .to_string(),
            "LRF"
        );
    }

    #[test]
    fn defaults_are_mrf() {
        assert_eq!(ReadLoc::default(), ReadLoc::Mrf);
        assert_eq!(WriteLoc::default(), WriteLoc::Mrf);
    }
}
