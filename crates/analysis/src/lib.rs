#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-analysis — compiler analyses over RFH kernels
//!
//! The analyses that the paper obtains from Ocelot (dataflow, control flow,
//! dominance — §5.1) plus the paper's own *strand* partitioning pass (§4.1),
//! reimplemented from scratch:
//!
//! * [`bitset::RegSet`] — dense register sets for dataflow;
//! * [`dom`] — dominator and post-dominator trees (post-dominators also
//!   drive the SIMT executor's branch reconvergence);
//! * [`liveness`] — block-level register liveness, the `dead_after`
//!   annotation pass (static liveness encoded in the binary, used by the HW
//!   RFC to elide writebacks of dead values, §2.2), and live-range queries;
//! * [`strand`] — partitions a kernel into strands and computes the
//!   `ends_strand` instruction bits: a strand ends at a dependence on a
//!   long-latency operation issued in the same strand, at a backward
//!   branch, at a block targeted by a backward branch, at a barrier, and at
//!   control-flow joins where the set of pending long-latency events is
//!   uncertain (paper Figure 5);
//! * [`defuse`] — per-strand *value instances* (a definition plus the reads
//!   it reaches inside the strand), live-in read-operand ranges (§4.4), and
//!   merge groups for values written on both sides of a hammock (§4.5);
//! * [`absint`] — a fixpoint abstract interpreter computing per-register
//!   interval value ranges, tid-affine forms, and warp-uniformity, plus the
//!   [`absint::last_use`] hint pass (covered reads under matching guards)
//!   that powers compiler-assisted early release in `rfh-alloc`.
//!
//! The analyses read the kernel and return their facts as values. The one
//! exception is the HW baseline's dead-bit encoder,
//! [`liveness::annotate_dead`] (and [`liveness::annotate_dead_excluding`]),
//! which writes `dead_after`. The compiler's own annotations, the strand
//! ends and the placements, are written by `rfh_alloc::allocate` alone.
//! The output of [`strand::mark_strands`] + [`defuse::strand_values`] is
//! exactly the input the allocation algorithms in `rfh-alloc` consume.

pub mod absint;
pub mod bitset;
pub mod defuse;
pub mod dom;
pub mod liveness;
pub mod strand;

pub use absint::{
    last_use::LastUseHints, AbsCtx, AbsResults, AbsVal, DeadEdge, InstrFacts, PredAbs,
};
pub use bitset::RegSet;
pub use defuse::{ReadRef, StrandValues, ValueInstance};
pub use dom::DomTree;
pub use liveness::Liveness;
pub use strand::{strand_canonical, EndReason, Strand, StrandId, StrandInfo, StrandOpts};
