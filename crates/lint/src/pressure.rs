//! RFH-L008 — ORF/LRF pressure: predicting, *before* allocation runs,
//! where the upper levels are oversubscribed.
//!
//! Runs the allocator's own front half — strand marking, liveness, and the
//! per-strand def-use summary — and then counts, per strand, how many
//! upper-level candidates are simultaneously live at the point of peak
//! demand, using the same half-slot occupancy intervals as the ORF pass
//! (`rfh_alloc::pass`): a value occupies `[2·def+1, 2·last_read]`, a
//! read-operand fill `[2·first_read+1, 2·last_read]`. When the peak
//! exceeds the configured capacity (ORF entries plus LRF banks), some
//! candidates must stay in the MRF — the same occupancy pressure that
//! drives the allocator's spill decisions, surfaced as a warning so the
//! capacity can be revisited without rerunning the allocator sweep.
//!
//! Abstract interpretation sharpens the check: strands in blocks the
//! interpreter proves unreachable (dead branch edges) are skipped — dead
//! code cannot oversubscribe a register file.

use rfh_alloc::AllocConfig;
use rfh_analysis::absint::AbsResults;
use rfh_analysis::defuse::all_strand_values;
use rfh_analysis::strand::StrandInfo;
use rfh_analysis::{Liveness, StrandValues};
use rfh_isa::Kernel;

use crate::diag::{Code, Diagnostic};

/// Half-slot occupancy interval of one upper-level candidate.
struct Interval {
    begin: usize,
    end: usize,
    slots: usize,
}

/// The candidate intervals of one strand, mirroring the ORF pass's
/// eligibility rules (mixed-width or mixed-root merge groups and
/// single-read operands never become candidates).
fn candidate_intervals(sv: &StrandValues) -> Vec<Interval> {
    let mut out = Vec::new();
    for members in &sv.groups {
        let mut widths: Vec<_> = members.iter().map(|&m| sv.instances[m].width).collect();
        widths.dedup();
        let mut roots: Vec<_> = members.iter().map(|&m| sv.instances[m].reg).collect();
        roots.sort();
        roots.dedup();
        if widths.len() != 1 || roots.len() != 1 {
            continue;
        }
        let def = members
            .iter()
            .map(|&m| sv.instances[m].def_pos)
            .min()
            .expect("merge groups are nonempty");
        let last = members
            .iter()
            .map(|&m| sv.instances[m].last_read_pos())
            .max()
            .expect("merge groups are nonempty");
        let begin = 2 * def + 1;
        out.push(Interval {
            begin,
            end: (2 * last).max(begin),
            slots: widths[0].regs() as usize,
        });
    }
    for ro in &sv.read_operands {
        if ro.reads.len() < 2 {
            continue; // a fill serving one read saves nothing
        }
        let first = ro.reads[0].pos;
        let last = ro.reads.last().expect("reads are nonempty").pos;
        let begin = 2 * first + 1;
        out.push(Interval {
            begin,
            end: (2 * last).max(begin),
            slots: 1,
        });
    }
    out
}

/// Peak number of simultaneously-occupied slots across the intervals.
fn peak_demand(intervals: &[Interval]) -> usize {
    let mut events: Vec<(usize, isize)> = Vec::new();
    for iv in intervals {
        events.push((iv.begin, iv.slots as isize));
        events.push((iv.end + 1, -(iv.slots as isize)));
    }
    // Ends sort before begins at the same position: `[a, b]` and `[b+1, c]`
    // can share a slot.
    events.sort();
    let (mut cur, mut peak) = (0isize, 0isize);
    for (_, delta) in events {
        cur += delta;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

/// Runs the check, appending RFH-L008 findings to `diags`.
///
/// `marked` is the strand-marked clone (and `info`/`liveness`/`res` its
/// strand map, liveness and abstract-interpretation results) that
/// [`crate::lint_kernel`] prepares once and shares across the checks. Strands
/// whose code the abstract interpreter proves unreachable — blocks only
/// enterable over dead edges — never execute, so their demand cannot
/// oversubscribe anything and they are skipped.
pub(crate) fn check(
    marked: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
    config: &AllocConfig,
    res: &AbsResults,
    diags: &mut Vec<Diagnostic>,
) {
    let capacity = config.orf_entries + config.lrf.banks();
    if capacity == 0 {
        return; // the MRF baseline has nothing to oversubscribe
    }
    for sv in all_strand_values(marked, info, liveness) {
        let first = info.strand(sv.strand).instrs[0];
        if !res.block_reachable[first.block.index()] {
            continue; // proven-dead code exerts no pressure
        }
        let intervals = candidate_intervals(&sv);
        let peak = peak_demand(&intervals);
        if peak <= capacity {
            continue;
        }
        diags.push(Diagnostic::at(
            Code::Pressure,
            first,
            format!(
                "strand starting here has a peak upper-level demand of {peak} register \
                 slots against a capacity of {capacity} ({} ORF entries, {}): the \
                 allocator will keep at least {} value(s) in the MRF",
                config.orf_entries,
                config.lrf,
                peak - capacity
            ),
        ));
    }
}
