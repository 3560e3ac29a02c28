//! Textual assembly output for kernels.

use std::fmt::Write as _;

use crate::kernel::Kernel;

/// Renders a kernel in the textual assembly format accepted by
/// [`crate::parse_kernel`].
///
/// Placement annotations are *not* part of the plain format (they are
/// compiler output, not input); use [`print_kernel_annotated`] to inspect
/// them. The strand-end bit *is* printed (`;end`), mirroring the single
/// extra instruction bit the paper's encoding adds (§6.5).
///
/// # Examples
///
/// ```
/// use rfh_isa::{KernelBuilder, ops, printer::print_kernel};
/// let mut b = KernelBuilder::new("nop");
/// b.push(ops::exit());
/// let text = print_kernel(&b.finish());
/// assert!(text.starts_with(".kernel nop"));
/// ```
pub fn print_kernel(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".kernel {}", kernel.name);
    let _ = writeln!(out, ".params {}", kernel.num_params);
    for block in &kernel.blocks {
        let _ = writeln!(out, "{}:", block.id);
        for instr in &block.instrs {
            let _ = writeln!(out, "  {instr}");
        }
    }
    out
}

/// Renders a kernel with per-instruction placement annotations appended as
/// comments, for debugging allocator output.
pub fn print_kernel_annotated(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".kernel {}", kernel.name);
    let _ = writeln!(out, ".params {}", kernel.num_params);
    for block in &kernel.blocks {
        let _ = writeln!(out, "{}:", block.id);
        for instr in &block.instrs {
            let _ = write!(out, "  {instr}");
            let mut sep = " ; ";
            if instr.dst.is_some() {
                let _ = write!(out, "{sep}w={}", instr.write_loc);
                sep = " ";
            }
            if instr.srcs.iter().any(|s| s.is_reg()) {
                let _ = write!(out, "{sep}r=[");
                let mut comma = "";
                for (_, l) in instr
                    .srcs
                    .iter()
                    .zip(&instr.read_locs)
                    .filter(|(s, _)| s.is_reg())
                {
                    let _ = write!(out, "{comma}{l}");
                    comma = ",";
                }
                out.push(']');
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::placement::WriteLoc;
    use crate::{KernelBuilder, Reg};

    #[test]
    fn plain_print_has_blocks_and_instrs() {
        let mut b = KernelBuilder::new("k");
        b.push(ops::mov(Reg::new(0), 3.into()));
        b.push(ops::exit());
        let text = print_kernel(&b.finish());
        assert!(text.contains("BB0:"));
        assert!(text.contains("mov r0 3"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn annotated_print_shows_placements() {
        let mut b = KernelBuilder::new("k");
        let mut i = ops::mov(Reg::new(0), 3.into());
        i.write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: true,
        };
        b.push(i);
        b.push(ops::exit());
        let text = print_kernel_annotated(&b.finish());
        assert!(text.contains("w=ORF1+MRF"), "{text}");
    }

    #[test]
    fn strand_end_marker_printed() {
        let mut b = KernelBuilder::new("k");
        let mut i = ops::mov(Reg::new(0), 3.into());
        i.ends_strand = true;
        b.push(i);
        b.push(ops::exit());
        let text = print_kernel(&b.finish());
        assert!(text.contains(";end"));
    }
}
