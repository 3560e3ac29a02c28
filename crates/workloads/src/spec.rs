//! The workload container: kernel + launch + input + reference checker.

use std::fmt;

use rfh_isa::Kernel;
use rfh_sim::exec::Launch;
use rfh_sim::mem::GlobalMemory;

/// The benchmark suite a workload belongs to (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// NVIDIA CUDA SDK 3.2 samples.
    CudaSdk,
    /// The Parboil suite.
    Parboil,
    /// The Rodinia suite.
    Rodinia,
}

impl Suite {
    /// All suites in the paper's order.
    pub const ALL: [Suite; 3] = [Suite::CudaSdk, Suite::Parboil, Suite::Rodinia];
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::CudaSdk => write!(f, "CUDA SDK"),
            Suite::Parboil => write!(f, "Parboil"),
            Suite::Rodinia => write!(f, "Rodinia"),
        }
    }
}

/// Result verifier: receives the initial and final global memory and
/// returns a description of the first mismatch, if any.
pub type VerifyFn = fn(&GlobalMemory, &GlobalMemory) -> Result<(), String>;

/// A registry entry: a workload's name and the function that builds it.
pub type WorkloadEntry = (&'static str, fn() -> Workload);

/// A runnable benchmark: kernel, launch geometry, initial memory image,
/// and a host reference checker.
pub struct Workload {
    /// Short lower-case name (e.g. `"vectoradd"`).
    pub name: String,
    /// Which suite the port belongs to.
    pub suite: Suite,
    /// The kernel in RFH IR (unallocated; all placements default to MRF).
    pub kernel: Kernel,
    /// Launch geometry and parameters.
    pub launch: Launch,
    /// Deterministic initial global memory.
    pub memory: GlobalMemory,
    /// Host reference checker for the final memory image.
    pub verify: VerifyFn,
}

impl Workload {
    /// Convenience: runs the workload's kernel on a copy of its input in
    /// the given mode and verifies the result, returning the final memory.
    ///
    /// # Errors
    ///
    /// Returns the executor error or the verifier's mismatch description.
    pub fn run_and_verify(
        &self,
        mode: rfh_sim::exec::ExecMode,
        kernel: &Kernel,
        sinks: &mut [&mut dyn rfh_sim::sink::TraceSink],
    ) -> Result<GlobalMemory, String> {
        let mut mem = self.memory.clone();
        rfh_sim::exec::execute(kernel, &self.launch, &mut mem, mode, sinks)
            .map_err(|e| format!("{}: {e}", self.name))?;
        (self.verify)(&self.memory, &mem).map_err(|e| format!("{}: {e}", self.name))?;
        Ok(mem)
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Workload({}, {}, {} instrs, {} threads)",
            self.name,
            self.suite,
            self.kernel.instr_count(),
            self.launch.total_threads()
        )
    }
}

/// Helpers shared by the suite ports.
pub(crate) mod util {
    use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

    /// Deterministic f32 data in `[lo, hi)`.
    pub fn f32_data(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Deterministic i32 data in `[lo, hi)`, stored as u32.
    pub fn i32_data(seed: u64, n: usize, lo: i32, hi: i32) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(lo..hi) as u32).collect()
    }

    /// Compares an f32 region with a relative/absolute tolerance.
    pub fn check_f32_region(
        out: &rfh_sim::mem::GlobalMemory,
        base: usize,
        expected: &[f32],
        tol: f32,
    ) -> Result<(), String> {
        for (i, e) in expected.iter().enumerate() {
            let got = out
                .load_f32((base + i) as u32)
                .ok_or_else(|| format!("word {} out of range", base + i))?;
            let err = (got - e).abs();
            let bound = tol * e.abs().max(1.0);
            // `is_nan` keeps NaN results (err incomparable) as failures.
            if err > bound || err.is_nan() {
                return Err(format!(
                    "word {}: expected {e}, got {got} (|err| {err} > {bound})",
                    base + i
                ));
            }
        }
        Ok(())
    }

    /// Compares a u32 region exactly.
    pub fn check_u32_region(
        out: &rfh_sim::mem::GlobalMemory,
        base: usize,
        expected: &[u32],
    ) -> Result<(), String> {
        for (i, e) in expected.iter().enumerate() {
            let got = out
                .load((base + i) as u32)
                .ok_or_else(|| format!("word {} out of range", base + i))?;
            if got != *e {
                return Err(format!("word {}: expected {e}, got {got}", base + i));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_display() {
        assert_eq!(Suite::CudaSdk.to_string(), "CUDA SDK");
        assert_eq!(Suite::ALL.len(), 3);
    }

    #[test]
    fn f32_data_is_deterministic() {
        let a = util::f32_data(7, 16, 0.0, 1.0);
        let b = util::f32_data(7, 16, 0.0, 1.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn check_helpers_report_mismatches() {
        let mem = rfh_sim::mem::GlobalMemory::from_f32(&[1.0, 2.0]);
        assert!(util::check_f32_region(&mem, 0, &[1.0, 2.0], 1e-6).is_ok());
        let err = util::check_f32_region(&mem, 0, &[1.0, 3.0], 1e-6).unwrap_err();
        assert!(err.contains("word 1"));
        let memu = rfh_sim::mem::GlobalMemory::from_words(vec![5, 6]);
        assert!(util::check_u32_region(&memu, 0, &[5, 6]).is_ok());
        assert!(util::check_u32_region(&memu, 1, &[7]).is_err());
    }
}
