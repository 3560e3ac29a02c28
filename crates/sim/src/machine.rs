//! Simulated machine parameters (paper Table 2 and §2).

/// Configuration of the simulated streaming multiprocessor.
///
/// Defaults reproduce Table 2: a 32-wide in-order SIMT processor with a
/// 128 KB main register file in 32 banks, 32 KB of shared memory, and the
/// listed operation latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// SIMT width (threads per warp).
    pub warp_width: usize,
    /// Machine-resident warps per SM.
    pub resident_warps: usize,
    /// Register file capacity in bytes.
    pub register_file_bytes: usize,
    /// Register bank capacity in bytes.
    pub register_bank_bytes: usize,
    /// Shared memory capacity in bytes.
    pub shared_memory_bytes: usize,
    /// ALU latency in cycles.
    pub alu_latency: u64,
    /// Special function latency in cycles.
    pub sfu_latency: u64,
    /// Shared memory latency in cycles.
    pub shared_mem_latency: u64,
    /// Texture instruction latency in cycles.
    pub tex_latency: u64,
    /// DRAM latency in cycles.
    pub dram_latency: u64,
    /// Issue slots a shared-datapath instruction occupies (the SFU/MEM/TEX
    /// units run at a quarter of warp-wide throughput).
    pub shared_issue_cycles: u64,
    /// Safety limit on warp instructions per warp (malformed kernels).
    pub max_warp_instructions: u64,
}

impl MachineConfig {
    /// Table 2 parameters.
    pub fn paper() -> Self {
        MachineConfig {
            warp_width: 32,
            resident_warps: 32,
            register_file_bytes: 128 * 1024,
            register_bank_bytes: 4 * 1024,
            shared_memory_bytes: 32 * 1024,
            alu_latency: 8,
            sfu_latency: 20,
            shared_mem_latency: 20,
            tex_latency: 400,
            dram_latency: 400,
            shared_issue_cycles: 4,
            max_warp_instructions: 20_000_000,
        }
    }

    /// Threads resident on the SM.
    pub fn resident_threads(&self) -> usize {
        self.warp_width * self.resident_warps
    }

    /// MRF entries (32-bit registers) per thread.
    pub fn registers_per_thread(&self) -> usize {
        self.register_file_bytes / 4 / self.resident_threads()
    }

    /// The issue latency of an opcode under this configuration.
    pub fn latency(&self, op: rfh_isa::Opcode) -> u64 {
        use rfh_isa::{Opcode, Space, Unit};
        match op {
            Opcode::Ld(Space::Global)
            | Opcode::Ld(Space::Local)
            | Opcode::St(Space::Global)
            | Opcode::St(Space::Local) => self.dram_latency,
            Opcode::Ld(Space::Shared) | Opcode::St(Space::Shared) => self.shared_mem_latency,
            Opcode::Ld(Space::Param) => self.shared_mem_latency,
            Opcode::Tex => self.tex_latency,
            _ => match op.unit() {
                Unit::Sfu => self.sfu_latency,
                _ => self.alu_latency,
            },
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::{CmpOp, Opcode, SfuOp, Space};

    #[test]
    fn paper_parameters() {
        let m = MachineConfig::paper();
        assert_eq!(m.resident_threads(), 1024);
        assert_eq!(m.registers_per_thread(), 32, "128KB / 1024 threads / 4B");
        assert_eq!(
            m.register_file_bytes / m.register_bank_bytes,
            32,
            "32 banks"
        );
    }

    #[test]
    fn latencies_follow_table2() {
        let m = MachineConfig::paper();
        assert_eq!(m.latency(Opcode::IAdd), 8);
        assert_eq!(m.latency(Opcode::Setp(CmpOp::Lt)), 8);
        assert_eq!(m.latency(Opcode::Sfu(SfuOp::Rcp)), 20);
        assert_eq!(m.latency(Opcode::Ld(Space::Shared)), 20);
        assert_eq!(m.latency(Opcode::Ld(Space::Global)), 400);
        assert_eq!(m.latency(Opcode::Tex), 400);
    }
}
