//! Seeded random kernel generator for property-based testing.
//!
//! Generates structurally valid kernels mixing arithmetic chains,
//! predication, hammocks, bounded loops, SFU operations, and global/shared
//! memory traffic (with masked, always-in-bounds addresses). Used by the
//! integration and property tests to check, for arbitrary programs, that
//!
//! * allocation always produces validator-clean placements, and
//! * hierarchy-mode execution of the allocated kernel passes its placement
//!   check and computes exactly the memory image of the baseline run.

use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

use rfh_isa::{ops, CmpOp, Kernel, KernelBuilder, Operand, PredReg, Reg, SfuOp, Special};
use rfh_sim::exec::Launch;
use rfh_sim::mem::GlobalMemory;

/// Shape parameters for the generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of code segments (linear runs, hammocks, loops).
    pub segments: usize,
    /// Instructions per linear run.
    pub run_len: usize,
    /// Maximum loop trip count.
    pub max_trips: i32,
    /// Number of data registers in play.
    pub pool: u16,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            segments: 6,
            run_len: 6,
            max_trips: 5,
            pool: 8,
        }
    }
}

/// Memory words the generated kernels address (addresses are masked).
pub const MEM_WORDS: usize = 4096;
const ADDR_MASK: i32 = (MEM_WORDS - 1) as i32;

struct Gen {
    rng: SmallRng,
    cfg: GenConfig,
}

impl Gen {
    fn data_reg(&mut self) -> Reg {
        Reg::new(1 + self.rng.gen_range(0..self.cfg.pool))
    }

    fn operand(&mut self) -> Operand {
        match self.rng.gen_range(0..10) {
            0..=5 => self.data_reg().into(),
            6 | 7 => Operand::Imm(self.rng.gen_range(-64..64)),
            8 => Operand::f32(self.rng.gen_range(-2.0..2.0)),
            _ => Operand::Special(Special::TidX),
        }
    }

    /// One random computational instruction (never control flow).
    fn instr(&mut self, b: &mut KernelBuilder) {
        let d = self.data_reg();
        let choice = self.rng.gen_range(0..100);
        let i = match choice {
            0..=14 => ops::iadd(d, self.operand(), self.operand()),
            15..=24 => ops::imad(d, self.operand(), self.operand(), self.operand()),
            25..=34 => ops::fadd(d, self.operand(), self.operand()),
            35..=44 => ops::ffma(d, self.operand(), self.operand(), self.operand()),
            45..=52 => ops::fmul(d, self.operand(), self.operand()),
            53..=58 => ops::xor(d, self.operand(), self.operand()),
            59..=64 => ops::imax(d, self.operand(), self.operand()),
            65..=68 => {
                let f =
                    [SfuOp::Rcp, SfuOp::Rsqrt, SfuOp::Sqrt, SfuOp::Ex2][self.rng.gen_range(0..4)];
                ops::sfu(f, d, self.operand())
            }
            69..=72 => ops::mov(d, self.operand()),
            73..=76 => {
                // Guarded move: exercises weak updates.
                ops::mov(d, self.operand()).guarded(PredReg::new(0), self.rng.gen())
            }
            77..=82 => {
                // Masked global load.
                let addr = Reg::new(1 + self.cfg.pool); // scratch
                b.push(ops::and(
                    addr,
                    self.data_reg().into(),
                    Operand::Imm(ADDR_MASK),
                ));
                ops::ld_global(d, addr.into())
            }
            83..=87 => {
                let addr = Reg::new(1 + self.cfg.pool);
                b.push(ops::and(
                    addr,
                    self.data_reg().into(),
                    Operand::Imm(ADDR_MASK),
                ));
                ops::ld_shared(d, addr.into())
            }
            88..=92 => {
                let addr = Reg::new(1 + self.cfg.pool);
                b.push(ops::and(addr, self.data_reg().into(), Operand::Imm(1023)));
                b.push(ops::st_shared(addr.into(), self.data_reg().into()));
                return;
            }
            93..=96 => ops::i2f(d, self.operand()),
            _ => ops::sel(d, self.operand(), self.operand(), PredReg::new(0)),
        };
        b.push(i);
    }

    fn linear_run(&mut self, b: &mut KernelBuilder) {
        for _ in 0..self.rng.gen_range(1..=self.cfg.run_len) {
            self.instr(b);
        }
    }

    fn hammock(&mut self, b: &mut KernelBuilder) {
        let p = PredReg::new(1);
        b.push(ops::setp(
            CmpOp::Lt,
            p,
            self.data_reg().into(),
            Operand::Imm(self.rng.gen_range(-16..48)),
        ));
        let cur = b.current();
        let then_side = b.add_block();
        let merge = b.add_block();
        // In the preceding block: skip the then-side when !p.
        b.switch_to(cur);
        b.push(ops::bra_if(p, true, merge));
        b.switch_to(then_side);
        self.linear_run(b);
        b.switch_to(merge);
    }

    fn bounded_loop(&mut self, b: &mut KernelBuilder) {
        let counter = Reg::new(2 + self.cfg.pool);
        let trips = self.rng.gen_range(1..=self.cfg.max_trips);
        b.push(ops::mov(counter, Operand::Imm(0)));
        let body = b.add_block();
        b.switch_to(body);
        self.linear_run(b);
        b.push(ops::iadd(counter, counter.into(), Operand::Imm(1)));
        let p = PredReg::new(2);
        b.push(ops::setp(CmpOp::Lt, p, counter.into(), Operand::Imm(trips)));
        b.push(ops::bra_if(p, false, body));
        let next = b.add_block();
        b.switch_to(next);
    }

    fn scratch_regs(&self) -> u16 {
        3 + self.cfg.pool
    }
}

/// Generates a random kernel plus a launch and memory image to run it on.
///
/// The same seed always yields the same program.
pub fn random_program(seed: u64, cfg: GenConfig) -> (Kernel, Launch, GlobalMemory) {
    let mut g = Gen {
        rng: SmallRng::seed_from_u64(seed),
        cfg,
    };
    let mut b = KernelBuilder::new(format!("gen{seed}"));

    // Initialize the register pool deterministically.
    b.push(ops::mov(Reg::new(0), Operand::Special(Special::TidX)));
    for i in 0..cfg.pool {
        let r = Reg::new(1 + i);
        match i % 3 {
            0 => b.push(ops::mov(r, Reg::new(0).into())),
            1 => b.push(ops::mov(r, Operand::Imm(g.rng.gen_range(0..128)))),
            _ => b.push(ops::mov(r, Operand::f32(g.rng.gen_range(0.5..4.0)))),
        };
    }
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(500),
    ));

    for _ in 0..cfg.segments {
        match g.rng.gen_range(0..5) {
            0..=2 => g.linear_run(&mut b),
            3 => g.hammock(&mut b),
            _ => g.bounded_loop(&mut b),
        }
    }

    // Make every pool register observable.
    let addr = Reg::new(g.scratch_regs());
    for i in 0..cfg.pool {
        b.push(ops::imad(
            addr,
            Reg::new(0).into(),
            Operand::Imm(cfg.pool as i32),
            Operand::Imm(i as i32),
        ));
        b.push(ops::and(addr, addr.into(), Operand::Imm(ADDR_MASK)));
        b.push(ops::st_global(addr.into(), Reg::new(1 + i).into()));
    }
    b.push(ops::exit());

    let kernel = b.finish();
    debug_assert!(rfh_isa::validate(&kernel).is_ok());

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let words: Vec<u32> = (0..MEM_WORDS).map(|_| rng.gen_range(0..1 << 16)).collect();
    (kernel, Launch::new(1, 128), GlobalMemory::from_words(words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_sim::exec::{execute, ExecMode};
    use rfh_sim::sink::NullSink;

    #[test]
    fn generated_kernels_are_valid() {
        for seed in 0..50 {
            let (k, _, _) = random_program(seed, GenConfig::default());
            rfh_isa::validate(&k).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _, ma) = random_program(42, GenConfig::default());
        let (b, _, mb) = random_program(42, GenConfig::default());
        assert_eq!(a, b);
        assert_eq!(ma.words(), mb.words());
    }

    #[test]
    fn generated_kernels_execute() {
        for seed in 0..20 {
            let (k, launch, mem) = random_program(seed, GenConfig::default());
            let mut m = mem.clone();
            let mut sink = NullSink;
            execute(&k, &launch, &mut m, ExecMode::Baseline, &mut [&mut sink])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn bigger_configs_make_bigger_kernels() {
        let small = random_program(
            7,
            GenConfig {
                segments: 2,
                ..Default::default()
            },
        )
        .0;
        let big = random_program(
            7,
            GenConfig {
                segments: 12,
                ..Default::default()
            },
        )
        .0;
        assert!(big.instr_count() > small.instr_count());
    }
}
