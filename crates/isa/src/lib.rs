#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-isa — SIMT instruction set and kernel IR
//!
//! This crate defines the compact SIMT instruction set and kernel
//! intermediate representation used throughout the RFH toolchain, playing the
//! role that PTX 2.3 plays in the original paper (Gebhart, Keckler, Dally,
//! *A Compile-Time Managed Multi-Level Register File Hierarchy*, MICRO 2011).
//!
//! The IR deliberately preserves exactly the properties the paper's
//! allocation algorithms depend on:
//!
//! * **pseudo-SSA register use** — most values are defined once, but
//!   registers *may* be redefined (e.g. on both sides of a hammock) and
//!   there are no phi nodes;
//! * **explicit operand slots** — source operands occupy slots A, B, C,
//!   which matters for the *split LRF* design where each slot has a private
//!   bank;
//! * **private vs. shared datapath opcodes** — ALU instructions execute on
//!   the per-lane private datapath (which can reach the LRF), while SFU,
//!   memory, and texture instructions execute on the shared datapath (which
//!   can only reach the ORF and MRF);
//! * **long-latency operations** — global loads and texture fetches, whose
//!   consumers terminate *strands* and cause warp descheduling;
//! * **predication and branches** — including backward branches, which also
//!   terminate strands.
//!
//! ## Layout
//!
//! * [`Reg`], [`PredReg`], [`Width`] — register names ([`reg`])
//! * [`Operand`], [`Special`], [`Slot`] — instruction inputs ([`operand`])
//! * [`Opcode`], [`Unit`], [`Space`], [`SfuOp`], [`CmpOp`] — the instruction
//!   set ([`opcode`])
//! * [`Instruction`] and free constructor functions in [`ops`]
//! * [`Level`], [`ReadLoc`], [`WriteLoc`] — register file hierarchy
//!   placement annotations produced by the allocator ([`placement`])
//! * [`AccessPlan`], [`RegAccess`] — canonical resolution of one
//!   instruction's placements into its explicit list of register-file
//!   accesses ([`access`])
//! * [`BasicBlock`], [`Kernel`] — the CFG container ([`kernel`])
//! * [`KernelBuilder`] — an ergonomic DSL for writing kernels ([`builder`])
//! * [`parse_kernel`] / [`printer::print_kernel`] — a textual assembly format
//! * [`validate()`] — structural validation
//!
//! ## Example
//!
//! ```
//! use rfh_isa::{KernelBuilder, ops, Operand, Special};
//!
//! let mut b = KernelBuilder::new("axpy");
//! let r = |i| rfh_isa::Reg::new(i);
//! b.push(ops::mov(r(0), Operand::Special(Special::TidX)));
//! b.push(ops::ld_param(r(1), 0));
//! b.push(ops::iadd(r(2), r(0).into(), r(1).into()));
//! b.push(ops::exit());
//! let kernel = b.finish();
//! assert_eq!(kernel.blocks.len(), 1);
//! rfh_isa::validate(&kernel).unwrap();
//! ```

pub mod access;
pub mod builder;
pub mod error;
pub mod instr;
pub mod kernel;
pub mod opcode;
pub mod operand;
pub mod ops;
pub mod parser;
pub mod placement;
pub mod printer;
pub mod reg;
pub mod validate;

pub use access::{AccessKind, AccessPlan, AccessSlot, Datapath, Place, RegAccess};
pub use builder::KernelBuilder;
pub use error::IsaError;
pub use instr::{Dst, Instruction, PredGuard};
pub use kernel::{BasicBlock, BlockId, InstrRef, Kernel};
pub use opcode::{CmpOp, Opcode, SfuOp, Space, Unit};
pub use operand::{Operand, Slot, Special};
pub use parser::parse_kernel;
pub use placement::{Level, ReadLoc, WriteLoc};
pub use reg::{PredReg, Reg, Width};
pub use validate::{validate, MAX_PRED_INDEX, MAX_REG_INDEX};
