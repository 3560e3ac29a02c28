//! Pinned executor edge cases.
//!
//! These tests were written against the original per-thread interpreter
//! *before* the warp-batched SoA executor landed, so they freeze the
//! corner semantics the rewrite must preserve:
//!
//! * the exact `ExecError` Display strings and their `RfhError` exit-code
//!   mapping (drivers and `tests/cli.rs` rely on both being stable);
//! * wide-write behavior at the register-file boundary — a 64-bit ORF
//!   write occupies `entry` and `entry + 1`, a 64-bit LRF write drops the
//!   upper word at the LRF (it lands in the MRF only via `also_mrf`, so a
//!   later MRF read of it is stale), and a corrupted `entry = 255` wide
//!   write resolves to entry 256 instead of wrapping;
//! * the placement check is strictly stronger than comparing memory: a
//!   stale read of an equal value is rejected, although the
//!   storage-faithful oracle computes the baseline image from it;
//! * trailing-lane masking at every `threads_per_cta % warp_width`
//!   residue.

use rfh::alloc::AllocConfig;
use rfh::isa::{BlockId, InstrRef, ReadLoc, WriteLoc};
use rfh::sim::counts::SwCounter;
use rfh::sim::exec::{execute, replay, ExecError, ExecMode, Launch, StreamRecorder};
use rfh::sim::machine::MachineConfig;
use rfh::sim::mem::GlobalMemory;
use rfh::sim::sink::NullSink;
use rfh::RfhError;

fn at(block: u32, index: usize) -> InstrRef {
    InstrRef {
        block: BlockId::new(block),
        index,
    }
}

#[test]
fn exec_error_display_strings_are_stable() {
    let cases: Vec<(ExecError, &str)> = vec![
        (
            ExecError::OutOfBounds {
                space: "global",
                addr: 9999,
                at: at(2, 3),
            },
            "out-of-bounds global access at word 9999 (BB2[3])",
        ),
        (
            ExecError::InstructionBudget { warp: 5 },
            "warp 5 exceeded the instruction budget (infinite loop?)",
        ),
        (
            ExecError::Unsupported {
                what: "64-bit destination on `sel r0 r1, r2, p0`".into(),
                at: at(0, 0),
            },
            "unsupported: 64-bit destination on `sel r0 r1, r2, p0` (BB0[0])",
        ),
        (
            ExecError::BadPlacement {
                what: "read of ORF entry 9 of 3 configured".into(),
                at: at(1, 4),
            },
            "bad placement annotation: read of ORF entry 9 of 3 configured (BB1[4])",
        ),
    ];
    for (err, expect) in cases {
        assert_eq!(err.to_string(), expect);
    }
}

#[test]
fn exec_errors_map_to_exit_code_6() {
    let errs = [
        ExecError::OutOfBounds {
            space: "shared",
            addr: 1,
            at: at(0, 0),
        },
        ExecError::InstructionBudget { warp: 0 },
        ExecError::Unsupported {
            what: "x".into(),
            at: at(0, 0),
        },
        ExecError::BadPlacement {
            what: "y".into(),
            at: at(0, 0),
        },
    ];
    for err in errs {
        let wrapped = RfhError::from(err.clone());
        assert_eq!(wrapped.exit_code(), 6, "{wrapped}");
        // Display passes straight through to the inner error.
        assert_eq!(wrapped.to_string(), err.to_string());
        // And the inner error stays reachable for error-chain consumers.
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}

/// A 64-bit ORF write occupies `entry` and `entry + 1`: reading both
/// entries back must observe the low and high loaded words.
#[test]
fn wide_orf_write_occupies_entry_and_entry_plus_one() {
    let mut kernel = rfh::isa::parse_kernel(
        "
.kernel w
BB0:
  mov r0, %tid.x
  shl r1 r0, 1
  ld.global r4.w64 r1
  iadd r6 r4, r5
  st.global r0, r6
  exit
",
    )
    .unwrap();
    kernel.instr_mut(at(0, 2)).write_loc = WriteLoc::Orf {
        entry: 0,
        also_mrf: false,
    };
    kernel.instr_mut(at(0, 3)).read_locs = vec![ReadLoc::Orf(0), ReadLoc::Orf(1)];
    let cfg = AllocConfig::two_level(3);
    let mut mem = GlobalMemory::new(8);
    for (a, v) in [(0u32, 3u32), (1, 4), (2, 30), (3, 40)] {
        mem.store(a, v);
    }
    let mut sink = NullSink;
    execute(
        &kernel,
        &Launch::new(1, 2),
        &mut mem,
        ExecMode::Hierarchy(cfg),
        &mut [&mut sink],
    )
    .unwrap();
    assert_eq!(mem.load(0), Some(7), "lane 0: ORF0 + ORF1 = 3 + 4");
    assert_eq!(mem.load(1), Some(70), "lane 1: ORF0 + ORF1 = 30 + 40");
}

/// A 64-bit LRF write keeps only the low word at the LRF: the upper word
/// is dropped at the register-file boundary (the LRF holds last results,
/// not pairs). Without `also_mrf` the high register's MRF copy is stale,
/// so an MRF read of it is a bad placement. (The storage-faithful oracle
/// reads the old value, 77: `rfh-oracle`'s test of the same name.)
#[test]
fn wide_lrf_write_drops_upper_word_at_the_lrf() {
    let mut kernel = rfh::isa::parse_kernel(
        "
.kernel l
BB0:
  mov r5, 77
  mov r0, %tid.x
  shl r1 r0, 1
  ld.global r4.w64 r1
  iadd r6 r4, r5
  st.global r0, r6
  exit
",
    )
    .unwrap();
    kernel.instr_mut(at(0, 3)).write_loc = WriteLoc::Lrf {
        bank: None,
        also_mrf: false,
    };
    kernel.instr_mut(at(0, 4)).read_locs = vec![ReadLoc::Lrf(None), ReadLoc::Mrf];
    let cfg = AllocConfig::three_level(3, false);
    let mut mem = GlobalMemory::new(8);
    let hier = ExecMode::Hierarchy(cfg);
    let err = execute(&kernel, &Launch::new(1, 2), &mut mem, hier, &mut []).unwrap_err();
    // Slot 0 (the low word, from the LRF) is fine; slot 1 is not.
    assert_eq!(
        err,
        ExecError::BadPlacement {
            what: "slot 1 reads r5 from MRF in lane 0, which holds a stale definition".into(),
            at: at(0, 4),
        }
    );
}

/// With `also_mrf`, both words of a wide LRF write land in the MRF even
/// though the LRF itself keeps only the low word.
#[test]
fn wide_lrf_write_with_also_mrf_writes_both_words_to_mrf() {
    let mut kernel = rfh::isa::parse_kernel(
        "
.kernel lm
BB0:
  mov r0, %tid.x
  shl r1 r0, 1
  ld.global r4.w64 r1
  iadd r6 r4, r5
  st.global r0, r6
  exit
",
    )
    .unwrap();
    kernel.instr_mut(at(0, 2)).write_loc = WriteLoc::Lrf {
        bank: None,
        also_mrf: true,
    };
    let cfg = AllocConfig::three_level(3, false);
    let mut mem = GlobalMemory::new(8);
    for (a, v) in [(0u32, 3u32), (1, 4), (2, 30), (3, 40)] {
        mem.store(a, v);
    }
    let mut sink = NullSink;
    execute(
        &kernel,
        &Launch::new(1, 2),
        &mut mem,
        ExecMode::Hierarchy(cfg),
        &mut [&mut sink],
    )
    .unwrap();
    assert_eq!(mem.load(0), Some(7), "lane 0: MRF r4 + r5 = 3 + 4");
    assert_eq!(mem.load(1), Some(70), "lane 1: MRF r4 + r5 = 30 + 40");
}

/// `r1` is defined twice with the same value; the second definition goes
/// only to the MRF, but the add still reads ORF0, which holds the first.
/// Execution and replay reject the read; the storage-faithful oracle reads
/// an equal value and computes the baseline image, so comparing memory
/// alone cannot see the bad placement.
#[test]
fn a_stale_but_equal_read_fails_execution_and_replay_but_not_the_oracle() {
    let mut kernel = rfh::isa::parse_kernel(
        ".kernel stale\nBB0:\n  mov r0, %tid.x\n  mov r1, 7\n  mov r1, 7\n  \
         iadd r2 r1, 1\n  st.global r0, r2\n  exit\n",
    )
    .unwrap();
    let (launch, machine) = (Launch::new(1, 32), MachineConfig::paper());
    let mut base = GlobalMemory::new(256);
    let mut recorder = StreamRecorder::new(&kernel);
    let baseline = ExecMode::Baseline;
    execute(&kernel, &launch, &mut base, baseline, &mut [&mut recorder]).unwrap();
    let stream = recorder.finish();

    rfh::analysis::strand::mark_strands(&mut kernel);
    kernel.instr_mut(at(0, 1)).write_loc = WriteLoc::Orf {
        entry: 0,
        also_mrf: true,
    };
    kernel.instr_mut(at(0, 3)).read_locs[0] = ReadLoc::Orf(0);
    let mode = ExecMode::Hierarchy(AllocConfig::two_level(3));
    let expected = Err(ExecError::BadPlacement {
        what: "slot 0 reads r1 from ORF0 in lane 0, which holds a stale definition".into(),
        at: at(0, 3),
    });
    let mut mem = GlobalMemory::new(256);
    let executed = execute(&kernel, &launch, &mut mem, mode, &mut []).map(|_| ());
    assert_eq!(executed, expected, "execution");
    let replayed = replay(
        &kernel,
        &stream,
        mode,
        &machine,
        SwCounter::default,
        |_, _| {},
    );
    assert_eq!(replayed, expected, "replay");
    let (oracle, mut mem) = (rfh_oracle::exec::execute_with, GlobalMemory::new(256));
    oracle(&kernel, &launch, &mut mem, mode, &machine, &mut []).unwrap();
    assert_eq!(
        mem.words(),
        base.words(),
        "the oracle computes the baseline"
    );
}

/// A corrupted `entry = 255` annotation on a wide write resolves its high
/// word to ORF entry 256 (no u8 wraparound) and is rejected up front.
#[test]
fn wide_orf_write_at_entry_255_does_not_wrap() {
    let mut kernel = rfh::isa::parse_kernel(
        "
.kernel nw
BB0:
  mov r0, %tid.x
  ld.global r4.w64 r0
  st.global r0, r4
  exit
",
    )
    .unwrap();
    kernel.instr_mut(at(0, 1)).write_loc = WriteLoc::Orf {
        entry: 255,
        also_mrf: false,
    };
    let cfg = AllocConfig::two_level(3);
    let mut mem = GlobalMemory::new(8);
    let mut sink = NullSink;
    let err = execute(
        &kernel,
        &Launch::new(1, 1),
        &mut mem,
        ExecMode::Hierarchy(cfg),
        &mut [&mut sink],
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::BadPlacement { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("ORF entry 255") || msg.contains("ORF entry 256"),
        "the wide write must resolve past the configured ORF without \
         wrapping to entry 0: {msg}"
    );
}

/// Every `threads_per_cta % warp_width` residue masks exactly the
/// trailing lanes of the last warp: threads beyond the launch never
/// execute, and the reported instruction counts match the population.
#[test]
fn trailing_lane_masks_cover_every_residue() {
    let kernel =
        rfh::isa::parse_kernel(".kernel pw\nBB0:\n  mov r0, %tid.x\n  st.global r0, 1\n  exit\n")
            .unwrap();
    for residue in 0..32usize {
        let threads = if residue == 0 { 64 } else { 64 + residue };
        assert_eq!(threads % 32, residue);
        let mut mem = GlobalMemory::new(128);
        let mut sink = NullSink;
        let report = execute(
            &kernel,
            &Launch::new(1, threads),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        for t in 0..threads as u32 {
            assert_eq!(mem.load(t), Some(1), "residue {residue}: lane {t}");
        }
        for t in threads as u32..128 {
            assert_eq!(
                mem.load(t),
                Some(0),
                "residue {residue}: lane {t} must not execute"
            );
        }
        let warps = threads.div_ceil(32);
        assert_eq!(report.warps, warps, "residue {residue}");
        assert_eq!(
            report.warp_instructions,
            3 * warps as u64,
            "residue {residue}"
        );
        assert_eq!(
            report.thread_instructions,
            3 * threads as u64,
            "residue {residue}"
        );
    }
}
