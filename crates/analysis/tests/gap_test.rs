#[test]
fn loop_header_after_nonpred_block() {
    let k = rfh_isa::parse_kernel(
        "
.kernel gap
BB0:
  setp.lt p0 r0, 1
  @p0 bra BB2
BB1:
  mov r5, 1
  bra BB3
BB2:
  iadd r0 r0, 1
  setp.lt p1 r0, 10
  @p1 bra BB2
BB3:
  exit
",
    )
    .unwrap();
    let info = rfh_analysis::strand::mark_strands(&k);
    for (si, s) in info.strands.iter().enumerate() {
        eprintln!("strand {si}: {:?} reason {:?}", s.blocks(), s.end_reason);
    }
    let h = rfh_analysis::strand::StrandInfo::strand_of(
        &info,
        rfh_isa::InstrRef {
            block: rfh_isa::BlockId::new(2),
            index: 0,
        },
    );
    let b1 = info.strand_of(rfh_isa::InstrRef {
        block: rfh_isa::BlockId::new(1),
        index: 0,
    });
    assert_ne!(h, b1, "loop header must start a new strand");
}
