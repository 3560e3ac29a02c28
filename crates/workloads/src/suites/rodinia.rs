//! Rodinia suite ports (paper Table 1).

use rfh_sim::exec::Launch;
use rfh_sim::mem::GlobalMemory;

use crate::spec::util::{check_f32_region, check_u32_region, f32_data, i32_data};
use crate::spec::{Suite, Workload, WorkloadEntry};

fn parse(text: &str) -> rfh_isa::Kernel {
    rfh_isa::parse_kernel(text).unwrap_or_else(|e| panic!("workload kernel: {e}"))
}

const N: usize = 1024;

/// `backprop` — forward layer: weighted sum over 16 inputs plus a sigmoid
/// via `ex2`/`rcp`.
pub fn backprop() -> Workload {
    const IN: usize = 16;
    let w = f32_data(201, N * IN, -0.5, 0.5);
    let x = f32_data(202, IN, -1.0, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(w.iter().map(|v| v.to_bits())); // weights [n][IN]
    words.extend(x.iter().map(|v| v.to_bits())); // inputs
    words.extend(std::iter::repeat_n(0, N)); // outputs
    let kernel = parse(&format!(
        "
.kernel backprop
BB0:
  mov r0, %tid.x
  imul r1 r0, {IN}
  mov r2, 0.0f
  mov r3, 0
BB1:
  ld.global r4 r1
  iadd r5 r3, {xbase}
  ld.global r6 r5
  ffma r2 r4, r6, r2
  iadd r1 r1, 1
  iadd r3 r3, 1
  setp.lt p0 r3, {IN}
  @p0 bra BB1
BB2:
  fmul r7 r2, -1.4426951f
  ex2 r8 r7
  fadd r9 r8, 1.0f
  rcp r10 r9
  iadd r11 r0, {out}
  st.global r11, r10
  exit
",
        IN = IN,
        xbase = N * IN,
        out = N * IN + IN
    ));
    Workload {
        name: "backprop".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const IN: usize = 16;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let mut sum = 0.0f32;
                    for j in 0..IN {
                        let w = init.load_f32((t * IN + j) as u32).unwrap();
                        let x = init.load_f32((N * IN + j) as u32).unwrap();
                        sum = w.mul_add(x, sum);
                    }
                    let e = (sum * -1.442_695_1).exp2();
                    1.0 / (e + 1.0)
                })
                .collect();
            check_f32_region(out, N * IN + IN, &expected, 1e-5)
        },
    }
}

/// `hotspot` — one step of the thermal stencil with guarded edges.
pub fn hotspot() -> Workload {
    let temp = f32_data(211, N, 20.0, 90.0);
    let power = f32_data(212, N, 0.0, 2.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(temp.iter().map(|v| v.to_bits()));
    words.extend(power.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel hotspot
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  mov r2, r1
  setp.ge p0 r0, 1
  @!p0 bra BB3
BB1:
  setp.le p1 r0, {lastm1}
  @!p1 bra BB3
BB2:
  isub r3 r0, 1
  ld.global r4 r3
  iadd r5 r0, 1
  ld.global r6 r5
  iadd r7 r0, {pbase}
  ld.global r8 r7
  fadd r9 r4, r6
  fmul r10 r1, 2.0f
  fsub r9 r9, r10
  fmul r9 r9, 0.1f
  ffma r9 r8, 0.05f, r9
  fadd r2 r1, r9
BB3:
  iadd r11 r0, {out}
  st.global r11, r2
  exit
",
        lastm1 = N - 2,
        pbase = N,
        out = 2 * N
    ));
    Workload {
        name: "hotspot".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let me = init.load_f32(t as u32).unwrap();
                    if t == 0 || t == N - 1 {
                        me
                    } else {
                        let l = init.load_f32((t - 1) as u32).unwrap();
                        let r = init.load_f32((t + 1) as u32).unwrap();
                        let p = init.load_f32((N + t) as u32).unwrap();
                        let mut d = (l + r) - me * 2.0;
                        d *= 0.1;
                        d = p.mul_add(0.05, d);
                        me + d
                    }
                })
                .collect();
            check_f32_region(out, 2 * N, &expected, 1e-5)
        },
    }
}

/// `needle` — Needleman–Wunsch style integer scoring over 8 candidates.
pub fn needle() -> Workload {
    const STEPS: usize = 8;
    let nw = i32_data(221, N * STEPS, -10, 10);
    let w = i32_data(222, N * STEPS, -10, 10);
    let n_ = i32_data(223, N * STEPS, -10, 10);
    let mut words: Vec<u32> = Vec::new();
    words.extend(&nw);
    words.extend(&w);
    words.extend(&n_);
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel needle
BB0:
  mov r0, %tid.x
  imul r1 r0, {STEPS}
  mov r2, 0
  mov r3, 0
BB1:
  ld.global r4 r1
  iadd r5 r1, {wbase}
  ld.global r6 r5
  iadd r7 r1, {nbase}
  ld.global r8 r7
  iadd r9 r2, r4
  isub r10 r6, 2
  isub r11 r8, 2
  imax r12 r9, r10
  imax r2 r12, r11
  iadd r1 r1, 1
  iadd r3 r3, 1
  setp.lt p0 r3, {STEPS}
  @p0 bra BB1
BB2:
  iadd r13 r0, {out}
  st.global r13, r2
  exit
",
        STEPS = STEPS,
        wbase = N * STEPS,
        nbase = 2 * N * STEPS,
        out = 3 * N * STEPS
    ));
    Workload {
        name: "needle".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const STEPS: usize = 8;
            let expected: Vec<u32> = (0..N)
                .map(|t| {
                    let mut score = 0i32;
                    for s in 0..STEPS {
                        let nw = init.load((t * STEPS + s) as u32).unwrap() as i32;
                        let w = init.load((N * STEPS + t * STEPS + s) as u32).unwrap() as i32;
                        let n = init.load((2 * N * STEPS + t * STEPS + s) as u32).unwrap() as i32;
                        score = (score + nw).max(w - 2).max(n - 2);
                    }
                    score as u32
                })
                .collect();
            check_u32_region(out, 3 * N * STEPS, &expected)
        },
    }
}

/// `srad` — speckle-reducing diffusion step: stencil plus division chain.
pub fn srad() -> Workload {
    let img = f32_data(231, N, 1.0, 10.0);
    let mut words: Vec<u32> = img.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel srad
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  mov r2, r1
  setp.ge p0 r0, 1
  @!p0 bra BB3
BB1:
  setp.le p1 r0, {lastm1}
  @!p1 bra BB3
BB2:
  isub r3 r0, 1
  ld.global r4 r3
  iadd r5 r0, 1
  ld.global r6 r5
  fadd r7 r4, r6
  fmul r8 r1, 2.0f
  fsub r7 r7, r8
  rcp r9 r1
  fmul r10 r7, r9
  fmul r11 r10, r10
  fadd r12 r11, 1.0f
  rcp r13 r12
  ffma r2 r7, r13, r1
BB3:
  iadd r14 r0, {out}
  st.global r14, r2
  exit
",
        lastm1 = N - 2,
        out = N
    ));
    Workload {
        name: "srad".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let me = init.load_f32(t as u32).unwrap();
                    if t == 0 || t == N - 1 {
                        me
                    } else {
                        let l = init.load_f32((t - 1) as u32).unwrap();
                        let r = init.load_f32((t + 1) as u32).unwrap();
                        let lap = (l + r) - me * 2.0;
                        let g = lap * (1.0 / me);
                        let c = 1.0 / (g * g + 1.0);
                        lap.mul_add(c, me)
                    }
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-5)
        },
    }
}

/// Every Rodinia workload: its name and its constructor.
pub const WORKLOADS: &[WorkloadEntry] = &[
    ("backprop", backprop),
    ("hotspot", hotspot),
    ("needle", needle),
    ("srad", srad),
    ("hwt", hwt),
    ("lu", lu),
];

/// `hwt` — two Haar wavelet levels over 4 values per thread, entirely in
/// registers between one load and one store phase.
pub fn hwt() -> Workload {
    const S: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let data = f32_data(241, 4 * N, -1.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, 4 * N));
    let kernel = parse(&format!(
        "
.kernel hwt
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r9 r0, {n}
  ld.global r2 r9
  iadd r9 r0, {n2}
  ld.global r3 r9
  iadd r9 r0, {n3}
  ld.global r4 r9
  fadd r5 r1, r2
  fmul r5 r5, {S}f
  fsub r6 r1, r2
  fmul r6 r6, {S}f
  fadd r7 r3, r4
  fmul r7 r7, {S}f
  fsub r8 r3, r4
  fmul r8 r8, {S}f
  fadd r1 r5, r7
  fmul r1 r1, {S}f
  fsub r2 r5, r7
  fmul r2 r2, {S}f
  iadd r9 r0, {o0}
  st.global r9, r1
  iadd r9 r0, {o1}
  st.global r9, r2
  iadd r9 r0, {o2}
  st.global r9, r6
  iadd r9 r0, {o3}
  st.global r9, r8
  exit
",
        n = N,
        n2 = 2 * N,
        n3 = 3 * N,
        S = S,
        o0 = 4 * N,
        o1 = 5 * N,
        o2 = 6 * N,
        o3 = 7 * N
    ));
    Workload {
        name: "hwt".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const S: f32 = std::f32::consts::FRAC_1_SQRT_2;
            for t in 0..N {
                let x: Vec<f32> = (0..4)
                    .map(|i| init.load_f32((i * N + t) as u32).unwrap())
                    .collect();
                let a0 = (x[0] + x[1]) * S;
                let d0 = (x[0] - x[1]) * S;
                let a1 = (x[2] + x[3]) * S;
                let d1 = (x[2] - x[3]) * S;
                let expect = [(a0 + a1) * S, (a0 - a1) * S, d0, d1];
                for (i, e) in expect.iter().enumerate() {
                    let got = out.load_f32(((4 + i) * N + t) as u32).unwrap();
                    if (got - e).abs() > 1e-5 {
                        return Err(format!("t={t} i={i}: expected {e}, got {got}"));
                    }
                }
            }
            Ok(())
        },
    }
}

/// `lu` — in-register 3×3 LU elimination with reciprocal pivots.
pub fn lu() -> Workload {
    // Diagonally dominant 3×3 systems so pivots never vanish.
    let mut mats = f32_data(251, 9 * N, -1.0, 1.0);
    for t in 0..N {
        for d in 0..3 {
            mats[(d * 3 + d) * N + t] += 5.0;
        }
    }
    let mut words: Vec<u32> = mats.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::new();
    for i in 0..9 {
        body.push_str(&format!(
            "  iadd r10 r0, {}\n  ld.global r{} r10\n",
            i * N,
            1 + i
        ));
    }
    // Eliminate column 0: rows 1 and 2 (a = r1..r9 row-major).
    body.push_str("  rcp r10 r1\n");
    for row in 1..3 {
        let l = 1 + row * 3;
        body.push_str(&format!("  fmul r11 r{l}, r10\n"));
        for col in 1..3 {
            let (dst, src) = (1 + row * 3 + col, 1 + col);
            body.push_str(&format!(
                "  fmul r12 r11, r{src}\n  fsub r{dst} r{dst}, r12\n"
            ));
        }
    }
    // Eliminate column 1: row 2.
    body.push_str("  rcp r10 r5\n  fmul r11 r8, r10\n  fmul r12 r11, r6\n  fsub r9 r9, r12\n");
    let kernel = parse(&format!(
        ".kernel lu\nBB0:\n  mov r0, %tid.x\n{body}  iadd r10 r0, {}\n  st.global r10, r9\n  exit\n",
        9 * N
    ));
    Workload {
        name: "lu".into(),
        suite: Suite::Rodinia,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            for t in 0..N {
                let a = |r: usize, c: usize| init.load_f32(((r * 3 + c) * N + t) as u32).unwrap();
                let mut m = [
                    [a(0, 0), a(0, 1), a(0, 2)],
                    [a(1, 0), a(1, 1), a(1, 2)],
                    [a(2, 0), a(2, 1), a(2, 2)],
                ];
                let inv0 = 1.0 / m[0][0];
                for row in 1..3 {
                    let l = m[row][0] * inv0;
                    let pivot_row = m[0];
                    for (col, cell) in m[row].iter_mut().enumerate().skip(1) {
                        *cell -= l * pivot_row[col];
                    }
                }
                let inv1 = 1.0 / m[1][1];
                let l = m[2][1] * inv1;
                let expect = m[2][2] - l * m[1][2];
                let got = out.load_f32((9 * N + t) as u32).unwrap();
                if (got - expect).abs() > 1e-4 * expect.abs().max(1.0) {
                    return Err(format!("t={t}: expected {expect}, got {got}"));
                }
            }
            Ok(())
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_sim::exec::ExecMode;
    use rfh_sim::sink::NullSink;

    #[test]
    fn backprop_outputs_are_sigmoid_bounded() {
        let w = backprop();
        let mut sink = NullSink;
        let mem = w
            .run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap();
        for t in 0..N {
            let v = mem.load_f32((16 * N + 16 + t) as u32).unwrap();
            assert!((0.0..=1.0).contains(&v), "t={t}: {v}");
        }
    }

    #[test]
    fn hotspot_preserves_boundary_cells() {
        let w = hotspot();
        let mut sink = NullSink;
        let mem = w
            .run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap();
        assert_eq!(mem.load_f32(2 * N as u32), w.memory.load_f32(0));
        assert_eq!(
            mem.load_f32((3 * N - 1) as u32),
            w.memory.load_f32((N - 1) as u32)
        );
    }

    #[test]
    fn lu_pivots_stay_stable_with_dominant_diagonals() {
        // The input generator biases diagonals by +5, so the final Schur
        // complement must stay bounded away from zero.
        let w = lu();
        let mut sink = NullSink;
        let mem = w
            .run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap();
        for t in 0..N {
            let v = mem.load_f32((9 * N + t) as u32).unwrap();
            assert!(v.abs() > 1.0, "t={t}: degenerate pivot {v}");
        }
    }
}
