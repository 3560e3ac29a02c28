//! CUDA SDK 3.2 suite ports (paper Table 1).
//!
//! Each port reproduces the dataflow shape of the original sample — the
//! mix of global loads, arithmetic chains, SFU use, shared memory, and
//! control flow — at a size that keeps one SM's worth of threads (32 warps)
//! busy. Every workload carries a host reference implementation that
//! mirrors the kernel's f32 operation order exactly (including fused
//! multiply-adds), so simulated results are checked verbatim.

use rfh_sim::exec::Launch;
use rfh_sim::mem::GlobalMemory;

use crate::spec::util::{check_f32_region, check_u32_region, f32_data, i32_data};
use crate::spec::{Suite, Workload, WorkloadEntry};

fn parse(text: &str) -> rfh_isa::Kernel {
    rfh_isa::parse_kernel(text).unwrap_or_else(|e| panic!("workload kernel: {e}"))
}

const N: usize = 1024;

/// `VectorAdd`: `c[i] = a[i] + b[i]`.
pub fn vectoradd() -> Workload {
    let a = f32_data(11, N, -1.0, 1.0);
    let b = f32_data(12, N, -1.0, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(a.iter().map(|v| v.to_bits()));
    words.extend(b.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, N));
    // Launched as 4 CTAs of 256 threads (still one SM's residency), so the
    // global index is computed the standard way.
    let kernel = parse(
        "
.kernel vectoradd
BB0:
  mov r0, %ctaid.x
  imul r0 r0, %ntid.x
  iadd r0 r0, %tid.x
  ld.param r1 0
  iadd r2 r1, r0
  ld.global r3 r2
  ld.param r4 1
  iadd r5 r4, r0
  ld.global r6 r5
  fadd r7 r3, r6
  ld.param r8 2
  iadd r9 r8, r0
  st.global r9, r7
  exit
",
    );
    Workload {
        name: "vectoradd".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(4, N / 4).with_params(vec![0, N as u32, 2 * N as u32]),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N)
                .map(|i| init.load_f32(i as u32).unwrap() + init.load_f32((N + i) as u32).unwrap())
                .collect();
            check_f32_region(out, 2 * N, &expected, 0.0)
        },
    }
}

/// `ScalarProd`: per-thread dot product over a K-element segment — the
/// paper's worst case (tight loop of global loads and one FMA, §6.4).
pub fn scalarprod() -> Workload {
    const K: usize = 16;
    let a = f32_data(21, N * K, -1.0, 1.0);
    let b = f32_data(22, N * K, -1.0, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(a.iter().map(|v| v.to_bits()));
    words.extend(b.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel scalarprod
BB0:
  mov r0, %tid.x
  imul r1 r0, {K}
  ld.param r2 0
  iadd r2 r2, r1
  ld.param r3 1
  iadd r3 r3, r1
  mov r4, 0.0f
  mov r5, 0
BB1:
  ld.global r6 r2
  ld.global r7 r3
  ffma r4 r6, r7, r4
  iadd r2 r2, 1
  iadd r3 r3, 1
  iadd r5 r5, 1
  setp.lt p0 r5, {K}
  @p0 bra BB1
BB2:
  ld.param r8 2
  iadd r9 r8, r0
  st.global r9, r4
  exit
"
    ));
    Workload {
        name: "scalarprod".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N).with_params(vec![0, (N * K) as u32, (2 * N * K) as u32]),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let mut sum = 0.0f32;
                    for i in 0..K {
                        let a = init.load_f32((t * K + i) as u32).unwrap();
                        let b = init.load_f32((N * K + t * K + i) as u32).unwrap();
                        sum = a.mul_add(b, sum);
                    }
                    sum
                })
                .collect();
            check_f32_region(out, 2 * N * K, &expected, 1e-6)
        },
    }
}

/// `Reduction`: shared-memory tree reduction of 1024 floats, one CTA.
pub fn reduction() -> Workload {
    let data = f32_data(31, N, 0.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.push(0); // output cell at word N
    let kernel = parse(
        "
.kernel reduction
BB0:
  mov r0, %tid.x
  ld.param r1 0
  iadd r2 r1, r0
  ld.global r3 r2
  st.shared r0, r3
  bar
  mov r4, 512
BB1:
  setp.lt p0 r0, r4
  iadd r5 r0, r4
  @p0 ld.shared r6 r5
  @p0 ld.shared r7 r0
  @p0 fadd r8 r6, r7
  @p0 st.shared r0, r8
  bar
  shr r4 r4, 1
  setp.ge p1 r4, 1
  @p1 bra BB1
BB2:
  setp.eq p2 r0, 0
  @!p2 exit
  ld.shared r9 0
  ld.param r10 1
  st.global r10, r9
  exit
",
    );
    Workload {
        name: "reduction".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N).with_params(vec![0, N as u32]),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            // Tree-order reduction, matching the kernel exactly.
            let mut sh: Vec<f32> = (0..N).map(|i| init.load_f32(i as u32).unwrap()).collect();
            let mut stride = N / 2;
            while stride >= 1 {
                for t in 0..stride {
                    sh[t] += sh[t + stride];
                }
                stride /= 2;
            }
            check_f32_region(out, N, &sh[..1], 0.0)
        },
    }
}

/// `MatrixMul`: 32×32 · 32×32 matrix product, one output element per
/// thread.
pub fn matrixmul() -> Workload {
    const D: usize = 32;
    let a = f32_data(41, D * D, -1.0, 1.0);
    let b = f32_data(42, D * D, -1.0, 1.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(a.iter().map(|v| v.to_bits()));
    words.extend(b.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, D * D));
    let kernel = parse(&format!(
        "
.kernel matrixmul
BB0:
  mov r0, %tid.x
  shr r1 r0, 5
  and r2 r0, 31
  ld.param r3 0
  imul r4 r1, {D}
  iadd r3 r3, r4
  ld.param r5 1
  iadd r5 r5, r2
  mov r6, 0.0f
  mov r7, 0
BB1:
  ld.global r8 r3
  ld.global r9 r5
  ffma r6 r8, r9, r6
  iadd r3 r3, 1
  iadd r5 r5, {D}
  iadd r7 r7, 1
  setp.lt p0 r7, {D}
  @p0 bra BB1
BB2:
  ld.param r10 2
  iadd r10 r10, r0
  st.global r10, r6
  exit
"
    ));
    Workload {
        name: "matrixmul".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, D * D).with_params(vec![0, (D * D) as u32, (2 * D * D) as u32]),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const D: usize = 32;
            let expected: Vec<f32> = (0..D * D)
                .map(|idx| {
                    let (row, col) = (idx / D, idx % D);
                    let mut sum = 0.0f32;
                    for k in 0..D {
                        let a = init.load_f32((row * D + k) as u32).unwrap();
                        let b = init.load_f32((D * D + k * D + col) as u32).unwrap();
                        sum = a.mul_add(b, sum);
                    }
                    sum
                })
                .collect();
            check_f32_region(out, 2 * D * D, &expected, 1e-5)
        },
    }
}

/// `Mandelbrot`: per-thread escape-time iteration with heavy divergence.
pub fn mandelbrot() -> Workload {
    let words = vec![0u32; N];
    let kernel = parse(
        "
.kernel mandelbrot
BB0:
  mov r0, %tid.x
  and r1 r0, 31
  shr r2 r0, 5
  i2f r3 r1
  fmul r3 r3, 0.09375f
  fadd r3 r3, -2.0f
  i2f r4 r2
  fmul r4 r4, 0.09375f
  fadd r4 r4, -1.5f
  mov r5, 0.0f
  mov r6, 0.0f
  mov r7, 0
BB1:
  fmul r8 r5, r5
  fmul r9 r6, r6
  fadd r10 r8, r9
  fsetp.ge p0 r10, 4.0f
  @p0 bra BB3
BB2:
  fmul r11 r5, r6
  fsub r5 r8, r9
  fadd r5 r5, r3
  ffma r6 r11, 2.0f, r4
  iadd r7 r7, 1
  setp.lt p1 r7, 48
  @p1 bra BB1
BB3:
  st.global r0, r7
  exit
",
    );
    Workload {
        name: "mandelbrot".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |_, out| {
            let expected: Vec<u32> = (0..N as u32)
                .map(|t| {
                    let cx = (t & 31) as f32 * 0.09375 + -2.0;
                    let cy = (t >> 5) as f32 * 0.09375 + -1.5;
                    let (mut zx, mut zy, mut it) = (0.0f32, 0.0f32, 0u32);
                    loop {
                        let (x2, y2) = (zx * zx, zy * zy);
                        if x2 + y2 >= 4.0 {
                            break;
                        }
                        let xy = zx * zy;
                        zx = (x2 - y2) + cx;
                        zy = xy.mul_add(2.0, cy);
                        it += 1;
                        if it >= 48 {
                            break;
                        }
                    }
                    it
                })
                .collect();
            check_u32_region(out, 0, &expected)
        },
    }
}

/// `Nbody`: gravitational accumulation over 64 bodies per thread (rsqrt
/// SFU inner loop).
pub fn nbody() -> Workload {
    const BODIES: usize = 64;
    let xs = f32_data(51, BODIES, -4.0, 4.0);
    let ms = f32_data(52, BODIES, 0.1, 2.0);
    let px = f32_data(53, N, -4.0, 4.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(xs.iter().map(|v| v.to_bits())); // 0..64: body positions
    words.extend(ms.iter().map(|v| v.to_bits())); // 64..128: body masses
    words.extend(px.iter().map(|v| v.to_bits())); // 128..128+N: particle x
    words.extend(std::iter::repeat_n(0, N)); // output accel
    let kernel = parse(&format!(
        "
.kernel nbody
BB0:
  mov r0, %tid.x
  iadd r1 r0, 128
  ld.global r2 r1
  mov r3, 0.0f
  mov r4, 0
BB1:
  ld.global r5 r4
  iadd r6 r4, 64
  ld.global r7 r6
  fsub r8 r5, r2
  ffma r9 r8, r8, 0.01f
  rsqrt r10 r9
  fmul r11 r10, r10
  fmul r11 r11, r10
  fmul r12 r7, r11
  ffma r3 r12, r8, r3
  iadd r4 r4, 1
  setp.lt p0 r4, {BODIES}
  @p0 bra BB1
BB2:
  iadd r13 r0, {out}
  st.global r13, r3
  exit
",
        BODIES = BODIES,
        out = 128 + N
    ));
    Workload {
        name: "nbody".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const BODIES: usize = 64;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let x = init.load_f32((128 + t) as u32).unwrap();
                    let mut acc = 0.0f32;
                    for j in 0..BODIES {
                        let bx = init.load_f32(j as u32).unwrap();
                        let m = init.load_f32((64 + j) as u32).unwrap();
                        let dx = bx - x;
                        let d2 = dx.mul_add(dx, 0.01);
                        let inv = 1.0 / d2.sqrt();
                        let inv3 = inv * inv * inv;
                        acc = (m * inv3).mul_add(dx, acc);
                    }
                    acc
                })
                .collect();
            check_f32_region(out, 128 + N, &expected, 1e-4)
        },
    }
}

/// `Histogram`: each thread counts how often its bin appears in a data
/// segment (compare-and-accumulate inner loop).
pub fn histogram() -> Workload {
    const SEG: usize = 16;
    let data = i32_data(61, N * SEG, 0, 1024);
    let mut words: Vec<u32> = data.clone();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel histogram
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  imul r4 r2, {N}
  iadd r4 r4, r0
  ld.global r5 r4
  setp.eq p0 r5, r0
  @p0 iadd r1 r1, 1
  iadd r2 r2, 1
  setp.lt p1 r2, {SEG}
  @p1 bra BB1
BB2:
  iadd r6 r0, {out}
  st.global r6, r1
  exit
",
        N = N,
        SEG = SEG,
        out = N * SEG
    ));
    Workload {
        name: "histogram".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const SEG: usize = 16;
            let expected: Vec<u32> = (0..N as u32)
                .map(|t| {
                    let mut count = 0;
                    for s in 0..SEG {
                        let v = init.load((s * N) as u32 + t).unwrap();
                        if v == t {
                            count += 1;
                        }
                    }
                    count
                })
                .collect();
            check_u32_region(out, N * SEG, &expected)
        },
    }
}

/// `BicubicTexture`: four texture fetches blended with computed weights.
pub fn bicubictexture() -> Workload {
    let texture = f32_data(71, 2048, 0.0, 1.0);
    let mut words: Vec<u32> = texture.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel bicubictexture
BB0:
  mov r0, %tid.x
  and r1 r0, 1023
  i2f r2 r0
  fmul r2 r2, 0.3141f
  sin r3 r2
  fadd r3 r3, 1.0f
  fmul r3 r3, 0.5f
  tex r4 r1
  iadd r5 r1, 1
  tex r6 r5
  iadd r7 r1, 2
  tex r8 r7
  iadd r9 r1, 3
  tex r10 r9
  fsub r11 1.0f, r3
  fmul r12 r4, r11
  ffma r12 r6, r3, r12
  fmul r13 r8, r11
  ffma r13 r10, r3, r13
  fadd r14 r12, r13
  fmul r14 r14, 0.5f
  iadd r15 r0, {out}
  st.global r15, r14
  exit
",
        out = 2048
    ));
    Workload {
        name: "bicubictexture".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N as u32)
                .map(|t| {
                    let i = t & 1023;
                    let w = ((t as f32 * 0.3141).sin() + 1.0) * 0.5;
                    let fetch = |a: u32| init.load_f32(a).unwrap();
                    let (t0, t1, t2, t3) = (fetch(i), fetch(i + 1), fetch(i + 2), fetch(i + 3));
                    let inv = 1.0 - w;
                    let lo = t1.mul_add(w, t0 * inv);
                    let hi = t3.mul_add(w, t2 * inv);
                    (lo + hi) * 0.5
                })
                .collect();
            check_f32_region(out, 2048, &expected, 1e-5)
        },
    }
}

/// `DwtHaar1D`: one Haar wavelet step, one butterfly per thread.
pub fn dwthaar1d() -> Workload {
    let data = f32_data(81, 2 * N, -1.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, 2 * N));
    let kernel = parse(&format!(
        "
.kernel dwthaar1d
BB0:
  mov r0, %tid.x
  shl r1 r0, 1
  ld.global r2 r1
  iadd r3 r1, 1
  ld.global r4 r3
  fadd r5 r2, r4
  fmul r5 r5, 0.70710678f
  fsub r6 r2, r4
  fmul r6 r6, 0.70710678f
  iadd r7 r0, {approx}
  st.global r7, r5
  iadd r8 r0, {detail}
  st.global r8, r6
  exit
",
        approx = 2 * N,
        detail = 3 * N
    ));
    Workload {
        name: "dwthaar1d".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let approx: Vec<f32> = (0..N)
                .map(|t| {
                    let a = init.load_f32((2 * t) as u32).unwrap();
                    let b = init.load_f32((2 * t + 1) as u32).unwrap();
                    (a + b) * std::f32::consts::FRAC_1_SQRT_2
                })
                .collect();
            let detail: Vec<f32> = (0..N)
                .map(|t| {
                    let a = init.load_f32((2 * t) as u32).unwrap();
                    let b = init.load_f32((2 * t + 1) as u32).unwrap();
                    (a - b) * std::f32::consts::FRAC_1_SQRT_2
                })
                .collect();
            check_f32_region(out, 2 * N, &approx, 1e-6)?;
            check_f32_region(out, 3 * N, &detail, 1e-6)
        },
    }
}

/// `SobelFilter`: 1-D gradient magnitude with guarded edges.
pub fn sobelfilter() -> Workload {
    let data = f32_data(91, N, 0.0, 8.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel sobelfilter
BB0:
  mov r0, %tid.x
  mov r1, 0.0f
  setp.ge p0 r0, 1
  @!p0 bra BB3
BB1:
  setp.le p1 r0, {lastm1}
  @!p1 bra BB3
BB2:
  isub r2 r0, 1
  ld.global r3 r2
  iadd r4 r0, 1
  ld.global r5 r4
  fsub r6 r5, r3
  fsub r7 0.0f, r6
  fmax r1 r6, r7
BB3:
  iadd r8 r0, {out}
  st.global r8, r1
  exit
",
        lastm1 = N - 2,
        out = N
    ));
    Workload {
        name: "sobelfilter".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    if t == 0 || t == N - 1 {
                        0.0
                    } else {
                        let l = init.load_f32((t - 1) as u32).unwrap();
                        let r = init.load_f32((t + 1) as u32).unwrap();
                        (r - l).abs()
                    }
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-6)
        },
    }
}

/// Every CUDA SDK workload: its name and its constructor.
pub const WORKLOADS: &[WorkloadEntry] = &[
    ("vectoradd", vectoradd),
    ("scalarprod", scalarprod),
    ("reduction", reduction),
    ("matrixmul", matrixmul),
    ("mandelbrot", mandelbrot),
    ("nbody", nbody),
    ("histogram", histogram),
    ("bicubictexture", bicubictexture),
    ("dwthaar1d", dwthaar1d),
    ("sobelfilter", sobelfilter),
    ("dct8x8", dct8x8),
    ("fastwalshtransform", fastwalshtransform),
    ("sortingnetworks", sortingnetworks),
    ("convolutionseparable", convolutionseparable),
    ("binomialoptions", binomialoptions),
    ("montecarlo", montecarlo),
    ("volumerender", volumerender),
    ("boxfilter", boxfilter),
    ("convolutiontexture", convolutiontexture),
    ("sobolqrng", sobolqrng),
    ("imagedenoising", imagedenoising),
    ("mergesort", mergesort),
    ("eigenvalues", eigenvalues),
    ("recursivegaussian", recursivegaussian),
];

/// `Dct8x8` (4-point DCT-II per thread, two blocks): dense FMA chains on
/// register values between one load and one store phase.
pub fn dct8x8() -> Workload {
    let data = f32_data(131, 8 * N, -1.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, 8 * N));
    // DCT-II coefficients for 4 points: c[k][n] = cos(pi/4 * (n + 0.5) * k).
    let c = |k: usize, n: usize| -> f32 {
        (std::f32::consts::PI / 4.0 * (n as f32 + 0.5) * k as f32).cos()
    };
    let mut body = String::new();
    // Two 4-point blocks per thread: registers r1..r4 and r5..r8.
    for blk in 0..2 {
        let base = 1 + blk * 4;
        for k in 0..4 {
            let d = 9 + k; // r9..r12 outputs
            body.push_str(&format!("  fmul r{d} r{base}, {:?}f\n", c(k, 0)));
            for n in 1..4 {
                body.push_str(&format!(
                    "  ffma r{d} r{}, {:?}f, r{d}\n",
                    base + n,
                    c(k, n)
                ));
            }
        }
        for k in 0..4 {
            body.push_str(&format!(
                "  iadd r13 r0, {}\n  st.global r13, r{}\n",
                8 * N + blk * 4 * N + k * N,
                9 + k
            ));
        }
    }
    let mut loads = String::new();
    for i in 0..8 {
        loads.push_str(&format!(
            "  iadd r13 r0, {}\n  ld.global r{} r13\n",
            i * N,
            1 + i
        ));
    }
    let kernel = parse(&format!(
        ".kernel dct8x8\nBB0:\n  mov r0, %tid.x\n{loads}{body}  exit\n"
    ));
    Workload {
        name: "dct8x8".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let c = |k: usize, n: usize| -> f32 {
                (std::f32::consts::PI / 4.0 * (n as f32 + 0.5) * k as f32).cos()
            };
            for t in 0..N {
                for blk in 0..2 {
                    for k in 0..4 {
                        let mut acc = init.load_f32((blk * 4 * N + t) as u32).unwrap() * c(k, 0);
                        for n in 1..4 {
                            let x = init.load_f32(((blk * 4 + n) * N + t) as u32).unwrap();
                            acc = x.mul_add(c(k, n), acc);
                        }
                        let got = out
                            .load_f32((8 * N + blk * 4 * N + k * N + t) as u32)
                            .unwrap();
                        if (got - acc).abs() > 1e-4 * acc.abs().max(1.0) {
                            return Err(format!("t={t} blk={blk} k={k}: {acc} vs {got}"));
                        }
                    }
                }
            }
            Ok(())
        },
    }
}

/// `FastWalshTransform`: an 8-point Walsh–Hadamard butterfly network held
/// entirely in registers.
pub fn fastwalshtransform() -> Workload {
    let data = f32_data(141, 8 * N, -1.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, 8 * N));
    let mut body = String::new();
    // Three butterfly stages over r1..r8 (strides 1, 2, 4).
    for stage in 0..3u32 {
        let stride = 1usize << stage;
        let mut done = [false; 8];
        for i in 0..8 {
            if done[i] {
                continue;
            }
            let j = i + stride;
            if j >= 8 || done[j] || (i / stride) % 2 == 1 {
                continue;
            }
            done[i] = true;
            done[j] = true;
            let (a, b) = (1 + i, 1 + j);
            body.push_str(&format!(
                "  fadd r9 r{a}, r{b}\n  fsub r{b} r{a}, r{b}\n  mov r{a}, r9\n"
            ));
        }
    }
    let mut loads = String::new();
    let mut stores = String::new();
    for i in 0..8 {
        loads.push_str(&format!(
            "  iadd r10 r0, {}\n  ld.global r{} r10\n",
            i * N,
            1 + i
        ));
        stores.push_str(&format!(
            "  iadd r10 r0, {}\n  st.global r10, r{}\n",
            8 * N + i * N,
            1 + i
        ));
    }
    let kernel = parse(&format!(
        ".kernel fastwalshtransform\nBB0:\n  mov r0, %tid.x\n{loads}{body}{stores}  exit\n"
    ));
    Workload {
        name: "fastwalshtransform".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            for t in 0..N {
                let mut v: Vec<f32> = (0..8)
                    .map(|i| init.load_f32((i * N + t) as u32).unwrap())
                    .collect();
                for stage in 0..3u32 {
                    let stride = 1usize << stage;
                    let mut done = [false; 8];
                    for i in 0..8 {
                        if done[i] {
                            continue;
                        }
                        let j = i + stride;
                        if j >= 8 || done[j] || (i / stride) % 2 == 1 {
                            continue;
                        }
                        done[i] = true;
                        done[j] = true;
                        let (a, b) = (v[i] + v[j], v[i] - v[j]);
                        v[i] = a;
                        v[j] = b;
                    }
                }
                for (i, e) in v.iter().enumerate() {
                    let got = out.load_f32((8 * N + i * N + t) as u32).unwrap();
                    if (got - e).abs() > 1e-5 * e.abs().max(1.0) {
                        return Err(format!("t={t} i={i}: expected {e}, got {got}"));
                    }
                }
            }
            Ok(())
        },
    }
}

/// `SortingNetworks`: Batcher's 8-element odd–even merge network, entirely
/// in registers (dense `imin`/`imax` chains).
pub fn sortingnetworks() -> Workload {
    const NET: [(usize, usize); 19] = [
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7),
        (0, 2),
        (1, 3),
        (4, 6),
        (5, 7),
        (1, 2),
        (5, 6),
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
        (2, 4),
        (3, 5),
        (1, 2),
        (3, 4),
        (5, 6),
    ];
    let data = i32_data(151, 8 * N, -1000, 1000);
    let mut words: Vec<u32> = data.clone();
    words.extend(std::iter::repeat_n(0, 8 * N));
    let mut body = String::new();
    for (a, b) in NET {
        let (ra, rb) = (1 + a, 1 + b);
        body.push_str(&format!(
            "  imin r9 r{ra}, r{rb}\n  imax r{rb} r{ra}, r{rb}\n  mov r{ra}, r9\n"
        ));
    }
    let mut loads = String::new();
    let mut stores = String::new();
    for i in 0..8 {
        loads.push_str(&format!(
            "  iadd r10 r0, {}\n  ld.global r{} r10\n",
            i * N,
            1 + i
        ));
        stores.push_str(&format!(
            "  iadd r10 r0, {}\n  st.global r10, r{}\n",
            8 * N + i * N,
            1 + i
        ));
    }
    let kernel = parse(&format!(
        ".kernel sortingnetworks\nBB0:\n  mov r0, %tid.x\n{loads}{body}{stores}  exit\n"
    ));
    Workload {
        name: "sortingnetworks".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            for t in 0..N {
                let mut v: Vec<i32> = (0..8)
                    .map(|i| init.load((i * N + t) as u32).unwrap() as i32)
                    .collect();
                v.sort_unstable();
                for (i, e) in v.iter().enumerate() {
                    let got = out.load((8 * N + i * N + t) as u32).unwrap() as i32;
                    if got != *e {
                        return Err(format!("t={t} i={i}: expected {e}, got {got}"));
                    }
                }
            }
            Ok(())
        },
    }
}

/// `ConvolutionSeparable`: 7-tap 1-D convolution with clamped borders
/// (address clamping via `imax`/`imin` keeps every lane in bounds).
pub fn convolutionseparable() -> Workload {
    const TAPS: [f32; 7] = [0.0625, 0.125, 0.1875, 0.25, 0.1875, 0.125, 0.0625];
    let data = f32_data(161, N, -2.0, 2.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::new();
    body.push_str("  mov r1, 0.0f\n");
    for (k, w) in TAPS.iter().enumerate() {
        let off = k as i32 - 3;
        body.push_str(&format!("  iadd r2 r0, {off}\n"));
        body.push_str("  imax r2 r2, 0\n");
        body.push_str(&format!("  imin r2 r2, {}\n", N - 1));
        body.push_str("  ld.global r3 r2\n");
        body.push_str(&format!("  ffma r1 r3, {w:?}f, r1\n"));
    }
    let kernel = parse(&format!(
        ".kernel convolutionseparable\nBB0:\n  mov r0, %tid.x\n{body}  iadd r4 r0, {}\n  st.global r4, r1\n  exit\n",
        N
    ));
    Workload {
        name: "convolutionseparable".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const TAPS: [f32; 7] = [0.0625, 0.125, 0.1875, 0.25, 0.1875, 0.125, 0.0625];
            let expected: Vec<f32> = (0..N as i32)
                .map(|t| {
                    let mut acc = 0.0f32;
                    for (k, w) in TAPS.iter().enumerate() {
                        let idx = (t + k as i32 - 3).clamp(0, N as i32 - 1) as u32;
                        acc = init.load_f32(idx).unwrap().mul_add(*w, acc);
                    }
                    acc
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-5)
        },
    }
}

/// `BinomialOptions`: an 8-step CRR backward induction held entirely in
/// registers — the densest FMA chain in the suite.
pub fn binomialoptions() -> Workload {
    const STEPS: usize = 8;
    const U: f32 = 1.05; // up factor per step
    const PU: f32 = 0.55; // risk-neutral up probability × discount
    const PD: f32 = 0.43; // down probability × discount
    const STRIKE: f32 = 1.0;
    let spots = f32_data(171, N, 0.5, 2.0);
    let mut words: Vec<u32> = spots.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::new();
    // Leaves: v_j = max(S·U^(2j−STEPS) − K, 0), j = 0..=STEPS in r2..r10.
    for j in 0..=STEPS {
        let factor = U.powi(2 * j as i32 - STEPS as i32);
        let r = 2 + j;
        body.push_str(&format!("  fmul r{r} r1, {factor:?}f\n"));
        body.push_str(&format!("  fsub r{r} r{r}, {STRIKE:?}f\n"));
        body.push_str(&format!("  fmax r{r} r{r}, 0.0f\n"));
    }
    // Backward induction: v_j = PU·v_{j+1} + PD·v_j.
    for step in (1..=STEPS).rev() {
        for j in 0..step {
            let (lo, hi) = (2 + j, 2 + j + 1);
            body.push_str(&format!("  fmul r11 r{lo}, {PD:?}f\n"));
            body.push_str(&format!("  ffma r{lo} r{hi}, {PU:?}f, r11\n"));
        }
    }
    let kernel = parse(&format!(
        ".kernel binomialoptions\nBB0:\n  mov r0, %tid.x\n  ld.global r1 r0\n{body}  iadd r12 r0, {N}\n  st.global r12, r2\n  exit\n"
    ));
    Workload {
        name: "binomialoptions".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const STEPS: usize = 8;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let s = init.load_f32(t as u32).unwrap();
                    let mut v: Vec<f32> = (0..=STEPS)
                        .map(|j| {
                            let f = U.powi(2 * j as i32 - STEPS as i32);
                            ((s * f) - STRIKE).max(0.0)
                        })
                        .collect();
                    for step in (1..=STEPS).rev() {
                        for j in 0..step {
                            v[j] = v[j + 1].mul_add(PU, v[j] * PD);
                        }
                    }
                    v[0]
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-4)
        },
    }
}

/// `MonteCarlo`: per-thread LCG paths with payoff accumulation (integer
/// RNG chain feeding float arithmetic in a loop).
pub fn montecarlo() -> Workload {
    const PATHS: usize = 24;
    let seeds = i32_data(181, N, 1, 1 << 20);
    let mut words: Vec<u32> = seeds.clone();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel montecarlo
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  mov r2, 0.0f
  mov r3, 0
BB1:
  imul r1 r1, 1103515245
  iadd r1 r1, 12345
  and r4 r1, 65535
  i2f r5 r4
  fmul r5 r5, 0.0000305f
  fsub r5 r5, 0.8f
  fmax r5 r5, 0.0f
  fadd r2 r2, r5
  iadd r3 r3, 1
  setp.lt p0 r3, {PATHS}
  @p0 bra BB1
BB2:
  fmul r2 r2, {inv}f
  iadd r6 r0, {out}
  st.global r6, r2
  exit
",
        PATHS = PATHS,
        inv = 1.0 / PATHS as f32,
        out = N
    ));
    Workload {
        name: "montecarlo".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const PATHS: usize = 24;
            let expected: Vec<f32> = (0..N)
                .map(|t| {
                    let mut x = init.load(t as u32).unwrap() as i32;
                    let mut acc = 0.0f32;
                    for _ in 0..PATHS {
                        x = x.wrapping_mul(1103515245).wrapping_add(12345);
                        let u = (x as u32 & 65535) as i32 as f32;
                        let v = (u * 0.0000305 - 0.8).max(0.0);
                        acc += v;
                    }
                    acc * (1.0 / PATHS as f32)
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-5)
        },
    }
}

/// `VolumeRender`: front-to-back ray marching with texture fetches and a
/// transmittance recurrence.
pub fn volumerender() -> Workload {
    const STEPS: usize = 16;
    let volume = f32_data(191, 2048, 0.0, 0.6);
    let mut words: Vec<u32> = volume.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let kernel = parse(&format!(
        "
.kernel volumerender
BB0:
  mov r0, %tid.x
  and r1 r0, 1023
  mov r2, 0.0f
  mov r3, 1.0f
  mov r4, 0
BB1:
  tex r5 r1
  fmul r6 r5, r3
  fadd r2 r2, r6
  fmul r7 r5, 0.5f
  fsub r8 1.0f, r7
  fmul r3 r3, r8
  iadd r1 r1, 61
  and r1 r1, 2047
  iadd r4 r4, 1
  setp.lt p0 r4, {STEPS}
  @p0 bra BB1
BB2:
  iadd r9 r0, {out}
  st.global r9, r2
  exit
",
        STEPS = STEPS,
        out = 2048
    ));
    Workload {
        name: "volumerender".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const STEPS: usize = 16;
            let expected: Vec<f32> = (0..N as u32)
                .map(|t| {
                    let mut pos = t & 1023;
                    let (mut color, mut trans) = (0.0f32, 1.0f32);
                    for _ in 0..STEPS {
                        let s = init.load_f32(pos).unwrap();
                        color += s * trans;
                        trans *= 1.0 - s * 0.5;
                        pos = (pos + 61) & 2047;
                    }
                    color
                })
                .collect();
            check_f32_region(out, 2048, &expected, 1e-4)
        },
    }
}

/// `BoxFilter`: 9-wide sliding box average with clamped borders.
pub fn boxfilter() -> Workload {
    let data = f32_data(301, N, 0.0, 16.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::from("  mov r1, 0.0f\n");
    for off in -4i32..=4 {
        body.push_str(&format!(
            "  iadd r2 r0, {off}\n  imax r2 r2, 0\n  imin r2 r2, {}\n  ld.global r3 r2\n  fadd r1 r1, r3\n",
            N - 1
        ));
    }
    let kernel = parse(&format!(
        ".kernel boxfilter\nBB0:\n  mov r0, %tid.x\n{body}  fmul r1 r1, {inv:?}f\n  iadd r4 r0, {out}\n  st.global r4, r1\n  exit\n",
        inv = 1.0f32 / 9.0,
        out = N
    ));
    Workload {
        name: "boxfilter".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N as i32)
                .map(|t| {
                    let mut acc = 0.0f32;
                    for off in -4i32..=4 {
                        let idx = (t + off).clamp(0, N as i32 - 1) as u32;
                        acc += init.load_f32(idx).unwrap();
                    }
                    acc * (1.0f32 / 9.0)
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-5)
        },
    }
}

/// `ConvolutionTexture`: 5-tap convolution through the texture unit with
/// wrapped coordinates.
pub fn convolutiontexture() -> Workload {
    const TAPS: [f32; 5] = [0.1, 0.2, 0.4, 0.2, 0.1];
    let tex = f32_data(311, 1024, -1.0, 1.0);
    let mut words: Vec<u32> = tex.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::from("  mov r1, 0.0f\n");
    for (k, w) in TAPS.iter().enumerate() {
        body.push_str(&format!(
            "  iadd r2 r0, {k}\n  and r2 r2, 1023\n  tex r3 r2\n  ffma r1 r3, {w:?}f, r1\n"
        ));
    }
    let kernel = parse(&format!(
        ".kernel convolutiontexture\nBB0:\n  mov r0, %tid.x\n{body}  iadd r4 r0, 1024\n  st.global r4, r1\n  exit\n"
    ));
    Workload {
        name: "convolutiontexture".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const TAPS: [f32; 5] = [0.1, 0.2, 0.4, 0.2, 0.1];
            let expected: Vec<f32> = (0..N as u32)
                .map(|t| {
                    let mut acc = 0.0f32;
                    for (k, w) in TAPS.iter().enumerate() {
                        let c = (t + k as u32) & 1023;
                        acc = init.load_f32(c).unwrap().mul_add(*w, acc);
                    }
                    acc
                })
                .collect();
            check_f32_region(out, 1024, &expected, 1e-5)
        },
    }
}

/// `SobolQRNG`: direction-number XOR accumulation with predicated updates
/// (integer + predication heavy).
pub fn sobolqrng() -> Workload {
    const BITS: usize = 16;
    let dirs = i32_data(321, BITS, 1, 1 << 30);
    let mut words: Vec<u32> = dirs.clone();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::from("  mov r1, 0\n");
    for bit in 0..BITS {
        body.push_str(&format!(
            "  shr r2 r0, {bit}\n  and r2 r2, 1\n  setp.eq p0 r2, 1\n  ld.global r3 {bit}\n  @p0 xor r1 r1, r3\n"
        ));
    }
    let kernel = parse(&format!(
        ".kernel sobolqrng\nBB0:\n  mov r0, %tid.x\n{body}  iadd r4 r0, {BITS}\n  st.global r4, r1\n  exit\n"
    ));
    Workload {
        name: "sobolqrng".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const BITS: usize = 16;
            let expected: Vec<u32> = (0..N as u32)
                .map(|t| {
                    let mut v = 0u32;
                    for bit in 0..BITS {
                        if (t >> bit) & 1 == 1 {
                            v ^= init.load(bit as u32).unwrap();
                        }
                    }
                    v
                })
                .collect();
            check_u32_region(out, BITS, &expected)
        },
    }
}

/// `ImageDenoising`: edge-preserving weighted average — per-neighbor
/// weights from `rcp(1 + d²)`, then a reciprocal normalization.
pub fn imagedenoising() -> Workload {
    let img = f32_data(331, N, 0.0, 4.0);
    let mut words: Vec<u32> = img.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, N));
    let mut body = String::from("  ld.global r1 r0\n  mov r2, 0.0f\n  mov r3, 0.0f\n");
    for off in [-2i32, -1, 1, 2] {
        body.push_str(&format!(
            "  iadd r4 r0, {off}\n  imax r4 r4, 0\n  imin r4 r4, {}\n  ld.global r5 r4\n",
            N - 1
        ));
        body.push_str(
            "  fsub r6 r5, r1\n  ffma r7 r6, r6, 1.0f\n  rcp r8 r7\n  ffma r2 r5, r8, r2\n  fadd r3 r3, r8\n",
        );
    }
    let kernel = parse(&format!(
        ".kernel imagedenoising\nBB0:\n  mov r0, %tid.x\n{body}  rcp r9 r3\n  fmul r2 r2, r9\n  iadd r10 r0, {out}\n  st.global r10, r2\n  exit\n",
        out = N
    ));
    Workload {
        name: "imagedenoising".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            let expected: Vec<f32> = (0..N as i32)
                .map(|t| {
                    let me = init.load_f32(t as u32).unwrap();
                    let (mut num, mut den) = (0.0f32, 0.0f32);
                    for off in [-2i32, -1, 1, 2] {
                        let idx = (t + off).clamp(0, N as i32 - 1) as u32;
                        let v = init.load_f32(idx).unwrap();
                        let d = v - me;
                        let w = 1.0 / d.mul_add(d, 1.0);
                        num = v.mul_add(w, num);
                        den += w;
                    }
                    num * (1.0 / den)
                })
                .collect();
            check_f32_region(out, N, &expected, 1e-4)
        },
    }
}

/// `MergeSort`: bitonic merge of two pre-sorted 4-element runs held in
/// registers.
pub fn mergesort() -> Workload {
    // Each thread owns 8 values: words [0..4) ascending, [4..8) ascending.
    let mut data = i32_data(341, 8 * N, -500, 500);
    for t in 0..N {
        let mut lo: Vec<u32> = (0..4).map(|i| data[i * N + t]).collect();
        let mut hi: Vec<u32> = (4..8).map(|i| data[i * N + t]).collect();
        lo.sort_by_key(|v| *v as i32);
        hi.sort_by_key(|v| *v as i32);
        for i in 0..4 {
            data[i * N + t] = lo[i];
            data[(4 + i) * N + t] = hi[i];
        }
    }
    let mut words = data.clone();
    words.extend(std::iter::repeat_n(0, 8 * N));
    // Bitonic merge: reverse the second run, then 3 compare-exchange
    // stages with strides 4, 2, 1.
    let mut body = String::new();
    for i in 0..8 {
        // r1..r8 hold the bitonic sequence: lo ascending, hi descending.
        let src = if i < 4 { i } else { 4 + (7 - i) };
        body.push_str(&format!(
            "  iadd r10 r0, {}\n  ld.global r{} r10\n",
            src * N,
            1 + i
        ));
    }
    for stride in [4usize, 2, 1] {
        let mut i = 0;
        while i < 8 {
            for j in i..i + stride {
                let (a, b) = (1 + j, 1 + j + stride);
                body.push_str(&format!(
                    "  imin r9 r{a}, r{b}\n  imax r{b} r{a}, r{b}\n  mov r{a}, r9\n"
                ));
            }
            i += 2 * stride;
        }
    }
    for i in 0..8 {
        body.push_str(&format!(
            "  iadd r10 r0, {}\n  st.global r10, r{}\n",
            (8 + i) * N,
            1 + i
        ));
    }
    let kernel = parse(&format!(
        ".kernel mergesort\nBB0:\n  mov r0, %tid.x\n{body}  exit\n"
    ));
    Workload {
        name: "mergesort".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            for t in 0..N {
                let mut v: Vec<i32> = (0..8)
                    .map(|i| init.load((i * N + t) as u32).unwrap() as i32)
                    .collect();
                v.sort_unstable();
                for (i, e) in v.iter().enumerate() {
                    let got = out.load(((8 + i) * N + t) as u32).unwrap() as i32;
                    if got != *e {
                        return Err(format!("t={t} i={i}: expected {e}, got {got}"));
                    }
                }
            }
            Ok(())
        },
    }
}

/// `EigenValues`: closed-form eigenvalues of per-thread symmetric 2×2
/// matrices (sqrt-centred float chain).
pub fn eigenvalues() -> Workload {
    let a = f32_data(351, N, -4.0, 4.0);
    let b = f32_data(352, N, -2.0, 2.0);
    let c = f32_data(353, N, -4.0, 4.0);
    let mut words: Vec<u32> = Vec::new();
    words.extend(a.iter().map(|v| v.to_bits()));
    words.extend(b.iter().map(|v| v.to_bits()));
    words.extend(c.iter().map(|v| v.to_bits()));
    words.extend(std::iter::repeat_n(0, 2 * N));
    let kernel = parse(&format!(
        "
.kernel eigenvalues
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r9 r0, {n}
  ld.global r2 r9
  iadd r9 r0, {n2}
  ld.global r3 r9
  fadd r4 r1, r3
  fmul r4 r4, 0.5f
  fsub r5 r1, r3
  fmul r5 r5, 0.5f
  fmul r6 r5, r5
  ffma r6 r2, r2, r6
  sqrt r7 r6
  fadd r8 r4, r7
  fsub r9 r4, r7
  iadd r10 r0, {lo}
  st.global r10, r8
  iadd r11 r0, {hi}
  st.global r11, r9
  exit
",
        n = N,
        n2 = 2 * N,
        lo = 3 * N,
        hi = 4 * N
    ));
    Workload {
        name: "eigenvalues".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            for t in 0..N {
                let a = init.load_f32(t as u32).unwrap();
                let b = init.load_f32((N + t) as u32).unwrap();
                let c = init.load_f32((2 * N + t) as u32).unwrap();
                let mid = (a + c) * 0.5;
                let half = (a - c) * 0.5;
                let disc = b.mul_add(b, half * half).sqrt();
                for (region, e) in [(3 * N, mid + disc), (4 * N, mid - disc)] {
                    let got = out.load_f32((region + t) as u32).unwrap();
                    if (got - e).abs() > 1e-4 * e.abs().max(1.0) {
                        return Err(format!("t={t}: expected {e}, got {got}"));
                    }
                }
            }
            Ok(())
        },
    }
}

/// `RecursiveGaussian`: first-order IIR along an 8-sample per-thread
/// column (loop-carried state with a global load per step).
pub fn recursivegaussian() -> Workload {
    const LEN: usize = 8;
    const A: f32 = 0.3;
    const B: f32 = 0.7;
    let data = f32_data(361, LEN * N, -1.0, 1.0);
    let mut words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    words.extend(std::iter::repeat_n(0, LEN * N));
    let kernel = parse(&format!(
        "
.kernel recursivegaussian
BB0:
  mov r0, %tid.x
  mov r1, 0.0f
  mov r2, 0
BB1:
  imul r3 r2, {N}
  iadd r3 r3, r0
  ld.global r4 r3
  fmul r5 r4, {A:?}f
  ffma r1 r1, {B:?}f, r5
  iadd r6 r3, {out}
  st.global r6, r1
  iadd r2 r2, 1
  setp.lt p0 r2, {LEN}
  @p0 bra BB1
BB2:
  exit
",
        N = N,
        LEN = LEN,
        A = A,
        B = B,
        out = LEN * N
    ));
    Workload {
        name: "recursivegaussian".into(),
        suite: Suite::CudaSdk,
        kernel,
        launch: Launch::new(1, N),
        memory: GlobalMemory::from_words(words),
        verify: |init, out| {
            const LEN: usize = 8;
            for t in 0..N {
                let mut y = 0.0f32;
                for s in 0..LEN {
                    let x = init.load_f32((s * N + t) as u32).unwrap();
                    y = y.mul_add(B, x * A);
                    let got = out.load_f32((LEN * N + s * N + t) as u32).unwrap();
                    if (got - y).abs() > 1e-5 * y.abs().max(1.0) {
                        return Err(format!("t={t} s={s}: expected {y}, got {got}"));
                    }
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

    fn final_memory(w: &Workload) -> GlobalMemory {
        let mut sink = NullSink;
        w.run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn mandelbrot_iteration_counts_vary() {
        let mem = final_memory(&mandelbrot());
        let counts: Vec<u32> = (0..N as u32).map(|t| mem.load(t).unwrap()).collect();
        assert!(counts.iter().any(|c| *c >= 48), "some points never escape");
        assert!(
            counts.iter().any(|c| *c < 4),
            "some points escape immediately"
        );
        let distinct: std::collections::HashSet<u32> = counts.iter().copied().collect();
        assert!(distinct.len() > 10, "divergence needs varied trip counts");
    }

    #[test]
    fn sortingnetworks_output_is_sorted() {
        let w = sortingnetworks();
        let mem = final_memory(&w);
        for t in 0..N {
            let v: Vec<i32> = (0..8)
                .map(|i| mem.load(((8 + i) * N + t) as u32).unwrap() as i32)
                .collect();
            assert!(v.windows(2).all(|p| p[0] <= p[1]), "t={t}: {v:?}");
        }
    }

    #[test]
    fn reduction_matches_plain_sum_loosely() {
        // The tree order differs from a serial sum, but for uniform(0,1)
        // data both must land close.
        let w = reduction();
        let mem = final_memory(&w);
        let serial: f32 = (0..N).map(|i| w.memory.load_f32(i as u32).unwrap()).sum();
        let tree = mem.load_f32(N as u32).unwrap();
        assert!((tree - serial).abs() < 0.01 * serial, "{tree} vs {serial}");
    }

    #[test]
    fn binomial_option_values_are_nonnegative_and_monotone_in_spot() {
        let w = binomialoptions();
        let mem = final_memory(&w);
        let mut priced: Vec<(f32, f32)> = (0..N)
            .map(|t| {
                (
                    w.memory.load_f32(t as u32).unwrap(),
                    mem.load_f32((N + t) as u32).unwrap(),
                )
            })
            .collect();
        assert!(priced.iter().all(|(_, v)| *v >= 0.0));
        priced.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Option value is non-decreasing in the spot price (tolerating
        // float noise between near-equal spots).
        for pair in priced.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-4, "{pair:?}");
        }
    }

    #[test]
    fn boxfilter_smooths() {
        let w = boxfilter();
        let mem = final_memory(&w);
        let var = |vals: &[f32]| {
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32
        };
        let input: Vec<f32> = (0..N)
            .map(|i| w.memory.load_f32(i as u32).unwrap())
            .collect();
        let output: Vec<f32> = (0..N)
            .map(|i| mem.load_f32((N + i) as u32).unwrap())
            .collect();
        assert!(
            var(&output) < var(&input) * 0.5,
            "box filter must reduce variance"
        );
    }
}
