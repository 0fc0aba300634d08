//! Compute kernels: fused slice primitives (`dot` / `axpy` /
//! `scale_add`), the scalar GEMM [`matmul_into`], and one family of
//! register-tiled GEMMs (the MLP's forward, backward and gradient
//! products, and the Gram matrix `XᵀX`), all **bit-identical** to the
//! naive scalar loops they replace.
//!
//! Bit-identity is the load-bearing invariant of this module. Every
//! output element's floating-point accumulation happens in exactly the
//! same order as the scalar reference: tiling reorders *which* elements
//! are computed when, never the k-order within one element, and the
//! fused slice kernels unroll with a **single** accumulator so the
//! addition chain is unchanged. The determinism proptests and every
//! golden artifact therefore see the same bits.

use crate::matrix::Matrix;
use oeb_trace::Counter;

/// Dispatch accounting: which path each tiled-GEMM call took (its
/// per-sample reference loop, or the tiles). Purely shape-driven, so the
/// counts are schedule-invariant.
static DISPATCH_SCALAR: Counter = Counter::new("gemm.dispatch.scalar");
static DISPATCH_BLOCKED: Counter = Counter::new("gemm.dispatch.blocked");

/// Rows of A per register tile.
const MR: usize = 4;
/// Columns of B per register tile (two 256-bit vectors of f64).
const NR: usize = 8;
/// Dispatch floor for the tiled GEMMs ([`matmul_xwt_bias_into`],
/// [`matmul_noskip_into`], [`matmul_at_b_accum_into`]): smaller problems
/// run the per-sample reference loop. Sweep-scale windows (tens of rows
/// through [32, 16, 8] hidden layers) land squarely above it.
const TRAIN_MIN_MULADDS: usize = 8 * 8 * 8;

// ---------------------------------------------------------------------
// Fused slice kernels.

/// Dot product with a 4-wide unrolled single-accumulator loop.
///
/// Operates over the common prefix when lengths differ (the same
/// truncation the naive `zip` loop performed).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    // -0.0 is the identity `iter::Sum<f64>` folds from (it preserves the
    // sign of a -0.0 first term, +0.0 does not), so starting there keeps
    // this bit-identical to the historical `.zip().map().sum()` chain.
    dot_from(-0.0, a, b)
}

/// `init + sum_i a[i] * b[i]`, accumulated left to right from `init`.
///
/// The explicit starting value lets callers fuse a bias or prior sum
/// into the chain without changing the addition order (`z = b; z += ...`
/// is *not* the same chain as `b + dot(..)`).
#[inline]
pub fn dot_from(init: f64, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = init;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (qa, qb) in (&mut ca).zip(&mut cb) {
        // chunks_exact(4) only yields 4-element slices, so the patterns
        // always match; destructuring keeps the unroll index-free.
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (qa, qb) {
            acc += x0 * y0;
            acc += x1 * y1;
            acc += x2 * y2;
            acc += x3 * y3;
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// `init - sum_i a[i] * b[i]`, subtracted left to right from `init`
/// (the back-substitution chain of a triangular solve).
#[inline]
pub fn dot_sub_from(init: f64, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = init;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (qa, qb) in (&mut ca).zip(&mut cb) {
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (qa, qb) {
            acc -= x0 * y0;
            acc -= x1 * y1;
            acc -= x2 * y2;
            acc -= x3 * y3;
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc -= x * y;
    }
    acc
}

/// Squared Euclidean distance, 4-wide unrolled single accumulator.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    // -0.0 start: see `dot` (bit-identity with the `.sum()` reference).
    let mut acc = -0.0;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (qa, qb) in (&mut ca).zip(&mut cb) {
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (qa, qb) {
            let d0 = x0 - y0;
            acc += d0 * d0;
            let d1 = x1 - y1;
            acc += d1 * d1;
            let d2 = x2 - y2;
            acc += d2 * d2;
            let d3 = x3 - y3;
            acc += d3 * d3;
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// `y[i] += a * x[i]` over the common prefix, 4-wide unrolled.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact_mut(4);
    for (qx, qy) in (&mut cx).zip(&mut cy) {
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (qx, qy) {
            *y0 += a * x0;
            *y1 += a * x1;
            *y2 += a * x2;
            *y3 += a * x3;
        }
    }
    for (xv, yv) in cx.remainder().iter().zip(cy.into_remainder()) {
        *yv += a * xv;
    }
}

/// `y[i] += x[i]` over the common prefix.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    let n = x.len().min(y.len());
    for (yv, xv) in y[..n].iter_mut().zip(&x[..n]) {
        *yv += xv;
    }
}

/// `y[i] -= x[i]` over the common prefix.
#[inline]
pub fn sub_assign(y: &mut [f64], x: &[f64]) {
    let n = x.len().min(y.len());
    for (yv, xv) in y[..n].iter_mut().zip(&x[..n]) {
        *yv -= xv;
    }
}

/// `y[i] = s * y[i] + x[i]` over the common prefix, 4-wide unrolled
/// (one fused pass over a decayed accumulator plus a fresh term).
#[inline]
pub fn scale_add(s: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact_mut(4);
    for (qx, qy) in (&mut cx).zip(&mut cy) {
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (qx, qy) {
            *y0 = s * *y0 + x0;
            *y1 = s * *y1 + x1;
            *y2 = s * *y2 + x2;
            *y3 = s * *y3 + x3;
        }
    }
    for (xv, yv) in cx.remainder().iter().zip(cy.into_remainder()) {
        *yv = s * *yv + xv;
    }
}

/// `sum_i (xs[i] - m)^2` with a 4-wide unrolled single accumulator
/// (bit-identical to the mapped `.sum()` chain it replaces).
#[inline]
pub fn sq_dev_sum(xs: &[f64], m: f64) -> f64 {
    // -0.0 start: see `dot` (bit-identity with the `.sum()` reference).
    let mut acc = -0.0;
    let mut cs = xs.chunks_exact(4);
    for q in &mut cs {
        if let [x0, x1, x2, x3] = q {
            let d0 = x0 - m;
            acc += d0 * d0;
            let d1 = x1 - m;
            acc += d1 * d1;
            let d2 = x2 - m;
            acc += d2 * d2;
            let d3 = x3 - m;
            acc += d3 * d3;
        }
    }
    for x in cs.remainder() {
        let d = x - m;
        acc += d * d;
    }
    acc
}

/// Left-to-right sum with a 4-wide unrolled single accumulator
/// (bit-identical to `xs.iter().sum::<f64>()`).
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    // -0.0 start: see `dot` (bit-identity with the `.sum()` reference).
    let mut acc = -0.0;
    let mut cs = xs.chunks_exact(4);
    for q in &mut cs {
        if let [x0, x1, x2, x3] = q {
            acc += x0;
            acc += x1;
            acc += x2;
            acc += x3;
        }
    }
    for x in cs.remainder() {
        acc += x;
    }
    acc
}

// ---------------------------------------------------------------------
// GEMM.

fn assert_gemm_shapes(a: &Matrix, b: &Matrix, out: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul output shape mismatch: got {}x{}, need {}x{}",
        out.rows(),
        out.cols(),
        a.rows(),
        b.cols()
    );
}

/// `out = a * b` into a preallocated output: the scalar `ikj` loop, whose
/// inner loop streams contiguous rows of B into the output row via
/// [`axpy`]. An exact-zero `a[i][k]` is skipped, so a non-finite row of B
/// it meets never reaches the output (`0.0 * inf` would be NaN).
///
/// # Panics
/// Panics on inner-dimension or output-shape mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_gemm_shapes(a, b, out);
    out.as_mut_slice().fill(0.0);
    for i in 0..a.rows() {
        let arow = a.row(i);
        let dst = out.row_mut(i);
        for (k, &av) in arow.iter().enumerate() {
            // oeb-lint: allow(float-eq) -- exact-zero sparsity skip; any nonzero must multiply
            if av == 0.0 {
                continue;
            }
            axpy(av, b.row(k), dst);
        }
    }
}

/// Whether the tiles should be compiled for 256-bit vectors.
/// Detection is cached by the standard library. The choice cannot
/// change bits: both codegen variants execute the identical sequence of
/// scalar-per-lane IEEE multiplies and adds, only the register width
/// differs (and Rust never licenses FMA contraction).
fn wide_tile_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Training GEMMs.
//
// The MLP trainer's historical per-sample loops define three chain
// shapes the generic `matmul_into` cannot reproduce:
//
// * the forward pass seeds every output element's chain at the *bias*
//   (`dot_from(b[o], w_row, x_row)`), not at `0.0`;
// * the backward passes are built from [`axpy`], which adds **every**
//   term — there is no exact-zero skip to replicate, and ReLU-masked
//   deltas are exactly `0.0` against possibly non-finite weights, so
//   the skip would be observable;
// * gradient accumulation resumes element chains across the sample
//   (row) dimension.
//
// The three kernels below batch those loops with register tiles while
// keeping each output element's accumulation strictly k-sequential in
// the historical order, so they are bit-identical to the per-sample
// references (the `*_reference_into` / `*_reference` functions,
// compared bit for bit by this module's tests on every tile shape).
// Multiplication operand order is also preserved (weights ×
// activations, delta × weight, delta × input) so NaN-payload
// propagation cannot differ either. The gradient kernel has a
// squared-term twin for EWC's Fisher diagonal (`g = d * x; f += g * g`),
// and it also computes the Gram matrix `XᵀX` behind the covariance and
// the ridge solve (`Matrix::gram`).
//
// Two tile bodies serve the three kernels: `panel_tile` (`out += A·P`
// for a row-major panel P: the forward over a packed `Wᵀ`, the backward
// delta over `W` itself) and `atb_tile` (the gradient, plain or
// squared). Each is generic over its shape: `R` rows (1..=4) by `C`
// columns (1..=8), both compile-time constants picked per tile by
// `fixed_shape_tile!`. A full 4x8 tile and every edge tile therefore
// keep their accumulators in registers and unroll completely. The tile
// walk runs either as portable code or compiled with AVX2; the choice is
// made once per call.

fn assert_xwt_shapes(x: &Matrix, w: &Matrix, bias: &[f64], out: &Matrix) {
    assert_eq!(
        x.cols(),
        w.cols(),
        "xwt inner dimension mismatch: X {}x{}, W {}x{}",
        x.rows(),
        x.cols(),
        w.rows(),
        w.cols()
    );
    assert_eq!(bias.len(), w.rows(), "xwt bias length mismatch");
    assert_eq!(
        out.shape(),
        (x.rows(), w.rows()),
        "xwt output shape mismatch"
    );
}

/// Calls `$tile::<R, C, ..>(args)` for the runtime shape (`mr` in
/// `1..=MR`, `nr` in `1..=NR`) of one training-GEMM tile, so edge tiles
/// run the same fixed-shape body as full ones: every accumulator lives in
/// a register and every loop over the tile unrolls at compile time.
/// `[$extra]` appends further generic arguments after the shape.
macro_rules! fixed_shape_tile {
    ($tile:ident [$($extra:tt)*], $mr:expr, $nr:expr, $args:tt) => {
        match $mr {
            4 => fixed_shape_tile!(@cols $tile [$($extra)*], 4, $nr, $args),
            3 => fixed_shape_tile!(@cols $tile [$($extra)*], 3, $nr, $args),
            2 => fixed_shape_tile!(@cols $tile [$($extra)*], 2, $nr, $args),
            _ => fixed_shape_tile!(@cols $tile [$($extra)*], 1, $nr, $args),
        }
    };
    (@cols $tile:ident [$($extra:tt)*], $r:literal, $nr:expr, ($($arg:expr),*)) => {
        match $nr {
            8 => $tile::<$r, 8 $($extra)*>($($arg),*),
            7 => $tile::<$r, 7 $($extra)*>($($arg),*),
            6 => $tile::<$r, 6 $($extra)*>($($arg),*),
            5 => $tile::<$r, 5 $($extra)*>($($arg),*),
            4 => $tile::<$r, 4 $($extra)*>($($arg),*),
            3 => $tile::<$r, 3 $($extra)*>($($arg),*),
            2 => $tile::<$r, 2 $($extra)*>($($arg),*),
            _ => $tile::<$r, 1 $($extra)*>($($arg),*),
        }
    };
}

/// Batched dense-layer forward `out = X·Wᵀ + bias` (both `X` and `W`
/// row-major, `W` is `n_out x n_in`): every output element is the chain
/// `bias[o] + Σ_k w[o][k]·x[r][k]` accumulated k-ascending from the
/// bias — bit-identical to the per-sample
/// `dot_from(bias[o], w.row(o), x.row(r))` loop for **all** inputs
/// (non-finite included: no term is ever skipped).
///
/// `wt` is reusable scratch: the tiled path packs `Wᵀ` into it once per
/// call (no allocation once it has grown to the layer's size).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_xwt_bias_into(
    x: &Matrix,
    w: &Matrix,
    bias: &[f64],
    wt: &mut Vec<f64>,
    out: &mut Matrix,
) {
    assert_xwt_shapes(x, w, bias, out);
    if x.rows() * x.cols() * w.rows() < TRAIN_MIN_MULADDS {
        DISPATCH_SCALAR.incr();
        matmul_xwt_bias_reference_into(x, w, bias, out);
        return;
    }
    DISPATCH_BLOCKED.incr();
    xwt_tiled(x, w, bias, wt, out, wide_tile_available());
}

/// The per-sample forward reference: one [`dot_from`] chain per output
/// element, exactly the historical `Layer::forward` loop over the batch.
/// [`matmul_xwt_bias_into`] runs it below the blocking threshold.
fn matmul_xwt_bias_reference_into(x: &Matrix, w: &Matrix, bias: &[f64], out: &mut Matrix) {
    assert_xwt_shapes(x, w, bias, out);
    for r in 0..x.rows() {
        let xrow = x.row(r);
        let orow = out.row_mut(r);
        for (o, dst) in orow.iter_mut().enumerate() {
            *dst = dot_from(bias[o], w.row(o), xrow);
        }
    }
}

/// The tiled forward without the size dispatch: packs `Wᵀ` into `wt`
/// (`n_in x n_out`, row-major), seeds every output row with the bias,
/// and runs the panel tiles with the reference's `w * x` operand order.
fn xwt_tiled(
    x: &Matrix,
    w: &Matrix,
    bias: &[f64],
    wt: &mut Vec<f64>,
    out: &mut Matrix,
    wide: bool,
) {
    let (n, kdim) = (w.rows(), w.cols());
    wt.clear();
    wt.resize(kdim * n, 0.0);
    for (o, wrow) in w.as_slice().chunks_exact(kdim.max(1)).enumerate() {
        for (dst, &wv) in wt[o..].iter_mut().step_by(n).zip(wrow) {
            *dst = wv;
        }
    }
    for r in 0..out.rows() {
        out.row_mut(r).copy_from_slice(bias);
    }
    panel_tiled::<true>(x, wt, out, wide);
}

/// The tiled product `out += A·P` without the size dispatch, for a
/// row-major `a.cols() x out.cols()` panel `P`: the forward's packed
/// `Wᵀ` (`PANEL_FIRST`, the `w * x` order, `out` seeded at the bias) or
/// the backward's `W` itself (`delta * weight`, `out` zeroed). `wide`
/// asks for the AVX2 build of the tiles, which runs only on a CPU with
/// AVX2.
fn panel_tiled<const PANEL_FIRST: bool>(a: &Matrix, panel: &[f64], out: &mut Matrix, wide: bool) {
    #[cfg(target_arch = "x86_64")]
    if wide && wide_tile_available() {
        // SAFETY: `wide_tile_available()` just confirmed AVX2 support.
        unsafe { panel_tiles_avx2::<PANEL_FIRST>(a, panel, out) };
        return;
    }
    let _ = wide;
    panel_tiles::<PANEL_FIRST>(a, panel, out);
}

/// Every `MR x NR` tile of [`panel_tiled`].
#[inline(always)]
fn panel_tiles<const PANEL_FIRST: bool>(a: &Matrix, panel: &[f64], out: &mut Matrix) {
    let (m, n) = (out.rows(), out.cols());
    for ib in (0..m).step_by(MR) {
        let mr = MR.min(m - ib);
        for jb in (0..n).step_by(NR) {
            let nr = NR.min(n - jb);
            fixed_shape_tile!(panel_tile [, PANEL_FIRST], mr, nr, (a, panel, ib, jb, out));
        }
    }
}

/// [`panel_tiles`] compiled with AVX2 enabled (256-bit moves and
/// arithmetic). No FMA: `target_feature` does not license contraction,
/// every multiply and add stays a distinct IEEE operation, so the wider
/// codegen cannot change a single output bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_tiles_avx2<const PANEL_FIRST: bool>(a: &Matrix, panel: &[f64], out: &mut Matrix) {
    panel_tiles::<PANEL_FIRST>(a, panel, out);
}

/// One `R x C` tile of [`panel_tiled`]: the outputs `jb..jb+C` of rows
/// `ib..ib+R`, `R * C` independent chains resumed from `out` and walked
/// k-ascending. Per k the tile broadcasts `R` values of A against the
/// `C` panel values `panel[k][jb..jb+C]`, which sit next to each other;
/// each chain performs the reference's operation sequence in its operand
/// order.
#[inline(always)]
fn panel_tile<const R: usize, const C: usize, const PANEL_FIRST: bool>(
    a: &Matrix,
    panel: &[f64],
    ib: usize,
    jb: usize,
    out: &mut Matrix,
) {
    let (kdim, n) = (a.cols(), out.cols());
    let arows: [&[f64]; R] = std::array::from_fn(|ii| &a.row(ib + ii)[..kdim]);
    let panel = &panel[..kdim * n];
    let mut acc = [[0.0f64; C]; R];
    for (ii, accrow) in acc.iter_mut().enumerate() {
        accrow.copy_from_slice(&out.row(ib + ii)[jb..jb + C]);
    }
    for k in 0..kdim {
        let ps = &panel[k * n + jb..k * n + jb + C];
        for (accrow, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[k];
            for (c, &pv) in accrow.iter_mut().zip(ps) {
                // The products are equal as numbers; the operand order
                // is the reference's, so is the NaN payload it picks.
                #[allow(clippy::if_same_then_else)]
                let term = if PANEL_FIRST { pv * av } else { av * pv };
                *c += term;
            }
        }
    }
    for (ii, accrow) in acc.iter().enumerate() {
        out.row_mut(ib + ii)[jb..jb + C].copy_from_slice(accrow);
    }
}

/// `out = A·B` with **no** exact-zero skip: every element's chain starts
/// at `0.0` and adds `a[r][k]·b[k][j]` for every k ascending —
/// bit-identical to the backward-pass reference
/// `for k { axpy(a[r][k], b.row(k), out.row(r)) }` for all inputs
/// (the skip-free chain makes the non-finite cases exact too, so no
/// finite-panel guard is needed).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_noskip_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_gemm_shapes(a, b, out);
    out.as_mut_slice().fill(0.0);
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || kdim == 0 || n == 0 {
        return;
    }
    if m * kdim * n < TRAIN_MIN_MULADDS {
        DISPATCH_SCALAR.incr();
        noskip_accumulate_reference(a, b, out);
        return;
    }
    DISPATCH_BLOCKED.incr();
    // B is consumed in place: it is already a row-major `kdim x n` panel.
    panel_tiled::<false>(a, b.as_slice(), out, wide_tile_available());
}

/// The no-skip backward reference: the historical
/// `prev_delta += delta[k] * w.row(k)` chain lifted over the batch.
#[cfg(test)]
fn matmul_noskip_reference_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_gemm_shapes(a, b, out);
    out.as_mut_slice().fill(0.0);
    noskip_accumulate_reference(a, b, out);
}

fn noskip_accumulate_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for r in 0..a.rows() {
        let arow = a.row(r);
        let dst = out.row_mut(r);
        for (k, &av) in arow.iter().enumerate() {
            axpy(av, b.row(k), dst);
        }
    }
}

fn assert_atb_shapes(a: &Matrix, b: &Matrix, out: &[f64]) {
    assert_eq!(a.rows(), b.rows(), "atb row-count mismatch");
    assert_eq!(out.len(), a.cols() * b.cols(), "atb output length mismatch");
}

/// Gradient accumulation `out += Aᵀ·B` over a flat row-major
/// `a.cols() x b.cols()` buffer: element `(o, i)` accumulates
/// `a[r][o]·b[r][i]` for every row r **ascending**, resuming from the
/// value already in `out` — bit-identical to the per-sample
/// `for r { for o { axpy(a[r][o], b.row(r), out_row_o) } }` reference
/// for all inputs (axpy adds every term, so no skip here either). With
/// `a = b = X` and a zeroed `out` it is the Gram matrix `XᵀX`
/// ([`Matrix::gram`]).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_at_b_accum_into(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    atb_accum::<false>(a, b, out);
}

/// The squared-term form of [`matmul_at_b_accum_into`] (EWC's Fisher
/// diagonal): element `(o, i)` accumulates `g * g` with
/// `g = a[r][o]·b[r][i]`, rows ascending from the value already in `out`
/// — bit-identical to the per-sample `f += g * g` loop over flat
/// gradients for all inputs.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_at_b_sq_accum_into(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    atb_accum::<true>(a, b, out);
}

fn atb_accum<const SQUARE: bool>(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    assert_atb_shapes(a, b, out);
    if a.rows() * a.cols() * b.cols() < TRAIN_MIN_MULADDS {
        DISPATCH_SCALAR.incr();
        atb_accumulate_reference::<SQUARE>(a, b, out);
        return;
    }
    DISPATCH_BLOCKED.incr();
    atb_tiled::<SQUARE>(a, b, out, wide_tile_available());
}

/// The accumulation term of one (row, delta, input) triple: the product
/// `d * x` (delta × input operand order, as in `axpy(d, x, gw)`), or its
/// square for the Fisher diagonal.
#[inline(always)]
fn atb_term<const SQUARE: bool>(d: f64, x: f64) -> f64 {
    let g = d * x;
    if SQUARE {
        g * g
    } else {
        g
    }
}

/// The tiled accumulation without the size dispatch. `wide` asks for
/// the AVX2 build of the tiles, which runs only on a CPU with AVX2.
fn atb_tiled<const SQUARE: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], wide: bool) {
    #[cfg(target_arch = "x86_64")]
    if wide && wide_tile_available() {
        // SAFETY: `wide_tile_available()` just confirmed AVX2 support.
        unsafe { atb_tiles_avx2::<SQUARE>(a, b, out) };
        return;
    }
    let _ = wide;
    atb_tiles::<SQUARE>(a, b, out);
}

/// Every tile of [`matmul_at_b_accum_into`]: `MR` delta columns by `NR`
/// input columns of the flat output.
#[inline(always)]
fn atb_tiles<const SQUARE: bool>(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let (n_out, n_in) = (a.cols(), b.cols());
    for ob in (0..n_out).step_by(MR) {
        let mr = MR.min(n_out - ob);
        for jb in (0..n_in).step_by(NR) {
            let nr = NR.min(n_in - jb);
            fixed_shape_tile!(atb_tile [, SQUARE], mr, nr, (a, b, ob, jb, out));
        }
    }
}

/// [`atb_tiles`] compiled with AVX2 enabled. No FMA — every multiply and
/// add stays a distinct IEEE operation, so the wider codegen cannot
/// change a single output bit (see [`panel_tiles_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn atb_tiles_avx2<const SQUARE: bool>(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    atb_tiles::<SQUARE>(a, b, out);
}

/// One `R x C` accumulation tile of [`matmul_at_b_accum_into`]: resumes
/// the chains of outputs `(ob..ob+R, jb..jb+C)` from `out`, walks rows r
/// ascending adding [`atb_term`] of `a[r][ob + ii]` and `b[r][jb + jj]`,
/// stores the chains back.
#[inline(always)]
fn atb_tile<const R: usize, const C: usize, const SQUARE: bool>(
    a: &Matrix,
    b: &Matrix,
    ob: usize,
    jb: usize,
    out: &mut [f64],
) {
    let (n_out, n_in) = (a.cols(), b.cols());
    let mut acc = [[0.0f64; C]; R];
    for (ii, arow) in acc.iter_mut().enumerate() {
        let base = (ob + ii) * n_in + jb;
        arow.copy_from_slice(&out[base..base + C]);
    }
    for (drow, xrow) in a
        .as_slice()
        .chunks_exact(n_out)
        .zip(b.as_slice().chunks_exact(n_in))
    {
        let ds = &drow[ob..ob + R];
        let xs = &xrow[jb..jb + C];
        for (arow, &dv) in acc.iter_mut().zip(ds) {
            for (acc_v, &xv) in arow.iter_mut().zip(xs) {
                *acc_v += atb_term::<SQUARE>(dv, xv);
            }
        }
    }
    for (ii, arow) in acc.iter().enumerate() {
        let base = (ob + ii) * n_in + jb;
        out[base..base + C].copy_from_slice(arow);
    }
}

/// The accumulation reference: the historical per-sample loop (the
/// weight-gradient axpy, or the Fisher's `f += g * g`) over the batch.
fn atb_accumulate_reference<const SQUARE: bool>(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let n_in = b.cols();
    for r in 0..a.rows() {
        let brow = b.row(r);
        for (o, &dv) in a.row(r).iter().enumerate() {
            let orow = &mut out[o * n_in..(o + 1) * n_in];
            if SQUARE {
                for (f, &xv) in orow.iter_mut().zip(brow) {
                    let g = dv * xv;
                    *f += g * g;
                }
            } else {
                axpy(dv, brow, orow);
            }
        }
    }
}

/// `out[j] += Σ_r a[r][j]` accumulated row-ascending — the batched form
/// of the per-sample bias-gradient `gb[o] += delta[o]` chain.
///
/// # Panics
/// Panics on width mismatch.
pub fn accum_col_sums(a: &Matrix, out: &mut [f64]) {
    assert_eq!(a.cols(), out.len(), "column-sum width mismatch");
    for r in 0..a.rows() {
        add_assign(out, a.row(r));
    }
}

/// `out[j] += Σ_r a[r][j]²` accumulated row-ascending — the bias half of
/// the Fisher diagonal (a bias's per-sample gradient is its delta).
///
/// # Panics
/// Panics on width mismatch.
pub fn accum_col_sq_sums(a: &Matrix, out: &mut [f64]) {
    assert_eq!(a.cols(), out.len(), "column-sum width mismatch");
    for r in 0..a.rows() {
        for (f, &d) in out.iter_mut().zip(a.row(r)) {
            *f += d * d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn lcg_vec(n: usize, seed: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn dot_matches_naive_bitwise() {
        let mut seed = 7;
        for n in [0, 1, 3, 4, 5, 7, 8, 17, 64, 100] {
            let a = lcg_vec(n, &mut seed);
            let b = lcg_vec(n, &mut seed);
            assert_eq!(dot(&a, &b).to_bits(), naive_dot(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn dot_from_continues_the_chain() {
        let a = [1.5, -2.0, 0.25];
        let b = [4.0, 1.0, -8.0];
        let mut z = 10.0;
        for (x, y) in a.iter().zip(&b) {
            z += x * y;
        }
        assert_eq!(dot_from(10.0, &a, &b).to_bits(), z.to_bits());
    }

    #[test]
    fn dot_sub_from_matches_sequential_subtraction() {
        let mut seed = 3;
        let a = lcg_vec(11, &mut seed);
        let b = lcg_vec(11, &mut seed);
        let mut z = 2.5;
        for (x, y) in a.iter().zip(&b) {
            z -= x * y;
        }
        assert_eq!(dot_sub_from(2.5, &a, &b).to_bits(), z.to_bits());
    }

    #[test]
    fn axpy_matches_scalar_loop_bitwise() {
        let mut seed = 11;
        for n in [0, 1, 4, 6, 9, 33] {
            let x = lcg_vec(n, &mut seed);
            let mut y = lcg_vec(n, &mut seed);
            let mut expect = y.clone();
            for (e, xv) in expect.iter_mut().zip(&x) {
                *e += 0.37 * xv;
            }
            axpy(0.37, &x, &mut y);
            for (got, want) in y.iter().zip(&expect) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn scale_add_matches_scalar_loop_bitwise() {
        let mut seed = 13;
        let x = lcg_vec(10, &mut seed);
        let mut y = lcg_vec(10, &mut seed);
        let mut expect = y.clone();
        for (e, xv) in expect.iter_mut().zip(&x) {
            *e = 0.9 * *e + xv;
        }
        scale_add(0.9, &x, &mut y);
        for (got, want) in y.iter().zip(&expect) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sum_and_sq_dist_match_iterator_chains() {
        let mut seed = 17;
        for n in [0, 1, 2, 4, 5, 31] {
            let a = lcg_vec(n, &mut seed);
            let b = lcg_vec(n, &mut seed);
            assert_eq!(sum(&a).to_bits(), a.iter().sum::<f64>().to_bits());
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum();
            assert_eq!(sq_dist(&a, &b).to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn matmul_into_skips_exact_zeros_against_nonfinite() {
        // A zero in A skips a non-finite B row; a nonzero must propagate
        // the NaN. This is the observable part of the sparsity skip.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![f64::INFINITY, 2.0], vec![3.0, f64::NAN]]);
        let mut out = Matrix::zeros(2, 2);
        matmul_into(&a, &b, &mut out);
        assert_eq!(out[(0, 0)], 3.0); // the inf row was skipped
        assert!(out[(0, 1)].is_nan()); // the NaN column was not
        assert_eq!(out[(1, 1)], 2.0); // zero in A skipped the NaN
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch")]
    fn wrong_output_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        matmul_into(&a, &b, &mut out);
    }

    /// Matrix of pseudo-random values with a sprinkling of non-finite
    /// and exact-zero entries, to exercise the no-skip chains on the
    /// inputs where a skip would be observable.
    fn lcg_matrix_special(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut data = lcg_vec(rows * cols, seed);
        for (i, v) in data.iter_mut().enumerate() {
            match i % 13 {
                4 => *v = 0.0,
                7 => *v = f64::NAN,
                11 => *v = f64::INFINITY,
                _ => {}
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            // NaN payload bits depend on codegen (LLVM may commute fmul
            // operands), so NaN-vs-NaN is accepted; everything else must
            // match exactly. Downstream the pipeline treats non-finite
            // as poison (updates are skipped), so payloads are inert.
            if g.is_nan() && w.is_nan() {
                continue;
            }
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
        }
    }

    /// Row counts the training-GEMM oracles sweep: every remainder mod
    /// `MR`, and a full 64-row batch with and without a ragged tail.
    const ORACLE_ROWS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65];
    /// Widths of the vectorized dimension: every remainder mod `NR`, both
    /// below and above one tile.
    const ORACLE_WIDTHS: std::ops::RangeInclusive<usize> = 1..=17;

    /// The tile paths this CPU can run: portable, and AVX2 when present.
    fn tile_paths() -> Vec<bool> {
        let mut paths = vec![false];
        if wide_tile_available() {
            paths.push(true);
        }
        paths
    }

    #[test]
    fn xwt_bias_matches_reference_bitwise() {
        let mut seed = 21;
        let mut wt = Vec::new();
        for m in ORACLE_ROWS {
            for n in ORACLE_WIDTHS {
                for k in [0, 1, 7, 33] {
                    let x = lcg_matrix_special(m, k, &mut seed);
                    let w = lcg_matrix_special(n, k, &mut seed);
                    let bias = lcg_vec(n, &mut seed);
                    let mut reference = Matrix::zeros(m, n);
                    matmul_xwt_bias_reference_into(&x, &w, &bias, &mut reference);
                    let mut fast = Matrix::zeros(m, n);
                    matmul_xwt_bias_into(&x, &w, &bias, &mut wt, &mut fast);
                    let ctx = format!("{m}x{k}x{n}");
                    assert_bits_eq(fast.as_slice(), reference.as_slice(), &ctx);
                    for wide in tile_paths() {
                        let mut tiled = Matrix::zeros(m, n);
                        xwt_tiled(&x, &w, &bias, &mut wt, &mut tiled, wide);
                        let ctx = format!("{ctx} tiled (wide {wide})");
                        assert_bits_eq(tiled.as_slice(), reference.as_slice(), &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn xwt_bias_seeds_the_chain_at_the_bias() {
        // Zero-width input (k = 0): the chain is exactly the seed, so the
        // output must be the bias bit-for-bit, including `-0.0`'s sign.
        let x = Matrix::zeros(2, 0);
        let w = Matrix::zeros(4, 0);
        let bias = [1.5, -0.0, f64::NEG_INFINITY, 2.25];
        let mut out = Matrix::zeros(2, 4);
        matmul_xwt_bias_into(&x, &w, &bias, &mut Vec::new(), &mut out);
        for r in 0..2 {
            assert_bits_eq(out.row(r), &bias, "bias row");
        }
    }

    #[test]
    fn noskip_matmul_matches_reference_bitwise() {
        let mut seed = 22;
        for m in ORACLE_ROWS {
            for n in ORACLE_WIDTHS {
                for k in [1, 6, 32, 300] {
                    let a = lcg_matrix_special(m, k, &mut seed);
                    let b = lcg_matrix_special(k, n, &mut seed);
                    let mut reference = Matrix::zeros(m, n);
                    matmul_noskip_reference_into(&a, &b, &mut reference);
                    let mut fast = Matrix::zeros(m, n);
                    matmul_noskip_into(&a, &b, &mut fast);
                    let ctx = format!("{m}x{k}x{n}");
                    assert_bits_eq(fast.as_slice(), reference.as_slice(), &ctx);
                    for wide in tile_paths() {
                        let mut tiled = Matrix::zeros(m, n);
                        panel_tiled::<false>(&a, b.as_slice(), &mut tiled, wide);
                        let ctx = format!("{ctx} tiled (wide {wide})");
                        assert_bits_eq(tiled.as_slice(), reference.as_slice(), &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn noskip_matmul_propagates_zero_times_nonfinite() {
        // The defining difference from matmul_into: an exact-zero A value
        // against a non-finite B value must contribute NaN, not be skipped.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![f64::INFINITY], vec![2.0]]);
        let mut out = Matrix::zeros(1, 1);
        matmul_noskip_into(&a, &b, &mut out);
        assert!(out[(0, 0)].is_nan(), "0 * inf must poison the chain");
    }

    /// Checks [`atb_accum`] (through the public entry point and through
    /// the tiles directly) against the per-sample reference on every
    /// oracle shape, resuming from a nonzero output.
    fn check_atb_against_reference<const SQUARE: bool>(seed: &mut u64) {
        for m in ORACLE_ROWS {
            for i in ORACLE_WIDTHS {
                for o in [1, 2, 3, 4, 6, 33] {
                    let d = lcg_matrix_special(m, o, seed);
                    let act = lcg_matrix_special(m, i, seed);
                    // Seed every output with the same nonzero state: the
                    // kernel must resume existing chains, not restart them.
                    let init = lcg_vec(o * i, seed);
                    let mut reference = init.clone();
                    atb_accumulate_reference::<SQUARE>(&d, &act, &mut reference);
                    let mut fast = init.clone();
                    atb_accum::<SQUARE>(&d, &act, &mut fast);
                    let ctx = format!("{m}x{o}x{i} square {SQUARE}");
                    assert_bits_eq(&fast, &reference, &ctx);
                    for wide in tile_paths() {
                        let mut tiled = init.clone();
                        atb_tiled::<SQUARE>(&d, &act, &mut tiled, wide);
                        let ctx = format!("{ctx} tiled (wide {wide})");
                        assert_bits_eq(&tiled, &reference, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn atb_accum_matches_reference_bitwise_and_resumes() {
        let mut seed = 23;
        check_atb_against_reference::<false>(&mut seed);
        check_atb_against_reference::<true>(&mut seed);
    }

    #[test]
    fn atb_sq_accum_squares_each_rows_product() {
        // Two rows: (o, i) accumulates (d0 * x0)^2 then (d1 * x1)^2 onto
        // the resumed value, never the square of a sum.
        let d = Matrix::from_rows(&[vec![3.0], vec![-0.5]]);
        let x = Matrix::from_rows(&[vec![2.0], vec![4.0]]);
        let mut out = vec![1.0];
        atb_tiled::<true>(&d, &x, &mut out, false);
        assert_eq!(out, vec![1.0 + 36.0 + 4.0]);
        let mut plain = vec![1.0];
        matmul_at_b_sq_accum_into(&d, &x, &mut plain);
        assert_eq!(plain, out);
    }

    #[test]
    fn accum_col_sums_matches_per_row_chain() {
        let mut seed = 24;
        let a = lcg_matrix_special(9, 5, &mut seed);
        let mut got = vec![0.0; 5];
        accum_col_sums(&a, &mut got);
        let mut got_sq = vec![0.0; 5];
        accum_col_sq_sums(&a, &mut got_sq);
        let mut want = vec![0.0; 5];
        let mut want_sq = vec![0.0; 5];
        for r in 0..a.rows() {
            for ((w, ws), x) in want.iter_mut().zip(&mut want_sq).zip(a.row(r)) {
                *w += x;
                *ws += x * x;
            }
        }
        assert_bits_eq(&got, &want, "col sums");
        assert_bits_eq(&got_sq, &want_sq, "col square sums");
    }
}
