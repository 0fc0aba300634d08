//! A multilayer perceptron with manual backpropagation and SGD, matching
//! the paper's default architecture (§6.1): ReLU hidden layers of
//! [32, 16, 8], linear output head, cross-entropy loss for classification
//! and MSE for regression, learning rate 0.01, batch size 64.
//!
//! The trainer deliberately performs **no gradient clipping** by default:
//! the paper's §5.3 finding that a single absurd cell can blow a neural
//! network up (loss → ∞) is a behaviour this reproduction must preserve.

use oeb_linalg::{kernels, Matrix};
use oeb_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mini-batches trained through the batched GEMM path.
static GEMM_BATCHES: Counter = Counter::new("train.mlp.gemm_batches");
/// Per-sample gradients computed for a Fisher diagonal (EWC's extra
/// pass over each window).
static SAMPLE_GRADIENTS: Counter = Counter::new("train.mlp.sample_gradients");

/// Rows per chunk of the batched Fisher pass: one SGD batch at the
/// paper's default size, so the pass runs the training step's tile shapes
/// and its buffers stay batch-sized however long the window.
const FISHER_CHUNK: usize = 64;

/// The learning objective of the output head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Softmax + cross-entropy over `n` classes; targets are class indices.
    CrossEntropy,
    /// Mean squared error; output width 1, targets are values.
    SquaredError,
}

/// One dense layer (row-major `out x in` weights).
#[derive(Debug, Clone)]
struct Layer {
    w: Matrix,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Layer {
        // He initialisation for the ReLU stack.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                scale * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        Layer {
            w: Matrix::from_vec(n_out, n_in, w),
            b: vec![0.0; n_out],
            n_in,
            n_out,
        }
    }

    #[cfg(test)]
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            // dot_from starts the chain at the bias, preserving the
            // historical `z = b; z += w*x` accumulation order.
            out.push(kernels::dot_from(self.b[o], self.w.row(o), x));
        }
    }
}

/// Reusable batch buffers for [`Mlp::train_batch`]: gathered inputs,
/// per-layer activation matrices, delta ping-pong matrices, and the
/// softmax scratch that replaces the LwF branch's per-sample `collect()`
/// allocations. Contents are transient: every buffer is reset before use.
#[derive(Debug, Default)]
struct TrainScratch {
    /// Post-activation matrices, one per layer boundary (`acts[0]` is the
    /// gathered input batch).
    acts: Vec<Matrix>,
    /// Output-layer delta, swapped backward through the stack.
    delta: Matrix,
    /// Delta of the previous (shallower) layer during backprop.
    prev_delta: Matrix,
    /// Packed `Wᵀ` of the layer a forward GEMM is running.
    packed: Vec<f64>,
    /// Teacher forward ping-pong buffers for the LwF branch.
    teacher_a: Matrix,
    teacher_b: Matrix,
    /// Temperature-scaled logits for one sample.
    scaled: Vec<f64>,
    /// Softmax outputs for one sample (student / teacher).
    soft_cur: Vec<f64>,
    soft_prev: Vec<f64>,
    /// Flat per-layer gradient accumulators `(gw, gb)`.
    grads: Vec<(Vec<f64>, Vec<f64>)>,
}

/// A clone starts empty: no buffer carries state from one batch to the
/// next, so copying the last batch's buffers into LwF's per-window
/// teacher snapshot, several times the size of the parameters, would buy
/// nothing.
impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        TrainScratch::default()
    }
}

/// Extra terms mixed into a training step.
#[derive(Default)]
pub struct TrainOpts<'a> {
    /// EWC penalty: `(theta_star, fisher_diagonal, lambda)`. Adds
    /// `lambda * F_i * (theta_i - theta*_i)` to the flat gradient.
    pub ewc: Option<(&'a [f64], &'a [f64], f64)>,
    /// LwF distillation: `(previous model, lambda)`. For classification a
    /// temperature-2 soft-target KL; for regression an MSE pull toward the
    /// previous model's outputs.
    pub distill: Option<(&'a Mlp, f64)>,
}

/// The MLP model.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Output objective.
    pub objective: Objective,
    /// Reused batch buffers for the GEMM training path.
    scratch: TrainScratch,
}

impl Mlp {
    /// Builds an MLP `input -> hidden... -> output` with He-initialised
    /// ReLU hidden layers and a linear head.
    pub fn new(
        input: usize,
        hidden: &[usize],
        output: usize,
        objective: Objective,
        seed: u64,
    ) -> Mlp {
        assert!(input > 0 && output > 0, "degenerate layer sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![input];
        sizes.extend_from_slice(hidden);
        sizes.push(output);
        let layers = sizes
            .windows(2)
            // oeb-lint: allow(panic-in-library) -- windows(2) yields exactly two elements
            .map(|p| Layer::new(p[0], p[1], &mut rng))
            .collect();
        Mlp {
            layers,
            objective,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of scalar parameters.
    pub fn n_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.as_slice().len() + l.b.len())
            .sum()
    }

    /// Approximate in-memory size of the model state in bytes
    /// (parameters at f64); used by the Table 6 reproduction.
    pub fn memory_bytes(&self) -> usize {
        self.n_params() * std::mem::size_of::<f64>()
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].n_in // oeb-lint: allow(panic-in-library) -- layers non-empty: new() always pushes input+output sizes
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").n_out // oeb-lint: allow(panic-in-library) -- layers non-empty by construction
    }

    /// Flattened copy of all parameters (weights then biases, per layer).
    pub fn get_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_params());
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Restores parameters from a flat buffer produced by
    /// [`Mlp::get_params`].
    pub fn set_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.n_params(), "parameter count mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            let wl = l.w.as_slice().len();
            l.w.as_mut_slice().copy_from_slice(&flat[off..off + wl]);
            off += wl;
            let bl = l.b.len();
            l.b.copy_from_slice(&flat[off..off + bl]);
            off += bl;
        }
    }

    /// Raw outputs (logits or regression values) of every row of `xs`,
    /// one row of [`Mlp::output_dim`] values each: the batched GEMM
    /// forward that training runs, and the one forward of prediction.
    pub fn forward_window(&self, xs: &Matrix) -> Matrix {
        self.window(xs, self.layers.len())
    }

    /// Activations of the last hidden layer for every row of `xs`
    /// (iCaRL's representation space). For a network with no hidden
    /// layer this is the input.
    pub fn hidden_window(&self, xs: &Matrix) -> Matrix {
        self.window(xs, self.layers.len() - 1)
    }

    fn window(&self, xs: &Matrix, depth: usize) -> Matrix {
        let (mut out, mut next, mut packed) = (Matrix::default(), Matrix::default(), Vec::new());
        self.forward_batch(xs, depth, &mut out, &mut next, &mut packed);
        out
    }

    /// The per-sample forward pass, the bitwise reference for
    /// [`Mlp::forward_window`].
    #[cfg(test)]
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if i + 1 < self.layers.len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// The per-sample hidden representation, the bitwise reference for
    /// [`Mlp::hidden_window`].
    #[cfg(test)]
    fn hidden_repr(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers[..self.layers.len() - 1] {
            layer.forward(&cur, &mut next);
            for v in &mut next {
                *v = v.max(0.0);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Per-sample loss under the objective.
    #[cfg(test)]
    fn loss(&self, x: &[f64], y: f64) -> f64 {
        let out = self.forward(x);
        match self.objective {
            Objective::CrossEntropy => {
                let p = softmax(&out);
                let c = (y as usize).min(p.len() - 1);
                -(p[c].max(1e-12)).ln()
            }
            Objective::SquaredError => {
                let d = out[0] - y;
                d * d
            }
        }
    }

    /// One SGD step on a mini-batch; returns the mean batch loss
    /// (before the step, excluding penalty terms).
    ///
    /// `rows` selects the batch rows of `xs`/`ys`.
    ///
    /// The whole batch runs through the GEMM kernels in
    /// `oeb_linalg::kernels`: forward as `X·Wᵀ + bias`
    /// ([`kernels::matmul_xwt_bias_into`]), the backward delta as a
    /// no-skip `Δ·W` product, and gradient accumulation as `Δᵀ·A`. Each
    /// kernel keeps every output element's accumulation chain in the
    /// historical per-sample order (bias-seeded, k-ascending, row-
    /// ascending respectively), so the result is bit-identical to
    /// `Mlp::train_batch_reference` — asserted by the proptest
    /// `batched_train_matches_reference_bitwise` in this file's tests.
    pub fn train_batch(
        &mut self,
        xs: &Matrix,
        ys: &[f64],
        rows: &[usize],
        lr: f64,
        opts: &TrainOpts<'_>,
    ) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        GEMM_BATCHES.incr();
        let n_layers = self.layers.len();
        // The scratch moves out of `self` for the duration of the step so
        // the borrows below stay disjoint from the layer borrows.
        let mut s = std::mem::take(&mut self.scratch);
        if s.grads.len() != n_layers {
            s.grads = self
                .layers
                .iter()
                .map(|l| (vec![0.0; l.w.as_slice().len()], vec![0.0; l.b.len()]))
                .collect();
        } else {
            for (gw, gb) in &mut s.grads {
                gw.fill(0.0);
                gb.fill(0.0);
            }
        }

        self.forward_cached(&mut s, xs, rows);
        let total_loss = self.output_delta(&mut s, ys, rows);

        // LwF distillation adds to the output delta. The teacher runs the
        // same batched forward; temperature scaling and softmax go through
        // reused scratch instead of per-sample collect()s.
        if let Some((prev, lambda)) = &opts.distill {
            let batch = rows.len();
            // oeb-lint: allow(panic-in-library) -- acts[0] is the input batch, always present
            let input = &s.acts[0];
            prev.forward_batch(
                input,
                prev.layers.len(),
                &mut s.teacher_a,
                &mut s.teacher_b,
                &mut s.packed,
            );
            let out = &s.acts[n_layers];
            let prev_out = &s.teacher_a;
            match self.objective {
                Objective::CrossEntropy => {
                    const T: f64 = 2.0;
                    for bi in 0..batch {
                        s.scaled.clear();
                        s.scaled.extend(out.row(bi).iter().map(|v| v / T));
                        softmax_into(&s.scaled, &mut s.soft_cur);
                        s.scaled.clear();
                        s.scaled.extend(prev_out.row(bi).iter().map(|v| v / T));
                        softmax_into(&s.scaled, &mut s.soft_prev);
                        for ((d, &sc), &sp) in s
                            .delta
                            .row_mut(bi)
                            .iter_mut()
                            .zip(&s.soft_cur)
                            .zip(&s.soft_prev)
                        {
                            // d/dz of T^2 * CE(soft_prev, softmax(z/T)).
                            *d += lambda * T * (sc - sp);
                        }
                    }
                }
                Objective::SquaredError => {
                    for bi in 0..batch {
                        s.delta[(bi, 0)] += lambda * 2.0 * (out[(bi, 0)] - prev_out[(bi, 0)]);
                    }
                }
            }
        }

        // Batched backward: bias gradients as column sums (row-ascending,
        // like the per-sample `gb[o] += d`), weight gradients as `Δᵀ·A`
        // (row-ascending per element, like the per-sample axpy), and the
        // next delta through `backprop_delta`.
        for li in (0..n_layers).rev() {
            let (gw, gb) = &mut s.grads[li];
            kernels::accum_col_sums(&s.delta, gb);
            kernels::matmul_at_b_accum_into(&s.delta, &s.acts[li], gw);
            if li > 0 {
                self.backprop_delta(li, &mut s);
            }
        }

        let loss = self.apply_gradients(&mut s.grads, rows.len(), lr, opts, total_loss);
        self.scratch = s;
        loss
    }

    /// Gathers the batch `rows` of `xs` into `s.acts[0]` and runs the
    /// batched forward, caching every layer's post-activation in
    /// `s.acts`. Each output element runs the bias-seeded chain of the
    /// per-sample `forward`.
    fn forward_cached(&self, s: &mut TrainScratch, xs: &Matrix, rows: &[usize]) {
        let n_layers = self.layers.len();
        let batch = rows.len();
        s.acts.resize_with(n_layers + 1, Matrix::default);
        // Gather the batch rows once; the GEMMs then stream them densely.
        // oeb-lint: allow(panic-in-library) -- acts has n_layers + 1 >= 1 entries by construction
        s.acts[0].reset_zeroed(batch, self.input_dim());
        for (bi, &r) in rows.iter().enumerate() {
            // oeb-lint: allow(panic-in-library) -- acts has n_layers + 1 >= 1 entries by construction
            s.acts[0].row_mut(bi).copy_from_slice(xs.row(r));
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = s.acts.split_at_mut(li + 1);
            // oeb-lint: allow(panic-in-library) -- li < n_layers, so rest is non-empty
            let next = &mut rest[0];
            next.reset_zeroed(batch, layer.n_out);
            kernels::matmul_xwt_bias_into(&done[li], &layer.w, &layer.b, &mut s.packed, next);
            if li + 1 < n_layers {
                for v in next.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// Fills `s.delta` with the output-layer delta of the cached forward
    /// (`softmax - onehot`, or `2 * (out - y)`) and returns the summed
    /// data loss, row by row in batch order (the loss chain accumulates
    /// exactly as the per-sample loop did).
    fn output_delta(&self, s: &mut TrainScratch, ys: &[f64], rows: &[usize]) -> f64 {
        let mut total_loss = 0.0;
        let out = &s.acts[self.layers.len()];
        s.delta.reset_zeroed(rows.len(), self.output_dim());
        match self.objective {
            Objective::CrossEntropy => {
                for (bi, &r) in rows.iter().enumerate() {
                    softmax_into(out.row(bi), &mut s.soft_cur);
                    let drow = s.delta.row_mut(bi);
                    drow.copy_from_slice(&s.soft_cur);
                    let c = (ys[r] as usize).min(drow.len() - 1);
                    total_loss += -(drow[c].max(1e-12)).ln();
                    drow[c] -= 1.0;
                }
            }
            Objective::SquaredError => {
                for (bi, &r) in rows.iter().enumerate() {
                    let diff = out[(bi, 0)] - ys[r];
                    total_loss += diff * diff;
                    s.delta[(bi, 0)] = 2.0 * diff;
                }
            }
        }
        total_loss
    }

    /// Moves `s.delta` from layer `li`'s output to its input: a no-skip
    /// `Δ·W` (k-ascending from 0.0, the per-sample axpy chain), then the
    /// ReLU mask of the input activation. The mask is a select with the
    /// historical predicate, so it vectorizes instead of branching on
    /// each activation: `a <= 0.0` (false for NaN) writes `+0.0`,
    /// anything else keeps the delta.
    fn backprop_delta(&self, li: usize, s: &mut TrainScratch) {
        let layer = &self.layers[li];
        s.prev_delta.reset_zeroed(s.delta.rows(), layer.n_in);
        kernels::matmul_noskip_into(&s.delta, &layer.w, &mut s.prev_delta);
        // The layer input was an output of the previous layer, already
        // rectified.
        for (pd, &a) in s
            .prev_delta
            .as_mut_slice()
            .iter_mut()
            .zip(s.acts[li].as_slice())
        {
            *pd = if a <= 0.0 { 0.0 } else { *pd };
        }
        std::mem::swap(&mut s.delta, &mut s.prev_delta);
    }

    /// Batched forward through the first `depth` layers: `input` is a
    /// gathered batch, `cur`/`next` are ping-pong scratch, `packed` the
    /// forward GEMM's `Wᵀ` scratch, and the result lands in `cur`. Hidden
    /// layers are rectified, the output head is not. Every element runs
    /// the bias-seeded chain of the per-sample `forward`.
    fn forward_batch(
        &self,
        input: &Matrix,
        depth: usize,
        cur: &mut Matrix,
        next: &mut Matrix,
        packed: &mut Vec<f64>,
    ) {
        if depth == 0 {
            cur.reset_zeroed(input.rows(), input.cols());
            cur.as_mut_slice().copy_from_slice(input.as_slice());
        }
        for (i, layer) in self.layers[..depth].iter().enumerate() {
            next.reset_zeroed(input.rows(), layer.n_out);
            let x = if i == 0 { input } else { &*cur };
            kernels::matmul_xwt_bias_into(x, &layer.w, &layer.b, packed, next);
            if i + 1 < self.layers.len() {
                for v in next.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(cur, next);
        }
    }

    /// The historical per-sample `train_batch` body, retained verbatim as
    /// the bitwise reference for the batched path (proptested in this
    /// file's tests).
    #[cfg(test)]
    fn train_batch_reference(
        &mut self,
        xs: &Matrix,
        ys: &[f64],
        rows: &[usize],
        lr: f64,
        opts: &TrainOpts<'_>,
    ) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let n_layers = self.layers.len();
        let mut grads: Vec<(Vec<f64>, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| (vec![0.0; l.w.as_slice().len()], vec![0.0; l.b.len()]))
            .collect();
        let mut total_loss = 0.0;
        // Activation and delta scratch reused across the whole batch: the
        // historical per-sample `Vec` allocations dominated small-window
        // training time.
        let mut acts: Vec<Vec<f64>> = vec![Vec::new(); n_layers + 1];
        let mut delta: Vec<f64> = Vec::new();
        let mut prev_delta: Vec<f64> = Vec::new();

        for &r in rows {
            let x = xs.row(r);
            let y = ys[r];
            // Forward with cached post-activations.
            acts[0].clear();
            acts[0].extend_from_slice(x);
            for li in 0..n_layers {
                let (done, rest) = acts.split_at_mut(li + 1);
                let next = &mut rest[0];
                self.layers[li].forward(&done[li], next);
                if li + 1 < n_layers {
                    for v in next.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
            }
            let out = &acts[n_layers];

            // Output-layer delta.
            delta.clear();
            match self.objective {
                Objective::CrossEntropy => {
                    softmax_into(out, &mut delta);
                    let c = (y as usize).min(delta.len() - 1);
                    total_loss += -(delta[c].max(1e-12)).ln();
                    delta[c] -= 1.0;
                }
                Objective::SquaredError => {
                    let diff = out[0] - y;
                    total_loss += diff * diff;
                    delta.push(2.0 * diff);
                }
            }

            // LwF distillation adds to the output delta.
            if let Some((prev, lambda)) = &opts.distill {
                let prev_out = prev.forward(x);
                match self.objective {
                    Objective::CrossEntropy => {
                        const T: f64 = 2.0;
                        let soft_cur = softmax(&out.iter().map(|v| v / T).collect::<Vec<_>>());
                        let soft_prev =
                            softmax(&prev_out.iter().map(|v| v / T).collect::<Vec<_>>());
                        for ((d, &sc), &sp) in delta.iter_mut().zip(&soft_cur).zip(&soft_prev) {
                            // d/dz of T^2 * CE(soft_prev, softmax(z/T)).
                            *d += lambda * T * (sc - sp);
                        }
                    }
                    Objective::SquaredError => {
                        delta[0] += lambda * 2.0 * (out[0] - prev_out[0]);
                    }
                }
            }

            // Backward through the stack; both accumulations are fused
            // axpy kernels with the historical element order.
            for li in (0..n_layers).rev() {
                let input = &acts[li];
                let layer = &self.layers[li];
                let (gw, gb) = &mut grads[li];
                for o in 0..layer.n_out {
                    let d = delta[o];
                    gb[o] += d;
                    kernels::axpy(d, input, &mut gw[o * layer.n_in..(o + 1) * layer.n_in]);
                }
                if li > 0 {
                    prev_delta.clear();
                    prev_delta.resize(layer.n_in, 0.0);
                    for o in 0..layer.n_out {
                        kernels::axpy(delta[o], layer.w.row(o), &mut prev_delta);
                    }
                    // ReLU mask of the layer input (which was an output of
                    // the previous layer, already rectified).
                    for (pd, &a) in prev_delta.iter_mut().zip(&acts[li]) {
                        if a <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                    std::mem::swap(&mut delta, &mut prev_delta);
                }
            }
        }

        self.apply_gradients(&mut grads, rows.len(), lr, opts, total_loss)
    }

    /// The shared tail of both training paths: EWC penalty gradients,
    /// the non-finite-gradient step skip, and the SGD update. Operates on
    /// the already-accumulated data gradients, so batched and reference
    /// paths agree bitwise iff their gradients do.
    fn apply_gradients(
        &mut self,
        grads: &mut [(Vec<f64>, Vec<f64>)],
        batch: usize,
        lr: f64,
        opts: &TrainOpts<'_>,
        total_loss: f64,
    ) -> f64 {
        let inv = 1.0 / batch as f64;

        // EWC penalty gradient on the flat parameter vector.
        if let Some((theta_star, fisher, lambda)) = &opts.ewc {
            let mut off = 0;
            for (li, layer) in self.layers.iter().enumerate() {
                let (gw, gb) = &mut grads[li];
                for (i, (g, w)) in gw.iter_mut().zip(layer.w.as_slice()).enumerate() {
                    *g += lambda * fisher[off + i] * (w - theta_star[off + i]) / inv;
                }
                off += layer.w.as_slice().len();
                for (i, g) in gb.iter_mut().enumerate() {
                    *g += lambda * fisher[off + i] * (layer.b[i] - theta_star[off + i]) / inv;
                }
                off += layer.b.len();
            }
        }

        // SGD update. A single non-finite accumulated gradient (overflow
        // on a corrupted batch, NaN inputs that slipped past imputation)
        // would poison the weights permanently, so the whole step is
        // skipped instead — the loss is still reported so the caller's
        // divergence policy can react.
        let finite = grads
            .iter()
            .all(|(gw, gb)| gw.iter().chain(gb).all(|g| g.is_finite()));
        if finite {
            for (layer, (gw, gb)) in self.layers.iter_mut().zip(grads.iter()) {
                for (w, g) in layer.w.as_mut_slice().iter_mut().zip(gw) {
                    *w -= lr * g * inv;
                }
                for (b, g) in layer.b.iter_mut().zip(gb) {
                    *b -= lr * g * inv;
                }
            }
        }
        total_loss * inv
    }

    /// Diagonal Fisher information estimated from per-sample gradients of
    /// the loss at the current parameters (EWC's importance weights): the
    /// mean over the first `min(rows, max_samples)` rows of each
    /// parameter's squared gradient.
    ///
    /// The rows run in chunks of [`FISHER_CHUNK`] through the training
    /// step's batched forward and backward kernels. Each parameter's sum
    /// is the chain `f += g * g` over rows ascending, continued from chunk
    /// to chunk, with `g = delta * input` (or `delta` for a bias) — the
    /// per-sample loop's chain, so the result is bit-identical to
    /// `Mlp::fisher_diagonal_reference` (proptested in this file's tests).
    pub fn fisher_diagonal(&self, xs: &Matrix, ys: &[f64], max_samples: usize) -> Vec<f64> {
        let mut fisher = vec![0.0; self.n_params()];
        let n = xs.rows().min(max_samples);
        if n == 0 {
            return fisher;
        }
        SAMPLE_GRADIENTS.add(n as u64);
        // Each layer's span of the flat vector: weights, then biases.
        let mut spans = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for l in &self.layers {
            let wl = l.w.as_slice().len();
            spans.push((off, wl, l.n_out));
            off += wl + l.n_out;
        }
        let mut s = TrainScratch::default();
        let rows: Vec<usize> = (0..n).collect();
        for chunk in rows.chunks(FISHER_CHUNK) {
            self.forward_cached(&mut s, xs, chunk);
            self.output_delta(&mut s, ys, chunk);
            for li in (0..self.layers.len()).rev() {
                let (base, wl, nb) = spans[li];
                let (fw, fb) = fisher[base..base + wl + nb].split_at_mut(wl);
                kernels::accum_col_sq_sums(&s.delta, fb);
                kernels::matmul_at_b_sq_accum_into(&s.delta, &s.acts[li], fw);
                if li > 0 {
                    self.backprop_delta(li, &mut s);
                }
            }
        }
        for f in &mut fisher {
            *f /= n as f64;
        }
        fisher
    }

    /// The historical per-sample Fisher diagonal, the bitwise reference
    /// for [`Mlp::fisher_diagonal`].
    #[cfg(test)]
    fn fisher_diagonal_reference(&self, xs: &Matrix, ys: &[f64], max_samples: usize) -> Vec<f64> {
        let mut fisher = vec![0.0; self.n_params()];
        let n = xs.rows().min(max_samples);
        if n == 0 {
            return fisher;
        }
        for r in 0..n {
            let g = self.sample_gradient(xs.row(r), ys[r]);
            for (f, gi) in fisher.iter_mut().zip(&g) {
                *f += gi * gi;
            }
        }
        for f in &mut fisher {
            *f /= n as f64;
        }
        fisher
    }

    /// Flat gradient of the loss for a single sample.
    #[cfg(test)]
    fn sample_gradient(&self, x: &[f64], y: f64) -> Vec<f64> {
        // Forward with caches.
        let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if i + 1 < self.layers.len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            acts.push(next.clone());
            std::mem::swap(&mut cur, &mut next);
        }
        let out = acts.last().expect("output");
        let mut delta: Vec<f64> = match self.objective {
            Objective::CrossEntropy => {
                let mut p = softmax(out);
                let c = (y as usize).min(p.len() - 1);
                p[c] -= 1.0;
                p
            }
            Objective::SquaredError => vec![2.0 * (out[0] - y)],
        };
        let mut flat = vec![0.0; self.n_params()];
        // Compute layer offsets (weights then biases per layer).
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for l in &self.layers {
            offsets.push(off);
            off += l.w.as_slice().len() + l.b.len();
        }
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let input = &acts[li];
            let base = offsets[li];
            for o in 0..layer.n_out {
                let d = delta[o];
                for (i, &xi) in input.iter().enumerate() {
                    flat[base + o * layer.n_in + i] = d * xi;
                }
                flat[base + layer.w.as_slice().len() + o] = d;
            }
            if li > 0 {
                let mut prev = vec![0.0; layer.n_in];
                for o in 0..layer.n_out {
                    kernels::axpy(delta[o], layer.w.row(o), &mut prev);
                }
                for (p, &a) in prev.iter_mut().zip(&acts[li]) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
        flat
    }
}

/// Softmax with max-shift for stability.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(z.len());
    softmax_into(z, &mut out);
    out
}

/// [`softmax`] into a reused buffer (bit-identical, allocation-free).
pub fn softmax_into(z: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        // Degenerate logits (the paper's exploding-NN scenario): a uniform
        // distribution keeps downstream arithmetic defined.
        out.resize(z.len(), 1.0 / z.len() as f64);
        return;
    }
    out.extend(z.iter().map(|v| (v - m).exp()));
    let sum = kernels::sum(out);
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Index of the largest element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_data() -> (Matrix, Vec<f64>) {
        // A noisy XOR-ish separable problem.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let jitter = ((i % 7) as f64 - 3.0) * 0.02;
            rows.push(vec![a + jitter, b - jitter]);
            ys.push(if (a + b) as usize % 2 == 1 { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn learns_xor_classification() {
        let (xs, ys) = xor_data();
        let mut mlp = Mlp::new(2, &[16, 8], 2, Objective::CrossEntropy, 1);
        let rows: Vec<usize> = (0..xs.rows()).collect();
        for _ in 0..300 {
            mlp.train_batch(&xs, &ys, &rows, 0.1, &TrainOpts::default());
        }
        let out = mlp.forward_window(&xs);
        let correct = (0..xs.rows())
            .filter(|&r| argmax(out.row(r)) == ys[r] as usize)
            .count();
        assert!(correct > 380, "accuracy {correct}/400");
    }

    #[test]
    fn learns_linear_regression() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 10) as f64 / 10.0, ((i / 10) % 10) as f64 / 10.0])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - r[1]).collect();
        let xs = Matrix::from_rows(&rows);
        let mut mlp = Mlp::new(2, &[16], 1, Objective::SquaredError, 2);
        let all: Vec<usize> = (0..xs.rows()).collect();
        let mut last = f64::INFINITY;
        for _ in 0..500 {
            last = mlp.train_batch(&xs, &ys, &all, 0.05, &TrainOpts::default());
        }
        assert!(last < 0.02, "final loss {last}");
    }

    #[test]
    fn nonfinite_gradients_do_not_poison_the_weights() {
        let xs = Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![0.5, f64::INFINITY]]);
        let ys = vec![0.0, 1.0];
        let mut mlp = Mlp::new(2, &[4], 1, Objective::SquaredError, 5);
        let before = mlp.get_params();
        mlp.train_batch(&xs, &ys, &[0, 1], 0.1, &TrainOpts::default());
        let after = mlp.get_params();
        assert_eq!(before, after, "update should be skipped on NaN gradients");
        assert!(after.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn params_roundtrip() {
        let mlp = Mlp::new(3, &[4], 2, Objective::CrossEntropy, 3);
        let p = mlp.get_params();
        let mut other = Mlp::new(3, &[4], 2, Objective::CrossEntropy, 99);
        other.set_params(&p);
        assert_eq!(other.get_params(), p);
        let x = [0.5, -0.2, 1.0];
        assert_eq!(mlp.forward(&x), other.forward(&x));
    }

    #[test]
    fn param_count_matches_architecture() {
        // 3 inputs -> [32, 16, 8] -> 2 outputs:
        // (3*32+32) + (32*16+16) + (16*8+8) + (8*2+2) = 128+528+136+18.
        let mlp = Mlp::new(3, &[32, 16, 8], 2, Objective::CrossEntropy, 0);
        assert_eq!(mlp.n_params(), 128 + 528 + 136 + 18);
        assert_eq!(mlp.memory_bytes(), mlp.n_params() * 8);
    }

    #[test]
    fn ewc_penalty_pulls_params_toward_anchor() {
        let (xs, ys) = xor_data();
        let mut free = Mlp::new(2, &[8], 2, Objective::CrossEntropy, 5);
        let mut anchored = free.clone();
        let anchor = free.get_params();
        let fisher = vec![1.0; free.n_params()];
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..50 {
            free.train_batch(&xs, &ys, &rows, 0.1, &TrainOpts::default());
            anchored.train_batch(
                &xs,
                &ys,
                &rows,
                0.1,
                &TrainOpts {
                    ewc: Some((&anchor, &fisher, 10.0)),
                    ..Default::default()
                },
            );
        }
        let drift_free: f64 = free
            .get_params()
            .iter()
            .zip(&anchor)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let drift_anchored: f64 = anchored
            .get_params()
            .iter()
            .zip(&anchor)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            drift_anchored < drift_free,
            "anchored {drift_anchored} vs free {drift_free}"
        );
    }

    #[test]
    fn distillation_keeps_outputs_near_previous_model() {
        let (xs, ys) = xor_data();
        let teacher = Mlp::new(2, &[8], 2, Objective::CrossEntropy, 6);
        let mut plain = teacher.clone();
        let mut distilled = teacher.clone();
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..100 {
            plain.train_batch(&xs, &ys, &rows, 0.1, &TrainOpts::default());
            distilled.train_batch(
                &xs,
                &ys,
                &rows,
                0.1,
                &TrainOpts {
                    distill: Some((&teacher, 5.0)),
                    ..Default::default()
                },
            );
        }
        // Output agreement with the teacher on fresh points.
        let probe = [0.3, 0.7];
        let t = softmax(&teacher.forward(&probe));
        let p = softmax(&plain.forward(&probe));
        let d = softmax(&distilled.forward(&probe));
        let dist =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        assert!(dist(&t, &d) < dist(&t, &p) + 1e-9);
    }

    #[test]
    fn clone_trains_the_next_batch_to_the_same_bits() {
        // The clone starts from an empty scratch while the original's
        // holds the last (distilled) batch's buffers.
        let (xs, ys) = xor_data();
        let teacher = Mlp::new(2, &[32, 16, 8], 2, Objective::CrossEntropy, 11);
        let distill = TrainOpts {
            distill: Some((&teacher, 1.0)),
            ..Default::default()
        };
        let mut original = Mlp::new(2, &[32, 16, 8], 2, Objective::CrossEntropy, 10);
        let first: Vec<usize> = (0..64).collect();
        original.train_batch(&xs, &ys, &first, 0.1, &distill);
        let mut copy = original.clone();
        assert!(copy.scratch.acts.is_empty() && copy.scratch.grads.is_empty());
        for (rows, opts) in [(64..128, &distill), (128..192, &TrainOpts::default())] {
            let rows: Vec<usize> = rows.collect();
            let a = original.train_batch(&xs, &ys, &rows, 0.1, opts);
            let b = copy.train_batch(&xs, &ys, &rows, 0.1, opts);
            assert_eq!(a.to_bits(), b.to_bits());
            let bits =
                |m: &Mlp| -> Vec<u64> { m.get_params().iter().map(|p| p.to_bits()).collect() };
            assert_eq!(bits(&original), bits(&copy));
        }
    }

    #[test]
    fn fisher_is_nonnegative_and_sized() {
        let (xs, ys) = xor_data();
        let mlp = Mlp::new(2, &[8], 2, Objective::CrossEntropy, 7);
        let f = mlp.fisher_diagonal(&xs, &ys, 100);
        assert_eq!(f.len(), mlp.n_params());
        assert!(f.iter().all(|&v| v >= 0.0));
        assert!(f.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn hidden_repr_is_rectified() {
        let mlp = Mlp::new(3, &[5, 4], 2, Objective::CrossEntropy, 8);
        let h = mlp.hidden_window(&Matrix::from_rows(&[vec![1.0, -1.0, 0.5]]));
        assert_eq!(h.shape(), (1, 4));
        assert!(h.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn outlier_input_can_explode_regression_loss() {
        // The §5.3 vulnerability: a single absurd input value drives the
        // un-clipped network's loss to astronomical values.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![(i % 8) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let xs = Matrix::from_rows(&rows);
        let mut mlp = Mlp::new(1, &[8], 1, Objective::SquaredError, 9);
        let all: Vec<usize> = (0..64).collect();
        for _ in 0..50 {
            mlp.train_batch(&xs, &ys, &all, 0.01, &TrainOpts::default());
        }
        let sane_loss = mlp.loss(&[4.0], 4.0);
        // One corrupted training batch with a 999,990 input.
        let bad = Matrix::from_rows(&[vec![999_990.0]]);
        mlp.train_batch(&bad, &[0.0], &[0], 0.01, &TrainOpts::default());
        let post_loss = mlp.loss(&[4.0], 4.0);
        assert!(
            !post_loss.is_finite() || post_loss > sane_loss * 100.0,
            "expected loss blow-up: before {sane_loss}, after {post_loss}"
        );
    }

    #[test]
    fn softmax_handles_nonfinite_logits() {
        let p = softmax(&[f64::NAN, f64::INFINITY]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn params_roundtrip_preserves_function(
            seed in 0u64..1000,
            x in prop::collection::vec(-10.0..10.0f64, 4),
        ) {
            let m = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed);
            let mut clone = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed + 1);
            clone.set_params(&m.get_params());
            prop_assert_eq!(m.forward(&x), clone.forward(&x));
        }

        #[test]
        fn losses_are_nonnegative(
            seed in 0u64..100,
            x in prop::collection::vec(-5.0..5.0f64, 3),
            y in 0usize..4,
        ) {
            let clf = Mlp::new(3, &[6], 4, Objective::CrossEntropy, seed);
            prop_assert!(clf.loss(&x, y as f64) >= 0.0);
            let reg = Mlp::new(3, &[6], 1, Objective::SquaredError, seed);
            prop_assert!(reg.loss(&x, 1.5) >= 0.0);
        }

        #[test]
        fn one_sgd_step_on_one_sample_reduces_its_loss(
            seed in 0u64..200,
            x in prop::collection::vec(-2.0..2.0f64, 3),
            y in -2.0..2.0f64,
        ) {
            let mut m = Mlp::new(3, &[8], 1, Objective::SquaredError, seed);
            let before = m.loss(&x, y);
            prop_assume!(before > 1e-6);
            let xs = Matrix::from_rows(std::slice::from_ref(&x));
            m.train_batch(&xs, &[y], &[0], 0.001, &TrainOpts::default());
            let after = m.loss(&x, y);
            prop_assert!(after <= before + 1e-9, "loss rose from {before} to {after}");
        }

        /// The contract of the one production forward: every row of
        /// `forward_window` and `hidden_window` has the bits of the
        /// per-sample `forward` and `hidden_repr` on that row alone, on
        /// windows of 1, 7, 64 and 65 rows (both sides of the GEMM
        /// dispatch floor), with NaN, +-inf and exact zeros in the data.
        /// A training step runs first, so the biases are not all zero.
        #[test]
        fn window_forward_matches_per_sample_bitwise(
            seed in 0u64..1000,
            arch_sel in 0usize..5,
            output_sel in 0usize..4,
            n_rows in prop_oneof![Just(1usize), Just(7usize), Just(64usize), Just(65usize)],
            data in prop::collection::vec(
                prop_oneof![
                    12 => -3.0..3.0f64,
                    2 => Just(0.0),
                    1 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                ],
                1..256,
            ),
        ) {
            let (input, hidden): (usize, Vec<usize>) = match arch_sel {
                0 => (7, vec![32, 16, 8]),
                1 => (11, vec![32, 16, 8]),
                2 => (33, vec![32, 16, 8]),
                3 => (3, vec![4]),
                _ => (2, vec![]),
            };
            let n_out = [1usize, 2, 4, 6][output_sel];
            let objective = if n_out == 1 {
                Objective::SquaredError
            } else {
                Objective::CrossEntropy
            };
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|r| (0..input).map(|c| data[(r * 31 + c * 7) % data.len()]).collect())
                .collect();
            let xs = Matrix::from_rows(&rows);
            let mut mlp = Mlp::new(input, &hidden, n_out, objective, seed);
            let clean: Vec<Vec<f64>> = (0..16)
                .map(|r| (0..input).map(|c| ((r * 5 + c * 3) % 11) as f64 * 0.3 - 1.5).collect())
                .collect();
            let clean_ys: Vec<f64> = (0..16).map(|r| (r % n_out.max(2)).min(n_out - 1) as f64).collect();
            let all: Vec<usize> = (0..16).collect();
            mlp.train_batch(&Matrix::from_rows(&clean), &clean_ys, &all, 0.05, &TrainOpts::default());

            let out = mlp.forward_window(&xs);
            let hid = mlp.hidden_window(&xs);
            prop_assert_eq!(out.shape(), (n_rows, n_out));
            for r in 0..n_rows {
                let pairs = [
                    (out.row(r), mlp.forward(xs.row(r))),
                    (hid.row(r), mlp.hidden_repr(xs.row(r))),
                ];
                for (window, reference) in pairs {
                    prop_assert_eq!(window.len(), reference.len());
                    for (i, (a, b)) in window.iter().zip(&reference).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "row {} of {}, value {}: {} vs {}", r, n_rows, i, a, b
                        );
                    }
                }
            }
        }

        /// The contract of the GEMM training path: batched
        /// `train_batch` must be bit-identical to the retained per-sample
        /// reference across degenerate shapes (1-row batches, single-neuron
        /// layers) and with the LwF / EWC options on. Data mixes in exact
        /// zeros, huge magnitudes (overflow to inf exercises the no-skip
        /// chains) and NaN (exercises the skipped-update path).
        #[test]
        fn batched_train_matches_reference_bitwise(
            seed in 0u64..1000,
            arch in prop_oneof![
                Just((1usize, vec![], 1usize)),
                Just((1, vec![1], 1)),
                Just((3, vec![1, 4], 2)),
                Just((5, vec![8, 4], 3)),
                Just((2, vec![16, 8], 2)),
            ],
            n_rows in 1usize..70,
            objective_sel in 0usize..2,
            reg_sel in 0usize..3,
            lambda in 0.01..5.0f64,
            data in prop::collection::vec(
                prop_oneof![
                    5 => -3.0..3.0f64,
                    1 => Just(0.0),
                    1 => Just(1e300),
                    1 => Just(f64::NAN),
                ],
                1..64,
            ),
        ) {
            let (input, hidden, output) = arch;
            let objective = if objective_sel == 0 && output > 1 {
                Objective::CrossEntropy
            } else {
                Objective::SquaredError
            };
            let (width, n_out) = if objective == Objective::SquaredError {
                (input, 1)
            } else {
                (input, output)
            };
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|r| (0..width).map(|c| data[(r * 31 + c * 7) % data.len()]).collect())
                .collect();
            let ys: Vec<f64> = (0..n_rows).map(|r| (r % n_out.max(2)) as f64).collect();
            let xs = Matrix::from_rows(&rows);
            let mut batched = Mlp::new(input, &hidden, n_out, objective, seed);
            let mut reference = batched.clone();
            let teacher = Mlp::new(input, &hidden, n_out, objective, seed ^ 0x5eed);
            let anchor = batched.get_params();
            let fisher: Vec<f64> = (0..batched.n_params()).map(|i| (i % 5) as f64 * 0.25).collect();
            let opts = match reg_sel {
                1 => TrainOpts { ewc: Some((&anchor, &fisher, lambda)), ..Default::default() },
                2 => TrainOpts { distill: Some((&teacher, lambda)), ..Default::default() },
                _ => TrainOpts::default(),
            };
            // Several steps, including 1-row batches and a ragged tail.
            let all: Vec<usize> = (0..n_rows).collect();
            for step in 0..3 {
                let batch: Vec<usize> = match step {
                    0 => vec![all[seed as usize % n_rows]],
                    1 => all.clone(),
                    _ => all.iter().copied().step_by(2).collect(),
                };
                let lb = batched.train_batch(&xs, &ys, &batch, 0.01, &opts);
                let lr_ = reference.train_batch_reference(&xs, &ys, &batch, 0.01, &opts);
                prop_assert!(
                    lb.to_bits() == lr_.to_bits() || (lb.is_nan() && lr_.is_nan()),
                    "loss diverged at step {}: {} vs {}", step, lb, lr_
                );
                let pb = batched.get_params();
                let pr = reference.get_params();
                for (i, (a, b)) in pb.iter().zip(&pr).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "param {} diverged at step {}: {} vs {}", i, step, a, b
                    );
                }
            }
        }

        /// The training oracle at the shapes production runs: the §6.1
        /// [32, 16, 8] stack on the encoded input widths (7, 11, 16, 33)
        /// and output widths (1 for regression; 2, 4, 6 classes) of the
        /// `large-windows` streams, trained one epoch in 64-row batches
        /// plus a ragged tail, so every GEMM runs full 4x8 tiles and the
        /// layer-0 gradient meets each of its edge widths. One special
        /// value (NaN, +-inf, or none) sits in one cell of the tail.
        #[test]
        fn production_stack_train_matches_reference_bitwise(
            seed in 0u64..1000,
            input_sel in 0usize..4,
            output_sel in 0usize..4,
            full_batches in 1usize..3,
            tail in 1usize..64,
            reg_sel in 0usize..3,
            lambda in 0.01..5.0f64,
            special_sel in 0usize..4,
            data in prop::collection::vec(
                prop_oneof![6 => -3.0..3.0f64, 1 => Just(0.0)],
                64..128,
            ),
        ) {
            let input = [7usize, 11, 16, 33][input_sel];
            let n_out = [1usize, 2, 4, 6][output_sel];
            let objective = if n_out == 1 {
                Objective::SquaredError
            } else {
                Objective::CrossEntropy
            };
            let n_rows = 64 * full_batches + tail;
            let mut rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|r| (0..input).map(|c| data[(r * 31 + c * 7) % data.len()]).collect())
                .collect();
            if let Some(v) = [Some(f64::NAN), Some(f64::INFINITY), Some(f64::NEG_INFINITY), None][special_sel] {
                rows[n_rows - 1][seed as usize % input] = v;
            }
            let ys: Vec<f64> = (0..n_rows)
                .map(|r| if n_out == 1 { data[r % data.len()] } else { (r % n_out) as f64 })
                .collect();
            let xs = Matrix::from_rows(&rows);
            let hidden = [32, 16, 8];
            let mut batched = Mlp::new(input, &hidden, n_out, objective, seed);
            let mut reference = batched.clone();
            let teacher = Mlp::new(input, &hidden, n_out, objective, seed ^ 0x5eed);
            let anchor = batched.get_params();
            let fisher: Vec<f64> = (0..batched.n_params()).map(|i| (i % 5) as f64 * 0.25).collect();
            let opts = match reg_sel {
                1 => TrainOpts { ewc: Some((&anchor, &fisher, lambda)), ..Default::default() },
                2 => TrainOpts { distill: Some((&teacher, lambda)), ..Default::default() },
                _ => TrainOpts::default(),
            };
            // A fixed permutation, then 64-row batches: the last is the tail.
            let order: Vec<usize> = (0..n_rows).map(|i| (i * 7 + seed as usize) % n_rows).collect();
            let order = if n_rows % 7 == 0 { (0..n_rows).collect() } else { order };
            for (step, batch) in order.chunks(64).enumerate() {
                let lb = batched.train_batch(&xs, &ys, batch, 0.01, &opts);
                let lr_ = reference.train_batch_reference(&xs, &ys, batch, 0.01, &opts);
                prop_assert!(
                    lb.to_bits() == lr_.to_bits() || (lb.is_nan() && lr_.is_nan()),
                    "loss diverged at batch {}: {} vs {}", step, lb, lr_
                );
                let pb = batched.get_params();
                let pr = reference.get_params();
                for (i, (a, b)) in pb.iter().zip(&pr).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "param {} diverged at batch {}: {} vs {}", i, step, a, b
                    );
                }
            }
        }

        /// The contract of the batched Fisher pass: `fisher_diagonal` is
        /// bit-identical to the per-sample reference for both objectives,
        /// on the production stack and a small one, with sample counts
        /// below, at and above one 64-row chunk and above `max_samples`,
        /// and with NaN, +-inf and exact zeros in the data. A training
        /// step runs first, so the weights are not at their initial
        /// values.
        #[test]
        fn batched_fisher_matches_reference_bitwise(
            seed in 0u64..1000,
            arch_sel in 0usize..5,
            output_sel in 0usize..4,
            n_rows in prop_oneof![1usize..64, Just(64usize), 65usize..200],
            max_samples in prop_oneof![Just(500usize), Just(64usize), 1usize..200],
            data in prop::collection::vec(
                prop_oneof![
                    12 => -3.0..3.0f64,
                    2 => Just(0.0),
                    1 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                ],
                1..256,
            ),
        ) {
            let (input, hidden): (usize, Vec<usize>) = match arch_sel {
                0 => (7, vec![32, 16, 8]),
                1 => (11, vec![32, 16, 8]),
                2 => (16, vec![32, 16, 8]),
                3 => (33, vec![32, 16, 8]),
                _ => (3, vec![4]),
            };
            let n_out = [1usize, 2, 4, 6][output_sel];
            let objective = if n_out == 1 {
                Objective::SquaredError
            } else {
                Objective::CrossEntropy
            };
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|r| (0..input).map(|c| data[(r * 31 + c * 7) % data.len()]).collect())
                .collect();
            let ys: Vec<f64> = (0..n_rows)
                .map(|r| if n_out == 1 { data[(r * 3) % data.len()] } else { (r % n_out) as f64 })
                .collect();
            let xs = Matrix::from_rows(&rows);
            let mut mlp = Mlp::new(input, &hidden, n_out, objective, seed);
            // One step on finite data moves the weights off their init.
            let clean: Vec<Vec<f64>> = (0..16)
                .map(|r| (0..input).map(|c| ((r * 5 + c * 3) % 11) as f64 * 0.3 - 1.5).collect())
                .collect();
            let clean_ys: Vec<f64> = (0..16).map(|r| (r % n_out.max(2)).min(n_out - 1) as f64).collect();
            let before = mlp.get_params();
            let all: Vec<usize> = (0..16).collect();
            mlp.train_batch(&Matrix::from_rows(&clean), &clean_ys, &all, 0.05, &TrainOpts::default());
            prop_assert!(mlp.get_params() != before, "the training step moved no weight");

            let batched = mlp.fisher_diagonal(&xs, &ys, max_samples);
            let reference = mlp.fisher_diagonal_reference(&xs, &ys, max_samples);
            prop_assert_eq!(batched.len(), reference.len());
            for (i, (a, b)) in batched.iter().zip(&reference).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "fisher {} diverged (n {}, cap {}): {} vs {}", i, n_rows, max_samples, a, b
                );
            }
        }
    }
}
