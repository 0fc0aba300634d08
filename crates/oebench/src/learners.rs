//! The ten stream-learning algorithms the paper benchmarks (§4.5, Table
//! 4): Naive-NN, EWC, LwF, iCaRL, SEA-NN, Naive-DT, Naive-GBDT, SEA-DT,
//! SEA-GBDT and ARF, behind one [`StreamLearner`] trait consumed by the
//! prequential harness, which tests each window with one `predict` call
//! (§6.1: every learner is tested, then trained, one window at a time).
//!
//! The per-window base models (MLP, CART tree, GBDT) are one type,
//! `BaseModel`: Naive-DT and Naive-GBDT refit it on every window, and
//! SEA's members are fits of it (see [`crate::sea`]), so SEA-X against
//! Naive-X differs only in the ensemble policy. The four NN learners are
//! one learner whose continual-learning state is data.
//!
//! Conventions follow the paper's §6.1 setups: NN learners share the
//! [32, 16, 8] MLP trained 10 epochs per window at batch 64 / lr 0.01;
//! EWC and LwF regularise against the most recent window's model only;
//! iCaRL keeps a 100-exemplar herding buffer and (for regression) treats
//! the stream as a single class; tree learners refit per window without
//! epochs; ARF is classification-only (N/A on regression).

use crate::sea::SeaLearner;
use oeb_linalg::Matrix;
use oeb_nn::{argmax, train_window, ExemplarBuffer, Mlp, Objective, SgdConfig, TrainOpts};
use oeb_tabular::Task;
use oeb_tree::{
    AdaptiveRandomForest, ArfConfig, DecisionTree, Gbdt, GbdtConfig, TreeConfig, TreeTask,
};

/// Hyper-parameters shared by the learner implementations (paper §6.1
/// defaults).
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// MLP hidden sizes.
    pub hidden: Vec<usize>,
    /// Local epochs per window.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// iCaRL exemplar-buffer capacity.
    pub buffer_size: usize,
    /// SEA ensemble capacity / GBDT boosting rounds.
    pub ensemble_size: usize,
    /// EWC regularisation factor (paper tunes within {1e3, 1e4, 1e5}).
    pub ewc_lambda: f64,
    /// LwF regularisation factor (paper tunes within {0.01, 0.1, 1}).
    pub lwf_lambda: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            hidden: vec![32, 16, 8],
            epochs: 10,
            batch_size: 64,
            lr: 0.01,
            buffer_size: 100,
            ensemble_size: 5,
            ewc_lambda: 1e3,
            lwf_lambda: 0.1,
            seed: 0,
        }
    }
}

/// A model that learns window-by-window in the prequential protocol.
pub trait StreamLearner {
    /// Predicts every row of one (encoded, imputed, scaled) window: `out`
    /// is cleared, then holds one prediction per row, a class index for
    /// classification or a value for regression.
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>);

    /// Trains on one window of samples.
    fn train_window(&mut self, xs: &Matrix, ys: &[f64]);

    /// Approximate model state size in bytes (Table 6 accounting).
    fn memory_bytes(&self) -> usize;
}

/// Mean loss of one window's predictions, summed in row order: the error
/// rate for classification, the MSE for regression. The harness scores
/// each tested window with it, and SEA its quality check.
pub(crate) fn window_loss(task: Task, preds: &[f64], targets: &[f64]) -> f64 {
    debug_assert_eq!(preds.len(), targets.len(), "one prediction per row");
    let loss = preds
        .iter()
        .zip(targets)
        .fold(0.0, |loss, (&pred, &y)| match task {
            Task::Classification { .. } => loss + f64::from(pred != y),
            Task::Regression => loss + (pred - y).powi(2),
        });
    loss / preds.len().max(1) as f64
}

/// Fills `out` with `predict` of every row of `xs`.
fn each_row(xs: &Matrix, out: &mut Vec<f64>, predict: impl Fn(&[f64]) -> f64) {
    out.clear();
    out.extend((0..xs.rows()).map(|r| predict(xs.row(r))));
}

/// An MLP's predictions for a window: the arg-max class of the logits, or
/// the regression output.
fn nn_predict(mlp: &Mlp, xs: &Matrix, out: &mut Vec<f64>) {
    let z = mlp.forward_window(xs);
    each_row(&z, out, |row| match mlp.objective {
        Objective::CrossEntropy => argmax(row) as f64,
        Objective::SquaredError => row[0],
    });
}

fn new_mlp(task: Task, input_dim: usize, cfg: &LearnerConfig, seed: u64) -> Mlp {
    let objective = match task {
        Task::Classification { .. } => Objective::CrossEntropy,
        Task::Regression => Objective::SquaredError,
    };
    Mlp::new(input_dim, &cfg.hidden, task.output_width(), objective, seed)
}

fn sgd(cfg: &LearnerConfig, seed: u64) -> SgdConfig {
    SgdConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        seed,
    }
}

/// Which base model a per-window learner fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKind {
    /// Per-window MLP.
    Nn,
    /// Per-window CART tree.
    Dt,
    /// Per-window GBDT.
    Gbdt,
}

/// One base model fitted on one window: what Naive-DT and Naive-GBDT
/// refit every window, and what each SEA member is (§4.5).
pub(crate) enum BaseModel {
    Nn(Box<Mlp>),
    Dt(DecisionTree),
    Gbdt(Gbdt),
}

impl BaseModel {
    /// Fits a fresh `kind` model on one window with `seed`; a GBDT boosts
    /// `gbdt_rounds` rounds of depth-6 trees.
    pub(crate) fn fit(
        kind: BaseKind,
        task: Task,
        xs: &Matrix,
        ys: &[f64],
        cfg: &LearnerConfig,
        seed: u64,
        gbdt_rounds: usize,
    ) -> BaseModel {
        let tree_task = match task {
            Task::Classification { n_classes } => TreeTask::Classification { n_classes },
            Task::Regression => TreeTask::Regression,
        };
        let tree = TreeConfig {
            seed,
            ..Default::default()
        };
        match kind {
            BaseKind::Nn => {
                let mut mlp = new_mlp(task, xs.cols(), cfg, seed);
                train_window(&mut mlp, xs, ys, &sgd(cfg, seed), &TrainOpts::default());
                BaseModel::Nn(Box::new(mlp))
            }
            BaseKind::Dt => BaseModel::Dt(DecisionTree::fit(xs, ys, tree_task, &tree)),
            BaseKind::Gbdt => BaseModel::Gbdt(Gbdt::fit(
                xs,
                ys,
                tree_task,
                &GbdtConfig {
                    n_rounds: gbdt_rounds,
                    tree: TreeConfig {
                        max_depth: 6,
                        ..tree
                    },
                    ..Default::default()
                },
            )),
        }
    }

    /// Predicts every row of `xs` (see [`StreamLearner::predict`]).
    pub(crate) fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        match self {
            BaseModel::Nn(m) => nn_predict(m, xs, out),
            BaseModel::Dt(m) => each_row(xs, out, |x| m.predict(x)),
            BaseModel::Gbdt(m) => each_row(xs, out, |x| m.predict(x)),
        }
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            BaseModel::Nn(m) => m.memory_bytes(),
            BaseModel::Dt(m) => m.memory_bytes(),
            BaseModel::Gbdt(m) => m.memory_bytes(),
        }
    }
}

/// Naive-DT and Naive-GBDT: a base model refit on every window with the
/// learner's seed (trees are refit, not fine-tuned; the paper notes tree
/// methods need no epochs or batches). Naive-GBDT boosts
/// `cfg.ensemble_size` rounds (the paper uses 5 trees). Predicts 0 before
/// its first window.
struct Refit {
    kind: BaseKind,
    task: Task,
    cfg: LearnerConfig,
    model: Option<BaseModel>,
}

impl StreamLearner for Refit {
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        match &self.model {
            Some(m) => m.predict(xs, out),
            None => each_row(xs, out, |_| 0.0),
        }
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        if xs.rows() == 0 {
            return;
        }
        self.model = Some(BaseModel::fit(
            self.kind,
            self.task,
            xs,
            ys,
            &self.cfg,
            self.cfg.seed,
            self.cfg.ensemble_size,
        ));
    }

    fn memory_bytes(&self) -> usize {
        self.model.as_ref().map_or(0, BaseModel::memory_bytes)
    }
}

/// The continual-learning state that tells the four NN learners apart.
/// EWC and LwF regularise against the most recent window's model only
/// (§6.1).
enum Continual {
    /// Naive-NN: plain SGD on each window.
    Naive,
    /// EWC: the previous window's parameters and normalised Fisher
    /// diagonal.
    Ewc(Option<(Vec<f64>, Vec<f64>)>),
    /// LwF: the previous window's model, the distillation teacher.
    Lwf(Option<Box<Mlp>>),
    /// iCaRL's exemplar replay: each window trains on the window plus the
    /// herding buffer, which then refreshes.
    Icarl(ExemplarBuffer),
}

/// Naive-NN, EWC, LwF and iCaRL: one MLP fine-tuned window by window
/// under its continual-learning state.
struct NnLearner {
    mlp: Mlp,
    task: Task,
    cfg: LearnerConfig,
    state: Continual,
}

impl NnLearner {
    fn new(task: Task, input_dim: usize, cfg: &LearnerConfig, state: Continual) -> NnLearner {
        NnLearner {
            mlp: new_mlp(task, input_dim, cfg, cfg.seed),
            task,
            cfg: cfg.clone(),
            state,
        }
    }
}

impl StreamLearner for NnLearner {
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        nn_predict(&self.mlp, xs, out);
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        let sgd = sgd(&self.cfg, self.cfg.seed);
        let mlp = &mut self.mlp;
        match &mut self.state {
            Continual::Naive => {
                train_window(mlp, xs, ys, &sgd, &TrainOpts::default());
            }
            Continual::Ewc(anchor) => {
                let ewc = anchor
                    .as_ref()
                    .map(|(theta, fisher)| (&theta[..], &fisher[..], self.cfg.ewc_lambda));
                train_window(mlp, xs, ys, &sgd, &TrainOpts { ewc, distill: None });
                // Anchor to this window. The Fisher diagonal is normalised
                // to a maximum of 1e-3: the paper observes the raw EWC
                // penalty is tiny (1e-11..1e-6), factors below 1e3 act like
                // the naive method, and explosions start beyond 1e5 — with
                // SGD stability requiring lr * lambda * F < 2, a 1e-3 Fisher
                // ceiling reproduces exactly that regime (lambda 1e3 ->
                // marginal, 1e5 -> strong, beyond -> divergent).
                let mut fisher = mlp.fisher_diagonal(xs, ys, 500);
                let max = fisher.iter().copied().fold(0.0f64, f64::max);
                if max > 0.0 {
                    for f in &mut fisher {
                        *f *= 1e-3 / max;
                    }
                }
                *anchor = Some((mlp.get_params(), fisher));
            }
            Continual::Lwf(prev) => {
                let distill = prev.as_deref().map(|p| (p, self.cfg.lwf_lambda));
                train_window(mlp, xs, ys, &sgd, &TrainOpts { ewc: None, distill });
                *prev = Some(Box::new(mlp.clone()));
            }
            Continual::Icarl(buffer) => {
                // The window, then the replayed exemplars.
                let (bx, by) = buffer.exemplars();
                let train_x = Matrix::from_vec(
                    xs.rows() + bx.rows(),
                    xs.cols(),
                    [xs.as_slice(), bx.as_slice()].concat(),
                );
                let train_y = [ys, by].concat();
                train_window(mlp, &train_x, &train_y, &sgd, &TrainOpts::default());
                buffer.update(mlp, xs, ys, self.task.is_classification());
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let model = self.mlp.memory_bytes();
        model
            + match &self.state {
                Continual::Naive | Continual::Ewc(None) | Continual::Lwf(None) => 0,
                // The anchor parameters and the Fisher diagonal.
                Continual::Ewc(Some(_)) => 2 * model,
                Continual::Lwf(Some(_)) => model,
                Continual::Icarl(buffer) => buffer.memory_bytes(),
            }
    }
}

/// ARF (classification only).
struct ArfLearner(AdaptiveRandomForest);

impl StreamLearner for ArfLearner {
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        each_row(xs, out, |x| self.0.predict(x) as f64);
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        self.0.learn_window(xs, ys);
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// The algorithm roster of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    NaiveNn,
    Ewc,
    Lwf,
    Icarl,
    SeaNn,
    NaiveDt,
    NaiveGbdt,
    SeaDt,
    SeaGbdt,
    Arf,
}

impl Algorithm {
    /// All ten algorithms in the paper's column order.
    pub fn all() -> [Algorithm; 10] {
        [
            Algorithm::NaiveNn,
            Algorithm::Ewc,
            Algorithm::Lwf,
            Algorithm::Icarl,
            Algorithm::SeaNn,
            Algorithm::NaiveDt,
            Algorithm::NaiveGbdt,
            Algorithm::SeaDt,
            Algorithm::SeaGbdt,
            Algorithm::Arf,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::NaiveNn => "Naive-NN",
            Algorithm::Ewc => "EWC",
            Algorithm::Lwf => "LwF",
            Algorithm::Icarl => "iCaRL",
            Algorithm::SeaNn => "SEA-NN",
            Algorithm::NaiveDt => "Naive-DT",
            Algorithm::NaiveGbdt => "Naive-GBDT",
            Algorithm::SeaDt => "SEA-DT",
            Algorithm::SeaGbdt => "SEA-GBDT",
            Algorithm::Arf => "ARF",
        }
    }

    /// True for the NN-family algorithms.
    pub fn is_nn_based(&self) -> bool {
        matches!(
            self,
            Algorithm::NaiveNn
                | Algorithm::Ewc
                | Algorithm::Lwf
                | Algorithm::Icarl
                | Algorithm::SeaNn
        )
    }

    /// Instantiates the learner; `None` when the algorithm does not apply
    /// to the task (ARF on regression, matching the paper's N/A entries).
    pub fn make(
        &self,
        task: Task,
        input_dim: usize,
        cfg: &LearnerConfig,
    ) -> Option<Box<dyn StreamLearner>> {
        let nn = |state| -> Box<dyn StreamLearner> {
            Box::new(NnLearner::new(task, input_dim, cfg, state))
        };
        let refit = |kind| -> Box<dyn StreamLearner> {
            Box::new(Refit {
                kind,
                task,
                cfg: cfg.clone(),
                model: None,
            })
        };
        let sea =
            |kind| -> Box<dyn StreamLearner> { Box::new(SeaLearner::new(kind, task, cfg.clone())) };
        Some(match self {
            Algorithm::NaiveNn => nn(Continual::Naive),
            Algorithm::Ewc => nn(Continual::Ewc(None)),
            Algorithm::Lwf => nn(Continual::Lwf(None)),
            Algorithm::Icarl => nn(Continual::Icarl(ExemplarBuffer::new(cfg.buffer_size))),
            Algorithm::SeaNn => sea(BaseKind::Nn),
            Algorithm::NaiveDt => refit(BaseKind::Dt),
            Algorithm::NaiveGbdt => refit(BaseKind::Gbdt),
            Algorithm::SeaDt => sea(BaseKind::Dt),
            Algorithm::SeaGbdt => sea(BaseKind::Gbdt),
            Algorithm::Arf => match task {
                Task::Classification { n_classes } => {
                    Box::new(ArfLearner(AdaptiveRandomForest::new(
                        input_dim,
                        n_classes,
                        ArfConfig {
                            n_trees: cfg.ensemble_size,
                            seed: cfg.seed.wrapping_add(0x617266),
                            ..Default::default()
                        },
                    )))
                }
                Task::Regression => return None,
            },
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn toy_clf() -> (Matrix, Vec<f64>, Task) {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 8) as f64, 1.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 4.0)).collect();
        (
            Matrix::from_rows(&rows),
            ys,
            Task::Classification { n_classes: 2 },
        )
    }

    fn toy_reg() -> (Matrix, Vec<f64>, Task) {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 16) as f64 / 16.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
        (Matrix::from_rows(&rows), ys, Task::Regression)
    }

    /// A learner's prediction for one row, as a 1-row window.
    pub(crate) fn predict_row(learner: &dyn StreamLearner, x: &[f64]) -> f64 {
        let mut out = Vec::new();
        learner.predict(&Matrix::from_rows(&[x.to_vec()]), &mut out);
        out[0]
    }

    #[test]
    fn every_algorithm_instantiates_for_classification() {
        let (xs, ys, task) = toy_clf();
        for alg in Algorithm::all() {
            let mut learner = alg
                .make(task, xs.cols(), &LearnerConfig::default())
                .unwrap_or_else(|| panic!("{} missing for classification", alg.name()));
            learner.train_window(&xs, &ys);
            let p = predict_row(learner.as_ref(), xs.row(0));
            assert!(p == 0.0 || p == 1.0, "{} predicted {p}", alg.name());
            assert!(learner.memory_bytes() > 0);
        }
    }

    #[test]
    fn arf_is_none_for_regression_others_work() {
        let (xs, ys, task) = toy_reg();
        for alg in Algorithm::all() {
            match alg.make(task, xs.cols(), &LearnerConfig::default()) {
                None => assert_eq!(alg, Algorithm::Arf),
                Some(mut learner) => {
                    learner.train_window(&xs, &ys);
                    assert!(predict_row(learner.as_ref(), xs.row(3)).is_finite());
                }
            }
        }
    }

    #[test]
    fn trained_learners_beat_chance_on_separable_data() {
        let (xs, ys, task) = toy_clf();
        for alg in [Algorithm::NaiveNn, Algorithm::NaiveDt, Algorithm::NaiveGbdt] {
            let mut learner = alg
                .make(task, xs.cols(), &LearnerConfig::default())
                .unwrap();
            for _ in 0..3 {
                learner.train_window(&xs, &ys);
            }
            let mut preds = Vec::new();
            learner.predict(&xs, &mut preds);
            let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
            assert!(correct > 230, "{}: {correct}/256 correct", alg.name());
        }
    }

    #[test]
    fn ewc_memory_triples_after_anchoring() {
        let (xs, ys, task) = toy_clf();
        let mut ewc = NnLearner::new(
            task,
            xs.cols(),
            &LearnerConfig::default(),
            Continual::Ewc(None),
        );
        let before = ewc.memory_bytes();
        ewc.train_window(&xs, &ys);
        assert_eq!(ewc.memory_bytes(), before * 3);
    }

    #[test]
    fn lwf_memory_doubles_after_snapshot() {
        let (xs, ys, task) = toy_clf();
        let mut lwf = NnLearner::new(
            task,
            xs.cols(),
            &LearnerConfig::default(),
            Continual::Lwf(None),
        );
        let before = lwf.memory_bytes();
        lwf.train_window(&xs, &ys);
        assert_eq!(lwf.memory_bytes(), before * 2);
    }

    #[test]
    fn icarl_buffer_persists_across_windows() {
        let (xs, ys, task) = toy_clf();
        let cfg = LearnerConfig::default();
        let buffer = ExemplarBuffer::new(cfg.buffer_size);
        let mut icarl = NnLearner::new(task, xs.cols(), &cfg, Continual::Icarl(buffer));
        icarl.train_window(&xs, &ys);
        let Continual::Icarl(buffer) = &icarl.state else {
            unreachable!("built with a buffer")
        };
        assert!(!buffer.is_empty());
        assert!(icarl.memory_bytes() > icarl.mlp.memory_bytes());
    }

    /// Every learner's window predict gives each row the bits that the
    /// learner gives that row alone: windows of 1, 7, 64 and 65 rows of
    /// 7 columns (a 1-row window runs the first layer's GEMM below its
    /// dispatch floor, the others above it), after six trained windows, so
    /// SEA holds five members and has checked a candidate. The NN-based
    /// learners also see NaN and +-inf cells.
    #[test]
    fn window_predict_matches_per_row_predict_bitwise() {
        let row = |r: usize| -> Vec<f64> {
            (0..7)
                .map(|c| ((r * 7 + c * 3) % 11) as f64 / 11.0)
                .collect()
        };
        for task in [Task::Classification { n_classes: 3 }, Task::Regression] {
            let label = |x: &[f64]| match task {
                Task::Classification { .. } => (x[0] * 3.0).min(2.0).floor(),
                Task::Regression => 2.0 * x[0] - x[3],
            };
            for alg in Algorithm::all() {
                let Some(mut learner) = alg.make(task, 7, &LearnerConfig::default()) else {
                    assert_eq!((alg, task), (Algorithm::Arf, Task::Regression));
                    continue;
                };
                for w in 0..6 {
                    let rows: Vec<Vec<f64>> = (w * 64..(w + 1) * 64).map(row).collect();
                    let ys: Vec<f64> = rows.iter().map(|x| label(x)).collect();
                    learner.train_window(&Matrix::from_rows(&rows), &ys);
                }
                for n in [1, 7, 64, 65] {
                    let mut rows: Vec<Vec<f64>> = (0..n).map(|r| row(r * 5 + 1)).collect();
                    if alg.is_nn_based() {
                        rows[0][1] = f64::NAN;
                        rows[n / 2][2] = f64::INFINITY;
                        rows[n - 1][6] = f64::NEG_INFINITY;
                    }
                    let window = Matrix::from_rows(&rows);
                    let mut preds = vec![f64::NAN; 3];
                    learner.predict(&window, &mut preds);
                    assert_eq!(preds.len(), n, "{}", alg.name());
                    for (r, p) in preds.iter().enumerate() {
                        let one = predict_row(learner.as_ref(), window.row(r));
                        assert_eq!(
                            p.to_bits(),
                            one.to_bits(),
                            "{} {task:?}: row {r} of {n}: {p} vs {one}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::all().len(), 10);
        assert!(Algorithm::SeaNn.is_nn_based());
        assert!(!Algorithm::SeaDt.is_nn_based());
        assert_eq!(Algorithm::NaiveGbdt.name(), "Naive-GBDT");
    }
}
