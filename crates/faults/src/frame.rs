//! Window frames and the sources that produce them.

use oeb_linalg::Matrix;
use oeb_preprocess::OneHotEncoder;
use oeb_tabular::StreamDataset;

/// One window of a stream: encoded features plus targets.
///
/// `index` is the window's position in the *source* stream; an injector
/// may drop or duplicate frames, so consumers must not assume indices
/// are consecutive or unique.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFrame {
    /// Source window index.
    pub index: usize,
    /// Encoded feature rows (`rows x width`).
    pub features: Matrix,
    /// One target per feature row.
    pub targets: Vec<f64>,
}

impl WindowFrame {
    /// Number of samples in the window.
    pub fn rows(&self) -> usize {
        self.features.rows()
    }

    /// Number of feature columns.
    pub fn cols(&self) -> usize {
        self.features.cols()
    }
}

/// Anything that yields window frames in stream order.
pub trait FrameSource {
    /// Number of windows the *source* stream holds (before faults).
    fn n_windows(&self) -> usize;

    /// The next frame, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<WindowFrame>;
}

/// A fixed in-memory sequence of frames (test double and replay buffer).
#[derive(Debug, Clone)]
pub struct FrameVec {
    frames: std::vec::IntoIter<WindowFrame>,
    total: usize,
}

impl FrameVec {
    /// Wraps the given frames.
    pub fn new(frames: Vec<WindowFrame>) -> FrameVec {
        FrameVec {
            total: frames.len(),
            frames: frames.into_iter(),
        }
    }
}

impl FrameSource for FrameVec {
    fn n_windows(&self) -> usize {
        self.total
    }

    fn next_frame(&mut self) -> Option<WindowFrame> {
        self.frames.next()
    }
}

/// Streams a [`StreamDataset`] window by window: each frame holds the
/// one-hot encoded feature block and raw targets of one window. Neither
/// imputation nor scaling happens here — that is the harness's job.
pub struct DatasetFrames<'a> {
    dataset: &'a StreamDataset,
    encoder: OneHotEncoder,
    windows: Vec<std::ops::Range<usize>>,
    next: usize,
}

impl<'a> DatasetFrames<'a> {
    /// Builds the source using the dataset's own windowing scaled by
    /// `window_factor` (1.0 = the dataset default) over `feature_cols`.
    pub fn new(
        dataset: &'a StreamDataset,
        feature_cols: &[usize],
        window_factor: f64,
    ) -> DatasetFrames<'a> {
        DatasetFrames {
            encoder: OneHotEncoder::fit(&dataset.table, feature_cols),
            windows: dataset.windows_scaled(window_factor),
            dataset,
            next: 0,
        }
    }

    /// Encoded feature width.
    pub fn width(&self) -> usize {
        self.encoder.width()
    }

    /// The encoder (e.g. for oracle imputation over the whole stream).
    pub fn encoder(&self) -> &OneHotEncoder {
        &self.encoder
    }
}

impl FrameSource for DatasetFrames<'_> {
    fn n_windows(&self) -> usize {
        self.windows.len()
    }

    fn next_frame(&mut self) -> Option<WindowFrame> {
        let range = self.windows.get(self.next)?.clone();
        let index = self.next;
        self.next += 1;
        let features = self.encoder.encode(&self.dataset.table, range.clone());
        let targets = range.map(|r| self.dataset.target_at(r)).collect();
        Some(WindowFrame {
            index,
            features,
            targets,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `n` windows of `rows x cols` consecutive values with alternating
    /// binary targets (shared with the injector tests).
    pub(crate) fn toy_frames(n: usize, rows: usize, cols: usize) -> Vec<WindowFrame> {
        (0..n)
            .map(|w| {
                let data: Vec<f64> = (0..rows * cols)
                    .map(|i| (w * rows * cols + i) as f64)
                    .collect();
                WindowFrame {
                    index: w,
                    features: Matrix::from_vec(rows, cols, data),
                    targets: (0..rows).map(|r| ((w + r) % 2) as f64).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn frame_vec_replays_in_order() {
        let mut src = FrameVec::new(toy_frames(3, 4, 2));
        assert_eq!(src.n_windows(), 3);
        for w in 0..3 {
            let f = src.next_frame().unwrap();
            assert_eq!(f.index, w);
            assert_eq!((f.rows(), f.cols()), (4, 2));
        }
        assert!(src.next_frame().is_none());
    }
}
