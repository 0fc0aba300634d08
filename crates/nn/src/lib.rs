//! # oeb-nn
//!
//! Neural stream learners for the OEBench reproduction: a from-scratch
//! MLP with manual backpropagation ([`mlp::Mlp`]), the window-level SGD
//! training loop with the paper's defaults ([`trainer`]), the EWC and LwF
//! continual-learning regularisers (borrowed into each window's training
//! through [`mlp::TrainOpts`]), and the iCaRL herding exemplar buffer
//! ([`exemplar::ExemplarBuffer`]).

// Index loops over parallel numeric buffers are clearer than iterator
// chains in these kernels.
#![allow(clippy::needless_range_loop)]

pub mod exemplar;
pub mod mlp;
pub mod trainer;

pub use exemplar::ExemplarBuffer;
pub use mlp::{argmax, softmax, softmax_into, Mlp, Objective, TrainOpts};
pub use trainer::{train_window, SgdConfig};
