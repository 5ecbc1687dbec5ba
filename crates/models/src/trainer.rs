//! Shared training loop: Adam, full-catalogue cross-entropy, early stopping
//! on validation HR@20 with patience (paper §IV-A3), and timed evaluation.

use std::time::Instant;

use ssdrec_data::{BatchSource, Example, Split};
use ssdrec_metrics::{rank_rows, RankingAccumulator};
use ssdrec_tensor::{Adam, Gradients, Graph, Rng};

use crate::checkpoint::{self, CheckpointConfig, TrainState};
use crate::model::RecModel;

/// Learning-rate schedule applied on top of the base rate.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's setting).
    #[default]
    Constant,
    /// Linear warm-up from 0 to the base rate over the first `warmup_steps`
    /// optimisation steps, then constant. Stabilises the first updates of
    /// the deeper SSDRec stack.
    WarmupLinear {
        /// Steps to reach the base rate.
        warmup_steps: u64,
    },
}

impl LrSchedule {
    /// The multiplier to apply to the base learning rate at `step` (1-based).
    pub fn factor(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::WarmupLinear { warmup_steps } => {
                if warmup_steps == 0 {
                    1.0
                } else {
                    (step as f32 / warmup_steps as f32).min(1.0)
                }
            }
        }
    }
}

/// Training hyper-parameters (defaults follow the paper where feasible).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 256; scaled-down default here).
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// L2 regularisation coefficient (paper searches {0, 1e-3, 1e-4}).
    pub weight_decay: f32,
    /// Early-stopping patience in epochs on validation HR@20 (paper: 10).
    pub patience: usize,
    /// RNG seed for shuffling/dropout.
    pub seed: u64,
    /// Print a one-line log per epoch.
    pub verbose: bool,
    /// Learning-rate schedule.
    pub lr_schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 1e-3,
            weight_decay: 0.0,
            patience: 10,
            seed: 7,
            verbose: false,
            lr_schedule: LrSchedule::default(),
        }
    }
}

/// What the trainer measured.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Epochs actually run (≤ `epochs` under early stopping).
    pub epochs_run: usize,
    /// Best validation metrics (the restored checkpoint).
    pub valid: ssdrec_metrics::MetricReport,
    /// Test metrics of the restored best checkpoint.
    pub test: ssdrec_metrics::MetricReport,
    /// Per-example test ranks (for significance testing).
    pub test_ranks: Vec<usize>,
    /// Mean wall-clock seconds per training epoch (Table VI "Training").
    pub train_secs_per_epoch: f64,
    /// Wall-clock seconds for one full test inference pass (Table VI).
    pub infer_secs: f64,
    /// Final training loss.
    pub final_loss: f32,
    /// Training batches skipped because their loss was NaN or ±inf (no
    /// backward pass, no optimizer step), over the epochs this call ran —
    /// a resumed run counts from its resume point.
    pub nonfinite_batches: usize,
}

/// Evaluate a model on a set of examples, returning the rank accumulator.
///
/// Convenience wrapper over [`evaluate_with`] that owns a throwaway graph;
/// step loops that already hold a long-lived graph should pass it to
/// [`evaluate_with`] so the tape storage is reused.
pub fn evaluate<M: RecModel>(
    model: &M,
    examples: &[Example],
    batch_size: usize,
) -> RankingAccumulator {
    let mut g = Graph::new();
    evaluate_with(model, examples, batch_size, &mut g)
}

/// Evaluate a model on a set of examples using a caller-provided graph.
///
/// The graph is [`reset`](Graph::reset) before every batch, so tape
/// storage is recycled through the buffer pool instead of reallocated;
/// results are bit-identical to building a fresh graph per batch.
pub fn evaluate_with<M: RecModel>(
    model: &M,
    examples: &[Example],
    batch_size: usize,
    g: &mut Graph,
) -> RankingAccumulator {
    evaluate_source_with(model, &examples, batch_size, g)
}

/// Evaluate a model over any [`BatchSource`] — owned examples or an
/// out-of-core store + split plan. Batches (and hence the accumulator) are
/// bit-identical across sources for the same examples.
pub fn evaluate_source_with<M: RecModel>(
    model: &M,
    source: &dyn BatchSource,
    batch_size: usize,
    g: &mut Graph,
) -> RankingAccumulator {
    let mut acc = RankingAccumulator::new();
    source.for_each_batch(batch_size, 0, &mut |batch| {
        g.reset();
        let bind = model.store().bind_all(g);
        let scores = model.eval_scores(g, &bind, batch);
        let sv = g.value(scores);
        let v = sv.shape()[1];
        // Rank the whole batch on the runtime pool; row order (and hence
        // the accumulator contents) matches the per-row sequential loop.
        for rank in rank_rows(sv.data(), v, &batch.targets) {
            acc.push_rank(rank);
        }
    });
    acc
}

/// Train a model with Adam + early stopping; restores the best checkpoint
/// before the final test evaluation.
///
/// Infallible convenience wrapper over [`train_with_checkpoints`] without
/// periodic checkpointing (no I/O can fail).
pub fn train<M: RecModel>(model: &mut M, split: &Split, cfg: &TrainConfig) -> TrainReport {
    train_with_checkpoints(model, split, cfg, None)
        .expect("training without a checkpoint config performs no fallible I/O")
}

/// [`train`], with optional periodic checkpointing and resume.
///
/// With a [`CheckpointConfig`], the full trainer state (parameters, Adam
/// moments and step count, RNG stream, epoch/patience counters, best
/// snapshot) is written atomically to `ckpt.path` every `ckpt.every` epochs
/// and when training stops. With `ckpt.resume` and an existing state file,
/// training restarts from the recorded epoch and the remainder of the run
/// is **bit-identical** to one that was never interrupted (enforced by
/// `tests/chaos.rs` and `tests/thread_determinism.rs`).
///
/// Fault sites: `ckpt.save` (inside the atomic write) and `train.epoch`
/// (after each periodic save — arming a `panic` there simulates a kill).
pub fn train_with_checkpoints<M: RecModel>(
    model: &mut M,
    split: &Split,
    cfg: &TrainConfig,
    ckpt: Option<&CheckpointConfig>,
) -> Result<TrainReport, String> {
    train_with_warm_start(model, split, cfg, None, ckpt)
}

/// [`train_with_checkpoints`], optionally warm-started from a prior run's
/// [`TrainState`] — the continual-training entry point used by
/// `ssdrec-stream`'s incremental retrain driver.
///
/// A warm start restores the *optimizer trajectory* (parameter values, Adam
/// moments and step count, raw RNG stream, model-side state) of the prior
/// run but starts fresh epoch/early-stopping counters: the loop runs
/// `cfg.epochs` incremental epochs over `split` from epoch 0. This differs
/// from `resume`, which continues the *same* run's epoch schedule.
///
/// Precedence: when `ckpt.resume` finds an existing state file, that state
/// wins and `warm` is ignored — a killed warm-started run resumes from its
/// own work checkpoint (which already embeds the warm start), keeping
/// kill-and-resume bit-identical to an uninterrupted warm-started run.
pub fn train_with_warm_start<M: RecModel>(
    model: &mut M,
    split: &Split,
    cfg: &TrainConfig,
    warm: Option<&TrainState>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<TrainReport, String> {
    let (tr, va, te): (&[Example], &[Example], &[Example]) =
        (&split.train, &split.valid, &split.test);
    let sources = SourceSplit {
        train: &tr,
        valid: &va,
        test: &te,
    };
    train_from_source(model, &sources, cfg, warm, ckpt)
}

/// A train/valid/test triple of [`BatchSource`]s — the source-agnostic
/// analogue of [`Split`]. Build one from references to `&[Example]` slices
/// (in-RAM) or
/// from [`StoreExamples`](ssdrec_data::StoreExamples) views over a columnar
/// store + [`SplitPlan`](ssdrec_data::SplitPlan) (out-of-core).
pub struct SourceSplit<'a> {
    /// Training examples.
    pub train: &'a dyn BatchSource,
    /// Validation examples (early stopping).
    pub valid: &'a dyn BatchSource,
    /// Test examples.
    pub test: &'a dyn BatchSource,
}

/// [`train_with_warm_start`] over arbitrary [`BatchSource`]s — the entry
/// point for training straight off a columnar `.ssdc` file with bounded RAM.
/// For the same underlying examples this is **bit-identical** to the
/// `Split`-based path: same batch plans, same RNG stream, same checkpoint
/// bytes (`crates/data/tests/prop_columnar.rs` and the golden-determinism
/// suite pin this).
pub fn train_from_source<M: RecModel>(
    model: &mut M,
    split: &SourceSplit<'_>,
    cfg: &TrainConfig,
    warm: Option<&TrainState>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<TrainReport, String> {
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = Rng::seed(cfg.seed);

    let mut best_hr20 = f64::NEG_INFINITY;
    let mut best_snapshot = model.store().snapshot();
    let mut best_valid = ssdrec_metrics::MetricReport::default();
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut total_train_secs = 0.0f64;
    let mut final_loss = f32::NAN;
    let mut start_epoch = 0usize;

    let resuming = ckpt.is_some_and(|c| c.resume && c.path.exists());
    if let (Some(w), false) = (warm, resuming) {
        w.apply_to(model).map_err(|e| format!("warm start: {e}"))?;
        opt.set_steps(w.adam_steps);
        rng = Rng::from_state(w.rng_state);
        // The early-stopping baseline is the warm-started parameters, not
        // the random init captured above.
        best_snapshot = model.store().snapshot();
    }

    if let Some(c) = ckpt {
        if c.resume && c.path.exists() {
            let st = checkpoint::load_train_state(&c.path)
                .map_err(|e| format!("resume from {}: {e}", c.path.display()))?;
            st.apply_to(model)
                .map_err(|e| format!("resume from {}: {e}", c.path.display()))?;
            opt.set_steps(st.adam_steps);
            rng = Rng::from_state(st.rng_state);
            best_hr20 = st.best_hr20;
            best_valid = st.best_valid;
            best_snapshot = st.best_snapshot.clone();
            since_best = st.since_best as usize;
            total_train_secs = st.total_train_secs;
            final_loss = st.final_loss;
            start_epoch = st.next_epoch as usize;
            epochs_run = start_epoch;
            if cfg.verbose {
                eprintln!(
                    "[{}] resumed from {} at epoch {start_epoch}",
                    model.model_name(),
                    c.path.display()
                );
            }
        }
    }

    // One graph and one gradient workspace for the whole run: each step
    // resets the tape (recycling its buffers through the pool) instead of
    // allocating a new one, and backward writes into the same workspace.
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();
    let mut nonfinite_batches = 0usize;

    for epoch in start_epoch..cfg.epochs {
        epochs_run = epoch + 1;
        model.on_epoch_start(epoch, cfg.epochs);
        let t0 = Instant::now();
        let mut epoch_loss = 0.0f32;
        let mut nb = 0usize;
        split.train.for_each_batch(
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
            &mut |batch| {
                g.reset();
                let bind = model.store().bind_all(&mut g);
                let loss = model.loss(&mut g, &bind, batch, &mut rng);
                let lv = g.value(loss).item();
                if lv.is_finite() {
                    epoch_loss += lv;
                    nb += 1;
                    g.backward_into(loss, &mut ws);
                    opt.lr = cfg.lr * cfg.lr_schedule.factor(opt.steps() + 1);
                    opt.step(model.store_mut(), &bind, &mut ws);
                } else {
                    nonfinite_batches += 1;
                }
                model.after_step();
            },
        );
        total_train_secs += t0.elapsed().as_secs_f64();
        final_loss = if nb > 0 {
            epoch_loss / nb as f32
        } else {
            f32::NAN
        };

        let vacc = evaluate_source_with(model, split.valid, cfg.batch_size, &mut g);
        let hr20 = vacc.hr(20);
        if cfg.verbose {
            eprintln!(
                "[{}] epoch {epoch}: loss {final_loss:.4}, valid HR@20 {hr20:.4}",
                model.model_name()
            );
        }
        if hr20 > best_hr20 {
            best_hr20 = hr20;
            best_snapshot = model.store().snapshot();
            best_valid = vacc.report();
            since_best = 0;
        } else {
            since_best += 1;
        }
        let stopping = since_best > 0 && since_best >= cfg.patience;

        if let Some(c) = ckpt {
            let every = c.every.max(1);
            let done = epoch + 1;
            if done % every == 0 || stopping || done == cfg.epochs {
                let st = checkpoint::TrainState {
                    next_epoch: done as u32,
                    since_best: since_best as u32,
                    adam_steps: opt.steps(),
                    rng_state: rng.state(),
                    best_hr20,
                    total_train_secs,
                    final_loss,
                    best_valid: best_valid.clone(),
                    model_state: model.train_state(),
                    params: checkpoint::TrainState::capture_params(model),
                    best_snapshot: best_snapshot.clone(),
                };
                checkpoint::save_train_state(&st, &c.path)
                    .map_err(|e| format!("checkpoint to {}: {e}", c.path.display()))?;
                // Kill-simulation hook: arming `train.epoch:panic:N` aborts
                // the run right after the Nth save, exactly like a crash
                // between epochs; an `error` kind surfaces as Err instead.
                ssdrec_faults::point("train.epoch").map_err(|e| e.to_string())?;
            }
        }

        if stopping {
            break;
        }
    }

    model.store_mut().restore(&best_snapshot);

    let t0 = Instant::now();
    let tacc = evaluate_source_with(model, split.test, cfg.batch_size, &mut g);
    let infer_secs = t0.elapsed().as_secs_f64();

    Ok(TrainReport {
        epochs_run,
        valid: best_valid,
        test: tacc.report(),
        test_ranks: tacc.ranks().to_vec(),
        train_secs_per_epoch: if epochs_run > 0 {
            total_train_secs / epochs_run as f64
        } else {
            0.0
        },
        infer_secs,
        final_loss,
        nonfinite_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BackboneKind;
    use crate::model::SeqRec;
    use ssdrec_data::{prepare, SyntheticConfig};

    fn small_split() -> (usize, Split) {
        // Large enough that "beats random" has real margin: at tiny scales
        // random HR@20 approaches 1 and the assertion measures only noise.
        let ds = SyntheticConfig::beauty()
            .scaled(0.3)
            .with_seed(3)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        (filtered.num_items, split)
    }

    #[test]
    fn training_reduces_loss_and_beats_random() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, num_items, 16, 50, 0);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 32,
            patience: 10,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.final_loss.is_finite());
        // Random ranking would give HR@20 ≈ 20 / num_items.
        let random_hr = 20.0 / num_items as f64;
        assert!(
            report.test.hr20 > random_hr,
            "HR@20 {} not above random {}",
            report.test.hr20,
            random_hr
        );
    }

    #[test]
    fn early_stopping_restores_best() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Stamp, num_items, 8, 50, 1);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 32,
            patience: 1,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        // Restored model must reproduce the reported valid metrics.
        let vacc = evaluate(&model, &split.valid, 32);
        assert!((vacc.hr(20) - report.valid.hr20).abs() < 1e-9);
    }

    #[test]
    fn report_times_are_positive() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 50, 2);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.train_secs_per_epoch > 0.0);
        assert!(report.infer_secs > 0.0);
        assert_eq!(report.epochs_run, 1);
        assert_eq!(report.nonfinite_batches, 0);
    }

    /// A model whose loss is NaN on every third training batch.
    struct NanEveryThird {
        inner: SeqRec,
        calls: std::cell::Cell<usize>,
    }

    impl RecModel for NanEveryThird {
        fn store(&self) -> &ssdrec_tensor::ParamStore {
            self.inner.store()
        }
        fn store_mut(&mut self) -> &mut ssdrec_tensor::ParamStore {
            self.inner.store_mut()
        }
        fn loss(
            &self,
            g: &mut Graph,
            bind: &ssdrec_tensor::Binding,
            batch: &ssdrec_data::Batch,
            rng: &mut Rng,
        ) -> ssdrec_tensor::Var {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let loss = self.inner.loss(g, bind, batch, rng);
            if call % 3 == 1 {
                g.scale(loss, f32::NAN)
            } else {
                loss
            }
        }
        fn eval_scores(
            &self,
            g: &mut Graph,
            bind: &ssdrec_tensor::Binding,
            batch: &ssdrec_data::Batch,
        ) -> ssdrec_tensor::Var {
            self.inner.eval_scores(g, bind, batch)
        }
        fn model_name(&self) -> String {
            "NanEveryThird".into()
        }
    }

    #[test]
    fn nonfinite_batches_are_counted_exactly() {
        let (num_items, split) = small_split();
        let mut model = NanEveryThird {
            inner: SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 50, 2),
            calls: std::cell::Cell::new(0),
        };
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        // `loss` runs once per training batch: calls 1, 4, 7, … were NaN.
        let batches = model.calls.get();
        assert_eq!(
            batches,
            2 * ssdrec_data::make_batches(&split.train, 32, 0).len()
        );
        assert_eq!(report.nonfinite_batches, (batches + 1) / 3);
        assert!(report.final_loss.is_finite());
    }
}

#[cfg(test)]
mod objective_tests {
    use super::*;
    use crate::encoder::BackboneKind;
    use crate::model::{Objective, SeqRec};
    use ssdrec_data::{prepare, SyntheticConfig};

    #[test]
    fn all_positions_objective_trains_causal_backbones() {
        let ds = SyntheticConfig::beauty()
            .scaled(0.3)
            .with_seed(3)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        for kind in [BackboneKind::SasRec, BackboneKind::Gru4Rec] {
            let mut model = SeqRec::new(kind, filtered.num_items, 8, 50, 0);
            model.objective = Objective::AllPositions;
            let cfg = TrainConfig {
                epochs: 5,
                batch_size: 32,
                patience: 10,
                ..TrainConfig::default()
            };
            let report = train(&mut model, &split, &cfg);
            assert!(report.final_loss.is_finite(), "{kind:?} diverged");
            let random = 20.0 / filtered.num_items as f64;
            assert!(report.test.hr20 > random, "{kind:?} below random");
        }
    }

    #[test]
    fn all_positions_falls_back_for_non_causal() {
        // STAMP has no causal per-position states; the objective must fall
        // back to last-position rather than fail.
        let ds = SyntheticConfig::beauty()
            .scaled(0.12)
            .with_seed(4)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        let mut model = SeqRec::new(BackboneKind::Stamp, filtered.num_items, 8, 50, 1);
        model.objective = Objective::AllPositions;
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.final_loss.is_finite());
    }
}

#[cfg(test)]
mod bpr_tests {
    use super::*;
    use crate::encoder::BackboneKind;
    use crate::model::{Objective, SeqRec};
    use ssdrec_data::{prepare, SyntheticConfig};

    #[test]
    fn bpr_objective_learns_ranking() {
        let ds = SyntheticConfig::beauty()
            .scaled(0.3)
            .with_seed(5)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, filtered.num_items, 8, 50, 2);
        model.objective = Objective::Bpr { negatives: 4 };
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 32,
            patience: 10,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.final_loss.is_finite() && report.final_loss > 0.0);
        let random = 20.0 / filtered.num_items as f64;
        assert!(report.test.hr20 > random, "BPR below random");
    }

    #[test]
    #[should_panic]
    fn bpr_rejects_zero_negatives() {
        let ds = SyntheticConfig::beauty()
            .scaled(0.1)
            .with_seed(6)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, filtered.num_items, 8, 50, 3);
        model.objective = Objective::Bpr { negatives: 0 };
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        };
        train(&mut model, &split, &cfg);
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;

    #[test]
    fn warmup_factor_ramps_then_saturates() {
        let s = LrSchedule::WarmupLinear { warmup_steps: 10 };
        assert!((s.factor(1) - 0.1).abs() < 1e-6);
        assert!((s.factor(5) - 0.5).abs() < 1e-6);
        assert_eq!(s.factor(10), 1.0);
        assert_eq!(s.factor(1000), 1.0);
    }

    #[test]
    fn constant_and_zero_warmup_are_identity() {
        assert_eq!(LrSchedule::Constant.factor(1), 1.0);
        assert_eq!(LrSchedule::WarmupLinear { warmup_steps: 0 }.factor(1), 1.0);
    }

    #[test]
    fn warmup_training_runs() {
        use crate::encoder::BackboneKind;
        use crate::model::SeqRec;
        use ssdrec_data::{prepare, SyntheticConfig};
        let ds = SyntheticConfig::beauty()
            .scaled(0.1)
            .with_seed(9)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, filtered.num_items, 8, 50, 0);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            lr_schedule: LrSchedule::WarmupLinear { warmup_steps: 5 },
            ..TrainConfig::default()
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.final_loss.is_finite());
    }
}
