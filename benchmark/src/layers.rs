//! Per-layer measurements for the traced run, made from the benchmark's own
//! code around calls into each layer's public functions:
//!
//! * a replica of the trainer's step loop (`RecModel::loss`,
//!   `Graph::backward_into`, `Adam::step`, `LrSchedule::factor`) with spans
//!   around forward, backward, optimizer and evaluation, whose final loss
//!   and test metrics must equal the untraced `train_from_source` bits;
//! * the three SSDRec stages and the backbone built standalone on the
//!   workload's graph and fed its batches;
//! * the gemm kernel at the workload's shapes, and the step time at one
//!   thread against the default thread count.

use std::time::Instant;

use ssdrec_core::{
    GlobalRelationEncoder, HierarchicalDenoiser, RelationAdjacency, SelfAugmenter, SsdRec,
    SsdRecConfig,
};
use ssdrec_data::{Batch, BatchSource};
use ssdrec_graph::MultiRelationGraph;
use ssdrec_metrics::{rank_rows, MetricReport, RankingAccumulator};
use ssdrec_models::{build_encoder, BackboneKind, RecModel, SourceSplit, TrainConfig};
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{Adam, Gradients, Graph, ParamStore, Rng, Tensor};

use crate::common::{secs, Out};
use crate::stats;
use crate::trace::Tracer;

/// What the replica loop produced.
pub struct Replica {
    /// Mean loss of the last epoch.
    pub final_loss: f32,
    /// Test metrics of the restored best snapshot.
    pub test: MetricReport,
    /// Batches whose loss was not finite (the trainer skips them).
    pub nonfinite: u64,
    /// Optimizer steps taken.
    pub steps: u64,
    /// Seconds inside `for_each_batch` but outside the step callback.
    pub batch_s: f64,
    /// Wall seconds of the training epochs (evaluation excluded).
    pub epochs_s: f64,
    /// Epochs run.
    pub epochs: usize,
}

fn ranked<M: RecModel>(
    model: &M,
    src: &dyn BatchSource,
    batch_size: usize,
    g: &mut Graph,
    tr: &mut Tracer,
) -> RankingAccumulator {
    let mut acc = RankingAccumulator::new();
    src.for_each_batch(batch_size, 0, &mut |batch| {
        let sp = tr.enter("eval.forward");
        g.reset();
        let bind = model.store().bind_all(g);
        let scores = model.eval_scores(g, &bind, batch);
        tr.exit(sp);
        let sp = tr.enter("metrics.rank");
        let sv = g.value(scores);
        let v = sv.shape()[1];
        for rank in rank_rows(sv.data(), v, &batch.targets) {
            acc.push_rank(rank);
        }
        tr.exit(sp);
    });
    acc
}

/// The trainer's loop, step for step, with spans around each part. Must
/// stay in lockstep with `ssdrec_models::train_from_source` (no warm start,
/// no checkpoints); the bit comparison in every run enforces that.
pub fn replica_train<M: RecModel>(
    model: &mut M,
    split: &SourceSplit<'_>,
    cfg: &TrainConfig,
    tr: &mut Tracer,
) -> Replica {
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = Rng::seed(cfg.seed);
    let mut best_hr20 = f64::NEG_INFINITY;
    let mut best_snapshot = model.store().snapshot();
    let mut since_best = 0usize;
    let mut final_loss = f32::NAN;
    let mut nonfinite = 0u64;
    let mut callback_s = 0.0f64;
    let mut epochs_s = 0.0f64;
    let mut epochs = 0usize;
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();

    let run = tr.enter("train");
    for epoch in 0..cfg.epochs {
        epochs = epoch + 1;
        model.on_epoch_start(epoch, cfg.epochs);
        let sp_epoch = tr.enter("train.epoch");
        let t_epoch = Instant::now();
        let mut epoch_loss = 0.0f32;
        let mut nb = 0usize;
        split.train.for_each_batch(
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
            &mut |batch| {
                let t_cb = Instant::now();
                let sp = tr.enter("train.forward");
                g.reset();
                let bind = model.store().bind_all(&mut g);
                let loss = model.loss(&mut g, &bind, batch, &mut rng);
                let lv = g.value(loss).item();
                tr.exit(sp);
                if lv.is_finite() {
                    epoch_loss += lv;
                    nb += 1;
                    let sp = tr.enter("train.backward");
                    g.backward_into(loss, &mut ws);
                    tr.exit(sp);
                    let sp = tr.enter("train.optimizer");
                    opt.lr = cfg.lr * cfg.lr_schedule.factor(opt.steps() + 1);
                    opt.step(model.store_mut(), &bind, &mut ws);
                    tr.exit(sp);
                } else {
                    nonfinite += 1;
                }
                model.after_step();
                callback_s += secs(t_cb);
            },
        );
        epochs_s += secs(t_epoch);
        tr.exit(sp_epoch);
        final_loss = if nb > 0 {
            epoch_loss / nb as f32
        } else {
            f32::NAN
        };

        let sp = tr.enter("eval.valid");
        let vacc = ranked(model, split.valid, cfg.batch_size, &mut g, tr);
        tr.exit(sp);
        let hr20 = vacc.hr(20);
        if hr20 > best_hr20 {
            best_hr20 = hr20;
            best_snapshot = model.store().snapshot();
            since_best = 0;
        } else {
            since_best += 1;
        }
        if since_best > 0 && since_best >= cfg.patience {
            break;
        }
    }
    model.store_mut().restore(&best_snapshot);
    let sp = tr.enter("eval.test");
    let tacc = ranked(model, split.test, cfg.batch_size, &mut g, tr);
    tr.exit(sp);
    tr.exit(run);
    Replica {
        final_loss,
        test: tacc.report(),
        nonfinite,
        steps: opt.steps(),
        batch_s: epochs_s - callback_s,
        epochs_s,
        epochs,
    }
}

/// Seconds per training epoch spent in each SSDRec stage, built standalone
/// on the workload's graph and fed one epoch of its batches.
pub struct StageTimes {
    /// `RelationAdjacency::from_graph`.
    pub densify_s: f64,
    /// Relation encoder forward, summed over the epoch's batches.
    pub relation_fwd_s: f64,
    /// Relation encoder backward.
    pub relation_bwd_s: f64,
    /// Stage-2 augmentation (forward + backward) on the batches it applies to.
    pub augment_s: f64,
    /// Stage-3 denoising (forward + backward).
    pub denoise_s: f64,
    /// The SASRec backbone (forward + backward).
    pub backbone_s: f64,
}

/// Time the stages standalone over one epoch of `train` batches.
pub fn stage_times(
    graph: &MultiRelationGraph,
    cfg: &SsdRecConfig,
    train: &dyn BatchSource,
    batch_size: usize,
    tr: &mut Tracer,
) -> StageTimes {
    let d = cfg.dim;
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(cfg.seed);
    let item = Embedding::new(&mut store, "item", graph.num_items + 1, d, &mut rng);
    let user = Embedding::new(&mut store, "user", graph.num_users.max(1), d, &mut rng);
    let sp = tr.enter("core.densify");
    let t = Instant::now();
    let adj = RelationAdjacency::from_graph(graph);
    let densify_s = secs(t);
    tr.exit(sp);
    let enc = GlobalRelationEncoder::with_attention(&mut store, d, adj, true, &mut rng);
    let aug = SelfAugmenter::new(&mut store, "aug", d, &mut rng);
    let den = HierarchicalDenoiser::new(&mut store, "den", d, &mut rng);
    let bb = build_encoder(
        BackboneKind::SasRec,
        &mut store,
        d,
        cfg.max_len + 2,
        &mut rng,
    );

    let mut out = StageTimes {
        densify_s,
        relation_fwd_s: 0.0,
        relation_bwd_s: 0.0,
        augment_s: 0.0,
        denoise_s: 0.0,
        backbone_s: 0.0,
    };
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();
    let stage = tr.enter("core.stages");
    train.for_each_batch(batch_size, cfg.seed, &mut |batch: &Batch| {
        let (b, t_len) = (batch.len(), batch.seq_len);

        g.reset();
        let bind = store.bind_all(&mut g);
        let sp = tr.enter("core.relation_encoder.fwd");
        let t = Instant::now();
        let it = item.table(&bind);
        let ut = user.table(&bind);
        let o = enc.forward(&mut g, &bind, it, ut);
        out.relation_fwd_s += secs(t);
        tr.exit(sp);
        let sp = tr.enter("core.relation_encoder.bwd");
        let t = Instant::now();
        let si = g.sum_all(o.items);
        let su = g.sum_all(o.users);
        let l = g.add(si, su);
        g.backward_into(l, &mut ws);
        out.relation_bwd_s += secs(t);
        tr.exit(sp);

        // The remaining stages read raw embeddings so their cost excludes
        // the relation encoder.
        let mut run = |name: &'static str,
                       acc: &mut f64,
                       f: &mut dyn FnMut(
            &mut Graph,
            &ssdrec_tensor::Binding,
            ssdrec_tensor::Var,
            ssdrec_tensor::Var,
            ssdrec_tensor::Var,
        ) -> ssdrec_tensor::Var| {
            g.reset();
            let bind = store.bind_all(&mut g);
            let it = item.table(&bind);
            let hv = g.embedding(it, &batch.items);
            let h_seq = g.reshape(hv, &[b, t_len, d]);
            let ut = user.table(&bind);
            let hu = g.embedding(ut, &batch.users);
            let sp = tr.enter(name);
            let t = Instant::now();
            let y = f(&mut g, &bind, h_seq, hu, it);
            let l = g.sum_all(y);
            g.backward_into(l, &mut ws);
            *acc += secs(t);
            tr.exit(sp);
        };
        if (2..cfg.aug_short_len).contains(&t_len) {
            run(
                "core.augment",
                &mut out.augment_s,
                &mut |g, bind, h_seq, _hu, it| {
                    aug.augment(g, bind, &mut rng, h_seq, it, cfg.tau).h_aug
                },
            );
        }
        run(
            "core.denoise",
            &mut out.denoise_s,
            &mut |g, bind, h_seq, hu, _it| {
                let (den_seq, probs) =
                    den.denoise_train(g, bind, &mut rng, h_seq, h_seq, None, hu, cfg.tau, None);
                let s = g.sum_all(probs);
                let ds = g.sum_all(den_seq);
                g.add(ds, s)
            },
        );
        run(
            "models.backbone",
            &mut out.backbone_s,
            &mut |g, bind, h_seq, _hu, _it| bb.encode(g, bind, h_seq),
        );
    });
    tr.exit(stage);
    out
}

/// GFLOP/s of the blocked gemm at `m×k · k×n`, median over repeats.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let mut rng = Rng::seed(7);
    let a = Tensor::new(
        (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        &[m, k],
    );
    let b = Tensor::new(
        (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        &[k, n],
    );
    let flops = 2.0 * (m * k * n) as f64;
    let t0 = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 5 || (secs(t0) < 0.3 && rates.len() < 1000) {
        let t = Instant::now();
        let c = ssdrec_tensor::kernels::matmul(&a, &b);
        std::hint::black_box(c.data());
        rates.push(flops / secs(t) / 1e9);
    }
    stats::median(&rates)
}

/// Seconds for the first `steps` training steps of a fresh model.
fn step_time(graph: &MultiRelationGraph, cfg: &SsdRecConfig, batches: &[Batch], lr: f32) -> f64 {
    let mut model = SsdRec::new(graph, cfg.clone());
    model.on_epoch_start(1, 1);
    let mut opt = Adam::new(lr);
    let mut rng = Rng::seed(cfg.seed);
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();
    let t = Instant::now();
    for batch in batches {
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let loss = model.loss(&mut g, &bind, batch, &mut rng);
        g.backward_into(loss, &mut ws);
        opt.step(model.store_mut(), &bind, &mut ws);
        model.after_step();
    }
    secs(t)
}

/// 1-thread step time ÷ default-thread step time over the first batches.
pub fn step_speedup(
    graph: &MultiRelationGraph,
    cfg: &SsdRecConfig,
    train: &dyn BatchSource,
    batch_size: usize,
    lr: f32,
) -> f64 {
    let mut batches = Vec::new();
    train.for_each_batch(batch_size, cfg.seed, &mut |b| {
        if batches.len() < 6 {
            batches.push(b.clone());
        }
    });
    let default = ssdrec_runtime::threads();
    ssdrec_runtime::set_threads(1);
    let one = step_time(graph, cfg, &batches, lr);
    ssdrec_runtime::set_threads(default);
    let many = step_time(graph, cfg, &batches, lr);
    one / many
}

/// The per-layer training metrics shared by every workload that trains:
/// the replica loop (checked against `expected`), the standalone stages,
/// gemm at the workload's shapes, pool reuse and the thread speed-up.
#[allow(clippy::too_many_arguments)]
pub fn train_layers(
    graph: &MultiRelationGraph,
    cfg: &SsdRecConfig,
    split: &SourceSplit<'_>,
    tc: &TrainConfig,
    expected: (u32, u64, u64),
    tr: &mut Tracer,
    out: &mut Out,
) -> f64 {
    let mut model = SsdRec::new(graph, cfg.clone());
    let pool0 = ssdrec_tensor::pool::global_stats();
    let t = Instant::now();
    let rep = replica_train(&mut model, split, tc, tr);
    let replica_wall = secs(t);
    let pool = ssdrec_tensor::pool::global_stats().since(&pool0);
    let got = (
        rep.final_loss.to_bits(),
        rep.test.hr10.to_bits(),
        rep.test.ndcg10.to_bits(),
    );
    out.check(got == expected, || {
        format!("replica loop bits {got:?} differ from train_from_source {expected:?}")
    });

    let spans = crate::trace::by_name(tr.spans());
    let total = |n: &str| spans.get(n).map_or(0.0, |e| e.1);
    let self_of = |n: &str| spans.get(n).map_or(0.0, |e| e.2);
    out.put("data.batch_s", rep.batch_s, "s");
    out.put("train.forward_s", total("train.forward"), "s");
    out.put("train.backward_s", total("train.backward"), "s");
    out.put("train.optimizer_s", total("train.optimizer"), "s");
    out.put("train.self_s", self_of("train.epoch"), "s");
    out.put("train.nonfinite_batches", rep.nonfinite as f64, "count");
    out.put("train.steps", rep.steps as f64, "count");
    out.put("metrics.rank_s", total("metrics.rank"), "s");
    out.put("tensor.pool_hit_rate", pool.hit_rate(), "ratio");

    let st = stage_times(graph, cfg, split.train, tc.batch_size, tr);
    let epoch_s = rep.epochs_s / rep.epochs.max(1) as f64;
    out.put("core.densify_s", st.densify_s, "s");
    out.put("core.relation_encoder.fwd_s", st.relation_fwd_s, "s");
    out.put("core.relation_encoder.bwd_s", st.relation_bwd_s, "s");
    out.put(
        "core.relation_encoder.share",
        (st.relation_fwd_s + st.relation_bwd_s) / epoch_s,
        "ratio",
    );
    out.put("core.augment_s", st.augment_s, "s");
    out.put("core.denoise_s", st.denoise_s, "s");
    out.put("models.backbone_s", st.backbone_s, "s");
    out.note(format!(
        "replica: {} epochs, {} steps, {:.3} s/epoch; standalone stages per epoch: relation fwd \
         {:.3} s bwd {:.3} s, augment {:.3} s, denoise {:.3} s, backbone {:.3} s",
        rep.epochs,
        rep.steps,
        epoch_s,
        st.relation_fwd_s,
        st.relation_bwd_s,
        st.augment_s,
        st.denoise_s,
        st.backbone_s
    ));

    let side = graph.num_users.max(graph.num_items + 1);
    let rows = tc.batch_size * cfg.max_len;
    let g_rel = gemm_gflops(side, side, cfg.dim);
    let g_bb = gemm_gflops(rows, cfg.dim, cfg.dim);
    out.put("tensor.gemm_gflops.relation", g_rel, "GFLOP/s");
    out.put("tensor.gemm_gflops.backbone", g_bb, "GFLOP/s");
    out.note(format!(
        "gemm: relation {side}x{side}x{} = {:.1} MFLOP, {:.2} MB -> {g_rel:.2} GFLOP/s; backbone \
         {rows}x{}x{} -> {g_bb:.2} GFLOP/s",
        cfg.dim,
        2.0 * (side * side * cfg.dim) as f64 / 1e6,
        4.0 * (side * side + 2 * side * cfg.dim) as f64 / 1e6,
        cfg.dim,
        cfg.dim
    ));
    let sp = tr.enter("runtime.step_speedup");
    let speedup = step_speedup(graph, cfg, split.train, tc.batch_size, tc.lr);
    tr.exit(sp);
    out.put("runtime.step_speedup", speedup, "ratio");
    replica_wall
}
