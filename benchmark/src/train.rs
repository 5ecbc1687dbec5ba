//! `train-short`: data → graph → model set-up, SSDRec
//! training epochs, full-catalogue evaluation, then publishing the trained
//! model to the HTTP server and serving its users.

use std::path::Path;
use std::time::Instant;

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{prepare, Dataset, Split, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::{train_from_source, BackboneKind, SourceSplit, TrainConfig, TrainReport};

use crate::common::Req;
use crate::common::{secs, Out, WorkDir};
use crate::serve::{drive, publish_and_start, ServePlan};
use crate::stats;
use crate::trace::Tracer;

/// History truncation of the trained models (`online-loop` has its own).
pub const MAX_LEN: usize = 50;
/// Embedding width.
pub const DIM: usize = 32;
/// Mini-batch size.
pub const BATCH: usize = 256;
/// Set-up repetitions of `train-short` (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// Share of `--seconds` spent on timed training runs and evaluation passes.
const TIMED_SHARE: f64 = 0.65;
/// Evaluation passes after each timed training run (a pass costs about a
/// third of an epoch).
const EVALS_PER_RUN: usize = 2;
/// Validation and test examples of the timed training runs.
const PROBE: usize = 16;
/// Timed training runs, at the least.
const MIN_TIMED: usize = 3;
/// `train-short` serves its test users at this rate (req/s) ...
const SERVE_RATE: f64 = 200.0;
/// ... for this many seconds.
const SERVE_SECS: f64 = 5.0;

/// Epochs per training run: augmentation is on from the first epoch, so
/// one epoch holds every kind of training work.
pub const EPOCHS: usize = 1;

/// The prepared inputs of a training run.
pub struct Prepared {
    /// Filtered, truncated dataset.
    pub dataset: Dataset,
    /// Leave-one-out split.
    pub split: Split,
    /// Multi-relation graph.
    pub graph: MultiRelationGraph,
    /// Model configuration.
    pub cfg: SsdRecConfig,
}

/// Model configuration for a workload. Augmentation is active from the
/// first epoch so every epoch does the same kind of work.
pub fn model_cfg() -> SsdRecConfig {
    SsdRecConfig {
        dim: DIM,
        max_len: MAX_LEN,
        backbone: BackboneKind::SasRec,
        aug_warmup_frac: 0.0,
        ..SsdRecConfig::default()
    }
}

/// Trainer configuration: no early stopping, so each run does the same
/// number of epochs.
pub fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        patience: EPOCHS + 1,
        ..TrainConfig::default()
    }
}

/// Data generation → `.ssdc` encode/decode → k-core/truncate/split → graph
/// build → model initialisation. The histories, the initialisation and the
/// trainer's draws use the configurations' own fixed seeds, so every run
/// trains the same model on the same data.
pub fn setup(
    profile: &SyntheticConfig,
    work: &WorkDir,
    tr: &mut Tracer,
    out: &mut Out,
) -> (Prepared, SsdRec) {
    let sp = tr.enter("setup");
    let s = tr.enter("data.generate");
    let raw = profile.generate();
    tr.exit(s);
    let s = tr.enter("data.encode");
    let t = Instant::now();
    let path = work.path("data.ssdc");
    ssdrec_data::encode_dataset(&raw, &path).expect("encode the generated dataset");
    let decoded = ssdrec_data::decode_dataset(&path).expect("decode the dataset just written");
    out.put("data.encode_s", secs(t), "s");
    tr.exit(s);
    let s = tr.enter("data.prepare");
    // One training prefix per user.
    let (dataset, split) = prepare(&decoded, MAX_LEN, 1);
    tr.exit(s);
    let s = tr.enter("graph.build");
    let t = Instant::now();
    let graph = build_graph(&dataset, &GraphConfig::default());
    out.put("graph.build_s", secs(t), "s");
    out.put("graph.edges", graph.total_edges() as f64, "count");
    tr.exit(s);
    let cfg = model_cfg();
    let s = tr.enter("core.init");
    let model = SsdRec::new(&graph, cfg.clone());
    tr.exit(s);
    tr.exit(sp);
    (
        Prepared {
            dataset,
            split,
            graph,
            cfg,
        },
        model,
    )
}

/// Repeat the set-up and return the median time with the last result.
fn repeated_setup(
    profile: &SyntheticConfig,
    reps: usize,
    work: &WorkDir,
    tr: &mut Tracer,
    out: &mut Out,
) -> (Prepared, SsdRec, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous result first so peak memory is one set-up's.
        drop(last.take());
        let t = Instant::now();
        let r = setup(profile, work, tr, out);
        times.push(secs(t));
        last = Some(r);
    }
    let (p, m) = last.expect("at least one set-up");
    (p, m, stats::median(&times))
}

/// Bits a training run is checked on: final loss, test HR@10, test NDCG@10.
pub fn result_bits(r: &TrainReport) -> (u32, u64, u64) {
    (
        r.final_loss.to_bits(),
        r.test.hr10.to_bits(),
        r.test.ndcg10.to_bits(),
    )
}

/// Medians of the timed training runs and evaluation passes.
pub struct Timed {
    /// Seconds per training epoch, one per timed run.
    pub epochs: Vec<f64>,
    /// Seconds per full-catalogue valid + test ranking pass, one per pass.
    pub evals: Vec<f64>,
    /// Median of `epochs`.
    pub epoch_s: f64,
    /// Median of `evals`.
    pub eval_s: f64,
}

impl Timed {
    /// Seconds `train_from_source` spends from data to a trained model:
    /// its epochs, a validation pass after each, and the test pass.
    pub fn trainer_s(&self, prep: &Prepared) -> f64 {
        let (va, te) = (prep.split.valid.len() as f64, prep.split.test.len() as f64);
        let per_example = self.eval_s / (va + te);
        EPOCHS as f64 * (self.epoch_s + va * per_example) + te * per_example
    }

    /// Record `train_examples_per_s` and `eval_examples_per_s`.
    pub fn report(&self, prep: &Prepared, out: &mut Out) {
        let n_train = prep.split.train.len() as f64;
        let n_eval = (prep.split.valid.len() + prep.split.test.len()) as f64;
        out.put("train_examples_per_s", n_train / self.epoch_s, "ex/s");
        out.put("eval_examples_per_s", n_eval / self.eval_s, "ex/s");
        out.note(format!(
            "timed: {} training runs, median {:.3} s per epoch ({:.1} ex/s); {} ranking passes, \
             median {:.3} s ({:.1} ex/s); epochs {:.3?} s, passes {:.3?} s",
            self.epochs.len(),
            self.epoch_s,
            n_train / self.epoch_s,
            self.evals.len(),
            self.eval_s,
            n_eval / self.eval_s,
            self.epochs,
            self.evals
        ));
    }
}

/// Alternate timed training runs with [`EVALS_PER_RUN`] full-catalogue
/// valid + test ranking passes of the trained `model` each until `budget`
/// seconds are spent, so both
/// samples span the whole window and meet the same changes in host speed.
///
/// Each training run starts from a fresh model and validates and tests on a
/// small probe of the held-out examples, so its time goes to the epochs.
/// Epochs do not depend on the held-out examples (no early stopping), so
/// every run must end at the full run's final loss bits, and every run must
/// reproduce the first timed run's test bits.
pub fn timed_runs(
    prep: &Prepared,
    model: &SsdRec,
    full: &TrainReport,
    tc: &TrainConfig,
    budget: f64,
    out: &mut Out,
) -> Timed {
    let (tr_, va, te) = (
        &prep.split.train[..],
        &prep.split.valid[..],
        &prep.split.test[..],
    );
    let (pva, pte) = (&va[..va.len().min(PROBE)], &te[..te.len().min(PROBE)]);
    let probe = SourceSplit {
        train: &tr_,
        valid: &pva,
        test: &pte,
    };
    let mut g = ssdrec_tensor::Graph::new();
    // One untimed pass warms the evaluation buffers.
    crate::common::eval_pass(model, va, te, BATCH, &mut g);
    let t0 = Instant::now();
    let mut epochs = Vec::new();
    let mut evals = Vec::new();
    let mut probe_bits = None;
    while epochs.len() < MIN_TIMED
        || (secs(t0) * (epochs.len() + 1) as f64 / epochs.len() as f64 <= budget
            && epochs.len() < 100)
    {
        let mut m = SsdRec::new(&prep.graph, prep.cfg.clone());
        let report = train_from_source(&mut m, &probe, tc, None, None)
            .expect("training without checkpoints cannot fail");
        epochs.push(report.train_secs_per_epoch);
        out.check(
            report.final_loss.to_bits() == full.final_loss.to_bits(),
            || {
                format!(
                    "a repeated training run ended at loss {} instead of {}",
                    report.final_loss, full.final_loss
                )
            },
        );
        let bits = result_bits(&report);
        out.check(*probe_bits.get_or_insert(bits) == bits, || {
            "a repeated training run produced different test bits".to_string()
        });
        for _ in 0..EVALS_PER_RUN {
            evals.push(crate::common::eval_pass(model, va, te, BATCH, &mut g));
        }
    }
    Timed {
        epoch_s: stats::median(&epochs),
        eval_s: stats::median(&evals),
        epochs,
        evals,
    }
}

/// Run a training workload.
/// `train-short`: beauty-like, short histories (avg ≈ 8) below
/// `aug_short_len`, and enough users and items for the dense relation
/// encoder to weigh.
pub fn run(seed: u64, seconds: f64, root: &Path, tr: &mut Tracer, out: &mut Out) {
    let work = WorkDir::new(root, "train");
    let (prep, first_model, setup_s) = repeated_setup(
        &SyntheticConfig::beauty().scaled(3.0),
        SETUP_REPS,
        &work,
        tr,
        out,
    );
    out.put("setup_s", setup_s, "s");
    let n_train = prep.split.train.len();
    out.note(format!(
        "data: {} users, {} items, avg len {:.1}; {} train / {} valid / {} test examples; {} graph \
         edges; set-up median {:.3} s",
        prep.dataset.num_users,
        prep.dataset.num_items,
        prep.dataset.avg_len(),
        n_train,
        prep.split.valid.len(),
        prep.split.test.len(),
        prep.graph.total_edges(),
        setup_s
    ));
    let (tr_, va, te) = (
        &prep.split.train[..],
        &prep.split.valid[..],
        &prep.split.test[..],
    );
    let src = SourceSplit {
        train: &tr_,
        valid: &va,
        test: &te,
    };
    let tc = train_cfg();

    // The first training run is the full one: its model is evaluated,
    // checked and served, and it warms the allocator and the thread pool.
    let sp = tr.enter("train.run");
    let t = Instant::now();
    let mut model = first_model;
    let first = train_from_source(&mut model, &src, &tc, None, None)
        .expect("training without checkpoints cannot fail");
    let first_wall = secs(t);
    tr.exit(sp);
    out.put("test_ndcg10", first.test.ndcg10, "ratio");
    out.note(format!(
        "training: full run {first_wall:.3} s; test HR@10 {:.4} NDCG@10 {:.4}, final loss {:.5}",
        first.test.hr10, first.test.ndcg10, first.final_loss
    ));
    // The traced run reports no end-to-end metric.
    let mut trainer_s = first_wall;
    if !tr.is_on() {
        let timed = timed_runs(&prep, &model, &first, &tc, TIMED_SHARE * seconds, out);
        trainer_s = timed.trainer_s(&prep);
        timed.report(&prep, out);
    }

    // Per-layer training metrics; in an untraced run the replica loop still
    // runs (untraced) as the output check.
    if tr.is_on() {
        let replica_wall = crate::layers::train_layers(
            &prep.graph,
            &prep.cfg,
            &src,
            &tc,
            result_bits(&first),
            tr,
            out,
        );
        out.put("trace.overhead_s", replica_wall - first_wall, "s");
        out.note(format!(
            "tracing overhead: traced replica {replica_wall:.3} s vs untraced run {first_wall:.3} s"
        ));
    } else {
        let mut m = SsdRec::new(&prep.graph, prep.cfg.clone());
        let rep = crate::layers::replica_train(&mut m, &src, &tc, tr);
        let got = (
            rep.final_loss.to_bits(),
            rep.test.hr10.to_bits(),
            rep.test.ndcg10.to_bits(),
        );
        let want = result_bits(&first);
        out.check(got == want, || {
            format!("replica loop bits {got:?} differ from train_from_source {want:?}")
        });
    }

    // Publish the trained model and serve its users.
    let histories: Vec<(usize, Vec<usize>)> = prep
        .split
        .test
        .iter()
        .map(|e| (e.user, e.seq.clone()))
        .collect();
    let plan = ServePlan {
        graph: &prep.graph,
        cfg: &prep.cfg,
        histories: &histories,
        repeat_share: 0.3,
        rates: vec![SERVE_RATE],
        reference_rate: SERVE_RATE,
        reference_secs: SERVE_SECS,
        rung_secs: SERVE_SECS,
        seed,
    };
    let e = &prep.split.test[0];
    let first = Req {
        user: e.user,
        seq: e.seq.clone(),
        k: 10,
    };
    let (server, fresh) = publish_and_start(&model, &prep.graph, &prep.cfg, &first, &work, tr, out);
    drive(&server, &model, &plan, tr, out);
    server.stop();
    if !tr.is_on() {
        out.put("freshness_s", trainer_s + fresh, "s");
    }
}
