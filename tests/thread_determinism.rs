//! The determinism suite: every parallelized hot path must be
//! **bit-identical** at 1, 2 and 7 threads (7 is deliberately odd and
//! co-prime with every chunk count, so uneven chunk-to-thread assignments
//! are exercised). This is the enforcement arm of the determinism contract
//! in `ssdrec_runtime` — parallelism may only trade wall-clock time, never
//! a single bit of output.
//!
//! Each test reconfigures the shared global pool, so the suite serialises
//! itself behind one mutex and restores a 1-thread pool on the way out.

use std::sync::Mutex;

use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{prepare, SyntheticConfig};
use ssdrec::denoise::Mgsd;
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::metrics::{full_rank, par_top_k, rank_rows, top_k};
use ssdrec::models::{
    evaluate, train, BackboneKind, ContrastiveSeqRec, RecModel, SeqRec, TrainConfig,
};
use ssdrec::serve::{Engine, EngineConfig, ServerStats};
use ssdrec::tensor::kernels::{matmul, matmul_backward, scatter_rows};
use ssdrec::tensor::{pool, save_params, Tensor};

/// Serialises pool reconfiguration across `#[test]` threads.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Run `f` once per thread count; the outputs must be bit-identical.
fn assert_bits_stable<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut reference: Option<T> = None;
    for &t in &THREAD_COUNTS {
        ssdrec::runtime::set_threads(t);
        let got = f();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "output diverged at {t} threads"),
        }
    }
    ssdrec::runtime::set_threads(1);
}

/// A deterministic dense fill that produces "awkward" floats (varied signs
/// and magnitudes, some exact zeros to exercise the gemm skip path).
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 17 == 0 {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
            }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    // Big enough to clear the parallel threshold in every case below.
    let (m, k, n) = (96, 48, 80);
    let a = Tensor::new(fill(m * k, 1), &[m, k]);
    let b = Tensor::new(fill(k * n, 2), &[k, n]);
    let gout = Tensor::new(fill(m * n, 3), &[m, n]);
    assert_bits_stable(|| {
        // Forward covers the (false, false) variant; the backward pair
        // covers (false, true) and (true, false) over the same shapes.
        let out = matmul(&a, &b);
        let (ga, gb) = matmul_backward(&a, &b, &gout);
        (bits(&out), bits(&ga), bits(&gb))
    });
}

#[test]
fn batched_matmul_is_bit_identical_across_thread_counts() {
    let (bs, m, k, n) = (24, 12, 16, 20);
    let a3 = Tensor::new(fill(bs * m * k, 4), &[bs, m, k]);
    let b3 = Tensor::new(fill(bs * k * n, 5), &[bs, k, n]);
    let b2 = Tensor::new(fill(k * n, 6), &[k, n]);
    let gout = Tensor::new(fill(bs * m * n, 7), &[bs, m, n]);
    assert_bits_stable(|| {
        let out33 = matmul(&a3, &b3);
        let out32 = matmul(&a3, &b2);
        let (ga33, gb33) = matmul_backward(&a3, &b3, &gout);
        // ThreeTwo backward: gb accumulates across batches — the
        // order-sensitive case the sequential batch loop protects.
        let (ga32, gb32) = matmul_backward(&a3, &b2, &gout);
        (
            bits(&out33),
            bits(&out32),
            bits(&ga33),
            bits(&gb33),
            bits(&ga32),
            bits(&gb32),
        )
    });
}

#[test]
fn embedding_backward_is_bit_identical_across_thread_counts() {
    // Repeating indices make the scatter-add order observable: f32 addition
    // is non-associative, so any reordering would flip low bits.
    let (v, d, n) = (160, 32, 900);
    let indices: Vec<usize> = (0..n).map(|i| (i * 37 + i * i * 11) % v).collect();
    let gout = Tensor::new(fill(n * d, 8), &[n, d]);
    assert_bits_stable(|| bits(&scatter_rows(&[v, d], &indices, &gout)));
}

#[test]
fn full_rank_eval_is_bit_identical_across_thread_counts() {
    // Synthetic wide score matrix straight through the metrics helpers…
    let (rows, width) = (70, 512);
    let flat = fill(rows * width, 9);
    let targets: Vec<usize> = (0..rows).map(|r| 1 + (r * 13) % (width - 1)).collect();
    let seq: Vec<usize> = targets
        .iter()
        .enumerate()
        .map(|(r, &t)| full_rank(&flat[r * width..(r + 1) * width], t))
        .collect();
    assert_bits_stable(|| {
        let ranks = rank_rows(&flat, width, &targets);
        assert_eq!(ranks, seq, "parallel ranks must equal the sequential map");
        ranks
    });

    // …and through a real model evaluation end to end.
    let model = SeqRec::new(BackboneKind::SasRec, 40, 8, 12, 11);
    let examples: Vec<ssdrec::data::Example> = (0..12)
        .map(|u| ssdrec::data::Example {
            user: u,
            seq: (1..=8).map(|i| 1 + (u * 7 + i * 3) % 40).collect(),
            target: 1 + (u * 5) % 40,
            noise: None,
        })
        .collect();
    assert_bits_stable(|| {
        let acc = evaluate(&model, &examples, 4);
        let report = acc.report();
        (
            acc.ranks().to_vec(),
            report.hr10.to_bits(),
            report.ndcg10.to_bits(),
        )
    });
}

#[test]
fn top_k_selection_is_exact_at_any_thread_count() {
    // A catalogue above the par_top_k threshold with heavy score ties.
    let scores: Vec<f32> = fill(10_000, 10)
        .into_iter()
        .map(|x| (x * 8.0).round() / 8.0)
        .collect();
    let want = top_k(&scores, 25);
    assert_bits_stable(|| {
        let got = par_top_k(&scores, 25);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
        got.iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect::<Vec<_>>()
    });
}

/// Train a tiny SSDRec end to end and fingerprint everything observable:
/// the final training-loss bits, HR@10/NDCG@10 bits, and the exact
/// checkpoint bytes written by `save_params`. Two epochs cross the
/// augmentation warm-up, so the full three-stage loss path is in the
/// fingerprint.
fn train_fingerprint(tag: &str) -> (Vec<u32>, u64, u64, Vec<u8>) {
    let raw = SyntheticConfig::sports()
        .scaled(0.03)
        .with_seed(7)
        .generate();
    let (dataset, split) = prepare(&raw, 50, 2);
    let graph = build_graph(&dataset, &GraphConfig::default());
    let cfg = SsdRecConfig {
        dim: 8,
        max_len: 50,
        seed: 7,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&graph, cfg);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &split, &tc);
    let loss_bits = vec![report.final_loss.to_bits()];

    let dir = std::path::Path::new("target").join("ssdrec-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join(format!("pool_identity_{tag}.ssdt"));
    save_params(model.store(), &path).expect("save checkpoint");
    let ckpt = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);

    (
        loss_bits,
        report.test.hr10.to_bits(),
        report.test.ndcg10.to_bits(),
        ckpt,
    )
}

/// The tentpole contract of the step-scoped arena: pooled buffers carry
/// stale contents, so a pooled training run must still produce the exact
/// bits — losses, metrics and checkpoint bytes — of a fresh-allocation
/// run, at 1 thread and at 4. The checkpoint bytes are additionally pinned
/// across the two thread counts.
#[test]
fn pooled_and_fresh_training_are_bit_identical() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let was = pool::is_enabled();
    let mut cross: Option<(Vec<u32>, u64, u64, Vec<u8>)> = None;
    for &t in &[1usize, 4] {
        ssdrec::runtime::set_threads(t);
        pool::set_enabled(true);
        let pooled = train_fingerprint(&format!("pooled_t{t}"));
        pool::set_enabled(false);
        let fresh = train_fingerprint(&format!("fresh_t{t}"));
        assert_eq!(
            pooled.0, fresh.0,
            "epoch loss bits diverged between pooled and fresh at {t} threads"
        );
        assert_eq!(
            (pooled.1, pooled.2),
            (fresh.1, fresh.2),
            "HR@10/NDCG@10 bits diverged between pooled and fresh at {t} threads"
        );
        assert_eq!(
            pooled.3, fresh.3,
            "checkpoint bytes diverged between pooled and fresh at {t} threads"
        );
        match &cross {
            None => cross = Some(pooled),
            Some(want) => assert_eq!(&pooled, want, "output diverged at {t} threads"),
        }
    }
    pool::set_enabled(was);
    ssdrec::runtime::set_threads(1);
}

/// Train `model` on the tiny sports world and fingerprint everything
/// observable — final-loss bits, HR@10/NDCG@10 bits, checkpoint bytes.
fn model_fingerprint<M: RecModel>(mut model: M, tag: &str) -> (u32, u64, u64, Vec<u8>) {
    let raw = SyntheticConfig::sports()
        .scaled(0.03)
        .with_seed(7)
        .generate();
    let (_dataset, split) = prepare(&raw, 50, 2);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &split, &tc);

    let dir = std::path::Path::new("target").join("ssdrec-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join(format!("loss_path_identity_{tag}.ssdt"));
    save_params(model.store(), &path).expect("save checkpoint");
    let ckpt = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);

    (
        report.final_loss.to_bits(),
        report.test.hr10.to_bits(),
        report.test.ndcg10.to_bits(),
        ckpt,
    )
}

/// The two newest loss paths — the contrastive joint CE + InfoNCE loss
/// (whose per-example view RNG must be immune to batch sharding) and the
/// multi-granularity weakly supervised loss — run through the full matrix:
/// {1, 2, 7} threads × pooled-vs-fresh allocation, checkpoint bytes
/// included.
#[test]
fn new_loss_paths_are_bit_identical_across_matrix() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let was = pool::is_enabled();
    let dims = || {
        let raw = SyntheticConfig::sports()
            .scaled(0.03)
            .with_seed(7)
            .generate();
        let (dataset, _) = prepare(&raw, 50, 2);
        (dataset.num_users, dataset.num_items)
    };
    let (num_users, num_items) = dims();

    for scenario in ["cl", "mgsd"] {
        let run = |tag: &str| -> (u32, u64, u64, Vec<u8>) {
            if scenario == "cl" {
                model_fingerprint(
                    ContrastiveSeqRec::new(BackboneKind::SasRec, num_items, 8, 50, 7),
                    tag,
                )
            } else {
                model_fingerprint(Mgsd::new(num_users, num_items, 8, 50, 7), tag)
            }
        };
        let mut reference: Option<(u32, u64, u64, Vec<u8>)> = None;
        for &t in &THREAD_COUNTS {
            ssdrec::runtime::set_threads(t);
            pool::set_enabled(true);
            let pooled = run(&format!("{scenario}_pooled_t{t}"));
            pool::set_enabled(false);
            let fresh = run(&format!("{scenario}_fresh_t{t}"));
            assert_eq!(
                pooled, fresh,
                "{scenario}: pooled and fresh runs diverged at {t} threads"
            );
            match &reference {
                None => reference = Some(pooled),
                Some(want) => {
                    assert_eq!(&pooled, want, "{scenario}: output diverged at {t} threads")
                }
            }
        }
    }
    pool::set_enabled(was);
    ssdrec::runtime::set_threads(1);
}

/// Resume-equivalence at multiple thread counts: training 4 epochs straight
/// must be bit-identical — loss, metrics and checkpoint bytes — to a
/// 4-epoch run killed after epoch 2 and `--resume`d in a fresh model.
/// `tests/chaos.rs` pins the fault-injection side of this contract; this
/// test pins the *thread* dimension.
#[test]
fn resumed_training_is_bit_identical_across_thread_counts() {
    use ssdrec::models::{train_with_checkpoints, CheckpointConfig};

    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let world = || {
        let raw = SyntheticConfig::sports()
            .scaled(0.03)
            .with_seed(7)
            .generate();
        let (dataset, split) = prepare(&raw, 50, 2);
        let graph = build_graph(&dataset, &GraphConfig::default());
        let cfg = SsdRecConfig {
            dim: 8,
            max_len: 50,
            seed: 7,
            ..SsdRecConfig::default()
        };
        let model = SsdRec::new(&graph, cfg);
        (split, model)
    };
    let tc = |epochs: usize| TrainConfig {
        epochs,
        batch_size: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    let fingerprint = |report: &ssdrec::models::TrainReport, model: &SsdRec, tag: &str| {
        let dir = std::path::Path::new("target").join("ssdrec-test");
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join(format!("resume_eq_{tag}.ssdt"));
        save_params(model.store(), &path).expect("save checkpoint");
        let bytes = std::fs::read(&path).expect("read checkpoint");
        let _ = std::fs::remove_file(&path);
        (
            report.final_loss.to_bits(),
            report.test.hr10.to_bits(),
            report.test.ndcg10.to_bits(),
            bytes,
        )
    };

    for &t in &[1usize, 4] {
        ssdrec::runtime::set_threads(t);

        let state = std::path::Path::new("target")
            .join("ssdrec-test")
            .join(format!("resume_eq_t{t}.sstc"));
        std::fs::create_dir_all(state.parent().unwrap()).expect("test dir");
        let _ = std::fs::remove_file(&state);

        // 4 epochs straight through, checkpointing all the way.
        let (split, mut straight) = world();
        let straight_report = train_with_checkpoints(
            &mut straight,
            &split,
            &tc(4),
            Some(&CheckpointConfig::new(&state)),
        )
        .expect("uninterrupted run");
        let want = fingerprint(&straight_report, &straight, &format!("straight_t{t}"));
        let _ = std::fs::remove_file(&state);

        // 2 epochs, kill; then resume the final 2 in a fresh model. The
        // kill must happen inside a 4-epoch run (not a 2-epoch one): the
        // augmentation schedule depends on the configured total, so only
        // an interrupted 4-epoch run shares the uninterrupted prefix.
        let (split, mut first_half) = world();
        {
            let _armed = ssdrec_testkit::fault::FaultPlan::new()
                .panic("train.epoch", 2)
                .arm();
            let ckpt = CheckpointConfig::new(&state);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                train_with_checkpoints(&mut first_half, &split, &tc(4), Some(&ckpt))
            }));
            assert!(died.is_err(), "the injected kill must abort the run");
        }
        let (split, mut resumed) = world();
        let resumed_report = train_with_checkpoints(
            &mut resumed,
            &split,
            &tc(4),
            Some(&CheckpointConfig {
                path: state.clone(),
                every: 1,
                resume: true,
            }),
        )
        .expect("resumed half");
        let got = fingerprint(&resumed_report, &resumed, &format!("resumed_t{t}"));

        assert_eq!(
            got.0, want.0,
            "loss bits diverged after resume at {t} threads"
        );
        assert_eq!(
            (got.1, got.2),
            (want.1, want.2),
            "HR@10/NDCG@10 bits diverged after resume at {t} threads"
        );
        assert_eq!(
            got.3, want.3,
            "checkpoint bytes diverged after resume at {t} threads"
        );
        let _ = std::fs::remove_file(&state);
    }
    ssdrec::runtime::set_threads(1);
}

#[test]
fn served_request_is_bit_identical_across_thread_counts() {
    assert_bits_stable(|| {
        let model = SeqRec::new(BackboneKind::SasRec, 30, 8, 10, 42);
        let reference = SeqRec::new(BackboneKind::SasRec, 30, 8, 10, 42);
        let engine = Engine::new(
            model.into(),
            EngineConfig {
                max_len: 10,
                ..EngineConfig::default()
            },
            std::sync::Arc::new(ServerStats::new()),
        );
        let seq = vec![3, 9, 4, 1];
        let served = engine.recommend(0, &seq, 8).expect("serve");
        let offline = reference.recommend(0, &seq, 8);
        assert_eq!(served.items.len(), offline.len());
        for (s, o) in served.items.iter().zip(&offline) {
            assert_eq!(s.0, o.0, "served item diverged from offline");
            assert_eq!(s.1.to_bits(), o.1.to_bits(), "served score bits");
        }
        engine.shutdown();
        served
            .items
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect::<Vec<_>>()
    });
}

#[test]
fn ann_retrieval_is_bit_identical_across_thread_counts() {
    use ssdrec::ann::{AnnParams, HnswIndex};
    use ssdrec::serve::{RetrievalConfig, RetrievalMode};

    assert_bits_stable(|| {
        let model = SeqRec::new(BackboneKind::SasRec, 60, 8, 10, 42);

        // Index bytes: the batched HNSW build parallelises candidate
        // search across the pool, so the serialized graph itself is part
        // of the determinism contract.
        let mut g = ssdrec::tensor::Graph::inference_with_capacity(4096);
        let bind = model.store.bind_all(&mut g);
        let frozen = model.precompute_frozen(&mut g, &bind);
        let index = HnswIndex::build(
            g.value(frozen.table).data(),
            8,
            model.num_items(),
            AnnParams::default(),
        )
        .expect("index build");
        let index_bytes = index.to_bytes();

        // Served top-K through the two-stage ann path, with a beam narrow
        // enough (ef ≪ catalogue) that the approximate search is real.
        let engine = Engine::try_new(
            model.into(),
            EngineConfig {
                max_len: 10,
                retrieval: RetrievalConfig {
                    mode: RetrievalMode::Ann,
                    ann_m: 8,
                    ef_search: 12,
                },
                ..EngineConfig::default()
            },
            std::sync::Arc::new(ServerStats::new()),
        )
        .expect("engine");
        let served = engine.recommend(0, &[3, 9, 4, 1], 8).expect("serve");
        engine.shutdown();

        let bits: Vec<(usize, u32)> = served
            .items
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        (index_bytes, bits)
    });
}
