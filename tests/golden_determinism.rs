//! Golden determinism: a fixed seed, a tiny synthetic dataset and two
//! training epochs must reproduce *exactly* the HR@10 / NDCG@10 recorded
//! here. This pins the full pipeline — testkit RNG stream, data generation,
//! graph construction, training order, evaluation — across refactors; see
//! the stream-stability contract in `ssdrec_testkit::rng`.
//!
//! If this test fails after an intentional RNG or pipeline change, rerun
//! with `--nocapture`, verify the change is deliberate, and update the
//! golden values together with a CHANGES.md note.

use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{
    encode_dataset, plan_leave_one_out, prepare, ColumnarReader, StoreExamples, SyntheticConfig,
};
use ssdrec::denoise::Mgsd;
use ssdrec::graph::{build_graph, build_graph_from_store, GraphConfig};
use ssdrec::models::{
    train, train_from_source, BackboneKind, ContrastiveSeqRec, RecModel, SourceSplit, TrainConfig,
};
use ssdrec::tensor::save_params;

const GOLDEN_HR10: f64 = 0.6071428571428571;
const GOLDEN_NDCG10: f64 = 0.3714333486875927;

// The contrastive (CL4SRec) training scenario on the same world.
const GOLDEN_CL_HR10: f64 = 0.5714285714285714;
const GOLDEN_CL_NDCG10: f64 = 0.2423614063351918;

// The multi-granularity (MGSD-WSS) scenario — weak supervision active,
// since the sports profile carries ground-truth noise labels.
const GOLDEN_MGSD_HR10: f64 = 0.6428571428571429;
const GOLDEN_MGSD_NDCG10: f64 = 0.3390576517898549;

#[test]
fn fixed_seed_two_epochs_reproduces_golden_metrics() {
    let raw = SyntheticConfig::sports()
        .scaled(0.08)
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
    assert_eq!(
        report.nonfinite_batches, 0,
        "a golden batch had a non-finite loss"
    );

    println!("hr10 = {:?}", report.test.hr10);
    println!("ndcg10 = {:?}", report.test.ndcg10);
    assert_eq!(
        report.test.hr10, GOLDEN_HR10,
        "HR@10 drifted from the golden value — the RNG stream or pipeline changed"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_NDCG10,
        "NDCG@10 drifted from the golden value — the RNG stream or pipeline changed"
    );
}

/// Fingerprint one training run of `model`: the exact test HR@10/NDCG@10
/// and the exact checkpoint bytes `save_params` writes.
fn run_pinned<M: RecModel>(mut model: M, tag: &str) -> (f64, f64, Vec<u8>) {
    let raw = SyntheticConfig::sports()
        .scaled(0.08)
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
    assert_eq!(
        report.nonfinite_batches, 0,
        "{tag}: a batch had a non-finite loss"
    );
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("golden_{tag}.ssdt"));
    save_params(model.store(), &path).expect("save checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    (report.test.hr10, report.test.ndcg10, bytes)
}

fn sports_dims() -> (usize, usize) {
    let raw = SyntheticConfig::sports()
        .scaled(0.08)
        .with_seed(7)
        .generate();
    let (dataset, _) = prepare(&raw, 50, 2);
    (dataset.num_users, dataset.num_items)
}

/// The contrastive scenario pinned end to end: exact HR@10/NDCG@10, and the
/// checkpoint bytes of two independent runs must be identical (the view
/// salt is part of the trainer's RNG stream, so any batch-composition or
/// ordering leak into view generation would flip these bits).
#[test]
fn contrastive_run_reproduces_golden_metrics() {
    let (_, num_items) = sports_dims();
    let mk = || ContrastiveSeqRec::new(BackboneKind::SasRec, num_items, 8, 50, 7);
    let (hr10, ndcg10, bytes) = run_pinned(mk(), "cl_a");
    println!("cl hr10 = {hr10:?}");
    println!("cl ndcg10 = {ndcg10:?}");
    assert_eq!(
        hr10, GOLDEN_CL_HR10,
        "contrastive HR@10 drifted from the golden value"
    );
    assert_eq!(
        ndcg10, GOLDEN_CL_NDCG10,
        "contrastive NDCG@10 drifted from the golden value"
    );
    let (_, _, bytes2) = run_pinned(mk(), "cl_b");
    assert_eq!(
        bytes, bytes2,
        "contrastive checkpoint bytes not reproducible"
    );
}

/// The multi-granularity scenario pinned end to end, weak supervision
/// included (the sports profile carries ground-truth noise labels, so the
/// gate trains on them rather than on correlation targets).
#[test]
fn mgsd_run_reproduces_golden_metrics() {
    let (num_users, num_items) = sports_dims();
    let mk = || Mgsd::new(num_users, num_items, 8, 50, 7);
    let (hr10, ndcg10, bytes) = run_pinned(mk(), "mgsd_a");
    println!("mgsd hr10 = {hr10:?}");
    println!("mgsd ndcg10 = {ndcg10:?}");
    assert_eq!(
        hr10, GOLDEN_MGSD_HR10,
        "MGSD HR@10 drifted from the golden value"
    );
    assert_eq!(
        ndcg10, GOLDEN_MGSD_NDCG10,
        "MGSD NDCG@10 drifted from the golden value"
    );
    let (_, _, bytes2) = run_pinned(mk(), "mgsd_b");
    assert_eq!(bytes, bytes2, "MGSD checkpoint bytes not reproducible");
}

/// MGSD trained out-of-core from a `.ssdc` file must land on the *same*
/// golden metrics as the in-RAM run: this pins the NOIS section round-trip
/// — the columnar reader feeding the generator's noise labels back into the
/// weak-supervision gate, bit for bit.
#[test]
fn mgsd_columnar_store_training_matches_in_ram_golden() {
    let raw = SyntheticConfig::sports()
        .scaled(0.08)
        .with_seed(7)
        .generate();
    let (dataset, _) = prepare(&raw, 50, 2);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("sports_mgsd.ssdc");
    encode_dataset(&dataset, &path).expect("encode");
    let reader = ColumnarReader::open(&path).expect("open");

    let plan = plan_leave_one_out(&reader, 5, 2);
    let mut model = Mgsd::new(dataset.num_users, dataset.num_items, 8, 50, 7);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    let sources = SourceSplit {
        train: &StoreExamples {
            store: &reader,
            refs: &plan.train,
        },
        valid: &StoreExamples {
            store: &reader,
            refs: &plan.valid,
        },
        test: &StoreExamples {
            store: &reader,
            refs: &plan.test,
        },
    };
    let report = train_from_source(&mut model, &sources, &tc, None, None).expect("train");
    assert_eq!(
        report.nonfinite_batches, 0,
        "a golden batch had a non-finite loss"
    );
    assert_eq!(
        report.test.hr10, GOLDEN_MGSD_HR10,
        "columnar-store MGSD training drifted from the golden HR@10"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_MGSD_NDCG10,
        "columnar-store MGSD training drifted from the golden NDCG@10"
    );
    let _ = std::fs::remove_file(path);
}

/// The out-of-core path — encode the prepared dataset to a columnar file,
/// re-plan the split over the windowed reader, build the graph in counting
/// passes, train through [`StoreExamples`] — must land on the *same* golden
/// HR@10 / NDCG@10 as the in-RAM path above: not approximately, exactly.
#[test]
fn columnar_store_training_reproduces_golden_metrics() {
    let raw = SyntheticConfig::sports()
        .scaled(0.08)
        .with_seed(7)
        .generate();
    // `prepare` already 5-core-filters and truncates to max_len; the file
    // holds exactly what the in-RAM pipeline trains on.
    let (dataset, _) = prepare(&raw, 50, 2);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("sports.ssdc");
    encode_dataset(&dataset, &path).expect("encode");
    let reader = ColumnarReader::open(&path).expect("open");

    let plan = plan_leave_one_out(&reader, 5, 2);
    let graph = build_graph_from_store(&reader, &GraphConfig::default());
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
    let sources = SourceSplit {
        train: &StoreExamples {
            store: &reader,
            refs: &plan.train,
        },
        valid: &StoreExamples {
            store: &reader,
            refs: &plan.valid,
        },
        test: &StoreExamples {
            store: &reader,
            refs: &plan.test,
        },
    };
    let report = train_from_source(&mut model, &sources, &tc, None, None).expect("train");
    assert_eq!(
        report.nonfinite_batches, 0,
        "a golden batch had a non-finite loss"
    );

    assert_eq!(
        report.test.hr10, GOLDEN_HR10,
        "columnar-store training drifted from the golden HR@10"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_NDCG10,
        "columnar-store training drifted from the golden NDCG@10"
    );
    let _ = std::fs::remove_file(path);
}
