//! Extension experiment: where do SSDRec's gains come from? The paper argues
//! denoising from intra-sequence information is least reliable on *short*
//! sequences and that self-augmentation targets exactly those. This binary
//! buckets the test users by history length and reports SASRec vs SSDRec per
//! bucket — the gains should concentrate in the short buckets.
//!
//! Usage: `cargo run --release -p ssdrec-bench --bin ext_length_breakdown [--full]`

use ssdrec_bench::{
    datasets_from_args, prepare_profile, run_ssdrec, write_results, HarnessConfig, Mode,
};
use ssdrec_data::make_batches;
use ssdrec_metrics::{full_rank, LengthBuckets};
use ssdrec_models::{train, BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::Graph;

fn bucketed<M: RecModel>(model: &M, split: &ssdrec_data::Split) -> LengthBuckets {
    let mut buckets = LengthBuckets::short_medium_long();
    for batch in make_batches(&split.test, 64, 0) {
        let mut g = Graph::new();
        let bind = model.store().bind_all(&mut g);
        let scores = model.eval_scores(&mut g, &bind, &batch);
        let sv = g.value(scores);
        let v = sv.shape()[1];
        for (i, &target) in batch.targets.iter().enumerate() {
            let row = &sv.data()[i * v..(i + 1) * v];
            buckets.push(batch.seq_len, full_rank(row, target));
        }
    }
    buckets
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let mut datasets = datasets_from_args(&args);
    if !args.iter().any(|a| a == "--datasets") {
        datasets = vec!["ml-100k".into(), "beauty".into()];
    }

    let mut csv = Vec::new();
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);

        let mut base = SeqRec::new(
            BackboneKind::SasRec,
            prep.dataset.num_items,
            h.dim,
            prep.max_len,
            h.seed,
        );
        train(&mut base, &prep.split, &h.train_config());
        let base_b = bucketed(&base, &prep.split);

        let (model, _) = run_ssdrec(BackboneKind::SasRec, (true, true, true), &prep, &h, 1.0);
        let ssd_b = bucketed(&model, &prep.split);

        println!("\n=== {ds}: HR@20 by history length ===");
        println!(
            "{:<10} {:>6} {:>10} {:>10} {:>10}",
            "bucket", "n", "SASRec", "SSDRec", "Δ"
        );
        for i in 0..base_b.num_buckets() {
            let n = base_b.count(i);
            if n == 0 {
                continue;
            }
            let b = base_b.report(i).hr20;
            let s = ssd_b.report(i).hr20;
            println!(
                "{:<10} {n:>6} {b:>10.4} {s:>10.4} {:>+10.4}",
                base_b.label(i),
                s - b
            );
            csv.push(format!("{ds},{},{n},{b:.6},{s:.6}", base_b.label(i)));
        }
    }
    write_results(
        "ext_length_breakdown.csv",
        "dataset,bucket,n,sasrec_hr20,ssdrec_hr20",
        &csv,
    );
}
