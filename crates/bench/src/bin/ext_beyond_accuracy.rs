//! Extension experiment (not in the paper): beyond-accuracy effects of
//! denoising. Accidental interactions disproportionately hit popular items,
//! so removing them should reduce popularity bias and exposure concentration
//! in the served recommendations. Compares the bare backbone against SSDRec
//! on catalogue coverage, Gini concentration and popularity bias of top-10
//! lists.
//!
//! Usage: `cargo run --release -p ssdrec-bench --bin ext_beyond_accuracy [--full]`

use ssdrec_bench::{prepare_profile, run_ssdrec, write_results, HarnessConfig, Mode};
use ssdrec_metrics::RecListAccumulator;
use ssdrec_models::{BackboneKind, RecModel, SeqRec};

fn measure<M: RecModel>(model: &M, prep: &ssdrec_bench::Prepared, k: usize) -> (f64, f64, f64) {
    let mut acc = RecListAccumulator::new(prep.dataset.num_items);
    for ex in &prep.split.test {
        if ex.seq.is_empty() {
            continue;
        }
        let items: Vec<usize> = model
            .recommend(ex.user, &ex.seq, k)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        acc.push(&items);
    }
    let freq = prep.dataset.item_frequencies();
    (acc.coverage(), acc.gini(), acc.popularity_bias(&freq))
}

fn main() {
    let h = HarnessConfig::for_mode(Mode::current());
    let k = 10;

    println!("Beyond-accuracy comparison (top-{k} lists on the test users)");
    println!(
        "{:<10} {:<14} {:>9} {:>7} {:>10}",
        "dataset", "model", "coverage", "gini", "pop.bias"
    );
    let mut csv = Vec::new();
    for ds in ["beauty", "sports"] {
        let prep = prepare_profile(ds, &h);

        // Bare SASRec.
        let mut base = SeqRec::new(
            BackboneKind::SasRec,
            prep.dataset.num_items,
            h.dim,
            prep.max_len,
            h.seed,
        );
        let _ = ssdrec_models::train(&mut base, &prep.split, &h.train_config());
        let (c, g, p) = measure(&base, &prep, k);
        println!("{ds:<10} {:<14} {c:>9.3} {g:>7.3} {p:>10.2}", "SASRec");
        csv.push(format!("{ds},SASRec,{c:.4},{g:.4},{p:.4}"));

        // SASRec inside SSDRec.
        let (model, _report) = run_ssdrec(BackboneKind::SasRec, (true, true, true), &prep, &h, 1.0);
        let (c, g, p) = measure(&model, &prep, k);
        println!(
            "{ds:<10} {:<14} {c:>9.3} {g:>7.3} {p:>10.2}",
            "SSDRec[SASRec]"
        );
        csv.push(format!("{ds},SSDRec,{c:.4},{g:.4},{p:.4}"));
    }
    write_results(
        "ext_beyond_accuracy.csv",
        "dataset,model,coverage,gini,popularity_bias",
        &csv,
    );
}
