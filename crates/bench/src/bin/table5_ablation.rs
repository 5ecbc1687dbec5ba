//! Table V: the stage-wise ablation on the ML-100K profile —
//! w/o SSDRec-1 (stages 2+3), w/o SSDRec-2 (stages 1+3 = "HSD + global
//! relations"), w/o SSDRec-3 (stages 1+2), plain HSD, and full SSDRec.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin table5_ablation [--full] [--datasets ml-100k]`

use ssdrec_bench::{
    datasets_from_args, metric_csv, metric_header, metric_row, prepare_profile, run_denoiser,
    run_ssdrec, write_results, DenoiserKind, HarnessConfig, Mode,
};
use ssdrec_models::BackboneKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let mut datasets = datasets_from_args(&args);
    // The paper runs this table on ML-100K only; we default to ML-100K plus
    // Beauty so both sequence-length regimes are covered (stage 2 only
    // fires on short sequences). Pass --datasets to override.
    if !args.iter().any(|a| a == "--datasets") {
        datasets = vec!["ml-100k".to_string(), "beauty".to_string()];
    }

    let variants: [(&str, (bool, bool, bool)); 4] = [
        ("w/o SSDRec-1", (false, true, true)),
        ("w/o SSDRec-2", (true, false, true)),
        ("w/o SSDRec-3", (true, true, false)),
        ("SSDRec", (true, true, true)),
    ];

    let mut csv = Vec::new();
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);
        println!("\n=== Table V — ablation on {ds} ===");
        println!("{}", metric_header());

        // Plain HSD as the reference row (paper includes it).
        let hsd = run_denoiser(DenoiserKind::Hsd, &prep, &h);
        println!("{}", metric_row("HSD", &hsd.test));
        csv.push(metric_csv(ds, "HSD", &hsd.test));

        for (name, stages) in variants {
            let (_m, report) = run_ssdrec(BackboneKind::SasRec, stages, &prep, &h, 1.0);
            println!("{}", metric_row(name, &report.test));
            csv.push(metric_csv(ds, name, &report.test));
        }
    }
    write_results(
        "table5_ablation.csv",
        "dataset,variant,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,mrr20",
        &csv,
    );
}
