//! Fig. 5: sensitivity of SSDRec to the initial Gumbel temperature τ,
//! sweeping τ ∈ {1e-2, 1e-1, 1, 10, 1e2, 1e3} and reporting HR@20, NDCG@20
//! and MRR per dataset.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin fig5_tau [--full] [--datasets ml-100k,yelp]`

use ssdrec_bench::{
    datasets_from_args, prepare_profile, run_ssdrec, write_results, HarnessConfig, Mode,
};
use ssdrec_models::BackboneKind;

const TAUS: [f32; 6] = [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let mut datasets = datasets_from_args(&args);
    if !args.iter().any(|a| a == "--datasets") {
        // Default to the two ends of the paper's size spectrum to keep the
        // quick run bounded; pass --datasets for the full five.
        datasets = vec!["ml-100k".into(), "beauty".into()];
    }

    let mut csv = Vec::new();
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);
        println!("\n=== Fig. 5 — τ sensitivity on {ds} ===");
        println!("{:>10} {:>8} {:>8} {:>8}", "tau", "HR@20", "N@20", "MRR");
        for &tau in &TAUS {
            let (_m, report) = run_ssdrec(BackboneKind::SasRec, (true, true, true), &prep, &h, tau);
            println!(
                "{tau:>10.0e} {:>8.4} {:>8.4} {:>8.4}",
                report.test.hr20, report.test.ndcg20, report.test.mrr20
            );
            csv.push(format!(
                "{ds},{tau},{:.6},{:.6},{:.6}",
                report.test.hr20, report.test.ndcg20, report.test.mrr20
            ));
        }
    }
    write_results("fig5_tau.csv", "dataset,tau,hr20,ndcg20,mrr20", &csv);
}
