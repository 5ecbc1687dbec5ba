//! Table III: every backbone with (w) and without (w/o) SSDRec, on every
//! dataset, reporting HR@{5,10,20}, NDCG@{5,10,20}, MRR and the average
//! relative improvement.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin table3_backbones \
//!     [--full] [--datasets beauty,yelp] [--models SASRec,GRU4Rec]`

use ssdrec_bench::{
    datasets_from_args, metric_csv, metric_header, metric_row, prepare_profile, run_backbone,
    run_ssdrec, write_results, HarnessConfig, Mode,
};
use ssdrec_models::BackboneKind;

fn models_from_args(args: &[String]) -> Vec<BackboneKind> {
    for (i, a) in args.iter().enumerate() {
        if a == "--models" {
            if let Some(list) = args.get(i + 1) {
                return list
                    .split(',')
                    .map(|n| {
                        BackboneKind::all()
                            .into_iter()
                            .find(|k| k.name().eq_ignore_ascii_case(n))
                            .unwrap_or_else(|| panic!("unknown model {n}"))
                    })
                    .collect();
            }
        }
    }
    BackboneKind::all().to_vec()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let datasets = datasets_from_args(&args);
    let models = models_from_args(&args);

    let mut csv = Vec::new();
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);
        println!(
            "\n=== Table III — {ds} ({} test users) ===",
            prep.split.test.len()
        );
        println!("{}", metric_header());
        for kind in &models {
            let base = run_backbone(*kind, &prep, &h);
            println!(
                "{}",
                metric_row(&format!("{} (w/o)", kind.name()), &base.test)
            );
            csv.push(metric_csv(ds, &format!("{}-wo", kind.name()), &base.test));

            let (_m, with) = run_ssdrec(*kind, (true, true, true), &prep, &h, 1.0);
            println!(
                "{}",
                metric_row(&format!("{} (w)", kind.name()), &with.test)
            );
            csv.push(metric_csv(ds, &format!("{}-w", kind.name()), &with.test));

            let imp = with.test.improvement_over(&base.test);
            println!("{:<18} {:>+8.2}%", "  improvement", imp);
        }
    }
    write_results(
        "table3_backbones.csv",
        "dataset,model,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,mrr20",
        &csv,
    );
}
