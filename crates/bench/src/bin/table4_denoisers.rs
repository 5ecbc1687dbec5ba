//! Table IV: SSDRec vs the state-of-the-art denoising / debiased methods
//! (DSAN, FMLP-Rec, HSD, DCRec, STEAM, plus the post-paper CL4SRec and
//! MGSD-WSS rows) on every dataset, with the relative improvement over the
//! strongest baseline and a two-sided t-test on the per-user HR@20
//! indicators.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin table4_denoisers \
//!     [--full | --fast] [--datasets beauty]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) is the CI smoke: two epochs at a tiny scale on one dataset
//! (unless `--datasets` overrides), emitting a machine-checkable JSON
//! report to `results/table4_fast.json` with one row per method.
use ssdrec_bench::{
    datasets_from_args, metric_csv, metric_header, metric_row, prepare_profile, run_denoiser,
    run_ssdrec, write_results, DenoiserKind, HarnessConfig, Mode,
};
use ssdrec_metrics::welch_t_test;
use ssdrec_models::BackboneKind;
use ssdrec_serve::json::{Obj, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = Mode::current();
    let fast = mode.is_fast();
    let h = HarnessConfig::for_mode(mode);
    let datasets = if fast && !args.iter().any(|a| a == "--datasets") {
        vec!["sports".to_string()]
    } else {
        datasets_from_args(&args)
    };

    let mut csv = Vec::new();
    let mut json_rows: Vec<Obj> = Vec::new();
    let mut push_json = |ds: &str, name: &str, m: &ssdrec_metrics::MetricReport| {
        json_rows.push(
            Obj::new()
                .field("dataset", ds)
                .field("model", name)
                .field("hr10", m.hr10)
                .field("hr20", m.hr20)
                .field("ndcg10", m.ndcg10),
        );
    };
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);
        println!("\n=== Table IV — {ds} ===");
        println!("{}", metric_header());

        let mut best_baseline = None::<(String, ssdrec_models::TrainReport)>;
        for kind in DenoiserKind::all() {
            let report = run_denoiser(kind, &prep, &h);
            println!("{}", metric_row(kind.name(), &report.test));
            csv.push(metric_csv(ds, kind.name(), &report.test));
            push_json(ds, kind.name(), &report.test);
            let better = match &best_baseline {
                None => true,
                Some((_, b)) => report.test.hr20 > b.test.hr20,
            };
            if better {
                best_baseline = Some((kind.name().to_string(), report));
            }
        }

        let (_model, ssdrec) = run_ssdrec(BackboneKind::SasRec, (true, true, true), &prep, &h, 1.0);
        println!("{}", metric_row("SSDRec", &ssdrec.test));
        csv.push(metric_csv(ds, "SSDRec", &ssdrec.test));
        push_json(ds, "SSDRec", &ssdrec.test);

        if let Some((bname, best)) = best_baseline {
            let imp = ssdrec.test.improvement_over(&best.test);
            println!(
                "{:<18} {:>+8.2}%  (over strongest baseline: {bname})",
                "  improvement", imp
            );
            // Per-user HR@20 indicators for significance.
            let ind = |ranks: &[usize]| -> Vec<f64> {
                ranks
                    .iter()
                    .map(|&r| if r <= 20 { 1.0 } else { 0.0 })
                    .collect()
            };
            let a = ind(&ssdrec.test_ranks);
            let b = ind(&best.test_ranks);
            if a.len() >= 2 && b.len() >= 2 {
                let tt = welch_t_test(&a, &b);
                println!(
                    "  two-sided t-test vs {bname}: t={:.3}, p={:.4}",
                    tt.t, tt.p
                );
            }
        }
    }
    write_results(
        "table4_denoisers.csv",
        "dataset,model,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,mrr20",
        &csv,
    );
    if fast {
        let mut json = String::new();
        json_rows.write_json(&mut json);
        write_results("table4_fast.json", &json, &[]);
        println!("{json}");
    }
}
