//! Fig. 4: the explainability case study — for sampled test users, show the
//! raw sequence, the items the self-augmenter inserts (blue circles in the
//! paper), the positions the denoiser removes (red circles), and how the
//! true next item's score evolves raw → augmented → denoised.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin fig4_case_study [--full] [--users N]`

use ssdrec_bench::{prepare_profile, run_ssdrec, write_results, HarnessConfig, Mode};
use ssdrec_models::BackboneKind;
use ssdrec_tensor::Rng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let n_users = args
        .iter()
        .position(|a| a == "--users")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);

    let prep = prepare_profile("ml-100k", &h);
    let (model, report) = run_ssdrec(BackboneKind::SasRec, (true, true, true), &prep, &h, 1.0);
    println!(
        "trained SSDRec on ml-100k: test HR@20 {:.4}\n",
        report.test.hr20
    );

    let mut rng = Rng::seed(h.seed);
    let mut csv = Vec::new();
    let mut shown = 0usize;
    for ex in &prep.split.test {
        if ex.seq.len() < 5 || ex.seq.len() > 12 {
            continue; // pick compact sequences, like the paper's 6-item view
        }
        let cs = model.explain(&ex.seq, ex.user, ex.target, &mut rng);
        println!("=== user {} (next item {}) ===", ex.user, ex.target);
        println!("raw sequence : {:?}", cs.seq);
        if let (Some(p), Some((l, r))) = (cs.position, cs.inserted) {
            println!("augmentation : insert items {l} (left) / {r} (right) around position {p}");
        }
        let removed: Vec<usize> = cs
            .kept
            .iter()
            .enumerate()
            .filter(|(_, &k)| !k)
            .map(|(i, _)| cs.seq[i])
            .collect();
        println!("removed items: {removed:?}");
        println!(
            "target score : raw {:.3} → augmented {:.3} → denoised {:.3}\n",
            cs.raw_score, cs.augmented_score, cs.denoised_score
        );
        csv.push(format!(
            "{},{},{:.4},{:.4},{:.4},{}",
            ex.user,
            ex.target,
            cs.raw_score,
            cs.augmented_score,
            cs.denoised_score,
            removed.len()
        ));
        shown += 1;
        if shown >= n_users {
            break;
        }
    }

    // The paper also reports overall drop ratios per dataset (§IV-E).
    let mut dropped = 0usize;
    let mut total = 0usize;
    for ex in prep.split.test.iter().take(200) {
        if ex.seq.is_empty() {
            continue;
        }
        let kept = model.keep_decisions_for(&ex.seq, ex.user);
        dropped += kept.iter().filter(|&&k| !k).count();
        total += kept.len();
    }
    if total > 0 {
        println!(
            "overall drop ratio on ml-100k test histories: {:.2}% (paper: 24.22%)",
            100.0 * dropped as f64 / total as f64
        );
    }

    write_results(
        "fig4_case_study.csv",
        "user,target,raw_score,augmented_score,denoised_score,n_removed",
        &csv,
    );
}
