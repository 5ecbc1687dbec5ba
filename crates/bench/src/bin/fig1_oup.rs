//! Fig. 1: the over/under-denoising problem (OUP) of HSD and STEAM on
//! ML-100K, with SSDRec added for contrast.
//!
//! Following the paper: unobserved interactions are randomly inserted into
//! raw short sequences as ground-truth noise; after training each denoiser
//! on the noisy data, the kept-noise fraction (under-denoising) and
//! dropped-raw fraction (over-denoising) are measured from its explicit
//! keep/drop decisions.
//!
//! `--sweep-insert` additionally sweeps the number of inserted items
//! (the DESIGN.md §5.3 ablation on insertion-count trade-offs).
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin fig1_oup [--full] [--sweep-insert]`

use ssdrec_bench::{write_results, HarnessConfig, Mode};
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{inject_unobserved, prepare, SyntheticConfig};
use ssdrec_denoise::{Denoiser, Hsd, Steam};
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_metrics::OupAccumulator;
use ssdrec_models::{train, BackboneKind};

/// Returns (under-denoising ratio, over-denoising ratio, mean keep score on
/// noise positions, mean keep score on clean positions). The score gap is a
/// threshold-free view of how well the denoiser separates injected noise.
fn measure<D: Denoiser>(model: &D, split: &ssdrec_data::Split) -> (f64, f64, f64, f64) {
    let mut acc = OupAccumulator::new();
    let (mut ns, mut nn, mut cs, mut nc) = (0.0f64, 0usize, 0.0f64, 0usize);
    for ex in &split.test {
        let Some(noise) = &ex.noise else { continue };
        if ex.seq.is_empty() {
            continue;
        }
        let kept = model.keep_decisions(&ex.seq, ex.user);
        acc.push(noise, &kept);
        let scores = model.keep_scores(&ex.seq, ex.user);
        for (&is_noise, &s) in noise.iter().zip(&scores) {
            if is_noise {
                ns += s as f64;
                nn += 1;
            } else {
                cs += s as f64;
                nc += 1;
            }
        }
    }
    (
        acc.under_denoising_ratio(),
        acc.over_denoising_ratio(),
        if nn > 0 { ns / nn as f64 } else { 0.0 },
        if nc > 0 { cs / nc as f64 } else { 0.0 },
    )
}

fn run_one(per_seq: usize, h: &HarnessConfig, csv: &mut Vec<String>) {
    // ML-100K profile, generator noise off so injected noise is the only
    // ground truth (matching the paper's controlled setup).
    let raw = SyntheticConfig::ml100k()
        .scaled(h.scale)
        .with_noise_ratio(0.0)
        .with_seed(h.seed)
        .generate();
    let noisy = inject_unobserved(&raw, 60, per_seq, h.seed);
    let (dataset, split) = prepare(&noisy, 50, h.max_train_prefixes);
    let graph = build_graph(&dataset, &GraphConfig::default());
    let tc = h.train_config();

    println!("\n--- Fig. 1 (inserted per short sequence: {per_seq}) ---");
    println!(
        "{:<10} {:>16} {:>16} {:>12} {:>12}",
        "model", "under-denoising", "over-denoising", "score|noise", "score|clean"
    );

    let mut hsd = Hsd::new(dataset.num_users, dataset.num_items, h.dim, 50, h.seed);
    train(&mut hsd, &split, &tc);
    let (u, o, sn, sc) = measure(&hsd, &split);
    println!("{:<10} {u:>16.4} {o:>16.4} {sn:>12.4} {sc:>12.4}", "HSD");
    csv.push(format!("{per_seq},HSD,{u:.6},{o:.6},{sn:.6},{sc:.6}"));

    let mut steam = Steam::new(dataset.num_items, h.dim, 50, h.seed);
    train(&mut steam, &split, &tc);
    let (u, o, sn, sc) = measure(&steam, &split);
    println!("{:<10} {u:>16.4} {o:>16.4} {sn:>12.4} {sc:>12.4}", "STEAM");
    csv.push(format!("{per_seq},STEAM,{u:.6},{o:.6},{sn:.6},{sc:.6}"));

    let cfg = SsdRecConfig {
        dim: h.dim,
        max_len: 50,
        backbone: BackboneKind::SasRec,
        seed: h.seed,
        ..SsdRecConfig::default()
    };
    let mut ssdrec = SsdRec::new(&graph, cfg);
    train(&mut ssdrec, &split, &tc);
    let (u, o, sn, sc) = measure(&ssdrec, &split);
    println!("{:<10} {u:>16.4} {o:>16.4} {sn:>12.4} {sc:>12.4}", "SSDRec");
    csv.push(format!("{per_seq},SSDRec,{u:.6},{o:.6},{sn:.6},{sc:.6}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut h = HarnessConfig::for_mode(Mode::current());
    // OUP needs the denoiser past its conservative warm-up phase.
    h.epochs = h.epochs.max(12);
    h.patience = h.patience.max(12);
    let sweep = args.iter().any(|a| a == "--sweep-insert");

    let mut csv = Vec::new();
    if sweep {
        for per_seq in [1usize, 2, 4] {
            run_one(per_seq, &h, &mut csv);
        }
    } else {
        run_one(2, &h, &mut csv);
    }
    write_results(
        "fig1_oup.csv",
        "inserted_per_seq,model,under_ratio,over_ratio,score_noise,score_clean",
        &csv,
    );
}
