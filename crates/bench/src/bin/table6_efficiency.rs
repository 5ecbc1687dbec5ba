//! Table VI: per-epoch training and inference wall-clock (seconds) for HSD,
//! STEAM, DCRec and SSDRec on every dataset.
//!
//! Absolute numbers differ from the paper (single CPU core vs an RTX 8000);
//! the *relationships* are what this reproduces: SSDRec's training epoch is
//! the most expensive of the explicit methods (it contains HSD plus two
//! extra stages), while its inference adds no augmentation cost.
//!
//! Usage:
//! `cargo run --release -p ssdrec-bench --bin table6_efficiency [--full] [--datasets beauty]`

use ssdrec_bench::{
    datasets_from_args, measure_efficiency, prepare_profile, write_results, HarnessConfig, Mode,
};
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_denoise::{DcRec, Hsd, Steam};
use ssdrec_models::BackboneKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::for_mode(Mode::current());
    let datasets = datasets_from_args(&args);

    println!("Table VI — per-epoch training / inference seconds");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}   (train | infer)",
        "dataset", "HSD", "STEAM", "DCRec", "SSDRec"
    );

    let mut csv = Vec::new();
    for ds in &datasets {
        let prep = prepare_profile(ds, &h);
        let ni = prep.dataset.num_items;
        let nu = prep.dataset.num_users;

        let mut hsd = Hsd::new(nu, ni, h.dim, prep.max_len, h.seed);
        let (hsd_t, hsd_i) = measure_efficiency(&mut hsd, &prep.split, &h);

        let mut steam = Steam::new(ni, h.dim, prep.max_len, h.seed);
        let (steam_t, steam_i) = measure_efficiency(&mut steam, &prep.split, &h);

        let freq = prep.dataset.item_frequencies();
        let mut dcrec = DcRec::new(ni, h.dim, prep.max_len, &freq, h.seed);
        let (dcrec_t, dcrec_i) = measure_efficiency(&mut dcrec, &prep.split, &h);

        let cfg = SsdRecConfig {
            dim: h.dim,
            max_len: prep.max_len,
            backbone: BackboneKind::SasRec,
            seed: h.seed,
            ..SsdRecConfig::default()
        };
        let mut ssdrec = SsdRec::new(&prep.graph, cfg);
        let (ssd_t, ssd_i) = measure_efficiency(&mut ssdrec, &prep.split, &h);

        println!(
            "{ds:<10} {hsd_t:>6.2}|{hsd_i:<5.2} {steam_t:>6.2}|{steam_i:<5.2} {dcrec_t:>6.2}|{dcrec_i:<5.2} {ssd_t:>6.2}|{ssd_i:<5.2}"
        );
        csv.push(format!(
            "{ds},{hsd_t:.4},{hsd_i:.4},{steam_t:.4},{steam_i:.4},{dcrec_t:.4},{dcrec_i:.4},{ssd_t:.4},{ssd_i:.4}"
        ));
    }
    write_results(
        "table6_efficiency.csv",
        "dataset,hsd_train,hsd_infer,steam_train,steam_infer,dcrec_train,dcrec_infer,ssdrec_train,ssdrec_infer",
        &csv,
    );
}
