//! # ssdrec-bench
//!
//! The benchmark harness: shared experiment plumbing for the binaries that
//! regenerate every table and figure of the paper (see `DESIGN.md` §3 for
//! the experiment index), the [`micro`] timer behind the `cargo bench`
//! targets, and the one [`report`] path every bench output goes through.

#![warn(missing_docs)]

pub mod micro;
pub mod report;

use std::time::Instant;

pub use report::{bench_dir, peak_rss_bytes, percentile, workspace_root, write_report, Mode};

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{prepare, Dataset, Split, SyntheticConfig};
use ssdrec_denoise::{DcRec, Dsan, FmlpRec, Hsd, Mgsd, Steam};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_metrics::MetricReport;
use ssdrec_models::{
    train, BackboneKind, ContrastiveSeqRec, RecModel, SeqRec, TrainConfig, TrainReport,
};

/// Experiment-scale knobs shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dataset scale multiplier (1.0 = the profiles in `DESIGN.md`).
    pub scale: f64,
    /// Max training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Embedding width.
    pub dim: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Per-user training-prefix cap.
    pub max_train_prefixes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Quick mode: small enough to finish a whole table on one CPU core.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: 0.35,
            epochs: 20,
            batch_size: 64,
            dim: 16,
            patience: 6,
            max_train_prefixes: 2,
            seed: 7,
        }
    }

    /// Standard mode: the `DESIGN.md` profiles, longer training.
    pub fn standard() -> Self {
        HarnessConfig {
            scale: 1.0,
            epochs: 25,
            batch_size: 64,
            dim: 32,
            patience: 5,
            max_train_prefixes: 3,
            seed: 7,
        }
    }

    /// Fast smoke mode: two epochs at a tiny scale — small enough for CI
    /// to validate a whole table end-to-end in seconds.
    pub fn fast() -> Self {
        HarnessConfig {
            scale: 0.08,
            epochs: 2,
            batch_size: 32,
            dim: 8,
            patience: 10,
            max_train_prefixes: 2,
            seed: 7,
        }
    }

    /// The scale for a run [`Mode`]: fast → [`Self::fast`], full →
    /// [`Self::standard`], default → [`Self::quick`].
    pub fn for_mode(mode: Mode) -> Self {
        match mode {
            Mode::Fast => Self::fast(),
            Mode::Default => Self::quick(),
            Mode::Full => Self::standard(),
        }
    }

    /// The training config this harness scale implies.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            patience: self.patience,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }
}

/// The five paper dataset profiles by name.
pub fn profile(name: &str) -> SyntheticConfig {
    match name {
        "ml-100k" => SyntheticConfig::ml100k(),
        "ml-1m" => SyntheticConfig::ml1m(),
        "beauty" => SyntheticConfig::beauty(),
        "sports" => SyntheticConfig::sports(),
        "yelp" => SyntheticConfig::yelp(),
        other => panic!("unknown dataset profile {other}"),
    }
}

/// Dataset names in the paper's Table III order.
pub const DATASETS: [&str; 5] = ["ml-100k", "ml-1m", "beauty", "sports", "yelp"];

/// Per-profile max sequence length (paper: 200 for ML-1M, 50 otherwise).
pub fn max_len_for(name: &str) -> usize {
    if name == "ml-1m" {
        200
    } else {
        50
    }
}

/// A fully prepared experiment dataset.
pub struct Prepared {
    /// Filtered, truncated dataset.
    pub dataset: Dataset,
    /// Leave-one-out split.
    pub split: Split,
    /// Multi-relation graph over the filtered data.
    pub graph: MultiRelationGraph,
    /// Max length used.
    pub max_len: usize,
}

/// Generate, filter and split a named profile at the harness scale.
pub fn prepare_profile(name: &str, h: &HarnessConfig) -> Prepared {
    let cfg = profile(name).scaled(h.scale).with_seed(h.seed);
    let raw = cfg.generate();
    let max_len = max_len_for(name);
    let (dataset, split) = prepare(&raw, max_len, h.max_train_prefixes);
    let graph = build_graph(&dataset, &GraphConfig::default());
    Prepared {
        dataset,
        split,
        graph,
        max_len,
    }
}

/// Train a vanilla backbone (Table III "w/o" columns).
pub fn run_backbone(kind: BackboneKind, prep: &Prepared, h: &HarnessConfig) -> TrainReport {
    let mut model = SeqRec::new(kind, prep.dataset.num_items, h.dim, prep.max_len, h.seed);
    train(&mut model, &prep.split, &h.train_config())
}

/// Train SSDRec with the given backbone and stage toggles.
pub fn run_ssdrec(
    backbone: BackboneKind,
    stages: (bool, bool, bool),
    prep: &Prepared,
    h: &HarnessConfig,
    tau: f32,
) -> (SsdRec, TrainReport) {
    let cfg = SsdRecConfig {
        dim: h.dim,
        max_len: prep.max_len,
        backbone,
        tau,
        stage1: stages.0,
        stage2: stages.1,
        stage3: stages.2,
        seed: h.seed,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&prep.graph, cfg);
    let report = train(&mut model, &prep.split, &h.train_config());
    (model, report)
}

/// Which denoising baseline to train.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DenoiserKind {
    /// DSAN [23].
    Dsan,
    /// FMLP-Rec [28].
    Fmlp,
    /// HSD [27].
    Hsd,
    /// DCRec [41].
    DcRec,
    /// STEAM [29].
    Steam,
    /// CL4SRec-style contrastive self-supervision (2022 line).
    Cl4s,
    /// MGSD-WSS multi-granularity weakly-supervised denoising (2025 line).
    Mgsd,
}

impl DenoiserKind {
    /// All baselines in the paper's Table IV order, extended with the
    /// post-paper methods (CL4SRec, MGSD-WSS).
    pub fn all() -> [DenoiserKind; 7] {
        [
            DenoiserKind::Dsan,
            DenoiserKind::Fmlp,
            DenoiserKind::Hsd,
            DenoiserKind::DcRec,
            DenoiserKind::Steam,
            DenoiserKind::Cl4s,
            DenoiserKind::Mgsd,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DenoiserKind::Dsan => "DSAN",
            DenoiserKind::Fmlp => "FMLP-Rec",
            DenoiserKind::Hsd => "HSD",
            DenoiserKind::DcRec => "DCRec",
            DenoiserKind::Steam => "STEAM",
            DenoiserKind::Cl4s => "CL4SRec",
            DenoiserKind::Mgsd => "MGSD-WSS",
        }
    }
}

/// Train one denoising baseline; returns its report.
pub fn run_denoiser(kind: DenoiserKind, prep: &Prepared, h: &HarnessConfig) -> TrainReport {
    let ni = prep.dataset.num_items;
    let nu = prep.dataset.num_users;
    let tc = h.train_config();
    match kind {
        DenoiserKind::Dsan => {
            let mut m = Dsan::new(ni, h.dim, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::Fmlp => {
            let mut m = FmlpRec::new(ni, h.dim, prep.max_len.min(50), 2, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::Hsd => {
            let mut m = Hsd::new(nu, ni, h.dim, prep.max_len, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::DcRec => {
            let freq = prep.dataset.item_frequencies();
            let mut m = DcRec::new(ni, h.dim, prep.max_len, &freq, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::Steam => {
            let mut m = Steam::new(ni, h.dim, prep.max_len, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::Cl4s => {
            let mut m =
                ContrastiveSeqRec::new(BackboneKind::SasRec, ni, h.dim, prep.max_len, h.seed);
            train(&mut m, &prep.split, &tc)
        }
        DenoiserKind::Mgsd => {
            let mut m = Mgsd::new(nu, ni, h.dim, prep.max_len, h.seed);
            train(&mut m, &prep.split, &tc)
        }
    }
}

/// Format one metric row in the paper's column order.
pub fn metric_row(name: &str, m: &MetricReport) -> String {
    format!(
        "{name:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// The header matching [`metric_row`].
pub fn metric_header() -> String {
    format!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "HR@5", "HR@10", "HR@20", "N@5", "N@10", "N@20", "MRR"
    )
}

/// CSV line for a metric report.
pub fn metric_csv(dataset: &str, name: &str, m: &MetricReport) -> String {
    format!(
        "{dataset},{name},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// Append lines to `results/<file>` under the workspace root, creating the
/// directory if needed. Errors are printed, not fatal — results also go to
/// stdout.
pub fn write_results(file: &str, header: &str, lines: &[String]) {
    let dir = workspace_root().join("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(file);
    let mut content = String::from(header);
    content.push('\n');
    for l in lines {
        content.push_str(l);
        content.push('\n');
    }
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warn: cannot write {}: {e}", path.display());
    } else {
        eprintln!("results written to {}", path.display());
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Resolve dataset names from CLI args (`--datasets a,b,c`), defaulting to
/// all five profiles.
pub fn datasets_from_args(args: &[String]) -> Vec<String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--datasets" {
            if let Some(list) = args.get(i + 1) {
                return list.split(',').map(str::to_string).collect();
            }
        }
    }
    DATASETS.iter().map(|s| s.to_string()).collect()
}

/// Mean per-epoch training seconds and one-pass inference seconds for an
/// arbitrary model (Table VI measurement without full convergence).
pub fn measure_efficiency<M: RecModel>(
    model: &mut M,
    split: &Split,
    h: &HarnessConfig,
) -> (f64, f64) {
    let tc = TrainConfig {
        epochs: 1,
        patience: 10,
        ..h.train_config()
    };
    let report = train(model, split, &tc);
    (report.train_secs_per_epoch, report.infer_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve() {
        for d in DATASETS {
            let p = profile(d);
            assert!(p.num_users > 0);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_profile_panics() {
        profile("imaginary");
    }

    #[test]
    fn prepare_profile_quick() {
        let h = HarnessConfig::quick();
        let prep = prepare_profile("beauty", &h);
        assert!(!prep.split.test.is_empty());
        assert!(prep.graph.total_edges() > 0);
    }

    #[test]
    fn args_parsing() {
        let args = vec!["--datasets".into(), "beauty,yelp".into(), "--full".into()];
        assert_eq!(datasets_from_args(&args), vec!["beauty", "yelp"]);
        assert_eq!(
            HarnessConfig::for_mode(Mode::resolve(None, &args)).scale,
            1.0
        );
        assert_eq!(HarnessConfig::for_mode(Mode::Default).scale, 0.35);
        assert_eq!(HarnessConfig::for_mode(Mode::Fast).scale, 0.08);
    }

    #[test]
    fn metric_formatting_is_aligned() {
        let m = MetricReport::default();
        assert_eq!(metric_row("x", &m).len(), metric_header().len());
    }
}
