//! Bench behind Table VI: one optimisation step (forward + backward + Adam)
//! per model on a fixed mini-batch — the unit that per-epoch time is made of.
//! Runs on the in-workspace `ssdrec_bench::micro::Harness`.

use ssdrec_bench::micro::Harness;

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{make_batches, prepare, SyntheticConfig};
use ssdrec_denoise::Hsd;
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_models::{BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::{Adam, Graph, Rng};

fn one_step<M: RecModel>(model: &mut M, batch: &ssdrec_data::Batch, opt: &mut Adam, rng: &mut Rng) {
    let mut g = Graph::new();
    let bind = model.store().bind_all(&mut g);
    let loss = model.loss(&mut g, &bind, batch, rng);
    let mut grads = g.backward(loss);
    opt.step(model.store_mut(), &bind, &mut grads);
}

fn main() {
    let raw = SyntheticConfig::beauty().scaled(0.25).generate();
    let (ds, split) = prepare(&raw, 50, 2);
    let graph = build_graph(&ds, &GraphConfig::default());
    let batches = make_batches(&split.train, 32, 0);
    let batch = batches
        .iter()
        .max_by_key(|b| b.len())
        .expect("nonempty training data")
        .clone();
    let d = 16;

    let mut sasrec = SeqRec::new(BackboneKind::SasRec, ds.num_items, d, 50, 0);
    let mut hsd = Hsd::new(ds.num_users, ds.num_items, d, 50, 0);
    let cfg = SsdRecConfig {
        dim: d,
        max_len: 50,
        backbone: BackboneKind::SasRec,
        ..SsdRecConfig::default()
    };
    let mut ssdrec = SsdRec::new(&graph, cfg);

    let mut h = Harness::new("epoch_time");
    {
        let mut opt = Adam::new(1e-3);
        let mut rng = Rng::seed(1);
        h.bench("train_step/sasrec", || {
            one_step(&mut sasrec, &batch, &mut opt, &mut rng)
        });
    }
    {
        let mut opt = Adam::new(1e-3);
        let mut rng = Rng::seed(2);
        h.bench("train_step/hsd", || {
            one_step(&mut hsd, &batch, &mut opt, &mut rng)
        });
    }
    {
        let mut opt = Adam::new(1e-3);
        let mut rng = Rng::seed(3);
        h.bench("train_step/ssdrec", || {
            one_step(&mut ssdrec, &batch, &mut opt, &mut rng)
        });
    }
    h.finish();
}
