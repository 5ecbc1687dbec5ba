//! Ablation bench (DESIGN.md §5.1): straight-through hard Gumbel vs the soft
//! relaxation inside the position selector — cost of the hard path and of
//! the full augmentation step, at several sequence lengths. Runs on the
//! in-workspace `ssdrec_bench::micro::Harness`.

use ssdrec_bench::micro::Harness;

use ssdrec_core::SelfAugmenter;
use ssdrec_tensor::nn::{gumbel_softmax, GumbelMode};
use ssdrec_tensor::{Graph, ParamStore, Rng, Tensor};

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(0.01, 1.0)).collect(), shape)
}

fn bench_gumbel_modes(h: &mut Harness) {
    for &v in &[100usize, 400, 1600] {
        let probs = rand_tensor(&[32, v], 1);
        for (label, mode) in [("soft", GumbelMode::Soft), ("hard", GumbelMode::Hard)] {
            h.bench(&format!("gumbel_mode/{label}/{v}"), || {
                let mut g = Graph::new();
                let mut rng = Rng::seed(2);
                let p = g.constant(probs.clone());
                gumbel_softmax(&mut g, &mut rng, p, 1.0, mode)
            });
        }
    }
}

fn bench_augment_lengths(h: &mut Harness) {
    let mut store = ParamStore::new();
    let mut rng0 = Rng::seed(3);
    let aug = SelfAugmenter::new(&mut store, "aug", 16, &mut rng0);
    let table = rand_tensor(&[200, 16], 4);

    for &t in &[5usize, 10, 20] {
        let h0 = rand_tensor(&[16, t, 16], 5);
        h.bench(&format!("augment_step/seq_len/{t}"), || {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let mut rng = Rng::seed(6);
            let hv = g.constant(h0.clone());
            let tv = g.constant(table.clone());
            aug.augment(&mut g, &bind, &mut rng, hv, tv, 1.0)
        });
    }
}

fn main() {
    let mut h = Harness::new("ablation_gumbel");
    bench_gumbel_modes(&mut h);
    bench_augment_lengths(&mut h);
    h.finish();
}
