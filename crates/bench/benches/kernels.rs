//! Micro-benchmarks for the substrate kernels that dominate training time:
//! matmul, softmax, the relation-graph construction and the Bi-LSTM unroll.
//! Runs on the in-workspace `ssdrec_bench::micro::Harness` (pass `--fast`
//! or set `SSDREC_BENCH_FAST=1` to smoke-test without measurement time).

use ssdrec_bench::micro::Harness;

use ssdrec_data::SyntheticConfig;
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_tensor::nn::BiLstm;
use ssdrec_tensor::{kernels, Graph, ParamStore, Rng, Tensor};

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), shape)
}

fn bench_matmul(h: &mut Harness) {
    for &n in &[32usize, 64, 128] {
        let a = rand_tensor(&[n, n], 1);
        let b = rand_tensor(&[n, n], 2);
        h.bench(&format!("matmul/square/{n}"), || kernels::matmul(&a, &b));
    }
    // The scoring matmul shape: B×d against d×V.
    let hm = rand_tensor(&[64, 32], 3);
    let table = rand_tensor(&[32, 400], 4);
    h.bench("matmul/score_64x32x400", || kernels::matmul(&hm, &table));
}

fn bench_softmax_layer_norm(h: &mut Harness) {
    let x = rand_tensor(&[64, 400], 5);
    h.bench("softmax_64x400", || kernels::softmax_last(&x));
    let g = Tensor::ones(&[400]);
    let be = Tensor::zeros(&[400]);
    h.bench("layer_norm_64x400", || kernels::layer_norm(&x, &g, &be));
}

fn bench_graph_build(h: &mut Harness) {
    let ds = SyntheticConfig::beauty().scaled(0.35).generate();
    h.bench("multi_relation_graph_build", || {
        build_graph(&ds, &GraphConfig::default())
    });
}

fn bench_bilstm(h: &mut Harness) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(6);
    let lstm = BiLstm::new(&mut store, "b", 32, 32, &mut rng);
    let x0 = rand_tensor(&[16, 20, 32], 7);
    h.bench("bilstm_16x20x32_fwd_bwd", || {
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(x0.clone());
        let (hl, hr) = lstm.forward(&mut g, &bind, x);
        let p = g.mul(hl, hr);
        let loss = g.sum_all(p);
        g.backward(loss)
    });
}

fn main() {
    let mut h = Harness::new("kernels");
    bench_matmul(&mut h);
    bench_softmax_layer_norm(&mut h);
    bench_graph_build(&mut h);
    bench_bilstm(&mut h);
    h.finish();
}
