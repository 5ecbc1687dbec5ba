//! Thread-scaling and kernel benchmark for the runtime hot paths.
//!
//! Two sweeps, one report (`BENCH_runtime.json` at the workspace root and
//! `target/ssdrec-bench/runtime.json`):
//!
//! 1. **Thread sweep** — `SSDREC_THREADS` ∈ {1, 2, 4, 8} over the three hot
//!    paths the runtime accelerates: a full-catalogue-sized gemm, one
//!    training epoch, and a full evaluation pass.
//! 2. **Kernel sweep** — single-threaded, per-kernel timings of the
//!    straight-line [`ssdrec_tensor::oracle`] vs the production kernels,
//!    via direct slice-level calls, for every kernel whose production form
//!    differs from the oracle: all four gemm transpose variants plus the
//!    fused bias+activation.
//!
//! Alongside the timings the binary **asserts the determinism contract**:
//! thread-sweep output bits must be identical at every thread count, and
//! every kernel-sweep cell must be bit-identical between oracle and
//! production (the v1 kernel bits-contract). In full mode it additionally
//! asserts the production gemm's best variant is ≥ 2× over the oracle.
//! Any violation exits non-zero.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_runtime [-- --fast]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) shrinks the workload to a CI smoke
//! that still exercises every code path, including the JSON self-check
//! (speedups are recorded but not asserted in fast mode — smoke shapes are
//! too small to be meaningful).

use std::time::Instant;

use ssdrec_bench::micro::Harness;
use ssdrec_bench::{write_report, Mode};
use ssdrec_data::{make_batches, prepare, Split, SyntheticConfig};
use ssdrec_models::{evaluate, BackboneKind, RecModel, SeqRec};
use ssdrec_serve::json::Obj;
use ssdrec_tensor::gemm::gemm_rows;
use ssdrec_tensor::kernels::{bias_act_into, matmul};
use ssdrec_tensor::oracle::{self, KERNEL_BITS_MAX_ULPS, KERNEL_BITS_VERSION};
use ssdrec_tensor::{Activation, Adam, Graph, Rng, Tensor};

const SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Config {
    fast: bool,
    /// gemm shape: scoring-shaped `B×d · d×V`.
    gemm_m: usize,
    gemm_k: usize,
    gemm_n: usize,
    /// Dataset scale for the epoch/eval workloads.
    scale: f64,
    dim: usize,
    batch_size: usize,
    /// Timing repetitions (best-of).
    reps: usize,
}

fn config() -> Config {
    let fast = Mode::current().is_fast();
    if fast {
        Config {
            fast,
            gemm_m: 64,
            gemm_k: 32,
            gemm_n: 512,
            scale: 0.02,
            dim: 8,
            batch_size: 32,
            reps: 1,
        }
    } else {
        Config {
            fast,
            gemm_m: 128,
            gemm_k: 64,
            gemm_n: 2048,
            scale: 0.08,
            dim: 16,
            batch_size: 64,
            reps: 3,
        }
    }
}

/// Deterministic dense fill shared by every sweep point.
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut rng = Rng::seed(salt);
    (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Wrapping sum of the raw bit patterns: equal ⇔ (almost surely) the same
/// bits in the same order — a compact identity witness per sweep point.
fn bit_checksum(data: &[f32]) -> u64 {
    data.iter().fold(0u64, |acc, x| {
        acc.wrapping_mul(31).wrapping_add(x.to_bits() as u64)
    })
}

/// One training epoch over `split.train` (the trainer's inner loop on the
/// public model API), returning the mean loss.
fn run_epoch(model: &mut SeqRec, split: &Split, batch_size: usize) -> f32 {
    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed(7);
    let batches = make_batches(&split.train, batch_size, 7);
    let mut total = 0.0f32;
    let mut nb = 0usize;
    let mut g = Graph::new();
    let mut ws = ssdrec_tensor::Gradients::new();
    for batch in &batches {
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let loss = model.loss(&mut g, &bind, batch, &mut rng);
        let lv = g.value(loss).item();
        if lv.is_finite() {
            total += lv;
            nb += 1;
            g.backward_into(loss, &mut ws);
            opt.step(model.store_mut(), &bind, &mut ws);
        }
    }
    if nb > 0 {
        total / nb as f32
    } else {
        f32::NAN
    }
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn time_best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

struct SweepPoint {
    threads: usize,
    gemm_ms: f64,
    epoch_ms: f64,
    eval_ms: f64,
    gemm_checksum: u64,
    loss_bits: u32,
    hr10_bits: u64,
    ndcg10_bits: u64,
}

struct KernelPoint {
    kernel: &'static str,
    oracle_ms: f64,
    production_ms: f64,
    speedup: f64,
    bits_match: bool,
}

/// The signature shared by the production and the oracle gemm.
type GemmRows = fn(&[f32], bool, &[f32], bool, usize, usize, usize, &mut [f32], usize, usize);

/// Single-threaded per-kernel comparison of oracle and production, via
/// direct slice-level calls (the runtime pool is not involved, so thread
/// configuration cannot leak in). Each cell also witnesses the v1 kernel
/// bits-contract: both sides must produce identical output bits.
fn kernel_sweep(cfg: &Config) -> Vec<KernelPoint> {
    let (m, k, n) = (cfg.gemm_m, cfg.gemm_k, cfg.gemm_n);
    let rows = m;
    let iters = if cfg.fast { 2 } else { 5 };

    // Operand layouts per transpose flag: `ta` stores `a` as k×m, `tb`
    // stores `b` as n×k. Fresh salts so no operand aliases another.
    let a_n = fill(m * k, 11);
    let a_t = fill(k * m, 12);
    let b_n = fill(k * n, 13);
    let b_t = fill(n * k, 14);
    let x = fill(rows * n, 15);
    let bias = fill(n, 16);

    let mut points: Vec<KernelPoint> = Vec::new();
    // `f(true, out)` runs the oracle, `f(false, out)` the production kernel.
    let mut sweep = |kernel: &'static str, out_len: usize, f: &dyn Fn(bool, &mut [f32])| {
        let time_one = |use_oracle: bool| {
            let mut out = vec![0.0f32; out_len];
            let mut best = f64::INFINITY;
            for _ in 0..cfg.reps.max(1) {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f(use_oracle, &mut out);
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e3 / iters as f64);
            }
            (best, out)
        };
        let (oracle_ms, oo) = time_one(true);
        let (production_ms, po) = time_one(false);
        let bits_match =
            oo.len() == po.len() && oo.iter().zip(&po).all(|(a, b)| a.to_bits() == b.to_bits());
        points.push(KernelPoint {
            kernel,
            oracle_ms,
            production_ms,
            speedup: oracle_ms / production_ms.max(1e-9),
            bits_match,
        });
    };

    let pick = |use_oracle: bool| -> GemmRows {
        if use_oracle {
            oracle::gemm_rows
        } else {
            gemm_rows
        }
    };
    sweep("gemm_nn", m * n, &|o, out| {
        out.fill(0.0);
        pick(o)(&a_n, false, &b_n, false, m, k, n, out, 0, m);
    });
    sweep("gemm_tn", m * n, &|o, out| {
        out.fill(0.0);
        pick(o)(&a_t, true, &b_n, false, m, k, n, out, 0, m);
    });
    sweep("gemm_nt", m * n, &|o, out| {
        out.fill(0.0);
        pick(o)(&a_n, false, &b_t, true, m, k, n, out, 0, m);
    });
    sweep("gemm_tt", m * n, &|o, out| {
        out.fill(0.0);
        pick(o)(&a_t, true, &b_t, true, m, k, n, out, 0, m);
    });
    sweep("bias_act_relu", rows * n, &|o, out| {
        if o {
            oracle::bias_act_into(&x, &bias, Activation::Relu, out);
        } else {
            bias_act_into(&x, &bias, Activation::Relu, out);
        }
    });
    points
}

fn main() {
    let cfg = config();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "bench_runtime: sweeping threads {SWEEP:?} on a {host_cpus}-cpu host{}",
        if cfg.fast { " (fast mode)" } else { "" }
    );

    // Kernel sweep (single-threaded, direct slice-level calls).
    let kernels = kernel_sweep(&cfg);
    for p in &kernels {
        eprintln!(
            "  kernel {}: oracle {:.3} ms, production {:.3} ms, {:.2}x, bits_match={}",
            p.kernel, p.oracle_ms, p.production_ms, p.speedup, p.bits_match
        );
        assert!(
            p.bits_match,
            "kernel {} violated the v1 bits-contract: production diverged from the oracle",
            p.kernel
        );
    }
    let gemm_speedup_best = kernels
        .iter()
        .filter(|p| p.kernel.starts_with("gemm_"))
        .map(|p| p.speedup)
        .fold(0.0f64, f64::max);
    if cfg.fast {
        eprintln!("  kernels: best gemm speedup {gemm_speedup_best:.2}x (recorded, not asserted)");
    } else {
        assert!(
            gemm_speedup_best >= 2.0,
            "production gemm's best variant must be >= 2x over the oracle, got {gemm_speedup_best:.2}x"
        );
        eprintln!("  kernels: best gemm speedup {gemm_speedup_best:.2}x (>= 2x contract holds)");
    }

    let a = Tensor::new(fill(cfg.gemm_m * cfg.gemm_k, 1), &[cfg.gemm_m, cfg.gemm_k]);
    let b = Tensor::new(fill(cfg.gemm_k * cfg.gemm_n, 2), &[cfg.gemm_k, cfg.gemm_n]);
    let raw = SyntheticConfig::beauty()
        .scaled(cfg.scale)
        .with_seed(7)
        .generate();
    let (dataset, split) = prepare(&raw, 20, 2);
    eprintln!(
        "  data: {} items, {} train / {} test examples",
        dataset.num_items,
        split.train.len(),
        split.test.len()
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for &threads in &SWEEP {
        ssdrec_runtime::set_threads(threads);

        // gemm goes through the micro-bench harness so the per-thread JSON
        // under target/ssdrec-bench/ records the thread count it ran at.
        let mut h = Harness::new(&format!("runtime_t{threads}"));
        let gemm_stats = h.bench("gemm_scoring_shape", || matmul(&a, &b));
        let gemm_ms = gemm_stats.median_ns / 1e6;
        let gemm_checksum = bit_checksum(matmul(&a, &b).data());
        h.finish();

        let (epoch_ms, loss) = time_best_ms(cfg.reps, || {
            let mut model = SeqRec::new(BackboneKind::SasRec, dataset.num_items, cfg.dim, 20, 7);
            run_epoch(&mut model, &split, cfg.batch_size)
        });

        let eval_model = SeqRec::new(BackboneKind::SasRec, dataset.num_items, cfg.dim, 20, 7);
        let (eval_ms, report) = time_best_ms(cfg.reps, || {
            evaluate(&eval_model, &split.test, cfg.batch_size).report()
        });

        eprintln!(
            "  threads {threads}: gemm {gemm_ms:.3} ms, epoch {epoch_ms:.1} ms, eval {eval_ms:.1} ms"
        );
        points.push(SweepPoint {
            threads,
            gemm_ms,
            epoch_ms,
            eval_ms,
            gemm_checksum,
            loss_bits: loss.to_bits(),
            hr10_bits: report.hr10.to_bits(),
            ndcg10_bits: report.ndcg10.to_bits(),
        });
    }
    ssdrec_runtime::set_threads(1);

    // Determinism contract: every sweep point produced identical bits.
    let base = &points[0];
    for p in &points[1..] {
        assert_eq!(
            p.gemm_checksum, base.gemm_checksum,
            "gemm bits diverged at {} threads",
            p.threads
        );
        assert_eq!(
            p.loss_bits, base.loss_bits,
            "epoch loss bits diverged at {} threads",
            p.threads
        );
        assert_eq!(
            (p.hr10_bits, p.ndcg10_bits),
            (base.hr10_bits, base.ndcg10_bits),
            "evaluation metric bits diverged at {} threads",
            p.threads
        );
    }
    eprintln!("  determinism: all outputs bit-identical across the sweep");

    let at = |t: usize, f: fn(&SweepPoint) -> f64| {
        points
            .iter()
            .find(|p| p.threads == t)
            .map(f)
            .expect("sweep point")
    };
    let speedup_gemm_4 = at(1, |p| p.gemm_ms) / at(4, |p| p.gemm_ms).max(1e-9);
    let speedup_eval_4 = at(1, |p| p.eval_ms) / at(4, |p| p.eval_ms).max(1e-9);

    let sweep: Vec<Obj> = points
        .iter()
        .map(|p| {
            Obj::new()
                .field("threads", p.threads)
                .field("gemm_ms", p.gemm_ms)
                .field("epoch_ms", p.epoch_ms)
                .field("eval_ms", p.eval_ms)
                .field("gemm_bits_checksum", p.gemm_checksum)
                .field("loss_bits", p.loss_bits)
                .field("hr10_bits", p.hr10_bits)
                .field("ndcg10_bits", p.ndcg10_bits)
        })
        .collect();
    let kernel_sweep: Vec<Obj> = kernels
        .iter()
        .map(|p| {
            Obj::new()
                .field("kernel", p.kernel)
                .field("oracle_ms", p.oracle_ms)
                .field("production_ms", p.production_ms)
                .field("speedup", p.speedup)
                .field("bits_match", p.bits_match)
        })
        .collect();
    let doc = Obj::new()
        .field("bench", "runtime")
        .field("fast", cfg.fast)
        .field("host_cpus", host_cpus)
        .field("backend_default", ssdrec_tensor::backend_kind().name())
        .field(
            "kernel_contract",
            Obj::new()
                .field("version", KERNEL_BITS_VERSION)
                .field("max_ulps", KERNEL_BITS_MAX_ULPS),
        )
        .field("bit_identical_across_sweep", true)
        .field(
            "speedup_at_4_threads",
            Obj::new()
                .field("gemm", speedup_gemm_4)
                .field("eval", speedup_eval_4),
        )
        .field("gemm_speedup_best_1t", gemm_speedup_best)
        .field("kernel_sweep_1t", kernel_sweep)
        .field("sweep", sweep);
    let parsed = write_report("runtime", doc);
    assert_eq!(
        parsed
            .get("sweep")
            .and_then(|s| s.as_arr())
            .map(|a| a.len()),
        Some(SWEEP.len())
    );
    assert_eq!(
        parsed
            .get("kernel_sweep_1t")
            .and_then(|s| s.as_arr())
            .map(|a| a.len()),
        Some(kernels.len())
    );

    println!(
        "bench_runtime: speedup@4 gemm {speedup_gemm_4:.2}x, eval {speedup_eval_4:.2}x, \
         best 1-thread gemm speedup over the oracle {gemm_speedup_best:.2}x \
         (host has {host_cpus} cpu(s))"
    );
}
