//! Oracle parity: the property-tested kernel bits-contract.
//!
//! The production kernels must agree with the straight-line
//! [`ssdrec_tensor::oracle`] within [`KERNEL_BITS_MAX_ULPS`] (0 under
//! contract v1 — exact bits) on randomized shapes, including ragged/odd
//! sizes that stress the 8×8 panel edges; the production gemm must be
//! insensitive to row partitioning and to stale pool-buffer contents; the
//! public `matmul`/`matmul_backward` must equal the oracle gemm at any
//! thread count; and the fused graph ops (bias+activation,
//! scale+mask+softmax) must reproduce their unfused node chains
//! bit-for-bit — values *and* gradients.

use ssdrec_tensor::gemm::gemm_rows;
use ssdrec_tensor::oracle::{self, assert_within_ulps, KERNEL_BITS_MAX_ULPS};
use ssdrec_tensor::{kernels, Activation, Graph, Rng, Tensor};
use ssdrec_testkit::{gens, property, Gen};

/// Deterministic pseudo-random data in `[-1, 1)`.
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut r = Rng::seed(salt ^ 0x5eed_babe);
    (0..n).map(|_| r.next_f32() * 2.0 - 1.0).collect()
}

/// Dimension generator biased toward the 8×8 panel-edge cases
/// {0,1,7,8,9,63,64,65}, shrinking toward 0.
fn dims() -> Gen<usize> {
    const EDGES: [usize; 8] = [0, 1, 7, 8, 9, 63, 64, 65];
    Gen::new(
        |rng| {
            if rng.between(0, 1) == 1 {
                EDGES[rng.between(0, EDGES.len() - 1)]
            } else {
                rng.between(0, 65)
            }
        },
        |&v| {
            let mut out = Vec::new();
            for c in [0, 1, v / 2, v.saturating_sub(1)] {
                if c < v && !out.contains(&c) {
                    out.push(c);
                }
            }
            out
        },
    )
}

/// Like [`dims`] but never 0 (for row kernels whose `n = 0` case is handled
/// by the tensor-level wrapper).
fn dims1() -> Gen<usize> {
    const EDGES: [usize; 7] = [1, 7, 8, 9, 63, 64, 65];
    Gen::new(
        |rng| {
            if rng.between(0, 1) == 1 {
                EDGES[rng.between(0, EDGES.len() - 1)]
            } else {
                rng.between(1, 65)
            }
        },
        |&v| {
            let mut out = Vec::new();
            for c in [1, v / 2, v - 1] {
                if (1..v).contains(&c) && !out.contains(&c) {
                    out.push(c);
                }
            }
            out
        },
    )
}

/// The signature shared by the production and the oracle gemm.
type GemmRows = fn(&[f32], bool, &[f32], bool, usize, usize, usize, &mut [f32], usize, usize);

fn gemm_once(
    gemm: GemmRows,
    variant: usize,
    m: usize,
    k: usize,
    n: usize,
    seed: usize,
) -> Vec<f32> {
    let (ta, tb) = [(false, false), (true, false), (false, true), (true, true)][variant];
    let a = fill(m * k, seed as u64 * 4 + 1);
    let b = fill(k * n, seed as u64 * 4 + 2);
    let mut out = vec![0.0f32; m * n];
    gemm(&a, ta, &b, tb, m, k, n, &mut out, 0, m);
    out
}

property! {
    cases = 96;

    /// The tiled gemm matches the oracle within the pinned ULP bound on all
    /// four transpose variants, including degenerate and partial-panel
    /// shapes.
    fn gemm_parity_all_variants(
        m in dims(),
        k in dims(),
        n in dims(),
        variant in gens::usizes(0, 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let want = gemm_once(oracle::gemm_rows, variant, m, k, n, seed);
        let got = gemm_once(gemm_rows, variant, m, k, n, seed);
        assert_within_ulps(
            &want,
            &got,
            KERNEL_BITS_MAX_ULPS,
            &format!("gemm variant={variant} m={m} k={k} n={n}"),
        );
    }

    /// The production gemm is insensitive to output-row partitioning:
    /// computing rows `[0, r)` and `[r, m)` separately is bit-identical to
    /// one call.
    /// This is the property that makes the thread pool's row chunking (and
    /// hence any thread count) bit-stable.
    fn gemm_row_partition_bit_identical(
        m in dims1(),
        k in dims(),
        n in dims1(),
        variant in gens::usizes(0, 4),
        r in gens::usizes(0, 66),
    ) {
        let r = r.min(m);
        let (ta, tb) = [(false, false), (true, false), (false, true), (true, true)][variant];
        let a = fill(m * k, 11);
        let b = fill(k * n, 12);
        let mut whole = vec![0.0f32; m * n];
        gemm_rows(&a, ta, &b, tb, m, k, n, &mut whole, 0, m);
        let mut split = vec![0.0f32; m * n];
        let (lo, hi) = split.split_at_mut(r * n);
        gemm_rows(&a, ta, &b, tb, m, k, n, lo, 0, r);
        gemm_rows(&a, ta, &b, tb, m, k, n, hi, r, m);
        assert_within_ulps(
            &whole,
            &split,
            0,
            &format!("split at {r} (variant={variant} m={m} k={k} n={n})"),
        );
    }

    /// Fused bias+activation parity with the two-pass oracle, and
    /// bit-equality of the fused graph node against the unfused
    /// add_bcast → activation chain (values and gradients).
    fn bias_act_matches_unfused_chain(
        rows in dims(),
        n in dims1(),
        act_ix in gens::usizes(0, 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let act = [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ][act_ix];
        let xs = fill(rows * n, seed as u64 + 1);
        let bs = fill(n, seed as u64 + 2);

        // Slice-level parity with the oracle.
        let mut want = vec![0.0f32; rows * n];
        let mut got = vec![0.0f32; rows * n];
        oracle::bias_act_into(&xs, &bs, act, &mut want);
        kernels::bias_act_into(&xs, &bs, act, &mut got);
        assert_within_ulps(
            &want,
            &got,
            KERNEL_BITS_MAX_ULPS,
            &format!("bias_act {act:?} rows={rows} n={n}"),
        );

        // Fused node vs unfused chain, values + grads.
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(xs.clone(), &[rows, n]));
            let b = g.param(Tensor::new(bs.clone(), &[n]));
            let y = if fused {
                g.bias_act(x, b, act)
            } else {
                let s = g.add_bcast(x, b);
                g.activation(s, act)
            };
            let loss = g.sum_all(y);
            let grads = g.backward(loss);
            (
                g.value(y).data().to_vec(),
                grads.get(x).unwrap().data().to_vec(),
                grads.get(b).unwrap().data().to_vec(),
            )
        };
        let (fy, fgx, fgb) = run(true);
        let (uy, ugx, ugb) = run(false);
        let ctx = format!("bias_act fused-vs-unfused {act:?}");
        assert_within_ulps(&uy, &fy, 0, &ctx);
        assert_within_ulps(&ugx, &fgx, 0, &ctx);
        assert_within_ulps(&ugb, &fgb, 0, &ctx);
    }

    /// Fused scale+mask+softmax vs the unfused scale → mask-add → softmax
    /// chain: bit-equal values and gradients (through both the scores and
    /// the mask), for no mask, a broadcast T×T mask and a full
    /// B×T×T mask.
    fn scaled_masked_softmax_matches_unfused_chain(
        b in dims1(),
        t in dims1(),
        mask_kind in gens::usizes(0, 3),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let b = b.min(9);
        let t = t.min(17);
        let scale = 0.37;
        let scores = fill(b * t * t, seed as u64 + 3);
        // An attention-style additive mask: mostly 0, some -1e9.
        let mask_len = if mask_kind == 1 { t * t } else { b * t * t };
        let mask_vals: Vec<f32> = fill(mask_len, seed as u64 + 4)
            .into_iter()
            .map(|v| if v > 0.4 { -1e9 } else { 0.0 })
            .collect();
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(scores.clone(), &[b, t, t]));
            let mask = match mask_kind {
                0 => None,
                1 => Some(g.param(Tensor::new(mask_vals.clone(), &[t, t]))),
                _ => Some(g.param(Tensor::new(mask_vals.clone(), &[b, t, t]))),
            };
            let y = if fused {
                g.scaled_masked_softmax(x, scale, mask)
            } else {
                let s = g.scale(x, scale);
                let s = match mask {
                    Some(m) if mask_kind == 1 => g.add_bcast(s, m),
                    Some(m) => g.add(s, m),
                    None => s,
                };
                g.softmax_last(s)
            };
            let loss = g.sum_all(y);
            let grads = g.backward(loss);
            (
                g.value(y).data().to_vec(),
                grads.get(x).unwrap().data().to_vec(),
                mask.map(|m| grads.get(m).unwrap().data().to_vec()),
            )
        };
        let (fy, fgx, fgm) = run(true);
        let (uy, ugx, ugm) = run(false);
        let ctx = format!("smsm fused-vs-unfused mask_kind={mask_kind}");
        assert_within_ulps(&uy, &fy, 0, &ctx);
        assert_within_ulps(&ugx, &fgx, 0, &ctx);
        match (ugm, fgm) {
            (Some(u), Some(f)) => assert_within_ulps(&u, &f, 0, &ctx),
            (None, None) => {}
            _ => panic!("{ctx}: mask gradient presence mismatch"),
        }
    }
}

/// The tiled gemm packs operands into pool buffers with unspecified
/// contents; poisoning the pool with NaNs between two identical calls must
/// not change a single output bit (i.e. no stale lane is ever read).
#[test]
fn gemm_ignores_stale_pool_contents() {
    for &(m, k, n) in &[(13, 9, 21), (8, 64, 8), (1, 7, 65), (9, 1, 9)] {
        for variant in 0..4 {
            let want = gemm_once(gemm_rows, variant, m, k, n, 99);
            // Poison pool buffers of the sizes the tiled gemm takes.
            ssdrec_tensor::pool::recycle(vec![f32::NAN; k * 8]);
            ssdrec_tensor::pool::recycle(vec![f32::NAN; k * n]);
            let got = gemm_once(gemm_rows, variant, m, k, n, 99);
            assert_within_ulps(
                &want,
                &got,
                0,
                &format!("stale-pool gemm variant={variant} m={m} k={k} n={n}"),
            );
        }
    }
}

/// Degenerate (zero-sized) dims through the public matmul/matmul_backward
/// paths: every rank case must produce the right-shaped all-zero result
/// without panicking (regression: `chunks_mut(0)` used to panic in the
/// batched paths, and gemm's row-grain heuristic silently assumed `k ≥ 1`).
#[test]
fn matmul_zero_dims_all_rank_cases() {
    for &(m, k, n) in &[(0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0)] {
        for &bs in &[0usize, 1, 3] {
            // (shape of a, shape of b) for the four rank cases.
            let cases: [(Vec<usize>, Vec<usize>); 4] = [
                (vec![m, k], vec![k, n]),
                (vec![bs, m, k], vec![bs, k, n]),
                (vec![bs, m, k], vec![k, n]),
                (vec![m, k], vec![bs, k, n]),
            ];
            for (ash, bsh) in cases {
                let a = Tensor::new(fill(ash.iter().product(), 5), &ash);
                let b = Tensor::new(fill(bsh.iter().product(), 6), &bsh);
                let out = kernels::matmul(&a, &b);
                let batched = ash.len() == 3 || bsh.len() == 3;
                let want_shape: Vec<usize> = if batched { vec![bs, m, n] } else { vec![m, n] };
                assert_eq!(out.shape(), &want_shape[..], "matmul {ash:?}×{bsh:?}");
                assert!(
                    out.data().iter().all(|&v| v == 0.0),
                    "zero-dim matmul must be all zeros"
                );
                let gout = Tensor::new(fill(out.len(), 7), out.shape());
                let (ga, gb) = kernels::matmul_backward(&a, &b, &gout);
                assert_eq!(ga.shape(), &ash[..], "ga shape {ash:?}×{bsh:?}");
                assert_eq!(gb.shape(), &bsh[..], "gb shape {ash:?}×{bsh:?}");
            }
        }
    }
}

/// Zero-sized last dimension through softmax/log-softmax/LayerNorm and the
/// fused ops (regression: `chunks(0)` used to panic).
#[test]
fn row_ops_zero_last_dim() {
    let x = Tensor::zeros(&[3, 0]);
    assert_eq!(kernels::softmax_last(&x).shape(), &[3, 0]);
    assert_eq!(kernels::log_softmax_last(&x).shape(), &[3, 0]);
    let y = kernels::layer_norm(&x, &Tensor::zeros(&[0]), &Tensor::zeros(&[0]));
    assert_eq!(y.shape(), &[3, 0]);
    let f = kernels::bias_act(&x, &Tensor::zeros(&[0]), Activation::Relu);
    assert_eq!(f.shape(), &[3, 0]);
    let s = kernels::scaled_masked_softmax(&x, 0.5, None);
    assert_eq!(s.shape(), &[3, 0]);
}

/// `matmul` and `matmul_backward` as the oracle computes them: the same
/// per-batch gemm calls in the same order as `kernels`, each one a
/// straight-line [`oracle::gemm_rows`] over all rows.
fn oracle_matmul(a: &Tensor, b: &Tensor, gout: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (ash, bsh) = (a.shape(), b.shape());
    let (m, k) = (ash[ash.len() - 2], ash[ash.len() - 1]);
    let n = bsh[bsh.len() - 1];
    let bs = if ash.len() == 3 { ash[0] } else { bsh[0] };
    let (a_step, b_step) = (
        if ash.len() == 3 { m * k } else { 0 },
        if bsh.len() == 3 { k * n } else { 0 },
    );
    let (ad, bd, gd) = (a.data(), b.data(), gout.data());
    let mut out = vec![0.0f32; gout.len()];
    let mut ga = vec![0.0f32; a.len()];
    let mut gb = vec![0.0f32; b.len()];
    let batches = if ash.len() == 2 && bsh.len() == 2 {
        1
    } else {
        bs
    };
    for i in 0..batches {
        let ai = &ad[i * a_step..i * a_step + m * k];
        let bi = &bd[i * b_step..i * b_step + k * n];
        let gi = &gd[i * m * n..(i + 1) * m * n];
        let oi = &mut out[i * m * n..(i + 1) * m * n];
        oracle::gemm_rows(ai, false, bi, false, m, k, n, oi, 0, m);
        // dA = dC · Bᵀ ; dB = Aᵀ · dC — a broadcast operand's gradient
        // accumulates over batches in ascending order.
        let gai = &mut ga[i * a_step..i * a_step + m * k];
        oracle::gemm_rows(gi, false, bi, true, m, n, k, gai, 0, m);
        let gbi = &mut gb[i * b_step..i * b_step + k * n];
        oracle::gemm_rows(ai, true, gi, false, k, m, n, gbi, 0, k);
    }
    (out, ga, gb)
}

/// End-to-end "production path == oracle": the public `matmul` and
/// `matmul_backward` equal the oracle gemm bit for bit in all four rank
/// cases, on a shape below and one above the parallel-dispatch threshold,
/// at 1 and 2 runtime threads.
#[test]
fn matmul_and_backward_match_oracle_gemm_at_any_thread_count() {
    // (bs, m, k, n): 2·m·k·n and 2·bs·m·k·n of the second shape clear
    // `GEMM_PAR_WORK` (16K flops), so it takes the row/batch-parallel paths.
    for &(bs, m, k, n) in &[(3, 5, 4, 6), (5, 41, 17, 19)] {
        let cases: [(Vec<usize>, Vec<usize>); 4] = [
            (vec![m, k], vec![k, n]),
            (vec![bs, m, k], vec![bs, k, n]),
            (vec![bs, m, k], vec![k, n]),
            (vec![m, k], vec![bs, k, n]),
        ];
        for (ash, bsh) in cases {
            // Every 5th element of `a` is an exact zero, so the oracle's
            // zero skipping is exercised against the tiled kernel.
            let a_vals: Vec<f32> = fill(ash.iter().product(), 31)
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i % 5 == 0 { 0.0 } else { v })
                .collect();
            let a = Tensor::new(a_vals, &ash);
            let b = Tensor::new(fill(bsh.iter().product(), 32), &bsh);
            let out_shape: Vec<usize> = if ash.len() == 3 || bsh.len() == 3 {
                vec![bs, m, n]
            } else {
                vec![m, n]
            };
            let gout = Tensor::new(fill(out_shape.iter().product(), 33), &out_shape);
            let (want_out, want_ga, want_gb) = oracle_matmul(&a, &b, &gout);
            for threads in [1, 2] {
                ssdrec_runtime::set_threads(threads);
                let out = kernels::matmul(&a, &b);
                let (ga, gb) = kernels::matmul_backward(&a, &b, &gout);
                let ctx = format!("{ash:?}×{bsh:?} at {threads} thread(s)");
                assert_eq!(out.shape(), &out_shape[..], "{ctx}");
                assert_within_ulps(&want_out, out.data(), KERNEL_BITS_MAX_ULPS, &ctx);
                assert_within_ulps(&want_ga, ga.data(), KERNEL_BITS_MAX_ULPS, &ctx);
                assert_within_ulps(&want_gb, gb.data(), KERNEL_BITS_MAX_ULPS, &ctx);
            }
        }
    }
    ssdrec_runtime::set_threads(1);
}
