//! The test oracle: straight-line versions of the kernels whose production
//! form differs from the obvious loop, plus the bits-contract they pin.
//!
//! **Production code never calls this module.** It exists so the parity
//! suite (`crates/tensor/tests/backend_parity.rs`) and the `bench_runtime`
//! kernel sweep can compare the production kernels against boring loops:
//!
//! * [`gemm_rows`] — the four transpose variants as plain triple loops
//!   (with the `!tb` variants' zero skipping), against the tiled
//!   [`crate::gemm::gemm_rows`].
//! * [`bias_act_into`] — add-then-activate in two passes, mirroring the
//!   unfused `add_bcast → activation` node chain, against the fused
//!   single-pass [`crate::kernels::bias_act_into`].
//!
//! Every other kernel has exactly one body, in [`crate::kernels`].
//!
//! # The kernel bits-contract
//!
//! This workspace pins golden HR@10/NDCG@10 values, checkpoint bytes and
//! per-kernel bit checksums, so a kernel change must not perturb results.
//! The contract has two layers:
//!
//! * **Self-contract (bit identity).** Every kernel is bit-identical to
//!   itself across runs and thread counts: each output element's
//!   floating-point addition chain is fixed by the shape alone.
//! * **Oracle parity (ULP bound).** Production kernels agree with this
//!   oracle within [`KERNEL_BITS_MAX_ULPS`] on finite inputs. Version
//!   [`KERNEL_BITS_VERSION`] pins the bound at **0** — the tiled gemm is
//!   bit-identical to the straight-line loops, because tiling only changes
//!   *where* partial sums live (registers instead of memory), never the
//!   per-element accumulation order. A future kernel that reassociates
//!   sums would bump the version and widen the bound, and the parity suite
//!   would keep enforcing the new bound.

use crate::kernels::Activation;

/// Version of the kernel bits-contract (see the module docs). Bump when a
/// production kernel is allowed to diverge from the oracle by more than the
/// current [`KERNEL_BITS_MAX_ULPS`].
pub const KERNEL_BITS_VERSION: u32 = 1;

/// Maximum ULP distance permitted between a production kernel's and the
/// oracle's outputs on finite inputs under contract version
/// [`KERNEL_BITS_VERSION`]. A bound of 0 demands exact bit equality (±0 and
/// NaN payloads included), which is what keeps golden metric pins and
/// checkpoint bytes stable across kernel changes.
pub const KERNEL_BITS_MAX_ULPS: u64 = 0;

/// Straight-line `out[m×n] (+)= a[m×k] · b[k×n]` over output rows
/// `[r0, r1)` into `block`, with the same signature and accumulation-chain
/// contract as [`crate::gemm::gemm_rows`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows(
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
    block: &mut [f32],
    r0: usize,
    r1: usize,
) {
    // a is m×k after the (optional) transpose; likewise b is k×n.
    debug_assert_eq!(block.len(), (r1 - r0) * n);
    if !ta && !tb {
        for i in r0..r1 {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut block[(i - r0) * n..(i - r0 + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else if ta && !tb {
        // a stored as k×m. Row-range form of the p-outer sequential loop;
        // per output element the adds still run over p ascending.
        for i in r0..r1 {
            let orow = &mut block[(i - r0) * n..(i - r0 + 1) * n];
            for p in 0..k {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else if !ta && tb {
        // b stored as n×k
        for i in r0..r1 {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                block[(i - r0) * n + j] += acc;
            }
        }
    } else {
        // a stored k×m, b stored n×k
        for i in r0..r1 {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p * m + i] * b[j * k + p];
                }
                block[(i - r0) * n + j] += acc;
            }
        }
    }
}

/// Two-pass `dst[i] = act(a[i] + bias[i % bias.len()])` (suffix
/// broadcast), mirroring the unfused add_bcast → activation node chain.
pub fn bias_act_into(a: &[f32], bias: &[f32], act: Activation, dst: &mut [f32]) {
    if dst.is_empty() {
        return;
    }
    let bn = bias.len();
    for (i, (d, &x)) in dst.iter_mut().zip(a.iter()).enumerate() {
        *d = x + bias[i % bn];
    }
    for d in dst.iter_mut() {
        *d = act.apply(*d);
    }
}

/// ULP distance between two `f32`s on the monotonic integer mapping of
/// floats: 0 for equal bits, 1 for adjacent representable values, and
/// `u64::MAX` when either value is NaN (unless both have identical bits).
/// `-0.0` and `+0.0` are adjacent-equal (distance 0) — a 0-ULP *contract*
/// therefore additionally requires exact bit equality, which is what
/// [`assert_within_ulps`] enforces when the bound is 0.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 != 0 {
            -((b & 0x7FFF_FFFF) as i64)
        } else {
            b as i64
        }
    }
    key(a).abs_diff(key(b))
}

/// Assert element-wise agreement of `got` with `want` under the ULP bound:
/// a bound of 0 demands exact bit equality per element (the v1 contract);
/// larger bounds use [`ulp_distance`]. Panics with `ctx`, the offending
/// index and both values on the first violation.
pub fn assert_within_ulps(want: &[f32], got: &[f32], max_ulps: u64, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length mismatch");
    for (i, (&w, &g)) in want.iter().zip(got.iter()).enumerate() {
        if w.to_bits() == g.to_bits() {
            continue;
        }
        if max_ulps == 0 {
            panic!(
                "{ctx}: bit mismatch at [{i}]: want {w:?} ({:#010x}), got {g:?} ({:#010x})",
                w.to_bits(),
                g.to_bits()
            );
        }
        let d = ulp_distance(w, g);
        assert!(
            d <= max_ulps,
            "{ctx}: {d} ULPs apart at [{i}] (bound {max_ulps}): want {w:?}, got {g:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 0, "±0 are adjacent-equal");
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
        // Distance is symmetric across the sign boundary.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(-tiny, tiny), 2);
    }

    #[test]
    #[should_panic(expected = "bit mismatch")]
    fn zero_bound_distinguishes_signed_zero() {
        assert_within_ulps(&[0.0], &[-0.0], 0, "signed zero");
    }
}
