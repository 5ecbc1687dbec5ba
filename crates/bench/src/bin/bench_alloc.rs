//! Allocation-telemetry benchmark for the step-scoped tensor pool.
//!
//! Runs the trainer's inner loop (reset → bind → loss → backward_into →
//! Adam) over the full SSDRec model on the default golden synthetic config
//! and records per-step pool counters: hits, misses, bytes served from
//! recycled storage, and steps/sec. The report is written to
//! `target/ssdrec-bench/alloc.json` and to `BENCH_alloc.json` at the
//! workspace root.
//!
//! This binary **asserts the steady-state contract**: from the second
//! training step onward at least 90% of buffer takes must be pool hits,
//! or it exits non-zero.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_alloc [-- --fast]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) shrinks the dataset to a CI smoke
//! that still runs enough steps to check the steady-state hit rate.

use std::time::Instant;

use ssdrec_bench::{write_report, Mode};
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{make_batches, prepare, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_models::RecModel;
use ssdrec_serve::json::Obj;
use ssdrec_tensor::{pool, Adam, Gradients, Graph, Rng};

struct Config {
    fast: bool,
    scale: f64,
    dim: usize,
    batch_size: usize,
    epochs: usize,
}

fn config() -> Config {
    let fast = Mode::current().is_fast();
    if fast {
        Config {
            fast,
            scale: 0.03,
            dim: 8,
            batch_size: 32,
            epochs: 1,
        }
    } else {
        Config {
            fast,
            scale: 0.08,
            dim: 8,
            batch_size: 32,
            // Enough epochs to cross the augmentation warm-up curriculum
            // (the loss path changes shape when `aug_active` flips on, a
            // one-time inventory build) and measure true steady state.
            epochs: 4,
        }
    }
}

fn main() {
    let cfg = config();
    let threads = ssdrec_runtime::threads();
    eprintln!(
        "bench_alloc: pool telemetry over the SSDRec step loop{}",
        if cfg.fast { " (fast mode)" } else { "" }
    );

    // The golden-determinism pipeline: sports profile, seed 7.
    let raw = SyntheticConfig::sports()
        .scaled(cfg.scale)
        .with_seed(7)
        .generate();
    let (dataset, split) = prepare(&raw, 50, 2);
    let item_graph = build_graph(&dataset, &GraphConfig::default());
    let model_cfg = SsdRecConfig {
        dim: cfg.dim,
        max_len: 50,
        seed: 7,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&item_graph, model_cfg);
    eprintln!(
        "  data: {} items, {} train examples",
        dataset.num_items,
        split.train.len()
    );

    assert!(
        pool::is_enabled(),
        "bench_alloc requires the pool (unset SSDREC_POOL)"
    );
    pool::reset_local_stats();

    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed(7);
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();

    // Per-step pool-counter deltas: step 1 builds the pool's inventory
    // (expected misses); the steady-state contract covers steps 2..N.
    let mut steps = 0usize;
    let mut first_step = pool::PoolStats::default();
    let before = pool::local_stats();
    let t0 = Instant::now();
    for epoch in 0..cfg.epochs {
        model.on_epoch_start(epoch, cfg.epochs);
        let batches = make_batches(
            &split.train,
            cfg.batch_size,
            7u64.wrapping_add(epoch as u64),
        );
        for batch in &batches {
            g.reset();
            let bind = model.store().bind_all(&mut g);
            let loss = model.loss(&mut g, &bind, batch, &mut rng);
            if g.value(loss).item().is_finite() {
                g.backward_into(loss, &mut ws);
                opt.step(model.store_mut(), &bind, &mut ws);
            }
            model.after_step();
            steps += 1;
            if steps == 1 {
                first_step = pool::local_stats().since(&before);
            }
        }
    }
    let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total = pool::local_stats();
    let steady = total.since(&first_step);
    let steps_per_sec = steps as f64 / (wall_clock_ms / 1e3).max(1e-9);

    let hit_rate_from_step2 = steady.hit_rate();
    eprintln!(
        "  {} steps in {:.1} ms ({:.1} steps/s)",
        steps, wall_clock_ms, steps_per_sec
    );
    eprintln!(
        "  step 1 (inventory build): {} hits / {} misses",
        first_step.hits, first_step.misses
    );
    eprintln!(
        "  steps 2..{}: {} hits / {} misses (hit rate {:.4}), {} bytes recycled",
        steps, steady.hits, steady.misses, hit_rate_from_step2, steady.bytes_recycled
    );
    assert!(
        steps >= 2,
        "need at least two steps to measure the steady state"
    );
    assert!(
        hit_rate_from_step2 >= 0.90,
        "steady-state pool hit rate {hit_rate_from_step2:.4} below the 90% contract"
    );

    let doc = Obj::new()
        .field("bench", "alloc")
        .field("fast", cfg.fast)
        .field("threads", threads)
        .field("steps", steps)
        .field("steps_per_sec", steps_per_sec)
        .field("wall_clock_ms", wall_clock_ms)
        .field("pool_hits", total.hits)
        .field("pool_misses", total.misses)
        .field("bytes_recycled", total.bytes_recycled)
        .field(
            "first_step",
            Obj::new()
                .field("pool_hits", first_step.hits)
                .field("pool_misses", first_step.misses),
        )
        .field("hit_rate_from_step2", hit_rate_from_step2);
    let parsed = write_report("alloc", doc);
    for field in ["pool_hits", "pool_misses", "bytes_recycled", "steps"] {
        assert!(
            parsed.get(field).and_then(|v| v.as_usize()).is_some(),
            "missing field {field}"
        );
    }

    println!(
        "bench_alloc: hit rate {:.2}% from step 2 over {} steps",
        hit_rate_from_step2 * 100.0,
        steps
    );
}
