//! Online-loop benchmark: ingest throughput, incremental-retrain latency,
//! and the request-visible pause of a zero-downtime model hot swap.
//!
//! Three phases over a scratch log + versioned checkpoint directory:
//!
//! 1. **Ingest** — bulk-append the day-0 history and report records/sec.
//! 2. **Retrain** — one full round (v1) and one incremental delta round
//!    (v2, warm-started), reporting both wall-clocks; the delta round is
//!    the steady-state cost of the online loop.
//! 3. **Swap** — a reader thread times every `EngineSlot::engine()`
//!    acquisition (the only serving-path contention point) while the main
//!    thread publishes and hot-swaps further versions; the p99 of those
//!    acquisitions is the swap pause a live request can observe.
//!
//! The report is written to `target/ssdrec-bench/stream.json` and to
//! `BENCH_stream.json` at the workspace root.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_stream [-- --fast]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) shrinks the catalog and round count
//! to a CI smoke.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ssdrec_bench::{bench_dir, write_report, Mode};
use ssdrec_models::{BackboneKind, TrainConfig};
use ssdrec_serve::json::Obj;
use ssdrec_serve::{
    Engine, EngineConfig, EngineSlot, LatencyHistogram, LoadedModel, ReloadOutcome, ServerStats,
};
use ssdrec_stream::{
    load_current, load_newer, open_or_create_log, retrain, ArchSpec, LogHeader, RetrainOutcome,
    RetrainSpec,
};

struct Config {
    fast: bool,
    num_users: usize,
    num_items: usize,
    events_per_user: usize,
    epochs: usize,
    swaps: usize,
}

fn config() -> Config {
    let fast = Mode::current().is_fast();
    if fast {
        Config {
            fast,
            num_users: 24,
            num_items: 50,
            events_per_user: 8,
            epochs: 1,
            swaps: 2,
        }
    } else {
        Config {
            fast,
            num_users: 200,
            num_items: 400,
            events_per_user: 20,
            epochs: 2,
            swaps: 4,
        }
    }
}

fn spec(cfg: &Config) -> RetrainSpec {
    let tc = TrainConfig::default();
    RetrainSpec {
        arch: ArchSpec {
            backbone: BackboneKind::SasRec,
            dim: 8,
            max_len: 12,
            seed: 7,
        },
        epochs: cfg.epochs,
        batch_size: 32,
        lr: tc.lr,
        weight_decay: tc.weight_decay,
        checkpoint_every: 1,
    }
}

fn published_version(outcome: RetrainOutcome) -> u64 {
    match outcome {
        RetrainOutcome::Trained(t) => t.version,
        RetrainOutcome::UpToDate { version } => {
            panic!("expected a trained round, found v{version} already up to date")
        }
    }
}

fn main() {
    let cfg = config();
    let threads = ssdrec_runtime::threads();
    eprintln!(
        "bench_stream: ingest → retrain → hot-swap{}",
        if cfg.fast { " (fast mode)" } else { "" }
    );

    let work = bench_dir().join("stream-work");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch dir");
    let log_path = work.join("events.sslg");
    let root = work.join("ckpts");
    let catalog = LogHeader {
        num_users: cfg.num_users,
        num_items: cfg.num_items,
    };
    let sp = spec(&cfg);

    // Phase 1: ingest. Deterministic user-major history, one fsync at the
    // end (the CLI's bulk-load pattern).
    let (mut log, _) = open_or_create_log(&log_path, Some(catalog)).expect("create log");
    let t0 = Instant::now();
    for u in 0..cfg.num_users {
        for t in 0..cfg.events_per_user {
            log.append(u, (u * 13 + t * 7) % cfg.num_items + 1)
                .expect("append");
        }
    }
    log.sync().expect("sync");
    let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ingest_records = log.records();
    drop(log);
    let ingest_rps = ingest_records as f64 / (ingest_ms / 1e3).max(1e-9);
    eprintln!("  ingest: {ingest_records} records in {ingest_ms:.2} ms ({ingest_rps:.0} rec/s)");

    // Phase 2: one full round, then one warm-started delta round.
    let t0 = Instant::now();
    assert_eq!(
        published_version(retrain(&log_path, &root, &sp, false).expect("v1")),
        1
    );
    let retrain_full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (mut log, _) = open_or_create_log(&log_path, None).expect("reopen");
    for u in 0..cfg.num_users {
        log.append(u, (u * 31 + 5) % cfg.num_items + 1)
            .expect("append");
    }
    log.sync().expect("sync");
    drop(log);
    let t0 = Instant::now();
    assert_eq!(
        published_version(retrain(&log_path, &root, &sp, false).expect("v2")),
        2
    );
    let retrain_delta_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("  retrain: full {retrain_full_ms:.1} ms, delta {retrain_delta_ms:.1} ms");

    // Phase 3: hot swaps under a live reader. The reader times every
    // engine-snapshot acquisition; swaps land concurrently.
    let booted = load_current(&log_path, &root)
        .expect("load")
        .expect("published");
    let engine = Engine::new(
        booted.model.into(),
        EngineConfig {
            workers: 1,
            max_len: sp.arch.max_len,
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    let (l, r) = (log_path.clone(), root.clone());
    let slot = Arc::new(EngineSlot::reloadable(
        engine,
        booted.version,
        Box::new(move |current| {
            Ok(load_newer(&l, &r, current)?.map(|newer| LoadedModel {
                model: newer.model.into(),
                version: newer.version,
            }))
        }),
    ));

    let pauses = Arc::new(LatencyHistogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (slot, pauses, stop) = (Arc::clone(&slot), Arc::clone(&pauses), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                let engine = slot.engine();
                pauses.record_us(t.elapsed().as_micros() as u64);
                let _ = engine.recommend(0, &[3, 9, 4, 1], 8);
            }
        })
    };

    let mut swap_ms_total = 0.0f64;
    for i in 0..cfg.swaps {
        let (mut log, _) = open_or_create_log(&log_path, None).expect("reopen");
        for u in 0..cfg.num_users {
            log.append(u, (u * 17 + i * 3 + 11) % cfg.num_items + 1)
                .expect("append");
        }
        log.sync().expect("sync");
        drop(log);
        retrain(&log_path, &root, &sp, false).expect("delta round");
        let t0 = Instant::now();
        let outcome = slot.reload().expect("reload");
        swap_ms_total += t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            matches!(outcome, ReloadOutcome::Swapped { .. }),
            "each round must publish something newer"
        );
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    let final_version = slot.stats().model_version();
    assert_eq!(
        final_version,
        2 + cfg.swaps as u64,
        "every swap must have landed"
    );
    slot.shutdown();

    let pause_p50_ms = pauses.quantile_ms(0.50);
    let pause_p99_ms = pauses.quantile_ms(0.99);
    let swap_mean_ms = swap_ms_total / cfg.swaps as f64;
    eprintln!(
        "  swap: {} swaps, mean {:.1} ms each; engine-snapshot pause p50 {:.3} ms, p99 {:.3} ms \
         over {} acquisitions",
        cfg.swaps,
        swap_mean_ms,
        pause_p50_ms,
        pause_p99_ms,
        pauses.count()
    );

    let doc = Obj::new()
        .field("bench", "stream")
        .field("fast", cfg.fast)
        .field("threads", threads)
        .field("ingest_records", ingest_records)
        .field("ingest_records_per_sec", ingest_rps)
        .field("retrain_full_ms", retrain_full_ms)
        .field("retrain_delta_ms", retrain_delta_ms)
        .field("swaps", cfg.swaps)
        .field("swap_mean_ms", swap_mean_ms)
        .field("final_model_version", final_version)
        .field("pause_samples", pauses.count())
        .field("swap_pause_p50_ms", pause_p50_ms)
        .field("swap_pause_p99_ms", pause_p99_ms);
    let parsed = write_report("stream", doc);
    for field in [
        "ingest_records",
        "swaps",
        "pause_samples",
        "final_model_version",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_usize()).is_some(),
            "missing field {field}"
        );
    }
    for field in [
        "ingest_records_per_sec",
        "retrain_full_ms",
        "retrain_delta_ms",
        "swap_pause_p99_ms",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_f64()).is_some(),
            "missing field {field}"
        );
    }

    println!(
        "bench_stream: {:.0} rec/s ingest, {:.1} ms delta retrain, {:.3} ms swap-pause p99",
        ingest_rps, retrain_delta_ms, pause_p99_ms
    );
}
