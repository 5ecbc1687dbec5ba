//! End-to-end and per-layer benchmark of the SSDRec workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train-short|serve-mix|online-loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it records spans around the calls
//! into each layer and reports the per-layer metrics. Either way it checks
//! the program's outputs, writes a human-readable report (with the host
//! fingerprint) to stderr, and prints one JSON result as the last line of
//! stdout. `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; `benchmark/README.md` explains them.

mod common;
mod host;
mod layers;
mod online;
mod serve;
mod stats;
mod trace;
mod train;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use common::Out;
use trace::Tracer;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["train-short", "serve-mix", "online-loop"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("train_examples_per_s", "ex/s"),
    ("eval_examples_per_s", "ex/s"),
    ("test_ndcg10", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("serve_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("freshness_s", "s"),
];

/// Per-layer metrics every traced run reports. A layer a workload does not
/// run reports 0 and is listed as bypassed in the report.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("data.encode_s", "s"),
    ("data.batch_s", "s"),
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("core.densify_s", "s"),
    ("core.relation_encoder.fwd_s", "s"),
    ("core.relation_encoder.bwd_s", "s"),
    ("core.relation_encoder.share", "ratio"),
    ("core.augment_s", "s"),
    ("core.denoise_s", "s"),
    ("models.backbone_s", "s"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.optimizer_s", "s"),
    ("train.self_s", "s"),
    ("train.nonfinite_batches", "count"),
    ("train.steps", "count"),
    ("tensor.gemm_gflops.relation", "GFLOP/s"),
    ("tensor.gemm_gflops.backbone", "GFLOP/s"),
    ("tensor.pool_hit_rate", "ratio"),
    ("runtime.step_speedup", "ratio"),
    ("metrics.rank_s", "s"),
    ("metrics.top_k_us", "us"),
    ("serve.p90_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.engine_p99_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.forward_ms", "ms"),
    ("serve.json_parse_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.worker_busy", "ratio"),
    ("serve.precompute_s", "s"),
    ("serve.max_rps", "1/s"),
    ("stream.append_per_s", "1/s"),
    ("stream.replay_s", "s"),
    ("stream.materialize_s", "s"),
    ("stream.retrain_s", "s"),
    ("stream.train_s", "s"),
    ("stream.publish_s", "s"),
    ("swap.reload_s", "s"),
    ("swap.window_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.p99_ms.r100", "ms"),
    ("loadgen.p99_ms.r200", "ms"),
    ("loadgen.p99_ms.r400", "ms"),
    ("loadgen.p99_ms.r800", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.succeeded", "count"),
    ("loadgen.failed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {val:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let t0 = Instant::now();
    let mut tr = Tracer::new(args.trace);
    let mut out = Out::new();
    eprintln!(
        "benchmark {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    eprintln!("host: {}", host::fingerprint_json(&root));
    let ticks0 = host::cpu_ticks();
    match args.workload.as_str() {
        "train-short" => train::run(args.seed, args.seconds, &root, &mut tr, &mut out),
        "serve-mix" => serve::run(args.seed, args.seconds, &root, &mut tr, &mut out),
        "online-loop" => online::run(args.seed, args.seconds, &root, &mut tr, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    out.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let wall = t0.elapsed().as_secs_f64();
    if let (Some((s0, n0)), Some((s1, n1))) = (ticks0, host::cpu_ticks()) {
        out.note(format!(
            "host: {:.1}% of CPU time was stolen by the hypervisor during the run",
            100.0 * s1.saturating_sub(s0) as f64 / n1.saturating_sub(n0).max(1) as f64
        ));
    }
    if args.trace {
        let cov = trace::coverage(tr.spans(), tr.elapsed());
        out.put("trace.coverage", cov, "ratio");
        out.note(format!(
            "trace: {} spans; top-level spans cover {:.1}% of the {wall:.2} s run",
            tr.spans().len(),
            cov * 100.0
        ));
        write_trace(&root, &args, &tr);
    }
    out.put(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    finish(&args, &out, wall)
}

fn write_trace(root: &Path, args: &Args, tr: &Tracer) {
    let dir = root.join(".bench-out");
    let _ = std::fs::create_dir_all(&dir);
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"spans\":{},\"self_time\":{{",
        args.workload,
        args.seed,
        host::fingerprint_json(root),
        tr.to_json()
    );
    for (i, (name, (calls, total, selft))) in trace::by_name(tr.spans()).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n\"{name}\":{{\"calls\":{calls},\"total_s\":{total},\"self_s\":{selft}}}"
        );
    }
    s.push_str("\n}}\n");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::write(&path, s) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn finish(args: &Args, out: &Out, wall: f64) -> ExitCode {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = out.failed == 0;
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&(v, u)) => {
                assert_eq!(u, unit, "unit of {name}");
                v
            }
            None if args.trace => {
                eprintln!("  {name}: bypassed on {}", args.workload);
                0.0
            }
            None => {
                eprintln!("error: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("error: metric {name} is {value}");
            correct = false;
            if value > 0.0 {
                f64::MAX
            } else {
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    eprintln!("--- {} seed {} ({wall:.2} s) ---", args.workload, args.seed);
    for (name, (v, u)) in &out.metrics {
        eprintln!("  {name} = {v} {u}");
    }
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_serve::json::{self, Json};

    fn names(v: &Json, key: &str) -> Vec<(String, Option<String>)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("valid JSON");
        let want = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), want(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.25, "s"), ("x", 1.0, "count")]);
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("failed").and_then(Json::as_usize), Some(0));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            m.get("x")
                .and_then(|x| x.get("unit"))
                .and_then(Json::as_str),
            Some("count")
        );
    }
}
