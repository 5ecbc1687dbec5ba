//! Host fingerprint and process memory, so numbers from different hosts or
//! builds are never compared by accident.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`. Time the
/// hypervisor gives to other guests slows every timing in a run, so the
/// report states the share stolen while the run measured.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user, nice, system, idle, iowait, irq, softirq, steal; the guest
    // fields that follow are already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn cpu_model_and_flags() -> (String, Vec<&'static str>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let flags_line = info
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or_default();
    let flags = ["avx2", "avx512f", "fma"]
        .into_iter()
        .filter(|f| flags_line.split_whitespace().any(|x| x == *f))
        .collect();
    (model, flags)
}

/// The revision of the checked-out tree, read from `.git` when the checkout
/// is a git repository (no subprocess).
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// One JSON object describing the host and build.
pub fn fingerprint_json(root: &Path) -> String {
    let (model, flags) = cpu_model_and_flags();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let compiled: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("fma", cfg!(target_feature = "fma")),
    ]
    .into_iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| f)
    .collect();
    let q = ssdrec_serve::json::quote;
    format!(
        "{{\"cpu_model\":{},\"cpu_features\":{},\"nproc\":{},\"ssdrec_threads\":{},\
         \"ssdrec_threads_env\":{},\"rustflags\":{},\"compiled_target_features\":{},\
         \"kernel_backend\":{},\"git_revision\":{}}}",
        q(&model),
        q(&flags.join(",")),
        nproc,
        ssdrec_runtime::threads(),
        q(&std::env::var("SSDREC_THREADS").unwrap_or_else(|_| "unset".into())),
        q(option_env!("RUSTFLAGS").unwrap_or("")),
        q(&compiled.join(",")),
        q(ssdrec_tensor::backend_kind().name()),
        q(&git_revision(root)),
    )
}
