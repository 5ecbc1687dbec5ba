//! The one bench-report path: where reports land, which mode a run is in,
//! the percentile rule, and the writer every `BENCH_*.json` goes through.

use std::path::{Path, PathBuf};

use ssdrec_serve::json::{self, Json, Obj};

/// The workspace root: the outermost ancestor of the current directory
/// holding a `Cargo.lock` (cargo runs bench and bin targets with cwd = the
/// package dir), else the current directory itself.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("current directory");
    root_of(&cwd)
}

fn root_of(dir: &Path) -> PathBuf {
    dir.ancestors()
        .filter(|a| a.join("Cargo.lock").is_file())
        .last()
        .unwrap_or(dir)
        .to_path_buf()
}

/// `target/ssdrec-bench` under the workspace root, created if missing: the
/// home of every report, latency CSV and scratch work directory.
pub fn bench_dir() -> PathBuf {
    let dir = workspace_root().join("target").join("ssdrec-bench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// How much work a bench run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The CI smoke: the smallest run that still exercises every path.
    Fast,
    /// The default scale.
    Default,
    /// The largest scale a binary supports.
    Full,
}

impl Mode {
    /// This process's mode: `SSDREC_BENCH_FAST=1` or `--fast` selects
    /// fast, else `--full` selects full, else default.
    pub fn current() -> Mode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Mode::resolve(std::env::var("SSDREC_BENCH_FAST").ok().as_deref(), &args)
    }

    /// [`Mode::current`] for a given `SSDREC_BENCH_FAST` value and
    /// argument list.
    pub fn resolve(fast_env: Option<&str>, args: &[String]) -> Mode {
        let has = |flag: &str| args.iter().any(|a| a == flag);
        if fast_env == Some("1") || has("--fast") {
            Mode::Fast
        } else if has("--full") {
            Mode::Full
        } else {
            Mode::Default
        }
    }

    /// `"fast"`, `"default"` or `"full"`.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Default => "default",
            Mode::Full => "full",
        }
    }

    /// Whether this is the fast smoke.
    pub fn is_fast(self) -> bool {
        self == Mode::Fast
    }
}

/// The value at quantile `q` of an ascending, non-empty slice, by the
/// nearest-rank rule of [`ssdrec_serve::nearest_rank`] (the rule the
/// serving histogram uses too).
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[ssdrec_serve::nearest_rank(q, sorted.len()) - 1]
}

/// Peak resident set size of this process in bytes (`VmHWM` in
/// `/proc/self/status`), or 0 where procfs is unavailable so the report
/// field is always present.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Write `text` to `target/ssdrec-bench/<name>.json`, returning the path.
pub(crate) fn save_json(name: &str, text: &str) -> PathBuf {
    let path = bench_dir().join(format!("{name}.json"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Finish `doc`, check it parses, and write it to
/// `target/ssdrec-bench/<name>.json` and `BENCH_<name>.json` at the
/// workspace root. Returns the parsed document for the caller's field
/// checks.
pub fn write_report(name: &str, doc: Obj) -> Json {
    let text = doc.finish() + "\n";
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
    save_json(name, &text);
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_precedence() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for (env, argv, want) in [
            (None, args(&[]), Mode::Default),
            (None, args(&["--fast"]), Mode::Fast),
            (None, args(&["--full"]), Mode::Full),
            (None, args(&["--full", "--fast"]), Mode::Fast),
            (None, args(&["--fast", "--full"]), Mode::Fast),
            (Some("1"), args(&[]), Mode::Fast),
            (Some("1"), args(&["--full"]), Mode::Fast),
            (Some("0"), args(&[]), Mode::Default),
            (Some("0"), args(&["--full"]), Mode::Full),
            (Some("0"), args(&["--fast"]), Mode::Fast),
            (Some(""), args(&["--bench"]), Mode::Default),
            (None, args(&["--retrieval", "--fast"]), Mode::Fast),
            (None, args(&["--datasets", "beauty", "--full"]), Mode::Full),
        ] {
            assert_eq!(Mode::resolve(env, &argv), want, "env {env:?} args {argv:?}");
        }
    }

    #[test]
    fn root_is_the_outermost_lockfile_ancestor() {
        let base = std::env::temp_dir().join(format!("ssdrec-root-{}", std::process::id()));
        let nested = base.join("ws").join("crates").join("bench").join("src");
        std::fs::create_dir_all(&nested).unwrap();
        // A stray lockfile deeper down (a nested workspace) does not win.
        std::fs::write(base.join("ws").join("Cargo.lock"), "").unwrap();
        std::fs::write(base.join("ws").join("crates").join("Cargo.lock"), "").unwrap();
        assert_eq!(root_of(&nested), base.join("ws"));
        // No lockfile anywhere above: the directory itself.
        let bare = base.join("bare");
        std::fs::create_dir_all(&bare).unwrap();
        assert_eq!(root_of(&bare), bare);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn workspace_root_holds_this_workspace() {
        let root = workspace_root();
        assert!(root.join("Cargo.lock").is_file());
        assert!(root.join("crates").join("bench").is_dir());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.5), 3.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 5.0);
        assert_eq!(percentile(&data, 0.2), 1.0);
        assert_eq!(percentile(&data, 0.21), 2.0);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.07), 7);
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&[4u64, 9], 0.5), 4);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0, "VmHWM should be readable on Linux");
        }
    }
}
