//! Pieces every workload shares: the metric sink, the work directory, the
//! request mix, the HTTP server under test, the open-loop load generator and
//! the output checks on served answers.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{BatchSource, Example};
use ssdrec_graph::MultiRelationGraph;
use ssdrec_models::{evaluate_source_with, RecModel};
use ssdrec_serve::{
    json, Engine, EngineConfig, EngineSlot, ServeConfig, ServerHandle, ServerStats,
};
use ssdrec_tensor::{Graph, Rng};

use crate::stats::{self, Timing};

/// Metrics and check counts collected by one run.
pub struct Out {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Output checks attempted (requests, training runs, version checks).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Out {
    /// An empty sink.
    pub fn new() -> Out {
        Out {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Add a phase's request counts to the `loadgen.*` totals.
    pub fn count_requests(&mut self, sent: usize, failed: usize) {
        for (name, n) in [
            ("loadgen.sent", sent),
            ("loadgen.succeeded", sent - failed),
            ("loadgen.failed", failed),
        ] {
            let prev = self.metrics.get(name).map_or(0.0, |m| m.0);
            self.put(name, prev + n as f64, "count");
        }
    }

    /// Add a line to the report on stderr.
    pub fn note(&self, line: String) {
        eprintln!("  {line}");
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench-work/<workload>-<pid>` under `root`.
    pub fn new(root: &Path, workload: &str) -> WorkDir {
        let p = root
            .join(".bench-work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create the benchmark work directory");
        WorkDir(p)
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Build a fresh SSDRec skeleton and load the parameters saved at `path`.
pub fn load_model(graph: &MultiRelationGraph, cfg: &SsdRecConfig, path: &Path) -> SsdRec {
    let mut m = SsdRec::new(graph, cfg.clone());
    ssdrec_tensor::load_params(&mut m.store, path).expect("load a checkpoint this run saved");
    m
}

/// Seconds of one full-catalogue valid + test ranking pass.
pub fn eval_pass<M: RecModel>(
    model: &M,
    valid: &[Example],
    test: &[Example],
    batch: usize,
    g: &mut Graph,
) -> f64 {
    let t = Instant::now();
    for split in [valid, test] {
        let acc = evaluate_source_with(model, &split as &dyn BatchSource, batch, g);
        std::hint::black_box(acc.len());
    }
    secs(t)
}

/// One recommendation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    /// User id.
    pub user: usize,
    /// History, oldest first.
    pub seq: Vec<usize>,
    /// List length.
    pub k: usize,
}

impl Req {
    /// The JSON request body.
    pub fn body(&self) -> String {
        let seq: Vec<String> = self.seq.iter().map(|i| i.to_string()).collect();
        format!(
            "{{\"user\":{},\"seq\":[{}],\"k\":{}}}",
            self.user,
            seq.join(","),
            self.k
        )
    }
}

/// A seeded request mix over the users' histories: history lengths drawn
/// uniformly from 1 to the full history (so lengths are mixed), `k` from
/// {5, 10, 20}, and a `repeat_share` of requests repeating an earlier
/// request exactly (session-cache hits).
pub fn request_mix(
    histories: &[(usize, Vec<usize>)],
    n: usize,
    repeat_share: f64,
    seed: u64,
) -> Vec<Req> {
    let mut rng = Rng::seed(seed ^ 0x5e55_10a5);
    let mut out: Vec<Req> = Vec::with_capacity(n);
    for _ in 0..n {
        if !out.is_empty() && rng.next_f64() < repeat_share {
            let j = (rng.next_u64() % out.len() as u64) as usize;
            out.push(out[j].clone());
            continue;
        }
        let (user, hist) = &histories[(rng.next_u64() % histories.len() as u64) as usize];
        let len = 1 + (rng.next_u64() % hist.len() as u64) as usize;
        let k = [5, 10, 20][(rng.next_u64() % 3) as usize];
        out.push(Req {
            user: *user,
            seq: hist[hist.len() - len..].to_vec(),
            k,
        });
    }
    out
}

/// The exact body the server must return for `items` (the HTTP layer's
/// formatting, re-derived here from the offline answer).
pub fn expected_body(user: usize, k: usize, items: &[(usize, f32)], batch_size: usize) -> String {
    let ids: Vec<String> = items.iter().map(|(i, _)| i.to_string()).collect();
    let scores: Vec<String> = items.iter().map(|(_, s)| json::f32_to_json(*s)).collect();
    format!(
        "{{\"user\":{user},\"k\":{k},\"items\":[{}],\"scores\":[{}],\"batch_size\":{batch_size}}}",
        ids.join(","),
        scores.join(",")
    )
}

/// Compare a served body with the offline recommendation, byte for byte
/// (the batch size is the only field that depends on timing).
pub fn body_matches(body: &str, req: &Req, offline: &[(usize, f32)]) -> bool {
    let Ok(v) = json::parse(body) else {
        return false;
    };
    let Some(bs) = v.get("batch_size").and_then(|b| b.as_usize()) else {
        return false;
    };
    body == expected_body(req.user, req.k, offline, bs)
}

/// A server on an ephemeral localhost port.
pub struct Server {
    /// The running server.
    pub handle: ServerHandle,
    /// Its address.
    pub addr: SocketAddr,
}

impl Server {
    /// Serve `slot` on `127.0.0.1:0`.
    pub fn start(slot: EngineSlot) -> Server {
        let handle = ssdrec_serve::serve_slot(slot, "127.0.0.1:0", ServeConfig::default())
            .expect("bind a localhost port");
        let addr = handle.addr();
        Server { handle, addr }
    }

    /// Serve a fixed model with `cfg`.
    pub fn fixed(model: SsdRec, cfg: EngineConfig) -> Server {
        let engine = Engine::new(model.into(), cfg, Arc::new(ServerStats::new()));
        Server::start(EngineSlot::fixed(engine))
    }

    /// `POST /recommend`; `Some(body)` on HTTP 200.
    pub fn recommend(&self, req: &Req) -> Option<String> {
        match ssdrec_serve::client::post(self.addr, "/recommend", &req.body()) {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    }

    /// `GET path` → parsed JSON.
    pub fn get_json(&self, path: &str) -> Option<json::Json> {
        match ssdrec_serve::client::get(self.addr, path) {
            Ok((200, body)) => json::parse(&body).ok(),
            _ => None,
        }
    }

    /// Stop accepting, join the server's threads and the engine's workers.
    pub fn stop(mut self) {
        self.handle.shutdown();
        self.handle.slot().shutdown();
    }
}

/// One fixed-rate open-loop phase. Request `i` is due at `t0 + i / rate`;
/// `senders` threads take requests in due order, wait for the due time,
/// and time each request from it. `send(i)` returns whether request `i`
/// succeeded. Timings are in due order.
pub fn open_loop(
    rate: f64,
    n: usize,
    senders: usize,
    t0: Instant,
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Timing> {
    // Past the schedule's end plus a grace period the backlog has shown
    // itself; requests still unsent then are dropped from the phase.
    let deadline = t0 + Duration::from_secs_f64(stats::due_time(n, rate) + 0.5);
    let stop = || Instant::now() > deadline;
    open_loop_until(rate, n, senders, t0, &stop, send)
}

/// [`open_loop`] that stops taking new requests once `stop()` is true.
pub fn open_loop_until(
    rate: f64,
    n: usize,
    senders: usize,
    t0: Instant,
    stop: &(dyn Fn() -> bool + Sync),
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Timing> {
    let next = AtomicUsize::new(0);
    let mut all: Vec<(usize, Timing)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n || stop() {
                            return mine;
                        }
                        let due = stats::due_time(i, rate);
                        let due_at = t0 + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = secs_between(t0, Instant::now());
                        let ok = send(i);
                        let done = secs_between(t0, Instant::now());
                        mine.push((
                            i,
                            Timing {
                                due,
                                sent,
                                done,
                                ok,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load-generator thread panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Seconds from `a` to `b` (0 if `b` precedes `a`).
pub fn secs_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Latency (ms from due) and lateness (ms) summaries of a phase.
pub struct PhaseStats {
    /// Offered rate.
    pub rate: f64,
    /// Latency summary in ms, failures as infinity.
    pub latency: stats::Summary,
    /// Median of the p90s of five consecutive fifths of the phase, ms.
    pub p90: f64,
    /// Lateness summary in ms.
    pub late: stats::Summary,
    /// Requests sent.
    pub sent: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Whether the backlog grew.
    pub backlog: bool,
}

/// Backlog growth limit for [`stats::backlog_grows`], seconds.
pub const BACKLOG_LIMIT_S: f64 = 0.010;

/// Summarise a phase.
pub fn phase_stats(rate: f64, t: &[Timing]) -> PhaseStats {
    let lat: Vec<f64> = t.iter().map(|x| x.latency_s() * 1e3).collect();
    let late: Vec<f64> = t.iter().map(|x| x.late_s() * 1e3).collect();
    PhaseStats {
        rate,
        p90: stats::chunked_tail(&lat, 5, 0.9),
        latency: stats::summarize(&lat),
        late: stats::summarize(&late),
        sent: t.len(),
        failed: t.iter().filter(|x| !x.ok).count(),
        backlog: stats::backlog_grows(t, BACKLOG_LIMIT_S),
    }
}

impl PhaseStats {
    /// One report line.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label}: {:.0} req/s offered, sent {} ok {} failed {}, latency p50 {:.3} ms \
             p{:.1} {:.3} ms (n={}; p90 median over fifths {:.3} ms), late p{:.1} {:.3} ms, \
             backlog {}",
            self.rate,
            self.sent,
            self.sent - self.failed,
            self.failed,
            self.latency.p50,
            self.latency.tail_q * 100.0,
            self.latency.tail,
            self.latency.n,
            self.p90,
            self.late.tail_q * 100.0,
            self.late.tail,
            if self.backlog { "GROWING" } else { "steady" }
        )
    }
}

/// Sender threads (and so connections in flight) for the load generator:
/// one per CPU, at most four.
pub fn senders() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}
