//! Serving phases and the `serve-mix` workload: an in-process HTTP server
//! with the default `EngineConfig`, driven open loop at fixed rates from
//! this process, with answers checked against offline recommendations.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::Batch;
use ssdrec_graph::MultiRelationGraph;
use ssdrec_models::{train_from_source, RecModel, SourceSplit};
use ssdrec_serve::{json, Engine, EngineConfig, ServerStats};
use ssdrec_tensor::Graph;

use crate::common::{
    body_matches, load_model, open_loop, phase_stats, request_mix, secs, senders, Out, PhaseStats,
    Req, Server, WorkDir,
};
use crate::stats::{self, Rung};
use crate::trace::Tracer;
use crate::train::{self, result_bits};

/// Tail-latency limit for the `serve.max_rps` ladder, ms.
pub const TAIL_LIMIT_MS: f64 = 50.0;

/// Share of `--seconds` `serve-mix` spends on timed training runs and
/// evaluation passes (its set-ups and rate ladder take most of the rest).
const TIMED_SHARE: f64 = 0.4;

/// Every `SAMPLE_EVERY`-th request (from a seeded offset) is checked byte
/// for byte against the offline recommendation.
const SAMPLE_EVERY: usize = 16;

/// What a serving phase drives.
pub struct ServePlan<'a> {
    /// Graph the served model was built on (to load checkpoint copies).
    pub graph: &'a MultiRelationGraph,
    /// Model configuration.
    pub cfg: &'a SsdRecConfig,
    /// `(user, history)` pairs requests are drawn from.
    pub histories: &'a [(usize, Vec<usize>)],
    /// Share of requests repeating an earlier one.
    pub repeat_share: f64,
    /// Offered rates, ascending.
    pub rates: Vec<f64>,
    /// The rate whose latency is the workload's `serve_p50_ms`/`p99`.
    pub reference_rate: f64,
    /// Seconds of traffic at the reference rate.
    pub reference_secs: f64,
    /// Seconds of traffic at every other rate.
    pub rung_secs: f64,
    /// Workload seed.
    pub seed: u64,
}

/// The engine configuration served: the default, with the model's window.
pub fn engine_cfg(max_len: usize) -> EngineConfig {
    EngineConfig {
        max_len,
        ..EngineConfig::default()
    }
}

/// Save `model`, load it back into a fresh skeleton, start the server and
/// wait for its first answer. Returns the server and the seconds from the
/// start of publishing to that first answer.
pub fn publish_and_start(
    model: &SsdRec,
    graph: &MultiRelationGraph,
    cfg: &SsdRecConfig,
    first: &Req,
    work: &WorkDir,
    tr: &mut Tracer,
    out: &mut Out,
) -> (Server, f64) {
    let sp = tr.enter("serve.publish_and_start");
    let t = Instant::now();
    let path = work.path("model.ssdt");
    ssdrec_tensor::save_params(&model.store, &path).expect("save the trained model");
    let served = load_model(graph, cfg, &path);
    let server = Server::fixed(served, engine_cfg(cfg.max_len));
    let body = server.recommend(first);
    let fresh = secs(t);
    tr.exit(sp);
    let offline = model.recommend(first.user, &first.seq, first.k);
    out.check(
        body.as_deref()
            .is_some_and(|b| body_matches(b, first, &offline)),
        || format!("first answer after publishing differs from offline: {body:?}"),
    );
    (server, fresh)
}

/// Drive `server` over HTTP at every rate of `plan`, check a seeded sample
/// of answers against `model`, and record the serving metrics.
pub fn drive(
    server: &Server,
    model: &SsdRec,
    plan: &ServePlan<'_>,
    tr: &mut Tracer,
    out: &mut Out,
) {
    let mut rungs = Vec::new();
    let mut reference: Option<PhaseStats> = None;
    for &rate in &plan.rates {
        let secs_at = if rate == plan.reference_rate {
            plan.reference_secs
        } else {
            plan.rung_secs
        };
        let n = (rate * secs_at).round() as usize;
        let reqs = request_mix(
            plan.histories,
            n,
            plan.repeat_share,
            plan.seed ^ rate as u64,
        );
        let offset = (plan.seed as usize) % SAMPLE_EVERY;
        let sampled: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let sp = tr.enter("loadgen.phase");
        let timings = open_loop(
            rate,
            reqs.len(),
            senders(),
            Instant::now(),
            |i| match server.recommend(&reqs[i]) {
                Some(body) => {
                    let ok = body.starts_with("{\"user\":");
                    if i % SAMPLE_EVERY == offset {
                        sampled.lock().expect("sample lock").push((i, body));
                    }
                    ok
                }
                None => false,
            },
        );
        tr.exit(sp);
        let mut ps = phase_stats(rate, &timings);
        for t in &timings {
            out.check(t.ok, || format!("request failed at {rate} req/s"));
        }
        let sp = tr.enter("serve.check");
        let sampled = sampled.into_inner().expect("sample lock");
        let mut wrong = 0;
        for (i, body) in &sampled {
            let r = &reqs[*i];
            let offline = model.recommend(r.user, &r.seq, r.k);
            let ok = body_matches(body, r, &offline);
            if !ok {
                wrong += 1;
            }
            out.check(ok, || {
                format!("served answer differs from offline for {r:?}: {body}")
            });
        }
        tr.exit(sp);
        ps.failed += wrong;
        out.count_requests(ps.sent, ps.failed);
        out.note(ps.line(&format!("http phase ({} answers checked)", sampled.len())));
        out.put(&format!("loadgen.p99_ms.r{rate}"), ps.latency.tail, "ms");
        rungs.push(Rung {
            rate,
            tail_s: ps.latency.tail / 1e3,
            backlog: ps.backlog,
        });
        if rate == plan.reference_rate {
            reference = Some(ps);
        }
    }
    let reference = reference.expect("the reference rate is one of the rates");
    out.put("serve_p50_ms", reference.latency.p50, "ms");
    out.put("serve.p90_ms", reference.p90, "ms");
    out.put("serve.p99_ms", reference.latency.tail, "ms");
    out.put(
        "success_rate",
        1.0 - reference.failed as f64 / reference.sent as f64,
        "ratio",
    );
    out.put("loadgen.late_p99_ms", reference.late.tail, "ms");
    let max_rps = stats::max_passing_rate(&rungs, TAIL_LIMIT_MS / 1e3).unwrap_or(0.0);
    out.put("serve.max_rps", max_rps, "1/s");

    if let Some(m) = server.get_json("/metrics") {
        let n = |a: &str, b: &str| {
            m.get(a)
                .and_then(|x| x.get(b))
                .and_then(|x| x.as_f64())
                .unwrap_or(f64::NAN)
        };
        let hits = n("cache", "hits");
        let misses = n("cache", "misses");
        out.put("serve.cache_hit_rate", hits / (hits + misses), "ratio");
        out.put(
            "serve.batch_mean",
            n("batching", "batched_requests_total") / n("batching", "batches_total"),
            "count",
        );
        let busy: Vec<f64> = m
            .get("workers")
            .and_then(|w| w.get("busy_fraction"))
            .and_then(|b| b.as_arr())
            .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
            .unwrap_or_default();
        out.put(
            "serve.worker_busy",
            busy.iter().sum::<f64>() / busy.len().max(1) as f64,
            "ratio",
        );
    }

    if tr.is_on() {
        engine_layers(model, plan, reference.latency.p50, tr, out);
    }
}

/// Traced-run serving layers: the engine in-process on the same mix, the
/// frozen forward, request JSON parsing and top-k.
fn engine_layers(
    model: &SsdRec,
    plan: &ServePlan<'_>,
    http_p50: f64,
    tr: &mut Tracer,
    out: &mut Out,
) {
    let reqs = request_mix(
        plan.histories,
        (plan.reference_rate * plan.reference_secs.min(3.0)).round() as usize,
        plan.repeat_share,
        plan.seed ^ plan.reference_rate as u64,
    );

    // A second engine over an identical copy of the parameters.
    let mut copy = SsdRec::new(plan.graph, plan.cfg.clone());
    copy.store.restore(&model.store.snapshot());
    let engine = Engine::new(
        copy.into(),
        engine_cfg(plan.cfg.max_len),
        Arc::new(ServerStats::new()),
    );
    let sp = tr.enter("serve.engine_phase");
    // Wait until every worker has precomputed its frozen tables, as the
    // HTTP server had before its phases.
    for r in reqs.iter().take(2 * engine.config().workers) {
        let _ = engine.recommend(r.user, &r.seq, r.k);
    }
    let timings = open_loop(
        plan.reference_rate,
        reqs.len(),
        senders(),
        Instant::now(),
        |i| {
            let r = &reqs[i];
            engine.recommend(r.user, &r.seq, r.k).is_ok()
        },
    );
    tr.exit(sp);
    engine.shutdown();
    let ps = phase_stats(plan.reference_rate, &timings);
    out.note(ps.line("engine in-process"));
    out.put("serve.engine_p50_ms", ps.latency.p50, "ms");
    out.put("serve.engine_p99_ms", ps.latency.tail, "ms");
    out.put("serve.http_overhead_ms", http_p50 - ps.latency.p50, "ms");

    // Frozen forward at batch 1 and the median history length.
    let mut lens: Vec<usize> = reqs.iter().map(|r| r.seq.len()).collect();
    lens.sort_unstable();
    let med_len = lens[lens.len() / 2];
    let probes: Vec<&Req> = reqs
        .iter()
        .filter(|r| r.seq.len() == med_len)
        .take(50)
        .collect();
    let mut g = Graph::inference();
    let bind = model.store().bind_all(&mut g);
    let sp = tr.enter("serve.precompute");
    let t = Instant::now();
    let frozen = model.precompute_frozen(&mut g, &bind);
    out.put("serve.precompute_s", secs(t), "s");
    tr.exit(sp);
    let mark = g.mark();
    let mut fwd = Vec::new();
    let mut topk = Vec::new();
    let sp = tr.enter("serve.forward");
    for r in probes.iter().cycle().take(100) {
        let batch = Batch {
            users: vec![r.user],
            items: r.seq.clone(),
            seq_len: r.seq.len(),
            targets: vec![r.seq[r.seq.len() - 1]],
            noise: None,
        };
        let t = Instant::now();
        let scores = model.eval_scores_frozen(&mut g, &bind, &batch, &frozen);
        fwd.push(secs(t) * 1e3);
        let t = Instant::now();
        let top = ssdrec_metrics::par_top_k(g.value(scores).data(), r.k);
        topk.push(secs(t) * 1e6);
        std::hint::black_box(top);
        g.truncate(mark);
    }
    tr.exit(sp);
    out.put("serve.forward_ms", stats::median(&fwd), "ms");
    out.put("metrics.top_k_us", stats::median(&topk), "us");

    let bodies: Vec<String> = reqs.iter().map(Req::body).collect();
    let mut parse = Vec::new();
    for b in bodies.iter().cycle().take(2000) {
        let t = Instant::now();
        std::hint::black_box(json::parse(b).is_ok());
        parse.push(secs(t) * 1e6);
    }
    out.put("serve.json_parse_us", stats::median(&parse), "us");
}

/// `serve-mix`: set up (data, graph, model, a short training run, publish,
/// engine start) several times, then drive the last server over a ladder of
/// fixed rates.
pub fn run(seed: u64, seconds: f64, root: &Path, tr: &mut Tracer, out: &mut Out) {
    let work = WorkDir::new(root, "serve");
    let profile = ssdrec_data::SyntheticConfig::beauty().scaled(2.0);
    let mut setups = Vec::new();
    let mut publish = Vec::new();
    let mut walls = Vec::new();
    let mut last = None;
    // The traced run reports no end-to-end metric: one set-up will do.
    let setups_n = if tr.is_on() { 1 } else { 3 };
    let tc = train::train_cfg();
    for _ in 0..setups_n {
        if let Some((s, _, _, _)) = last.take() {
            Server::stop(s);
        }
        let t = Instant::now();
        let sp_setup = tr.enter("setup.serve");
        let (prep, mut model) = train::setup(&profile, &work, tr, out);
        let (a, b, c) = (
            &prep.split.train[..],
            &prep.split.valid[..],
            &prep.split.test[..],
        );
        let src = SourceSplit {
            train: &a,
            valid: &b,
            test: &c,
        };
        let sp = tr.enter("train.run");
        let t_train = Instant::now();
        let report = train_from_source(&mut model, &src, &tc, None, None)
            .expect("training without checkpoints cannot fail");
        let train_s = secs(t_train);
        tr.exit(sp);
        let e = &prep.split.test[0];
        let first = Req {
            user: e.user,
            seq: e.seq.clone(),
            k: 10,
        };
        let (server, fresh) =
            publish_and_start(&model, &prep.graph, &prep.cfg, &first, &work, tr, out);
        tr.exit(sp_setup);
        setups.push(secs(t));
        walls.push(train_s);
        publish.push(fresh);
        last = Some((server, prep, model, report));
    }
    let (server, prep, model, report) = last.expect("at least one set-up");
    out.put("setup_s", stats::median(&setups), "s");
    out.put("test_ndcg10", report.test.ndcg10, "ratio");
    out.note(format!(
        "set-up (data, graph, 1-epoch train, publish, start): median {:.3} s; {} users, {} \
         items; test NDCG@10 {:.4}",
        stats::median(&setups),
        prep.dataset.num_users,
        prep.dataset.num_items,
        report.test.ndcg10
    ));
    // The traced run reports no end-to-end metric. Freshness is the time
    // from the data to the first served answer: training, then publishing.
    if !tr.is_on() {
        let timed = train::timed_runs(&prep, &model, &report, &tc, TIMED_SHARE * seconds, out);
        timed.report(&prep, out);
        out.put(
            "freshness_s",
            timed.trainer_s(&prep) + stats::median(&publish),
            "s",
        );
    }

    let histories: Vec<(usize, Vec<usize>)> = prep
        .split
        .test
        .iter()
        .map(|e| (e.user, e.seq.clone()))
        .collect();
    let plan = ServePlan {
        graph: &prep.graph,
        cfg: &prep.cfg,
        histories: &histories,
        repeat_share: 0.3,
        rates: vec![100.0, 200.0, 400.0, 800.0],
        reference_rate: 200.0,
        reference_secs: 5.0,
        rung_secs: 1.2,
        seed,
    };
    drive(&server, &model, &plan, tr, out);
    if tr.is_on() {
        let (a, b, c) = (
            &prep.split.train[..],
            &prep.split.valid[..],
            &prep.split.test[..],
        );
        let src = SourceSplit {
            train: &a,
            valid: &b,
            test: &c,
        };
        let replica = crate::layers::train_layers(
            &prep.graph,
            &prep.cfg,
            &src,
            &tc,
            result_bits(&report),
            tr,
            out,
        );
        out.put("trace.overhead_s", replica - stats::median(&walls), "s");
    }
    let stats = server.handle.slot().stats();
    out.note(format!(
        "server: {} requests, shed {}, errors {}",
        stats.requests_total.load(Ordering::Relaxed),
        stats.shed_total.load(Ordering::Relaxed),
        stats.errors_total.load(Ordering::Relaxed)
    ));
    server.stop();
}
