//! `online-loop`: all-fresh read traffic at one fixed rate while the
//! benchmark appends deltas to the `StreamLog`, runs `retrain` rounds and
//! hot-swaps each new version in through `EngineSlot::reload`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{truncate_to_max_len, Dataset, Split, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::{train_from_source, BackboneKind, RecModel, SourceSplit, TrainConfig};
use ssdrec_serve::{Engine, EngineSlot, LoadedModel, ReloadOutcome, ServerStats};
use ssdrec_stream::{
    load_current, load_newer, load_version, materialize, materialize_model, open_or_create_log,
    replay, retrain, ArchSpec, LogHeader, RetrainOutcome, RetrainSpec, HEADER_LEN,
};

use crate::common::{
    body_matches, open_loop_until, phase_stats, request_mix, secs, secs_between, senders, Out, Req,
    Server, WorkDir,
};
use crate::serve::engine_cfg;
use crate::stats::{self, Timing};
use crate::trace::Tracer;
use crate::train::result_bits;

const USERS: usize = 400;
const ITEMS: usize = 300;
const ROUNDS: usize = 8;
const RATE: f64 = 250.0;
/// Answers checked against the version's offline recommendation after
/// each swap.
const CHECKS_PER_SWAP: usize = 8;

/// The retrain rounds' settings; the architecture seed is fixed, so every
/// run trains the same versions.
fn spec() -> RetrainSpec {
    let tc = TrainConfig::default();
    RetrainSpec {
        arch: ArchSpec {
            backbone: BackboneKind::SasRec,
            dim: 16,
            max_len: 20,
            seed: 7,
        },
        epochs: 1,
        batch_size: 64,
        lr: tc.lr,
        weight_decay: tc.weight_decay,
        checkpoint_every: 1,
    }
}

/// The full event history (from the profile's fixed seed): each user's
/// sequence is split into an initial part (logged at set-up) and up to
/// `ROUNDS` deltas.
fn history() -> Dataset {
    SyntheticConfig::beauty()
        .with_users(USERS)
        .with_items(ITEMS)
        .generate()
}

/// Events of a user logged before round `r` (`r = 0` is set-up): up to
/// the last `ROUNDS` events of each sequence arrive one per round, and at
/// least three events are logged at set-up.
fn logged_prefix(seq: &[usize], r: usize) -> usize {
    let initial = seq.len().saturating_sub(ROUNDS).max(seq.len().min(3));
    (initial + r).min(seq.len())
}

/// Sets the flag when dropped, so a panicking round still stops the load
/// generator and the scope can join it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Set-up: create the log with every user's initial events, train and
/// publish v1, load it and start the server.
fn setup(
    ds: &Dataset,
    log: &Path,
    root: &Path,
    tr: &mut Tracer,
) -> (Server, Vec<(usize, Vec<usize>)>) {
    let _ = std::fs::remove_file(log);
    let _ = std::fs::remove_dir_all(root);
    let sp = tr.enter("setup");
    let header = LogHeader {
        num_users: USERS,
        num_items: ITEMS,
    };
    let (mut w, _) = open_or_create_log(log, Some(header)).expect("create the event log");
    for (u, seq) in ds.sequences.iter().enumerate() {
        for &i in &seq[..logged_prefix(seq, 0)] {
            w.append(u, i).expect("append an event");
        }
    }
    w.sync().expect("sync the log");
    drop(w);
    let sp2 = tr.enter("stream.retrain");
    let v1 = retrain(log, root, &spec(), false).expect("initial retrain round");
    tr.exit(sp2);
    assert!(
        matches!(v1, RetrainOutcome::Trained(_)),
        "a fresh checkpoint directory cannot be up to date"
    );
    let booted = load_current(log, root)
        .expect("load the published version")
        .expect("v1 is published");
    let engine = Engine::new(
        booted.model.into(),
        engine_cfg(spec().arch.max_len),
        Arc::new(ServerStats::new()),
    );
    let (l, r) = (log.to_path_buf(), root.to_path_buf());
    let slot = EngineSlot::reloadable(
        engine,
        booted.version,
        Box::new(move |current| {
            Ok(load_newer(&l, &r, current)?.map(|v| LoadedModel {
                model: v.model.into(),
                version: v.version,
            }))
        }),
    );
    let server = Server::start(slot);
    tr.exit(sp);
    let histories = ds
        .sequences
        .iter()
        .enumerate()
        .filter(|(_, s)| logged_prefix(s, 0) > 0)
        .map(|(u, s)| (u, s[..logged_prefix(s, 0)].to_vec()))
        .collect();
    (server, histories)
}

/// One round's measurements.
struct Round {
    version: u64,
    synced: f64,
    reload_start: f64,
    swapped: f64,
    append_per_s: f64,
    retrain_s: f64,
    train_s: f64,
    reload_s: f64,
    secs_per_epoch: f64,
    health: Option<usize>,
    test_ndcg10: f64,
    consumed: u64,
    checks: Vec<(Req, Option<String>)>,
}

/// Share of `--seconds` spent on write cycles ...
const CYCLE_SHARE: f64 = 0.9;
/// ... of which this share after each cycle on ranking passes over the
/// cycle's last version.
const EVAL_SHARE: f64 = 0.06;

/// Run the workload: write cycles (set-up, then `ROUNDS` write rounds under
/// read traffic) until the cycle budget is spent, at least one. Every cycle
/// starts from an empty log and publishes the same versions.
pub fn run(seed: u64, seconds: f64, root_dir: &Path, tr: &mut Tracer, out: &mut Out) {
    let work = WorkDir::new(root_dir, "online");
    let log = work.path("events.sslg");
    let ckpt: PathBuf = work.path("ckpt");
    let ds = history();
    let header = LogHeader {
        num_users: USERS,
        num_items: ITEMS,
    };

    let t_run = Instant::now();
    let mut setups = Vec::new();
    let mut timings: Vec<Timing> = Vec::new();
    let mut backlog = false;
    let mut rounds: Vec<Round> = Vec::new();
    let mut fresh = Vec::new();
    let mut window = Vec::new();
    let (mut replay_s, mut mat_s, mut build_s, mut publish_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut train_rates = Vec::new();
    let mut last_ndcg: Option<u64> = None;
    let mut last = None;
    let mut evals = Vec::new();
    let mut cycles = 0usize;
    loop {
        // Three set-ups before the first cycle, one before each later one;
        // `setup_s` is their median.
        let mut started = None;
        for _ in 0..if cycles == 0 { 3 } else { 1 } {
            if let Some((s, _)) = started.take() {
                Server::stop(s);
            }
            let t = Instant::now();
            let r = setup(&ds, &log, &ckpt, tr);
            setups.push(secs(t));
            started = Some(r);
        }
        let (server, histories) = started.expect("a set-up");
        let (cycle_timings, cycle_rounds) = cycle(seed, &ds, &log, &ckpt, &server, &histories, tr);
        server.stop();
        cycles += 1;

        // Offline checks and per-round accounting, after the traffic stopped.
        let sp = tr.enter("online.checks");
        for t in &cycle_timings {
            out.check(t.ok, || "online-loop request failed".to_string());
        }
        let ps = phase_stats(RATE, &cycle_timings);
        backlog |= ps.backlog;
        out.note(ps.line(&format!("online traffic, cycle {cycles}")));
        for (k, rd) in cycle_rounds.iter().enumerate() {
            out.check(rd.health == Some(rd.version as usize), || {
                format!(
                    "/health shows {:?} after swapping in v{}",
                    rd.health, rd.version
                )
            });
            // Freshness: delta synced → first answer to a request sent after
            // the new version was committed.
            let first = cycle_timings
                .iter()
                .filter(|t| t.ok && t.sent >= rd.swapped)
                .map(|t| t.done)
                .min_by(f64::total_cmp);
            match first {
                Some(done) => fresh.push(done - rd.synced),
                None => out.check(false, || {
                    format!("no answer after the v{} swap", rd.version)
                }),
            }
            window.extend(
                cycle_timings
                    .iter()
                    .filter(|t| t.due >= rd.reload_start && t.due <= rd.swapped + 0.05)
                    .map(|t| t.latency_s() * 1e3),
            );
            let loaded = load_version(&log, &ckpt, rd.version).expect("load a published version");
            for (req, body) in &rd.checks {
                let offline = loaded.model.recommend(req.user, &req.seq, req.k);
                let ok = body
                    .as_deref()
                    .is_some_and(|b| body_matches(b, req, &offline));
                out.check(ok, || {
                    format!(
                        "v{} answer differs from offline for {req:?}: {body:?}",
                        rd.version
                    )
                });
            }
            let t = Instant::now();
            let events = replay(&log, HEADER_LEN, rd.consumed).expect("replay the log");
            replay_s.push(secs(t));
            let t = Instant::now();
            let (split, _) = materialize_model(header, &events, &spec()).expect("materialize");
            mat_s.push(secs(t));
            train_rates.push(split.train.len() as f64 / rd.secs_per_epoch);
            let mut d = materialize(header, &events);
            truncate_to_max_len(&mut d, spec().arch.max_len);
            let t = Instant::now();
            let g = build_graph(&d, &GraphConfig::default());
            build_s.push(secs(t));
            out.put("graph.edges", g.total_edges() as f64, "count");
            publish_s.push(
                rd.retrain_s - replay_s[replay_s.len() - 1] - mat_s[mat_s.len() - 1] - rd.train_s,
            );
            if k + 1 == cycle_rounds.len() {
                last = Some((loaded, split, g));
            }
        }
        // Ranking passes after every cycle, so the samples span the run.
        if let Some((loaded, split, _)) = &last {
            let mut g = ssdrec_tensor::Graph::new();
            let pass = |g: &mut ssdrec_tensor::Graph| {
                crate::common::eval_pass(&loaded.model, &split.valid, &split.test, 64, g)
            };
            pass(&mut g);
            let t = Instant::now();
            for i in 0.. {
                if i >= 3 && secs(t) >= EVAL_SHARE * seconds {
                    break;
                }
                evals.push(pass(&mut g));
            }
        }
        // Every cycle publishes the same last version.
        let ndcg = cycle_rounds.last().expect("rounds ran").test_ndcg10;
        out.check(
            *last_ndcg.get_or_insert(ndcg.to_bits()) == ndcg.to_bits(),
            || format!("cycle {cycles} published a last version with test NDCG@10 {ndcg}"),
        );
        tr.exit(sp);
        // Later cycles' times continue the first's, so the traffic reads as
        // one phase.
        let offset = timings.last().map_or(0.0, |t| t.due + 1.0 / RATE);
        timings.extend(cycle_timings.into_iter().map(|t| Timing {
            due: t.due + offset,
            sent: t.sent + offset,
            done: t.done + offset,
            ok: t.ok,
        }));
        rounds.extend(cycle_rounds);
        let per_cycle = secs(t_run) / cycles as f64;
        if tr.is_on() || secs(t_run) + per_cycle > CYCLE_SHARE * seconds || cycles >= 20 {
            break;
        }
    }
    out.put("setup_s", stats::median(&setups), "s");
    let mut ps = phase_stats(RATE, &timings);
    ps.backlog |= backlog;
    out.count_requests(ps.sent, ps.failed);
    out.note(ps.line(&format!("online traffic, {cycles} cycles")));
    out.put("serve_p50_ms", ps.latency.p50, "ms");
    out.put("serve.p90_ms", ps.p90, "ms");
    out.put("serve.p99_ms", ps.latency.tail, "ms");
    out.put(
        "success_rate",
        1.0 - ps.failed as f64 / ps.sent as f64,
        "ratio",
    );
    out.put("loadgen.late_p99_ms", ps.late.tail, "ms");
    out.put(
        "serve.max_rps",
        if ps.latency.tail <= crate::serve::TAIL_LIMIT_MS && !ps.backlog {
            RATE
        } else {
            0.0
        },
        "1/s",
    );

    let (_, split, g) = last.expect("a last round");
    let eval = (split.valid.len() + split.test.len()) as f64 / stats::median(&evals);
    if tr.is_on() {
        retrain_layers(&g, &split, tr, out);
    }
    out.put("freshness_s", stats::median(&fresh), "s");
    out.put("train_examples_per_s", stats::median(&train_rates), "ex/s");
    out.put("eval_examples_per_s", eval, "ex/s");
    out.put(
        "test_ndcg10",
        rounds.last().expect("rounds ran").test_ndcg10,
        "ratio",
    );
    let ws = stats::summarize(&window);
    out.put("swap.window_p99_ms", ws.tail, "ms");
    out.put(
        "swap.reload_s",
        stats::median(&rounds.iter().map(|r| r.reload_s).collect::<Vec<_>>()),
        "s",
    );
    out.put(
        "stream.append_per_s",
        stats::median(&rounds.iter().map(|r| r.append_per_s).collect::<Vec<_>>()),
        "1/s",
    );
    out.put(
        "stream.retrain_s",
        stats::median(&rounds.iter().map(|r| r.retrain_s).collect::<Vec<_>>()),
        "s",
    );
    out.put(
        "stream.train_s",
        stats::median(&rounds.iter().map(|r| r.train_s).collect::<Vec<_>>()),
        "s",
    );
    out.put("stream.replay_s", stats::median(&replay_s), "s");
    out.put("stream.materialize_s", stats::median(&mat_s), "s");
    out.put("stream.publish_s", stats::median(&publish_s), "s");
    out.put("graph.build_s", stats::median(&build_s), "s");
    for rd in &rounds {
        out.note(format!(
            "round v{}: retrain {:.3} s (train {:.3} s), reload {:.3} s, {} checks",
            rd.version,
            rd.retrain_s,
            rd.train_s,
            rd.reload_s,
            rd.checks.len()
        ));
    }
    out.note(format!("ranking passes (s): {evals:.3?}"));
    out.note(format!(
        "freshness per round (s): {:.3?}; swap-window latency p{:.0} {:.3} ms over {} requests",
        fresh,
        ws.tail_q * 100.0,
        ws.tail,
        ws.n
    ));
}

/// One write cycle's traffic: fresh reads at `RATE` while `ROUNDS` rounds
/// append, retrain and hot-swap.
fn cycle(
    seed: u64,
    ds: &Dataset,
    log: &Path,
    ckpt: &Path,
    server: &Server,
    histories: &[(usize, Vec<usize>)],
    tr: &mut Tracer,
) -> (Vec<Timing>, Vec<Round>) {
    let reqs = request_mix(histories, (RATE * 120.0) as usize, 0.0, seed);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let sp = tr.enter("online.loop");
    let timings = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            open_loop_until(
                RATE,
                reqs.len(),
                senders(),
                t0,
                &|| stop.load(Ordering::SeqCst),
                |i| {
                    server
                        .recommend(&reqs[i])
                        .is_some_and(|b| b.starts_with("{\"user\":"))
                },
            )
        });
        let guard = StopOnDrop(&stop);
        // Let the traffic reach steady state before the first write.
        std::thread::sleep(std::time::Duration::from_millis(500));
        for r in 1..=ROUNDS {
            rounds.push(round(r, ds, log, ckpt, server, t0, &reqs, tr));
            std::thread::sleep(std::time::Duration::from_millis(400));
        }
        drop(guard);
        gen.join().expect("load generator")
    });
    tr.exit(sp);
    (timings, rounds)
}

/// Traced run: the per-layer training metrics for the last round's data,
/// trained from scratch with the round's trainer settings (no warm start).
fn retrain_layers(graph: &MultiRelationGraph, split: &Split, tr: &mut Tracer, out: &mut Out) {
    let sp = spec();
    let cfg = SsdRecConfig {
        dim: sp.arch.dim,
        max_len: sp.arch.max_len,
        backbone: sp.arch.backbone,
        seed: sp.arch.seed,
        ..SsdRecConfig::default()
    };
    let tc = TrainConfig {
        epochs: sp.epochs,
        batch_size: sp.batch_size,
        lr: sp.lr,
        weight_decay: sp.weight_decay,
        patience: sp.epochs + 1,
        seed: sp.arch.seed,
        ..TrainConfig::default()
    };
    let (a, b, c) = (&split.train[..], &split.valid[..], &split.test[..]);
    let src = SourceSplit {
        train: &a,
        valid: &b,
        test: &c,
    };
    let mut model = SsdRec::new(graph, cfg.clone());
    let t = Instant::now();
    let report = train_from_source(&mut model, &src, &tc, None, None)
        .expect("training without checkpoints cannot fail");
    let untraced = secs(t);
    let replica =
        crate::layers::train_layers(graph, &cfg, &src, &tc, result_bits(&report), tr, out);
    out.put("trace.overhead_s", replica - untraced, "s");
}

/// One write round: append + sync the delta, retrain, hot-swap, and check
/// `/health` and a few answers from the new version.
#[allow(clippy::too_many_arguments)]
fn round(
    r: usize,
    ds: &Dataset,
    log: &Path,
    ckpt: &Path,
    server: &Server,
    t0: Instant,
    reqs: &[Req],
    tr: &mut Tracer,
) -> Round {
    let sp = tr.enter("online.round");
    let t = Instant::now();
    let s = tr.enter("stream.append");
    let (mut w, _) = open_or_create_log(log, None).expect("reopen the log");
    let mut n = 0usize;
    for (u, seq) in ds.sequences.iter().enumerate() {
        for &i in &seq[logged_prefix(seq, r - 1)..logged_prefix(seq, r)] {
            w.append(u, i).expect("append an event");
            n += 1;
        }
    }
    w.sync().expect("sync the log");
    drop(w);
    tr.exit(s);
    let append_per_s = n as f64 / secs(t);
    let synced = secs_between(t0, Instant::now());

    let s = tr.enter("stream.retrain");
    let t = Instant::now();
    let trained = match retrain(log, ckpt, &spec(), false).expect("retrain round") {
        RetrainOutcome::Trained(tv) => tv,
        RetrainOutcome::UpToDate { version } => panic!("v{version} is up to date after a delta"),
    };
    let retrain_s = secs(t);
    tr.exit(s);

    let s = tr.enter("swap.reload");
    let reload_start = secs_between(t0, Instant::now());
    let t = Instant::now();
    let outcome = server.handle.slot().reload().expect("hot swap");
    let reload_s = secs(t);
    let swapped = secs_between(t0, Instant::now());
    tr.exit(s);
    assert!(
        matches!(outcome, ReloadOutcome::Swapped { version } if version == trained.version),
        "reload must swap in v{}, got {outcome:?}",
        trained.version
    );

    let health = server
        .get_json("/health")
        .and_then(|h| h.get("model_version").and_then(|v| v.as_usize()));
    let checks = reqs
        .iter()
        .skip(r * 97)
        .step_by(13)
        .take(CHECKS_PER_SWAP)
        .map(|q| (q.clone(), server.recommend(q)))
        .collect();
    tr.exit(sp);
    let rep = &trained.report;
    Round {
        version: trained.version,
        synced,
        reload_start,
        swapped,
        append_per_s,
        retrain_s,
        train_s: rep.train_secs_per_epoch * rep.epochs_run as f64 + rep.infer_secs,
        reload_s,
        secs_per_epoch: rep.train_secs_per_epoch,
        health,
        test_ndcg10: rep.test.ndcg10,
        consumed: trained.consumed,
        checks,
    }
}
