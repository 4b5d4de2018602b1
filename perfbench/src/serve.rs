//! `serve-pubmed`: a frozen K = 1000 model behind the query server, loaded
//! first by a closed loop and then by an open loop.
//!
//! Set-up trains `train-pubmed-t2`'s sampler for a short fixed budget, then
//! freezes, saves and loads the model, binds one server per phase (so each
//! server's latency histogram covers one phase) and connects. Phase 1 is a
//! closed loop: one connection, one thread, a fixed window of requests in
//! flight. Phase 2 is an open loop on one connection: a sender thread on a
//! fixed-interval schedule and a receiver; each request is timed from the
//! moment it was due to be sent.

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use warplda::prelude::*;
use warplda::serve::wire::{self, FrameBuffer, Request, RequestBody, Response};

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::trace;
use crate::train::{self, HELD_OUT_DOCS, THREADS, TOPICS};
use crate::workload::{self, Data};
use crate::Args;

const SETUP_ITERATIONS: usize = 4;
const WINDOW: usize = 8;
const CLOSED_S: f64 = 1.0;
/// About a quarter of the closed-loop capacity on the reference host.
const OPEN_RATE: f64 = 2500.0;
const OPEN_S: f64 = 1.5;
const POOL: usize = 512;
const TOP_N: u32 = 5;
/// Every this many replies one is compared with the in-process engine.
const CHECK_EVERY: usize = 61;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall time of one repetition on the reference host.
const NOMINAL_REP_S: f64 = 4.3;

/// One request of the query mix and the token ids it carries.
struct Query {
    request: Request,
    words: Vec<u32>,
}

/// The query mix: 80% short queries of 4–16 words (half of them sent as
/// raw text), 20% whole held-out documents; words come from held-out docs.
fn query_mix(held_out: &[Vec<u32>], seed: u64) -> Vec<Query> {
    let mut state = seed;
    let mut next = move || {
        state = workload::derive_seed(state, 0x5EED);
        state
    };
    (0..POOL)
        .map(|i| {
            let doc = &held_out[next() as usize % held_out.len()];
            let query_seed = next();
            let (words, body) = if next() % 5 < 4 {
                let len = 4 + (next() % 13) as usize;
                let words: Vec<u32> = (0..len).map(|_| doc[next() as usize % doc.len()]).collect();
                let body = if i % 2 == 0 {
                    RequestBody::Tokens(words.clone())
                } else {
                    RequestBody::Text(
                        words.iter().map(|w| format!("w{w}")).collect::<Vec<_>>().join(" "),
                    )
                };
                (words, body)
            } else {
                (doc.clone(), RequestBody::Tokens(doc.clone()))
            };
            Query { request: Request { seed: query_seed, top_n: TOP_N, body }, words }
        })
        .collect()
}

/// A reply's θ when it is a well-formed success for a K-topic model.
fn validate(reply: Result<Response, wire::WireError>) -> Result<Vec<f64>, String> {
    match reply {
        Ok(Response::Ok(r)) => {
            let sum: f64 = r.theta.iter().sum();
            if r.theta.len() != TOPICS {
                Err(format!("theta has {} entries, want {TOPICS}", r.theta.len()))
            } else if (sum - 1.0).abs() > 1e-9 {
                Err(format!("theta sums to {sum}"))
            } else {
                Ok(r.theta)
            }
        }
        Ok(Response::Error(e)) => Err(format!("error reply: {e}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// Replies checked bit for bit after a phase: `(pool index, θ)`.
type Sampled = Vec<(usize, Vec<f64>)>;

struct Setup {
    data: Data,
    assignments: Vec<u32>,
    model: Arc<TopicModel>,
    model_path: std::path::PathBuf,
    closed: ServerHandle,
    open: ServerHandle,
    client: Client,
    stream: TcpStream,
}

fn setup(args: &Args, dir: &Path) -> Result<Setup, String> {
    let data = Data::generate(DatasetPreset::PubMedLike, args.seed, HELD_OUT_DOCS);
    let seed = workload::derive_seed(args.seed, 1);
    let mut sampler = trace::timed("warp.new", || {
        ParallelWarpLda::new(&data.corpus, train::params(), train::config(), seed, THREADS)
    });
    trace::timed("warp.train", || (0..SETUP_ITERATIONS).for_each(|_| sampler.run_iteration()));
    let frozen =
        trace::timed("model.freeze", || TopicModel::freeze_sampler(&sampler, &data.corpus));
    let model_path = dir.join("serve.wldamodl");
    trace::timed("model.save", || frozen.save(&model_path))
        .map_err(|e| format!("model save: {e}"))?;
    let model = Arc::new(
        trace::timed("model.load", || TopicModel::load(&model_path))
            .map_err(|e| format!("model load: {e}"))?,
    );
    let (closed, open) = trace::timed("server.bind", || {
        let bind = || Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig::default());
        Ok::<_, std::io::Error>((bind()?, bind()?))
    })
    .map_err(|e| format!("bind: {e}"))?;
    let (client, stream) = trace::timed("server.connect", || {
        let mut client = Client::connect(closed.addr())?;
        client.set_deadline(Some(IO_TIMEOUT))?;
        let stream = TcpStream::connect(open.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok::<_, std::io::Error>((client, stream))
    })
    .map_err(|e| format!("connect: {e}"))?;
    Ok(Setup {
        assignments: sampler.assignments(),
        data,
        model,
        model_path,
        closed,
        open,
        client,
        stream,
    })
}

/// Phase 1: replies per second with `WINDOW` requests in flight.
fn closed_loop(
    client: &mut Client,
    pool: &[Query],
    report: &mut Report,
    sampled: &mut Sampled,
) -> Result<f64, String> {
    let _span = trace::span("serve.closed_loop");
    let t0 = Instant::now();
    let mut sent = 0;
    let mut received = 0;
    let mut last = 0.0;
    while sent < WINDOW {
        client.send(&pool[sent % POOL].request).map_err(|e| format!("send: {e}"))?;
        sent += 1;
    }
    while received < sent {
        let reply = client.recv();
        last = workload::since(t0);
        report.attempt(1);
        match validate(reply) {
            Ok(theta) if received % CHECK_EVERY == 0 => sampled.push((received % POOL, theta)),
            Ok(_) => {}
            Err(e) => report.fail(format!("closed loop request {received}: {e}")),
        }
        received += 1;
        if last < CLOSED_S {
            client.send(&pool[sent % POOL].request).map_err(|e| format!("send: {e}"))?;
            sent += 1;
        }
    }
    Ok(received as f64 / last)
}

/// What the open-loop phase measured.
struct Open {
    latencies_s: Vec<f64>,
    late_max_s: f64,
}

/// Phase 2: `OPEN_RATE` requests per second on a fixed schedule for
/// `OPEN_S` seconds.
fn open_loop(
    stream: &TcpStream,
    pool: &[Query],
    report: &mut Report,
    sampled: &mut Sampled,
) -> Result<Open, String> {
    let _span = trace::span("serve.open_loop");
    let n = (OPEN_RATE * OPEN_S) as usize;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<f64, String> {
            let mut buf = Vec::new();
            let mut late_max = 0.0f64;
            for i in 0..n {
                let at = due(i);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                late_max = late_max.max(Instant::now().saturating_duration_since(at).as_secs_f64());
                buf.clear();
                wire::encode_request(&pool[i % POOL].request, &mut buf);
                writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
            }
            Ok(late_max)
        });
        let mut frames = FrameBuffer::new(1 << 16);
        let mut latencies_s = Vec::with_capacity(n);
        let mut receive = || -> Result<(), String> {
            for i in 0..n {
                let reply = loop {
                    if let Some(range) = frames.take_frame().map_err(|e| format!("frame: {e}"))? {
                        break wire::decode_response(frames.payload(range));
                    }
                    if frames.fill_from(&mut reader).map_err(|e| format!("receive: {e}"))? == 0 {
                        return Err("server closed the connection".into());
                    }
                };
                latencies_s.push(Instant::now().saturating_duration_since(due(i)).as_secs_f64());
                report.attempt(1);
                match validate(reply) {
                    Ok(theta) if i % CHECK_EVERY == 0 => sampled.push((i % POOL, theta)),
                    Ok(_) => {}
                    Err(e) => report.fail(format!("open loop request {i}: {e}")),
                }
            }
            Ok(())
        };
        let received = receive();
        let late_max_s = sender.join().map_err(|_| "sender thread panicked".to_string())??;
        received.map(|()| Open { latencies_s, late_max_s })
    })
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    rps: f64,
    open: Open,
    server_p50_us: f64,
    server_p99_us: f64,
    shed: u64,
    deadline_expired: u64,
}

pub fn run(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let reps = workload::repetitions(args, NOMINAL_REP_S, 3);
    let mut done: Vec<(Rep, bool)> = Vec::new();
    let mut kept: Option<(Data, Vec<u32>, Arc<TopicModel>, std::path::PathBuf)> = None;
    let mut pool = Vec::new();
    let mut first_digest = None;
    for i in 0..reps {
        let traced = workload::trace_rep(args, i);
        let root = trace::span("serve.run");
        let t0 = Instant::now();
        let mut s = setup(args, &dir.join(format!("rep{i}")))?;
        let setup_s = workload::since(t0);
        if pool.is_empty() {
            pool = query_mix(&s.data.held_out, workload::derive_seed(args.seed, 3));
        }
        let mut sampled = Sampled::new();
        let rps = closed_loop(&mut s.client, &pool, report, &mut sampled)?;
        workload::probe_host(3);
        let open = open_loop(&s.stream, &pool, report, &mut sampled)?;
        drop(root);
        trace::set_enabled(false);

        let digest = workload::digest(&s.assignments);
        match first_digest {
            None => first_digest = Some(digest),
            Some(d) => report.check(d == digest, "repetitions of one seed end bit-identical"),
        }
        let engine = InferenceEngine::new(&s.model, ServerConfig::default().infer);
        let same = sampled.iter().all(|(q, theta)| {
            let expect = engine.infer(&pool[*q].words, pool[*q].request.seed).theta;
            expect.len() == theta.len()
                && expect.iter().zip(theta).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        report.check(
            same,
            &format!("{} sampled replies equal the in-process engine bit for bit", sampled.len()),
        );
        let latency = s.open.latency();
        let counters = [s.closed.counters(), s.open.counters()];
        let rep = Rep {
            setup_s,
            rps,
            open,
            server_p50_us: latency.p50_us as f64,
            server_p99_us: latency.p99_us as f64,
            shed: counters.iter().map(|c| c.shed_overload).sum(),
            deadline_expired: counters.iter().map(|c| c.deadline_expired).sum(),
        };
        drop(s.client);
        drop(s.stream);
        s.closed.shutdown();
        s.open.shutdown();
        done.push((rep, traced));
        if kept.is_none() || traced {
            kept = Some((s.data, s.assignments, s.model, s.model_path));
        }
    }
    let (data, z, model, model_path) = kept.expect("at least one repetition");

    let med = |f: &dyn Fn(&Rep) -> f64| {
        stats::median(&done.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
    };
    let setup_s = med(&|r| r.setup_s);
    let rps = med(&|r| r.rps);
    let latencies: Vec<f64> =
        done.iter().flat_map(|(r, _)| r.open.latencies_s.iter().copied()).collect();
    let held_out = HeldOutSet::from_docs(data.held_out.clone());
    let ppl = fold_in_perplexity(&model, InferConfig::default(), &held_out, 3, 2)
        .ok_or("empty held-out set")?;
    let nll = data.nll_per_token(&train::params(), &z);
    report.set("setup_s", setup_s);
    report.set("throughput_per_s", rps);
    report.set("heldout_nll_per_token", ppl.ln());
    report.set("train_nll_per_token", nll);
    report.show("setup_s", setup_s, "s", &format!("median of {reps}"));
    report.show("serve_rps", rps, "req/s", &format!("closed loop, window {WINDOW}"));
    workload::set_latency(report, &format!("open loop at {OPEN_RATE} req/s"), &latencies);
    report.show("heldout_perplexity", ppl, "ppl", "of the served model");

    if report.traced() {
        let traced: Vec<&Rep> = done.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
        let untraced: Vec<&Rep> = done.iter().filter(|(_, t)| !*t).map(|(r, _)| r).collect();
        workload::set_overhead(
            report,
            &untraced.iter().map(|r| 1.0 / r.rps).collect::<Vec<_>>(),
            &traced.iter().map(|r| 1.0 / r.rps).collect::<Vec<_>>(),
        );
        let spans = trace::recorded();
        let n = traced.len() as f64;
        let per_rep = |name: &str| trace::total(&spans, name).0 / n;
        report.set("corpus.generate_s", per_rep("corpus.generate"));
        report.set("corpus.views_s", per_rep("corpus.views"));
        report.set("model.freeze_s", per_rep("model.freeze"));
        report.set("model.save_s", per_rep("model.save"));
        report.set("model.load_s", per_rep("model.load"));
        report.set("model.bytes", std::fs::metadata(&model_path).map_or(0.0, |m| m.len() as f64));
        let mean = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(|r| f(r)).sum::<f64>() / n;
        let client_p50_us = stats::median(
            &traced.iter().flat_map(|r| r.open.latencies_s.iter().copied()).collect::<Vec<_>>(),
        ) * 1e6;
        report.set("server.p50_us", mean(&|r| r.server_p50_us));
        report.set("server.p99_us", mean(&|r| r.server_p99_us));
        report.set("server.client_gap_us", client_p50_us - mean(&|r| r.server_p50_us));
        report.set("server.shed", traced.iter().map(|r| r.shed as f64).sum());
        report
            .set("server.deadline_expired", traced.iter().map(|r| r.deadline_expired as f64).sum());
        report.set(
            "serve.gen_late_max_us",
            traced.iter().map(|r| r.open.late_max_s).fold(0.0, f64::max) * 1e6,
        );
        infer_replay(report, &model, &pool);
        wire_replay(report, &model, &pool);
        layers::alias_replay(report, &data, TOPICS, &z);
        workload::account(report, &spans, "serve.run");
    }
    Ok(())
}

/// `InferenceEngine::infer_into` over the query mix without the server:
/// microseconds per query token and allocations per request once warm.
fn infer_replay(report: &mut Report, model: &TopicModel, pool: &[Query]) {
    let engine = InferenceEngine::new(model, ServerConfig::default().infer);
    let mut scratch = InferScratch::new();
    let pass = |scratch: &mut InferScratch| {
        for q in pool {
            engine.infer_into(&q.words, q.request.seed, scratch);
        }
    };
    pass(&mut scratch);
    let ((), allocs) = sys::count_allocs(|| pass(&mut scratch));
    let tokens: usize = pool.iter().map(|q| q.words.len()).sum();
    let (t0, mut passes) = (Instant::now(), 0);
    while passes < 2 || workload::since(t0) < 0.3 {
        pass(&mut scratch);
        passes += 1;
    }
    let us = workload::since(t0) * 1e6 / (tokens * passes) as f64;
    report.set("infer.us_per_token", us);
    report.set("infer.allocs_per_request", allocs as f64 / pool.len() as f64);
    report.show("infer.us_per_token", us, "us", "engine only, query mix");
}

/// Response encode and decode over the query mix's replies.
fn wire_replay(report: &mut Report, model: &TopicModel, pool: &[Query]) {
    let engine = InferenceEngine::new(model, ServerConfig::default().infer);
    let replies: Vec<_> = pool.iter().map(|q| engine.infer(&q.words, q.request.seed)).collect();
    let mut out = Vec::new();
    let (mut encode_s, mut decode_s, mut passes, mut bytes) = (0.0, 0.0, 0, 0usize);
    while passes < 3 || encode_s + decode_s < 0.3 {
        for r in &replies {
            out.clear();
            let t0 = Instant::now();
            wire::encode_ok_response(&mut out, 0, r.theta.len() as u32, 0, &r.theta, &r.top);
            let t1 = Instant::now();
            std::hint::black_box(wire::decode_response(&out[4..]).is_ok());
            decode_s += t1.elapsed().as_secs_f64();
            encode_s += (t1 - t0).as_secs_f64();
            bytes += out.len();
        }
        passes += 1;
    }
    let count = (replies.len() * passes) as f64;
    report.set("wire.encode_ns", encode_s * 1e9 / count);
    report.set("wire.decode_ns", decode_s * 1e9 / count);
    report.set("wire.response_bytes", bytes as f64 / count);
    report.show("wire.response_bytes", bytes as f64 / count, "B", "");
}
