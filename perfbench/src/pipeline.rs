//! `pipeline-nytimes`: the end-to-end path from a generated corpus to the
//! first served query.
//!
//! One repetition generates the NYTimes-like corpus, trains serial WarpLDA
//! through `Trainer::train_checkpointed` with overlapped held-out
//! evaluation and checkpoints at a fixed cadence, then freezes, saves and
//! loads the model, binds a server and answers one query. The repetition's
//! wall time is `pipeline.wall_s`; its training section gives the
//! throughput and per-iteration latency.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use warplda::prelude::*;
use warplda::serve::wire::Response;

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace;
use crate::workload::{self, Data};
use crate::Args;

const TOPICS: usize = 50;
const MH_STEPS: usize = 2;
const HELD_OUT_DOCS: usize = 60;
const BUDGET: usize = 24;
const EVAL_EVERY: usize = 2;
const CHECKPOINT_EVERY: usize = 8;
/// The held-out target: this fraction below the perplexity of the first
/// evaluation. Synthetic corpora of different seeds differ in their
/// achievable perplexity by more than training improves it, so the target is
/// relative to the run's own starting point.
const TARGET_IMPROVEMENT: f64 = 0.02;
/// Wall time of one repetition on the reference host.
const NOMINAL_REP_S: f64 = 4.6;

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    pipeline_s: f64,
    train_s: f64,
    log: IterationLog,
    digest: u64,
}

/// The state a repetition leaves behind for off-the-clock checks.
struct Trained {
    data: Data,
    sampler: WarpLda,
    model: Arc<TopicModel>,
    checkpoint: std::path::PathBuf,
    model_path: std::path::PathBuf,
    held_out: Arc<HeldOutSet>,
}

fn run_once(args: &Args, dir: &Path, report: &mut Report) -> Result<(Rep, Trained), String> {
    let params = ModelParams::paper_defaults(TOPICS);
    let config = WarpLdaConfig::with_mh_steps(MH_STEPS);
    let sampler_seed = workload::derive_seed(args.seed, 1);
    let query_seed = workload::derive_seed(args.seed, 2);

    let root = trace::span("pipeline.run");
    let t0 = Instant::now();
    let data = Data::generate(DatasetPreset::NyTimesLike, args.seed, HELD_OUT_DOCS);
    let mut sampler =
        trace::timed("warp.new", || WarpLda::new(&data.corpus, params, config, sampler_seed));
    let setup_s = workload::since(t0);

    let held_out = Arc::new(HeldOutSet::from_docs(data.held_out.clone()));
    let trainer = Trainer::with_views(&data.corpus, data.doc_view.clone(), data.word_view.clone())
        .with_held_out_fn(held_out_eval_fn(
            Arc::clone(&held_out),
            InferConfig::default(),
            query_seed,
        ));
    let schedule = TrainerConfig::new(BUDGET)
        .eval_every(EVAL_EVERY)
        .checkpoint_into(dir.join("checkpoints"), CHECKPOINT_EVERY);
    let t_train = Instant::now();
    let outcome = trace::timed("trainer.train_checkpointed", || {
        trainer.train_checkpointed(&schedule, "pipeline", &mut sampler, Some(data.corpus.vocab()))
    })
    .map_err(|e| format!("training: {e}"))?;
    let train_s = workload::since(t_train);
    report.attempt(BUDGET as u64);

    let frozen =
        trace::timed("model.freeze", || TopicModel::freeze_sampler(&sampler, &data.corpus));
    let model_path = dir.join("model.wldamodl");
    trace::timed("model.save", || frozen.save(&model_path))
        .map_err(|e| format!("model save: {e}"))?;
    let model = Arc::new(
        trace::timed("model.load", || TopicModel::load(&model_path))
            .map_err(|e| format!("model load: {e}"))?,
    );
    let server = trace::timed("server.bind", || {
        Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig::default())
    })
    .map_err(|e| format!("bind: {e}"))?;
    let reply = trace::timed("server.first_query", || {
        Client::connect(server.addr()).map_err(|e| format!("connect: {e}")).and_then(|mut c| {
            c.query_tokens(&data.held_out[0], query_seed, 5).map_err(|e| format!("query: {e}"))
        })
    });
    let pipeline_s = workload::since(t0);
    drop(root);
    server.shutdown();

    // Off the clock: the served θ is the in-process engine's, bit for bit.
    report.attempt(1);
    match reply {
        Ok(Response::Ok(r)) => {
            let expect = InferenceEngine::new(&model, ServerConfig::default().infer)
                .infer(&data.held_out[0], query_seed);
            let same = r.theta.len() == expect.theta.len()
                && r.theta.iter().zip(&expect.theta).all(|(a, b)| a.to_bits() == b.to_bits());
            report.check(same, "first served theta equals InferenceEngine::infer bit for bit");
        }
        Ok(Response::Error(e)) => report.fail(format!("first query answered with an error: {e}")),
        Err(e) => report.fail(format!("first query: {e}")),
    }
    let checkpoint = outcome.checkpoints.last().cloned().ok_or("no checkpoint was written")?;
    let rep = Rep {
        setup_s,
        pipeline_s,
        train_s,
        digest: workload::digest(&sampler.assignments()),
        log: outcome.log,
    };
    Ok((rep, Trained { data, sampler, model, checkpoint, model_path, held_out }))
}

/// Cumulative sampling seconds and iteration at the first evaluation that
/// meets the held-out target.
fn time_to_target(log: &IterationLog) -> Option<(f64, u64)> {
    let first = log.held_out_points().find_map(|r| r.held_out)?;
    let target = first * (1.0 - TARGET_IMPROVEMENT);
    log.held_out_points()
        .find(|r| r.held_out.is_some_and(|p| p <= target))
        .map(|r| (r.seconds, r.iteration))
}

/// Per-iteration sampling seconds of a log.
fn iteration_seconds(log: &IterationLog) -> Vec<f64> {
    let mut prev = 0.0;
    log.records()
        .iter()
        .map(|r| {
            let dt = r.seconds - prev;
            prev = r.seconds;
            dt
        })
        .collect()
}

pub fn run(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let params = ModelParams::paper_defaults(TOPICS);
    let config = WarpLdaConfig::with_mh_steps(MH_STEPS);
    let reps = workload::repetitions(args, NOMINAL_REP_S, 3);
    let mut done: Vec<(Rep, bool)> = Vec::new();
    // Quality of the final model and the token count, from repetition 0.
    let mut quality: Option<(f64, f64, f64)> = None;
    let mut last_traced: Option<Trained> = None;
    for i in 0..reps {
        let traced = workload::trace_rep(args, i);
        let (rep, trained) = run_once(args, &dir.join(format!("rep{i}")), report)?;
        trace::set_enabled(false);
        workload::probe_host(3);
        match time_to_target(&rep.log) {
            Some(_) => report.check(true, "held-out target met within the budget"),
            None => report.check(false, &format!("held-out target not met in {BUDGET} iterations")),
        }
        match done.first() {
            Some((r0, _)) => {
                report.check(rep.digest == r0.digest, "repetitions of one seed end bit-identical")
            }
            None => quality = Some(check_first(report, &trained, params, config)?),
        }
        done.push((rep, traced));
        // Only a traced repetition's state outlives it, so every repetition
        // runs with the same memory already in use.
        if traced {
            last_traced = Some(trained);
        }
    }
    let (tokens, ppl, nll) = quality.expect("at least one repetition");

    let med = |f: &dyn Fn(&Rep) -> f64| {
        stats::median(&done.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
    };
    let setup_s = med(&|r| r.setup_s);
    let throughput = med(&|r| tokens * BUDGET as f64 / r.train_s);
    let wall = med(&|r| r.pipeline_s);
    let iters: Vec<f64> = done.iter().flat_map(|(r, _)| iteration_seconds(&r.log)).collect();
    let target = time_to_target(&done[0].0.log);
    let ttt: Vec<f64> =
        done.iter().filter_map(|(r, _)| time_to_target(&r.log).map(|t| t.0)).collect();
    report.set("setup_s", setup_s);
    report.set("throughput_per_s", throughput);
    report.set("heldout_nll_per_token", ppl.ln());
    report.set("train_nll_per_token", nll);
    workload::set_latency(report, "iteration", &iters);
    report.show("setup_s", setup_s, "s", &format!("median of {reps}"));
    if !ttt.is_empty() {
        report.show(
            "time_to_target_s",
            stats::median(&ttt),
            "s",
            &format!(
                "held-out perplexity {}% below the first evaluation",
                TARGET_IMPROVEMENT * 100.0
            ),
        );
    }
    if let Some((_, it)) = target {
        report.show("iterations_to_target", it as f64, "count", "");
    }
    report.show("pipeline_s", wall, "s", "corpus generation to first served query");
    report.show(
        "train_tokens_per_s",
        throughput,
        "tok/s",
        "incl. overlapped evaluation and checkpoints",
    );
    report.show("final_loglik_per_token", -nll, "nats", "");
    report.show("heldout_perplexity", ppl, "ppl", &format!("{HELD_OUT_DOCS} held-out docs"));
    let curve: Vec<String> = done[0]
        .0
        .log
        .held_out_points()
        .filter_map(|r| r.held_out.map(|p| format!("{}:{p:.1}", r.iteration)))
        .collect();
    println!("held-out perplexity by iteration: {}", curve.join(" "));

    if report.traced() {
        let traced: Vec<&Rep> = done.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
        let untraced: Vec<&Rep> = done.iter().filter(|(_, t)| !*t).map(|(r, _)| r).collect();
        let mut t = last_traced.ok_or("a traced run makes traced repetitions")?;
        layer_metrics(report, &traced, &params, &config, args, &mut t)?;
        workload::set_overhead(
            report,
            &untraced.iter().map(|r| r.pipeline_s).collect::<Vec<_>>(),
            &traced.iter().map(|r| r.pipeline_s).collect::<Vec<_>>(),
        );
    }
    Ok(())
}

/// Output checks on the first repetition's final state; returns its token
/// count, held-out perplexity and training NLL per token.
fn check_first(
    report: &mut Report,
    first: &Trained,
    params: ModelParams,
    config: WarpLdaConfig,
) -> Result<(f64, f64, f64), String> {
    let mut fresh = WarpLda::new(&first.data.corpus, params, config, 0);
    let reloaded = load_checkpoint(&mut fresh, &first.checkpoint).is_ok();
    let z = first.sampler.assignments();
    report.check(
        reloaded && fresh.assignments() == z,
        "last checkpoint reloads into a fresh sampler with identical assignments",
    );
    workload::check_topic_counts(report, "pipeline", &z, first.sampler.topic_counts());
    let ppl = fold_in_perplexity(&first.model, InferConfig::default(), &first.held_out, 3, 2)
        .ok_or("empty held-out set")?;
    Ok((first.data.tokens() as f64, ppl, first.data.nll_per_token(&params, &z)))
}

fn layer_metrics(
    report: &mut Report,
    traced: &[&Rep],
    params: &ModelParams,
    config: &WarpLdaConfig,
    args: &Args,
    t: &mut Trained,
) -> Result<(), String> {
    let spans = trace::recorded();
    let n = traced.len() as f64;
    let per_rep = |name: &str| trace::total(&spans, name).0 / n;
    report.set("corpus.generate_s", per_rep("corpus.generate"));
    report.set("corpus.views_s", per_rep("corpus.views"));
    report.set("model.freeze_s", per_rep("model.freeze"));
    report.set("model.save_s", per_rep("model.save"));
    report.set("model.load_s", per_rep("model.load"));
    let med =
        |f: &dyn Fn(&Rep) -> f64| stats::median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    report.set("pipeline.wall_s", med(&|r| r.pipeline_s));
    report.set("trainer.tail_s", med(&|r| r.train_s - r.log.total_seconds()));
    let iters: Vec<f64> = traced.iter().flat_map(|r| iteration_seconds(&r.log)).collect();
    report.set("warp.iter_s", stats::median(&iters));
    let outside: Vec<f64> = traced
        .iter()
        .flat_map(|r| {
            iteration_seconds(&r.log)
                .into_iter()
                .zip(r.log.records().iter().map(|x| x.phase_seconds.unwrap_or(0.0)))
                .map(|(wall, phase)| wall - phase)
                .collect::<Vec<_>>()
        })
        .collect();
    report.set("warp.outside_phase_s", stats::median(&outside));
    if let Some((s, it)) = time_to_target(&traced[0].log) {
        report.set("trainer.time_to_target_s", s);
        report.set("trainer.iters_to_target", it as f64);
    }
    report.set("model.bytes", file_len(&t.model_path));
    report.set("checkpoint.bytes", file_len(&t.checkpoint));

    // One evaluation as the trainer runs it: log likelihood plus fold-in
    // held-out perplexity of a freshly frozen snapshot.
    let z = t.sampler.assignments();
    let t0 = Instant::now();
    std::hint::black_box(t.data.nll_per_token(params, &z));
    let eval = held_out_eval_fn(Arc::clone(&t.held_out), InferConfig::default(), 3);
    std::hint::black_box(eval(warplda::lda::trainer::EvalInput {
        corpus: &t.data.corpus,
        doc_view: &t.data.doc_view,
        word_view: &t.data.word_view,
        params: *params,
        assignments: &z,
    }));
    report.set("trainer.eval_s", workload::since(t0));
    let path = t.checkpoint.with_extension("bench");
    let t0 = Instant::now();
    save_checkpoint(&t.sampler, Some(t.data.corpus.vocab()), &path)
        .map_err(|e| format!("checkpoint: {e}"))?;
    report.set("checkpoint.save_s", workload::since(t0));

    layers::alias_replay(report, &t.data, params.num_topics, &z);
    layers::cachesim_iteration(
        report,
        &t.data,
        *params,
        *config,
        workload::derive_seed(args.seed, 1),
    );
    layers::extra_iterations(report, &mut t.sampler, |s: &WarpLda| s.last_phase_seconds(), 3);
    workload::account(report, &spans, "pipeline.run");
    Ok(())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
