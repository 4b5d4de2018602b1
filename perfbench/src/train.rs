//! `train-pubmed-t2` and `dist-pubmed-w2`: the same PubMed-like problem,
//! seed and iteration budget, trained by `ParallelWarpLda` on two threads
//! or by a `ProcessCluster` of two worker processes. Both compute the same
//! bits, so the gap between them is the cost of the distributed data path.

use std::path::PathBuf;
use std::time::Instant;

use warplda::prelude::*;

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::trace;
use crate::workload::{self, Data};
use crate::Args;

pub const TOPICS: usize = 1000;
pub const MH_STEPS: usize = 2;
pub const THREADS: usize = 2;
const WORKERS: usize = 2;
pub const HELD_OUT_DOCS: usize = 200;
const BUDGET: usize = 16;

/// Which execution mode trains the model.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Threads,
    Processes,
}

impl Backend {
    fn root(self) -> &'static str {
        match self {
            Backend::Threads => "train.run",
            Backend::Processes => "dist.run",
        }
    }

    /// Wall time of one repetition on the reference host.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Backend::Threads => 3.4,
            Backend::Processes => 7.0,
        }
    }
}

pub fn params() -> ModelParams {
    ModelParams::paper_defaults(TOPICS)
}

pub fn config() -> WarpLdaConfig {
    WarpLdaConfig::with_mh_steps(MH_STEPS)
}

/// The worker binary built next to this executable by the same build.
fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name(format!("warplda-dist-worker{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "worker binary {} is missing; build the benchmark package first",
            path.display()
        ))
    }
}

/// The trained state of a repetition (one lives at a time, so its size is
/// irrelevant).
#[allow(clippy::large_enum_variant)]
enum Model {
    Threads(ParallelWarpLda),
    Processes(ProcessCluster),
}

impl Model {
    fn assignments(&self) -> Vec<u32> {
        match self {
            Model::Threads(s) => s.assignments(),
            Model::Processes(c) => c.assignments(),
        }
    }

    fn topic_counts(&self) -> &[u32] {
        match self {
            Model::Threads(s) => s.topic_counts(),
            Model::Processes(c) => c.topic_counts(),
        }
    }
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    train_s: f64,
    /// Wall seconds of each iteration.
    iters: Vec<f64>,
    /// `(word, doc)` phase seconds of each iteration (threads only).
    phases: Vec<(f64, f64)>,
    spawn_s: f64,
    bytes: u64,
    recoveries: u64,
    worker_cpu_s: f64,
    coordinator_cpu_s: f64,
    worker_rss_mb: f64,
}

fn run_once(
    args: &Args,
    backend: Backend,
    report: &mut Report,
) -> Result<(Rep, Data, Model), String> {
    let seed = workload::derive_seed(args.seed, 1);
    let root = trace::span(backend.root());
    let t0 = Instant::now();
    let data = Data::generate(DatasetPreset::PubMedLike, args.seed, HELD_OUT_DOCS);
    let t_new = Instant::now();
    let mut model = match backend {
        Backend::Threads => Model::Threads(trace::timed("warp.new", || {
            ParallelWarpLda::new(&data.corpus, params(), config(), seed, THREADS)
        })),
        Backend::Processes => {
            let mut cfg = ProcessClusterConfig::new(WORKERS);
            cfg.worker_binary = Some(worker_binary()?);
            Model::Processes(
                trace::timed("dist.spawn", || {
                    ProcessCluster::new(&data.corpus, params(), config(), seed, cfg)
                })
                .map_err(|e| format!("spawning the cluster: {e}"))?,
            )
        }
    };
    let spawn_s = workload::since(t_new);
    let setup_s = workload::since(t0);

    let mut rep = Rep {
        setup_s,
        train_s: 0.0,
        iters: Vec::with_capacity(BUDGET),
        phases: Vec::with_capacity(BUDGET),
        spawn_s,
        bytes: 0,
        recoveries: 0,
        worker_cpu_s: 0.0,
        coordinator_cpu_s: 0.0,
        worker_rss_mb: 0.0,
    };
    let pids = match &model {
        Model::Processes(c) if report.traced() => c.worker_pids(),
        _ => Vec::new(),
    };
    let cpu = |pids: &[u32]| -> (f64, f64) {
        let workers = pids.iter().filter_map(|&p| sys::cpu_seconds(Some(p))).sum();
        (workers, sys::cpu_seconds(None).unwrap_or(0.0))
    };
    let cpu0 = cpu(&pids);
    let train = trace::span("train.iterations");
    let t_train = Instant::now();
    for _ in 0..BUDGET {
        report.attempt(1);
        let t = Instant::now();
        match &mut model {
            Model::Threads(s) => {
                trace::timed("warp.run_iteration", || s.run_iteration());
                rep.phases.push(s.last_phase_seconds());
            }
            Model::Processes(c) => match trace::timed("dist.run_iteration", || c.run_iteration()) {
                Ok(r) => {
                    rep.bytes += r.bytes_exchanged;
                    rep.recoveries += r.recoveries as u64;
                }
                Err(e) => {
                    report.fail(format!("distributed iteration: {e}"));
                    return Err(format!("distributed iteration: {e}"));
                }
            },
        }
        rep.iters.push(workload::since(t));
        // Host probes feed the end-to-end normalization only; a traced run
        // skips them so they stay out of the per-layer CPU accounting.
        if !report.traced() {
            workload::probe_host(1);
        }
    }
    rep.train_s = workload::since(t_train);
    drop(train);
    drop(root);
    let cpu1 = cpu(&pids);
    rep.worker_cpu_s = cpu1.0 - cpu0.0;
    rep.coordinator_cpu_s = cpu1.1 - cpu0.1;
    let rss: Vec<f64> = pids.iter().filter_map(|&p| sys::rss_mb(p)).collect();
    if !rss.is_empty() {
        rep.worker_rss_mb = rss.iter().sum::<f64>() / rss.len() as f64;
    }
    Ok((rep, data, model))
}

pub fn run(args: &Args, backend: Backend, report: &mut Report) -> Result<(), String> {
    let reps = workload::repetitions(args, backend.nominal_rep_s(), 3);
    let mut done: Vec<(Rep, bool)> = Vec::new();
    // Rep 0's corpus, assignments and c_k.
    let mut first: Option<(Data, Vec<u32>, Vec<u32>)> = None;
    let mut last_threads: Option<(Data, ParallelWarpLda)> = None;
    for i in 0..reps {
        let traced = workload::trace_rep(args, i);
        let (rep, data, model) = run_once(args, backend, report)?;
        trace::set_enabled(false);
        let z = model.assignments();
        let ck = model.topic_counts().to_vec();
        workload::check_topic_counts(report, backend.root(), &z, &ck);
        let sampler = match model {
            Model::Threads(s) => Some(s),
            Model::Processes(cluster) => {
                report.check(cluster.recoveries() == 0, "distributed run needed no recoveries");
                report.check(cluster.shutdown().is_ok(), "workers shut down cleanly");
                None
            }
        };
        match &first {
            None => first = Some((data, z, ck)),
            Some((_, z0, _)) => {
                report.check(z == *z0, "repetitions of one seed end bit-identical");
                if let (true, Some(s)) = (traced, sampler) {
                    last_threads = Some((data, s));
                }
            }
        }
        done.push((rep, traced));
    }
    let (data, z, ck) = first.expect("at least one repetition");
    let tokens = data.tokens() as f64;

    let med = |f: &dyn Fn(&Rep) -> f64| {
        stats::median(&done.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
    };
    let setup_s = med(&|r| r.setup_s);
    // Iteration time only: the training section also holds host probes.
    let throughput = med(&|r| tokens * BUDGET as f64 / r.iters.iter().sum::<f64>());
    let iters: Vec<f64> = done.iter().flat_map(|(r, _)| r.iters.iter().copied()).collect();
    let nll = data.nll_per_token(&params(), &z);
    let model = data.freeze(params(), &z);
    let held_out = HeldOutSet::from_docs(data.held_out.clone());
    let ppl = fold_in_perplexity(&model, InferConfig::default(), &held_out, 3, 2)
        .ok_or("empty held-out set")?;
    report.set("setup_s", setup_s);
    report.set("throughput_per_s", throughput);
    report.set("heldout_nll_per_token", ppl.ln());
    report.set("train_nll_per_token", nll);
    workload::set_latency(report, "iteration", &iters);
    report.show("setup_s", setup_s, "s", &format!("median of {reps}"));
    report.show("train_tokens_per_s", throughput, "tok/s", &format!("{BUDGET} iterations"));
    report.show("final_loglik_per_token", -nll, "nats", "");
    report.show(
        "heldout_perplexity",
        ppl,
        "ppl",
        &format!("{} held-out docs", held_out.num_docs()),
    );

    if report.traced() {
        let traced: Vec<&Rep> = done.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
        let untraced: Vec<&Rep> = done.iter().filter(|(_, t)| !*t).map(|(r, _)| r).collect();
        workload::set_overhead(
            report,
            &untraced.iter().map(|r| r.train_s).collect::<Vec<_>>(),
            &traced.iter().map(|r| r.train_s).collect::<Vec<_>>(),
        );
        let spans = trace::recorded();
        let n = traced.len() as f64;
        report.set("corpus.generate_s", trace::total(&spans, "corpus.generate").0 / n);
        report.set("corpus.views_s", trace::total(&spans, "corpus.views").0 / n);
        let traced_iters: Vec<f64> = traced.iter().flat_map(|r| r.iters.iter().copied()).collect();
        match backend {
            Backend::Threads => {
                let outside: Vec<f64> = traced
                    .iter()
                    .flat_map(|r| r.iters.iter().zip(&r.phases).map(|(w, (a, b))| w - a - b))
                    .collect();
                report.set("warp.iter_s", stats::median(&traced_iters));
                report.set("warp.outside_phase_s", stats::median(&outside));
                report.show("warp.iter_s", stats::median(&traced_iters), "s", "");
                report.show(
                    "warp.outside_phase_s",
                    stats::median(&outside),
                    "s",
                    "fork/join and c_k merge",
                );
                let (data, mut sampler) =
                    last_threads.ok_or("a traced run makes traced repetitions")?;
                layers::alias_replay(report, &data, TOPICS, &sampler.assignments());
                layers::cachesim_iteration(
                    report,
                    &data,
                    params(),
                    config(),
                    workload::derive_seed(args.seed, 1),
                );
                layers::extra_iterations(
                    report,
                    &mut sampler,
                    |s: &ParallelWarpLda| s.last_phase_seconds(),
                    3,
                );
            }
            Backend::Processes => {
                let dist_iter = stats::median(&traced_iters);
                let per_iter = |f: &dyn Fn(&Rep) -> f64| {
                    traced.iter().map(|r| f(r)).sum::<f64>() / (traced.len() * BUDGET) as f64
                };
                let busy = traced
                    .iter()
                    .map(|r| r.worker_cpu_s / (WORKERS as f64 * r.train_s))
                    .sum::<f64>()
                    / n;
                report.set("dist.spawn_s", traced.iter().map(|r| r.spawn_s).sum::<f64>() / n);
                report.set("dist.iter_s", dist_iter);
                report.set("dist.bytes_per_token_iter", per_iter(&|r| r.bytes as f64) / tokens);
                report.set("dist.worker_busy_frac", busy);
                report.set("dist.coordinator_cpu_s_per_iter", per_iter(&|r| r.coordinator_cpu_s));
                report.set(
                    "dist.worker_rss_mb",
                    traced.iter().map(|r| r.worker_rss_mb).sum::<f64>() / n,
                );
                report.set("dist.recoveries", traced.iter().map(|r| r.recoveries as f64).sum());
                report.show("dist.iter_s", dist_iter, "s", "");
                report.show("dist.worker_busy_frac", busy, "ratio", "");

                // The threaded twin: same corpus, seed and budget must end
                // with the same assignments and c_k.
                let twin = twin(&data, args);
                report.check(twin.0 == z, "dist assignments equal train-pubmed-t2's");
                report.check(twin.1 == ck, "dist c_k equals train-pubmed-t2's");
                report.set("dist.overhead_s_per_iter", dist_iter - twin.2);
                report.show(
                    "dist.overhead_s_per_iter",
                    dist_iter - twin.2,
                    "s",
                    "vs the threaded twin's iteration",
                );
            }
        }
        workload::account(report, &spans, backend.root());
    }
    Ok(())
}

/// Trains `train-pubmed-t2`'s sampler on the same corpus, seed and budget:
/// its assignments, `c_k` and median iteration seconds.
fn twin(data: &Data, args: &Args) -> (Vec<u32>, Vec<u32>, f64) {
    let mut s = ParallelWarpLda::new(
        &data.corpus,
        params(),
        config(),
        workload::derive_seed(args.seed, 1),
        THREADS,
    );
    let mut iters = Vec::with_capacity(BUDGET);
    for _ in 0..BUDGET {
        let t = Instant::now();
        s.run_iteration();
        iters.push(workload::since(t));
    }
    (s.assignments(), s.topic_counts().to_vec(), stats::median(&iters))
}
