//! Pieces every workload shares: seed derivation, corpus generation with a
//! held-out slice, repetition planning, layer accounting and the
//! assignment checks.

use std::time::Instant;

use warplda::prelude::*;

use crate::calib;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Span};
use crate::Args;

/// A well-mixed 64-bit value derived from the benchmark seed and a salt
/// naming its use (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated training corpus, its two views and held-out documents drawn
/// from the same generator (same planted topics and vocabulary).
pub struct Data {
    pub corpus: Corpus,
    pub doc_view: DocMajorView,
    pub word_view: WordMajorView,
    pub held_out: Vec<Vec<u32>>,
}

impl Data {
    /// Generates `preset` with its generator seed derived from `seed`,
    /// withholding the last `held_out_docs` documents from training.
    pub fn generate(preset: DatasetPreset, seed: u64, held_out_docs: usize) -> Data {
        let (corpus, held_out) = trace::timed("corpus.generate", || {
            let mut cfg = preset.config();
            cfg.seed = derive_seed(seed, cfg.seed);
            let train_docs = cfg.num_docs;
            cfg.num_docs += held_out_docs;
            let all = LdaGenerator::new(cfg).generate();
            let held_out = all.docs()[train_docs..].iter().map(|d| d.tokens().to_vec()).collect();
            let corpus = Corpus::from_parts(all.docs()[..train_docs].to_vec(), all.vocab().clone())
                .expect("a slice of a valid corpus is valid");
            (corpus, held_out)
        });
        let (doc_view, word_view) = trace::timed("corpus.views", || {
            let doc_view = DocMajorView::build(&corpus);
            let word_view = WordMajorView::build(&corpus, &doc_view);
            (doc_view, word_view)
        });
        Data { corpus, doc_view, word_view, held_out }
    }

    pub fn tokens(&self) -> u64 {
        self.corpus.num_tokens()
    }

    /// Log joint likelihood of `assignments` per training token, negated
    /// (lower is better).
    pub fn nll_per_token(&self, params: &ModelParams, assignments: &[u32]) -> f64 {
        let ll = log_joint_likelihood(
            &self.corpus,
            &self.doc_view,
            &self.word_view,
            params,
            assignments,
        );
        -ll / self.tokens() as f64
    }

    /// Freezes `assignments` into a serving model.
    pub fn freeze(&self, params: ModelParams, assignments: &[u32]) -> TopicModel {
        let state = SamplerState::from_assignments_with_views(
            &self.doc_view,
            &self.word_view,
            params,
            assignments.to_vec(),
        );
        TopicModel::freeze(&state, Some(self.corpus.vocab()))
    }
}

/// How many repetitions a run makes: enough to fill `seconds` at the
/// workload's nominal repetition time on the reference host, at least
/// `min`. The count depends only on the arguments, so two builds measured
/// with the same arguments do the same work.
pub fn repetitions(args: &Args, nominal_rep_s: f64, min: usize) -> usize {
    let n = ((args.seconds / nominal_rep_s).round() as usize).max(min);
    // A traced run alternates untraced and traced repetitions.
    if args.traced {
        n.max(4).next_multiple_of(2)
    } else {
        n
    }
}

/// Switches span recording for repetition `rep`: on only for the odd
/// repetitions of a traced run.
pub fn trace_rep(args: &Args, rep: usize) -> bool {
    let on = args.traced && rep % 2 == 1;
    trace::set_enabled(on);
    probe_host(3);
    on
}

/// Takes `n` host-speed probes (see `calib`) inside a span of their own.
pub fn probe_host(n: usize) {
    trace::timed("calib.probe", || calib::sample(n));
}

/// Checks that `topic_counts` equals a recount of `assignments` and sums to
/// the token count.
pub fn check_topic_counts(
    report: &mut Report,
    what: &str,
    assignments: &[u32],
    topic_counts: &[u32],
) {
    let mut recount = vec![0u32; topic_counts.len()];
    let mut in_range = true;
    for &z in assignments {
        match recount.get_mut(z as usize) {
            Some(c) => *c += 1,
            None => in_range = false,
        }
    }
    report.check(
        in_range && recount == topic_counts,
        &format!("{what}: c_k equals a recount of the assignments"),
    );
    let total: u64 = topic_counts.iter().map(|&c| c as u64).sum();
    report.check(total == assignments.len() as u64, &format!("{what}: c_k sums to T"));
}

/// FNV-1a digest of assignments, used to check that repetitions of one
/// seeded run are bit-identical.
pub fn digest(values: &[u32]) -> u64 {
    values
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| (h ^ v as u64).wrapping_mul(0x100_0000_01b3))
}

/// Sets the two latency metrics from per-operation samples (seconds).
pub fn set_latency(report: &mut Report, label: &str, samples_s: &[f64]) {
    let p50_ms = stats::median(samples_s) * 1e3;
    report.set("latency_p50_ms", p50_ms);
    report.show(&format!("{label} p50"), p50_ms, "ms", &format!("{} samples", samples_s.len()));
    match stats::tail(samples_s) {
        Some(t) => {
            report.set("latency_tail_ms", t.value * 1e3);
            report.show(
                &format!("{label} p{}", t.percentile),
                t.value * 1e3,
                "ms",
                &format!("{} samples, {} beyond", t.count, t.beyond),
            );
        }
        None => report.fail(format!("{label}: too few samples ({}) for a tail", samples_s.len())),
    }
}

/// Layer accounting of a traced run: for every repetition span named
/// `root`, its direct children are the top-level layers. Prints each
/// layer's total, their sum, the repetitions' wall time and the remainder,
/// and sets the `trace.*` metrics.
pub fn account(report: &mut Report, spans: &[Span], root: &str) {
    let own = trace::self_seconds(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    let wall: f64 = roots.iter().map(|s| s.seconds()).sum();
    // A repetition's remainder is its self time: the part of its interval
    // no top-level span covers.
    let remainder: f64 = roots.iter().map(|s| own[&s.id]).sum();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for s in spans.iter().filter(|s| roots.iter().any(|r| Some(r.id) == s.parent)) {
        match layers.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += s.seconds(),
            None => layers.push((s.name, s.seconds())),
        }
    }
    let top: f64 = layers.iter().map(|(_, t)| t).sum();
    println!("layer accounting over {} traced repetitions of {root}:", roots.len());
    for (name, t) in &layers {
        println!("  {name:<34} {t:>12.6} s");
    }
    println!("  {:<34} {top:>12.6} s", "sum of top-level spans");
    println!("  {:<34} {wall:>12.6} s", "wall");
    println!(
        "  {:<34} {remainder:>12.6} s ({:.2}%)",
        "remainder",
        100.0 * remainder / wall.max(1e-12)
    );
    report.set("trace.wall_s", wall);
    report.set("trace.top_level_s", top);
    report.set("trace.remainder_s", remainder);
}

/// Sets `trace.overhead_pct` from a per-repetition cost measured with
/// tracing off (even repetitions) and on (odd ones).
pub fn set_overhead(report: &mut Report, off: &[f64], on: &[f64]) {
    if !off.is_empty() && !on.is_empty() {
        let (off, on) = (stats::median(off), stats::median(on));
        report.set("trace.overhead_pct", 100.0 * (on - off) / off);
        report.show(
            "tracing overhead",
            100.0 * (on - off) / off,
            "%",
            "traced vs untraced repetitions",
        );
    }
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
