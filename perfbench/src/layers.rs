//! Trace-only measurements of single layers, taken off the clock after a
//! workload's repetitions: the `sampling` replay, one cache-simulated
//! iteration, and extra kernel iterations under the counting allocator.

use std::hint::black_box;
use std::time::Instant;

use warplda::prelude::*;
use warplda::sampling::{new_rng, AliasBuildScratch, SparseAliasTable};

use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::workload::Data;

/// Replays the workload's word-topic counts through
/// `SparseAliasTable::rebuild` and `sample`, as the word phase does: one
/// table per word over its non-zero `(topic, count)` pairs.
pub fn alias_replay(report: &mut Report, data: &Data, num_topics: usize, assignments: &[u32]) {
    let mut dense = vec![0u32; num_topics];
    let mut words: Vec<Vec<(u32, f64)>> = Vec::new();
    for w in 0..data.corpus.vocab_size() as u32 {
        let indices = data.word_view.word_token_indices(w);
        for &i in indices {
            dense[assignments[i as usize] as usize] += 1;
        }
        let mut pairs = Vec::new();
        for &i in indices {
            let t = assignments[i as usize];
            if dense[t as usize] > 0 {
                pairs.push((t, dense[t as usize] as f64));
                dense[t as usize] = 0;
            }
        }
        if !pairs.is_empty() {
            words.push(pairs);
        }
    }
    let entries: usize = words.iter().map(Vec::len).sum();
    let mut tables: Vec<SparseAliasTable> =
        words.iter().map(|p| SparseAliasTable::with_capacity(p.len())).collect();
    let mut scratch = AliasBuildScratch::new();
    const DRAWS_PER_TABLE: usize = 16;
    let mut rng = new_rng(7);
    let (mut build_s, mut draw_s, mut passes) = (0.0, 0.0, 0usize);
    while passes < 3 || build_s + draw_s < 0.3 {
        let t0 = Instant::now();
        for (table, pairs) in tables.iter_mut().zip(&words) {
            table.rebuild(black_box(pairs), &mut scratch);
        }
        let t1 = Instant::now();
        for table in &tables {
            for _ in 0..DRAWS_PER_TABLE {
                black_box(table.sample(&mut rng));
            }
        }
        build_s += (t1 - t0).as_secs_f64();
        draw_s += t1.elapsed().as_secs_f64();
        passes += 1;
    }
    let build_ns = build_s * 1e9 / (entries * passes) as f64;
    let draw_ns = draw_s * 1e9 / (words.len() * passes * DRAWS_PER_TABLE) as f64;
    report.set("sampling.alias_build_ns_per_entry", build_ns);
    report.set("sampling.alias_draw_ns", draw_ns);
    report.show("sampling.alias_build_ns_per_entry", build_ns, "ns", &format!("{entries} entries"));
    report.show("sampling.alias_draw_ns", draw_ns, "ns", "");
}

/// One WarpLDA iteration from a fresh start under the Ivy Bridge cache
/// simulator: simulated accesses per token and mean latency.
pub fn cachesim_iteration(
    report: &mut Report,
    data: &Data,
    params: ModelParams,
    config: WarpLdaConfig,
    seed: u64,
) {
    let mut sampler =
        WarpLda::with_probe(&data.corpus, params, config, seed, CacheProbe::ivy_bridge());
    sampler.run_iteration();
    let stats = sampler.probe().stats();
    let per_token = stats.accesses as f64 / data.tokens() as f64;
    report.set("cachesim.accesses_per_token", per_token);
    report.set("cachesim.mean_latency_cycles", stats.mean_latency_cycles());
    report.show("cachesim.accesses_per_token", per_token, "count", "exact, one iteration");
    report.show("cachesim.mean_latency_cycles", stats.mean_latency_cycles(), "cycles", "");
}

/// Runs `extra` more iterations of a trained sampler with allocation
/// counting on: allocations per iteration, the fraction of tokens whose
/// topic changed in the first of them, and the median word/doc phase split
/// read through `phases`.
pub fn extra_iterations<S: Sampler + ?Sized>(
    report: &mut Report,
    sampler: &mut S,
    phases: impl Fn(&S) -> (f64, f64),
    extra: usize,
) {
    let before = sampler.assignments();
    let (mut word, mut doc) = (Vec::new(), Vec::new());
    let mut allocs = 0;
    let mut changed = 0;
    for i in 0..extra {
        let ((), n) = sys::count_allocs(|| sampler.run_iteration());
        allocs += n;
        if i == 0 {
            let after = sampler.assignments();
            changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        }
        let (w, d) = phases(sampler);
        word.push(w);
        doc.push(d);
    }
    let change = changed as f64 / before.len().max(1) as f64;
    report.set("warp.allocs_per_iter", allocs as f64 / extra as f64);
    report.set("warp.topic_change_frac", change);
    report.set("warp.word_phase_s", stats::median(&word));
    report.set("warp.doc_phase_s", stats::median(&doc));
    report.show("warp.allocs_per_iter", allocs as f64 / extra as f64, "count", "steady state");
    report.show("warp.topic_change_frac", change, "ratio", "one iteration after the budget");
    report.show("warp.word_phase_s", stats::median(&word), "s", "");
    report.show("warp.doc_phase_s", stats::median(&doc), "s", "");
}
