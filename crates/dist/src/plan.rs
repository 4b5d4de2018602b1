//! The deterministic exchange plan of multi-process training.
//!
//! The coordinator and every worker build the *same* [`ShardPlan`] from the
//! same inputs (the replica's token-matrix structure plus the
//! [`GridPartition`]), so entry lists never cross the wire: a delta or sync
//! frame carries only packed records, and both ends already agree — in order
//! — on which entries those records belong to.
//!
//! Per worker `i` the plan holds `owned_words[i]` / `owned_docs[i]`, the
//! columns/rows worker `i` advances in the word/doc phase. Per phase and per
//! (source, destination) pair it holds a *route*: the entries the source
//! advances in that phase whose other-phase owner is the destination.
//!
//! * `word_routes[s][d]`, `s ≠ d` — entries of `s`'s columns whose document
//!   `d` owns: `d` needs their word-phase output before its doc phase.
//! * `doc_routes[s][d]`, `s ≠ d` — entries of `s`'s rows whose word `d`
//!   owns: `d` needs their doc-phase output before the next word phase.
//! * The diagonal lists what `s` ships that no other worker reads: nothing
//!   in the word phase, and in the doc phase the rest of `s`'s rows, which
//!   complete the iteration boundary the coordinator commits.
//!
//! A delta from `s` is `s`'s routes laid out destination by destination
//! (`d` ascending, diagonal included); the sync to `d` is every other
//! worker's route to `d`, source by source (`s` ascending). The off-diagonal
//! routes of a phase are therefore exactly the tokens of the P×P grid's
//! off-diagonal cells, each crossing the wire once in and once out.
//!
//! Owned lists are in ascending entity order and every route is in
//! ascending entry order, which is what makes the plan identical on every
//! process without coordination. Entry ids are column-major, so the
//! ascending order also makes every gather and scatter of a route sweep the
//! packed record buffer front to back instead of hopping between columns.

use warplda_core::ShardedWarpLda;

use crate::grid::GridPartition;
use crate::protocol::Phase;

/// Per-worker ownership and per-pair exchange routes (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    workers: usize,
    /// Columns worker `i` advances in word phases.
    pub owned_words: Vec<Vec<u32>>,
    /// Rows worker `i` advances in doc phases.
    pub owned_docs: Vec<Vec<u32>>,
    /// `word_routes[s][d]`: entries of `s`'s columns whose row `d` owns;
    /// the diagonal is empty.
    pub word_routes: Vec<Vec<Vec<u32>>>,
    /// `doc_routes[s][d]`: entries of `s`'s rows whose column `d` owns;
    /// the diagonal holds the entries `s` owns in both phases.
    pub doc_routes: Vec<Vec<Vec<u32>>>,
}

impl ShardPlan {
    /// Builds the plan for `grid.workers()` workers over `sampler`'s matrix.
    /// Deterministic: every process building from the same corpus and worker
    /// count gets the identical plan.
    pub fn build(sampler: &ShardedWarpLda, grid: &GridPartition) -> Self {
        let p = grid.workers();
        let mut owned_words: Vec<Vec<u32>> = vec![Vec::new(); p];
        for w in 0..sampler.num_words() as u32 {
            owned_words[grid.word_owner(w) as usize].push(w);
        }
        let mut owned_docs: Vec<Vec<u32>> = vec![Vec::new(); p];
        for d in 0..sampler.num_docs() as u32 {
            owned_docs[grid.doc_owner(d) as usize].push(d);
        }

        // One sweep over the entries in record-buffer order fills every
        // route already sorted.
        let mut word_routes = vec![vec![Vec::new(); p]; p];
        let mut doc_routes = vec![vec![Vec::new(); p]; p];
        for w in 0..sampler.num_words() as u32 {
            let col_owner = grid.word_owner(w) as usize;
            let range = sampler.col_entry_range(w);
            for (e, &d) in range.zip(sampler.col_entry_rows(w)) {
                let row_owner = grid.doc_owner(d) as usize;
                if row_owner != col_owner {
                    word_routes[col_owner][row_owner].push(e as u32);
                }
                doc_routes[row_owner][col_owner].push(e as u32);
            }
        }

        Self { workers: p, owned_words, owned_docs, word_routes, doc_routes }
    }

    /// Cluster size `P`.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The routes of `phase`, indexed `[source][destination]`.
    pub fn routes(&self, phase: Phase) -> &[Vec<Vec<u32>>] {
        match phase {
            Phase::Word => &self.word_routes,
            Phase::Doc => &self.doc_routes,
        }
    }

    /// Entries worker `s` ships in a `phase` delta.
    pub fn shipped(&self, phase: Phase, s: usize) -> usize {
        self.routes(phase)[s].iter().map(Vec::len).sum()
    }

    /// Entries worker `d` receives in a `phase` sync.
    pub fn received(&self, phase: Phase, d: usize) -> usize {
        let routes = self.routes(phase);
        (0..self.workers).filter(|&s| s != d).map(|s| routes[s][d].len()).sum()
    }

    /// Where the route `s → d` sits in `s`'s `phase` delta, in entries.
    pub fn route_offset(&self, phase: Phase, s: usize, d: usize) -> usize {
        self.routes(phase)[s][..d].iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::{ModelParams, WarpLdaConfig};
    use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};
    use warplda_sparse::PartitionStrategy;

    fn build_all(corpus: &Corpus, workers: usize) -> (ShardedWarpLda, GridPartition, ShardPlan) {
        let dv = DocMajorView::build(corpus);
        let wv = WordMajorView::build(corpus, &dv);
        let grid = GridPartition::build_with(
            corpus,
            &dv,
            &wv,
            workers,
            PartitionStrategy::Greedy,
            PartitionStrategy::Dynamic,
        );
        let sampler = ShardedWarpLda::new(
            corpus,
            ModelParams::new(5, 0.5, 0.1),
            WarpLdaConfig::with_mh_steps(2),
            7,
        );
        let plan = ShardPlan::build(&sampler, &grid);
        (sampler, grid, plan)
    }

    /// The receive lists of the pre-route plan, derived straight from the
    /// grid: the entries of `d`'s rows whose word lives elsewhere (word
    /// phase) and of `d`'s columns whose document lives elsewhere (doc
    /// phase).
    fn cross_owner_entries(
        sampler: &ShardedWarpLda,
        grid: &GridPartition,
        phase: Phase,
        d: usize,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        match phase {
            Phase::Word => {
                for doc in
                    (0..sampler.num_docs() as u32).filter(|&r| grid.doc_owner(r) as usize == d)
                {
                    for (&e, &w) in
                        sampler.row_entry_ids(doc).iter().zip(sampler.row_entry_cols(doc))
                    {
                        if grid.word_owner(w) as usize != d {
                            out.push(e);
                        }
                    }
                }
            }
            Phase::Doc => {
                for w in
                    (0..sampler.num_words() as u32).filter(|&c| grid.word_owner(c) as usize == d)
                {
                    for (e, &doc) in sampler.col_entry_range(w).zip(sampler.col_entry_rows(w)) {
                        if grid.doc_owner(doc) as usize != d {
                            out.push(e as u32);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn deltas_partition_what_each_phase_must_report() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [1usize, 2, 3, 4] {
            let (sampler, _, plan) = build_all(&corpus, workers);
            // Doc phase: the deltas together are the whole boundary, each
            // entry exactly once, from the worker owning its row.
            let mut seen = vec![false; sampler.num_entries()];
            for (s, routes) in plan.doc_routes.iter().enumerate() {
                for &e in routes.iter().flatten() {
                    assert!(!seen[e as usize], "entry {e} shipped twice ({workers} workers)");
                    seen[e as usize] = true;
                }
                for &doc in &plan.owned_docs[s] {
                    assert!(sampler.row_entry_ids(doc).iter().all(|&e| seen[e as usize]));
                }
            }
            assert!(seen.iter().all(|&s| s), "some entry unreported ({workers} workers)");
            // Word phase: nothing stays on the diagonal.
            for (s, routes) in plan.word_routes.iter().enumerate() {
                assert!(routes[s].is_empty(), "worker {s} ships word records to itself");
            }
        }
    }

    #[test]
    fn routes_are_exactly_the_cross_owner_entries() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [2usize, 3, 4] {
            let (sampler, grid, plan) = build_all(&corpus, workers);
            for phase in [Phase::Word, Phase::Doc] {
                let routes = plan.routes(phase);
                let mut total = 0usize;
                for d in 0..workers {
                    // What `d` receives is the union of every other worker's
                    // route to it: exactly the pre-route plan's sync list.
                    let mut union: Vec<u32> = routes
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| s != d)
                        .flat_map(|(_, to)| to[d].iter().copied())
                        .collect();
                    assert_eq!(union.len(), plan.received(phase, d));
                    total += union.len();
                    union.sort_unstable();
                    let before = union.len();
                    union.dedup();
                    assert_eq!(union.len(), before, "{phase:?}: an entry routed twice to {d}");
                    assert_eq!(union, cross_owner_entries(&sampler, &grid, phase, d), "{phase:?}");
                }
                // Summed over workers that is the grid's off-diagonal count.
                assert_eq!(total as u64, grid.tokens_exchanged_per_phase_switch(), "{phase:?}");
                // And each route really crosses from its source to its
                // destination.
                let owners = entry_owners(&sampler, &grid);
                for (s, per_dest) in routes.iter().enumerate() {
                    for (d, route) in per_dest.iter().enumerate().filter(|&(d, _)| d != s) {
                        for &e in route {
                            let (row_owner, col_owner) = owners[e as usize];
                            let (src, dst) = match phase {
                                Phase::Word => (col_owner, row_owner),
                                Phase::Doc => (row_owner, col_owner),
                            };
                            assert_eq!((src, dst), (s, d), "{phase:?}: entry {e}");
                        }
                    }
                }
            }
        }
    }

    /// (row owner, column owner) of every entry.
    fn entry_owners(sampler: &ShardedWarpLda, grid: &GridPartition) -> Vec<(usize, usize)> {
        let mut owners = vec![(usize::MAX, usize::MAX); sampler.num_entries()];
        for doc in 0..sampler.num_docs() as u32 {
            for (&e, &w) in sampler.row_entry_ids(doc).iter().zip(sampler.row_entry_cols(doc)) {
                owners[e as usize] = (grid.doc_owner(doc) as usize, grid.word_owner(w) as usize);
            }
        }
        owners
    }

    #[test]
    fn one_worker_ships_no_word_records_and_receives_nothing() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let (sampler, _, plan) = build_all(&corpus, 1);
        assert!(plan.word_routes[0][0].is_empty());
        assert_eq!(plan.shipped(Phase::Word, 0), 0);
        assert_eq!(plan.received(Phase::Word, 0), 0);
        assert_eq!(plan.received(Phase::Doc, 0), 0);
        // The doc delta is still the whole boundary.
        assert_eq!(plan.shipped(Phase::Doc, 0), sampler.num_entries());
    }

    #[test]
    fn route_offsets_lay_deltas_out_destination_by_destination() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let (_, _, plan) = build_all(&corpus, 3);
        for phase in [Phase::Word, Phase::Doc] {
            for s in 0..3 {
                let mut at = 0;
                for d in 0..3 {
                    assert_eq!(plan.route_offset(phase, s, d), at);
                    at += plan.routes(phase)[s][d].len();
                }
                assert_eq!(at, plan.shipped(phase, s));
            }
        }
    }
}
