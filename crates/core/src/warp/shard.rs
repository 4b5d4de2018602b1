//! The per-process building block of *real* (multi-process) distributed
//! WarpLDA training.
//!
//! A [`ShardedWarpLda`] is a full WarpLDA sampler replicated on every
//! process: each worker constructs it from the same corpus, parameters and
//! seed, so all replicas start bit-identical. During an iteration a worker
//! only *advances* its own shard — the columns (word phase) or rows (doc
//! phase) a `GridPartition` assigned to it — and exchanges the changed
//! records plus its partial `c_k` with the coordinator at phase boundaries.
//!
//! The determinism argument mirrors the in-process parallel driver
//! ([`super::parallel`]): every column and row derives its RNG stream purely
//! from `(seed, iteration, phase, entity)` via
//! [`warplda_sampling::split_seed`], within a phase the global `c_k` is
//! read-only and each entity's records are touched exactly once, and the
//! partial `c_k` vectors merge by commutative integer addition. Any
//! partitioning of the entities across processes therefore reproduces
//! [`super::parallel::ParallelWarpLda`] bit for bit, provided every replica
//! installs the same merged `c_k` at each phase boundary and receives the
//! records of entities it does not own before it needs them (word-phase
//! output feeds the doc phase through rows; doc-phase output feeds the next
//! word phase through columns).
//!
//! The sampler also implements [`Sampler`] by running both phases over *all*
//! entities — a one-process cluster — which is what the differential suites
//! compare against the parallel oracle, and [`Checkpointable`] under the
//! same kind and layout as `ParallelWarpLda`, so a checkpoint written by
//! either backend resumes under the other.

use rand::rngs::SmallRng;

use warplda_cachesim::NoProbe;
use warplda_corpus::io::codec::{CodecError, CodecResult, Decoder, Encoder};
use warplda_corpus::Corpus;
use warplda_sampling::{new_rng, split_seed};
use warplda_sparse::PackedRecords;

use crate::checkpoint::Checkpointable;
use crate::params::ModelParams;
use crate::sampler::Sampler;

use super::{process_word_column, RecPtr, WarpLda, WarpLdaConfig};

/// A WarpLDA replica that advances only the columns/rows it is told to own,
/// with explicit record import/export and `c_k` installation for the
/// distributed runtime to drive.
pub struct ShardedWarpLda {
    inner: WarpLda<NoProbe>,
    seed: u64,
}

impl ShardedWarpLda {
    /// Creates a replica. Every process of a cluster must call this with the
    /// same corpus, parameters, configuration and seed so the replicas start
    /// bit-identical (the initial state is a pure function of those inputs).
    pub fn new(corpus: &Corpus, params: ModelParams, config: WarpLdaConfig, seed: u64) -> Self {
        Self { inner: WarpLda::new(corpus, params, config, seed), seed }
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.inner.params
    }

    /// The sampler configuration.
    pub fn config(&self) -> &WarpLdaConfig {
        &self.inner.config
    }

    /// The seed the per-entity RNG streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Completed iterations (the epoch counter of the distributed protocol).
    pub fn iterations(&self) -> u64 {
        self.inner.iterations
    }

    /// The global topic counts as of the last installed phase boundary.
    pub fn topic_counts(&self) -> &[u32] {
        &self.inner.topic_counts
    }

    /// Number of documents (matrix rows).
    pub fn num_docs(&self) -> usize {
        self.inner.matrix.num_rows()
    }

    /// Number of vocabulary words (matrix columns).
    pub fn num_words(&self) -> usize {
        self.inner.vocab_size
    }

    /// Number of token entries.
    pub fn num_entries(&self) -> usize {
        self.inner.matrix.num_entries()
    }

    /// Words per packed record (`M + 1`).
    pub fn stride(&self) -> usize {
        self.inner.records.stride()
    }

    /// Entry ids of document `d`, in row order.
    pub fn row_entry_ids(&self, d: u32) -> &[u32] {
        self.inner.matrix.row_entry_ids(d)
    }

    /// Word id of each entry of document `d`, aligned with
    /// [`row_entry_ids`](Self::row_entry_ids).
    pub fn row_entry_cols(&self, d: u32) -> &[u32] {
        self.inner.matrix.row_entry_cols(d)
    }

    /// The contiguous entry-id range of word `w`'s column.
    pub fn col_entry_range(&self, w: u32) -> std::ops::Range<usize> {
        self.inner.matrix.col_entry_range(w)
    }

    /// Document id of each entry of word `w`'s column, in entry order.
    pub fn col_entry_rows(&self, w: u32) -> &[u32] {
        self.inner.matrix.col_entry_rows(w)
    }

    /// The full packed record buffer (for building resume payloads).
    pub fn records_slice(&self) -> &[u32] {
        self.inner.records.as_slice()
    }

    /// Runs the word phase over the owned columns `words` only, accumulating
    /// the updated counts of those columns into `partial_ck` (zeroed first).
    /// The global `c_k` read by the MH chains is whatever the last
    /// [`install_topic_counts`](Self::install_topic_counts) installed.
    /// `words` must be distinct; results are independent of their order.
    pub fn run_word_phase_shard(&mut self, words: &[u32], partial_ck: &mut [u32]) {
        let k = self.inner.params.num_topics;
        assert_eq!(partial_ck.len(), k, "partial c_k must have one slot per topic");
        let m = self.inner.config.mh_steps;
        let beta = self.inner.params.beta;
        let beta_bar = self.inner.beta_bar;
        let use_hash = self.inner.config.use_hash_counts;
        let region_cw = self.inner.region_cw;
        let region_ck = self.inner.region_ck;
        // Same stream roots as the parallel driver: the shard boundary must
        // not show up in the sampled values.
        let phase_seed = split_seed(self.seed, self.inner.iterations * 2);
        partial_ck.fill(0);

        let WarpLda { matrix, records, topic_counts, scratch, probe, .. } = &mut self.inner;
        for &w in words {
            let range = matrix.col_entry_range(w);
            if range.is_empty() {
                continue;
            }
            let mut rng: SmallRng = new_rng(split_seed(phase_seed, w as u64));
            let block = records.block_mut(range);
            process_word_column(
                block,
                m,
                k,
                beta,
                beta_bar,
                topic_counts,
                partial_ck,
                scratch,
                use_hash,
                &mut rng,
                probe,
                region_cw,
                region_ck,
            );
        }
    }

    /// Runs the doc phase over the owned rows `docs` only, accumulating into
    /// `partial_ck` (zeroed first). Same contract as
    /// [`run_word_phase_shard`](Self::run_word_phase_shard).
    pub fn run_doc_phase_shard(&mut self, docs: &[u32], partial_ck: &mut [u32]) {
        let k = self.inner.params.num_topics;
        assert_eq!(partial_ck.len(), k, "partial c_k must have one slot per topic");
        let alpha = self.inner.params.alpha;
        let alpha_bar = self.inner.params.alpha_bar();
        let beta_bar = self.inner.beta_bar;
        let use_hash = self.inner.config.use_hash_counts;
        let region_cd = self.inner.region_cd;
        let region_ck = self.inner.region_ck;
        let phase_seed = split_seed(self.seed, self.inner.iterations * 2 + 1);
        partial_ck.fill(0);

        let WarpLda { matrix, records, topic_counts, scratch, probe, .. } = &mut self.inner;
        let recs = RecPtr::new(records);
        for &d in docs {
            let entries = matrix.row_entry_ids(d);
            if entries.is_empty() {
                continue;
            }
            let mut rng: SmallRng = new_rng(split_seed(phase_seed, d as u64));
            // SAFETY: `recs` wraps the exclusively borrowed `records`, the
            // loop is serial and the caller passes distinct rows, so each
            // record is touched once.
            unsafe {
                super::process_doc_row(
                    entries,
                    recs,
                    k,
                    alpha,
                    alpha_bar,
                    beta_bar,
                    topic_counts,
                    partial_ck,
                    scratch,
                    use_hash,
                    &mut rng,
                    probe,
                    region_cd,
                    region_ck,
                );
            }
        }
    }

    /// Installs the merged global `c_k` of a phase boundary (the sum of every
    /// worker's partial). Mirrors the parallel driver's reduce-then-swap.
    pub fn install_topic_counts(&mut self, ck: &[u32]) {
        assert_eq!(ck.len(), self.inner.params.num_topics, "c_k must have one slot per topic");
        self.inner.topic_counts.copy_from_slice(ck);
        self.inner.next_topic_counts.fill(0);
    }

    /// Advances the epoch counter once both phases of an iteration have run
    /// and their boundaries were installed.
    pub fn advance_iteration(&mut self) {
        self.inner.iterations += 1;
    }

    /// Writes the packed records of `entries` (in that order) to `out`
    /// (cleared first): `entries.len() × stride` words.
    pub fn export_records(&self, entries: &[u32], out: &mut Vec<u32>) {
        let stride = self.stride();
        let records = self.inner.records.as_slice();
        out.clear();
        out.resize(entries.len() * stride, 0);
        for (dst, &e) in out.chunks_exact_mut(stride).zip(entries) {
            let at = e as usize * stride;
            // An element loop, not `copy_from_slice`: a record is a few words,
            // far below where a `memcpy` call pays for itself.
            for (d, &w) in dst.iter_mut().zip(&records[at..at + stride]) {
                *d = w;
            }
        }
    }

    /// Overwrites the packed records of `entries` (in that order) with
    /// `words`, the wire form produced by
    /// [`export_records`](Self::export_records) on the owning peer. Length
    /// and topic-range mismatches are typed corruption errors — this is the
    /// validation gate for record payloads arriving off the wire.
    pub fn import_records(&mut self, entries: &[u32], words: &[u32]) -> CodecResult<()> {
        let stride = self.stride();
        if words.len() != entries.len() * stride {
            return Err(CodecError::Corrupt(format!(
                "record delta holds {} words but {} entries × stride {stride} need {}",
                words.len(),
                entries.len(),
                entries.len() * stride,
            )));
        }
        let k = self.inner.params.num_topics;
        // A branch-free maximum vectorizes; searching for the first bad word
        // does not.
        let max = words.iter().fold(0u32, |m, &t| m.max(t));
        if max as usize >= k {
            return Err(CodecError::Corrupt(format!(
                "record delta topic {max} out of range (K = {k})"
            )));
        }
        let records = self.inner.records.as_mut_slice();
        for (rec, &e) in words.chunks_exact(stride).zip(entries) {
            let at = e as usize * stride;
            for (d, &w) in records[at..at + stride].iter_mut().zip(rec) {
                *d = w;
            }
        }
        Ok(())
    }

    /// Replaces the full sampler state (epoch, packed records, `c_k`) — how a
    /// worker adopts a resume payload the coordinator read from a checkpoint.
    /// Validates the same structural invariants as checkpoint decoding.
    pub fn restore(
        &mut self,
        iterations: u64,
        records: &[u32],
        topic_counts: &[u32],
    ) -> CodecResult<()> {
        let stride = self.stride();
        let entries = self.num_entries();
        let k = self.inner.params.num_topics;
        if records.len() != entries * stride {
            return Err(CodecError::Corrupt(format!(
                "resume state holds {} record words but the corpus needs {} \
                 ({entries} entries × stride {stride})",
                records.len(),
                entries * stride,
            )));
        }
        if let Some(&bad) = records.iter().find(|&&t| t as usize >= k) {
            return Err(CodecError::Corrupt(format!(
                "resume record topic {bad} out of range (K = {k})"
            )));
        }
        if topic_counts.len() != k {
            return Err(CodecError::Corrupt(format!(
                "resume c_k has {} slots for K = {k}",
                topic_counts.len()
            )));
        }
        let mut hist = vec![0u32; k];
        for &t in records.iter().step_by(stride) {
            hist[t as usize] += 1;
        }
        if topic_counts != hist {
            return Err(CodecError::Corrupt(
                "resume c_k does not match the assignment histogram".to_string(),
            ));
        }
        self.inner.records = PackedRecords::from_raw(records.to_vec(), stride);
        self.inner.topic_counts = topic_counts.to_vec();
        self.inner.next_topic_counts.fill(0);
        self.inner.iterations = iterations;
        Ok(())
    }
}

impl Sampler for ShardedWarpLda {
    fn name(&self) -> &'static str {
        "WarpLDA (sharded)"
    }

    fn params(&self) -> &ModelParams {
        &self.inner.params
    }

    /// A one-process cluster: both phases over all entities, each boundary
    /// installing the (trivially merged) partial. Bit-identical to
    /// [`super::parallel::ParallelWarpLda`] under any thread count.
    fn run_iteration(&mut self) {
        let k = self.inner.params.num_topics;
        let mut partial = vec![0u32; k];
        let all_words: Vec<u32> = (0..self.num_words() as u32).collect();
        self.run_word_phase_shard(&all_words, &mut partial);
        self.install_topic_counts(&partial);
        let all_docs: Vec<u32> = (0..self.num_docs() as u32).collect();
        self.run_doc_phase_shard(&all_docs, &mut partial);
        self.install_topic_counts(&partial);
        self.advance_iteration();
    }

    fn iterations(&self) -> u64 {
        self.inner.iterations
    }

    fn assignments(&self) -> Vec<u32> {
        self.inner.assignments()
    }
}

impl Checkpointable for ShardedWarpLda {
    /// Same kind and layout as `ParallelWarpLda`: a checkpoint written by the
    /// in-process parallel backend resumes under the distributed one and
    /// vice versa (continuation is backend- and worker-count independent).
    fn checkpoint_kind(&self) -> &'static str {
        "warplda-parallel"
    }

    fn write_state(&self, enc: &mut Encoder<'_>) -> CodecResult<()> {
        enc.write_u64(self.seed)?;
        self.inner.write_state(enc)
    }

    fn read_state(&mut self, dec: &mut Decoder<'_>) -> CodecResult<()> {
        let seed = dec.read_u64()?;
        self.inner.read_state(dec)?;
        self.seed = seed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::parallel::ParallelWarpLda;
    use super::*;
    use crate::checkpoint::{read_checkpoint, write_checkpoint};
    use warplda_corpus::DatasetPreset;

    fn setup() -> (Corpus, ModelParams, WarpLdaConfig) {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        (corpus, ModelParams::new(6, 0.5, 0.1), WarpLdaConfig::with_mh_steps(2))
    }

    #[test]
    fn full_ownership_run_matches_the_parallel_oracle() {
        let (corpus, params, config) = setup();
        let mut sharded = ShardedWarpLda::new(&corpus, params, config, 21);
        let mut oracle = ParallelWarpLda::new(&corpus, params, config, 21, 3);
        for _ in 0..3 {
            sharded.run_iteration();
            oracle.run_iteration();
            assert_eq!(sharded.assignments(), oracle.assignments());
            assert_eq!(sharded.topic_counts(), oracle.inner().topic_counts());
        }
    }

    #[test]
    fn two_replicas_with_record_exchange_match_the_oracle() {
        // An in-process rehearsal of the distributed protocol: two replicas,
        // words and docs split between them, records exchanged in full and
        // partials merged at each phase boundary.
        let (corpus, params, config) = setup();
        let seed = 33;
        let mut a = ShardedWarpLda::new(&corpus, params, config, seed);
        let mut b = ShardedWarpLda::new(&corpus, params, config, seed);
        let mut oracle = ParallelWarpLda::new(&corpus, params, config, seed, 2);

        let words_a: Vec<u32> = (0..a.num_words() as u32 / 2).collect();
        let words_b: Vec<u32> = (a.num_words() as u32 / 2..a.num_words() as u32).collect();
        let docs_a: Vec<u32> = (0..a.num_docs() as u32 / 2).collect();
        let docs_b: Vec<u32> = (a.num_docs() as u32 / 2..a.num_docs() as u32).collect();
        let entries_of_words = |s: &ShardedWarpLda, words: &[u32]| -> Vec<u32> {
            words.iter().flat_map(|&w| s.col_entry_range(w)).map(|e| e as u32).collect()
        };
        let entries_of_docs = |s: &ShardedWarpLda, docs: &[u32]| -> Vec<u32> {
            docs.iter().flat_map(|&d| s.row_entry_ids(d).iter().copied()).collect()
        };
        let ea_w = entries_of_words(&a, &words_a);
        let eb_w = entries_of_words(&b, &words_b);
        let ea_d = entries_of_docs(&a, &docs_a);
        let eb_d = entries_of_docs(&b, &docs_b);

        let k = params.num_topics;
        let (mut pa, mut pb) = (vec![0u32; k], vec![0u32; k]);
        let mut wire = Vec::new();
        for _ in 0..3 {
            // Word phase on each replica's shard, then cross-import.
            a.run_word_phase_shard(&words_a, &mut pa);
            b.run_word_phase_shard(&words_b, &mut pb);
            let merged: Vec<u32> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
            a.export_records(&ea_w, &mut wire);
            b.import_records(&ea_w, &wire).unwrap();
            b.export_records(&eb_w, &mut wire);
            a.import_records(&eb_w, &wire).unwrap();
            a.install_topic_counts(&merged);
            b.install_topic_counts(&merged);

            // Doc phase, same dance.
            a.run_doc_phase_shard(&docs_a, &mut pa);
            b.run_doc_phase_shard(&docs_b, &mut pb);
            let merged: Vec<u32> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
            a.export_records(&ea_d, &mut wire);
            b.import_records(&ea_d, &wire).unwrap();
            b.export_records(&eb_d, &mut wire);
            a.import_records(&eb_d, &wire).unwrap();
            a.install_topic_counts(&merged);
            b.install_topic_counts(&merged);
            a.advance_iteration();
            b.advance_iteration();

            oracle.run_iteration();
            assert_eq!(a.assignments(), oracle.assignments());
            assert_eq!(b.assignments(), oracle.assignments());
            assert_eq!(a.topic_counts(), oracle.inner().topic_counts());
        }
    }

    #[test]
    fn import_rejects_malformed_deltas_with_typed_errors() {
        let (corpus, params, config) = setup();
        let mut s = ShardedWarpLda::new(&corpus, params, config, 5);
        let stride = s.stride();
        // Wrong length.
        let err = s.import_records(&[0, 1], &vec![0u32; stride]).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Topic out of range.
        let err = s.import_records(&[0], &vec![params.num_topics as u32; stride]).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Restore with a c_k that is not the assignment histogram.
        let records = s.records_slice().to_vec();
        let mut bad_ck = s.topic_counts().to_vec();
        bad_ck[0] = bad_ck[0].wrapping_add(1);
        let err = s.restore(0, &records, &bad_ck).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn checkpoints_interoperate_with_the_parallel_backend() {
        let (corpus, params, config) = setup();
        let mut parallel = ParallelWarpLda::new(&corpus, params, config, 9, 3);
        parallel.run_iteration();
        let mut buf = Vec::new();
        write_checkpoint(&parallel, None, &mut buf).unwrap();

        let mut sharded = ShardedWarpLda::new(&corpus, params, config, 777);
        read_checkpoint(&mut sharded, &mut buf.as_slice()).unwrap();
        assert_eq!(sharded.seed(), 9, "the checkpoint seed governs continuation");
        assert_eq!(sharded.assignments(), parallel.assignments());
        sharded.run_iteration();
        parallel.run_iteration();
        assert_eq!(sharded.assignments(), parallel.assignments());

        // And back: a sharded checkpoint resumes the parallel backend.
        let mut buf = Vec::new();
        write_checkpoint(&sharded, None, &mut buf).unwrap();
        let mut parallel2 = ParallelWarpLda::new(&corpus, params, config, 1, 2);
        read_checkpoint(&mut parallel2, &mut buf.as_slice()).unwrap();
        sharded.run_iteration();
        parallel2.run_iteration();
        assert_eq!(sharded.assignments(), parallel2.assignments());
    }
}
