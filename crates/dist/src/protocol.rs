//! The coordinator↔worker wire protocol of multi-process training.
//!
//! Every message is one `warplda_net` frame whose payload starts with a
//! one-byte tag. Payload encoding rides on the same [`Encoder`]/[`Decoder`]
//! primitives as the on-disk checkpoint codec, so malformed payloads surface
//! as the same typed [`CodecError`]s the rest of the workspace handles.
//!
//! A training session is:
//!
//! ```text
//! worker            coordinator
//! Hello{id}     →                  (after connecting over loopback TCP)
//!               ←  Setup{..}       (corpus, hyper-parameters, optional resume)
//! Ready{id}     →                  (replica built, bit-identical start)
//! per iteration (epoch = completed iterations, a barrier per phase):
//!               ←  RunIteration{epoch}
//! WordDelta     →                  (partial c_k + records other workers read)
//!               ←  WordSync        (merged c_k + the records this worker reads)
//! DocDelta      →                  (partial c_k + every owned row's records)
//!               ←  DocSync         (merged c_k + the records this worker reads)
//!                                  (coordinator commits the boundary)
//! shutdown:
//!               ←  Shutdown
//! Bye{id}       →
//! ```
//!
//! What the record-carrying frames hold is fixed by the shared
//! [`ShardPlan`](crate::ShardPlan)'s per-pair routes, so no entry id ever
//! crosses the wire:
//!
//! * `WordDelta` from `s` — the records of `word_routes[s][d]` for every
//!   `d ≠ s`, destination by destination. A record whose document `s` owns
//!   too never leaves `s`.
//! * `DocDelta` from `s` — the records of `doc_routes[s][d]` for every `d`,
//!   diagonal included: all of `s`'s rows, because together the doc deltas
//!   are the next iteration boundary.
//! * `WordSync` / `DocSync` to `d` — the routes `s → d` for every `s ≠ d`,
//!   source by source: contiguous slices of the senders' deltas, which the
//!   coordinator relays without decoding them into a sampler.
//!
//! At `P` workers with a fraction `f` of tokens off the grid diagonal and
//! `s = (M + 1)·4` bytes per record, an iteration moves `s·(1 + 3f)` bytes
//! per token (plus `c_k` and framing): `f` out and `f` back in the word
//! phase, `1` out and `f` back in the doc phase.
//!
//! The record-carrying frames are built in reused buffers
//! ([`RecordFrame`], [`encode_frame`]) and decoded into reused buffers
//! ([`decode_delta_into`], [`decode_sync_into`]), so a steady-state iteration
//! allocates nothing payload-sized on either side. Records come last in
//! every such frame, so a sender streams them route by route behind the
//! header.
//!
//! Workers that hit an error mid-protocol send [`Message::Fault`] on a
//! best-effort basis before exiting, so the coordinator can report *why* a
//! worker died instead of just a closed connection.
//!
//! Liveness and recovery ride on two extra messages. Workers pulse
//! [`Message::Heartbeat`] from a side thread every
//! `Setup.heartbeat_interval_ms`, which is how the coordinator tells a
//! *hung* worker (process alive, socket open, nothing flowing) from a slow
//! one. When a worker dies mid-iteration the coordinator respawns it with
//! `Setup.resume` set to the last committed boundary and sends every
//! survivor [`Message::Restore`] with the same state; survivors abandon the
//! in-flight iteration, reinstall the boundary state and answer `Ready`.
//! Because per-entity RNG streams are keyed on (seed, iteration, phase,
//! entity), the replay is bit-identical to the run that failed.

use crate::fault::{read_fault_events, write_fault_events, FaultEvent};
use warplda_corpus::io::codec::{
    read_corpus, write_corpus, CodecError, CodecResult, Decoder, Encoder,
};
use warplda_corpus::Corpus;
use warplda_net::{begin_frame, end_frame};

/// Frame-size bound of distributed-training connections: Setup frames carry
/// the whole corpus and resume payloads carry the full packed records, both
/// far beyond the serving default.
pub const DIST_MAX_FRAME_BYTES: u32 = 1 << 28;

const TAG_HELLO: u8 = 1;
const TAG_SETUP: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_RUN_ITERATION: u8 = 4;
const TAG_WORD_DELTA: u8 = 5;
const TAG_WORD_SYNC: u8 = 6;
const TAG_DOC_DELTA: u8 = 7;
const TAG_DOC_SYNC: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_BYE: u8 = 10;
const TAG_FAULT: u8 = 11;
const TAG_HEARTBEAT: u8 = 12;
const TAG_RESTORE: u8 = 13;

/// Which half of an iteration a delta, a sync or a scripted fault belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The word phase: workers advance their owned columns.
    Word,
    /// The doc phase: workers advance their owned rows.
    Doc,
}

impl Phase {
    fn delta_tag(self) -> u8 {
        match self {
            Phase::Word => TAG_WORD_DELTA,
            Phase::Doc => TAG_DOC_DELTA,
        }
    }

    fn sync_tag(self) -> u8 {
        match self {
            Phase::Word => TAG_WORD_SYNC,
            Phase::Doc => TAG_DOC_SYNC,
        }
    }
}

/// Everything a worker needs to build its replica: the corpus, the model, the
/// seed and (when resuming) the full sampler state to adopt.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Cluster size `P`.
    pub workers: u32,
    /// This worker's id in `0..P`.
    pub worker_id: u32,
    /// Seed every replica derives its per-entity RNG streams from.
    pub seed: u64,
    /// Number of topics `K`.
    pub num_topics: u64,
    /// Dirichlet `α`.
    pub alpha: f64,
    /// Dirichlet `β`.
    pub beta: f64,
    /// MH proposals per token `M`.
    pub mh_steps: u64,
    /// Hash-vs-dense count-vector heuristic toggle.
    pub use_hash_counts: bool,
    /// The training corpus, shipped in full (every replica holds it).
    pub corpus: Corpus,
    /// Sampler state to adopt instead of the fresh random initialization.
    pub resume: Option<ResumeState>,
    /// Interval between worker→coordinator heartbeats, in milliseconds.
    /// Zero disables heartbeating (single-process tests drive the protocol
    /// directly and have no liveness loop to feed).
    pub heartbeat_interval_ms: u64,
    /// Scripted fault events addressed to this worker (empty in production).
    pub faults: Vec<FaultEvent>,
}

/// Full sampler state for resuming mid-training (mirrors the checkpoint
/// layout minus the RNG, which per-entity streams re-derive from the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeState {
    /// Completed iterations at the resume point.
    pub iterations: u64,
    /// The full packed record buffer.
    pub records: Vec<u32>,
    /// The global `c_k` at the resume point.
    pub topic_counts: Vec<u32>,
}

/// A worker's phase result: its partial `c_k` plus the packed records of its
/// routes, destination by destination (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Sender's worker id.
    pub worker_id: u32,
    /// Epoch the phase belongs to (= completed iterations when it started).
    pub epoch: u64,
    /// Packed records of the sender's routes, `entries × stride` words.
    pub records: Vec<u32>,
    /// The sender's partial `c_k` accumulated over its shard.
    pub partial_ck: Vec<u32>,
}

/// The coordinator's phase-boundary message to one worker: the merged
/// global `c_k` plus the packed records of every route to that worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sync {
    /// Epoch the boundary belongs to.
    pub epoch: u64,
    /// The merged global `c_k` every replica installs.
    pub topic_counts: Vec<u32>,
    /// Packed records of the routes to the receiver, source by source,
    /// `entries × stride` words.
    pub records: Vec<u32>,
}

/// One protocol message (the decoded, owning form).
#[derive(Debug, Clone)]
pub enum Message {
    /// Worker → coordinator: connection opened.
    Hello {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: build your replica.
    Setup(Box<Setup>),
    /// Worker → coordinator: replica built, ready for iterations.
    Ready {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: run iteration `epoch`.
    RunIteration {
        /// Expected completed-iterations counter on the worker.
        epoch: u64,
    },
    /// Worker → coordinator: word-phase result.
    WordDelta(Delta),
    /// Coordinator → worker: word-phase boundary.
    WordSync(Sync),
    /// Worker → coordinator: doc-phase result.
    DocDelta(Delta),
    /// Coordinator → worker: doc-phase boundary.
    DocSync(Sync),
    /// Coordinator → worker: clean shutdown.
    Shutdown,
    /// Worker → coordinator: shutting down.
    Bye {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Worker → coordinator: fatal error, best-effort before exiting.
    Fault {
        /// Sender's worker id.
        worker_id: u32,
        /// Human-readable cause.
        message: String,
    },
    /// Worker → coordinator: liveness pulse, sent on a side thread every
    /// `Setup.heartbeat_interval_ms`. Carries no protocol state; the
    /// coordinator's receive loop consumes it to refresh the worker's
    /// last-heard clock and never hands it to the state machine.
    Heartbeat {
        /// Sender's worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: a peer failed; abandon the current iteration,
    /// reinstall this boundary state and reply `Ready`. Sent to *surviving*
    /// workers during recovery (the respawned worker gets the same state via
    /// `Setup.resume`).
    Restore(ResumeState),
}

fn write_resume(enc: &mut Encoder<'_>, r: &ResumeState) -> CodecResult<()> {
    enc.write_u64(r.iterations)?;
    enc.write_u32_slice(&r.records)?;
    enc.write_u32_slice(&r.topic_counts)
}

fn read_resume(dec: &mut Decoder<'_>) -> CodecResult<ResumeState> {
    Ok(ResumeState {
        iterations: dec.read_u64()?,
        records: dec.read_u32_vec()?,
        topic_counts: dec.read_u32_vec()?,
    })
}

/// Appends `words` in wire order (little-endian), without a length prefix.
fn put_u32s(out: &mut Vec<u8>, words: &[u32]) {
    let at = out.len();
    out.resize(at + words.len() * 4, 0);
    for (dst, w) in out[at..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Reads a length-prefixed `u32` vector from `cursor` into `out`, reusing
/// its allocation. The announced length is checked against the bytes left
/// before anything is reserved, so a lying prefix cannot allocate.
fn read_u32s_into(cursor: &mut &[u8], out: &mut Vec<u32>) -> CodecResult<()> {
    let len = Decoder::new(cursor).read_usize()?;
    let bytes = len.checked_mul(4).filter(|&n| n <= cursor.len()).ok_or_else(|| {
        CodecError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("vector of {len} words overruns the payload"),
        ))
    })?;
    let (body, rest) = cursor.split_at(bytes);
    out.clear();
    out.extend(body.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
    *cursor = rest;
    Ok(())
}

fn trailing_bytes(rest: &[u8]) -> CodecResult<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CodecError::Corrupt(format!("{} trailing bytes after message payload", rest.len())))
    }
}

/// A delta or sync frame under construction in a reused buffer. The header
/// and `c_k` go first, then the records, which the sender appends piecewise
/// (route by route) straight from its own buffers.
pub struct RecordFrame<'a> {
    out: &'a mut Vec<u8>,
    frame_at: usize,
    words_left: usize,
}

impl<'a> RecordFrame<'a> {
    /// Starts a `phase` delta frame in `out` (cleared first) that will carry
    /// `record_words` record words.
    pub fn delta(
        out: &'a mut Vec<u8>,
        phase: Phase,
        worker_id: u32,
        epoch: u64,
        partial_ck: &[u32],
        record_words: usize,
    ) -> Self {
        Self::start(out, record_words, |enc| {
            enc.write_u8(phase.delta_tag())?;
            enc.write_u32(worker_id)?;
            enc.write_u64(epoch)?;
            enc.write_u32_slice(partial_ck)
        })
    }

    /// Starts a `phase` sync frame in `out` (cleared first) that will carry
    /// `record_words` record words.
    pub fn sync(
        out: &'a mut Vec<u8>,
        phase: Phase,
        epoch: u64,
        topic_counts: &[u32],
        record_words: usize,
    ) -> Self {
        Self::start(out, record_words, |enc| {
            enc.write_u8(phase.sync_tag())?;
            enc.write_u64(epoch)?;
            enc.write_u32_slice(topic_counts)
        })
    }

    fn start(
        out: &'a mut Vec<u8>,
        record_words: usize,
        head: impl FnOnce(&mut Encoder<'_>) -> CodecResult<()>,
    ) -> Self {
        out.clear();
        let frame_at = begin_frame(out);
        let mut enc = Encoder::new(out);
        head(&mut enc)
            .and_then(|()| enc.write_usize(record_words))
            .expect("encoding to a Vec cannot fail");
        out.reserve(record_words * 4);
        Self { out, frame_at, words_left: record_words }
    }

    /// Appends record words. Panics past the announced count.
    pub fn push(&mut self, words: &[u32]) {
        assert!(words.len() <= self.words_left, "record frame overflows its announced length");
        self.words_left -= words.len();
        put_u32s(self.out, words);
    }

    /// Closes the frame (patching its length prefix); the buffer now holds
    /// one complete frame ready to write. Panics if records are missing.
    pub fn finish(self) {
        assert_eq!(self.words_left, 0, "record frame is short of its announced length");
        end_frame(self.out, self.frame_at);
    }
}

/// Decodes a `WordDelta`/`DocDelta` payload into `into`, reusing its
/// buffers, and returns its phase; `Ok(None)` when the payload is some other
/// message (decode it with [`decode_message`]).
pub fn decode_delta_into(payload: &[u8], into: &mut Delta) -> CodecResult<Option<Phase>> {
    let (phase, mut rest) = match payload.split_first() {
        Some((&TAG_WORD_DELTA, rest)) => (Phase::Word, rest),
        Some((&TAG_DOC_DELTA, rest)) => (Phase::Doc, rest),
        _ => return Ok(None),
    };
    {
        let mut dec = Decoder::new(&mut rest);
        into.worker_id = dec.read_u32()?;
        into.epoch = dec.read_u64()?;
    }
    read_u32s_into(&mut rest, &mut into.partial_ck)?;
    read_u32s_into(&mut rest, &mut into.records)?;
    trailing_bytes(rest)?;
    Ok(Some(phase))
}

/// Decodes a `WordSync`/`DocSync` payload into `into`, reusing its buffers,
/// and returns its phase; `Ok(None)` when the payload is some other message.
pub fn decode_sync_into(payload: &[u8], into: &mut Sync) -> CodecResult<Option<Phase>> {
    let (phase, mut rest) = match payload.split_first() {
        Some((&TAG_WORD_SYNC, rest)) => (Phase::Word, rest),
        Some((&TAG_DOC_SYNC, rest)) => (Phase::Doc, rest),
        _ => return Ok(None),
    };
    into.epoch = Decoder::new(&mut rest).read_u64()?;
    read_u32s_into(&mut rest, &mut into.topic_counts)?;
    read_u32s_into(&mut rest, &mut into.records)?;
    trailing_bytes(rest)?;
    Ok(Some(phase))
}

/// Encodes a message into a frame payload (send it with
/// [`warplda_net::write_frame`]).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(msg, &mut frame);
    frame.drain(..4);
    frame
}

/// Encodes `msg` as one complete frame — length prefix and payload — into
/// `out`, replacing its contents. Reusing `out` across calls keeps steady
/// state sends free of allocation; write it with one `write_all`.
pub fn encode_frame(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::WordDelta(d) => encode_delta(out, Phase::Word, d),
        Message::DocDelta(d) => encode_delta(out, Phase::Doc, d),
        Message::WordSync(s) => encode_sync(out, Phase::Word, s),
        Message::DocSync(s) => encode_sync(out, Phase::Doc, s),
        _ => encode_control(msg, out),
    }
}

fn encode_delta(out: &mut Vec<u8>, phase: Phase, d: &Delta) {
    let mut frame =
        RecordFrame::delta(out, phase, d.worker_id, d.epoch, &d.partial_ck, d.records.len());
    frame.push(&d.records);
    frame.finish();
}

fn encode_sync(out: &mut Vec<u8>, phase: Phase, s: &Sync) {
    let mut frame = RecordFrame::sync(out, phase, s.epoch, &s.topic_counts, s.records.len());
    frame.push(&s.records);
    frame.finish();
}

/// Encodes every message that carries no records.
fn encode_control(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    let frame_at = begin_frame(out);
    let mut enc = Encoder::new(out);
    // Writing to a Vec cannot fail; unwrap keeps the call sites clean.
    (|| -> CodecResult<()> {
        match msg {
            Message::Hello { worker_id } => {
                enc.write_u8(TAG_HELLO)?;
                enc.write_u32(*worker_id)
            }
            Message::Setup(s) => {
                enc.write_u8(TAG_SETUP)?;
                enc.write_u32(s.workers)?;
                enc.write_u32(s.worker_id)?;
                enc.write_u64(s.seed)?;
                enc.write_u64(s.num_topics)?;
                enc.write_f64(s.alpha)?;
                enc.write_f64(s.beta)?;
                enc.write_u64(s.mh_steps)?;
                enc.write_bool(s.use_hash_counts)?;
                write_corpus(&mut enc, &s.corpus)?;
                match &s.resume {
                    None => enc.write_bool(false)?,
                    Some(r) => {
                        enc.write_bool(true)?;
                        write_resume(&mut enc, r)?;
                    }
                }
                enc.write_u64(s.heartbeat_interval_ms)?;
                write_fault_events(&mut enc, &s.faults)
            }
            Message::Ready { worker_id } => {
                enc.write_u8(TAG_READY)?;
                enc.write_u32(*worker_id)
            }
            Message::RunIteration { epoch } => {
                enc.write_u8(TAG_RUN_ITERATION)?;
                enc.write_u64(*epoch)
            }
            Message::Shutdown => enc.write_u8(TAG_SHUTDOWN),
            Message::Bye { worker_id } => {
                enc.write_u8(TAG_BYE)?;
                enc.write_u32(*worker_id)
            }
            Message::Fault { worker_id, message } => {
                enc.write_u8(TAG_FAULT)?;
                enc.write_u32(*worker_id)?;
                enc.write_str(message)
            }
            Message::Heartbeat { worker_id } => {
                enc.write_u8(TAG_HEARTBEAT)?;
                enc.write_u32(*worker_id)
            }
            Message::Restore(r) => {
                enc.write_u8(TAG_RESTORE)?;
                write_resume(&mut enc, r)
            }
            Message::WordDelta(_)
            | Message::DocDelta(_)
            | Message::WordSync(_)
            | Message::DocSync(_) => unreachable!("record frames go through RecordFrame"),
        }
    })()
    .expect("encoding to a Vec cannot fail");
    end_frame(out, frame_at);
}

/// Decodes one frame payload. Unknown tags and trailing bytes are typed
/// [`CodecError::Corrupt`] — the rejection gate for malformed deltas.
pub fn decode_message(payload: &[u8]) -> CodecResult<Message> {
    let mut delta = Delta::default();
    match decode_delta_into(payload, &mut delta)? {
        Some(Phase::Word) => return Ok(Message::WordDelta(delta)),
        Some(Phase::Doc) => return Ok(Message::DocDelta(delta)),
        None => {}
    }
    let mut sync = Sync::default();
    match decode_sync_into(payload, &mut sync)? {
        Some(Phase::Word) => return Ok(Message::WordSync(sync)),
        Some(Phase::Doc) => return Ok(Message::DocSync(sync)),
        None => {}
    }

    let mut cursor = payload;
    let msg = {
        let mut dec = Decoder::new(&mut cursor);
        let tag = dec.read_u8()?;
        match tag {
            TAG_HELLO => Message::Hello { worker_id: dec.read_u32()? },
            TAG_SETUP => {
                let workers = dec.read_u32()?;
                let worker_id = dec.read_u32()?;
                let seed = dec.read_u64()?;
                let num_topics = dec.read_u64()?;
                let alpha = dec.read_f64()?;
                let beta = dec.read_f64()?;
                let mh_steps = dec.read_u64()?;
                let use_hash_counts = dec.read_bool()?;
                let corpus = read_corpus(&mut dec)?;
                let resume = if dec.read_bool()? { Some(read_resume(&mut dec)?) } else { None };
                let heartbeat_interval_ms = dec.read_u64()?;
                let faults = read_fault_events(&mut dec)?;
                Message::Setup(Box::new(Setup {
                    workers,
                    worker_id,
                    seed,
                    num_topics,
                    alpha,
                    beta,
                    mh_steps,
                    use_hash_counts,
                    corpus,
                    resume,
                    heartbeat_interval_ms,
                    faults,
                }))
            }
            TAG_READY => Message::Ready { worker_id: dec.read_u32()? },
            TAG_RUN_ITERATION => Message::RunIteration { epoch: dec.read_u64()? },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_BYE => Message::Bye { worker_id: dec.read_u32()? },
            TAG_FAULT => Message::Fault { worker_id: dec.read_u32()?, message: dec.read_string()? },
            TAG_HEARTBEAT => Message::Heartbeat { worker_id: dec.read_u32()? },
            TAG_RESTORE => Message::Restore(read_resume(&mut dec)?),
            other => return Err(CodecError::Corrupt(format!("unknown message tag {other:#04x}"))),
        }
    };
    trailing_bytes(cursor)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::{Document, Vocabulary};

    fn tiny_corpus() -> Corpus {
        let mut vocab = Vocabulary::new();
        for w in ["a", "b", "c"] {
            vocab.intern(w);
        }
        Corpus::from_parts(
            vec![Document::from_tokens(vec![0, 1, 2, 1]), Document::from_tokens(vec![2, 0])],
            vocab,
        )
        .unwrap()
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = vec![
            Message::Hello { worker_id: 3 },
            Message::Setup(Box::new(Setup {
                workers: 4,
                worker_id: 2,
                seed: 0xFEED,
                num_topics: 12,
                alpha: 0.5,
                beta: 0.01,
                mh_steps: 2,
                use_hash_counts: true,
                corpus: tiny_corpus(),
                resume: Some(ResumeState {
                    iterations: 7,
                    records: vec![0, 1, 2, 1, 0, 2],
                    topic_counts: vec![2, 2, 2],
                }),
                heartbeat_interval_ms: 250,
                faults: vec![crate::fault::FaultEvent {
                    worker: 2,
                    iteration: 3,
                    phase: crate::fault::FaultPhase::Doc,
                    action: crate::fault::FaultAction::Hang { ms: 10_000 },
                }],
            })),
            Message::Ready { worker_id: 1 },
            Message::RunIteration { epoch: 42 },
            Message::WordDelta(Delta {
                worker_id: 0,
                epoch: 5,
                records: vec![1, 2, 3],
                partial_ck: vec![4, 5],
            }),
            Message::WordSync(Sync { epoch: 5, topic_counts: vec![9, 9], records: vec![7] }),
            Message::DocDelta(Delta {
                worker_id: 1,
                epoch: 5,
                records: vec![],
                partial_ck: vec![0, 0],
            }),
            Message::DocSync(Sync { epoch: 5, topic_counts: vec![1], records: vec![] }),
            Message::Shutdown,
            Message::Bye { worker_id: 0 },
            Message::Fault { worker_id: 2, message: "shard went sideways".into() },
            Message::Heartbeat { worker_id: 3 },
            Message::Restore(ResumeState {
                iterations: 9,
                records: vec![5, 4, 3],
                topic_counts: vec![1, 1, 1],
            }),
        ];
        for msg in msgs {
            let payload = encode_message(&msg);
            let back = decode_message(&payload).unwrap();
            match (&msg, &back) {
                (Message::Hello { worker_id: a }, Message::Hello { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (Message::Setup(a), Message::Setup(b)) => {
                    assert_eq!(a.workers, b.workers);
                    assert_eq!(a.worker_id, b.worker_id);
                    assert_eq!(a.seed, b.seed);
                    assert_eq!(a.num_topics, b.num_topics);
                    assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
                    assert_eq!(a.beta.to_bits(), b.beta.to_bits());
                    assert_eq!(a.mh_steps, b.mh_steps);
                    assert_eq!(a.use_hash_counts, b.use_hash_counts);
                    assert_eq!(a.corpus.num_tokens(), b.corpus.num_tokens());
                    assert_eq!(a.resume, b.resume);
                    assert_eq!(a.heartbeat_interval_ms, b.heartbeat_interval_ms);
                    assert_eq!(a.faults, b.faults);
                }
                (Message::Ready { worker_id: a }, Message::Ready { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (Message::RunIteration { epoch: a }, Message::RunIteration { epoch: b }) => {
                    assert_eq!(a, b)
                }
                (Message::WordDelta(a), Message::WordDelta(b)) => assert_eq!(a, b),
                (Message::WordSync(a), Message::WordSync(b)) => assert_eq!(a, b),
                (Message::DocDelta(a), Message::DocDelta(b)) => assert_eq!(a, b),
                (Message::DocSync(a), Message::DocSync(b)) => assert_eq!(a, b),
                (Message::Shutdown, Message::Shutdown) => {}
                (Message::Bye { worker_id: a }, Message::Bye { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (
                    Message::Fault { worker_id: a, message: am },
                    Message::Fault { worker_id: b, message: bm },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(am, bm);
                }
                (Message::Heartbeat { worker_id: a }, Message::Heartbeat { worker_id: b }) => {
                    assert_eq!(a, b)
                }
                (Message::Restore(a), Message::Restore(b)) => assert_eq!(a, b),
                (sent, got) => panic!("message kind changed in flight: {sent:?} -> {got:?}"),
            }
        }
    }

    #[test]
    fn record_frames_stream_route_by_route_and_decode_into_reused_buffers() {
        let mut out = Vec::new();
        let mut frame = RecordFrame::delta(&mut out, Phase::Doc, 3, 9, &[1, 2], 5);
        frame.push(&[10, 11]);
        frame.push(&[]);
        frame.push(&[12, 13, 14]);
        frame.finish();
        // Streaming writes the same bytes as encoding the owned message.
        let whole = Message::DocDelta(Delta {
            worker_id: 3,
            epoch: 9,
            records: vec![10, 11, 12, 13, 14],
            partial_ck: vec![1, 2],
        });
        let mut expected = Vec::new();
        encode_frame(&whole, &mut expected);
        assert_eq!(out, expected);
        assert_eq!(u32::from_le_bytes(out[..4].try_into().unwrap()) as usize, out.len() - 4);
        assert_eq!(&out[4..], encode_message(&whole).as_slice());

        // Decoding into a buffer that already holds a bigger delta reuses it.
        let mut into = Delta { records: vec![0; 64], ..Delta::default() };
        let capacity = into.records.capacity();
        assert_eq!(decode_delta_into(&out[4..], &mut into).unwrap(), Some(Phase::Doc));
        assert_eq!((into.worker_id, into.epoch), (3, 9));
        assert_eq!(into.records, [10, 11, 12, 13, 14]);
        assert_eq!(into.records.capacity(), capacity);
        assert_eq!(
            decode_delta_into(&encode_message(&Message::Shutdown), &mut into).unwrap(),
            None
        );

        let mut frame = RecordFrame::sync(&mut out, Phase::Word, 4, &[7, 7, 7], 2);
        frame.push(&[5, 6]);
        frame.finish();
        let mut sync = Sync::default();
        assert_eq!(decode_sync_into(&out[4..], &mut sync).unwrap(), Some(Phase::Word));
        assert_eq!(sync, Sync { epoch: 4, topic_counts: vec![7, 7, 7], records: vec![5, 6] });
        assert_eq!(decode_sync_into(&expected[4..], &mut sync).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "short of its announced length")]
    fn record_frames_refuse_to_close_short() {
        let mut out = Vec::new();
        let mut frame = RecordFrame::sync(&mut out, Phase::Doc, 0, &[], 3);
        frame.push(&[1, 2]);
        frame.finish();
    }

    #[test]
    fn lying_record_lengths_are_typed_errors_that_reserve_nothing() {
        let mut payload = encode_message(&Message::WordDelta(Delta {
            worker_id: 1,
            epoch: 2,
            records: vec![],
            partial_ck: vec![3],
        }));
        // Records come last: patch their length prefix to 2^40 words.
        let at = payload.len() - 8;
        payload[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut into = Delta::default();
        assert!(matches!(decode_delta_into(&payload, &mut into), Err(CodecError::Io(_))));
        assert_eq!(into.records.capacity(), 0);
        assert!(matches!(decode_message(&payload), Err(CodecError::Io(_))));
    }

    #[test]
    fn malformed_payloads_are_typed_codec_errors() {
        // Empty payload.
        assert!(matches!(decode_message(&[]), Err(CodecError::Io(_))));
        // Unknown tag.
        assert!(matches!(decode_message(&[0xEE]), Err(CodecError::Corrupt(_))));
        // Truncated delta: announced lengths larger than the payload.
        let mut payload = encode_message(&Message::WordDelta(Delta {
            worker_id: 0,
            epoch: 1,
            records: vec![1, 2, 3, 4],
            partial_ck: vec![1],
        }));
        payload.truncate(payload.len() - 6);
        assert!(matches!(decode_message(&payload), Err(CodecError::Io(_))));
        // Trailing garbage after a well-formed message.
        let mut payload = encode_message(&Message::Shutdown);
        payload.push(0);
        assert!(matches!(decode_message(&payload), Err(CodecError::Corrupt(_))));
    }
}
