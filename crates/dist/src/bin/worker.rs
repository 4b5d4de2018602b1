//! `warplda-dist-worker` — one shard of a real multi-process training run.
//!
//! Spawned by [`warplda_dist::ProcessCluster`] as
//! `warplda-dist-worker --connect 127.0.0.1:PORT --worker-id N`. The worker
//! connects back, receives the corpus and model hyperparameters in a `Setup`
//! frame, rebuilds the *same* replica and [`ShardPlan`] as every other
//! process (both are deterministic functions of the corpus, seed and worker
//! count), then serves `RunIteration` requests. Per phase it advances its
//! owned shard, sends a delta — its partial `c_k` plus the records of its
//! routes: only what other workers read after the word phase, all of its
//! rows after the doc phase — and absorbs the sync: the merged `c_k` plus
//! the records other workers routed to it, which the coordinator relays.
//!
//! The exchange runs in buffers the worker keeps across iterations (the
//! export scratch, the outgoing frame, the decoded sync), so a steady-state
//! iteration allocates nothing payload-sized.
//!
//! Once `Ready` is sent, a side thread pulses `Heartbeat` frames every
//! `Setup.heartbeat_interval_ms` so the coordinator can tell a slow worker
//! from a hung one. The write half of the socket is shared behind a mutex;
//! frames are written whole under the lock so the two writers never
//! interleave bytes.
//!
//! When a *peer* worker fails, the coordinator sends `Restore`: this worker
//! abandons whatever iteration is in flight (without advancing), reinstalls
//! the boundary state and answers `Ready`. Per-entity RNG streams make the
//! subsequent replay bit-identical.
//!
//! Scripted faults from `Setup.faults` fire at the start of their target
//! phase: crash (exit mid-protocol), hang (stop heartbeats and stall), delay
//! (stall but keep heartbeating — the supervisor must *not* kill us), or
//! corrupt, truncate or poison the next delta frame.
//!
//! Every protocol violation or decode failure is reported back as a `Fault`
//! frame (best effort) before exiting non-zero, so the coordinator gets a
//! typed error instead of a silent hang.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use warplda_core::{ModelParams, ShardedWarpLda, WarpLdaConfig};
use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_dist::fault::{FaultAction, FaultTimeline};
use warplda_dist::plan::ShardPlan;
use warplda_dist::protocol::{
    decode_message, decode_sync_into, encode_frame, Message, Phase, RecordFrame, ResumeState,
    Setup, Sync, DIST_MAX_FRAME_BYTES,
};
use warplda_dist::GridPartition;
use warplda_net::{connect_within, FrameBuffer};
use warplda_sparse::PartitionStrategy;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn main() {
    let (addr, worker_id) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("warplda-dist-worker: {e}");
            eprintln!("usage: warplda-dist-worker --connect HOST:PORT --worker-id N");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&addr, worker_id) {
        eprintln!("warplda-dist-worker {worker_id}: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<(String, u32)> {
    let mut addr = None;
    let mut worker_id = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => addr = Some(args.next().ok_or("--connect needs HOST:PORT")?),
            "--worker-id" => {
                let raw = args.next().ok_or("--worker-id needs a number")?;
                worker_id = Some(raw.parse::<u32>().map_err(|e| format!("bad worker id: {e}"))?);
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok((addr.ok_or("missing --connect")?, worker_id.ok_or("missing --worker-id")?))
}

/// The write half of the coordinator link, shared with the heartbeat thread.
#[derive(Clone)]
struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    /// Writes bytes holding whole frames (or, for the truncation fault, a
    /// deliberately cut one) under the lock.
    fn write(&self, bytes: &[u8]) -> Result<()> {
        let mut stream = self.stream.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        stream.write_all(bytes)?;
        Ok(())
    }

    /// Sends a small control message.
    fn send(&self, msg: &Message) -> Result<()> {
        let mut frame = Vec::new();
        encode_frame(msg, &mut frame);
        self.write(&frame)
    }
}

/// What one receive produced: a sync decoded into the caller's buffers, or
/// any other message.
enum Inbound {
    Sync(Phase),
    Msg(Message),
}

/// The read half, owned by the protocol loop.
struct Reader {
    stream: TcpStream,
    buf: FrameBuffer,
}

impl Reader {
    fn recv(&mut self, sync: &mut Sync) -> Result<Inbound> {
        let Some(range) = self.buf.read_frame(&mut self.stream)? else {
            return Err("coordinator closed the connection".into());
        };
        let payload = self.buf.payload(range);
        Ok(match decode_sync_into(payload, sync)? {
            Some(phase) => Inbound::Sync(phase),
            None => Inbound::Msg(decode_message(payload)?),
        })
    }
}

/// The heartbeat side thread: pulses until stopped or the socket dies.
struct Heartbeat {
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(writer: SharedWriter, worker_id: u32, interval: Duration) -> Self {
        let flag = Arc::new(AtomicBool::new(false));
        let stop = flag.clone();
        let handle = std::thread::spawn(move || {
            let mut frame = Vec::new();
            encode_frame(&Message::Heartbeat { worker_id }, &mut frame);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // A send failure means the coordinator is gone; the protocol
                // loop will notice on its own.
                if writer.write(&frame).is_err() {
                    break;
                }
            }
        });
        Self { flag, handle: Some(handle) }
    }

    fn stop(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run(addr: &str, worker_id: u32) -> Result<()> {
    let stream = connect_within(
        addr,
        Duration::from_secs(30),
        Duration::from_millis(5),
        Duration::from_millis(100),
    )?;
    stream.set_nodelay(true)?;
    // If the coordinator hangs (rather than dying, which shows up as EOF
    // immediately), give up instead of lingering as an orphan.
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    let reader_stream = stream.try_clone()?;
    let writer = SharedWriter { stream: Arc::new(Mutex::new(stream)) };
    let mut reader = Reader {
        stream: reader_stream,
        buf: FrameBuffer::with_max_frame(1 << 16, DIST_MAX_FRAME_BYTES),
    };

    writer.send(&Message::Hello { worker_id })?;
    let mut bufs = Buffers::default();
    let setup = match reader.recv(&mut bufs.sync)? {
        Inbound::Msg(Message::Setup(setup)) => *setup,
        Inbound::Sync(phase) => return Err(format!("expected Setup, got a {phase:?} sync").into()),
        Inbound::Msg(other) => return Err(format!("expected Setup, got {other:?}").into()),
    };
    if setup.worker_id != worker_id {
        return Err(format!(
            "coordinator addressed worker {} on worker {worker_id}'s connection",
            setup.worker_id
        )
        .into());
    }

    let (mut sampler, plan) = build_replica(&setup)?;
    let mut faults = FaultTimeline::new(setup.faults.clone());
    writer.send(&Message::Ready { worker_id })?;
    let heartbeat = (setup.heartbeat_interval_ms > 0).then(|| {
        Heartbeat::start(
            writer.clone(),
            worker_id,
            Duration::from_millis(setup.heartbeat_interval_ms),
        )
    });

    let mut worker = Worker {
        reader: &mut reader,
        writer: &writer,
        sampler: &mut sampler,
        plan: &plan,
        id: worker_id as usize,
        bufs,
    };
    match worker.serve(&mut faults, heartbeat.as_ref()) {
        Ok(()) => {
            if let Some(hb) = &heartbeat {
                hb.stop();
            }
            writer.send(&Message::Bye { worker_id })?;
            Ok(())
        }
        Err(e) => {
            // Best effort: give the coordinator a typed Fault before dying.
            let _ = writer.send(&Message::Fault { worker_id, message: e.to_string() });
            Err(e)
        }
    }
}

/// Rebuilds the deterministic replica + exchange plan from the `Setup`
/// payload, applying resume state when present.
fn build_replica(setup: &Setup) -> Result<(ShardedWarpLda, ShardPlan)> {
    let corpus: &Corpus = &setup.corpus;
    let params = ModelParams::new(setup.num_topics as usize, setup.alpha, setup.beta);
    let config =
        WarpLdaConfig { mh_steps: setup.mh_steps as usize, use_hash_counts: setup.use_hash_counts };
    let doc_view = DocMajorView::build(corpus);
    let word_view = WordMajorView::build(corpus, &doc_view);
    let grid = GridPartition::build_with(
        corpus,
        &doc_view,
        &word_view,
        setup.workers as usize,
        PartitionStrategy::Greedy,
        PartitionStrategy::Dynamic,
    );
    let mut sampler = ShardedWarpLda::new(corpus, params, config, setup.seed);
    if let Some(resume) = &setup.resume {
        sampler.restore(resume.iterations, &resume.records, &resume.topic_counts)?;
    }
    let plan = ShardPlan::build(&sampler, &grid);
    Ok((sampler, plan))
}

/// What a phase-boundary wait produced: the expected sync, or a `Restore`
/// that abandons the iteration.
enum Flow {
    Synced,
    Restored,
}

/// Executes a scripted fault action at its firing point. Crash and the
/// post-stall half of hang never return; delay returns after sleeping; the
/// delta-sabotage actions are returned to the caller to apply at send time.
fn execute_fault(action: FaultAction, heartbeat: Option<&Heartbeat>) -> Option<FaultAction> {
    match action {
        FaultAction::Crash => std::process::exit(9),
        FaultAction::Hang { ms } => {
            // Silence the heartbeats *first* — the point is to present as
            // alive-but-stuck, detectable only by the liveness timeout. The
            // coordinator kills this process long before the stall ends.
            if let Some(hb) = heartbeat {
                hb.stop();
            }
            std::thread::sleep(Duration::from_millis(ms));
            std::process::exit(7);
        }
        FaultAction::Delay { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        sabotage @ (FaultAction::CorruptDelta
        | FaultAction::TruncateDelta
        | FaultAction::PoisonDelta) => Some(sabotage),
    }
}

/// The exchange buffers, reused across phases and iterations.
#[derive(Default)]
struct Buffers {
    partial: Vec<u32>,
    /// Export scratch: one route's records at a time.
    records: Vec<u32>,
    /// The outgoing delta frame.
    frame: Vec<u8>,
    /// The incoming sync.
    sync: Sync,
}

/// One worker's protocol state: its link, replica, plan and buffers.
struct Worker<'a> {
    reader: &'a mut Reader,
    writer: &'a SharedWriter,
    sampler: &'a mut ShardedWarpLda,
    plan: &'a ShardPlan,
    id: usize,
    bufs: Buffers,
}

impl Worker<'_> {
    /// The iteration loop: word shard → delta → sync, doc shard → delta →
    /// sync, until `Shutdown`. A `Restore` at any receive point abandons the
    /// current iteration (no advance), reinstalls the boundary state and
    /// re-enters the loop with a fresh `Ready`.
    fn serve(&mut self, faults: &mut FaultTimeline, heartbeat: Option<&Heartbeat>) -> Result<()> {
        self.bufs.partial.resize(self.sampler.params().num_topics, 0);
        'session: loop {
            let epoch = match self.reader.recv(&mut self.bufs.sync)? {
                Inbound::Msg(Message::RunIteration { epoch }) => epoch,
                Inbound::Msg(Message::Restore(r)) => {
                    self.restore(&r)?;
                    continue;
                }
                Inbound::Msg(Message::Shutdown) => return Ok(()),
                Inbound::Msg(other) => {
                    return Err(format!(
                        "expected RunIteration, Restore or Shutdown, got {other:?}"
                    )
                    .into())
                }
                Inbound::Sync(phase) => {
                    return Err(format!("expected RunIteration, got a {phase:?} sync").into())
                }
            };
            if epoch != self.sampler.iterations() {
                return Err(format!(
                    "coordinator asked for epoch {epoch} but this worker is at {}",
                    self.sampler.iterations()
                )
                .into());
            }

            for phase in [Phase::Word, Phase::Doc] {
                let sabotage =
                    faults.fire(epoch, phase).and_then(|action| execute_fault(action, heartbeat));
                let (plan, partial) = (self.plan, &mut self.bufs.partial);
                match phase {
                    Phase::Word => {
                        self.sampler.run_word_phase_shard(&plan.owned_words[self.id], partial)
                    }
                    Phase::Doc => {
                        self.sampler.run_doc_phase_shard(&plan.owned_docs[self.id], partial)
                    }
                }
                self.send_delta(phase, epoch, sabotage)?;
                match self.apply_sync(phase, epoch)? {
                    Flow::Synced => {}
                    Flow::Restored => continue 'session,
                }
            }

            self.sampler.advance_iteration();
        }
    }

    /// Builds this worker's `phase` delta — partial `c_k`, then its routes'
    /// records destination by destination — and sends it, applying a
    /// scripted sabotage if one fired.
    fn send_delta(
        &mut self,
        phase: Phase,
        epoch: u64,
        sabotage: Option<FaultAction>,
    ) -> Result<()> {
        let Buffers { partial, records, frame, .. } = &mut self.bufs;
        let words = self.plan.shipped(phase, self.id) * self.sampler.stride();
        let mut delta = RecordFrame::delta(frame, phase, self.id as u32, epoch, partial, words);
        for route in &self.plan.routes(phase)[self.id] {
            self.sampler.export_records(route, records);
            delta.push(records);
        }
        delta.finish();

        match sabotage {
            // Flip the tag byte: a typed corrupt-payload decode error.
            Some(FaultAction::CorruptDelta) => frame[4] ^= 0xFF,
            // A full length prefix but only half the payload: the
            // coordinator sees the connection close mid-frame.
            Some(FaultAction::TruncateDelta) => {
                self.writer.write(&frame[..4 + (frame.len() - 4) / 2])?;
                std::process::exit(4);
            }
            // Topic K in the first record word (records come last).
            Some(FaultAction::PoisonDelta) if words > 0 => {
                let k = self.sampler.params().num_topics as u32;
                let at = frame.len() - words * 4;
                frame[at..at + 4].copy_from_slice(&k.to_le_bytes());
            }
            _ => {}
        }
        self.writer.write(frame)
    }

    /// Receives the expected phase-boundary sync, installs the merged `c_k`
    /// and imports the records every other worker routed here. A `Restore`
    /// here means a peer failed mid-iteration: adopt the boundary state,
    /// acknowledge with `Ready` and report [`Flow::Restored`].
    fn apply_sync(&mut self, phase: Phase, epoch: u64) -> Result<Flow> {
        match self.reader.recv(&mut self.bufs.sync)? {
            Inbound::Sync(got) if got == phase => {}
            Inbound::Msg(Message::Restore(r)) => {
                self.restore(&r)?;
                return Ok(Flow::Restored);
            }
            Inbound::Sync(got) => {
                return Err(format!("expected {phase:?} sync, got {got:?}").into())
            }
            Inbound::Msg(other) => {
                return Err(format!("expected {phase:?} sync, got {other:?}").into())
            }
        }
        let sync = &self.bufs.sync;
        if sync.epoch != epoch {
            return Err(format!("{phase:?} sync for epoch {} at epoch {epoch}", sync.epoch).into());
        }
        let k = self.sampler.params().num_topics;
        if sync.topic_counts.len() != k {
            return Err(
                format!("merged c_k has {} slots for K = {k}", sync.topic_counts.len()).into()
            );
        }
        let stride = self.sampler.stride();
        let expected = self.plan.received(phase, self.id) * stride;
        if sync.records.len() != expected {
            return Err(format!(
                "{phase:?} sync holds {} record words, the plan routes {expected}",
                sync.records.len()
            )
            .into());
        }
        self.sampler.install_topic_counts(&sync.topic_counts);
        let routes = self.plan.routes(phase);
        let mut at = 0;
        for s in (0..self.plan.workers()).filter(|&s| s != self.id) {
            let route = &routes[s][self.id];
            let words = &sync.records[at..at + route.len() * stride];
            self.sampler.import_records(route, words)?;
            at += words.len();
        }
        Ok(Flow::Synced)
    }

    /// Adopts a `Restore` boundary and acknowledges it with `Ready`.
    fn restore(&mut self, r: &ResumeState) -> Result<()> {
        self.sampler.restore(r.iterations, &r.records, &r.topic_counts)?;
        self.writer.send(&Message::Ready { worker_id: self.id as u32 })
    }
}
