//! Real multi-process distributed training, differentially tested against the
//! simulated cluster oracle.
//!
//! [`ProcessCluster`] spawns genuine `warplda-dist-worker` OS processes and
//! exchanges deltas over loopback TCP; the simulated
//! [`DistributedWarpLda`] and the in-process [`ParallelWarpLda`] advance the
//! same model without any wire. Because WarpLDA derives every phase's
//! randomness from per-entity RNG streams and merges partial `c_k` by
//! commutative integer sums, all three backends must agree **bit-for-bit**
//! after every iteration — assignments, global topic counts and therefore
//! perplexity. These tests enforce that, plus checkpoint resume across
//! changing worker counts and typed (non-hanging) failure on worker death.
//!
//! The fault-tolerance half drives the same differential argument through
//! scripted failures: a worker killed or hung mid-iteration is detected
//! (child exit / heartbeat silence), respawned from the boundary committed
//! in the coordinator's replica, and the retried iteration replays
//! bit-identically — so the replica equals the fault-free oracle's full
//! state after every iteration, recovered or not. A delta that is malformed
//! or carries an out-of-range topic is blamed on its sender before any of it
//! is relayed. With recovery disabled, the same faults surface as fast typed
//! errors, and a dropped cluster never leaves zombie worker processes. The
//! bytes each iteration moves are pinned to the exchange plan's formula.
//!
//! The suite lives in this crate so Cargo builds the `warplda-dist-worker`
//! binary it spawns and hands over its path.

use std::path::PathBuf;
use std::time::Duration;

use warplda_core::checkpoint::write_checkpoint;
use warplda_core::{
    load_checkpoint, log_joint_likelihood, perplexity_per_token, save_checkpoint, ModelParams,
    ParallelWarpLda, Sampler, ShardedWarpLda, WarpLdaConfig,
};
use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};
use warplda_dist::protocol::Phase;
use warplda_dist::{
    ClusterConfig, DistError, DistributedWarpLda, FaultPhase, FaultPlan, ProcessCluster,
    ProcessClusterConfig, ShardPlan,
};

fn process_config(workers: usize) -> ProcessClusterConfig {
    let mut cfg = ProcessClusterConfig::new(workers);
    cfg.worker_binary = Some(PathBuf::from(env!("CARGO_BIN_EXE_warplda-dist-worker")));
    // CI boxes are slow but a minute is still far beyond any healthy
    // exchange on a loopback socket.
    cfg.io_timeout = Duration::from_secs(60);
    cfg
}

/// The full checkpoint image of a sampler: epoch, every packed record (topic
/// and proposals) and `c_k`. `ShardedWarpLda` and `ParallelWarpLda` share the
/// layout, so equal images mean equal state.
fn state_image(sampler: &dyn warplda_core::Checkpointable) -> Vec<u8> {
    let mut image = Vec::new();
    write_checkpoint(sampler, None, &mut image).expect("in-memory checkpoint");
    image
}

/// Per-iteration differential run: multi-process vs. simulated vs. parallel.
fn assert_backends_agree(
    corpus: &Corpus,
    num_topics: usize,
    workers: usize,
    iters: u64,
    seed: u64,
) {
    let params = ModelParams::paper_defaults(num_topics);
    let config = WarpLdaConfig::with_mh_steps(2);
    let doc_view = DocMajorView::build(corpus);
    let word_view = WordMajorView::build(corpus, &doc_view);

    let mut cluster = ProcessCluster::new(corpus, params, config, seed, process_config(workers))
        .expect("spawn cluster");
    let mut simulated = DistributedWarpLda::new(
        corpus,
        params,
        config,
        ClusterConfig::tianhe2_like(workers, config.mh_steps),
        seed,
    );
    let mut parallel = ParallelWarpLda::new(corpus, params, config, seed, workers);

    for iter in 1..=iters {
        let report = cluster.run_iteration().expect("distributed iteration");
        assert_eq!(report.iteration, iter);
        simulated.run_iteration(corpus, false);
        parallel.run_iteration();

        let z = cluster.assignments();
        assert_eq!(z, simulated.assignments(), "iteration {iter}, {workers} workers: simulated");
        assert_eq!(z, parallel.assignments(), "iteration {iter}, {workers} workers: parallel");
        assert_eq!(
            cluster.topic_counts(),
            parallel.topic_counts(),
            "iteration {iter}, {workers} workers: c_k"
        );

        let ll = log_joint_likelihood(corpus, &doc_view, &word_view, &params, &z);
        let ll_parallel =
            log_joint_likelihood(corpus, &doc_view, &word_view, &params, &parallel.assignments());
        let ppl = perplexity_per_token(ll, corpus.num_tokens()).unwrap();
        let ppl_parallel = perplexity_per_token(ll_parallel, corpus.num_tokens()).unwrap();
        assert_eq!(
            ppl.to_bits(),
            ppl_parallel.to_bits(),
            "iteration {iter}, {workers} workers: perplexity bits"
        );
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn multi_process_training_matches_the_oracles_on_tiny() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    for workers in [1usize, 2, 4] {
        assert_backends_agree(&corpus, 12, workers, 5, 41);
    }
}

#[test]
fn multi_process_training_matches_the_oracles_on_nytimes_like() {
    let corpus = DatasetPreset::NyTimesLike.generate_scaled(60);
    for workers in [2usize, 4] {
        assert_backends_agree(&corpus, 16, workers, 5, 97);
    }
}

#[test]
fn resume_from_checkpoint_is_bit_identical_across_worker_counts() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let seed = 23;
    let dir = std::env::temp_dir().join(format!("warplda-dist-resume-{}", std::process::id()));
    let path = dir.join("cluster.ckpt");

    // Train 3 iterations on 2 processes, checkpoint the coordinator replica.
    let mut first =
        ProcessCluster::new(&corpus, params, config, seed, process_config(2)).expect("spawn");
    for _ in 0..3 {
        first.run_iteration().expect("iteration");
    }
    save_checkpoint(first.sampler(), None, &path).expect("save checkpoint");
    first.shutdown().expect("shutdown");

    // Resume on 4 processes for 3 more iterations.
    let mut resumed = ShardedWarpLda::new(&corpus, params, config, seed);
    load_checkpoint(&mut resumed, &path).expect("load checkpoint");
    assert_eq!(resumed.iterations(), 3);
    let mut second =
        ProcessCluster::from_sampler(&corpus, resumed, process_config(4)).expect("respawn");
    for _ in 0..3 {
        second.run_iteration().expect("iteration");
    }

    // The uninterrupted single-machine run is the oracle for the whole span.
    let mut oracle = ParallelWarpLda::new(&corpus, params, config, seed, 2);
    for _ in 0..6 {
        oracle.run_iteration();
    }
    assert_eq!(second.assignments(), oracle.assignments());
    assert_eq!(second.topic_counts(), oracle.topic_counts());
    second.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_surfaces_as_a_typed_error_not_a_hang() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    // Tight bound: the error must arrive fast, not after a long timeout.
    cfg.io_timeout = Duration::from_secs(10);
    // Recovery off: this test asserts the *typed error* path.
    cfg.max_recoveries = 0;
    let mut cluster = ProcessCluster::new(&corpus, params, config, 7, cfg).expect("spawn");
    cluster.run_iteration().expect("healthy iteration");

    cluster.kill_worker(1);
    let start = std::time::Instant::now();
    let err = cluster.run_iteration().expect_err("iteration with a dead worker must fail");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "failure took {:?} — the coordinator hung instead of failing fast",
        start.elapsed()
    );
    match err {
        DistError::WorkerFailed { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
}

/// Runs `iters` iterations under `plan`, asserting that every scripted fault
/// auto-recovers and that the final model — assignments, `c_k`, perplexity —
/// is bit-identical to a fault-free [`ParallelWarpLda`] run of the same seed.
fn assert_recovery_is_bit_identical(
    workers: usize,
    plan: FaultPlan,
    iters: u64,
    expected_recoveries: u64,
) {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let seed = 71;
    let doc_view = DocMajorView::build(&corpus);
    let word_view = WordMajorView::build(&corpus, &doc_view);

    let mut cfg = process_config(workers);
    // Keep hang detection quick so the hang tests don't dominate the suite.
    cfg.liveness_timeout = Duration::from_secs(2);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.fault_plan = plan;
    let mut cluster =
        ProcessCluster::new(&corpus, params, config, seed, cfg).expect("spawn cluster");
    let mut oracle = ParallelWarpLda::new(&corpus, params, config, seed, workers);
    let mut recoveries_seen = 0u64;
    for iter in 1..=iters {
        let report = cluster.run_iteration().expect("iteration must survive scripted faults");
        recoveries_seen += u64::from(report.recoveries);
        oracle.run_iteration();
        // The coordinator's replica holds exactly the oracle's boundary after
        // every iteration, recovered or not.
        assert!(
            state_image(cluster.sampler()) == state_image(&oracle),
            "{workers} workers: replica differs from the oracle after iteration {iter}"
        );
    }
    assert_eq!(cluster.recoveries(), expected_recoveries, "{workers} workers: recovery counter");
    assert_eq!(recoveries_seen, expected_recoveries, "{workers} workers: per-report counters");

    let z = cluster.assignments();
    assert_eq!(z, oracle.assignments(), "{workers} workers: assignments after recovery");
    assert_eq!(cluster.topic_counts(), oracle.topic_counts(), "{workers} workers: c_k");
    let ll = log_joint_likelihood(&corpus, &doc_view, &word_view, &params, &z);
    let ll_oracle =
        log_joint_likelihood(&corpus, &doc_view, &word_view, &params, &oracle.assignments());
    let ppl = perplexity_per_token(ll, corpus.num_tokens()).unwrap();
    let ppl_oracle = perplexity_per_token(ll_oracle, corpus.num_tokens()).unwrap();
    assert_eq!(ppl.to_bits(), ppl_oracle.to_bits(), "{workers} workers: perplexity bits");
    cluster.shutdown().expect("clean shutdown after recovery");
}

#[test]
fn killed_worker_recovers_bit_identically() {
    for workers in [2usize, 4] {
        // Worker 1 exits abruptly at the start of iteration 2's word phase.
        let plan = FaultPlan::new().crash(1, 2, FaultPhase::Word);
        assert_recovery_is_bit_identical(workers, plan, 4, 1);
    }
}

#[test]
fn hung_worker_is_detected_by_heartbeat_timeout_and_recovers_bit_identically() {
    for workers in [2usize, 4] {
        // Worker 0 stops heartbeating and stalls mid-iteration-3; the stall
        // far outlives the liveness timeout, so only heartbeat-based
        // detection (not a child-exit check) can catch it.
        let plan = FaultPlan::new().hang(0, 3, FaultPhase::Doc, 600_000);
        assert_recovery_is_bit_identical(workers, plan, 4, 1);
    }
}

#[test]
fn corrupt_and_truncated_deltas_trigger_recovery() {
    // Worker 1 flips bits in its iteration-2 word delta (a typed decode
    // failure on the coordinator), and worker 0 truncates its iteration-3
    // doc delta mid-frame then exits. Both recover; the final model is
    // still exact.
    let plan = FaultPlan::new().corrupt_delta(1, 2, FaultPhase::Word).truncate_delta(
        0,
        3,
        FaultPhase::Doc,
    );
    assert_recovery_is_bit_identical(2, plan, 4, 2);
}

#[test]
fn corrupt_doc_delta_after_a_staged_one_recovers_from_the_committed_boundary() {
    // Worker 0's iteration-2 doc delta is already staged on the coordinator
    // when worker 1's arrives corrupt. Nothing of the failed iteration may
    // reach the replica: recovery restores from it, so it must still hold
    // iteration 1's boundary.
    let plan = FaultPlan::new().corrupt_delta(1, 2, FaultPhase::Doc);
    assert_recovery_is_bit_identical(2, plan, 3, 1);
}

#[test]
fn crash_in_the_doc_phase_recovers_bit_identically_on_four_workers() {
    let plan = FaultPlan::new().crash(2, 2, FaultPhase::Doc);
    assert_recovery_is_bit_identical(4, plan, 3, 1);
}

#[test]
fn poisoned_deltas_are_blamed_on_their_sender() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    // Worker 0's word delta carries an out-of-range topic in a record routed
    // to worker 1. The coordinator must reject it on receipt, naming worker
    // 0 — not relay it and let worker 1 fail on import.
    let mut cfg = process_config(2);
    cfg.max_recoveries = 0;
    cfg.fault_plan = FaultPlan::new().poison_delta(0, 2, FaultPhase::Word);
    let mut cluster = ProcessCluster::new(&corpus, params, config, 13, cfg).expect("spawn");
    let plan = plan_of(&cluster, &corpus, params, config);
    assert!(!plan.word_routes[0][1].is_empty(), "the poisoned record must be relayed");
    cluster.run_iteration().expect("healthy iteration");
    match cluster.run_iteration().expect_err("a poisoned delta must fail the iteration") {
        DistError::WorkerFailed { worker, message } => {
            assert_eq!(worker, 0, "blamed the wrong worker: {message}");
            assert!(message.contains("topic"), "unexpected cause: {message}");
        }
        other => panic!("expected WorkerFailed, got {other}"),
    }

    // With recovery on, the same poison in either phase costs one recovery
    // and changes no bit.
    for phase in [FaultPhase::Word, FaultPhase::Doc] {
        let plan = FaultPlan::new().poison_delta(0, 2, phase);
        assert_recovery_is_bit_identical(2, plan, 3, 1);
    }
}

/// The exchange plan every process of `cluster` derives (it depends on the
/// corpus and the grid, not on the seed).
fn plan_of(
    cluster: &ProcessCluster,
    corpus: &Corpus,
    params: ModelParams,
    config: WarpLdaConfig,
) -> ShardPlan {
    ShardPlan::build(&ShardedWarpLda::new(corpus, params, config, 0), cluster.grid())
}

/// Frame bytes of one fault-free iteration, derived from the plan alone:
/// `RunIteration` to every worker, then per phase one delta from and one
/// sync to every worker, each a length prefix, a tag, fixed fields, a
/// length-prefixed `c_k` and length-prefixed records.
fn plan_bytes_per_iteration(plan: &ShardPlan, k: usize, stride: usize) -> u64 {
    let p = plan.workers();
    let ck = 8 + 4 * k;
    let run_iteration = 4 + 1 + 8;
    let delta_head = 4 + 1 + 4 + 8 + ck + 8;
    let sync_head = 4 + 1 + 8 + ck + 8;
    let mut bytes = p * run_iteration;
    for phase in [Phase::Word, Phase::Doc] {
        for i in 0..p {
            bytes += delta_head + 4 * stride * plan.shipped(phase, i);
            bytes += sync_head + 4 * stride * plan.received(phase, i);
        }
    }
    bytes as u64
}

#[test]
fn bytes_exchanged_equal_the_plan_formula() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let k = 12;
    let params = ModelParams::paper_defaults(k);
    let config = WarpLdaConfig::with_mh_steps(2);
    let stride = config.mh_steps + 1;
    let tokens = corpus.num_tokens();
    for workers in [1usize, 2, 4] {
        let mut cluster = ProcessCluster::new(&corpus, params, config, 3, process_config(workers))
            .expect("spawn cluster");
        let plan = plan_of(&cluster, &corpus, params, config);
        let expected = plan_bytes_per_iteration(&plan, k, stride);
        // The same figure in closed form: per token `s·(1 + 3f)` record
        // bytes (the doc delta carries every token, the word delta and both
        // syncs only the off-diagonal fraction f), plus fixed framing.
        let off = cluster.grid().tokens_exchanged_per_phase_switch();
        let s = 4 * stride as u64;
        let framing = workers as u64 * (13 + 2 * (4 + 1 + 4 + 8 + 8 + 4 * k as u64 + 8))
            + workers as u64 * 2 * (4 + 1 + 8 + 8 + 4 * k as u64 + 8);
        assert_eq!(expected, s * (tokens + 3 * off) + framing, "{workers} workers");
        if workers == 1 {
            assert_eq!(off, 0, "one worker exchanges no records");
        }
        for iter in 1..=3 {
            let report = cluster.run_iteration().expect("iteration");
            assert_eq!(report.bytes_exchanged, expected, "{workers} workers, iteration {iter}");
        }
        cluster.shutdown().expect("clean shutdown");
    }
}

#[test]
fn delayed_but_heartbeating_worker_is_not_declared_hung() {
    // Worker 1 stalls for 3 s — longer than the 1 s liveness timeout — but
    // keeps heartbeating. A correct supervisor rides it out: no recovery.
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    cfg.liveness_timeout = Duration::from_secs(1);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.fault_plan = FaultPlan::new().delay(1, 2, FaultPhase::Word, 3_000);
    let mut cluster = ProcessCluster::new(&corpus, params, config, 5, cfg).expect("spawn");
    let mut oracle = ParallelWarpLda::new(&corpus, params, config, 5, 2);
    for _ in 0..3 {
        cluster.run_iteration().expect("a slow worker is not a dead worker");
        oracle.run_iteration();
    }
    assert_eq!(cluster.recoveries(), 0, "a heartbeating worker must never be recovered");
    assert_eq!(cluster.assignments(), oracle.assignments());
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn hung_worker_with_recovery_disabled_is_a_typed_hang_error() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    cfg.max_recoveries = 0;
    cfg.liveness_timeout = Duration::from_secs(1);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.fault_plan = FaultPlan::new().hang(1, 1, FaultPhase::Doc, 600_000);
    let mut cluster = ProcessCluster::new(&corpus, params, config, 9, cfg).expect("spawn");

    let start = std::time::Instant::now();
    let err = cluster.run_iteration().expect_err("hang with recovery disabled must fail");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "hang detection took {:?} — liveness is not working",
        start.elapsed()
    );
    match err {
        DistError::WorkerHung { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerHung, got {other}"),
    }

    // Satellite check: dropping the cluster mid-iteration (worker 1 is
    // alive-but-hung, worker 0 is blocked awaiting a sync) kills and reaps
    // every child — no zombies, no orphans.
    let pids = cluster.worker_pids();
    assert_eq!(pids.len(), 2);
    drop(cluster);
    for pid in pids {
        assert!(
            !process_is_live_or_zombie(pid),
            "worker pid {pid} still present after the cluster was dropped"
        );
    }
}

/// True when `/proc/<pid>` still names a live or zombie `warplda-dist-worker`
/// process. PID recycling is handled by checking the command name.
fn process_is_live_or_zombie(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/comm")) {
        Ok(comm) => comm.trim_end().starts_with("warplda-dist-w"),
        Err(_) => false,
    }
}

#[test]
fn malformed_delta_payloads_are_rejected_with_typed_codec_errors() {
    use warplda_corpus::io::codec::CodecError;
    use warplda_dist::protocol::{decode_message, encode_message, Delta, Message};

    let delta = Message::WordDelta(Delta {
        worker_id: 0,
        epoch: 1,
        records: vec![1, 2, 3],
        partial_ck: vec![4, 5],
    });
    let mut bytes = encode_message(&delta);
    // Truncating the payload mid-vector must be a typed decode error.
    bytes.truncate(bytes.len() - 3);
    assert!(decode_message(&bytes).is_err());

    // Unknown message tag.
    let mut unknown = encode_message(&Message::Shutdown);
    unknown[0] = 0xEE;
    match decode_message(&unknown) {
        Err(CodecError::Corrupt(msg)) => assert!(msg.contains("tag"), "unexpected: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A structurally valid delta whose records don't match the plan's entry
    // list (wrong length / out-of-range topic) is rejected by the replica.
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut sampler =
        ShardedWarpLda::new(&corpus, ModelParams::paper_defaults(6), WarpLdaConfig::default(), 3);
    let entries = [0u32, 1];
    assert!(sampler.import_records(&entries, &[0u32; 5]).is_err(), "wrong length");
    let bad_topic = vec![6u32; 2 * (WarpLdaConfig::default().mh_steps + 1)];
    assert!(sampler.import_records(&entries, &bad_topic).is_err(), "topic out of range");
}

#[test]
fn truncated_frames_and_oversized_prefixes_are_typed_wire_errors() {
    use warplda_net::{FrameBuffer, WireError};

    // A frame cut mid-payload is Malformed, not a hang or a panic.
    let mut buf = FrameBuffer::new(64);
    let mut frame = 8u32.to_le_bytes().to_vec();
    frame.extend_from_slice(&[1, 2, 3]); // promises 8 bytes, delivers 3
    let mut cursor = std::io::Cursor::new(frame);
    match buf.read_frame(&mut cursor) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("mid-frame")),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // An oversized length prefix is rejected before any buffering.
    let mut buf = FrameBuffer::with_max_frame(64, 1024);
    let huge = (u32::MAX).to_le_bytes();
    let mut cursor = std::io::Cursor::new(huge.to_vec());
    match buf.read_frame(&mut cursor) {
        Err(WireError::FrameTooLarge { len, limit }) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(limit, 1024);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}
