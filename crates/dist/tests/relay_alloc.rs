//! Pins the coordinator's steady-state allocation guarantee: once the
//! per-worker delta buffers, the merged `c_k` and the outgoing frame have
//! grown to their high-water marks, a healthy distributed iteration — the
//! broadcast, every delta decoded and checked, every sync relayed, the
//! boundary commit — performs **zero** heap allocations in the coordinator.
//!
//! A counting global allocator tallies every heap operation of this test
//! binary (the workers are separate processes and do not count). The file
//! deliberately contains a single `#[test]`: the harness runs the tests of
//! one binary concurrently, so a second test would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use warplda_core::{ModelParams, WarpLdaConfig};
use warplda_corpus::DatasetPreset;
use warplda_dist::{ProcessCluster, ProcessClusterConfig};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_coordinator_iterations_do_not_allocate() {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    let params = ModelParams::paper_defaults(16);
    let config = WarpLdaConfig::with_mh_steps(2);
    for workers in [1usize, 2, 3] {
        let mut cfg = ProcessClusterConfig::new(workers);
        cfg.worker_binary = Some(PathBuf::from(env!("CARGO_BIN_EXE_warplda-dist-worker")));
        let mut cluster = ProcessCluster::new(&corpus, params, config, 5, cfg).expect("spawn");
        // Warm-up: both phases grow every buffer to its high-water mark.
        for _ in 0..2 {
            cluster.run_iteration().expect("warm-up iteration");
        }
        let before = ALLOC_CALLS.load(Relaxed);
        for _ in 0..3 {
            let report = cluster.run_iteration().expect("iteration");
            assert_eq!(report.recoveries, 0);
        }
        let allocs = ALLOC_CALLS.load(Relaxed) - before;
        assert_eq!(allocs, 0, "{workers} workers: {allocs} allocations in 3 steady iterations");
        cluster.shutdown().expect("clean shutdown");
    }
}
