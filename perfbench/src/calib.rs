//! Host-speed calibration.
//!
//! On a shared virtual machine the same code runs up to 2× slower for tens
//! of seconds at a time while other tenants load the physical cores, and CPU
//! time slows down with wall time (the vCPU runs slower; it is not
//! descheduled). A run-to-run comparison of raw timings then measures the
//! neighbours more than the program. So the benchmark times a fixed probe —
//! random read-modify-write over a warm, L2-sized buffer driven by an
//! xorshift generator — at points spread over the run. The buffer is warmed
//! before every timing so the probe measures the core's speed, not whatever
//! the workload left in the caches. End-to-end timings are
//! reported at the reference speed: multiplied by
//! `REFERENCE_PROBE_S / median(probe seconds)`. The probe is benchmark code,
//! so no change to the program can move it.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Median probe duration on the reference host (see `BENCHMARK.md`).
pub const REFERENCE_PROBE_S: f64 = 0.55e-3;

const WORDS: usize = 1 << 16; // 256 KiB
const STEPS: usize = 200_000;

static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());
static BUFFER: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Times one probe and records it.
fn probe() {
    let mut buf = BUFFER.lock().expect("the probe never panics holding its buffer");
    if buf.is_empty() {
        buf.resize(WORDS, 1);
    }
    for w in buf.iter_mut() {
        *w = black_box(w.wrapping_add(1));
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        buf[i] = buf[i].wrapping_mul(3).wrapping_add(x as u32);
    }
    black_box(&*buf);
    let s = t0.elapsed().as_secs_f64();
    SAMPLES.lock().expect("the probe never panics holding its samples").push(s);
}

/// Takes `n` probes now.
pub fn sample(n: usize) {
    for _ in 0..n {
        probe();
    }
}

/// Multiplier from this run's timings to the reference speed: above 1 when
/// the host ran faster than the reference.
pub fn factor() -> f64 {
    let samples = SAMPLES.lock().expect("the probe never panics holding its samples");
    if samples.is_empty() {
        return 1.0;
    }
    REFERENCE_PROBE_S / stats::median(&samples)
}

/// Median probe seconds of this run and the number of probes.
pub fn summary() -> (f64, usize) {
    let samples = SAMPLES.lock().expect("the probe never panics holding its samples");
    (if samples.is_empty() { f64::NAN } else { stats::median(&samples) }, samples.len())
}
