//! In-memory span recording for the traced run.
//!
//! A span is a `module.call` name with monotonic start and end times and the
//! id of the span that was open on the same thread when it started. Spans
//! are recorded only while tracing is enabled; otherwise [`span`] costs one
//! relaxed atomic load. Recorded spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// An open span; recorded when dropped.
#[must_use = "a span measures the scope that holds its guard"]
pub struct Guard(Option<(u32, Option<u32>, &'static str, u64)>);

/// Opens a span named `name` as a child of this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Guard(Some((id, parent, name, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.0.take() else { return };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.truncate(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span { id, parent, name, start_ns, end_ns });
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Every span recorded so far, in completion order.
pub fn recorded() -> Vec<Span> {
    SPANS.lock().expect("no span recorder panics while holding the lock").clone()
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_seconds(spans: &[Span]) -> HashMap<u32, f64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Total seconds and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans.iter().filter(|s| s.name == name).fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
}

/// Writes `spans` as JSON lines, one object per span, tagged with the
/// workload and seed.
pub fn write_jsonl(path: &Path, spans: &[Span], workload: &str, seed: u64) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"workload\":\"{workload}\",\"seed\":{seed}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t.x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (another
        // thread), plus [60,70); grandchild [12,18) must not count for root.
        let spans = vec![
            s(1, None, 0, 100),
            s(2, Some(1), 10, 30),
            s(3, Some(1), 20, 50),
            s(4, Some(1), 60, 70),
            s(5, Some(2), 12, 18),
        ];
        let own = self_seconds(&spans);
        let ns = |id: u32| (own[&id] * 1e9).round() as u64;
        assert_eq!(ns(1), 100 - 40 - 10);
        assert_eq!(ns(2), 20 - 6);
        assert_eq!((ns(3), ns(4), ns(5)), (30, 10, 6));
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![s(1, None, 0, 10), s(2, Some(1), 5, 15)];
        assert_eq!((self_seconds(&spans)[&1] * 1e9).round() as u64, 5);
    }

    #[test]
    fn totals_sum_by_name() {
        let spans = vec![s(1, None, 0, 1_000_000_000), s(2, None, 0, 500_000_000)];
        assert_eq!(total(&spans, "t.x"), (1.5, 2));
        assert_eq!(total(&spans, "t.y"), (0.0, 0));
    }
}
