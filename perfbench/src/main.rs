//! `perfbench` — the end-to-end and per-layer benchmark of the WarpLDA
//! workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload (see `BENCHMARK.md` next to this crate)
//! built from `--seed`: the seed derives the synthetic corpus and every
//! sampler and query seed, and the program under test sees only the
//! generated inputs. A workload repeats a fixed unit of work — set-up plus a
//! measured section — a number of times fixed by `--seconds`, checks every
//! output, and prints human-readable results followed by one JSON result
//! line. With `--trace 0` the line carries the end-to-end metrics; with
//! `--trace 1` every other repetition records spans around each call into
//! the library and the line carries the per-layer metrics derived from them.
//! The process exits non-zero when any output check fails.

mod calib;
mod layers;
mod pipeline;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] =
    ["pipeline-nytimes", "train-pubmed-t2", "dist-pubmed-w2", "serve-pubmed"];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// A parsed command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.unwrap_or(false),
    })
}

/// Host, toolchain and source identity, printed with every result.
fn provenance() -> String {
    let commit = sys::command_output("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| sys::command_output("git", &["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    format!(
        "{{\"nproc\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"commit\": {:?}, \"dirty\": {}}}",
        sys::nproc(),
        sys::cpu_model(),
        sys::command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        commit.unwrap_or_else(|| "none (not a git checkout)".into()),
        dirty.map_or("null".to_string(), |d| d.to_string()),
    )
}

/// Scratch directory of this invocation (checkpoints, model artifacts),
/// under the benchmark's own directory; removed when the run ends.
fn scratch_dir(args: &Args) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match scratch_dir(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::new(args.traced);
    // Only a traced run reads /proc beyond the peak resident set.
    let cpu0 = args.traced.then(|| sys::cpu_seconds(None).unwrap_or(0.0));
    let outcome = match args.workload {
        "pipeline-nytimes" => pipeline::run(&args, &dir, &mut report),
        "train-pubmed-t2" => train::run(&args, train::Backend::Threads, &mut report),
        "dist-pubmed-w2" => train::run(&args, train::Backend::Processes, &mut report),
        "serve-pubmed" => serve::run(&args, &dir, &mut report),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(cpu0) = cpu0 {
        report.set("proc.cpu_s", sys::cpu_seconds(None).unwrap_or(0.0) - cpu0);
    }
    let (probe_s, probes) = calib::summary();
    report.set("host.probe_us", probe_s * 1e6);
    report.show(
        "host probe",
        probe_s * 1e6,
        "us",
        &format!("median of {probes}; reference {} us", calib::REFERENCE_PROBE_S * 1e6),
    );
    report.normalize(calib::factor());
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.show("peak_rss_mb", sys::peak_rss_mb(), "MB", "VmHWM of the benchmark process");
    report.show("failed_frac", report.failed_frac(), "ratio", "failed / attempted");
    if args.traced {
        let spans = trace::recorded();
        let path = dir.with_file_name(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans, args.workload, args.seed) {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    let missing = report.missing();
    assert!(missing.is_empty(), "workload {} left metrics unset: {missing:?}", args.workload);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("provenance {}", provenance());
    print!("{}", report.human());
    println!("{}", report.result_line());
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
