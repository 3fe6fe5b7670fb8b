//! The tab-bench benchmark: one command per workload.
//!
//! ```text
//! perfbench --workload <serve-read|serve-write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are made from `--seed`; it runs for about
//! `--seconds`, checks every output, and prints one JSON line last on
//! standard output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (see `README.md` for what each means, per workload).
//! A failed correctness check exits with code 1, bad arguments with 2.

mod advise;
mod load;
mod metrics;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use metrics::Metrics;
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// Where runs leave their spans and scratch files (the WAL).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A deterministic 64-bit mix of `(seed, stream, index)` — the source
/// of every seeded choice in the request plans.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-read|serve-write> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let tr = Tracer::new(args.trace);
    let mut m = Metrics::new();
    let mut run = match args.workload.as_str() {
        "serve-read" => serve::run_read(&args, &tr, &mut m),
        "serve-write" => serve::run_write(&args, &tr, &mut m),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    m.set("peak_rss_mb", report::peak_rss_mb());
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
    let metrics = m.finish(args.trace);
    for metric in &metrics {
        run.check(metric.value.is_finite(), || {
            format!("metric {} could not be measured", metric.name)
        });
    }
    for problem in &run.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let outcome = report::Outcome {
        correct: run.problems.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    };
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// What a workload reports besides its metrics.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Run {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(problem());
        }
    }
}
