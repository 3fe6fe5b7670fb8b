//! Executor micro-measurements for `BENCH_exec.json`
//! (schema `tab-exec-bench-v2`).
//!
//! The morsel-driven executor (DESIGN.md §12) promises identical
//! results and cost units at any thread count and morsel size —
//! wall-clock is the only thing the knobs may change. This module
//! measures exactly that promise on a sample of real benchmark queries:
//! each query runs at 1 thread and at N threads, and [`measure_exec`]
//! *asserts* that both produce the same outcome before recording their
//! wall-clocks. Cost units, morsel
//! counts, and per-operator shapes in the record are deterministic;
//! the `*_seconds` fields are wall-clock and therefore excluded from
//! the determinism byte-compare (the `BENCH_` prefix, like every other
//! timing record).

use std::time::Instant;

use tab_engine::{ExecOpts, Outcome, Session};
use tab_sqlq::Query;
use tab_storage::{trace::json_escape, BuiltConfiguration, Database, Parallelism};

/// One operator's deterministic shape within a measured query.
#[derive(Debug, Clone)]
pub struct OpBench {
    /// Operator label from the plan (`SeqScan(...)`, `HashJoin(...)`).
    pub label: String,
    /// Morsel jobs the operator dispatched (a pure function of data
    /// size and morsel size — never of the thread count).
    pub morsels: u64,
    /// Cost units the operator charged.
    pub units: f64,
}

/// Measurements for one query of the executor bench.
#[derive(Debug, Clone)]
pub struct ExecBenchEntry {
    /// Display name, e.g. `NREF2J/q0`.
    pub name: String,
    /// Total cost units — identical at 1 and N threads (checked at
    /// measurement time).
    pub units: f64,
    /// Result rows.
    pub result_rows: u64,
    /// Total operator input rows (the throughput numerator for
    /// [`ExecBenchEntry::rows_per_sec`]).
    pub rows_in: u64,
    /// Morsel jobs dispatched across all operators.
    pub morsels: u64,
    /// Per-operator shapes in plan slot order.
    pub ops: Vec<OpBench>,
    /// Wall-clock of the single-threaded run (min over repeats).
    pub seconds_1t: f64,
    /// Wall-clock of the run at [`ExecBenchEntry::threads`].
    pub seconds_nt: f64,
    /// Thread count of the parallel variant.
    pub threads: usize,
}

impl ExecBenchEntry {
    /// Parallel speedup: 1-thread wall over N-thread wall.
    pub fn parallel_speedup(&self) -> f64 {
        self.seconds_1t / self.seconds_nt.max(1e-12)
    }

    /// Operator-input rows per second at one thread.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows_in as f64 / self.seconds_1t.max(1e-12)
    }
}

/// Run `queries` against `built` at 1 thread and at `threads` threads
/// and collect wall-clocks plus the deterministic shape of each
/// execution. `repeats` runs per variant, keeping the
/// minimum wall (the least-noise estimator for CI runners).
///
/// Panics if any variant disagrees on the outcome — the determinism
/// contract this record exists to document.
pub fn measure_exec(
    db: &Database,
    built: &BuiltConfiguration,
    queries: &[(String, Query)],
    threads: usize,
    morsel_rows: usize,
    repeats: usize,
) -> Vec<ExecBenchEntry> {
    let repeats = repeats.max(1);
    let variant = |par: Parallelism| ExecOpts {
        par,
        morsel_rows,
        ..ExecOpts::default()
    };
    let opts_1t = variant(Parallelism::sequential());
    let opts_nt = variant(Parallelism::new(threads));
    queries
        .iter()
        .map(|(name, q)| {
            // One instrumented reference run for the deterministic shape.
            let session = Session::new(db, built).with_exec(opts_nt);
            let (reference, acts) = session
                .run_instrumented(q, None)
                .expect("bench queries bind against their database");
            let (units, result_rows) = match reference.outcome {
                Outcome::Done { units, rows } => (units, rows),
                Outcome::Timeout { .. } => unreachable!("unbudgeted runs cannot time out"),
            };
            let labels = reference.plan.op_labels();
            let ops: Vec<OpBench> = acts
                .iter()
                .enumerate()
                .map(|(i, a)| OpBench {
                    label: labels.get(i).cloned().unwrap_or_default(),
                    morsels: a.morsels,
                    units: a.units,
                })
                .collect();
            let rows_in: u64 = acts.iter().map(|a| a.rows_in).sum();
            let morsels: u64 = acts.iter().map(|a| a.morsels).sum();

            let time = |opts: ExecOpts<'static>| -> f64 {
                let mut best = f64::INFINITY;
                for _ in 0..repeats {
                    let session = Session::new(db, built).with_exec(opts);
                    let t0 = Instant::now();
                    let r = session
                        .run(q, None)
                        .expect("bench queries bind against their database");
                    best = best.min(t0.elapsed().as_secs_f64());
                    assert_eq!(
                        r.outcome, reference.outcome,
                        "executor variants must agree on {name}"
                    );
                }
                best
            };
            let seconds_1t = time(opts_1t);
            let seconds_nt = time(opts_nt);
            ExecBenchEntry {
                name: name.clone(),
                units,
                result_rows,
                rows_in,
                morsels,
                ops,
                seconds_1t,
                seconds_nt,
                threads: Parallelism::new(threads).threads(),
            }
        })
        .collect()
}

/// Render the executor bench as the `tab-exec-bench-v2` JSON document.
/// Carries wall-clock, so — like every `BENCH_*` record except the
/// convergence one — it is excluded from determinism byte-compares.
pub fn exec_bench_json(threads: usize, morsel_rows: usize, entries: &[ExecBenchEntry]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tab-exec-bench-v2\",\n");
    s.push_str(&format!("  \"query_threads\": {threads},\n"));
    s.push_str(&format!("  \"morsel_rows\": {morsel_rows},\n"));
    s.push_str("  \"queries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"units\": {:.3}, \"result_rows\": {}, \
             \"rows_in\": {}, \"morsels\": {},\n",
            json_escape(&e.name),
            e.units,
            e.result_rows,
            e.rows_in,
            e.morsels,
        ));
        s.push_str(&format!(
            "     \"seconds_1t\": {:.6}, \"seconds_nt\": {:.6}, \"threads\": {},\n",
            e.seconds_1t, e.seconds_nt, e.threads,
        ));
        s.push_str(&format!(
            "     \"parallel_speedup\": {:.3}, \"rows_per_sec\": {:.0},\n",
            e.parallel_speedup(),
            e.rows_per_sec(),
        ));
        s.push_str("     \"ops\": [");
        for (j, op) in e.ops.iter().enumerate() {
            s.push_str(&format!(
                "{}{{\"label\": \"{}\", \"morsels\": {}, \"units\": {:.3}}}",
                if j == 0 { "" } else { ", " },
                json_escape(&op.label),
                op.morsels,
                op.units,
            ));
        }
        s.push_str(&format!(
            "]}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> ExecBenchEntry {
        ExecBenchEntry {
            name: "NREF2J/q0".into(),
            units: 120.5,
            result_rows: 7,
            rows_in: 50_000,
            morsels: 13,
            ops: vec![OpBench {
                label: "SeqScan(protein)".into(),
                morsels: 13,
                units: 100.0,
            }],
            seconds_1t: 0.040,
            seconds_nt: 0.010,
            threads: 4,
        }
    }

    #[test]
    fn speedups_and_throughput() {
        let e = entry();
        assert!((e.parallel_speedup() - 4.0).abs() < 1e-9);
        assert!((e.rows_per_sec() - 1_250_000.0).abs() < 1e-3);
    }

    #[test]
    fn json_is_schema_tagged_and_carries_the_record() {
        let j = exec_bench_json(4, 4096, &[entry()]);
        assert!(j.contains("\"schema\": \"tab-exec-bench-v2\""), "{j}");
        assert!(j.contains("\"query_threads\": 4"), "{j}");
        assert!(j.contains("\"morsel_rows\": 4096"), "{j}");
        assert!(j.contains("\"parallel_speedup\": 4.000"), "{j}");
        assert!(j.contains("\"rows_per_sec\": 1250000"), "{j}");
        assert!(j.contains("SeqScan(protein)"), "{j}");
        assert!(j.contains("\"morsels\": 13"), "{j}");
    }
}
