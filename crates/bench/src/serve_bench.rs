//! The serving throughput benchmark behind `tab bench serve`.
//!
//! Boots an in-process [`tab_server::Server`] over a [`SharedEngine`]
//! serving the paper's `P` and `1C` configurations, then drives it with
//! a deterministic load generator in one of two shapes:
//!
//! - **closed loop** — `N` persistent clients, each sending its next
//!   request the moment the previous response lands (the classic
//!   think-time-zero closed system);
//! - **open loop** — requests arrive on a fixed schedule regardless of
//!   completions, each on its own connection (an arrival process, so
//!   response time does not throttle offered load).
//!
//! Determinism contract (`tab-serve-bench-v1`): request `i` always runs
//! workload query `i mod W` under configuration `p`/`1c` by parity, on
//! client `i mod N`. Because the benchmark issues no writes, every
//! request executes against generation 0 and its verdict and cost units
//! are a pure function of the request index — independent of
//! interleaving, client count, and loop shape. The benchmark *proves*
//! that per run: every wire result is compared against a direct
//! [`Session`] execution of the same query, requiring the verdict to
//! match and the cost units to be **bit-identical** after their trip
//! through the wire's shortest-roundtrip float formatting. Only
//! `wall_seconds` and `qps` vary run to run, and they live on dedicated
//! JSON lines so byte-compares can drop them (DESIGN.md §14).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tab_core::{build_1c, build_p, Parallelism};
use tab_engine::{EngineState, Outcome, Session, SharedEngine};
use tab_families::{sample_preserving_par, Family};
use tab_server::{Client, ServeOptions, Server};
use tab_sqlq::Query;
use tab_storage::Database;

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// `N` persistent connections, zero think time.
    Closed,
    /// Fixed arrival schedule, one connection per request.
    Open {
        /// Gap between consecutive request launches.
        interarrival: Duration,
    },
}

impl LoadMode {
    /// The mode's name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }
}

/// Load-generator knobs. `Default` is the small CI shape: 4 clients,
/// 32 requests over a 16-query workload, closed loop.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Number of concurrent clients (closed loop) or dispatcher lanes
    /// (open loop).
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Workload sample size; requests cycle through it.
    pub workload: usize,
    /// Loop shape.
    pub mode: LoadMode,
    /// Per-query budget in cost units.
    pub timeout_units: f64,
    /// Thread budget for family enumeration and sampling.
    pub par: Parallelism,
    /// Armed fault plan handed to the in-process server's wire sites
    /// (`delay:conn` perturbs timing without harming the result proof;
    /// `drop:conn`/`torn:wire` will fail requests by design — the
    /// chaos harness, not this benchmark, is where retries absorb
    /// those). `None` (the default) is the byte-identical PR 9 path.
    pub faults: Option<Arc<tab_storage::FaultPlan>>,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            clients: 4,
            requests: 32,
            workload: 16,
            mode: LoadMode::Closed,
            timeout_units: tab_engine::DEFAULT_TIMEOUT_UNITS,
            par: Parallelism::new(0),
            faults: None,
        }
    }
}

/// One request's result as observed over the wire (and re-proved
/// against a direct session).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Workload query index this request ran (`i mod W`).
    pub query: usize,
    /// Configuration it ran under (`p` or `1c`, by request parity).
    pub config: &'static str,
    /// Client lane that carried it (`i mod N`).
    pub client: usize,
    /// `done` or `timeout`.
    pub verdict: &'static str,
    /// Cost units (actual when done, the budget lower bound on
    /// timeout), parsed back from the wire bit-identically.
    pub units: f64,
}

/// Everything `tab bench serve` reports: per-request outcomes in
/// request order plus the run's wall-clock.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Database label (e.g. `NREF`).
    pub db: String,
    /// Workload family name.
    pub family: &'static str,
    /// Loop shape name (`closed` / `open`).
    pub mode: &'static str,
    /// Client count the load ran with.
    pub clients: usize,
    /// Workload sample size.
    pub workload: usize,
    /// Per-query budget in cost units.
    pub timeout_units: f64,
    /// Outcomes indexed by request number.
    pub outcomes: Vec<RequestOutcome>,
    /// How many wire results matched the direct-session baseline
    /// exactly (always `outcomes.len()` — a mismatch fails the run).
    pub baseline_matches: usize,
    /// Wall-clock of the load phase (excluded from byte-compares).
    pub wall_seconds: f64,
}

/// The per-request claim a wire result must reproduce exactly.
fn direct_outcome(session: &Session<'_>, q: &Query, timeout_units: f64) -> (&'static str, f64) {
    let r = session
        .run(q, Some(timeout_units))
        .expect("workload query binds");
    match r.outcome {
        Outcome::Done { units, .. } => ("done", units),
        Outcome::Timeout { budget } => ("timeout", budget),
    }
}

/// Extract (verdict, units) from a wire response. Shared with the
/// chaos harness, whose post-recovery read-back uses the same claim.
pub(crate) fn wire_outcome(r: &tab_server::Response) -> Result<(&'static str, f64), String> {
    if !r.is_ok() {
        return Err(r.error().unwrap_or_else(|| "unlabelled error".into()));
    }
    match r.str_field("verdict").as_deref() {
        Some("done") => Ok((
            "done",
            r.num_field("units")
                .ok_or_else(|| format!("done response without units: {}", r.line()))?,
        )),
        Some("timeout") => Ok((
            "timeout",
            r.num_field("budget_units")
                .ok_or_else(|| format!("timeout response without budget: {}", r.line()))?,
        )),
        other => Err(format!("unexpected verdict {other:?}: {}", r.line())),
    }
}

/// Run the serving benchmark: build the engine, boot a server on a
/// loopback port, drive it with the configured load, and verify every
/// wire result against a direct [`Session`] run of the same query.
///
/// The returned report is deterministic apart from `wall_seconds`; any
/// wire/direct divergence (verdict or non-bit-identical units) is an
/// `Err`, not a quietly different report.
pub fn run_serve_bench(
    db: &Database,
    label: &str,
    family: Family,
    opts: &ServeBenchOptions,
) -> Result<ServeBenchReport, String> {
    if opts.clients == 0 || opts.requests == 0 {
        return Err("serve bench needs at least one client and one request".into());
    }
    let p = build_p(db, label);
    let c1 = build_1c(db, label);
    let all = family.enumerate_with(db, opts.par);
    if all.is_empty() {
        return Err(format!(
            "family {} is empty on this database",
            family.name()
        ));
    }
    let estimator = Session::new(db, &p);
    let workload = sample_preserving_par(
        &all,
        |q| estimator.estimate(q).unwrap_or(f64::INFINITY),
        opts.workload,
        2005,
        opts.par,
    );

    // The request plan: everything about request i is a function of i.
    let sql: Vec<String> = workload.iter().map(Query::to_string).collect();
    let plan: Vec<(usize, &'static str)> = (0..opts.requests)
        .map(|i| (i % sql.len(), if i % 2 == 0 { "p" } else { "1c" }))
        .collect();

    let engine = Arc::new(SharedEngine::new(
        EngineState::new(db.clone())
            .with_config("p", p.clone())
            .with_config("1c", c1.clone()),
    ));
    let mut server = Server::start(
        Arc::clone(&engine),
        ServeOptions {
            label: label.to_string(),
            timeout_units: opts.timeout_units,
            faults: opts.faults.clone(),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();

    let t0 = Instant::now();
    let wire = drive(addr, &sql, &plan, opts)?;
    let wall_seconds = t0.elapsed().as_secs_f64();
    server.shutdown();

    // Re-prove every wire result against a direct session: same query,
    // same configuration, same budget, bit-identical units.
    let mut outcomes = Vec::with_capacity(opts.requests);
    let mut baseline_matches = 0;
    for (i, ((qi, config), (verdict, units))) in plan.iter().zip(&wire).enumerate() {
        let built = if *config == "p" { &p } else { &c1 };
        let session = Session::new(db, built);
        let (want_verdict, want_units) =
            direct_outcome(&session, &workload[*qi], opts.timeout_units);
        if *verdict != want_verdict || units.to_bits() != want_units.to_bits() {
            return Err(format!(
                "request {i} diverged from direct session: wire ({verdict}, {units}) \
                 vs direct ({want_verdict}, {want_units})"
            ));
        }
        baseline_matches += 1;
        outcomes.push(RequestOutcome {
            query: *qi,
            config,
            client: i % opts.clients,
            verdict,
            units: *units,
        });
    }

    Ok(ServeBenchReport {
        db: label.to_string(),
        family: family.name(),
        mode: opts.mode.name(),
        clients: opts.clients,
        workload: sql.len(),
        timeout_units: opts.timeout_units,
        outcomes,
        baseline_matches,
        wall_seconds,
    })
}

/// A per-request result slot, filled by whichever thread carried it.
type ResultSlot = std::sync::Mutex<Option<Result<(&'static str, f64), String>>>;

/// Issue every planned request and collect `(verdict, units)` per
/// request index, in the configured loop shape.
fn drive(
    addr: std::net::SocketAddr,
    sql: &[String],
    plan: &[(usize, &'static str)],
    opts: &ServeBenchOptions,
) -> Result<Vec<(&'static str, f64)>, String> {
    let results: Vec<ResultSlot> = (0..plan.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        match opts.mode {
            LoadMode::Closed => {
                // N persistent clients; client c owns requests c, c+N, …
                for c in 0..opts.clients {
                    let results = &results;
                    scope.spawn(move || {
                        let mut client = match Client::connect(addr) {
                            Ok(cl) => cl,
                            Err(e) => {
                                for i in (c..plan.len()).step_by(opts.clients) {
                                    *results[i].lock().unwrap() =
                                        Some(Err(format!("client {c}: connect: {e}")));
                                }
                                return;
                            }
                        };
                        for i in (c..plan.len()).step_by(opts.clients) {
                            let (qi, config) = plan[i];
                            let out = client
                                .query(config, &sql[qi])
                                .and_then(|r| wire_outcome(&r));
                            *results[i].lock().unwrap() = Some(out);
                        }
                        let _ = client.quit();
                    });
                }
            }
            LoadMode::Open { interarrival } => {
                // Fixed arrival schedule; connection per request, so a
                // slow response never delays the next arrival. The
                // coordinator sleeps until each request is due and only
                // then spawns it, so only requests in flight hold a
                // thread.
                let t0 = Instant::now();
                for (i, &(qi, config)) in plan.iter().enumerate() {
                    let due = interarrival * i as u32;
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let results = &results;
                    let sql = &sql[qi];
                    scope.spawn(move || {
                        let out = Client::connect(addr)
                            .map_err(|e| format!("request {i}: connect: {e}"))
                            .and_then(|mut cl| {
                                let r = cl.query(config, sql).and_then(|r| wire_outcome(&r));
                                let _ = cl.quit();
                                r
                            });
                        *results[i].lock().unwrap() = Some(out);
                    });
                }
            }
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap()
                .unwrap_or_else(|| Err(format!("request {i} was never issued")))
        })
        .collect()
}

impl ServeBenchReport {
    /// Requests per second over the load phase.
    pub fn qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.outcomes.len() as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Count of `done` verdicts.
    pub fn done(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == "done").count()
    }

    /// Count of `timeout` verdicts.
    pub fn timeouts(&self) -> usize {
        self.outcomes.len() - self.done()
    }

    /// The `tab-serve-bench-v1` JSON document (`BENCH_serve.json`).
    ///
    /// Deterministic for a fixed database, family, and load shape —
    /// except the final `"wall_seconds"` and `"qps"` lines, which live
    /// alone on their lines precisely so a byte-compare can drop them
    /// (`grep -v wall_seconds | grep -v qps`, the contract DESIGN.md
    /// §14 documents and `tests/serving.rs` enforces).
    pub fn json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tab-serve-bench-v1\",\n");
        s.push_str(&format!("  \"db\": \"{}\",\n", self.db));
        s.push_str(&format!("  \"family\": \"{}\",\n", self.family));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"clients\": {},\n", self.clients));
        s.push_str(&format!("  \"requests\": {},\n", self.outcomes.len()));
        s.push_str(&format!("  \"workload\": {},\n", self.workload));
        s.push_str(&format!("  \"timeout_units\": {},\n", self.timeout_units));
        s.push_str(&format!(
            "  \"baseline_matches\": {},\n",
            self.baseline_matches
        ));
        s.push_str(&format!(
            "  \"verdicts\": {{\"done\": {}, \"timeout\": {}}},\n",
            self.done(),
            self.timeouts()
        ));
        s.push_str("  \"per_client\": [\n");
        for c in 0..self.clients {
            let mine: Vec<&RequestOutcome> =
                self.outcomes.iter().filter(|o| o.client == c).collect();
            let done = mine.iter().filter(|o| o.verdict == "done").count();
            let units: f64 = mine.iter().map(|o| o.units).sum();
            s.push_str(&format!(
                "    {{\"client\": {c}, \"requests\": {}, \"done\": {done}, \
                 \"timeout\": {}, \"units\": {units}}}{}\n",
                mine.len(),
                mine.len() - done,
                if c + 1 == self.clients { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        let total: f64 = self.outcomes.iter().map(|o| o.units).sum();
        s.push_str(&format!("  \"total_units\": {total},\n"));
        s.push_str(&format!("  \"wall_seconds\": {:.3},\n", self.wall_seconds));
        s.push_str(&format!("  \"qps\": {:.1}\n", self.qps()));
        s.push_str("}\n");
        s
    }

    /// Per-request claims as CSV rows (`query,config,verdict,units`),
    /// in request order. Free of client, mode, and wall-clock columns,
    /// so the same database and load plan produce a byte-identical
    /// file at *any* client count and in *either* loop shape — one
    /// committed baseline (`ci/expected_serve_small.csv`) gates all of
    /// them.
    pub fn requests_csv(&self) -> String {
        let mut s = String::from("query,config,verdict,units\n");
        for o in &self.outcomes {
            s.push_str(&format!(
                "{},{},{},{}\n",
                o.query, o.config, o.verdict, o.units
            ));
        }
        s
    }

    /// One human-readable summary table (printed by the CLI and into
    /// the CI step summary).
    pub fn render_table(&self) -> String {
        format!(
            "{:>8} {:>7} {:>9} {:>6} {:>8} {:>8} {:>8}\n\
             {:>8} {:>7} {:>9} {:>6} {:>8} {:>8.2} {:>8.1}\n",
            "clients",
            "mode",
            "requests",
            "done",
            "timeout",
            "wall_s",
            "qps",
            self.clients,
            self.mode,
            self.outcomes.len(),
            self.done(),
            self.timeouts(),
            self.wall_seconds,
            self.qps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_datagen::{generate_nref, NrefParams};

    fn small_db() -> Database {
        generate_nref(NrefParams {
            proteins: 300,
            seed: 2005,
        })
    }

    #[test]
    fn closed_loop_report_is_deterministic_and_client_count_free() {
        let db = small_db();
        let opts = ServeBenchOptions {
            clients: 1,
            requests: 8,
            workload: 4,
            ..ServeBenchOptions::default()
        };
        let one = run_serve_bench(&db, "NREF", Family::Nref2J, &opts).expect("bench runs");
        let four = run_serve_bench(
            &db,
            "NREF",
            Family::Nref2J,
            &ServeBenchOptions { clients: 4, ..opts },
        )
        .expect("bench runs");
        assert_eq!(one.baseline_matches, 8);
        assert_eq!(four.baseline_matches, 8);
        // The per-request CSV ignores the client dimension entirely.
        assert_eq!(one.requests_csv(), four.requests_csv());
        // The JSON is byte-identical minus the wall-clock lines and the
        // client grouping.
        let strip = |r: &ServeBenchReport| {
            r.json()
                .lines()
                .filter(|l| {
                    !l.contains("wall_seconds") && !l.contains("qps") && !l.contains("client")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four));
    }

    #[test]
    fn open_loop_matches_closed_loop_claims() {
        let db = small_db();
        let base = ServeBenchOptions {
            clients: 2,
            requests: 6,
            workload: 3,
            ..ServeBenchOptions::default()
        };
        let closed = run_serve_bench(&db, "NREF", Family::Nref2J, &base).expect("closed runs");
        let open = run_serve_bench(
            &db,
            "NREF",
            Family::Nref2J,
            &ServeBenchOptions {
                mode: LoadMode::Open {
                    interarrival: Duration::from_millis(1),
                },
                ..base
            },
        )
        .expect("open runs");
        assert_eq!(closed.requests_csv(), open.requests_csv());
        assert_eq!(open.mode, "open");
    }
}
