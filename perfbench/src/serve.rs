//! The `serve-read` and `serve-write` workloads: an in-process
//! `tab_server::Server` over NREF with 800 proteins, serving `p` and
//! `1c`, driven by two closed-loop connections.
//!
//! - `serve-read`: both connections send QUERYs, with an EXPLAIN every
//!   8th request and a PING every 32nd, over a pool of 32 NREF2J queries.
//!   Nothing is written, so every answer must be bit-identical to a
//!   direct `Session` on generation 0.
//! - `serve-write`: the engine is opened with `SharedEngine::with_wal`
//!   on a fresh log. One connection sends sequence-keyed INSERTs into
//!   `source`; the other sends QUERYs that do not touch `source`, so
//!   their answers stay checkable against generation 0. Each pass
//!   inserts [`INSERTS_PER_PASS`] rows, then the log is reopened and
//!   replayed, which refuses any divergence from what was acknowledged.
//!   Every generation stays resident today, so the insert count per
//!   pass is what bounds `peak_rss_mb`.
//!
//! A traced serve-read run also probes the layers neither workload
//! drives (see `advise.rs`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tab_core::{build_1c, build_p, Parallelism};
use tab_datagen::{generate_nref, NrefParams};
use tab_engine::{
    EngineSnapshot, EngineState, Outcome, Session, SharedEngine, DEFAULT_TIMEOUT_UNITS,
};
use tab_families::{sample_preserving_par, Family};
use tab_server::{Client, Response, ServeOptions, Server};
use tab_sqlq::{Predicate, Query};
use tab_storage::Wal;

use crate::load::{self, Limits, Plan, Request, Sample, Verb};
use crate::metrics::Metrics;
use crate::report::{mean, median, quantile, rss_mb};
use crate::trace::{Ctx, Tracer};
use crate::{mix, out_dir, Args, Run};

/// Proteins in the served NREF database.
const PROTEINS: usize = 800;
/// Data seed of the served database (the serving commands' default).
const DATA_SEED: u64 = 2005;
/// Queries in the request pool.
const POOL: usize = 32;
/// Set-ups per break; `setup_s` is the median over all breaks.
const SETUPS_PER_BREAK: usize = 2;
/// Windows a serve-read run is cut into, with a set-up break before
/// each. (A serve-write run takes its breaks before each pass.)
const READ_SEGMENTS: u32 = 8;
/// Inserts per serve-write pass.
const INSERTS_PER_PASS: u64 = 20;
/// Passes per serve-write run at the least, even on a slow host: 120
/// INSERTs leave ten samples beyond `WRITE_INSERT_TAIL`.
const MIN_PASSES: usize = 6;
/// Client threads (and connections) in this one process: `nproc` of the
/// measuring machine (2 vCPUs).
const CONNECTIONS: usize = 2;
/// Tail quantiles, each leaving at least ten samples beyond it in a
/// 40-second run (see `README.md` for the sample counts).
const READ_QUERY_TAIL: f64 = 0.99;
const READ_EXPLAIN_TAIL: f64 = 0.95;
const WRITE_QUERY_TAIL: f64 = 0.97;
const WRITE_INSERT_TAIL: f64 = 0.91;

/// A served engine with its server running.
struct Served {
    engine: Arc<SharedEngine>,
    server: Server,
}

/// Generate the database, build `P` and `1C`, open the engine (on a
/// WAL when `wal` is given) and boot the server.
fn boot(tr: &Tracer, c: Ctx, wal: Option<&Path>) -> Served {
    let db = tr.span("datagen.generate", c, |_| {
        generate_nref(NrefParams {
            proteins: PROTEINS,
            seed: DATA_SEED,
        })
    });
    let p = tr.span("core.build_p", c, |_| build_p(&db, "NREF"));
    let c1 = tr.span("core.build_1c", c, |_| build_1c(&db, "NREF"));
    let state = EngineState::new(db)
        .with_config("p", p)
        .with_config("1c", c1);
    let engine = match wal {
        Some(path) => {
            let (engine, report) = tr
                .span("engine.with_wal", c, |_| {
                    SharedEngine::with_wal(state, path, None)
                })
                .expect("a fresh WAL opens");
            assert_eq!(report.replayed, 0, "a fresh WAL has nothing to replay");
            engine
        }
        None => SharedEngine::new(state),
    };
    let engine = Arc::new(engine);
    let server = tr
        .span("server.start", c, |_| {
            Server::start(Arc::clone(&engine), ServeOptions::default())
        })
        .expect("the server binds a loopback port");
    Served { engine, server }
}

/// One timed set-up. A WAL, when given, starts empty.
fn setup(tr: &Tracer, wal: Option<&Path>) -> (f64, Served) {
    if let Some(path) = wal {
        let _ = std::fs::remove_file(path);
    }
    let t = Instant::now();
    let served = tr.span("setup", Ctx::default(), |c| boot(tr, c, wal));
    (t.elapsed().as_secs_f64(), served)
}

/// [`SETUPS_PER_BREAK`] timed set-ups, each shut down and dropped
/// before the next. Runs take them in breaks spread over the whole run:
/// on the measuring host, CPU speed shifts between levels about 40 %
/// apart every few seconds, so set-ups taken back to back all land in
/// one level and their median follows it.
fn setup_break(tr: &Tracer, wal: Option<&Path>, seconds: &mut Vec<f64>) {
    for _ in 0..SETUPS_PER_BREAK {
        let (s, mut served) = setup(tr, wal);
        seconds.push(s);
        served.server.shutdown();
    }
}

/// Every table a query reads, including its frequency subqueries.
fn tables(q: &Query) -> Vec<&str> {
    let mut t: Vec<&str> = q.from.iter().map(|r| r.table.as_str()).collect();
    for p in &q.predicates {
        if let Predicate::InFrequency { sub_table, .. } = p {
            t.push(sub_table);
        }
    }
    t
}

/// The request pool: `POOL` NREF2J queries sampled with the run's seed,
/// keeping only those `keep` accepts.
fn pool(
    tr: &Tracer,
    snap: &EngineSnapshot,
    seed: u64,
    keep: impl Fn(&Query) -> bool,
    m: &mut Metrics,
) -> Vec<Query> {
    let state = snap.state();
    let par = Parallelism::new(CONNECTIONS);
    let c = Ctx {
        span: 0,
        req: tr.request(),
    };
    let t = Instant::now();
    let all: Vec<Query> = tr.span("families.enumerate", c, |_| {
        Family::Nref2J.enumerate_with(&state.db, par)
    });
    m.set("families.enumerate_s", t.elapsed().as_secs_f64());
    m.set("families.queries", all.len() as f64);
    let all: Vec<Query> = all.into_iter().filter(|q| keep(q)).collect();
    let estimator = snap.session("p").expect("p is served");
    let t = Instant::now();
    let pool = tr.span("families.sample", c, |_| {
        sample_preserving_par(
            &all,
            |q| estimator.estimate(q).unwrap_or(f64::INFINITY),
            POOL,
            seed,
            par,
        )
    });
    m.set("families.sample_s", t.elapsed().as_secs_f64());
    pool
}

const CONFIGS: [&str; 2] = ["p", "1c"];

/// The verb of request `i` of a serve-read connection. QUERY is the
/// traffic of the repository's serving benchmark (`tab bench serve`).
/// EXPLAIN and PING are added at the lowest shares their metrics need:
/// EXPLAIN is 1 request in 8 (about 220 in a 40-second run, enough for a
/// p95 tail with ten samples beyond it) and PING 1 in 32 (about 55, half
/// of them traced, for the median `server.ping_p50_ms`). Each verb's
/// slots fall equally in traced and untraced blocks of
/// `load::TRACE_BLOCK` = 8 requests, and each segment of a run starts
/// with an untraced and a traced PING.
fn read_verb(i: u64) -> Verb {
    match (i % 16, i % 64) {
        (_, 0 | 8) => Verb::Ping,
        (4 | 12, _) => Verb::Explain,
        _ => Verb::Query,
    }
}

/// A QUERY of pool entry `q` under a seeded configuration; the key
/// encodes both.
fn query_request(pool_sql: &[String], verb: Verb, h: u64) -> Request {
    let q = (h >> 8) as usize % pool_sql.len();
    let c = ((h >> 40) & 1) as usize;
    let word = if verb == Verb::Query {
        "QUERY"
    } else {
        "EXPLAIN"
    };
    Request {
        verb,
        line: format!("{word} {} {}", CONFIGS[c], pool_sql[q]),
        key: q * 2 + c,
    }
}

/// The direct answer a QUERY must reproduce: verdict, units (bit
/// pattern), rows and plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    pub verdict: &'static str,
    pub units_bits: u64,
    pub rows: Option<u64>,
    pub plan: String,
}

fn direct_query(snap: &EngineSnapshot, q: &Query, config: &str) -> QueryAnswer {
    session_query(&snap.session(config).expect("config is served"), q)
}

/// What a direct `Session::run` of `q` answers under the serving budget.
pub fn session_query(session: &Session<'_>, q: &Query) -> QueryAnswer {
    let r = session
        .run(q, Some(DEFAULT_TIMEOUT_UNITS))
        .expect("pool query binds");
    let (verdict, units, rows) = match r.outcome {
        Outcome::Done { units, rows } => ("done", units, Some(rows)),
        Outcome::Timeout { budget } => ("timeout", budget, None),
    };
    QueryAnswer {
        verdict,
        units_bits: units.to_bits(),
        rows,
        plan: r.plan.describe(),
    }
}

fn wire_query(r: &Response) -> Option<QueryAnswer> {
    let verdict = match r.str_field("verdict")?.as_str() {
        "done" => "done",
        "timeout" => "timeout",
        _ => return None,
    };
    let units = if verdict == "done" {
        r.num_field("units")?
    } else {
        r.num_field("budget_units")?
    };
    Some(QueryAnswer {
        verdict,
        units_bits: units.to_bits(),
        rows: if verdict == "done" {
            Some(r.int_field("rows")?)
        } else {
            None
        },
        plan: r.str_field("plan")?,
    })
}

fn direct_explain(snap: &EngineSnapshot, q: &Query, config: &str) -> (String, u64) {
    let session = snap.session(config).expect("config is served");
    let plan = session.plan_query(q).expect("pool query plans");
    let estimate = session.estimate(q).expect("pool query estimates");
    (plan.describe(), estimate.to_bits())
}

/// Check each QUERY and EXPLAIN answer against a direct session on the
/// pinned generation-0 snapshot, and each PING against generation 0.
/// Direct answers are computed once per (query, configuration).
fn check_reads(samples: &[Sample], pool: &[Query], snap: &EngineSnapshot, out: &mut Run) {
    let mut queries: Vec<Option<QueryAnswer>> = vec![None; pool.len() * 2];
    let mut explains: Vec<Option<(String, u64)>> = vec![None; pool.len() * 2];
    for s in samples {
        let Ok(r) = &s.response else { continue };
        if !r.is_ok() {
            continue;
        }
        let (q, c) = (s.request.key / 2, CONFIGS[s.request.key % 2]);
        match s.request.verb {
            Verb::Query => {
                let want =
                    queries[s.request.key].get_or_insert_with(|| direct_query(snap, &pool[q], c));
                let got = wire_query(r);
                out.check(got.as_ref() == Some(want), || {
                    format!(
                        "QUERY `{}` answered {} but direct gives {want:?}",
                        s.request.line,
                        r.line()
                    )
                });
            }
            Verb::Explain => {
                let want = explains[s.request.key]
                    .get_or_insert_with(|| direct_explain(snap, &pool[q], c));
                let got = r
                    .str_field("plan")
                    .zip(r.num_field("estimate_units").map(f64::to_bits));
                out.check(got.as_ref() == Some(want), || {
                    format!(
                        "EXPLAIN `{}` answered {} but direct gives {want:?}",
                        s.request.line,
                        r.line()
                    )
                });
            }
            Verb::Ping => {
                out.check(
                    r.int_field("generation") == Some(0)
                        && r.str_field("configs").as_deref() == Some("1c,p"),
                    || format!("PING answered {}", r.line()),
                );
            }
            Verb::Insert => {}
        }
    }
}

/// In a traced run, replay each traced request's work directly, in
/// spans sharing the request's id: parse its SQL, then run (QUERY) or
/// plan and estimate (EXPLAIN) it on generation 0.
fn probe_direct(tr: &Tracer, samples: &[Sample], pool: &[Query], snap: &EngineSnapshot) {
    for s in samples.iter().filter(|s| s.traced) {
        let ctx = Ctx {
            span: 0,
            req: s.req,
        };
        let (q, c) = (s.request.key / 2, CONFIGS[s.request.key % 2]);
        match s.request.verb {
            Verb::Query | Verb::Explain => {
                let sql = s
                    .request
                    .line
                    .splitn(3, ' ')
                    .nth(2)
                    .expect("verb config sql");
                let parsed = tr.span("sqlq.parse", ctx, |_| tab_sqlq::parse(sql));
                assert_eq!(parsed.as_ref().ok(), Some(&pool[q]), "pool SQL round-trips");
                if s.request.verb == Verb::Query {
                    let a = tr.span("engine.run", ctx, |_| direct_query(snap, &pool[q], c));
                    std::hint::black_box(a);
                } else {
                    let a = tr.span("engine.plan", ctx, |_| direct_explain(snap, &pool[q], c));
                    std::hint::black_box(a);
                }
            }
            Verb::Ping | Verb::Insert => {}
        }
    }
}

/// The server's STATS counters of shed requests and refused
/// connections.
fn server_stats(addr: std::net::SocketAddr) -> (u64, u64) {
    let r = Client::connect(addr)
        .and_then(|mut c| c.stats().map_err(std::io::Error::other))
        .expect("STATS answers");
    let f = |k: &str| r.int_field(k).unwrap_or(0);
    (
        f("shed_query") + f("shed_explain") + f("shed_advise"),
        f("conns_refused"),
    )
}

/// Median time to clone the pinned generation's `EngineState` — what
/// every copy-on-write insert pays.
fn probe_state_clone(tr: &Tracer, snap: &EngineSnapshot) -> f64 {
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let copy = tr.span("engine.state_clone", Ctx::default(), |_| {
                snap.state().clone()
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(copy);
            ms
        })
        .collect();
    median(&ms)
}

/// Count attempts and failures, print the per-verb table, and fail the
/// run on every failed or refused request.
fn tally(samples: &[&Sample], out: &mut Run) {
    for (verb, attempted, failed, refused) in load::verb_counts(samples) {
        if attempted > 0 {
            eprintln!(
                "  {:8} attempted {attempted:6}  failed {failed:4}  refused {refused:4}",
                verb.name()
            );
        }
        out.attempted += attempted;
        out.failed += failed;
    }
    for s in samples.iter().filter(|s| !s.ok()) {
        out.check(false, || match &s.response {
            Ok(r) => format!("`{}` failed: {}", s.request.line, r.line()),
            Err(e) => format!("`{}` failed: {e}", s.request.line),
        });
    }
}

/// Traced minus untraced mean latency, as a share of untraced.
fn overhead_share(samples: &[&Sample]) -> f64 {
    let of = |traced: bool| {
        mean(
            &samples
                .iter()
                .filter(|s| s.traced == traced && s.ok())
                .map(|s| s.ms)
                .collect::<Vec<f64>>(),
        )
    };
    of(true) / of(false) - 1.0
}

fn span_median_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations(name)) * 1e3
}

pub fn run_read(args: &Args, tr: &Tracer, m: &mut Metrics) -> Run {
    let mut out = Run::default();
    let (first_setup_s, Served { engine, mut server }) = setup(tr, None);
    let mut setup_s = vec![first_setup_s];
    let snap = engine.snapshot();
    let pool = pool(tr, &snap, args.seed, |_| true, m);
    let pool_sql: Vec<String> = pool.iter().map(Query::to_string).collect();

    let mut samples = Vec::new();
    let mut window_s = 0.0;
    for segment in 0..READ_SEGMENTS {
        setup_break(tr, None, &mut setup_s);
        let plan = |conn: u64| {
            let pool_sql = &pool_sql;
            move |i: u64| {
                let h = mix(args.seed, conn + 2 * u64::from(segment), i);
                match read_verb(i) {
                    Verb::Ping => Request {
                        verb: Verb::Ping,
                        line: "PING".into(),
                        key: 0,
                    },
                    verb => query_request(pool_sql, verb, h),
                }
            }
        };
        let (p0, p1) = (plan(0), plan(1));
        let plans: [Plan<'_>; CONNECTIONS] = [&p0, &p1];
        let start = Instant::now();
        let limits = Limits {
            deadline: start + args.window / READ_SEGMENTS,
            max_requests: vec![None; CONNECTIONS],
            stop_others_at_cap: false,
        };
        samples.extend(load::drive(server.addr(), &plans, &limits, tr, args.trace));
        window_s += start.elapsed().as_secs_f64();
    }
    let (shed, refused) = server_stats(server.addr());
    server.shutdown();

    eprintln!("serve-read: {} requests in {window_s:.1}s", samples.len());
    let all: Vec<&Sample> = samples.iter().collect();
    tally(&all, &mut out);
    check_reads(&samples, &pool, &snap, &mut out);

    let ok = samples.iter().filter(|s| s.ok()).count();
    let query = load::latencies(&all, Verb::Query);
    let explain = load::latencies(&all, Verb::Explain);
    m.set("setup_s", median(&setup_s));
    m.set("ops_per_s", ok as f64 / window_s);
    m.set("query_p50_ms", median(&query));
    m.set("query_tail_ms", quantile(&query, READ_QUERY_TAIL));
    m.set("task_p50_ms", median(&explain));
    m.set("task_tail_ms", quantile(&explain, READ_EXPLAIN_TAIL));

    if args.trace {
        probe_direct(tr, &samples, &pool, &snap);
        setup_layers(tr, m);
        m.set("engine.state_clone_ms", probe_state_clone(tr, &snap));
        m.set("sqlq.parse_us", span_median_ms(tr, "sqlq.parse") * 1e3);
        let run_ms = span_median_ms(tr, "engine.run");
        m.set("engine.run_ms", run_ms);
        m.set("engine.plan_ms", span_median_ms(tr, "engine.plan"));
        m.set("server.ping_p50_ms", span_median_ms(tr, "server.ping"));
        m.set(
            "server.query_overhead_ms",
            span_median_ms(tr, "server.query") - run_ms,
        );
        m.set("server.shed", shed as f64);
        m.set("server.refused", refused as f64);
        m.set("trace.overhead_share", overhead_share(&all));
        crate::advise::probe(tr, &snap, &pool, m, &mut out);
    }
    out
}

/// Set-up layers, averaged over the traced set-ups.
fn setup_layers(tr: &Tracer, m: &mut Metrics) {
    let per = |name: &str| mean(&tr.durations(name));
    m.set("datagen.generate_s", per("datagen.generate"));
    m.set(
        "core.baselines_s",
        per("core.build_p") + per("core.build_1c"),
    );
}

/// Insert `i` of the run: a new `source` row with seeded values. Keys
/// start at 100,000, clear of the generated rows.
fn insert_sql(seed: u64, i: u64) -> String {
    const DBS: [&str; 4] = ["SwissProt", "TrEMBL", "RefSeq", "PIR-PSD"];
    const TAXA: [u64; 3] = [562, 9606, 10090];
    let h = mix(seed, 7, i);
    format!(
        "INSERT INTO source VALUES ({}, {}, {}, 'PB{seed}-{i}', 'bench row {}', '{}')",
        100_000 + i,
        1 + h % 5,
        TAXA[(h >> 8) as usize % TAXA.len()],
        (h >> 16) % 1000,
        DBS[(h >> 24) as usize % DBS.len()],
    )
}

extern "C" {
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Hand freed heap back to the operating system, from every arena, so
/// that every pass and every replay starts from the same heap and pays
/// the same page faults. Without it, a replay on the main thread cannot
/// reuse what the server's connection threads freed, later passes reuse
/// a fragmented heap, and insert latency and peak RSS drift with the
/// pass count and with which arena a thread happened to get.
fn release_freed_memory() {
    // SAFETY: `malloc_trim` only releases free pages of glibc's heap; it
    // touches no memory the program still owns, and any `pad` is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// The run's WAL file, in the output directory.
fn write_wal(args: &Args) -> PathBuf {
    std::fs::create_dir_all(out_dir()).expect("the output directory can be created");
    out_dir().join(format!("serve-write-{}.wal", args.seed))
}

/// One serve-write pass's measurements.
struct Pass {
    traced: bool,
    window_s: f64,
    samples: Vec<Sample>,
    retained_mb_per_insert: f64,
    wal_bytes_per_insert: f64,
    state_clone_ms: f64,
    recover_s: f64,
    shed: u64,
    refused: u64,
}

/// The serve-write request pool: its queries and their SQL. Every pass
/// serves the same generation 0, so the pool is sampled once per run.
struct WritePool {
    queries: Vec<Query>,
    sql: Vec<String>,
}

fn write_pass(
    args: &Args,
    tr: &Tracer,
    pass: u64,
    reads: &mut Option<WritePool>,
    m: &mut Metrics,
    out: &mut Run,
) -> Pass {
    let wal = write_wal(args);
    release_freed_memory();
    let (_, Served { engine, mut server }) = setup(tr, Some(&wal));
    let snap0 = engine.snapshot();
    let WritePool {
        queries: pool,
        sql: pool_sql,
    } = reads.get_or_insert_with(|| {
        let queries = pool(tr, &snap0, args.seed, |q| !tables(q).contains(&"source"), m);
        let sql = queries.iter().map(Query::to_string).collect();
        WritePool { queries, sql }
    });

    let client = format!("bench{}", args.seed);
    let base = pass * INSERTS_PER_PASS;
    let writer = |i: u64| Request {
        verb: Verb::Insert,
        line: format!(
            "INSERT p {client}:{} {}",
            i + 1,
            insert_sql(args.seed, base + i)
        ),
        key: i as usize,
    };
    let reader = |i: u64| query_request(pool_sql, Verb::Query, mix(args.seed, 100 + pass, i));
    let plans: [Plan<'_>; CONNECTIONS] = [&writer, &reader];
    let limits = Limits {
        // The pass ends when the writer is done; the deadline only
        // bounds a stalled server.
        deadline: Instant::now() + Duration::from_secs(120),
        max_requests: vec![Some(INSERTS_PER_PASS), None],
        stop_others_at_cap: true,
    };
    let rss0 = rss_mb();
    let start = Instant::now();
    let samples = load::drive(server.addr(), &plans, &limits, tr, false);
    let window_s = start.elapsed().as_secs_f64();
    let retained_mb_per_insert = (rss_mb() - rss0) / INSERTS_PER_PASS as f64;
    let (shed, refused) = server_stats(server.addr());
    server.shutdown();
    drop(server);

    check_reads(&samples, pool, &snap0, out);
    let acks: Vec<(u64, &Response)> = samples
        .iter()
        .filter(|s| s.request.verb == Verb::Insert)
        .filter_map(|s| Some((s.index, s.response.as_ref().ok()?)))
        .filter(|(_, r)| r.is_ok())
        .collect();
    for &(i, r) in &acks {
        out.check(
            r.int_field("generation") == Some(i + 1) && r.bool_field("deduped") == Some(false),
            || format!("insert {i} acknowledged {}", r.line()),
        );
    }

    if tr.enabled() {
        probe_direct(tr, &samples, pool, &snap0);
    }
    let state_clone_ms = if tr.enabled() {
        probe_state_clone(tr, &snap0)
    } else {
        f64::NAN
    };
    let state0 = snap0.state().clone();
    drop(snap0);
    drop(engine);
    release_freed_memory();

    let wal_bytes = std::fs::metadata(&wal).map(|md| md.len()).unwrap_or(0);
    let logged = Wal::open(&wal).expect("the WAL reopens").records;
    out.check(logged.len() == acks.len(), || {
        format!(
            "{} inserts acknowledged but {} logged",
            acks.len(),
            logged.len()
        )
    });
    for (&(i, r), rec) in acks.iter().zip(&logged) {
        let same = Some(rec.gen) == r.int_field("generation")
            && Some(u64::from(rec.row_id)) == r.int_field("row_id")
            && Some(rec.units.to_bits()) == r.num_field("units").map(f64::to_bits)
            && rec.cseq == i + 1;
        out.check(same, || {
            format!("insert {i} acknowledged {} but logged {rec:?}", r.line())
        });
    }

    let t = Instant::now();
    let recovered = tr.span("engine.recover", Ctx::default(), |_| {
        SharedEngine::with_wal(state0, &wal, None)
    });
    let recover_s = t.elapsed().as_secs_f64();
    match &recovered {
        Ok((engine, report)) => {
            out.check(
                report.replayed == acks.len() as u64 && engine.generation() == acks.len() as u64,
                || {
                    format!(
                        "replay recovered {report:?} for {} acknowledged inserts",
                        acks.len()
                    )
                },
            );
        }
        Err(e) => out.check(false, || format!("WAL replay refused: {e}")),
    }
    let _ = std::fs::remove_file(&wal);
    drop(recovered);

    Pass {
        traced: tr.enabled(),
        window_s,
        samples,
        retained_mb_per_insert,
        wal_bytes_per_insert: wal_bytes as f64 / INSERTS_PER_PASS as f64,
        state_clone_ms,
        recover_s,
        shed,
        refused,
    }
}

pub fn run_write(args: &Args, tr: &Tracer, m: &mut Metrics) -> Run {
    let mut out = Run::default();
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reads = None;
    // Passes repeat until they, without the set-up breaks, fill the window.
    let mut elapsed = Duration::ZERO;
    while passes.len() < MIN_PASSES || elapsed < args.window {
        let traced = args.trace && passes.len() % 2 == 1;
        let t = if traced { tr } else { &off };
        setup_break(t, Some(&write_wal(args)), &mut setup_s);
        let start = Instant::now();
        let pass = passes.len() as u64;
        passes.push(write_pass(args, t, pass, &mut reads, m, &mut out));
        elapsed += start.elapsed();
    }

    let flat: Vec<&Sample> = passes.iter().flat_map(|p| &p.samples).collect();
    let inserts = load::latencies(&flat, Verb::Insert);
    let queries = load::latencies(&flat, Verb::Query);
    let window_s: f64 = passes.iter().map(|p| p.window_s).sum();
    tally(&flat, &mut out);
    eprintln!(
        "serve-write: {} passes, {} inserts, {} queries in {window_s:.1}s",
        passes.len(),
        inserts.len(),
        queries.len()
    );

    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<f64>>());
    m.set("setup_s", median(&setup_s));
    m.set(
        "ops_per_s",
        (inserts.len() + queries.len()) as f64 / window_s,
    );
    m.set("query_p50_ms", median(&queries));
    m.set("query_tail_ms", quantile(&queries, WRITE_QUERY_TAIL));
    m.set("task_p50_ms", median(&inserts));
    m.set("task_tail_ms", quantile(&inserts, WRITE_INSERT_TAIL));

    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        setup_layers(tr, m);
        let replay_ms = of(|p| p.recover_s) * 1e3 / INSERTS_PER_PASS as f64;
        m.set(
            "storage.wal_bytes_per_insert",
            of(|p| p.wal_bytes_per_insert),
        );
        m.set(
            "storage.retained_mb_per_insert",
            of(|p| p.retained_mb_per_insert),
        );
        m.set("storage.recover_s", of(|p| p.recover_s));
        m.set("sqlq.parse_us", span_median_ms(tr, "sqlq.parse") * 1e3);
        let run_ms = span_median_ms(tr, "engine.run");
        m.set("engine.run_ms", run_ms);
        m.set(
            "server.query_overhead_ms",
            span_median_ms(tr, "server.query") - run_ms,
        );
        m.set(
            "engine.state_clone_ms",
            median(
                &traced
                    .iter()
                    .map(|p| p.state_clone_ms)
                    .collect::<Vec<f64>>(),
            ),
        );
        m.set("engine.replay_ms_per_insert", replay_ms);
        m.set(
            "server.insert_overhead_ms",
            span_median_ms(tr, "server.insert") - replay_ms,
        );
        m.set(
            "server.shed",
            passes.iter().map(|p| p.shed).sum::<u64>() as f64,
        );
        m.set(
            "server.refused",
            passes.iter().map(|p| p.refused).sum::<u64>() as f64,
        );
        m.set("trace.overhead_share", overhead_share(&flat));
    }
    out
}
