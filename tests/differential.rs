//! Differential test for the late-materialization executor: queries
//! drawn from every benchmark family are evaluated both by the
//! brute-force interpreter (`engine::naive`, a full cartesian-product
//! odometer) and by the planned executor, under the `P` and `1C`
//! configurations. Result rows must be identical (sorted, when the
//! query leaves order unspecified) and the executor's cost-unit total
//! must be exactly reproducible: a second run charges bit-identical
//! units, and a budget set to that exact total never trips.
//!
//! The interpreter is O(∏ |rel|), so every table is truncated to a few
//! dozen rows first; the families are enumerated against the truncated
//! database so template constants still reference live values.

use tab_bench::advisor::{one_column_configuration, p_configuration};
use tab_bench::datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_bench::engine::{bind, naive, ChargePolicy, ExecOpts, PoolOpts, Session};
use tab_bench::families::Family;
use tab_bench::storage::{BuiltConfiguration, Database, Parallelism, Table};

/// Cap every table at `cap` rows (heap-prefix truncation) so the
/// brute-force cartesian product stays tractable.
fn truncate_db(db: &Database, cap: usize) -> Database {
    let mut out = Database::new();
    for t in db.tables() {
        let mut nt = Table::new(t.schema().clone());
        for (_, row) in t.iter().take(cap) {
            nt.insert(row.to_vec());
        }
        out.add_table(nt);
    }
    out.collect_stats();
    out
}

/// Queries per family to push through the interpreter.
const QUERIES_PER_FAMILY: usize = 4;

fn check_family(family: Family, db: &Database) {
    let p = BuiltConfiguration::build(p_configuration(db, "diff_P"), db);
    let c1 = BuiltConfiguration::build(one_column_configuration(db, "diff_1C"), db);
    let queries = family.enumerate(db);
    assert!(
        !queries.is_empty(),
        "{} enumerates no queries on the truncated database",
        family.name()
    );
    let step = (queries.len() / QUERIES_PER_FAMILY).max(1);
    for (qi, q) in queries
        .iter()
        .step_by(step)
        .take(QUERIES_PER_FAMILY)
        .enumerate()
    {
        let bound = bind(q, db).expect("family query binds");
        let mut expect = naive::evaluate(&bound, db);
        if q.order_by.is_empty() {
            expect.sort();
        }
        for (cname, built) in [("P", &p), ("1C", &c1)] {
            let session = Session::new(db, built);
            let r1 = session.run(q, None).expect("family query executes");
            let mut got = r1.rows.clone().expect("unbounded run returns rows");
            if q.order_by.is_empty() {
                got.sort();
            }
            assert_eq!(
                expect,
                got,
                "{} query {qi} under {cname} disagrees with naive:\n{q}",
                family.name()
            );
            // Cost-unit totals are exactly reproducible, and a budget
            // equal to the actual total never trips.
            let units = r1.outcome.units().expect("unbounded run completes");
            let r2 = session.run(q, Some(units)).expect("re-run executes");
            assert!(
                !r2.outcome.is_timeout(),
                "{} query {qi} under {cname} timed out at its own cost",
                family.name()
            );
            assert_eq!(
                r2.outcome.units(),
                Some(units),
                "{} query {qi} under {cname}: cost-unit total not reproducible",
                family.name()
            );
            // Morsel-driven executor: every (query-threads, morsel-rows)
            // pairing must reproduce the same rows and bit-identical
            // cost units as the default sequential run above.
            for (threads, morsel_rows) in [(1, 64), (2, 64), (2, 4096), (8, 64), (8, 4096)] {
                let exec = ExecOpts {
                    par: Parallelism::new(threads),
                    morsel_rows,
                    ..ExecOpts::default()
                };
                let rp = Session::new(db, built)
                    .with_exec(exec)
                    .run(q, None)
                    .expect("morsel variant executes");
                let mut got = rp.rows.clone().expect("unbounded run returns rows");
                if q.order_by.is_empty() {
                    got.sort();
                }
                assert_eq!(
                    expect,
                    got,
                    "{} query {qi} under {cname} diverges at {threads} query-threads, \
                     morsel {morsel_rows}:\n{q}",
                    family.name()
                );
                assert_eq!(
                    rp.outcome.units(),
                    Some(units),
                    "{} query {qi} under {cname}: cost units drift at {threads} \
                     query-threads, morsel {morsel_rows}",
                    family.name()
                );
            }
            // Tiny buffer pool at the 8-frame floor in Metered charge
            // mode: the clock hand evicts on nearly every fetch, and
            // neither the rows nor the bit-identical unit total may
            // move — eviction is bookkeeping, never semantics.
            for threads in [1, 4] {
                let mut pool = PoolOpts::new(8);
                pool.policy = ChargePolicy::Metered;
                let exec = ExecOpts {
                    par: Parallelism::new(threads),
                    morsel_rows: 64,
                    pool: Some(pool),
                    ..ExecOpts::default()
                };
                let rp = Session::new(db, built)
                    .with_exec(exec)
                    .run(q, None)
                    .expect("tiny-pool variant executes");
                let mut got = rp.rows.clone().expect("unbounded run returns rows");
                if q.order_by.is_empty() {
                    got.sort();
                }
                assert_eq!(
                    expect,
                    got,
                    "{} query {qi} under {cname} diverges with an 8-frame pool \
                     at {threads} query-threads:\n{q}",
                    family.name()
                );
                assert_eq!(
                    rp.outcome.units(),
                    Some(units),
                    "{} query {qi} under {cname}: metered units drift with an \
                     8-frame pool at {threads} query-threads",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn nref_families_match_naive() {
    let nref = truncate_db(
        &generate_nref(NrefParams {
            proteins: 100,
            seed: 0xD1FF,
        }),
        80,
    );
    check_family(Family::Nref2J, &nref);
    check_family(Family::Nref3J, &nref);
}

#[test]
fn tpch_families_match_naive() {
    let skew = truncate_db(
        &generate_tpch(TpchParams {
            scale: 0.0,
            distribution: Distribution::Zipf(1.0),
            seed: 0xD1FF + 1,
        }),
        80,
    );
    check_family(Family::SkTH3J, &skew);
    check_family(Family::SkTH3Js, &skew);
    let unif = truncate_db(
        &generate_tpch(TpchParams {
            scale: 0.0,
            distribution: Distribution::Uniform,
            seed: 0xD1FF + 2,
        }),
        80,
    );
    check_family(Family::UnTH3J, &unif);
}
