//! The advisor probe of a traced serve-read run.
//!
//! Systems A, B and C each recommend a configuration for the queries
//! the server has been serving (the run's pool), starting from `P` under
//! the paper's `size(1C) − size(P)` budget, and each recommendation is
//! built. The pool is then measured on `P`, `1C` and every `R` with
//! `tab_core::run_grid` at `Parallelism` 2, and every cell's units are
//! checked against a direct `Session`. This is how the advisor,
//! configuration-build and grid layers are measured: no gated workload
//! runs them, because their CPU-bound timings spread by more between
//! runs on the measuring host than the largest bound allows (see
//! `README.md`).

use tab_advisor::{
    one_column_budget_bytes, AdvisorInput, Recommender, SearchStats, SystemA, SystemB, SystemC,
};
use tab_core::{run_grid, GridCell, Parallelism, SuiteParams, Trace};
use tab_engine::{EngineSnapshot, Session, DEFAULT_TIMEOUT_UNITS};
use tab_sqlq::Query;
use tab_storage::BuiltConfiguration;

use crate::metrics::Metrics;
use crate::serve::session_query;
use crate::trace::{Ctx, Tracer};
use crate::Run;

pub fn probe(tr: &Tracer, snap: &EngineSnapshot, pool: &[Query], m: &mut Metrics, out: &mut Run) {
    let state = snap.state();
    let db = &state.db;
    let (p, c1) = (&state.configs["p"], &state.configs["1c"]);
    let par = Parallelism::new(2);
    let input = AdvisorInput {
        db,
        current: p,
        workload: pool,
        budget_bytes: one_column_budget_bytes(p, c1),
        par,
        trace: Trace::disabled(),
    };
    let systems: [(&str, &dyn Recommender); 3] =
        [("A", &SystemA::default()), ("B", &SystemB), ("C", &SystemC)];
    let mut search: Vec<SearchStats> = Vec::new();
    let mut built: Vec<BuiltConfiguration> = Vec::new();
    for (name, system) in systems {
        let ctx = Ctx {
            span: 0,
            req: tr.request(),
        };
        tr.span("advise", ctx, |c| {
            let (config, stats) = tr.span("advisor.recommend", c, |_| {
                system.recommend_with_stats(&input)
            });
            search.push(stats);
            if let Some(mut config) = config {
                config.name = format!("{name}_R");
                built.push(tr.span("storage.config_build", c, |_| {
                    BuiltConfiguration::build(config, db)
                }));
            }
        });
    }

    let grid_params = SuiteParams::default();
    let cells: Vec<GridCell<'_>> = [p, c1]
        .into_iter()
        .chain(&built)
        .map(|b| GridCell {
            family: "NREF2J",
            db,
            built: b,
            workload: pool,
            timeout_units: DEFAULT_TIMEOUT_UNITS,
            query_par: grid_params.query_par,
            morsel_rows: grid_params.morsel_rows,
            buffer_pages: grid_params.buffer_pages,
            charge: grid_params.charge,
            pager: None,
        })
        .collect();
    let ctx = Ctx {
        span: 0,
        req: tr.request(),
    };
    let grid = tr.span("core.grid", ctx, |_| run_grid(&cells, par));

    // The grid must measure exactly what a direct session answers, per
    // query and bit for bit, on every cell: P and 1C (which serving
    // answers too, checked against the same sessions) and each R.
    for ((run, _), cell) in grid.iter().zip(&cells) {
        let session = Session::new(db, cell.built);
        for (q, outcome) in pool.iter().zip(&run.outcomes) {
            let want = session_query(&session, q).units_bits;
            out.check(outcome.units_lower_bound().to_bits() == want, || {
                format!(
                    "grid on {} gave {outcome:?} for `{q}`, a direct session gives {want:#x}",
                    cell.built.config.name
                )
            });
        }
    }

    let timings: Vec<_> = grid.iter().map(|(_, t)| t).collect();
    let units: f64 = timings.iter().map(|t| t.cost_units).sum();
    let busy: f64 = timings.iter().map(|t| t.wall_seconds).sum();
    m.set("core.grid_s", tr.total("core.grid"));
    m.set(
        "core.cell_max_s",
        timings.iter().map(|t| t.wall_seconds).fold(0.0, f64::max),
    );
    m.set("core.units_per_s", units / busy);
    m.set(
        "core.timeouts",
        timings.iter().map(|t| t.timeouts).sum::<usize>() as f64,
    );
    m.set("core.cost_units", units);

    let recommend_s = tr.total("advisor.recommend");
    let search_s: f64 = search.iter().map(|s| s.wall_seconds).sum();
    let sum = |f: fn(&SearchStats) -> u64| search.iter().map(f).sum::<u64>() as f64;
    let whatif = sum(|s| s.whatif_calls);
    m.set("advisor.advise_s", tr.total("advise"));
    m.set("advisor.recommend_s", recommend_s);
    m.set("advisor.search_s", search_s);
    m.set("advisor.presearch_s", recommend_s - search_s);
    m.set("advisor.whatif_calls", whatif);
    m.set("advisor.planner_calls", sum(|s| s.planner_calls));
    m.set("advisor.cache_hit_rate", sum(|s| s.cache_hits) / whatif);
    m.set("storage.config_build_s", tr.total("storage.config_build"));
}
