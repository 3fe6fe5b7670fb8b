//! The parallel harness's central guarantee: a reproduction run's
//! outputs are byte-identical at any thread count (timings.json is the
//! documented exception — wall-clock varies run to run).

use std::collections::BTreeMap;
use std::path::Path;

use tab_bench::engine::ChargePolicy;
use tab_bench::eval::SuiteParams;
use tab_bench_harness::repro::{run_all, ReproConfig};

fn tiny(out: &Path, threads: usize) -> ReproConfig {
    ReproConfig {
        params: SuiteParams {
            nref_proteins: 400,
            tpch_scale: 0.002,
            workload_size: 8,
            timeout_units: 500.0,
            seed: 7,
            ..SuiteParams::small()
        }
        .with_threads(threads),
        out_dir: out.to_path_buf(),
        trace: None,
        faults: None,
        resume: false,
    }
}

/// Like [`tiny`], but with intra-query morsel parallelism dialed up:
/// 4 query threads and a 64-row morsel size. Every artifact must still
/// byte-compare against the sequential baseline.
fn tiny_morsel(out: &Path, threads: usize) -> ReproConfig {
    let mut cfg = tiny(out, threads);
    cfg.params = cfg.params.with_query_threads(4).with_morsel_rows(64);
    cfg
}

/// Read every output file, excluding `timings.json` and the `BENCH_*`
/// phase records — both hold wall-clock, which varies run to run.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "timings.json" || name.starts_with("BENCH_") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).expect("read output file"));
    }
    out
}

#[test]
fn repro_outputs_identical_at_one_and_four_threads() {
    let base = std::env::temp_dir().join(format!("tab_determinism_{}", std::process::id()));
    let dirs = [
        base.join("t1"),
        base.join("t1b"),
        base.join("t4"),
        base.join("t4q4"),
    ];
    let summaries = [
        run_all(&tiny(&dirs[0], 1)).expect("clean run at 1 thread"),
        run_all(&tiny(&dirs[1], 1)).expect("clean repeat run"),
        run_all(&tiny(&dirs[2], 4)).expect("clean run at 4 threads"),
        run_all(&tiny_morsel(&dirs[3], 4)).expect("clean run with 4 query threads"),
    ];

    // Claims agree across repeats and thread counts, verdicts included.
    for s in &summaries[1..] {
        assert_eq!(s.claims.len(), summaries[0].claims.len());
        for (a, b) in s.claims.iter().zip(&summaries[0].claims) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds, b.holds, "claim {} verdict differs", a.id);
            assert_eq!(a.evidence, b.evidence, "claim {} evidence differs", a.id);
        }
    }

    // Every CSV and figure file is byte-identical.
    let want = snapshot(&dirs[0]);
    assert!(
        want.keys().any(|k| k.ends_with(".csv")),
        "expected CSV outputs, got {:?}",
        want.keys().collect::<Vec<_>>()
    );
    for dir in &dirs[1..] {
        let got = snapshot(dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &want {
            assert_eq!(&got[name], bytes, "{name} differs between runs");
        }
    }

    // Pool-less runs report compat-mode io: BENCH_io.json exists, is
    // schema-tagged, and says the pool was off.
    let io = std::fs::read_to_string(dirs[0].join("BENCH_io.json")).expect("BENCH_io.json");
    assert!(io.contains("\"schema\": \"tab-io-bench-v1\""), "{io}");
    assert!(io.contains("\"mode\": \"compat\""), "{io}");

    // timings.json exists and records the thread count.
    let t = std::fs::read_to_string(dirs[2].join("timings.json")).expect("timings.json");
    assert!(t.contains("\"threads\": 4"), "unexpected timings: {t}");
    assert!(t.contains("\"family\": \"NREF2J\""));

    // The per-phase performance record exists, carries the documented
    // schema, and its grid cost units are identical at any thread count
    // (only wall-clock may differ).
    let units = |dir: &Path| -> String {
        let b = std::fs::read_to_string(dir.join("BENCH_repro_small.json"))
            .expect("BENCH_repro_small.json");
        assert!(b.contains("\"schema\": \"tab-bench-phases-v1\""), "{b}");
        assert!(b.contains("\"name\": \"measurement-grid\""), "{b}");
        b.lines()
            .filter(|l| l.contains("\"cost_units\""))
            .map(|l| {
                l.split("\"cost_units\": ")
                    .nth(1)
                    .expect("units")
                    .to_string()
            })
            .collect()
    };
    let want_units = units(&dirs[0]);
    for dir in &dirs[1..] {
        assert_eq!(units(dir), want_units, "phase cost units differ");
    }

    // BENCH_convergence.json is the one BENCH_* record that carries no
    // wall-clock at all: unlike its siblings it must be *byte*-identical
    // across repeats and thread counts (it is excluded from the generic
    // snapshot above only by its BENCH_ name).
    let conv = std::fs::read(dirs[0].join("BENCH_convergence.json")).expect("convergence record");
    assert!(
        String::from_utf8_lossy(&conv).contains("\"schema\": \"tab-convergence-v1\""),
        "unexpected convergence schema"
    );
    for dir in &dirs[1..] {
        let other = std::fs::read(dir.join("BENCH_convergence.json")).expect("convergence record");
        assert_eq!(conv, other, "BENCH_convergence.json differs between runs");
    }

    // The executor bench record exists and is schema-tagged. It carries
    // wall-clock, so only its presence and deterministic header fields
    // are checked here (the snapshot above skips it by BENCH_ prefix).
    let exec = std::fs::read_to_string(dirs[3].join("BENCH_exec.json")).expect("BENCH_exec.json");
    assert!(exec.contains("\"schema\": \"tab-exec-bench-v2\""), "{exec}");
    assert!(exec.contains("\"query_threads\": 4"), "{exec}");
    assert!(exec.contains("\"morsel_rows\": 64"), "{exec}");

    // The advisor's what-if instrumentation record exists, and every
    // field except wall-clock (and the thread count itself) is
    // identical at any thread count — the cache-hit and planner-call
    // counters included.
    let advisor = |dir: &Path| -> String {
        let b =
            std::fs::read_to_string(dir.join("BENCH_advisor.json")).expect("BENCH_advisor.json");
        assert!(b.contains("\"schema\": \"tab-advisor-bench-v1\""), "{b}");
        assert!(b.contains("\"system\": \"A\""), "{b}");
        assert!(b.contains("\"system\": \"C\""), "{b}");
        b.lines()
            .filter(|l| l.contains("\"system\""))
            .map(|l| l.split(", \"wall_seconds\"").next().expect("record line"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let want_advisor = advisor(&dirs[0]);
    assert!(want_advisor.contains("\"cache_hits\": "), "{want_advisor}");
    for dir in &dirs[1..] {
        assert_eq!(advisor(dir), want_advisor, "advisor counters differ");
    }

    std::fs::remove_dir_all(&base).ok();
}

/// Like [`tiny`], but with every grid query routed through a
/// `pages`-frame buffer pool in Metered charge mode. Metered keeps the
/// meter's totals byte-identical to the pool-less legacy model, so the
/// whole artifact set must byte-compare against a pool-less baseline —
/// at any capacity and any thread count — while the pool still runs
/// frames, clock eviction, and spill underneath.
fn tiny_pooled(out: &Path, threads: usize, pages: usize) -> ReproConfig {
    let mut cfg = tiny(out, threads);
    cfg.params = cfg
        .params
        .with_buffer_pages(pages)
        .with_charge(ChargePolicy::Metered);
    cfg
}

#[test]
fn pooled_repro_outputs_identical_across_capacities_and_threads() {
    let base = std::env::temp_dir().join(format!("tab_pool_determinism_{}", std::process::id()));
    let plain = base.join("plain");
    let p64t1 = base.join("p64t1");
    let p64t8 = base.join("p64t8");
    let p4096t4 = base.join("p4096t4");
    run_all(&tiny(&plain, 1)).expect("pool-less baseline");
    run_all(&tiny_pooled(&p64t1, 1, 64)).expect("64-frame pool at 1 thread");
    run_all(&tiny_pooled(&p64t8, 8, 64)).expect("64-frame pool at 8 threads");
    run_all(&tiny_pooled(&p4096t4, 4, 4096)).expect("4096-frame pool at 4 threads");

    // Every CSV, figure, and claim is byte-identical to the pool-less
    // baseline: eviction is a pure function of the logical access
    // stream and Metered charging never moves a unit.
    let want = snapshot(&plain);
    for dir in [&p64t1, &p64t8, &p4096t4] {
        let got = snapshot(dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &want {
            assert_eq!(
                &got[name],
                bytes,
                "{name} differs from the pool-less baseline in {}",
                dir.display()
            );
        }
    }

    // BENCH_io.json is wall-clock-free, so at a fixed capacity it must
    // *byte*-compare across thread counts — the whole point of keeping
    // eviction off the thread schedule.
    let io64 = std::fs::read(p64t1.join("BENCH_io.json")).expect("BENCH_io.json");
    let io64_t8 = std::fs::read(p64t8.join("BENCH_io.json")).expect("BENCH_io.json");
    assert_eq!(io64, io64_t8, "BENCH_io.json differs across thread counts");

    // The 64-frame capacity sits below the tiny database's working set:
    // the run must report real evictions and an imperfect hit rate.
    let io64 = String::from_utf8(io64).expect("utf8");
    assert!(io64.contains("\"schema\": \"tab-io-bench-v1\""), "{io64}");
    assert!(io64.contains("\"mode\": \"pool\""), "{io64}");
    assert!(io64.contains("\"buffer_pages\": 64"), "{io64}");
    assert!(io64.contains("\"charge\": \"metered\""), "{io64}");
    let field_total = |doc: &str, key: &str| -> u64 {
        doc.lines()
            .filter_map(|l| {
                let (_, rest) = l.split_once(&format!("\"{key}\": "))?;
                rest.split([',', '}']).next()?.trim().parse::<u64>().ok()
            })
            .sum()
    };
    assert!(
        field_total(&io64, "evictions") > 0,
        "64-frame pool reports no evictions: {io64}"
    );
    let hits = field_total(&io64, "hits");
    let misses = field_total(&io64, "misses_seq") + field_total(&io64, "misses_random");
    assert!(misses > 0, "64-frame pool reports no misses: {io64}");
    assert!(
        (hits as f64) / ((hits + misses) as f64) < 1.0,
        "64-frame pool reports a perfect hit rate: {io64}"
    );

    // A capacity larger than the working set still byte-compares on the
    // grid artifacts (checked above) but shows different traffic.
    let io4096 = std::fs::read_to_string(p4096t4.join("BENCH_io.json")).expect("BENCH_io.json");
    assert!(io4096.contains("\"buffer_pages\": 4096"), "{io4096}");
    assert_ne!(io64, io4096, "traffic should differ across capacities");

    std::fs::remove_dir_all(&base).ok();
}
