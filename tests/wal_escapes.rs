//! String values that end in a backslash must survive every JSONL
//! codec built on the shared field scanner: the WAL (as the last record
//! and mid-file, and as the idempotency client key recovered through
//! `SharedEngine::with_wal`) and the wire's `Response` string fields.
//!
//! A backslash at the end of a value renders as `\\` right before the
//! closing quote. A scanner that treats every `"` after a `\` as escaped
//! runs past that quote, which turns an acked final WAL record into a
//! "torn tail", a mid-file one into corruption, and a client id `cl\`
//! into `cl\",`.

use std::path::PathBuf;

use tab_bench::engine::{EngineState, SharedEngine};
use tab_bench::server::{Response, ResponseBuilder};
use tab_bench::sqlq::{parse, parse_statement, Insert, Statement};
use tab_bench::storage::trace_reader::field;
use tab_bench::storage::{
    BuiltConfiguration, ColType, ColumnDef, Configuration, Database, Faults, Table, TableSchema,
    Value, Wal, WalRecord,
};

fn tmp_wal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "tab_wal_escapes_{tag}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn record(gen: u64, client: &str, text: &str) -> WalRecord {
    WalRecord {
        gen,
        client: client.into(),
        cseq: gen,
        config: "p".into(),
        table: "t".into(),
        values: vec![Value::Int(gen as i64), Value::str(text)],
        row_id: gen as u32,
        units: 1.5,
    }
}

fn write_log(path: &PathBuf, records: &[WalRecord]) {
    let mut wal = Wal::create(path, 0).expect("create wal");
    for r in records {
        wal.append(r, Faults::disabled()).expect("append");
    }
}

#[test]
fn field_steps_over_escaped_backslash_before_closing_quote() {
    let line = r#"{"a":"x\\","b":"y\"z","c":7}"#;
    assert_eq!(field(line, "a"), Some(r"x\\"));
    assert_eq!(field(line, "b"), Some(r#"y\"z"#));
    assert_eq!(field(line, "c"), Some("7"));
    // An escape cut off at the end of the line never closes the value.
    assert_eq!(field(r#"{"a":"x\"#, "a"), None);
}

#[test]
fn wal_record_ending_in_backslash_survives_as_last_record() {
    let path = tmp_wal("tail");
    let recs = [record(1, "c1", "plain"), record(2, "c1", "ends\\")];
    write_log(&path, &recs);
    let r = Wal::open(&path).expect("reopen");
    assert!(!r.torn_tail, "an acked, fsynced record is not a torn tail");
    assert_eq!(r.records, recs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wal_record_ending_in_backslash_survives_mid_file() {
    let path = tmp_wal("mid");
    let recs = [record(1, "c1", "ends\\"), record(2, "c1", "after")];
    write_log(&path, &recs);
    let r = Wal::open(&path).expect("a mid-file record is not corruption");
    assert!(!r.torn_tail);
    assert_eq!(r.records, recs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wal_client_key_ending_in_backslash_round_trips() {
    let path = tmp_wal("client");
    let recs = [record(1, "cl\\", "v"), record(2, "cl\\", "w")];
    write_log(&path, &recs);
    let r = Wal::open(&path).expect("reopen");
    assert_eq!(r.records[0].client, "cl\\");
    assert_eq!(r.records, recs);
    let _ = std::fs::remove_file(&path);
}

fn state() -> EngineState {
    let mut db = Database::new();
    let mut t = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("a", ColType::Int),
            ColumnDef::new("s", ColType::Str),
        ],
    ));
    for i in 0..100i64 {
        t.insert(vec![Value::Int(i), Value::str(format!("r{i}"))]);
    }
    db.add_table(t);
    db.collect_stats();
    let p = BuiltConfiguration::build(Configuration::named("p"), &db);
    EngineState::new(db).with_config("p", p)
}

fn insert_of(sql: &str) -> Insert {
    match parse_statement(sql).expect("parse insert") {
        Statement::Insert(i) => i,
        other => panic!("expected insert: {other:?}"),
    }
}

/// The wire path: the SQL lexer keeps `\` literally in `'ends\'`, and
/// `cl\` is a valid client key, so both reach the WAL as written. After
/// a restart the engine must boot, serve both rows, and still recognise
/// a resend of the last acknowledged sequence from `cl\`.
#[test]
fn with_wal_recovers_backslash_values_and_client_key() {
    let path = tmp_wal("engine");
    let first = insert_of(r"INSERT INTO t VALUES (100, 'ends\')");
    let second = insert_of(r"INSERT INTO t VALUES (101, 'mid\')");
    let (engine, report) = SharedEngine::with_wal(state(), &path, None).expect("fresh wal");
    assert_eq!(report.replayed, 0);
    let a = engine
        .insert_keyed(&first, "p", "cl\\", 1)
        .expect("insert 1");
    let b = engine
        .insert_keyed(&second, "p", "cl\\", 2)
        .expect("insert 2");
    assert!(!a.deduped && !b.deduped);
    let generation = engine.generation();
    drop(engine);

    let (recovered, report) = SharedEngine::with_wal(state(), &path, None).expect("recovery boots");
    assert_eq!(report.replayed, 2);
    assert!(!report.torn_tail, "acked records must not be truncated");
    assert_eq!(recovered.generation(), generation);
    let q = parse(r"SELECT t.a FROM t WHERE t.s = 'ends\'").expect("parse query");
    let snap = recovered.snapshot();
    let rows = snap
        .session("p")
        .expect("p served")
        .run(&q, None)
        .expect("run")
        .rows
        .expect("rows");
    assert_eq!(rows, vec![vec![Value::Int(100)]]);
    let again = recovered
        .insert_keyed(&second, "p", "cl\\", 2)
        .expect("resend");
    assert!(again.deduped, "the recovered client key must match `cl\\`");
    assert_eq!(again.out.generation, b.out.generation);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn response_str_field_round_trips_trailing_backslash() {
    let line = ResponseBuilder::ok("QUERY")
        .str_field("a", "ends\\")
        .str_field("b", "quote \" and \\ inside")
        .str_field("c", "\\")
        .finish();
    let r = Response::parse(&line).expect("well-formed response");
    assert_eq!(r.str_field("a").as_deref(), Some("ends\\"));
    assert_eq!(r.str_field("b").as_deref(), Some("quote \" and \\ inside"));
    assert_eq!(r.str_field("c").as_deref(), Some("\\"));
    assert_eq!(r.str_field("verb").as_deref(), Some("QUERY"));
}
