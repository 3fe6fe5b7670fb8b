//! Typed reader for `tab-trace-v1` JSONL documents.
//!
//! [`crate::trace`] writes traces; this module reads them back. It is
//! the shared parsing layer under `tab trace-summary`, `tab replay`, and
//! `tab tracediff`: one line becomes one [`TraceRecord`], and a whole
//! document becomes a [`TraceDoc`] that also accounts for what could
//! *not* be parsed — a torn tail (the crash signature
//! [`crate::trace::FileTraceSink`] leaves behind) and skipped malformed
//! lines, mirroring the checkpoint journal's torn-tail handling.
//!
//! The parser is deliberately narrow: it only reads lines produced by
//! [`crate::trace::TraceEvent`], whose rendering never puts a space
//! after the `"key":` colon, so scalar fields can be extracted with a
//! string scan instead of a JSON dependency. Unknown event tags parse
//! as [`TraceRecord::Other`] so a future schema extension does not turn
//! old readers into false torn-trace alarms.

use std::fmt;

/// The schema tag every valid trace line opens with, byte-for-byte as
/// [`crate::trace::TraceEvent::new`] renders it.
pub const SCHEMA_PREFIX: &str = "{\"schema\":\"tab-trace-v1\"";

/// Extract the raw scalar value of `key` from one flat JSONL event line
/// (`None` when absent). Handles the string/number/null forms
/// [`crate::trace::TraceEvent`] emits; not a general JSON parser.
/// String values are returned still escaped — see [`unescape`].
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        // String value: scan for the closing quote, stepping over each
        // escape pair whole so `\\` (an escaped backslash) right before
        // the closing quote cannot hide it, while `\"` still does not
        // end the value.
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&s[..i]),
                _ => i += 1,
            }
        }
        None
    } else {
        Some(rest.split([',', '}']).next().unwrap_or(rest).trim())
    }
}

/// Reverse [`crate::trace::json_escape`] on a string field value
/// extracted by [`field`].
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    Some(u) => out.push(u),
                    None => {
                        out.push_str("\\u");
                        out.push_str(&hex);
                    }
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// `key` as an owned, unescaped string.
fn field_string(line: &str, key: &str) -> Option<String> {
    field(line, key).map(unescape)
}

/// `key` as an integer.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// `key` as a float. Returns `None` both when the field is absent and
/// when it is `null` (how [`crate::trace::TraceEvent::num`] renders a
/// non-finite value).
fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// One parsed `tab-trace-v1` event. Field meanings match the schema
/// table in [`crate::trace`]; numeric fields that the writer may omit
/// (actuals past a timed-out query's cutoff) or render as `null`
/// (non-finite estimates) are `Option`s.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// `span_begin` — a harness section opened.
    SpanBegin {
        /// Section name, e.g. `"NREF"`.
        span: String,
    },
    /// `span_end` — a harness section closed.
    SpanEnd {
        /// Section name.
        span: String,
    },
    /// `query` — one (cell, query) grid job completed.
    Query {
        /// Workload family, e.g. `"NREF2J"`.
        family: String,
        /// Configuration name, e.g. `"1C"`.
        config: String,
        /// Query index within the family's workload.
        query: u64,
        /// `"done"` or `"timeout"`.
        outcome: String,
        /// Metered cost units charged to the query (at the budget for
        /// timeouts).
        units: Option<f64>,
    },
    /// `operator` — one executed plan-operator slot of a grid job.
    Operator {
        /// Workload family.
        family: String,
        /// Configuration name.
        config: String,
        /// Query index within the family's workload.
        query: u64,
        /// Operator slot index within the plan (0 = frequency setup).
        op: u64,
        /// Operator label, e.g. `IndexScan(protein cols=[2])`.
        label: String,
        /// Planner-estimated cost for this slot.
        est_cost: Option<f64>,
        /// Planner-estimated output rows for this slot.
        est_rows: Option<f64>,
        /// Actual input rows (absent past a timeout cutoff).
        rows_in: Option<u64>,
        /// Actual output rows (absent past a timeout cutoff).
        rows_out: Option<u64>,
        /// Actual index probes (absent past a timeout cutoff).
        probes: Option<u64>,
        /// Actual metered cost units (absent past a timeout cutoff).
        units: Option<f64>,
    },
    /// `advisor_begin` — a greedy search started.
    AdvisorBegin {
        /// Advisor name (the configuration the search will produce).
        advisor: String,
        /// Candidate structures under consideration.
        candidates: u64,
        /// Storage budget in MiB.
        budget_mib: u64,
        /// Objective value of the starting configuration.
        initial_total: Option<f64>,
        /// Minimum-gain stopping threshold.
        threshold: Option<f64>,
    },
    /// `advisor_round` — the search accepted one structure.
    AdvisorRound {
        /// Advisor name.
        advisor: String,
        /// Zero-based round index.
        round: u64,
        /// Picked candidate's index in the candidate vector.
        candidate: u64,
        /// Human-readable candidate description.
        desc: String,
        /// Estimated objective gain of the pick.
        gain: Option<f64>,
        /// Gain per byte (the selection metric).
        density: Option<f64>,
        /// Estimated size of the pick in bytes.
        size_bytes: u64,
        /// Objective value after applying the pick.
        objective_after: Option<f64>,
        /// What-if requests issued during this round.
        whatif_calls: u64,
        /// Planner invocations during this round.
        planner_calls: u64,
        /// Cache hits during this round.
        cache_hits: u64,
    },
    /// `advisor_stop` — the search stopped with no acceptable candidate
    /// (or hit an explicit budget).
    AdvisorStop {
        /// Advisor name.
        advisor: String,
        /// Round index at which the search stopped.
        round: u64,
        /// Stop reason, when the writer named one.
        reason: Option<String>,
    },
    /// `advisor_end` — the search finished.
    AdvisorEnd {
        /// Advisor name.
        advisor: String,
        /// Structures accepted in total.
        rounds: u64,
        /// Final objective value.
        objective_final: Option<f64>,
        /// Total what-if requests issued.
        whatif_calls: u64,
        /// Total planner invocations.
        planner_calls: u64,
        /// Total cache hits.
        cache_hits: u64,
    },
    /// `page` — one buffer-pool access (hit, miss, or eviction),
    /// emitted only when a query runs with a `--buffer-pages` pool.
    Page {
        /// `"hit"`, `"miss"`, or `"evict"`.
        action: String,
        /// FNV-1a relation id (see [`crate::pool::table_rel_id`]).
        rel: u64,
        /// Zero-based page number within the relation.
        page: u64,
        /// Frame slot the page occupies (or, for `evict`, vacates).
        frame: u64,
        /// Position in the query's logical access sequence — the value
        /// that makes eviction auditable: replaying the `seq`-ordered
        /// stream through a fresh pool reproduces every hit and evict.
        seq: u64,
    },
    /// Any schema-valid line whose event tag this reader does not model.
    Other {
        /// The unrecognized event tag.
        event: String,
    },
}

/// A line the reader could not parse: its 1-based line number and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedLine {
    /// 1-based line number in the input document.
    pub line_no: usize,
    /// Short reason, e.g. `"missing schema tag"`.
    pub reason: String,
}

impl fmt::Display for SkippedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line_no, self.reason)
    }
}

/// A parsed trace document: the records that parsed, the lines that did
/// not, and whether the document ends mid-line (a torn tail —
/// [`crate::trace::FileTraceSink`] always writes complete
/// newline-terminated lines, so a missing final newline is the
/// signature of a crash or injected `truncate:trace` fault).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDoc {
    /// Successfully parsed records, in document order.
    pub records: Vec<TraceRecord>,
    /// Lines that failed to parse (excluding the torn tail).
    pub skipped: Vec<SkippedLine>,
    /// Whether the document ends without a final newline.
    pub torn_tail: bool,
}

impl TraceDoc {
    /// One-line account of everything that failed to parse, or `None`
    /// for a fully clean document. This is what `tab trace-summary`
    /// appends so malformed input is never silently dropped.
    pub fn damage_report(&self) -> Option<String> {
        if self.skipped.is_empty() && !self.torn_tail {
            return None;
        }
        let mut parts = Vec::new();
        if !self.skipped.is_empty() {
            let mut s = format!("skipped {} malformed line(s):", self.skipped.len());
            for sk in self.skipped.iter().take(3) {
                s.push_str(&format!(" [{sk}]"));
            }
            if self.skipped.len() > 3 {
                s.push_str(" ...");
            }
            parts.push(s);
        }
        if self.torn_tail {
            parts.push("torn tail: document ends mid-line (crashed or truncated writer)".into());
        }
        Some(parts.join("; "))
    }
}

/// Parse one schema-tagged line into a [`TraceRecord`]. Returns
/// `Err(reason)` for lines that do not carry the schema prefix or lack
/// the fields their event tag requires.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    if !line.starts_with(SCHEMA_PREFIX) {
        return Err("missing tab-trace-v1 schema tag".into());
    }
    if !line.ends_with('}') {
        return Err("unterminated event object".into());
    }
    let event = field(line, "event").ok_or("missing event tag")?;
    // Per-event required fields; a miss is a malformed line, not a panic.
    macro_rules! req {
        ($f:ident, $key:literal) => {
            $f(line, $key).ok_or(concat!("missing field ", $key))?
        };
    }
    Ok(match event {
        "span_begin" => TraceRecord::SpanBegin {
            span: req!(field_string, "span"),
        },
        "span_end" => TraceRecord::SpanEnd {
            span: req!(field_string, "span"),
        },
        "query" => TraceRecord::Query {
            family: req!(field_string, "family"),
            config: req!(field_string, "config"),
            query: req!(field_u64, "query"),
            outcome: req!(field_string, "outcome"),
            units: field_f64(line, "units"),
        },
        "operator" => TraceRecord::Operator {
            family: req!(field_string, "family"),
            config: req!(field_string, "config"),
            query: req!(field_u64, "query"),
            op: req!(field_u64, "op"),
            label: req!(field_string, "label"),
            est_cost: field_f64(line, "est_cost"),
            est_rows: field_f64(line, "est_rows"),
            rows_in: field_u64(line, "rows_in"),
            rows_out: field_u64(line, "rows_out"),
            probes: field_u64(line, "probes"),
            units: field_f64(line, "units"),
        },
        "advisor_begin" => TraceRecord::AdvisorBegin {
            advisor: req!(field_string, "advisor"),
            candidates: req!(field_u64, "candidates"),
            budget_mib: req!(field_u64, "budget_mib"),
            initial_total: field_f64(line, "initial_total"),
            threshold: field_f64(line, "threshold"),
        },
        "advisor_round" => TraceRecord::AdvisorRound {
            advisor: req!(field_string, "advisor"),
            round: req!(field_u64, "round"),
            candidate: req!(field_u64, "candidate"),
            desc: field_string(line, "desc").unwrap_or_default(),
            gain: field_f64(line, "gain"),
            density: field_f64(line, "density"),
            size_bytes: field_u64(line, "size_bytes").unwrap_or(0),
            objective_after: field_f64(line, "objective_after"),
            whatif_calls: field_u64(line, "whatif_calls").unwrap_or(0),
            planner_calls: field_u64(line, "planner_calls").unwrap_or(0),
            cache_hits: field_u64(line, "cache_hits").unwrap_or(0),
        },
        "advisor_stop" => TraceRecord::AdvisorStop {
            advisor: req!(field_string, "advisor"),
            round: req!(field_u64, "round"),
            reason: field_string(line, "reason"),
        },
        "advisor_end" => TraceRecord::AdvisorEnd {
            advisor: req!(field_string, "advisor"),
            rounds: req!(field_u64, "rounds"),
            objective_final: field_f64(line, "objective_final"),
            whatif_calls: field_u64(line, "whatif_calls").unwrap_or(0),
            planner_calls: field_u64(line, "planner_calls").unwrap_or(0),
            cache_hits: field_u64(line, "cache_hits").unwrap_or(0),
        },
        "page" => TraceRecord::Page {
            action: req!(field_string, "action"),
            rel: req!(field_u64, "rel"),
            page: req!(field_u64, "page"),
            frame: req!(field_u64, "frame"),
            seq: req!(field_u64, "seq"),
        },
        other => TraceRecord::Other {
            event: other.to_string(),
        },
    })
}

/// Parse a whole `tab-trace-v1` document. Never fails: malformed lines
/// are counted in [`TraceDoc::skipped`] and a missing final newline
/// sets [`TraceDoc::torn_tail`] (the final fragment is *not* parsed and
/// *not* counted as skipped — it is the crash artifact itself).
pub fn read_trace(input: &str) -> TraceDoc {
    let mut doc = TraceDoc {
        torn_tail: !input.is_empty() && !input.ends_with('\n'),
        ..TraceDoc::default()
    };
    let complete = match input.rfind('\n') {
        Some(last) if doc.torn_tail => &input[..=last],
        _ if doc.torn_tail => "", // a single torn fragment, no full lines
        _ => input,
    };
    for (i, line) in complete.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => doc.records.push(rec),
            Err(reason) => doc.skipped.push(SkippedLine {
                line_no: i + 1,
                reason,
            }),
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemoryTraceSink, Trace, TraceEvent};

    #[test]
    fn field_extracts_strings_numbers_and_null() {
        let line = r#"{"schema":"tab-trace-v1","event":"operator","family":"NREF2J","label":"SeqScan(\"t\")","units":1.250,"bad":null,"rows_out":7}"#;
        assert_eq!(field(line, "event"), Some("operator"));
        assert_eq!(field(line, "family"), Some("NREF2J"));
        assert_eq!(field(line, "label"), Some(r#"SeqScan(\"t\")"#));
        assert_eq!(field(line, "units"), Some("1.250"));
        assert_eq!(field(line, "bad"), Some("null"));
        assert_eq!(field(line, "rows_out"), Some("7"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn unescape_reverses_json_escape() {
        for s in ["plain", "a\"b\\c", "tab\there\nand\rthere", "ctrl\u{1}x"] {
            assert_eq!(unescape(&crate::trace::json_escape(s)), s, "{s:?}");
        }
    }

    #[test]
    fn round_trips_writer_events() {
        let sink = MemoryTraceSink::new();
        let trace = Trace::to(&sink);
        trace.span_begin("grid");
        trace.emit(|| {
            TraceEvent::new("operator")
                .str("family", "NREF2J")
                .str("config", "1C")
                .int("query", 3)
                .int("op", 1)
                .str("label", "IndexScan(\"protein\" cols=[2])")
                .num("est_cost", 12.5)
                .num("est_rows", f64::INFINITY)
                .int("rows_in", 0)
                .int("rows_out", 42)
                .int("probes", 7)
                .num("units", 3.25)
        });
        trace.emit(|| {
            TraceEvent::new("query")
                .str("family", "NREF2J")
                .str("config", "1C")
                .int("query", 3)
                .str("outcome", "done")
                .num("units", 3.5)
        });
        let text = sink.lines().join("\n") + "\n";
        let doc = read_trace(&text);
        assert!(doc.skipped.is_empty() && !doc.torn_tail, "{doc:?}");
        assert_eq!(doc.records.len(), 3);
        assert_eq!(
            doc.records[0],
            TraceRecord::SpanBegin {
                span: "grid".into()
            }
        );
        match &doc.records[1] {
            TraceRecord::Operator {
                label,
                est_cost,
                est_rows,
                rows_out,
                probes,
                units,
                ..
            } => {
                assert_eq!(label, "IndexScan(\"protein\" cols=[2])");
                assert_eq!(*est_cost, Some(12.5));
                assert_eq!(*est_rows, None, "non-finite renders null, reads None");
                assert_eq!(*rows_out, Some(42));
                assert_eq!(*probes, Some(7));
                assert_eq!(*units, Some(3.25));
            }
            other => panic!("expected operator, got {other:?}"),
        }
        match &doc.records[2] {
            TraceRecord::Query { outcome, units, .. } => {
                assert_eq!(outcome, "done");
                assert_eq!(*units, Some(3.5));
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_counted_not_dropped() {
        let text = concat!(
            "{\"schema\":\"tab-trace-v1\",\"event\":\"span_begin\",\"span\":\"x\"}\n",
            "not json at all\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"query\",\"family\":\"F\"}\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"novel_event\",\"k\":1}\n",
        );
        let doc = read_trace(text);
        assert!(!doc.torn_tail);
        assert_eq!(doc.records.len(), 2, "{doc:?}");
        assert_eq!(
            doc.records[1],
            TraceRecord::Other {
                event: "novel_event".into()
            }
        );
        assert_eq!(doc.skipped.len(), 2);
        assert_eq!(doc.skipped[0].line_no, 2);
        assert!(doc.skipped[0].reason.contains("schema"), "{doc:?}");
        assert_eq!(doc.skipped[1].line_no, 3);
        assert!(doc.skipped[1].reason.contains("config"), "{doc:?}");
        let report = doc.damage_report().expect("damage to report");
        assert!(report.contains("skipped 2"), "{report}");
    }

    #[test]
    fn torn_tail_is_flagged_and_fragment_not_parsed() {
        let text = concat!(
            "{\"schema\":\"tab-trace-v1\",\"event\":\"span_begin\",\"span\":\"x\"}\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"que", // torn mid-line
        );
        let doc = read_trace(text);
        assert!(doc.torn_tail);
        assert_eq!(doc.records.len(), 1);
        assert!(doc.skipped.is_empty(), "fragment is torn, not skipped");
        assert!(doc.damage_report().expect("report").contains("torn"));

        // A lone fragment with no complete line at all.
        let doc = read_trace("{\"schema\":\"tab-tra");
        assert!(doc.torn_tail && doc.records.is_empty() && doc.skipped.is_empty());

        // Empty input is clean, not torn.
        let doc = read_trace("");
        assert!(!doc.torn_tail && doc.damage_report().is_none());
    }
}
