//! Trace exporters: the byte-stable JSON report and the Chrome-trace
//! (`chrome://tracing` / Perfetto) span file.
//!
//! Both render through the workspace codec ([`crate::json`]): fixed key
//! order, its escaper and float writer, no serialization dependency. The
//! stable export renders no timestamps and skips unstable events, which is
//! what makes `SMART_WORKERS=1` and `SMART_WORKERS=4` traces byte-equal; the
//! Chrome export renders real timestamps and is explicitly not stable.

use crate::json::{push_f64, push_str_escaped};
use crate::{Event, EventKind, TraceReport, Value};

/// Appends one field value. Floats use the shared shortest round-trip
/// writer, so non-finite values become quoted strings and the output
/// stays valid JSON.
fn json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(x) => push_f64(out, *x),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_str_escaped(out, s),
    }
}

fn json_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(out, k);
        out.push(':');
        json_value(out, v);
    }
    out.push('}');
}

fn kind_tag(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "I",
    }
}

/// The byte-stable report (see [`TraceReport::to_json`]).
pub fn stable_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(256 + report.events.len() * 96);
    out.push_str("{\"counters\":{");
    for (i, (name, v)) in report.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(&mut out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push_str(&format!("}},\"dropped\":{},\"events\":[", report.dropped));
    let mut first = true;
    for e in &report.events {
        if !e.stable {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"scope\":");
        push_str_escaped(
            &mut out,
            &format!("{}:{}.{}", e.scope.kind, e.scope.major, e.scope.minor),
        );
        out.push_str(&format!(
            ",\"seq\":{},\"kind\":\"{}\",\"name\":",
            e.seq,
            kind_tag(e.kind)
        ));
        push_str_escaped(&mut out, e.name);
        out.push_str(",\"fields\":");
        json_fields(&mut out, &e.fields);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One Chrome trace event line.
fn chrome_event(out: &mut String, e: &Event, tid: usize) {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    };
    out.push_str("{\"name\":");
    push_str_escaped(out, e.name);
    out.push_str(",\"cat\":");
    push_str_escaped(out, e.scope.kind);
    out.push_str(&format!(
        ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}",
        e.t_ns as f64 / 1000.0
    ));
    if e.kind == EventKind::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":");
    json_fields(out, &e.fields);
    out.push('}');
}

/// The Chrome-trace export (see [`TraceReport::to_chrome_json`]). Each
/// scope becomes one `tid` row (named via metadata events), so a sweep
/// renders as one lane per candidate with the GP/STA spans nested inside.
pub fn chrome_json(report: &TraceReport) -> String {
    // Assign tids by first appearance in the merged (deterministic)
    // order, so lane numbering is stable even though timestamps are not.
    let mut tids: Vec<crate::ScopeId> = Vec::new();
    let mut out = String::with_capacity(256 + report.events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for e in &report.events {
        let tid = match tids.iter().position(|id| *id == e.scope) {
            Some(i) => i,
            None => {
                tids.push(e.scope);
                let i = tids.len() - 1;
                // Name the lane after the scope identity.
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":"
                ));
                push_str_escaped(
                    &mut out,
                    &format!("{}:{}.{}", e.scope.kind, e.scope.major, e.scope.minor),
                );
                out.push_str("}}");
                i
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        chrome_event(&mut out, e, tid);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use crate::{ScopeId, Trace, TraceReport};

    #[test]
    fn stable_json_is_deterministic_and_escaped() {
        let build = || {
            let t = Trace::enabled();
            {
                let s = t.scope("candidate", 0, 0);
                s.begin("candidate", &[("spec", "mux\"4\n".into())]);
                s.emit("delay", &[("ps", 123.456f64.into()), ("ok", true.into())]);
                s.emit_unstable("pool", &[("workers", 4u64.into())]);
                s.end("candidate", &[("outcome", "ok".into())]);
                s.counter("cache/miss", 1);
            }
            t.collect().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "stable export must be byte-equal run to run");
        assert!(a.contains("\"counters\":{\"cache/miss\":1}"));
        assert!(a.contains("mux\\\"4\\n"));
        assert!(a.contains("123.456"));
        assert!(!a.contains("workers"), "unstable events must be excluded");
        assert!(!a.contains("t_ns") && !a.contains("\"ts\""));
    }

    #[test]
    fn nonfinite_floats_stay_valid_json() {
        let t = Trace::enabled();
        {
            let s = t.scope("x", 0, 0);
            s.emit(
                "bad",
                &[("nan", f64::NAN.into()), ("inf", f64::INFINITY.into())],
            );
        }
        let json = t.collect().to_json();
        assert!(json.contains("\"nan\":\"NaN\""));
        assert!(json.contains("\"inf\":\"inf\""));
    }

    #[test]
    fn chrome_export_has_lanes_and_timestamps() {
        let t = Trace::enabled();
        {
            let s = t.scope("candidate", 1, 2);
            s.begin("work", &[]);
            s.end("work", &[]);
        }
        let json = t.collect().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("candidate:1.2"));
        assert!(json.contains("\"ts\":"));
    }

    #[test]
    fn empty_report_exports_cleanly() {
        let report = TraceReport::default();
        assert_eq!(
            report.to_json(),
            "{\"counters\":{},\"dropped\":0,\"events\":[]}"
        );
        assert_eq!(report.to_chrome_json(), "{\"traceEvents\":[]}");
        let _ = ScopeId {
            kind: "x",
            major: 0,
            minor: 0,
        };
    }
}
