//! Chrome/Perfetto `trace_event` JSON export and a minimal schema
//! validator (std-only — no external JSON tooling).
//!
//! The emitted file loads in <https://ui.perfetto.dev> or
//! `chrome://tracing`. Timestamps are NPU **cycles** written into the
//! format's microsecond field: the viewer's time axis reads in cycles
//! (1 "µs" = 1 cycle), which keeps the export exact and lossless.

use std::fmt::Write;

use crate::{Payload, RecordingTracer};

/// Appends `s` to `out` with JSON string escapes: quote, backslash and
/// every control character. Every JSON writer in the workspace (this
/// exporter, sweep reports, the benchmark files) escapes through it.
pub fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Serializes the recorded arena as Chrome `trace_event` JSON:
/// `M` metadata rows name the processes/lanes, then one row per event
/// (`X` complete spans, `b`/`e` async spans, `i` instants, `C`
/// counters).
pub fn to_chrome_json(tracer: &RecordingTracer) -> String {
    let mut rows: Vec<String> =
        Vec::with_capacity(tracer.len() + tracer.processes().len() + tracer.threads().len());
    for (pid, name) in tracer.processes() {
        let mut row = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\""
        );
        json_escape(&mut row, name);
        row.push_str("\"}}");
        rows.push(row);
    }
    for (track, name) in tracer.threads() {
        let mut row = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":\"",
            track.pid, track.tid
        );
        json_escape(&mut row, name);
        row.push_str("\"}}");
        rows.push(row);
    }
    for e in tracer.events() {
        let mut row = String::from("{\"name\":\"");
        json_escape(&mut row, tracer.name(e.name));
        let (pid, tid, ts) = (e.track.pid, e.track.tid, e.ts);
        write!(row, "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},")
            .expect("writing to a String cannot fail");
        match e.payload {
            Payload::Complete { dur } => write!(row, "\"ph\":\"X\",\"dur\":{dur}}}"),
            Payload::Begin { id } => write!(row, "\"ph\":\"b\",\"cat\":\"ace\",\"id\":{id}}}"),
            Payload::End { id } => write!(row, "\"ph\":\"e\",\"cat\":\"ace\",\"id\":{id}}}"),
            Payload::Instant => write!(row, "\"ph\":\"i\",\"s\":\"t\"}}"),
            Payload::Counter { value } => {
                write!(row, "\"ph\":\"C\",\"args\":{{\"value\":{}}}}}", num(value))
            }
        }
        .expect("writing to a String cannot fail");
        rows.push(row);
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(row);
        if i + 1 != rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Minimal structural validation of a Chrome `trace_event` JSON string,
/// used by the CI trace-smoke test (no external JSON tools). Checks:
///
/// * braces/brackets balance and the `traceEvents` array is present;
/// * every event object carries `"ph"`, `"pid"` and `"name"` keys;
/// * every `ph` value is one of the phases the exporter emits.
///
/// Returns the number of event objects on success.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    if !json.trim_start().starts_with("{\"traceEvents\":[") {
        return Err("missing traceEvents array header".into());
    }
    if json.matches('{').count() != json.matches('}').count() {
        return Err("unbalanced braces".into());
    }
    if json.matches('[').count() != json.matches(']').count() {
        return Err("unbalanced brackets".into());
    }
    let body_start = json.find('[').expect("checked above") + 1;
    let body_end = json.rfind(']').expect("checked above");
    let body = &json[body_start..body_end];
    let mut count = 0usize;
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "stray closing brace in event array".to_string())?;
                if depth == 0 {
                    let obj = &body[obj_start.take().expect("open seen")..=i];
                    validate_event_object(obj, count)?;
                    count += 1;
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unterminated event object".into());
    }
    if count == 0 {
        return Err("no trace events".into());
    }
    Ok(count)
}

fn validate_event_object(obj: &str, index: usize) -> Result<(), String> {
    for key in ["\"ph\":", "\"pid\":", "\"name\":"] {
        if !obj.contains(key) {
            return Err(format!("event {index} missing {key} ({obj})"));
        }
    }
    let ph_pos = obj
        .find("\"ph\":\"")
        .ok_or_else(|| format!("event {index}: ph value is not a string ({obj})"))?;
    let ph = obj[ph_pos + 6..]
        .chars()
        .next()
        .ok_or_else(|| format!("event {index}: truncated ph"))?;
    if !matches!(ph, 'X' | 'b' | 'e' | 'i' | 'C' | 'M') {
        return Err(format!("event {index}: unknown phase '{ph}'"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, Track};
    use ace_simcore::SimTime;

    fn t(c: u64) -> SimTime {
        SimTime::from_cycles(c)
    }

    fn sample() -> RecordingTracer {
        let mut r = RecordingTracer::new();
        r.meta_process(1, "node 0");
        r.meta_thread(Track { pid: 1, tid: 1 }, "link p0");
        let tr = Track { pid: 1, tid: 1 };
        r.span(tr, "link:p0", t(10), t(20));
        r.begin(tr, "chunk", 3, t(0));
        r.end(tr, "chunk", 3, t(25));
        r.instant(tr, "ev \"quoted\"", t(5));
        r.counter(tr, "depth", t(7), 2.5);
        r
    }

    #[test]
    fn export_validates_round_trip() {
        let json = to_chrome_json(&sample());
        let n = validate_chrome_trace(&json).expect("valid trace");
        // 2 metadata rows + 5 events.
        assert_eq!(n, 7);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("process_name"));
        assert!(json.contains("ev \\\"quoted\\\""));
    }

    #[test]
    fn json_escape_covers_quotes_and_control_chars() {
        let mut out = String::from("kept ");
        json_escape(&mut out, "a\"b\\c\nd\te\rf\u{1}é");
        assert_eq!(out, "kept a\\\"b\\\\c\\nd\\te\\rf\\u0001é");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"pid\":0,\"ph\":\"Z\"}]}"
        )
        .is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{]}").is_err());
    }

    #[test]
    fn empty_tracer_exports_but_fails_validation() {
        let r = RecordingTracer::new();
        let json = to_chrome_json(&r);
        assert!(validate_chrome_trace(&json).is_err(), "no events: invalid");
    }
}
