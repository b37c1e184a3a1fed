//! Chrome `trace_event` JSON exporter (Perfetto-loadable).
//!
//! One track (`tid`) per rank under a single process (`pid 0`). Spanning
//! operations become `"ph": "X"` complete events; instantaneous records
//! become `"ph": "i"` instants; every matched message adds a flow arrow
//! (`"ph": "s"` at the send, `"ph": "f"` at the receive completion).
//!
//! The output is built with raw string formatting, never `f64`: Chrome's
//! `ts`/`dur` fields are microseconds, rendered from integer virtual
//! nanoseconds as `{µs}.{ns%1000:03}`. That makes the file a pure function
//! of the virtual-time trace — byte-identical across execution engines and
//! sweep widths, which the golden tests and CI assert.

use std::fmt::Write as _;

use netsim::trace::{EventKind, TraceEvent};
use netsim::Time;

use crate::analysis::{kind_label, pair_messages};

/// Render virtual nanoseconds as an exact microsecond literal.
fn us(t: Time) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_common(line: &mut String, ph: &str, tid: usize, ts: Time) {
    let _ = write!(
        line,
        "{{\"ph\": \"{ph}\", \"pid\": 0, \"tid\": {tid}, \"ts\": {}",
        us(ts)
    );
}

/// Append `, "args": {...}` from integer key/value pairs.
fn push_args(line: &mut String, args: &[(&str, i64)]) {
    if args.is_empty() {
        return;
    }
    line.push_str(", \"args\": {");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(line, "\"{k}\": {v}");
    }
    line.push('}');
}

/// Export a time-sorted trace (from `TraceSink::take`) as a Chrome
/// `trace_event` JSON document with one track per rank.
pub fn chrome_trace(events: &[TraceEvent], nranks: usize) -> String {
    let pairs = pair_messages(events);

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut emit = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&line);
    };

    // Track naming metadata first.
    emit(
        &mut out,
        "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": \"virtual fabric\"}}"
            .to_string(),
    );
    for r in 0..nranks {
        emit(
            &mut out,
            format!(
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {r}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"rank {r}\"}}}}"
            ),
        );
    }

    for (i, ev) in events.iter().enumerate() {
        let name = kind_label(&ev.kind);
        let mut args: Vec<(&str, i64)> = Vec::new();
        if let Some(site) = ev.site {
            args.push(("site", site as i64));
        }
        match &ev.kind {
            EventKind::SendPost { dst, tag, bytes } => {
                args.push(("dst", *dst as i64));
                args.push(("tag", *tag as i64));
                args.push(("bytes", *bytes as i64));
            }
            EventKind::RecvPost { src, tag } => {
                if let Some(s) = src {
                    args.push(("src", *s as i64));
                }
                if let Some(t) = tag {
                    args.push(("tag", *t as i64));
                }
            }
            // `posted` feeds the metrics fold and is not rendered, so the
            // trace args keep their schema.
            EventKind::RecvDone {
                src,
                tag,
                bytes,
                unexpected,
                completion,
                ..
            } => {
                args.push(("src", *src as i64));
                args.push(("tag", *tag as i64));
                args.push(("bytes", *bytes as i64));
                args.push(("unexpected", *unexpected as i64));
                args.push(("completion_ns", completion.as_nanos() as i64));
            }
            EventKind::Wait { horizon } => {
                args.push(("horizon_ns", horizon.as_nanos() as i64));
            }
            EventKind::Waitall { n, horizon } => {
                args.push(("n", *n as i64));
                args.push(("horizon_ns", horizon.as_nanos() as i64));
            }
            EventKind::Put { dst, bytes } => {
                args.push(("dst", *dst as i64));
                args.push(("bytes", *bytes as i64));
            }
            EventKind::Get { src, bytes } => {
                args.push(("src", *src as i64));
                args.push(("bytes", *bytes as i64));
            }
            EventKind::Quiet {
                outstanding,
                horizon,
            } => {
                args.push(("outstanding", *outstanding as i64));
                args.push(("horizon_ns", horizon.as_nanos() as i64));
            }
            EventKind::Barrier { group_len } => {
                args.push(("group_len", *group_len as i64));
            }
            EventKind::Compute { ns } => args.push(("ns", *ns as i64)),
            EventKind::Pack { bytes } => args.push(("bytes", *bytes as i64)),
            EventKind::DatatypeCommit => {}
        }

        // RecvDone spans duplicate the wait span they complete inside, so
        // they render as instants at the data-arrival time plus a flow
        // arrow from the matched send; everything else renders by span.
        let line = match &ev.kind {
            EventKind::RecvDone { completion, .. } => {
                let mut line = String::new();
                push_common(&mut line, "i", ev.rank, *completion);
                let _ = write!(line, ", \"s\": \"t\", \"name\": \"{name}\"");
                push_args(&mut line, &args);
                line.push('}');
                line
            }
            _ if ev.time > ev.start => {
                let mut line = String::new();
                push_common(&mut line, "X", ev.rank, ev.start);
                let _ = write!(
                    line,
                    ", \"dur\": {}, \"name\": \"{name}\", \"cat\": \"comm\"",
                    us(ev.time.saturating_sub(ev.start))
                );
                push_args(&mut line, &args);
                line.push('}');
                line
            }
            _ => {
                let mut line = String::new();
                push_common(&mut line, "i", ev.rank, ev.time);
                let _ = write!(line, ", \"s\": \"t\", \"name\": \"{name}\"");
                push_args(&mut line, &args);
                line.push('}');
                line
            }
        };
        emit(&mut out, line);

        // Flow arrow from the matched send to this receive completion.
        if let EventKind::RecvDone { completion, .. } = &ev.kind {
            if let Some(&si) = pairs.get(&i) {
                let send = &events[si];
                let mut s = String::new();
                push_common(&mut s, "s", send.rank, send.time);
                let _ = write!(s, ", \"id\": {i}, \"name\": \"msg\", \"cat\": \"flow\"}}");
                emit(&mut out, s);
                let mut f = String::new();
                push_common(&mut f, "f", ev.rank, *completion);
                let _ = write!(
                    f,
                    ", \"bp\": \"e\", \"id\": {i}, \"name\": \"msg\", \"cat\": \"flow\"}}"
                );
                emit(&mut out, f);
            }
        }
    }

    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::json;
    use netsim::trace::TraceEvent;

    #[test]
    fn exact_microsecond_formatting() {
        assert_eq!(us(Time(0)), "0.000");
        assert_eq!(us(Time(1)), "0.001");
        assert_eq!(us(Time(1_234_567)), "1234.567");
    }

    #[test]
    fn output_is_valid_json_with_flows() {
        let mut evs = vec![
            TraceEvent {
                rank: 0,
                time: Time(110),
                start: Time(100),
                site: Some(3),
                kind: EventKind::SendPost {
                    dst: 1,
                    tag: 7,
                    bytes: 64,
                },
            },
            TraceEvent {
                rank: 1,
                time: Time(160),
                start: Time(10),
                site: Some(3),
                kind: EventKind::RecvDone {
                    src: 0,
                    tag: 7,
                    bytes: 64,
                    unexpected: false,
                    posted: Time(10),
                    completion: Time(150),
                },
            },
            TraceEvent {
                rank: 1,
                time: Time(160),
                start: Time(10),
                site: Some(3),
                kind: EventKind::Wait { horizon: Time(150) },
            },
        ];
        evs.sort_by_key(|e| (e.time, e.rank));
        let text = chrome_trace(&evs, 2);
        let doc = json::parse(&text).expect("valid JSON");
        let tev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 3 events + 2 flow halves
        assert_eq!(tev.len(), 8);
        let phases: Vec<&str> = tev
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"s"));
        assert!(phases.contains(&"f"));
        // The wait slice carries its site and exact horizon.
        let wait = tev
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("wait")))
            .unwrap();
        let args = wait.get("args").unwrap();
        assert_eq!(args.get("site").unwrap().as_i64(), Some(3));
        assert_eq!(args.get("horizon_ns").unwrap().as_i64(), Some(150));
    }
}
