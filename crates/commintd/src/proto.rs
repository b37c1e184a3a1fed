//! Length-framed JSON protocol for the analysis daemon.
//!
//! Every frame is `[u32 little-endian byte length][JSON document]`.
//! Requests:
//!
//! ```json
//! { "v": 1, "op": "analyze", "id": 7, "file": "ring.comm", "src": "..." }
//! { "v": 1, "op": "prove",   "id": 8, "file": "ring.comm", "src": "..." }
//! { "v": 1, "op": "diag",    "id": 9, "file": "ring.comm", "src": "..." }
//! { "v": 1, "op": "stats",   "id": 10 }
//! ```
//!
//! Responses echo `id` and `op`, carry `"ok"`, and embed the batch CLIs'
//! documents as escaped JSON strings (`report`, `cert`) so the payloads
//! stay byte-identical to the CLI output — a client unescapes `report`
//! and has exactly `commlint --format json`'s bytes. `analyze`/`prove`
//! responses also carry incrementality telemetry: `dirty` (region
//! indexes re-analyzed), `reused`, and `evicted` (cache entries removed
//! by this update's invalidations); `prove` adds `disk_cert`.
//!
//! Every frame, request or response, is a [`Json`] value written by
//! `netsim::json` in its spaced one-line form ([`Json::render_line`]).
//! `stats` reports `hit_rate` rounded to four decimals.
//!
//! The golden fixtures under `tests/intd_golden/` pin this surface.

use std::io::{self, Read, Write};

use netsim::json::{self, Json};

use crate::engine::Engine;

/// Protocol version (the request's `v` field must match).
pub const PROTO_VERSION: u64 = 1;

/// Largest accepted frame (a defensive bound, not a design limit).
pub const MAX_FRAME: usize = 64 << 20;

/// Read one length-framed message. `Ok(None)` is clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame header",
                ))
            }
            n => filled += n,
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write one length-framed message.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Verb: `analyze`, `prove`, `diag` or `stats`.
    pub op: String,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<i64>,
    /// Source path (the name analyses report under).
    pub file: String,
    /// Source text.
    pub src: String,
}

/// Parse a request frame.
pub fn parse_request(bytes: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "request is not UTF-8".to_string())?;
    let v = json::parse(text).map_err(|e| format!("bad request JSON: {e}"))?;
    let version = match v.get("v") {
        Some(Json::Int(n)) => *n,
        _ => return Err("missing protocol version `v`".to_string()),
    };
    if u64::try_from(version) != Ok(PROTO_VERSION) {
        return Err(format!(
            "protocol version {version} unsupported (want {PROTO_VERSION})"
        ));
    }
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| "missing `op`".to_string())?
        .to_string();
    let id = match v.get("id") {
        Some(Json::Int(n)) => Some(*n),
        Some(Json::Null) | None => None,
        Some(_) => return Err("`id` must be an integer".to_string()),
    };
    let needs_src = op != "stats";
    let field = |name: &str| -> Result<String, String> {
        match v.get(name).and_then(|f| f.as_str()) {
            Some(s) => Ok(s.to_string()),
            None if !needs_src => Ok(String::new()),
            None => Err(format!("`{op}` needs `{name}`")),
        }
    };
    Ok(Request {
        file: field("file")?,
        src: field("src")?,
        op,
        id,
    })
}

/// Render an error response.
pub fn error_response(id: Option<i64>, msg: String) -> String {
    Json::obj([
        ("v", PROTO_VERSION.into()),
        ("id", id.into()),
        ("ok", false.into()),
        ("error", msg.into()),
    ])
    .render_line()
}

/// Dispatch one request frame against the engine and render the response
/// document. Never panics on malformed input — errors become `ok: false`
/// responses.
pub fn handle(engine: &Engine, frame: &[u8]) -> String {
    let req = match parse_request(frame) {
        Ok(r) => r,
        Err(e) => return error_response(None, e),
    };
    let file = || ("file", Json::from(req.file.clone()));
    let body = match req.op.as_str() {
        "analyze" => engine.analyze(&req.file, &req.src).map(|a| {
            vec![
                file(),
                ("gate_fails", a.gate_fails.into()),
                ("regions", a.regions.into()),
                ("dirty", a.dirty.iter().map(|&i| i.into()).collect()),
                ("reused", a.reused.into()),
                ("evicted", a.evicted.into()),
                ("report", a.report_json.into()),
            ]
        }),
        "prove" => engine.prove(&req.file, &req.src).map(|p| {
            vec![
                file(),
                ("gate_fails", p.gate_fails.into()),
                ("regions", p.regions.into()),
                ("dirty", p.dirty.iter().map(|&i| i.into()).collect()),
                ("reused", p.reused.into()),
                ("evicted", p.evicted.into()),
                ("disk_cert", p.disk_cert.into()),
                ("report", p.report_json.into()),
                ("cert", p.cert_json.into()),
            ]
        }),
        "diag" => engine
            .diag(&req.file, &req.src)
            .map(|regions| vec![file(), ("regions", regions)]),
        "stats" => {
            let s = engine.stats();
            let kinds = engine.population().into_iter();
            Ok(vec![
                ("entries", s.entries.into()),
                ("hits", s.hits.into()),
                ("misses", s.misses.into()),
                ("waits", s.waits.into()),
                ("invalidations", s.invalidations.into()),
                ("hit_rate", Json::Num((s.hit_rate() * 1e4).round() / 1e4)),
                (
                    "kinds",
                    Json::obj(kinds.map(|(k, n)| (k.label(), n.into()))),
                ),
                ("files", engine.files_seen().into()),
            ])
        }
        other => Err(format!("unknown op `{other}`")),
    };
    match body {
        Ok(body) => {
            let head = [
                ("v", PROTO_VERSION.into()),
                ("id", req.id.into()),
                ("ok", true.into()),
                ("op", req.op.into()),
            ];
            Json::obj(head.into_iter().chain(body)).render_line()
        }
        Err(e) => error_response(req.id, e),
    }
}

/// Render a request document (the client side of the protocol; tests and
/// the `fig_serve` bench use this).
pub fn request_json(op: &str, id: i64, file: &str, src: &str) -> String {
    let mut fields = vec![
        ("v", PROTO_VERSION.into()),
        ("op", op.to_string().into()),
        ("id", id.into()),
    ];
    if op != "stats" {
        fields.extend([
            ("file", file.to_string().into()),
            ("src", src.to_string().into()),
        ]);
    }
    Json::obj(fields).render_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_parse_and_validate() {
        let req = parse_request(request_json("analyze", 3, "a.comm", "x\ny").as_bytes()).unwrap();
        assert_eq!(req.op, "analyze");
        assert_eq!(req.id, Some(3));
        assert_eq!(req.src, "x\ny");
        assert!(parse_request(b"{ \"op\": \"analyze\" }").is_err());
        assert!(parse_request(b"{ \"v\": 2, \"op\": \"analyze\" }").is_err());
        let err = parse_request(b"{ \"v\": -1, \"op\": \"stats\" }").unwrap_err();
        assert_eq!(err, "protocol version -1 unsupported (want 1)");
        assert!(parse_request(b"{ \"v\": 1, \"op\": \"analyze\" }").is_err());
        assert!(parse_request(b"not json").is_err());
        let stats = parse_request(b"{ \"v\": 1, \"op\": \"stats\" }").unwrap();
        assert_eq!(stats.op, "stats");
    }

    #[test]
    fn hostile_frames_get_error_responses() {
        let engine = Engine::new(Default::default(), Default::default(), None);
        let deep = "[".repeat(100_000);
        let overflow = "#pragma comm_p2p sender(rank+99999999999999999999) receiver(rank)";
        let non_ascii = "#pragma comm_p2p sender(rank\u{2014}1) receiver(rank)";
        for frame in [
            deep,
            request_json("analyze", 1, "a.comm", overflow),
            request_json("analyze", 2, "b.comm", non_ascii),
        ] {
            let resp = handle(&engine, frame.as_bytes());
            assert!(resp.contains("\"ok\": false"), "{resp}");
        }
    }
}
