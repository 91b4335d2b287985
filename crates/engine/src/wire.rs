//! The serving wire format: one flat JSON object per line, both ways.
//!
//! The grammar is [`ligra::jsonl`]'s, stated there once: a single object
//! of string/number/bool fields, no nesting, no arrays. [`Request`] and
//! every reader of a reply (`ligra-route`, the `--client` pump, the
//! tests) go through that one scanner rather than a JSON library (the
//! repo carries no serde) or a substring search, and replies are built
//! with its [`JsonObj`].
//!
//! The two directions differ in one rule. **Replies may contain
//! `\`-escapes**: `JsonObj::str` escapes quotes, backslashes and
//! controls so arbitrary error text stays well-formed, and the scanner
//! steps over each `\x` pair, so a field that follows an escaped message
//! is still found — and a `"key":` spelled out *inside* a message never
//! is (`ligra::jsonl::field` matches keys at key positions only).
//! **Requests may not**: a line with a backslash anywhere is rejected,
//! so every request value is the bytes the client sent — `:` and `,`
//! inside quoted file paths included — and [`Request`] borrows them.

use ligra::jsonl::{text, Fields};
use std::io::BufRead;
use std::str::FromStr;

pub use ligra::jsonl::JsonObj;

/// Hard cap on one request line, in bytes. A line longer than this is
/// reported as malformed (and drained) instead of buffered, so a
/// misbehaving client cannot balloon server memory.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// Reads one newline-terminated request line as raw bytes, enforcing
/// [`MAX_REQUEST_LINE_BYTES`] and UTF-8 validity *before* the text ever
/// reaches [`Request::parse`].
///
/// Returns:
/// * `Ok(None)` — clean end of stream;
/// * `Ok(Some(Ok(line)))` — one line, newline stripped (a final
///   unterminated line at EOF is still delivered);
/// * `Ok(Some(Err(msg)))` — the line was oversized or not valid UTF-8;
///   the offending bytes have been drained so the caller can answer with
///   an error response and keep serving;
/// * `Err(e)` — transport-level I/O failure.
pub fn read_request_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut raw: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF with nothing pending is a clean end of stream.
            if raw.is_empty() && dropped == 0 {
                return Ok(None);
            }
            break;
        }
        let (len, terminated) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (buf.len(), false),
        };
        if dropped > 0 || raw.len() + len > max_bytes {
            // Past the cap: stop buffering, keep draining to the newline.
            dropped += raw.len() + len;
            raw.clear();
        } else {
            raw.extend_from_slice(&buf[..len]);
        }
        reader.consume(len + usize::from(terminated));
        if terminated {
            break;
        }
    }
    if dropped > 0 {
        return Ok(Some(Err(format!(
            "request line too long ({dropped} bytes exceeds the {max_bytes}-byte limit)"
        ))));
    }
    Ok(Some(match String::from_utf8(raw) {
        Ok(s) => Ok(s),
        Err(_) => Err("request line is not valid UTF-8".to_string()),
    }))
}

/// One parsed request, borrowed from its line: field name → value text
/// (a string without its quotes; numbers and booleans as spelled).
#[derive(Debug, Clone, Default)]
pub struct Request<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Request<'a> {
    /// Parses one request line. Errors name the offending position.
    pub fn parse(line: &'a str) -> Result<Request<'a>, String> {
        // Outside a string a backslash is malformed anyway, so refusing
        // the whole line refuses exactly the requests that carry escapes.
        if line.contains('\\') {
            return Err("escape sequences are not supported".to_string());
        }
        let mut fields: Vec<(&str, &str)> = Vec::with_capacity(8);
        for pair in Fields::new(line) {
            let (key, raw) = pair?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            fields.push((key, text(raw)));
        }
        Ok(Request { fields })
    }

    /// Raw field value.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Required string field.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Optional numeric field with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        self.parse_or(key, default)
    }

    /// Optional boolean field with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        self.parse_or(key, default)
    }

    fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("field {key:?}: cannot parse {raw:?}")),
        }
    }
}

/// The standard error response.
pub fn error_response(msg: &str) -> String {
    JsonObj::new().bool("ok", false).str("error", msg).finish()
}

/// The error response for a failure worth retrying: `"transient":true`,
/// plus the server's own horizon as `retry_after_ms` when it has one.
pub fn transient_error(msg: &str, retry_after_ms: Option<u64>) -> String {
    let obj = JsonObj::new().bool("ok", false).str("error", msg).bool("transient", true);
    match retry_after_ms {
        Some(ms) => obj.u64("retry_after_ms", ms).finish(),
        None => obj.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_fields() {
        let r = Request::parse(
            r#"{"op":"submit","query":"bfs","source":42,"deadline_ms":0,"cached":true}"#,
        )
        .unwrap();
        assert_eq!(r.str("op").unwrap(), "submit");
        assert_eq!(r.u64_or("source", 0).unwrap(), 42);
        assert_eq!(r.u64_or("deadline_ms", 9).unwrap(), 0);
        assert!(r.bool_or("cached", false).unwrap());
        assert_eq!(r.u64_or("missing", 7).unwrap(), 7);
    }

    #[test]
    fn paths_with_separators_survive() {
        let r = Request::parse(r#"{"op":"load","path":"/data/graphs/rmat,v2:final.adj"}"#).unwrap();
        assert_eq!(r.str("path").unwrap(), "/data/graphs/rmat,v2:final.adj");
    }

    #[test]
    fn whitespace_and_empty_object_are_tolerated() {
        let r = Request::parse("  { \"op\" : \"stats\" }  ").unwrap();
        assert_eq!(r.str("op").unwrap(), "stats");
        assert!(Request::parse("{}").unwrap().get("op").is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{",
            r#"{"op":}"#,
            r#"{"op" "x"}"#,
            r#"{"op":"a" trailing"#,
            r#"{"op":"a"}{"op":"b"}"#,
            r#"{"op":"a\nb"}"#, // escapes unsupported
            r#"{"op":"a","op":"b"}"#,
            r#"{"nested":{"x":1}}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn truncated_final_line_is_still_delivered() {
        // No trailing newline: the fragment must reach the parser (which
        // will reject it) rather than being dropped or ending the loop
        // early.
        let mut r = std::io::Cursor::new(b"{\"op\":\"stats\"}\n{\"op\":\"sub".to_vec());
        let first = read_request_line(&mut r, MAX_REQUEST_LINE_BYTES).unwrap().unwrap().unwrap();
        assert_eq!(first, "{\"op\":\"stats\"}");
        let second = read_request_line(&mut r, MAX_REQUEST_LINE_BYTES).unwrap().unwrap().unwrap();
        assert_eq!(second, "{\"op\":\"sub");
        assert!(Request::parse(&second).is_err());
        assert!(read_request_line(&mut r, MAX_REQUEST_LINE_BYTES).unwrap().is_none());
    }

    #[test]
    fn non_utf8_line_is_malformed_not_fatal() {
        let mut r = std::io::Cursor::new(b"{\"op\":\"\xff\xfe\"}\n{\"op\":\"ping\"}\n".to_vec());
        let bad = read_request_line(&mut r, MAX_REQUEST_LINE_BYTES).unwrap().unwrap();
        assert!(bad.unwrap_err().contains("UTF-8"));
        // The stream is still usable after the bad line.
        let good = read_request_line(&mut r, MAX_REQUEST_LINE_BYTES).unwrap().unwrap().unwrap();
        assert_eq!(good, "{\"op\":\"ping\"}");
    }

    #[test]
    fn oversized_line_is_drained_and_reported() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut r = std::io::Cursor::new(input);
        let bad = read_request_line(&mut r, 16).unwrap().unwrap();
        let msg = bad.unwrap_err();
        assert!(msg.contains("too long"), "{msg}");
        assert!(msg.contains("100 bytes"), "{msg}");
        // Every oversized byte was drained; the next line parses cleanly.
        let good = read_request_line(&mut r, 16).unwrap().unwrap().unwrap();
        assert_eq!(good, "{\"op\":\"ping\"}");
        assert!(read_request_line(&mut r, 16).unwrap().is_none());
    }

    #[test]
    fn oversized_line_never_buffers_past_the_cap() {
        // A 1 MiB line against a 1 KiB cap with a tiny BufReader: the
        // reader must drain it chunk by chunk without holding it whole.
        let mut input = vec![b'y'; 1 << 20];
        input.push(b'\n');
        let cursor = std::io::Cursor::new(input);
        let mut r = std::io::BufReader::with_capacity(512, cursor);
        let bad = read_request_line(&mut r, 1024).unwrap().unwrap();
        assert!(bad.is_err());
        assert!(read_request_line(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn response_builder_escapes() {
        let s = JsonObj::new()
            .bool("ok", false)
            .str("error", "expected \"op\", got \\x")
            .u64("id", 3)
            .finish();
        assert_eq!(s, r#"{"ok":false,"error":"expected \"op\", got \\x","id":3}"#);
    }
}
