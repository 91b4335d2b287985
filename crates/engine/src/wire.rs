//! The serving wire format: one flat JSON object per line, both ways.
//!
//! Requests ([`Request`]) and replies ([`JsonObj`]) have this shape, and
//! so does an exported kernel trace (`ligra::to_json_lines`). This
//! module is the only code that walks such a line's bytes; every reader
//! of a reply (`ligra-route`, the `--client` pump, the tests) goes
//! through [`Fields`] rather than a JSON library (the repo carries no
//! serde) or a substring search. The grammar:
//!
//! ```text
//! line   := ws '{' ws ( pair ( ws ',' ws pair )* ws )? '}' ws
//! pair   := string ws ':' ws ( string | scalar )
//! string := '"' ( any char but '"', '\' and controls | '\' any byte )* '"'
//! scalar := [A-Za-z0-9+-._]+
//! ws     := ( ' ' | \t | \n | \f | \r )*
//! ```
//!
//! No nesting, no arrays. Controls are Unicode category Cc (C0, DEL and
//! the C1 range U+0080–U+009F), as `char::is_control` has it. A `\x`
//! pair is stepped over, not decoded: values come back as spelled.
//!
//! The two directions differ in one rule. **Replies may contain
//! `\`-escapes**: [`JsonObj::str`] escapes every quote, backslash and
//! control it is given, so whatever it writes, [`Fields`] reads. This is
//! why [`field`] is sound where substring search is not: a key matches
//! only at a key position, and the scanner consumes each string value
//! whole, stepping over `\"`, so text inside a value — an error message
//! that spells out `"transient":true`, say — is never taken for a field.
//! **Requests may not**: a line with a backslash anywhere is rejected,
//! so every request value is the bytes the client sent — `:` and `,`
//! inside quoted file paths included — and [`Request`] borrows them.

use std::io::BufRead;
use std::str::FromStr;

/// Iterator over the `(key, raw value)` pairs of one line, in order.
///
/// Keys come without their quotes; a raw value is the value's own bytes
/// (a string keeps its quotes — see [`text`]). The first malformed byte
/// yields one `Err` naming its offset and ends the iteration; a line is
/// well-formed exactly when the iterator runs dry without an `Err`.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    line: &'a str,
    /// Next unread byte. Right after a pair is yielded: one past its value.
    pos: usize,
    state: State,
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Before the opening brace.
    Start,
    /// After a pair: a comma or the closing brace comes next.
    Inside,
    /// Past the closing brace, or failed.
    End,
}

type Pair<'a> = (&'a str, &'a str);

impl<'a> Fields<'a> {
    /// Starts scanning `line`.
    pub fn new(line: &'a str) -> Self {
        Fields { line, pos: 0, state: State::Start }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expected(&self, what: &str) -> String {
        format!("expected {what} at byte {}", self.pos)
    }

    fn expect(&mut self, want: u8, what: &str) -> Result<(), String> {
        if self.peek() != Some(want) {
            return Err(self.expected(what));
        }
        self.pos += 1;
        Ok(())
    }

    /// One string token, quotes included. Every slice boundary sits next
    /// to an ASCII quote, so it is a char boundary whatever lies between.
    fn string(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.expect(b'"', "'\"'")?;
        let bytes = self.line.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(format!("unterminated string starting at byte {start}"));
            };
            self.pos += 1;
            let control = match b {
                b'"' => return Ok(&self.line[start..self.pos]),
                b'\\' => {
                    self.pos += 1;
                    false
                }
                // U+0080..=U+009F are the two-byte sequences C2 80..=C2 9F.
                0xC2 => matches!(bytes.get(self.pos), Some(0x80..=0x9F)),
                _ => b < 0x20 || b == 0x7F,
            };
            if control {
                return Err(format!("control character in string at byte {}", self.pos - 1));
            }
        }
    }

    fn scalar(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.' | b'_'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.expected("a value"));
        }
        Ok(&self.line[start..self.pos])
    }

    /// Steps past the closing brace; only whitespace may follow it.
    fn close(&mut self) -> Result<Option<Pair<'a>>, String> {
        self.pos += 1;
        self.skip_ws();
        if self.pos < self.line.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(None)
    }

    fn pair(&mut self) -> Result<Option<Pair<'a>>, String> {
        self.skip_ws();
        match self.state {
            State::Start => {
                self.expect(b'{', "'{'")?;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    return self.close();
                }
            }
            State::Inside => match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => return self.close(),
                _ => return Err(self.expected("',' or '}'")),
            },
            State::End => return Ok(None),
        }
        self.state = State::Inside;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "':'")?;
        self.skip_ws();
        let value = if self.peek() == Some(b'"') { self.string()? } else { self.scalar()? };
        Ok(Some((&key[1..key.len() - 1], value)))
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Pair<'a>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.pair().transpose();
        if !matches!(item, Some(Ok(_))) {
            self.state = State::End;
        }
        item
    }
}

/// A raw value as text: a string without its quotes (escape pairs left
/// as spelled), a scalar as it is.
pub fn text(raw: &str) -> &str {
    raw.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(raw)
}

/// The [`text`] of the first field named `key`, if the line is
/// well-formed up to it.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    Fields::new(line).map_while(Result::ok).find(|(k, _)| *k == key).map(|(_, raw)| text(raw))
}

/// [`field`] as an unsigned integer; `None` if absent or not one.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// [`field`] as a boolean; `None` if absent or neither `true` nor `false`.
pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    field(line, key)?.parse().ok()
}

/// `line` with field `key` set to `v`: the first such field's value is
/// replaced where it stands, or `,"key":v` goes in before the closing
/// brace. Every other byte is kept. A malformed line comes back as it is.
pub fn set_u64(line: &str, key: &str, v: u64) -> String {
    let mut fields = Fields::new(line);
    let mut comma = "";
    while let Some(pair) = fields.next() {
        let Ok((k, raw)) = pair else { return line.to_string() };
        if k == key {
            let (start, end) = (fields.pos - raw.len(), fields.pos);
            return format!("{}{v}{}", &line[..start], &line[end..]);
        }
        comma = ",";
    }
    // The scan ran dry, so the last '}' is the closing brace.
    let close = line.rfind('}').unwrap_or(line.len());
    format!("{}{comma}\"{key}\":{v}{}", &line[..close], &line[close..])
}

/// Builder for one flat JSON object line.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj { buf: String::from("{") }
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    /// Adds a string field, escaping quotes, backslashes, and control
    /// characters.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":\"");
        for c in value.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                // lint: allow(L4): char -> u32 is a lossless widening (scalar values fit in 21 bits)
                c if c.is_control() => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// Adds a pre-formatted (number/bool) field.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self.buf.push_str(value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

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

    fn pairs(line: &str) -> Result<Vec<Pair<'_>>, String> {
        Fields::new(line).collect()
    }

    #[test]
    fn fields_come_back_in_order_as_spelled() {
        let line = r#" { "ok" : false , "error":"say \"hi\", C:\\x" ,"id":3,"note":"" } "#;
        assert_eq!(
            pairs(line).unwrap(),
            [("ok", "false"), ("error", r#""say \"hi\", C:\\x""#), ("id", "3"), ("note", "\"\"")]
        );
        assert_eq!(pairs("{}").unwrap(), []);
        assert_eq!(text(r#""a b""#), "a b");
        assert_eq!(text("17"), "17");
        assert_eq!(text("\""), "\"");
    }

    #[test]
    fn one_error_then_the_iteration_ends() {
        let mut f = Fields::new(r#"{"a":1,"b":[2],"c":3}"#);
        assert_eq!(f.next(), Some(Ok(("a", "1"))));
        assert!(f.next().is_some_and(|r| r.is_err()));
        assert_eq!(f.next(), None);
        assert_eq!(f.next(), None);
        // A trailing backslash must not run the cursor off the line.
        assert!(pairs("{\"a\":\"x\\").is_err());
        assert!(pairs("{\"a\":\"x\\\"").is_err());
    }

    #[test]
    fn lookups_find_fields_after_an_escaped_message() {
        let line = JsonObj::new()
            .bool("ok", false)
            .str("error", "got \"transient\":true,\"id\":9 \\")
            .bool("transient", false)
            .u64("id", 4)
            .finish();
        assert_eq!(field_bool(&line, "transient"), Some(false));
        assert_eq!(field_u64(&line, "id"), Some(4));
        assert_eq!(field(&line, "ok"), Some("false"));
        assert_eq!(field(&line, "missing"), None);
        assert_eq!(field_u64(&line, "error"), None);
        assert_eq!(field_bool(&line, "id"), None);
        // A lookup reads up to its field; what follows may be broken.
        assert_eq!(field_u64(r#"{"id":7,"x":"#, "id"), Some(7));
        assert_eq!(field_u64(r#"{"x":,"id":7}"#, "id"), None);
        // A repeated key reads as its first occurrence.
        assert_eq!(field_u64(r#"{"id":7,"x":1,"id":1}"#, "id"), Some(7));
    }

    #[test]
    fn set_u64_replaces_in_place_or_appends() {
        let resp = r#"{"ok":true,"id":41,"trace_id":"t-41","status":"queued"}"#;
        assert_eq!(
            set_u64(resp, "id", 7),
            r#"{"ok":true,"id":7,"trace_id":"t-41","status":"queued"}"#
        );
        assert_eq!(set_u64(r#"{"op":"gen"}"#, "rseq", 3), r#"{"op":"gen","rseq":3}"#);
        assert_eq!(set_u64("{}", "rseq", 3), r#"{"rseq":3}"#);
        assert_eq!(set_u64(" { \"a\" : \"9\" } \r", "a", 10), " { \"a\" : 10 } \r");
        assert_eq!(set_u64(" {\"a\":1 } \r", "b", 2), " {\"a\":1 ,\"b\":2} \r");
        // Only a key position counts; a malformed line is left alone.
        assert_eq!(set_u64(r#"{"m":"\"id\":1"}"#, "id", 2), r#"{"m":"\"id\":1","id":2}"#);
        assert_eq!(set_u64(r#"{"a":1"#, "b", 2), r#"{"a":1"#);
        assert_eq!(set_u64("", "b", 2), "");
    }

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
