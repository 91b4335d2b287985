//! The one codec for "a message is one flat JSON object per line".
//!
//! Kernel traces ([`crate::trace`]), serving requests and serving
//! replies (`ligra_engine::wire`) all use this shape, and this module is
//! the only code that walks such a line's bytes. The grammar:
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
//! [`JsonObj`] is the writing half and escapes every quote, backslash
//! and control it is given, so whatever it writes, [`Fields`] reads.
//!
//! Why [`field`] is sound where substring search is not: a key matches
//! only at a key position. The scanner consumes each string value whole,
//! stepping over `\"`, so text inside a value — an error message that
//! spells out `"transient":true`, say — is never taken for a field.

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
}
