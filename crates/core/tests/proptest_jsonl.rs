//! Property tests for the flat-JSON line codec (`ligra::jsonl`): what
//! `JsonObj` writes `Fields` reads back, `set_u64` touches one value and
//! nothing else, and a lookup never mistakes text inside a string value
//! for a field — the soundness argument substring scrapers cannot make.
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

use ligra::jsonl::{field, field_bool, field_u64, set_u64, text, Fields, JsonObj};
use proptest::prelude::*;

/// Characters that stress the writer's escaping and the scanner's string
/// walk: the two escapes, every kind of control (C0, DEL, C1), JSON's own
/// punctuation, and multi-byte sequences of each length.
const PALETTE: &str =
    "\"\\\n\t\r\0\u{1f}\u{7f}\u{80}\u{85}\u{9f}\u{a0}aZ0 ,:{}uéж日\u{2028}\u{1F600}";

fn hostile_string() -> impl Strategy<Value = String> {
    let palette: Vec<char> = PALETTE.chars().collect();
    proptest::collection::vec(0usize..palette.len(), 0..24)
        .prop_map(move |ix| ix.into_iter().map(|i| palette[i]).collect())
}

/// One field of a generated object.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Num(u64),
    Flag(bool),
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        hostile_string().prop_map(Value::Str),
        any::<u64>().prop_map(Value::Num),
        any::<bool>().prop_map(Value::Flag),
    ]
}

/// An object of `k0`, `k1`, … in order, built by the writer under test.
fn object() -> impl Strategy<Value = (Vec<Value>, String)> {
    proptest::collection::vec(value(), 0..6).prop_map(|values| {
        let mut obj = JsonObj::new();
        for (i, v) in values.iter().enumerate() {
            let key = format!("k{i}");
            obj = match v {
                Value::Str(s) => obj.str(&key, s),
                Value::Num(n) => obj.u64(&key, *n),
                Value::Flag(b) => obj.bool(&key, *b),
            };
        }
        (values, obj.finish())
    })
}

/// Reference decoder for the four escapes `JsonObj::str` writes.
fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("escape pair") {
            'n' => out.push('\n'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                out.push(char::from_u32(code).expect("scalar value"));
            }
            c => out.push(c),
        }
    }
    out
}

fn pairs(line: &str) -> Vec<(&str, &str)> {
    Fields::new(line).map(|p| p.unwrap_or_else(|e| panic!("{e}: {line}"))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn what_the_writer_writes_the_scanner_reads((values, line) in object()) {
        let got = pairs(&line);
        prop_assert_eq!(got.len(), values.len(), "{}", line);
        for (i, ((key, raw), want)) in got.iter().zip(&values).enumerate() {
            prop_assert_eq!(*key, format!("k{i}"));
            match want {
                Value::Str(s) => {
                    prop_assert!(raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2);
                    prop_assert_eq!(&unescape(text(raw)), s, "{}", line);
                }
                Value::Num(n) => {
                    prop_assert_eq!(*raw, n.to_string());
                    prop_assert_eq!(field_u64(&line, key), Some(*n));
                }
                Value::Flag(b) => prop_assert_eq!(field_bool(&line, key), Some(*b)),
            }
        }
        // One line, and no raw control survives the writer.
        prop_assert!(!line.chars().any(char::is_control), "{:?}", line);
    }

    #[test]
    fn set_u64_changes_only_the_addressed_value(
        (values, line) in object(),
        pick in 0usize..8,
        v in any::<u64>(),
    ) {
        let key = format!("k{pick}");
        let before = pairs(&line);
        let out = set_u64(&line, &key, v);
        prop_assert_eq!(field_u64(&out, &key), Some(v), "{} -> {}", line, out);
        let digits = v.to_string();
        if pick < values.len() {
            // Replaced where it stood: the line differs by exactly the
            // old value's bytes (`old` is a slice of `line`).
            let old = before[pick].1;
            let start = old.as_ptr() as usize - line.as_ptr() as usize;
            let (head, tail) = (&line[..start], &line[start + old.len()..]);
            prop_assert_eq!(out, format!("{head}{digits}{tail}"));
        } else {
            // Appended before the closing brace: everything else verbatim.
            let body = &line[..line.len() - 1];
            let comma = if before.is_empty() { "" } else { "," };
            prop_assert_eq!(out, format!("{body}{comma}\"{key}\":{digits}}}"));
        }
    }

    #[test]
    fn a_key_inside_a_string_value_is_never_a_field(
        before in hostile_string(),
        after in hostile_string(),
        n in any::<u64>(),
        real in any::<bool>(),
    ) {
        // An error message that spells out a whole field, as a backend
        // quoting a request back at the client would.
        let msg = format!("{before}\"id\":{n},\"transient\":true{after}");
        let mut obj = JsonObj::new().bool("ok", false).str("error", &msg);
        if real {
            obj = obj.u64("id", 7).bool("transient", false);
        }
        let line = obj.finish();
        prop_assert_eq!(field_u64(&line, "id"), real.then_some(7), "{}", line);
        prop_assert_eq!(field_bool(&line, "transient"), real.then_some(false), "{}", line);
        prop_assert_eq!(field(&line, "error").map(unescape), Some(msg));
        // And a rewrite leaves the message alone.
        let out = set_u64(&line, "id", 9);
        prop_assert_eq!(field_u64(&out, "id"), Some(9));
        prop_assert_eq!(field(&out, "error"), field(&line, "error"));
    }
}
