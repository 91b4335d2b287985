//! One accept/reject corpus for "one flat JSON object per line" as a
//! request: `ligra_engine::Request::parse`, which reads every line
//! through the wire module's one scanner (`ligra_engine::wire::Fields`),
//! plus the well-formed requests whose typed fields the replica handler
//! must refuse.
//!
//! The table pins the *set* of accepted lines and, on accept, every field
//! and value — not error wording. It was written against the parsers the
//! shared scanner replaced and passed unchanged on them, which is the
//! evidence that the replacement kept the grammar.

use ligra_engine::wire::{field, field_bool};
use ligra_engine::{Engine, EngineConfig, MutationConfig, MutationLog, Replica, Request};
use std::sync::Arc;

/// Asserts `line` parses to exactly `want` (and nothing under a key
/// that is not listed).
#[track_caller]
fn accepts(line: &str, want: &[(&str, &str)]) {
    let r = Request::parse(line).unwrap_or_else(|e| panic!("rejected {line:?}: {e}"));
    for (k, v) in want {
        assert_eq!(r.get(k), Some(*v), "field {k:?} of {line:?}");
    }
    assert_eq!(r.get("no-such-key"), None, "{line:?}");
}

#[track_caller]
fn rejects(line: &str) {
    assert!(Request::parse(line).is_err(), "accepted {line:?}");
}

#[test]
fn request_lines_the_grammar_accepts() {
    accepts("{}", &[]);
    accepts(" \t\r\n\x0C{ \t\r\n\x0C} \t\r\n\x0C", &[]);
    accepts(
        "  {  \"op\"  :  \"stats\"  ,  \"id\" : 7  ,\t\"deep\":true\r}  ",
        &[("op", "stats"), ("id", "7"), ("deep", "true")],
    );
    accepts(
        r#"{"op":"submit","query":"bfs","source":42,"deadline_ms":0,"cached":true}"#,
        &[("op", "submit"), ("query", "bfs"), ("source", "42"), ("deadline_ms", "0")],
    );
    // Key order is free: the same fields read the same either way round.
    accepts(r#"{"id":7,"op":"stats"}"#, &[("op", "stats"), ("id", "7")]);
    accepts(r#"{"op":"stats","id":7}"#, &[("op", "stats"), ("id", "7")]);
    // A quoted number reads like a bare one: values are raw text.
    accepts(r#"{"id":"7","n":7}"#, &[("id", "7"), ("n", "7")]);
    // Every structural character is plain text inside a string.
    accepts(
        r#"{"op":"load","path":"/data/{a},[b]:c d.adj"}"#,
        &[("op", "load"), ("path", "/data/{a},[b]:c d.adj")],
    );
    accepts(r#"{"add":"0-1,2-3","del":""}"#, &[("add", "0-1,2-3"), ("del", "")]);
    accepts(r#"{"":1}"#, &[("", "1")]);
    // The whole scalar alphabet: [A-Za-z0-9+-._].
    accepts(
        r#"{"a":-1,"b":+1.5e-3,"c":NaN,"d":a_b.C,"e":false,"f":0 }"#,
        &[("a", "-1"), ("b", "+1.5e-3"), ("c", "NaN"), ("d", "a_b.C"), ("e", "false"), ("f", "0")],
    );
    // Non-ASCII in keys and values, including code points next to the
    // C1 controls (U+00A0, U+00AD) and line separators that are not Cc.
    accepts(
        "{\"ключ\":\"значение\",\"k\":\"日本語 ✓ \u{1F600}\",\"nb\":\"a\u{A0}b\u{AD}c\u{2028}d\"}",
        &[("ключ", "значение"), ("k", "日本語 ✓ \u{1F600}"), ("nb", "a\u{A0}b\u{AD}c\u{2028}d")],
    );
}

#[test]
fn request_lines_the_grammar_rejects() {
    for bad in [
        "",
        " ",
        "not json",
        "{",
        "}",
        "{ ",
        "[]",
        "null",
        r#""op""#,
        r#"{"op"}"#,
        r#""op":"a"}"#,
        r#"[{"op":"a"}]"#,
        r#"{"op":}"#,
        r#"{"op": }"#,
        r#"{"op":,}"#,
        r#"{"op" "x"}"#,
        r#"{"op"::"x"}"#,
        r#"{"op":"a" trailing"#,
        r#"{"op":"a"} x"#,
        r#"{"op":"a"}{"op":"b"}"#,
        r#"{"op":"a"}}"#,
        r#"{"op":"a",}"#,
        r#"{,"op":"a"}"#,
        r#"{"op":"a",,"id":1}"#,
        r#"{"op":"a" "id":1}"#,
        r#"{"op":"a";"id":1}"#,
        r#"{op:"a"}"#,
        r#"{'op':"a"}"#,
        r#"{1:2}"#,
        r#"{"op":"a}"#,
        r#"{"op:"a"}"#,
        // Duplicate keys, adjacent or not, equal values or not.
        r#"{"op":"a","op":"b"}"#,
        r#"{"op":"a","id":1,"op":"a"}"#,
        r#"{"":1,"":1}"#,
        // Nesting and arrays.
        r#"{"nested":{"x":1}}"#,
        r#"{"a":[1]}"#,
        r#"{"a":[]}"#,
        r#"{{}}"#,
        // A backslash anywhere: requests carry no escapes.
        r#"{"op":"a\nb"}"#,
        r#"{"op":"a\\"}"#,
        r#"{"op":"a\"b"}"#,
        r#"{"op":"a\"}"#,
        r#"{"o\p":"a"}"#,
        r#"{"op":a\b}"#,
        r#"{"op":"a"}\"#,
        r#"\{"op":"a"}"#,
        // Scalars outside [A-Za-z0-9+-._].
        r#"{"a":1/2}"#,
        r#"{"a":@}"#,
        r#"{"a":é}"#,
        r#"{"a":1;}"#,
        r#"{"a":1:2}"#,
        r#"{"a":"x"y}"#,
        r#"{"a":x"y"}"#,
        r#"{"a":1 2}"#,
        r#"{"a":{}"#,
        // Whitespace that is not ASCII whitespace.
        "{\x0B}",
        "{\u{A0}}",
        "\u{FEFF}{}",
        "{}\u{2028}",
        // NUL bytes: between tokens, in a scalar, after the object.
        "{\0}",
        "{\"a\":1\0}",
        "{\"a\":\0}",
        "{}\0",
        "\0{}",
    ] {
        rejects(bad);
    }
}

#[test]
fn control_characters_are_rejected_in_keys_and_values() {
    // `char::is_control` is the Cc category: C0, DEL and the C1 range
    // U+0080..=U+009F — the last being two-byte sequences a byte scanner
    // has to look for on purpose.
    let controls = (0u32..=0x1F).chain(0x7F..=0x9F).filter_map(char::from_u32);
    let mut seen = 0;
    for c in controls {
        assert!(c.is_control());
        rejects(&format!("{{\"op\":\"a{c}b\"}}"));
        rejects(&format!("{{\"op\":\"{c}\"}}"));
        rejects(&format!("{{\"o{c}p\":\"a\"}}"));
        seen += 1;
    }
    assert_eq!(seen, 32 + 33);
    // The neighbours on either side of each range are fine.
    for c in [' ', '~', '\u{A0}'] {
        assert!(!c.is_control());
        accepts(&format!("{{\"op\":\"a{c}b\"}}"), &[("op", &format!("a{c}b"))]);
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_rejected() {
    let line =
        "{\"op\":\"submit\",\"query\":\"bfs\",\"ключ\":\"зн, а:ч\",\"source\":42,\"cached\":true}";
    accepts(line, &[("op", "submit"), ("ключ", "зн, а:ч"), ("source", "42"), ("cached", "true")]);
    for (cut, _) in line.char_indices() {
        rejects(&line[..cut]);
    }
}

#[test]
fn hostile_bulk_is_rejected_without_blowing_up() {
    rejects(&"{".repeat(64 * 1024));
    rejects(&"{\"a\":".repeat(16 * 1024));
    rejects(&format!("{{\"a\":\"{}", "x".repeat(64 * 1024)));
    rejects(&format!("{{\"a\":{}", "1".repeat(64 * 1024)));
    rejects(&"\0".repeat(64 * 1024));
    // Long but well-formed is still accepted.
    let long = "x".repeat(60 * 1024);
    accepts(&format!("{{\"a\":\"{long}\"}}"), &[("a", &long)]);
}

/// Lines the grammar accepts but the handler must refuse: a numeric field
/// whose value does not parse is an error naming that field, never a
/// silent 0. (`span` used to answer such an `id` as "no finished span for
/// id 0", and a write's `rseq` used to turn replicated-write dedup off.)
#[test]
fn typed_fields_the_handler_refuses() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let log =
        Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig { compact_threshold: None }));
    let replica = Replica::new(engine, log);
    let gen = replica.handle_line(r#"{"op":"gen","family":"grid3d","side":3}"#).0;
    assert_eq!(field_bool(&gen, "ok"), Some(true), "{gen}");
    let epoch = replica.engine().current_epoch();
    for line in [
        r#"{"op":"poll","id":"x"}"#,
        r#"{"op":"wait","id":"x"}"#,
        r#"{"op":"cancel","id":"x"}"#,
        r#"{"op":"span","id":"x"}"#,
        r#"{"op":"span","id":-1}"#,
        r#"{"op":"mutate","add":"0-26","rseq":"x"}"#,
        r#"{"op":"compact","rseq":1.5}"#,
    ] {
        let reply = replica.handle_line(line).0;
        assert_eq!(field_bool(&reply, "ok"), Some(false), "{line} -> {reply}");
        let error = field(&reply, "error").unwrap_or_default();
        assert!(error.contains("cannot parse"), "{line} -> {reply}");
    }
    assert_eq!(replica.engine().current_epoch(), epoch, "a refused write was applied");
}
