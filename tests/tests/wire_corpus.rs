//! One accept/reject corpus for the two readers of "one flat JSON object
//! per line": `ligra_engine::Request::parse` (requests) and
//! `ligra::from_json_lines` (kernel-trace import).
//!
//! The table pins the *set* of accepted lines and, on accept, every field
//! and value — not error wording. It was written against the parsers the
//! shared `ligra::jsonl` scanner replaced and passes unchanged on both,
//! which is the evidence that the replacement kept the grammar.

use ligra::{from_json_lines, to_json_lines, Mode, Op, ReprKind, RoundStat, TraversalStats};
use ligra_engine::Request;

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
        "{",
        "}",
        "{ ",
        "[]",
        "null",
        r#""op""#,
        r#"{"op"}"#,
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

// ---- kernel-trace import -------------------------------------------------

fn sample_trace() -> TraversalStats {
    let mut t = TraversalStats::new();
    t.rounds.push(RoundStat {
        op: Op::EdgeMap,
        frontier_vertices: 900,
        frontier_out_edges: 8000,
        work: 8900,
        threshold: 500,
        forced: false,
        mode: Mode::Dense,
        input_repr: ReprKind::Sparse,
        output_repr: ReprKind::Dense,
        converted: true,
        output_vertices: 80,
        frontier_bytes: 256,
        time_ns: 5678,
        cas_attempts: 3,
        cas_wins: 2,
        edges_scanned: 1000,
        edges_skipped: 9000,
        partitions: 8,
        bins_flushed: 24,
        scatter_bytes: u64::MAX,
    });
    t.rounds.push(RoundStat::vertex_op(Op::VertexMap, 80, ReprKind::Dense, 80));
    t
}

/// The first exported line of [`sample_trace`].
fn sample_line() -> String {
    to_json_lines(&sample_trace()).lines().next().expect("one line").to_string()
}

#[test]
fn trace_lines_the_importer_accepts() {
    let t = sample_trace();
    let text = to_json_lines(&t);
    assert_eq!(from_json_lines(&text).unwrap(), t);
    assert_eq!(from_json_lines("").unwrap(), TraversalStats::new());
    assert_eq!(from_json_lines("\n  \n\t\n").unwrap(), TraversalStats::new());

    // Blank lines, CRLF endings and indentation do not matter.
    let spaced = text.replace('\n', "\r\n\r\n  ");
    assert_eq!(from_json_lines(&format!("\n \t{spaced}")).unwrap(), t);
    // Nor does whitespace around any token.
    let airy = text.replace(',', " ,\t").replace("\":", "\" : ").replace('{', "{ ");
    let airy = airy.replace('}', " }");
    assert_eq!(from_json_lines(&airy).unwrap(), t);

    // Field order is free, unknown fields are ignored, and closed-vocabulary
    // strings read the same bare as quoted.
    let line = sample_line();
    let one = TraversalStats { rounds: vec![t.rounds[0]] };
    let body = line.trim_start_matches('{').trim_end_matches('}');
    let mut pairs: Vec<&str> = body.split(',').collect();
    pairs.reverse();
    let shuffled = format!("{{\"extra\":1,{},\"note\":\"x\"}}", pairs.join(","));
    assert_eq!(from_json_lines(&shuffled).unwrap(), one);
    let bare = line.replace("\"dense\"", "dense").replace("\"edge_map\"", "edge_map");
    assert_ne!(bare, line);
    assert_eq!(from_json_lines(&bare).unwrap(), one);
    // A repeated key reads as its first occurrence.
    let twice = line.replace("\"work\":8900", "\"work\":8900,\"work\":1");
    assert_ne!(twice, line);
    assert_eq!(from_json_lines(&twice).unwrap(), one);
}

#[test]
fn trace_lines_the_importer_rejects() {
    let line = sample_line();
    assert!(from_json_lines(&line).is_ok());
    for (from, to) in [
        // Not a u64 / not a bool / outside the closed vocabularies.
        ("\"work\":8900", "\"work\":-1"),
        ("\"work\":8900", "\"work\":1.5"),
        ("\"work\":8900", "\"work\":\"many\""),
        ("\"work\":8900", "\"work\":18446744073709551616"),
        ("\"work\":8900", "\"work\":"),
        ("\"work\":8900", "\"work\":8900\0"),
        ("\"work\":8900", "\"work\":{\"x\":1}"),
        ("\"work\":8900", "\"work\":[8900]"),
        ("\"forced\":false", "\"forced\":0"),
        ("\"forced\":false", "\"forced\":\"no\""),
        ("\"mode\":\"dense\"", "\"mode\":\"sideways\""),
        ("\"mode\":\"dense\"", "\"mode\":\"\""),
        ("\"mode\":\"dense\"", "\"mode\":\"den\u{1}se\""),
        ("\"mode\":\"dense\"", "\"mode\":\"den\u{85}se\""),
        ("\"mode\":\"dense\"", "\"mode\":\"плотный\""),
        ("\"op\":\"edge_map\"", "\"op\":\"edge,map\""),
        // Quotes and escapes the schema never emits.
        ("\"mode\":\"dense\"", "\"mode\":\"den\"se\""),
        ("\"mode\":\"dense\"", "\"mode\":\"den\\u0022se\""),
        ("\"mode\":\"dense\"", "\"mode\":\"dense\\\\\""),
        ("\"mode\":\"dense\"", "\"mode\":\"dense"),
        // A missing field, a missing separator, trailing input.
        ("\"work\":8900,", ""),
        ("\"work\":8900,", "\"work\":8900"),
        ("\"work\":8900,", "\"work\" 8900,"),
        ("\"scatter_bytes\":18446744073709551615}", "\"scatter_bytes\":1} x"),
        ("\"scatter_bytes\":18446744073709551615}", "\"scatter_bytes\":1}}"),
        ("{\"round\":0", "\"round\":0"),
        ("{\"round\":0", "[{\"round\":0"),
    ] {
        let bad = line.replacen(from, to, 1);
        assert_ne!(bad, line, "mutation {to:?} did not apply");
        assert!(from_json_lines(&bad).is_err(), "accepted {to:?}");
        // One bad line poisons the whole import, wherever it sits.
        assert!(from_json_lines(&format!("{line}\n{bad}\n")).is_err(), "accepted late {to:?}");
    }
    for bad in ["not json", "{\"round\":0}", "{}", "{", "}", "\0"] {
        assert!(from_json_lines(bad).is_err(), "accepted {bad:?}");
    }
    assert!(from_json_lines(&"{".repeat(64 * 1024)).is_err());
    // Every proper prefix that is not blank.
    for (cut, _) in line.char_indices().skip(1) {
        assert!(from_json_lines(&line[..cut]).is_err(), "accepted prefix {:?}", &line[..cut]);
    }
}
