//! PBBS `AdjacencyGraph` text format — the input format of the original
//! Ligra implementation.
//!
//! ```text
//! AdjacencyGraph        (or WeightedAdjacencyGraph)
//! <n>
//! <m>
//! <offset 0>            n offset lines
//! ...
//! <target 0>            m target lines
//! ...
//! <weight 0>            m weight lines (weighted format only)
//! ```
//!
//! Parsing accepts any ASCII whitespace between tokens, so files written
//! one-token-per-line or space-separated both load.

use crate::csr::{Adjacency, Graph, WeightedGraph};
use ligra_parallel::checked_u32;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const UNWEIGHTED_HEADER: &str = "AdjacencyGraph";
const WEIGHTED_HEADER: &str = "WeightedAdjacencyGraph";

/// Errors from reading an adjacency-graph file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> IoError {
    IoError::Parse(msg.into())
}

/// Streaming whitespace-separated token reader.
struct Tokens<R: BufRead> {
    reader: R,
    buf: String,
}

impl<R: BufRead> Tokens<R> {
    fn new(reader: R) -> Self {
        Tokens { reader, buf: String::new() }
    }

    /// Next whitespace-delimited token, or `None` at EOF. Blank lines are
    /// plain whitespace, and a `#` outside a token comments out the rest
    /// of its line (annotated files from preprocessing scripts load
    /// as-is).
    fn next(&mut self) -> Result<Option<&str>, IoError> {
        self.buf.clear();
        // Skip leading whitespace and `#`-to-end-of-line comments.
        let mut in_comment = false;
        loop {
            let (skip, chunk_len) = {
                let b = self.reader.fill_buf()?;
                if b.is_empty() {
                    return Ok(None);
                }
                let mut skip = 0;
                for &c in b {
                    if in_comment {
                        in_comment = c != b'\n';
                    } else if c == b'#' {
                        in_comment = true;
                    } else if !c.is_ascii_whitespace() {
                        break;
                    }
                    skip += 1;
                }
                (skip, b.len())
            };
            self.reader.consume(skip);
            if skip < chunk_len {
                break; // next byte is part of a token
            }
        }
        // Accumulate token bytes (may span buffer refills).
        loop {
            let (take, chunk_len) = {
                let b = self.reader.fill_buf()?;
                if b.is_empty() {
                    break;
                }
                let take = b.iter().take_while(|c| !c.is_ascii_whitespace()).count();
                self.buf.push_str(
                    std::str::from_utf8(&b[..take]).map_err(|_| parse_err("non-UTF8 token"))?,
                );
                (take, b.len())
            };
            self.reader.consume(take);
            if take < chunk_len {
                break; // hit whitespace inside the chunk
            }
        }
        if self.buf.is_empty() {
            Ok(None)
        } else {
            Ok(Some(&self.buf))
        }
    }

    fn expect_u64(&mut self, what: &str) -> Result<u64, IoError> {
        match self.next()? {
            Some(t) => t.parse().map_err(|_| parse_err(format!("bad {what}: {t:?}"))),
            None => Err(parse_err(format!("unexpected EOF reading {what}"))),
        }
    }

    fn expect_i64(&mut self, what: &str) -> Result<i64, IoError> {
        match self.next()? {
            Some(t) => t.parse().map_err(|_| parse_err(format!("bad {what}: {t:?}"))),
            None => Err(parse_err(format!("unexpected EOF reading {what}"))),
        }
    }
}

/// Cap on speculative preallocation from file-supplied counts. A
/// corrupted header can claim absurd `n`/`m`; reserving at most this many
/// entries up front (and letting `push` grow to the real, token-backed
/// size) turns a bit-flipped count into a parse error instead of an
/// allocation abort.
const MAX_PREALLOC: usize = 1 << 22;

fn read_csr_body<R: BufRead, W, F>(
    toks: &mut Tokens<R>,
    mut read_weights: F,
) -> Result<Adjacency<W>, IoError>
where
    W: Copy + Send + Sync,
    F: FnMut(&mut Tokens<R>, usize) -> Result<Vec<W>, IoError>,
{
    let n64 = toks.expect_u64("vertex count")?;
    // Vertex ids are u32 throughout the CSR; a larger claimed n could
    // also push `checked_u32` on targets into a panic.
    if n64 > u32::MAX as u64 + 1 {
        return Err(parse_err(format!("vertex count {n64} exceeds the u32 id space")));
    }
    let n = n64 as usize;
    let m = toks.expect_u64("edge count")? as usize;
    let mut offsets = Vec::with_capacity((n + 1).min(MAX_PREALLOC));
    for i in 0..n {
        let o = toks.expect_u64("offset")?;
        if o > m as u64 {
            return Err(parse_err(format!("offset {o} of vertex {i} exceeds m = {m}")));
        }
        offsets.push(o);
    }
    offsets.push(m as u64);
    if offsets[0] != 0 {
        return Err(parse_err(format!("first offset must be 0, got {}", offsets[0])));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(parse_err("offsets are not monotone"));
    }
    let mut targets = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        let t = toks.expect_u64("edge target")?;
        if t >= n as u64 {
            return Err(parse_err(format!("edge target {t} out of range (n = {n})")));
        }
        targets.push(checked_u32(t));
    }
    let weights = read_weights(toks, m)?;
    Ok(Adjacency::new(offsets, targets, weights))
}

/// Reads an unweighted `AdjacencyGraph`.
///
/// `symmetric` declares how to interpret the CSR: `true` wraps it as a
/// symmetric graph (caller promises each edge appears in both lists, as
/// Ligra's `-s` flag does); `false` builds the transpose for the in-CSR.
pub fn read_adjacency_graph<R: Read>(reader: R, symmetric: bool) -> Result<Graph, IoError> {
    let mut toks = Tokens::new(BufReader::new(reader));
    match toks.next()? {
        Some(h) if h == UNWEIGHTED_HEADER => {}
        Some(h) => return Err(parse_err(format!("expected {UNWEIGHTED_HEADER}, got {h:?}"))),
        None => return Err(parse_err("empty file")),
    }
    let adj = read_csr_body(&mut toks, |_, _| Ok(vec![(); 0]))?;
    // The unit-weight vector length is unchecked for W = (); normalize.
    finish_graph(adj, symmetric)
}

/// Reads a `WeightedAdjacencyGraph`.
pub fn read_weighted_adjacency_graph<R: Read>(
    reader: R,
    symmetric: bool,
) -> Result<WeightedGraph, IoError> {
    let mut toks = Tokens::new(BufReader::new(reader));
    match toks.next()? {
        Some(h) if h == WEIGHTED_HEADER => {}
        Some(h) => return Err(parse_err(format!("expected {WEIGHTED_HEADER}, got {h:?}"))),
        None => return Err(parse_err("empty file")),
    }
    let adj = read_csr_body(&mut toks, |toks, m| {
        let mut ws = Vec::with_capacity(m.min(MAX_PREALLOC));
        for _ in 0..m {
            ws.push(toks.expect_i64("edge weight")? as i32);
        }
        Ok(ws)
    })?;
    finish_graph(adj, symmetric)
}

fn finish_graph<W: Copy + Send + Sync + Ord>(
    adj: Adjacency<W>,
    symmetric: bool,
) -> Result<Graph<W>, IoError> {
    if symmetric {
        Ok(Graph::symmetric(adj))
    } else {
        Ok(Graph::directed_from_out(adj))
    }
}

/// Writes `g`'s out-CSR in `AdjacencyGraph` format.
pub fn write_adjacency_graph<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{UNWEIGHTED_HEADER}")?;
    write_csr_body(g, &mut w, |_, _| Ok(()))?;
    w.flush()
}

/// Writes `g`'s out-CSR in `WeightedAdjacencyGraph` format.
pub fn write_weighted_adjacency_graph<W: Write>(g: &WeightedGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{WEIGHTED_HEADER}")?;
    write_csr_body(g, &mut w, |g, w| {
        let mut buf = String::new();
        for &wt in g.out_adj().weight_slice() {
            buf.clear();
            let _ = writeln!(buf, "{wt}");
            w.write_all(buf.as_bytes())?;
        }
        Ok(())
    })?;
    w.flush()
}

fn write_csr_body<Wt, W, F>(g: &Graph<Wt>, w: &mut BufWriter<W>, weights: F) -> io::Result<()>
where
    Wt: Copy + Send + Sync,
    W: Write,
    F: Fn(&Graph<Wt>, &mut BufWriter<W>) -> io::Result<()>,
{
    // The raw-array walk below needs a contiguous CSR; flatten any live
    // delta overlay first (cheap clone otherwise).
    let compacted;
    let g = if g.has_overlay() {
        compacted = g.compacted();
        &compacted
    } else {
        g
    };
    let n = g.num_vertices();
    let m = g.num_edges();
    writeln!(w, "{n}")?;
    writeln!(w, "{m}")?;
    let mut buf = String::new();
    for &o in &g.out_adj().offsets()[..n] {
        buf.clear();
        let _ = writeln!(buf, "{o}");
        w.write_all(buf.as_bytes())?;
    }
    for &t in g.out_adj().targets() {
        buf.clear();
        let _ = writeln!(buf, "{t}");
        w.write_all(buf.as_bytes())?;
    }
    weights(g, w)
}

/// Convenience: read an unweighted graph from a file path.
pub fn load_graph(path: impl AsRef<Path>, symmetric: bool) -> Result<Graph, IoError> {
    read_adjacency_graph(std::fs::File::open(path)?, symmetric)
}

/// Convenience: write an unweighted graph to a file path.
pub fn save_graph(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    write_adjacency_graph(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, build_weighted_graph, BuildOptions};
    use crate::generators::erdos_renyi;

    #[test]
    fn roundtrip_unweighted_symmetric() {
        let g = erdos_renyi(100, 800, 1, true);
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let g2 = read_adjacency_graph(&buf[..], true).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(g.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn roundtrip_directed_rebuilds_transpose() {
        let g = build_graph(4, &[(0, 1), (0, 2), (3, 1)], BuildOptions::directed());
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let g2 = read_adjacency_graph(&buf[..], false).unwrap();
        assert!(!g2.is_symmetric());
        assert_eq!(g2.in_neighbors(1), &[0, 3]);
        crate::properties::assert_valid(&g2);
    }

    #[test]
    fn roundtrip_weighted() {
        let g = build_weighted_graph(
            3,
            &[(0, 1), (1, 2), (2, 0)],
            &[5, -2, 7],
            BuildOptions::directed(),
        );
        let mut buf = Vec::new();
        write_weighted_adjacency_graph(&g, &mut buf).unwrap();
        let g2 = read_weighted_adjacency_graph(&buf[..], false).unwrap();
        assert_eq!(g2.out_weights(0), &[5]);
        assert_eq!(g2.out_weights(1), &[-2]);
        assert_eq!(g2.out_weights(2), &[7]);
    }

    #[test]
    fn parses_space_separated_tokens() {
        let text = "AdjacencyGraph 3 2 0 1 2 1 2";
        let g = read_adjacency_graph(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[2]);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# graph exported by prep.py\n\nAdjacencyGraph  # header\n\n3 # n\n2 # m\n\
                    \n0\n1 2  # offsets end, targets follow\n1\n2\n# trailing note\n";
        let g = read_adjacency_graph(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[2]);
    }

    #[test]
    fn annotated_file_round_trips_through_writer() {
        let g = erdos_renyi(40, 200, 2, true);
        let mut canonical = Vec::new();
        write_adjacency_graph(&g, &mut canonical).unwrap();
        // Splice comments and blank lines into the canonical text, then
        // re-read and compare structure exactly.
        let body = String::from_utf8(canonical.clone()).unwrap();
        let mut noisy = String::from("# banner\n\n");
        for (i, line) in body.lines().enumerate() {
            noisy.push_str(line);
            if i % 7 == 0 {
                noisy.push_str("  # note");
            }
            noisy.push('\n');
            if i % 11 == 0 {
                noisy.push('\n');
            }
        }
        let g2 = read_adjacency_graph(noisy.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(g.out_neighbors(v), g2.out_neighbors(v));
        }
        // And the comment-free writer output of the re-read graph matches
        // the original canonical bytes.
        let mut rewritten = Vec::new();
        write_adjacency_graph(&g2, &mut rewritten).unwrap();
        assert_eq!(canonical, rewritten);
    }

    #[test]
    fn comment_only_file_is_empty_not_a_panic() {
        let text = "# nothing here\n# really\n";
        assert!(matches!(read_adjacency_graph(text.as_bytes(), true), Err(IoError::Parse(_))));
    }

    #[test]
    fn rejects_wrong_header() {
        let text = "NotAGraph\n1\n0\n0\n";
        assert!(matches!(read_adjacency_graph(text.as_bytes(), true), Err(IoError::Parse(_))));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "AdjacencyGraph\n3\n2\n0\n1\n";
        assert!(read_adjacency_graph(text.as_bytes(), true).is_err());
    }

    #[test]
    fn rejects_out_of_range_target() {
        let text = "AdjacencyGraph\n2\n1\n0\n1\n5\n";
        let e = read_adjacency_graph(text.as_bytes(), true).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_non_monotone_offsets() {
        let text = "AdjacencyGraph\n3\n2\n0\n2\n1\n0\n1\n";
        let e = read_adjacency_graph(text.as_bytes(), true).unwrap_err();
        assert!(e.to_string().contains("monotone"), "{e}");
    }

    #[test]
    fn file_path_roundtrip() {
        let g = erdos_renyi(30, 100, 4, true);
        let dir = std::env::temp_dir().join("ligra_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.adj");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path, true).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(&path).unwrap();
    }
}
