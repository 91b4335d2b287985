//! `edgeMap` — Ligra's central primitive, with automatic direction
//! optimization.
//!
//! `edge_map(G, U, F)` applies `F` to every edge `(u, v)` with `u ∈ U` and
//! `C(v)`, returning the subset of targets for which `F` returned `true`.
//! `G` is any [`Neighbors`] representation — CSR (delta overlays included)
//! or a compressed graph — and every kernel below is written once against
//! that trait. Four concrete traversals implement it:
//!
//! * **sparse** (push): the frontier's out-edge range is split into
//!   fixed-size blocks of [`EDGE_BLOCK`] edges (Ligra's granular
//!   parallel_for), so skewed degree distributions load-balance without
//!   per-edge task overhead. Each block writes the targets it claims into a
//!   local buffer; a prefix-sum stitch then copies the buffers into an
//!   exact-size output — no sentinel-filled `Σ deg⁺(u)` array and no second
//!   full-array compaction pass. The frontier's out-degrees are read once
//!   per round, before the direction test: their sum is the heuristic's
//!   `Σ deg⁺(U)`, and a push round scans the same array into its block
//!   offsets.
//! * **dense** (pull): parallel over *all* vertices, scanning each
//!   unclaimed target's in-edges sequentially with an early exit as soon as
//!   `cond` turns false. O(n + m) worst case, but for huge frontiers the
//!   early exit reads only a small fraction of edges, and no atomics are
//!   needed because each target has one owner thread. The frontier is the
//!   packed [`BitSet`]: one bit per source vertex read, and each task owns
//!   one 64-bit word of the output. An `F` that defines
//!   [`EdgeMapFn::gather`] is a reduction with no early exit to lose, and
//!   gets the round as a row reduce instead: `cond` once, then the
//!   target's in-list — already restricted to the frontier, and the bare
//!   list with no membership probe at all when the frontier is all of
//!   `V` — folded by the app into a local and written once.
//! * **dense-forward** (push over dense frontier): the paper's
//!   write-based dense variant — walks every frontier vertex's out-edges,
//!   needing no transpose but atomic updates and no early exit. Zero words
//!   of the frontier bitset skip 64 non-members with a single load.
//! * **partitioned** (cache-aware scatter/gather): vertices are
//!   pre-split into contiguous cache-fitting segments
//!   (`ligra_graph::partition`). A scatter pass walks the frontier's
//!   out-edges and appends `(src, dst, weight)` entries into one bin per
//!   destination partition — sequential streams instead of random writes —
//!   then a gather pass drains each partition's bin in source order,
//!   applying the *non-atomic* [`EdgeMapFn::update`]: every destination
//!   belongs to exactly one partition and each partition is drained by one
//!   task, so writes are partition-exclusive, the same single-owner
//!   contract as the pull traversal. The payoff is locality: on graphs
//!   whose destination state outgrows the LLC, dense pull takes a likely
//!   miss per edge, while the gather phase touches one cache-sized segment
//!   of state at a time.
//!
//! The one thing a kernel asks of the representation beyond its edge
//! lists is [`Neighbors::SEEKABLE`]: where a list can be entered at any
//! offset (CSR), the push kernels split a hub's out-edges across tasks at
//! [`EDGE_BLOCK`] granularity; where it can only be streamed from its head
//! (a difference-encoded list), blocks own whole vertices, so each list is
//! decoded at most once per round. The choice is made from the type.
//!
//! The direction heuristic (the paper's `|U| + Σ deg⁺(u) > m/20`) picks
//! pull for large frontiers and push for small ones, generalizing Beamer
//! et al.'s direction-optimizing BFS to every frontier algorithm. That
//! one test is the whole chooser: dense-forward and partitioned run only
//! when forced through [`EdgeMapOptions::traversal`].
//!
//! Every round can be observed through a [`Recorder`]: when the recorder is
//! enabled, the round is timed, the heuristic's inputs are captured, the
//! frontier bytes the traversal streams are reported, and the traversals
//! count atomic-update attempts/wins (push modes) and in-edges scanned vs.
//! skipped by the early exit (pull mode). Each task tallies its edges in
//! locals and adds them to the round once when it ends, so recording costs
//! a few adds per task and no shared write per edge. When disabled (the
//! [`NoopRecorder`] default), no clock is read and nothing is added — not
//! even the O(|U|) frontier-degree pass runs, if the round is forced into
//! a non-push traversal and the heuristic doesn't need it.

use crate::options::{EdgeMapOptions, Traversal};
use crate::race::RaceOracle;
use crate::stats::{Mode, NoopRecorder, Recorder, ReprKind, RoundStat};
use crate::traits::EdgeMapFn;
use crate::vertex_subset::VertexSubset;
use ligra_graph::partition::Partitioning;
use ligra_graph::{Neighbors, VertexId};
use ligra_parallel::bins::{fragment_row, stitch, Fragments};
use ligra_parallel::bitvec::BitSet;
use ligra_parallel::checked_u32;
use ligra_parallel::scan::{prefix_sums, scan_exclusive};
use ligra_parallel::utils::SendPtr;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Edges per block of the edge-balanced sparse/hub traversals.
///
/// The push traversal splits the frontier's edge range `0..Σ deg⁺(u)` into
/// blocks of this many edges and hands each block to one task: a power-law
/// hub contributes to many blocks instead of serializing a round on one
/// thread, and a run of low-degree vertices shares one block instead of
/// paying per-vertex task overhead.
pub const EDGE_BLOCK: usize = 1 << 12;

/// `edgeMap` with default options (auto direction, `m/20` threshold).
///
/// The input subset may be converted between representations in place —
/// that is the conversion caching the original system performs.
pub fn edge_map<G, F>(g: &G, frontier: &mut VertexSubset, f: &F) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    edge_map_with(g, frontier, f, EdgeMapOptions::default())
}

/// `edgeMap` with explicit [`EdgeMapOptions`].
pub fn edge_map_with<G, F>(
    g: &G,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    edge_map_recorded(g, frontier, f, opts, &mut NoopRecorder)
}

/// `edgeMap` delivering one timed, counter-annotated [`RoundStat`] to an
/// arbitrary [`Recorder`] (a `&mut TraversalStats` collects a trace).
pub fn edge_map_recorded<G, F, R>(
    g: &G,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    rec: &mut R,
) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
    R: Recorder,
{
    let n = g.num_vertices();
    assert_eq!(frontier.num_vertices(), n, "frontier universe does not match the graph");

    // Cooperative cancellation: a cancelled (or deadline-expired) token
    // turns this round into an empty result, so frontier-driven loops
    // drain at the round boundary without touching any edge. Nothing is
    // recorded — the round did not run.
    if opts.is_cancelled() {
        return VertexSubset::empty(n);
    }

    let tracing = rec.enabled();
    let start = tracing.then(Instant::now);

    let frontier_vertices = frontier.len() as u64;
    // Σ deg⁺(U) is read only by the Auto heuristic and the record, so a
    // forced, unrecorded round skips it. A sparse frontier's degrees are
    // read once, here, whenever the sum or a push round needs them: the
    // push scans the same array into its block offsets.
    let need_work = tracing || matches!(opts.traversal, Traversal::Auto);
    let degrees = match frontier.sparse() {
        Some(vs) if need_work || opts.traversal == Traversal::Sparse => Some(out_degrees(g, vs)),
        _ => None,
    };
    let out_edges = if !need_work {
        0
    } else if let Some(d) = &degrees {
        d.par_iter().sum()
    } else {
        frontier_degree_sum(g, frontier)
    };
    let work = frontier_vertices + out_edges;
    let threshold = opts.effective_threshold(g.num_edges());

    let mode = match opts.traversal {
        Traversal::Sparse => Mode::Sparse,
        Traversal::Dense => Mode::Dense,
        Traversal::DenseForward => Mode::DenseForward,
        Traversal::Partitioned => Mode::Partitioned,
        Traversal::Auto if work > threshold => Mode::Dense,
        Traversal::Auto => Mode::Sparse,
    };

    let input_sparse = frontier.is_sparse();
    let tally = RoundTally::default();
    let hooks = Hooks { tally: tracing.then_some(&tally), oracle: opts.oracle };

    // A new round starts: reset the oracle's per-round win ledger so a
    // Claim-contract function may legitimately re-win targets it claimed
    // in earlier rounds (Bellman–Ford relaxations, k-core decrements).
    #[cfg(feature = "race-check")]
    if let Some(o) = opts.oracle {
        o.begin_round();
    }

    // The `edgemap.round` fault point fires before any edge is touched.
    // This site has no error channel, so the Error action also surfaces
    // as an unwind with the typed FaultError payload; the engine's
    // catch_unwind boundary tells the two apart via `FaultError::action`.
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = opts.fault {
        if let Err(e) = plan.check(crate::fault::FaultPoint::EdgemapRound) {
            std::panic::panic_any(e);
        }
    }

    let mut pstats = PartitionedRoundStats::default();
    let result = if frontier.is_empty() {
        VertexSubset::empty(n)
    } else {
        match mode {
            Mode::Sparse => {
                // A dense frontier's degrees were not read above: it is
                // converted first, then walked.
                let vs = frontier.as_slice();
                let degrees = degrees.unwrap_or_else(|| out_degrees(g, vs));
                sparse(g, vs, &degrees, f, opts.output, hooks)
            }
            Mode::Dense => {
                let whole = frontier.len() == n;
                dense(g, frontier.as_bits(), whole, f, opts.output, hooks)
            }
            Mode::DenseForward => dense_forward(g, frontier.as_bits(), f, opts.output, hooks),
            Mode::Partitioned => {
                let part = g.partitioning_with(opts.partition_bits);
                let (res, ps) = partitioned(g, frontier.as_bits(), f, opts.output, &part, hooks);
                pstats = ps;
                res
            }
        }
    };

    if tracing {
        // The chosen traversal needs sparse input iff it is the push mode;
        // a mismatch with the entry representation means `as_slice` /
        // `as_bits` converted the frontier above (empty frontiers take
        // neither path).
        let wants_sparse = mode == Mode::Sparse;
        let converted = !frontier.is_empty() && wants_sparse != input_sparse;
        // Frontier bytes the traversal streamed: the input representation it
        // consumed plus the output it produced. Sparse push reads 4 bytes
        // per frontier entry and writes exactly 4 per claimed target (the
        // chunked compaction allocates no sentinel slots); the dense modes
        // stream the packed n/8-byte bitset each way.
        let frontier_bytes = if frontier.is_empty() {
            0
        } else {
            match mode {
                Mode::Sparse => 4 * (frontier_vertices + result.len() as u64),
                Mode::Dense | Mode::DenseForward | Mode::Partitioned => {
                    let words = (n.div_ceil(64) * 8) as u64;
                    words + if opts.output { words } else { 0 }
                }
            }
        };
        let c = tally.into_counts();
        rec.record(RoundStat {
            op: crate::stats::Op::EdgeMap,
            frontier_vertices,
            frontier_out_edges: out_edges,
            work,
            threshold,
            forced: !matches!(opts.traversal, Traversal::Auto),
            mode,
            input_repr: if input_sparse { ReprKind::Sparse } else { ReprKind::Dense },
            output_repr: if result.is_sparse() { ReprKind::Sparse } else { ReprKind::Dense },
            converted,
            output_vertices: result.len() as u64,
            frontier_bytes,
            time_ns: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
            cas_attempts: c.cas_attempts,
            cas_wins: c.cas_wins,
            edges_scanned: c.edges_scanned,
            edges_skipped: c.edges_skipped,
            partitions: pstats.partitions,
            bins_flushed: pstats.bins_flushed,
            scatter_bytes: pstats.scatter_bytes,
        });
    }
    result
}

/// One task's share of a recorded round's edge counters, kept in locals
/// by the kernel loops and added to the round's [`RoundTally`] once when
/// the task ends.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    /// `update_atomic` calls on `cond`-passing targets.
    cas_attempts: u64,
    /// `update_atomic` calls that returned `true`.
    cas_wins: u64,
    /// Edges examined (out-edges pushed, or in-edges read before early exit).
    edges_scanned: u64,
    /// In-edges the pull traversal did not read; entries the partitioned
    /// gather dropped on `cond`.
    edges_skipped: u64,
}

/// A recorded round's counters: every task adds its [`Counts`] here once,
/// from whichever thread ran it. Lives on `edge_map_recorded`'s stack.
#[derive(Debug, Default)]
struct RoundTally {
    cas_attempts: AtomicU64,
    cas_wins: AtomicU64,
    edges_scanned: AtomicU64,
    edges_skipped: AtomicU64,
}

impl RoundTally {
    /// Adds the nonzero counts only: on a small frontier most dense-forward
    /// word tasks own no member, and four read-modify-writes apiece would
    /// cost the round more than its edges do.
    fn add(&self, c: Counts) {
        for (cell, n) in [
            (&self.cas_attempts, c.cas_attempts),
            (&self.cas_wins, c.cas_wins),
            (&self.edges_scanned, c.edges_scanned),
            (&self.edges_skipped, c.edges_skipped),
        ] {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn into_counts(self) -> Counts {
        Counts {
            cas_attempts: self.cas_attempts.into_inner(),
            cas_wins: self.cas_wins.into_inner(),
            edges_scanned: self.edges_scanned.into_inner(),
            edges_skipped: self.edges_skipped.into_inner(),
        }
    }
}

/// What a kernel reports into besides its result: the round's tally
/// (present iff the round is recorded) and the race oracle (consulted
/// only in `race-check` builds). Every per-edge user-function call goes
/// through one of the `apply_*`/`gather_*` methods, so the hook protocol
/// is written once.
#[derive(Clone, Copy)]
struct Hooks<'a> {
    tally: Option<&'a RoundTally>,
    #[cfg_attr(not(feature = "race-check"), allow(dead_code))]
    oracle: Option<&'a RaceOracle>,
}

impl Hooks<'_> {
    /// [`EdgeMapFn::update_atomic`] on a racy (push) edge, bracketed by
    /// the oracle's atomic-entry hooks and counted as a CAS attempt/win in
    /// the calling task's `c`.
    #[inline(always)]
    fn apply_atomic<W, F: EdgeMapFn<W>>(
        &self,
        f: &F,
        u: VertexId,
        v: VertexId,
        w: W,
        c: &mut Counts,
    ) -> bool {
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.enter_atomic(u, v);
        }
        let won = f.update_atomic(u, v, w);
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.exit_atomic(u, v, won);
        }
        c.cas_attempts += 1;
        c.cas_wins += u64::from(won);
        won
    }

    /// [`EdgeMapFn::update`] on an edge whose target this task owns (pull
    /// and gather), bracketed by the oracle's exclusive-entry hooks.
    #[inline(always)]
    fn apply_exclusive<W, F: EdgeMapFn<W>>(&self, f: &F, u: VertexId, v: VertexId, w: W) -> bool {
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.enter_exclusive(u, v);
        }
        let won = f.update(u, v, w);
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.exit_exclusive(u, v, won);
        }
        won
    }

    /// [`EdgeMapFn::gather`] on a target this task owns: one exclusive
    /// bracket around the whole fold (the target stands in for the
    /// source). A function that does not gather answers `None` inside the
    /// bracket and is then scanned through [`Self::apply_exclusive`].
    #[inline(always)]
    fn gather_exclusive<W, F, I>(&self, f: &F, v: VertexId, edges: I) -> Option<bool>
    where
        F: EdgeMapFn<W>,
        I: Iterator<Item = (VertexId, W)>,
    {
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.enter_exclusive(v, v);
        }
        let won = f.gather(v, edges);
        #[cfg(feature = "race-check")]
        if let Some(o) = self.oracle {
            o.exit_exclusive(v, v, won == Some(true));
        }
        won
    }

    /// Adds one finished task's counts to the round, if it is recorded.
    #[inline]
    fn add(&self, c: Counts) {
        if let Some(t) = self.tally {
            t.add(c);
        }
    }
}

/// The members of one frontier-bitset word, ascending.
#[inline]
fn word_members(wi: usize, mut w: u64) -> impl Iterator<Item = VertexId> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let v = checked_u32(wi * 64) + w.trailing_zeros();
            w &= w - 1;
            v
        })
    })
}

/// The out-degrees of a sparse frontier's members, in frontier order.
fn out_degrees<G: Neighbors>(g: &G, vs: &[VertexId]) -> Vec<u64> {
    vs.par_iter().map(|&u| g.out_degree(u) as u64).collect()
}

/// `|U|`'s incident out-edge count for a frontier whose degrees were not
/// read by [`out_degrees`], without converting it. All of `V` has all `m`
/// arcs — what a whole-graph app would otherwise re-derive every
/// iteration; a proper dense subset is decoded word-at-a-time, skipping
/// 64 non-members per zero word.
fn frontier_degree_sum<G: Neighbors>(g: &G, frontier: &VertexSubset) -> u64 {
    if frontier.len() == g.num_vertices() {
        g.num_edges() as u64
    } else if let Some(bits) = frontier.dense() {
        bits.words()
            .par_iter()
            .enumerate()
            .map(|(wi, &w)| word_members(wi, w).map(|v| g.out_degree(v) as u64).sum::<u64>())
            .sum()
    } else {
        unreachable!("a sparse frontier's degrees are read by out_degrees")
    }
}

/// Push traversal over a sparse frontier `vs` whose out-degrees are
/// `degrees`.
fn sparse<G, F>(
    g: &G,
    vs: &[VertexId],
    degrees: &[u64],
    f: &F,
    output: bool,
    hooks: Hooks<'_>,
) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    let n = g.num_vertices();
    // Offsets of each source's run within the frontier's edge range.
    let (offsets, total) = prefix_sums(degrees);
    let total = total as usize;
    if total == 0 {
        return VertexSubset::empty(n);
    }

    // Edge-balanced blocks: block `b` covers edges [b*EDGE_BLOCK, ...) of
    // the frontier's concatenated edge range. On a seekable representation
    // it owns exactly those edges, entering its first source mid-list
    // (offsets[0] == 0, so that partition point is never 0); on a streamed
    // one it owns the sources whose runs *start* in the range and walks
    // each to its end. Winners go to a block-local buffer; no shared
    // output array, no sentinels.
    let nblocks = total.div_ceil(EDGE_BLOCK);
    let buffers: Vec<Vec<u32>> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = (b * EDGE_BLOCK) as u64;
            let hi = (((b + 1) * EDGE_BLOCK).min(total)) as u64;
            let first = if G::SEEKABLE {
                offsets.partition_point(|&o| o <= lo) - 1
            } else {
                offsets.partition_point(|&o| o < lo)
            };
            let mut buf: Vec<u32> =
                if output { Vec::with_capacity((hi - lo) as usize) } else { Vec::new() };
            let mut c = Counts::default();
            for i in first..vs.len() {
                let (u, base, deg) = (vs[i], offsets[i], degrees[i] as usize);
                if base >= hi {
                    break;
                }
                // This block's share of u's edges (empty for the
                // zero-degree sources sharing an offset).
                let range = if G::SEEKABLE {
                    lo.saturating_sub(base) as usize..deg.min((hi - base) as usize)
                } else {
                    0..deg
                };
                c.edges_scanned += range.len() as u64;
                for (v, w) in g.out_edges_range(u, range) {
                    if f.cond(v) && hooks.apply_atomic(f, u, v, w, &mut c) && output {
                        buf.push(v);
                    }
                }
            }
            hooks.add(c);
            buf
        })
        .collect();

    if !output {
        return VertexSubset::empty(n);
    }

    // Prefix-sum stitch: one copy of each winner into an exact-size vector.
    let lens: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let (starts, acc) = scan_exclusive(&lens, 0, |a, b| a + b);
    let mut next: Vec<u32> = Vec::with_capacity(acc);
    {
        let spare = next.spare_capacity_mut();
        let ptr = SendPtr(spare.as_mut_ptr().cast::<u32>());
        buffers.par_iter().enumerate().for_each(|(b, buf)| {
            let p = ptr;
            // SAFETY: scan offsets are disjoint across blocks and their sum
            // equals the reserved capacity.
            unsafe { std::ptr::copy_nonoverlapping(buf.as_ptr(), p.0.add(starts[b]), buf.len()) };
        });
    }
    // SAFETY: exactly `acc` slots were initialized.
    unsafe { next.set_len(acc) };
    VertexSubset::from_sparse(n, next)
}

/// Pull traversal over all vertices. Each target is owned by one thread,
/// so the non-atomic [`EdgeMapFn::update`] is used and the in-edge scan
/// stops as soon as `cond` fails (BFS: parent found). Frontier membership
/// is one packed bit per source; each task owns one output word, so the
/// produced bitset needs no atomics either. `whole` says the frontier is
/// all of `V`, which lets a gathering `F` read the bare in-lists.
fn dense<G, F>(
    g: &G,
    bits: &BitSet,
    whole: bool,
    f: &F,
    output: bool,
    hooks: Hooks<'_>,
) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    let n = g.num_vertices();
    debug_assert_eq!(bits.len(), n);
    let nwords = bits.words().len();
    let words: Vec<u64> = (0..nwords)
        .into_par_iter()
        .map(|wi| {
            let lo = wi * 64;
            let hi = (lo + 64).min(n);
            let mut out_w = 0u64;
            let mut scanned_w = 0u64;
            for v in lo..hi {
                let vid = checked_u32(v);
                if f.cond(vid) {
                    let mut edges = g.in_edges(vid);
                    let deg = edges.len() as u64;
                    // A reducing `F` takes the list whole: every in-edge
                    // is read, and a target nothing in the frontier points
                    // at is never output. One that declines has not
                    // touched the list, which the scan below then walks.
                    let mut any = whole && deg > 0;
                    let reduced = if whole {
                        hooks.gather_exclusive(f, vid, &mut edges)
                    } else {
                        let members = (&mut edges).filter(|&(u, _)| bits.get(u as usize));
                        hooks.gather_exclusive(f, vid, members.inspect(|_| any = true))
                    };
                    if let Some(won) = reduced {
                        if won && any && output {
                            out_w |= 1u64 << (v - lo);
                        }
                        scanned_w += deg;
                        continue;
                    }
                    for (u, w) in edges {
                        scanned_w += 1;
                        if bits.get(u as usize) && hooks.apply_exclusive(f, u, vid, w) && output {
                            out_w |= 1u64 << (v - lo);
                        }
                        if !f.cond(vid) {
                            break;
                        }
                    }
                }
            }
            hooks.add(Counts { edges_scanned: scanned_w, ..Counts::default() });
            out_w
        })
        .collect();
    // Scanned and skipped partition all `m` in-edges, so the skip count
    // is what the tasks did not scan: no task walks a claimed target's
    // list just to learn its length.
    if let Some(t) = hooks.tally {
        let scanned = t.edges_scanned.load(Ordering::Relaxed);
        t.edges_skipped.store(g.num_edges() as u64 - scanned, Ordering::Relaxed);
    }
    if output {
        VertexSubset::from_bitset(n, BitSet::from_words(words, n))
    } else {
        VertexSubset::empty(n)
    }
}

/// Write-based dense traversal: walk the out-edges of every frontier
/// vertex using the dense representation. No transpose required, but
/// updates race (atomic variant used) and there is no early exit. A zero
/// frontier word skips 64 non-members with a single load; on a seekable
/// representation hub vertices split their out-edges into
/// [`EDGE_BLOCK`]-sized blocks.
fn dense_forward<G, F>(g: &G, bits: &BitSet, f: &F, output: bool, hooks: Hooks<'_>) -> VertexSubset
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    let n = g.num_vertices();
    debug_assert_eq!(bits.len(), n);
    let mut next = BitSet::new(n);
    {
        let anext = next.as_atomic();
        bits.words().par_iter().enumerate().for_each(|(wi, &w0)| {
            let mut c = Counts::default();
            for u in word_members(wi, w0) {
                let edges = g.out_edges(u);
                let deg = edges.len();
                c.edges_scanned += deg as u64;
                let push = |edges: G::Edges<'_>, c: &mut Counts| {
                    for (v, w) in edges {
                        if f.cond(v) && hooks.apply_atomic(f, u, v, w, c) && output {
                            anext[(v >> 6) as usize].fetch_or(1u64 << (v & 63), Ordering::Relaxed);
                        }
                    }
                };
                if G::SEEKABLE && deg > EDGE_BLOCK {
                    // Each hub block is a task of its own, with its own tally.
                    (0..deg.div_ceil(EDGE_BLOCK)).into_par_iter().for_each(|b| {
                        let range = b * EDGE_BLOCK..((b + 1) * EDGE_BLOCK).min(deg);
                        let mut cb = Counts::default();
                        push(g.out_edges_range(u, range), &mut cb);
                        hooks.add(cb);
                    });
                } else {
                    push(edges, &mut c);
                }
            }
            hooks.add(c);
        });
    }
    if output {
        VertexSubset::from_bitset(n, next)
    } else {
        VertexSubset::empty(n)
    }
}

/// Frontier words one scatter task walks (4096 source vertices): big
/// enough to amortize per-task fragment rows, small enough that rmat-sized
/// frontiers produce many times more chunks than threads. A single
/// mega-hub still serializes its chunk — the accepted trade for keeping
/// the scatter phase allocation-local (see DESIGN §13).
const SCATTER_WORDS: usize = 64;

/// One scattered update: the edge `(src, dst)` with its payload, parked
/// in `dst`'s partition bin until the gather phase drains it.
#[derive(Debug, Clone, Copy)]
struct BinEntry<W> {
    src: VertexId,
    dst: VertexId,
    w: W,
}

/// The partition-specific telemetry a partitioned round reports.
#[derive(Debug, Default, Clone, Copy)]
struct PartitionedRoundStats {
    partitions: u64,
    bins_flushed: u64,
    scatter_bytes: u64,
}

/// Cache-aware scatter/gather traversal over a dense frontier.
fn partitioned<G, F>(
    g: &G,
    bits: &BitSet,
    f: &F,
    output: bool,
    part: &Partitioning,
    hooks: Hooks<'_>,
) -> (VertexSubset, PartitionedRoundStats)
where
    G: Neighbors,
    F: EdgeMapFn<G::Weight>,
{
    let n = g.num_vertices();
    debug_assert_eq!(bits.len(), n);
    debug_assert_eq!(part.num_vertices(), n, "partitioning built for a different graph");
    let nparts = part.num_partitions();

    // --- Scatter: parallel over source chunks, writes only chunk-local
    // fragments. No `cond`, no destination state is read — touching
    // `dst`-indexed data here would reintroduce exactly the random
    // accesses this traversal exists to avoid. Entries land in bins in
    // (chunk, bit) order, i.e. ascending source; each frontier vertex's
    // list is walked (decoded) exactly once.
    let fwords = bits.words();
    let nchunks = fwords.len().div_ceil(SCATTER_WORDS).max(1);
    let frags: Fragments<BinEntry<G::Weight>> = (0..nchunks)
        .into_par_iter()
        .map(|ci| {
            let mut row = fragment_row::<BinEntry<G::Weight>>(nparts);
            let mut c = Counts::default();
            let lo = ci * SCATTER_WORDS;
            let hi = (lo + SCATTER_WORDS).min(fwords.len());
            for (wi, &w0) in fwords.iter().enumerate().take(hi).skip(lo) {
                for u in word_members(wi, w0) {
                    let edges = g.out_edges(u);
                    c.edges_scanned += edges.len() as u64;
                    for (v, w) in edges {
                        row[part.partition_of(v)].push(BinEntry { src: u, dst: v, w });
                    }
                }
            }
            hooks.add(c);
            row
        })
        .collect();
    let (bins, bins_flushed) = stitch(frags);
    let entries: usize = bins.iter().map(Vec::len).sum();
    let pstats = PartitionedRoundStats {
        partitions: nparts as u64,
        bins_flushed,
        scatter_bytes: (entries * std::mem::size_of::<BinEntry<G::Weight>>()) as u64,
    };

    // --- Gather: parallel over partitions, sequential within one. Every
    // destination lives in exactly one partition and each partition's bin
    // is drained by one task, so the non-atomic `update` and the plain
    // writes into the partition's own output words are race-free — the
    // same single-owner contract the pull traversal relies on, certified
    // by the oracle's exclusive-entry hooks.
    let gather = |p: usize, mut out_words: Option<&mut [u64]>| {
        let base = part.range(p).start;
        let mut c = Counts::default();
        for e in &bins[p] {
            if !f.cond(e.dst) {
                c.edges_skipped += 1;
            } else if hooks.apply_exclusive(f, e.src, e.dst, e.w) {
                if let Some(words) = out_words.as_deref_mut() {
                    let local = e.dst as usize - base;
                    words[local >> 6] |= 1u64 << (local & 63);
                }
            }
        }
        hooks.add(c);
    };

    let result = if output {
        let mut words = vec![0u64; n.div_ceil(64)];
        // Partition boundaries are multiples of 64 (partition::MIN_BITS),
        // so each partition owns whole output words and the chunking
        // below hands every gather task exactly its own words.
        words
            .par_chunks_mut(part.words_per_partition())
            .enumerate()
            .for_each(|(p, chunk)| gather(p, Some(chunk)));
        VertexSubset::from_bitset(n, BitSet::from_words(words, n))
    } else {
        (0..nparts).into_par_iter().for_each(|p| gather(p, None));
        VertexSubset::empty(n)
    };
    (result, pstats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraversalStats;
    use crate::traits::edge_fn;
    use ligra_graph::generators::{erdos_renyi, star};
    use ligra_graph::{build_graph, BuildOptions, Graph};
    use ligra_parallel::bitvec::AtomicBitVec;

    /// Frontier's neighborhood, computed three ways, must agree.
    fn neighborhood_via(g: &Graph, frontier: &[u32], traversal: Traversal) -> Vec<u32> {
        let f = edge_fn(|_s: u32, _d: u32, _w: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(g.num_vertices(), frontier.to_vec());
        let opts = EdgeMapOptions::new().traversal(traversal);
        let mut out = edge_map_with(g, &mut fr, &f, opts).to_vec_sorted();
        out.dedup();
        out
    }

    fn reference_neighborhood(g: &Graph, frontier: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> =
            frontier.iter().flat_map(|&u| g.out_neighbors(u).iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn all_traversals_agree_on_neighborhood() {
        let g = erdos_renyi(500, 4000, 7, true);
        let frontier: Vec<u32> = (0..500u32).filter(|v| v.is_multiple_of(13)).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in Traversal::ALL {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn directed_graph_traversals_agree() {
        let g = erdos_renyi(300, 2500, 3, false);
        let frontier: Vec<u32> = (0..300u32).filter(|v| v.is_multiple_of(7)).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in
            [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
        {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn empty_frontier_yields_empty_output() {
        let g = star(10);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::empty(10);
        let out = edge_map(&g, &mut fr, &f);
        assert!(out.is_empty());
    }

    #[test]
    fn cond_filters_targets() {
        // Star: frontier {0}, cond rejects odd vertices.
        let g = star(8);
        let f = edge_fn(|_, _, _: ()| true, |d: u32| d.is_multiple_of(2));
        let mut fr = VertexSubset::single(8, 0);
        for t in
            [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
        {
            let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert_eq!(out.to_vec_sorted(), vec![2, 4, 6], "traversal {t:?}");
        }
    }

    #[test]
    fn update_return_controls_membership() {
        // Keep only targets > 4.
        let g = star(8);
        let f = edge_fn(|_, d: u32, _: ()| d > 4, |_| true);
        let mut fr = VertexSubset::single(8, 0);
        let out = edge_map(&g, &mut fr, &f);
        assert_eq!(out.to_vec_sorted(), vec![5, 6, 7]);
    }

    #[test]
    fn auto_picks_sparse_for_tiny_frontier_and_dense_for_huge() {
        let g = erdos_renyi(2000, 40_000, 1, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();

        let mut tiny = VertexSubset::single(2000, 0);
        let _ = edge_map_recorded(&g, &mut tiny, &f, EdgeMapOptions::new(), &mut stats);
        assert_eq!(stats.rounds[0].mode, Mode::Sparse);

        let mut huge = VertexSubset::all(2000);
        let _ = edge_map_recorded(&g, &mut huge, &f, EdgeMapOptions::new(), &mut stats);
        assert_eq!(stats.rounds[1].mode, Mode::Dense);
    }

    #[test]
    fn threshold_override_flips_direction() {
        let g = erdos_renyi(1000, 10_000, 2, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(1000, 0);
        // Threshold 0: any nonempty frontier exceeds it -> dense.
        let _ = edge_map_recorded(&g, &mut fr, &f, EdgeMapOptions::new().threshold(0), &mut stats);
        assert_eq!(stats.rounds[0].mode, Mode::Dense);
        // Huge threshold -> sparse even for the full set.
        let mut all = VertexSubset::all(1000);
        let _ = edge_map_recorded(
            &g,
            &mut all,
            &f,
            EdgeMapOptions::new().threshold(u64::MAX),
            &mut stats,
        );
        assert_eq!(stats.rounds[1].mode, Mode::Sparse);
    }

    #[test]
    fn sparse_without_dedup_repeats_targets() {
        // Two sources both point at vertex 2.
        let g = build_graph(3, &[(0, 2), (1, 2)], BuildOptions::directed());
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(3, vec![0, 1]);
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.to_vec_sorted(), vec![2, 2]);
    }

    #[test]
    fn no_output_returns_empty_but_applies_updates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = star(50);
        let hits = AtomicUsize::new(0);
        let f = edge_fn(
            |_, _, _: ()| {
                hits.fetch_add(1, Ordering::Relaxed);
                true
            },
            |_| true,
        );
        let mut fr = VertexSubset::single(50, 0);
        for t in
            [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
        {
            hits.store(0, Ordering::Relaxed);
            let out =
                edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t).no_output());
            assert!(out.is_empty(), "traversal {t:?}");
            assert_eq!(hits.load(Ordering::Relaxed), 49, "traversal {t:?}");
        }
    }

    #[test]
    fn dense_early_exit_stops_scanning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Complete-ish graph: vertex v has many in-neighbors; cond turns
        // false after the first update, so each target sees ~1 call.
        let g = ligra_graph::generators::complete(64);
        let calls = AtomicUsize::new(0);
        let done = AtomicBitVec::new(64);
        let f = edge_fn(
            |_, d: u32, _: ()| {
                calls.fetch_add(1, Ordering::Relaxed);
                done.set(d as usize);
                true
            },
            |d: u32| !done.get(d as usize),
        );
        let mut fr = VertexSubset::all(64);
        let _ = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Dense));
        let c = calls.load(Ordering::Relaxed);
        assert!(c <= 64 + 63, "early exit failed: {c} calls for 64 targets");
    }

    #[test]
    fn weighted_edge_map_passes_weights() {
        use ligra_graph::build_weighted_graph;
        let g = build_weighted_graph(3, &[(0, 1), (0, 2)], &[10, 20], BuildOptions::directed());
        // Keep targets whose incoming weight is 20.
        let f = edge_fn(|_, _, w: i32| w == 20, |_| true);
        let mut fr = VertexSubset::single(3, 0);
        for t in
            [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
        {
            let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert_eq!(out.to_vec_sorted(), vec![2], "traversal {t:?}");
        }
    }

    #[test]
    fn weighted_hub_blocks_carry_their_own_weights() {
        use ligra_graph::build_weighted_graph;
        // A hub split across several EDGE_BLOCKs: every block must see the
        // weights of *its* edge range, not the head of the hub's list.
        let hub_deg = 2 * EDGE_BLOCK + 9;
        let edges: Vec<(u32, u32)> = (0..hub_deg as u32).map(|j| (0, j + 1)).collect();
        let weights: Vec<i32> = (0..hub_deg as i32).map(|j| j + 1).collect();
        let g = build_weighted_graph(hub_deg + 1, &edges, &weights, BuildOptions::directed());
        // Edge (0, v) was built with weight v; keep the odd ones.
        let f = edge_fn(|_, d: u32, w: i32| w == d as i32 && w % 2 == 1, |_| true);
        let expect: Vec<u32> = (1..=hub_deg as u32).filter(|v| v % 2 == 1).collect();
        for t in Traversal::ALL {
            let mut fr = VertexSubset::single(hub_deg + 1, 0);
            let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert_eq!(out.to_vec_sorted(), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn cancelled_round_is_a_recordless_no_op() {
        use crate::cancel::CancelToken;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = star(16);
        let hits = AtomicUsize::new(0);
        let f = edge_fn(
            |_, _, _: ()| {
                hits.fetch_add(1, Ordering::Relaxed);
                true
            },
            |_| true,
        );
        let token = CancelToken::new();
        token.cancel();
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(16, 0);
        let out =
            edge_map_recorded(&g, &mut fr, &f, EdgeMapOptions::new().cancel(&token), &mut stats);
        assert!(out.is_empty(), "cancelled round must produce an empty frontier");
        assert_eq!(hits.load(Ordering::Relaxed), 0, "no edge may be touched");
        assert_eq!(stats.rounds.len(), 0, "a skipped round records nothing");

        // A live token changes nothing.
        let live = CancelToken::new();
        let mut fr = VertexSubset::single(16, 0);
        let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().cancel(&live));
        assert_eq!(out.len(), 15);
    }

    #[test]
    #[should_panic(expected = "universe does not match")]
    fn mismatched_universe_panics() {
        let g = star(5);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::single(6, 0);
        let _ = edge_map(&g, &mut fr, &f);
    }

    #[test]
    fn recorded_round_captures_heuristic_inputs() {
        let g = erdos_renyi(1000, 10_000, 5, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(1000, vec![0, 1, 2]);
        let _ = edge_map_recorded(&g, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.frontier_vertices, 3);
        assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges);
        assert_eq!(r.threshold, g.num_edges() as u64 / 20);
        assert!(!r.forced);
        // Auto consistency: dense iff work exceeded the threshold.
        assert_eq!(r.mode == Mode::Dense, r.work > r.threshold);
    }

    #[test]
    fn recorded_round_detects_conversion() {
        let g = erdos_renyi(500, 5000, 9, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);

        // Sparse input forced through the pull traversal: must convert.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(500, vec![0, 1]);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.input_repr, ReprKind::Sparse);
        assert!(r.converted);
        assert!(r.forced);
        assert_eq!(r.output_repr, ReprKind::Dense);

        // Sparse input through the push traversal: no conversion.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(500, vec![0, 1]);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        assert!(!stats.rounds[0].converted);
    }

    #[test]
    fn sparse_round_counts_cas_attempts_and_wins() {
        // Star from 0: 7 targets, cond rejects odd ones, update claims >4.
        let g = star(8);
        let f = edge_fn(|_, d: u32, _: ()| d > 4, |d: u32| d.is_multiple_of(2));
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(8, 0);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.edges_scanned, 7, "all out-edges walked");
        assert_eq!(r.cas_attempts, 3, "targets 2, 4, 6 pass cond");
        assert_eq!(r.cas_wins, 1, "only target 6 is > 4");
        assert_eq!(r.edges_skipped, 0, "push mode has no early exit");
    }

    #[test]
    fn dense_round_counts_scanned_and_skipped_edges() {
        use ligra_graph::generators::complete;
        // Full frontier on K64 with a one-shot cond: the early exit must
        // leave most in-edges unread, and scanned+skipped must cover all m.
        let g = complete(64);
        let done = AtomicBitVec::new(64);
        let f = edge_fn(
            |_, d: u32, _: ()| {
                done.set(d as usize);
                true
            },
            |d: u32| !done.get(d as usize),
        );
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::all(64);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        let total_in_edges = g.num_edges() as u64;
        assert_eq!(r.edges_scanned + r.edges_skipped, total_in_edges);
        assert!(r.edges_scanned <= 64 + 63, "early exit must bound the scan");
        assert!(r.edges_skipped > 0);
        assert_eq!(r.cas_attempts, 0, "pull mode uses no atomics");
    }

    /// A reducing `F` that records the list each target was handed and
    /// claims every target it is asked about, empty list or not. `cond`
    /// admits even targets only.
    struct Lists {
        lists: Vec<std::sync::Mutex<Option<Vec<u32>>>>,
        updates: std::sync::atomic::AtomicUsize,
    }

    impl Lists {
        fn new(n: usize) -> Self {
            Lists {
                lists: (0..n).map(|_| std::sync::Mutex::new(None)).collect(),
                updates: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn handed(&self, v: u32) -> Option<Vec<u32>> {
            self.lists[v as usize].lock().expect("test lock").clone()
        }
    }

    impl EdgeMapFn for Lists {
        fn update(&self, _: u32, _: u32, _: ()) -> bool {
            self.updates.fetch_add(1, Ordering::Relaxed);
            true
        }
        fn update_atomic(&self, src: u32, dst: u32, w: ()) -> bool {
            self.update(src, dst, w)
        }
        fn cond(&self, dst: u32) -> bool {
            dst.is_multiple_of(2)
        }
        fn gather<I: Iterator<Item = (u32, ())>>(&self, dst: u32, in_edges: I) -> Option<bool> {
            let list = in_edges.map(|(u, ())| u).collect();
            let earlier = self.lists[dst as usize].lock().expect("test lock").replace(list);
            assert_eq!(earlier, None, "target {dst} gathered twice in one round");
            Some(true)
        }
    }

    #[test]
    fn gather_gets_each_cond_true_target_once_with_its_frontier_in_edges() {
        let g = erdos_renyi(300, 2500, 3, false);
        let m = g.num_edges() as u64;
        let dense = EdgeMapOptions::new().traversal(Traversal::Dense);
        for (what, stride) in [("partial", 3u32), ("whole V", 1)] {
            let f = Lists::new(300);
            let mut fr = VertexSubset::from_fn(300, |v| v.is_multiple_of(stride));
            let mut stats = TraversalStats::new();
            let out = edge_map_recorded(&g, &mut fr, &f, dense, &mut stats);

            let mut nonempty = Vec::new();
            let mut read = 0u64;
            for v in 0..300u32 {
                let members =
                    g.in_neighbors(v).iter().copied().filter(|u| u.is_multiple_of(stride));
                let want = v.is_multiple_of(2).then(|| members.collect::<Vec<_>>());
                assert_eq!(f.handed(v), want, "{what}: list handed for target {v}");
                if want.is_some() {
                    read += g.in_degree(v) as u64;
                }
                if want.is_some_and(|list| !list.is_empty()) {
                    nonempty.push(v);
                }
            }
            // `Lists` claims every target; one with nothing gathered is
            // still not output.
            assert_eq!(out.to_vec_sorted(), nonempty, "{what}");
            assert_eq!(f.updates.load(Ordering::Relaxed), 0, "{what}: no per-edge scan");
            assert_eq!(nonempty.len() < 150, stride == 3, "{what}: empty-fold case exercised");

            let r = stats.rounds[0];
            assert_eq!((r.mode, r.cas_attempts), (Mode::Dense, 0), "{what}");
            assert_eq!(r.edges_scanned, read, "{what}: a gathered list is read whole");
            assert_eq!(r.edges_scanned + r.edges_skipped, m, "{what}");

            let f = Lists::new(300);
            let out = edge_map_with(&g, &mut fr, &f, dense.no_output());
            assert!(out.is_empty(), "{what}: no_output");
            assert!(f.handed(0).is_some(), "{what}: no_output still commits");
        }
    }

    #[test]
    fn auto_sends_a_whole_frontier_to_the_gather_and_push_rounds_never_call_it() {
        let g = erdos_renyi(300, 2500, 3, true);
        let f = Lists::new(300);
        let mut stats = TraversalStats::new();
        let _ = edge_map_recorded(
            &g,
            &mut VertexSubset::all(300),
            &f,
            EdgeMapOptions::new(),
            &mut stats,
        );
        assert_eq!(stats.rounds[0].mode, Mode::Dense);
        assert_eq!(f.handed(2).as_deref(), Some(g.in_neighbors(2)));
        let into_even: usize = (0..300).step_by(2).map(|v| g.in_degree(v)).sum();
        for t in [Traversal::Sparse, Traversal::DenseForward, Traversal::Partitioned] {
            let f = Lists::new(300);
            let mut fr = VertexSubset::all(300);
            let _ = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert!((0..300).all(|v| f.handed(v).is_none()), "traversal {t:?}");
            assert_eq!(f.updates.load(Ordering::Relaxed), into_even, "traversal {t:?}");
        }
    }

    #[test]
    fn forced_untracked_round_skips_degree_sum_but_traced_does_not() {
        let g = star(16);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::single(16, 0);
        // Untracked + forced: work fields never materialize (observable only
        // as "still correct output" — the skip is a pure optimization).
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.len(), 15);
        // Traced + forced: the degree sum must still be recorded.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(16, 0);
        let _ = edge_map_recorded(
            &g,
            &mut fr,
            &f,
            EdgeMapOptions::new().traversal(Traversal::Sparse),
            &mut stats,
        );
        assert_eq!(stats.rounds[0].frontier_out_edges, 15);
        assert!(stats.rounds[0].forced);
    }

    /// A graph that counts the `out_degree` calls made on it.
    struct DegreeCounting<'g> {
        g: &'g Graph,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Neighbors for DegreeCounting<'_> {
        type Weight = ();
        type Edges<'a>
            = <Graph as Neighbors>::Edges<'a>
        where
            Self: 'a;

        const SEEKABLE: bool = true;

        fn num_vertices(&self) -> usize {
            self.g.num_vertices()
        }
        fn num_edges(&self) -> usize {
            self.g.num_edges()
        }
        fn is_symmetric(&self) -> bool {
            self.g.is_symmetric()
        }
        fn out_degree(&self, v: VertexId) -> usize {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.g.out_degree(v)
        }
        fn in_degree(&self, v: VertexId) -> usize {
            self.g.in_degree(v)
        }
        fn out_edges(&self, v: VertexId) -> Self::Edges<'_> {
            Neighbors::out_edges(self.g, v)
        }
        fn in_edges(&self, v: VertexId) -> Self::Edges<'_> {
            Neighbors::in_edges(self.g, v)
        }
        fn out_edges_range(&self, v: VertexId, range: std::ops::Range<usize>) -> Self::Edges<'_> {
            self.g.out_edges_range(v, range)
        }
        fn in_edges_range(&self, v: VertexId, range: std::ops::Range<usize>) -> Self::Edges<'_> {
            self.g.in_edges_range(v, range)
        }
        fn partitioning(&self) -> std::sync::Arc<ligra_graph::partition::Partitioning> {
            self.g.partitioning()
        }
    }

    #[test]
    fn a_push_round_reads_each_frontier_degree_once() {
        let g = erdos_renyi(1000, 10_000, 5, true);
        let counting = DegreeCounting { g: &g, calls: Default::default() };
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let frontier: Vec<u32> = (0..20).collect();

        // Recorded Auto round that stays sparse: the heuristic's sum and
        // the block offsets come from one read of each degree.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(1000, frontier.clone());
        let out = edge_map_recorded(&counting, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        assert_eq!(stats.rounds[0].mode, Mode::Sparse);
        let degree_sum = frontier.iter().map(|&u| g.out_degree(u) as u64).sum::<u64>();
        assert_eq!(stats.rounds[0].frontier_out_edges, degree_sum);
        assert_eq!(out.len() as u64, degree_sum, "every edge claims its target");
        assert_eq!(counting.calls.load(Ordering::Relaxed), frontier.len());

        // Forced pull, unrecorded: nothing asks for a degree.
        counting.calls.store(0, Ordering::Relaxed);
        let mut fr = VertexSubset::from_sparse(1000, frontier);
        let dense = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_with(&counting, &mut fr, &f, dense);
        assert_eq!(counting.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recorded_rounds_have_nonzero_time() {
        let g = erdos_renyi(200, 1000, 4, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(200, 0);
        let _ = edge_map_recorded(&g, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        assert!(stats.rounds[0].time_ns > 0);
    }

    #[test]
    fn sparse_push_spanning_many_edge_blocks_matches_reference() {
        // A hub whose degree is many EDGE_BLOCKs plus a tail of small
        // vertices: exercises the partition-point start, the mid-hub block
        // boundaries, and the stitch across non-uniform buffer sizes.
        let hub_deg = 3 * EDGE_BLOCK + 17;
        let n = hub_deg + 10;
        let mut edges: Vec<(u32, u32)> = (0..hub_deg as u32).map(|j| (0, j + 1)).collect();
        for k in 0..9u32 {
            edges.push((1 + k, n as u32 - 1));
        }
        let g = build_graph(n, &edges, BuildOptions::directed());
        let frontier: Vec<u32> = (0..10u32).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in [Traversal::Sparse, Traversal::Auto] {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn sparse_frontier_with_zero_degree_sources() {
        // Sources with no out-edges share prefix-sum offsets with their
        // neighbors; the block walk must neither visit their (empty) edge
        // ranges twice nor lose the edges around them.
        let g = build_graph(6, &[(0, 5), (3, 4)], BuildOptions::directed());
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(6, vec![0, 1, 2, 3]);
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.to_vec_sorted(), vec![4, 5]);
    }

    #[test]
    fn recorded_sparse_round_reports_exact_output_bytes() {
        // Star from 0: 7 out-edges, but only 3 targets pass cond. The old
        // sentinel scheme allocated 4*7 output bytes; chunked compaction
        // reports exactly 4*(|U| + |output|).
        let g = star(8);
        let f = edge_fn(|_, _, _: ()| true, |d: u32| d.is_multiple_of(2));
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(8, 0);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.output_vertices, 3);
        assert_eq!(r.frontier_bytes, 4 * (1 + 3));
    }

    #[test]
    fn partitioned_round_records_partition_telemetry() {
        let g = erdos_renyi(500, 5000, 11, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::all(500);
        // Width 6 -> 64-vertex partitions -> ceil(500/64) = 8 of them.
        let opts = EdgeMapOptions::new().traversal(Traversal::Partitioned).partition_bits(6);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.mode, Mode::Partitioned);
        assert!(r.forced);
        assert_eq!(r.partitions, 8);
        assert!(r.bins_flushed > 0);
        // One 8-byte (src, dst) entry per frontier out-edge: the scatter
        // phase bins everything and defers cond to the gather.
        assert_eq!(r.scatter_bytes, 8 * r.frontier_out_edges);
        assert_eq!(r.edges_scanned, r.frontier_out_edges);
        let words = 500usize.div_ceil(64) as u64 * 8;
        assert_eq!(r.frontier_bytes, 2 * words, "dense-style input + output bitsets");
        // The classic traversals must keep the new columns at zero.
        let mut fr = VertexSubset::all(500);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[1];
        assert_eq!((r.partitions, r.bins_flushed, r.scatter_bytes), (0, 0, 0));
    }

    #[test]
    fn partitioned_cond_filtering_counts_skipped_entries() {
        let g = star(80);
        let f = edge_fn(|_, _, _: ()| true, |d: u32| d.is_multiple_of(2));
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(80, 0);
        let opts = EdgeMapOptions::new().traversal(Traversal::Partitioned).partition_bits(6);
        let out = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        assert_eq!(out.len(), 39, "targets 2,4,...,78");
        let r = stats.rounds[0];
        assert_eq!(r.edges_scanned, 79, "scatter bins every out-edge");
        assert_eq!(r.edges_skipped, 40, "gather drops the cond-failing entries");
    }

    #[test]
    fn partitioned_handles_hub_spanning_partitions() {
        // A hub with out-edges into every partition plus tail sources:
        // exercises fragment rows with many active bins and the stitch's
        // chunk-order concatenation.
        let hub_deg = 2 * EDGE_BLOCK + 11;
        let n = hub_deg + 10;
        let mut edges: Vec<(u32, u32)> = (0..hub_deg as u32).map(|j| (0, j + 1)).collect();
        for k in 0..9u32 {
            edges.push((1 + k, n as u32 - 1));
        }
        let g = build_graph(n, &edges, BuildOptions::directed());
        let frontier: Vec<u32> = (0..10u32).collect();
        let expect = reference_neighborhood(&g, &frontier);
        assert_eq!(neighborhood_via(&g, &frontier, Traversal::Partitioned), expect);
    }

    #[test]
    fn recorded_dense_round_reports_packed_bitset_bytes() {
        let g = erdos_renyi(1000, 10_000, 2, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::all(1000);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts, &mut stats);
        let words = 1000usize.div_ceil(64) as u64 * 8;
        assert_eq!(stats.rounds[0].frontier_bytes, 2 * words, "input + output bitset");

        // Without output only the input side is streamed.
        let mut fr = VertexSubset::all(1000);
        let _ = edge_map_recorded(&g, &mut fr, &f, opts.no_output(), &mut stats);
        assert_eq!(stats.rounds[1].frontier_bytes, words);
    }
}
