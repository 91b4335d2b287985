//! The interprocedural lock-discipline pass (rules L7 and L8).
//!
//! Where the per-file rules in [`crate::rules`] look at token adjacency,
//! this pass builds a small model of each crate:
//!
//! 1. **Functions** — every `fn name(…) { … }` body in the crate's
//!    library files (nested fns are lifted out and analyzed separately;
//!    closures are treated as inline code of their enclosing fn).
//! 2. **Acquisition sites** — calls to the project lock helpers
//!    (`tracked_lock(&self.state, …)`, `tracked_read(&store.current, …)`; see
//!    [`config::LOCK_ACQUIRE_FNS`]) and empty-argument `.lock()` /
//!    `.read()` / `.write()` method calls. A site's *lock name* is the
//!    last field identifier of the guarded expression (`&self.state` →
//!    `state`), which lines up with the runtime site-naming scheme
//!    (`mutation.state`) documented in DESIGN.md §15.
//! 3. **Guard lifetimes** — `let`-bound guards live to the end of their
//!    enclosing block or an explicit `drop(guard)`; un-bound guards are
//!    statement temporaries that die at the `;`.
//! 4. **A call graph** — `name(…)` / `.name(…)` call sites resolve to
//!    every same-crate fn with that name (an over-approximation that
//!    needs no type information).
//!
//! Each function gets a memoized summary of the locks it (transitively)
//! acquires and the blocking operations it (transitively) reaches. The
//! pass then reports:
//!
//! * **L7** — the crate-wide acquisition-order graph contains both
//!   `a → b` and `b → a` for two lock names: some interleaving of the
//!   two witness paths deadlocks. Both acquisition chains are printed.
//! * **L8** — a blocking operation (`thread::sleep`, channel `recv`,
//!   `JoinHandle::join`, file/socket I/O, `catch_unwind` dispatch; see
//!   [`config::BLOCKING_CALLS`]) is reachable while a guard is live.
//!   Condvar `wait`/`wait_timeout` calls are exempt for the guard they
//!   atomically release (named as receiver or argument) but still count
//!   against any *other* guard held across them.
//!
//! Both rules honor `// lint: allow(L7/L8): reason` waivers at the
//! reported line; for L7 a waiver on either direction's anchor suppresses
//! the pair.

use crate::config;
use crate::lexer::Tok;
use crate::rules::{Diag, FileCtx, RuleId};
use std::collections::HashMap;

/// Runs the lock pass over one crate's library files, appending L7/L8
/// diagnostics to `out`. `ctxs` must all belong to the same crate.
pub fn check_crate(ctxs: &[&FileCtx], out: &mut Vec<Diag>) {
    let ctxs: Vec<&FileCtx> = ctxs
        .iter()
        .copied()
        .filter(|c| !config::LOCK_WRAPPER_FILES.iter().any(|f| c.path.ends_with(f)))
        .collect();
    if ctxs.is_empty() {
        return;
    }
    let fns = collect_fns(&ctxs);
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut pass = Pass {
        ctxs: &ctxs,
        fns: &fns,
        by_name,
        state: vec![SummaryState::Unvisited; fns.len()],
        done: Vec::new(),
        edges: HashMap::new(),
        l8: Vec::new(),
    };
    for i in 0..fns.len() {
        pass.summary(i);
    }
    pass.report(out);
}

/// One `fn` body found in the crate.
struct FnInfo {
    name: String,
    /// Index into the crate's `ctxs` slice.
    ctx: usize,
    /// Token range of the body, `open` at `{`, `close` at the match.
    open: usize,
    close: usize,
}

/// A lock-relevant happening inside one fn body, in token order.
enum Ev {
    Open,
    Close,
    /// Statement end: statement-temporary guards at this depth die.
    Semi,
    Acquire {
        lock: String,
        line: u32,
        binding: Option<String>,
    },
    Drop {
        binding: String,
    },
    /// `what` names the blocking call; `exempt` lists identifiers (guard
    /// bindings) a condvar wait atomically releases.
    Blocking {
        what: String,
        line: u32,
        exempt: Vec<String>,
    },
    Call {
        name: String,
        line: u32,
    },
}

/// What a function does to locks, as seen by its callers.
#[derive(Clone, Default)]
struct Summary {
    /// Lock names (transitively) acquired, each with the chain of frames
    /// leading to the acquisition.
    acquires: Vec<(String, Vec<String>)>,
    /// Blocking operations (transitively) reached, with chains.
    blocking: Vec<(String, Vec<String>)>,
}

#[derive(Clone, Copy, PartialEq)]
enum SummaryState {
    Unvisited,
    Visiting,
    Done(usize),
}

/// Witness for one acquisition-order edge `from → to`.
struct EdgeWitness {
    ctx: usize,
    /// Line a waiver for this direction would anchor to (the second
    /// acquisition, or the call that transitively performs it).
    line: u32,
    desc: String,
}

/// A pending L8 finding (emitted at report time so waiver bookkeeping
/// happens exactly once per deduplicated site).
struct L8Finding {
    ctx: usize,
    line: u32,
    msg: String,
}

struct Pass<'a> {
    ctxs: &'a [&'a FileCtx],
    fns: &'a [FnInfo],
    by_name: HashMap<&'a str, Vec<usize>>,
    state: Vec<SummaryState>,
    /// Memoized summaries, indexed by `SummaryState::Done`.
    done: Vec<Summary>,
    /// `(from, to)` lock-name order edges with their first witness.
    edges: HashMap<(String, String), EdgeWitness>,
    l8: Vec<L8Finding>,
}

impl<'a> Pass<'a> {
    fn report(&mut self, out: &mut Vec<Diag>) {
        // L7: both directions present for a pair of distinct lock names.
        let mut pairs: Vec<(&(String, String), &EdgeWitness)> = self
            .edges
            .iter()
            .filter(|((a, b), _)| a < b && self.edges.contains_key(&(b.clone(), a.clone())))
            .collect();
        pairs.sort_by_key(|((a, b), _)| (a.clone(), b.clone()));
        for ((a, b), fwd) in pairs {
            let rev = &self.edges[&(b.clone(), a.clone())];
            let (c1, c2) = (self.ctxs[fwd.ctx], self.ctxs[rev.ctx]);
            // A waiver on either direction's anchor covers the pair (and
            // is marked used by the `allowed` probe).
            let w1 = c1.allowed(fwd.line, RuleId::L7);
            let w2 = c2.allowed(rev.line, RuleId::L7);
            if w1 || w2 {
                continue;
            }
            out.push(Diag {
                rule: RuleId::L7,
                severity: crate::rules::Severity::Error,
                file: c1.path.clone(),
                line: fwd.line,
                msg: format!(
                    "lock-order inversion between `{a}` and `{b}`: {} — but {} \
                     (an interleaving of these paths deadlocks; pick one order, \
                     or waive with `lint: allow(L7): reason` if the locks are \
                     provably never contended together)",
                    fwd.desc, rev.desc
                ),
            });
        }
        // L8, deduplicated by site.
        let mut seen: Vec<(usize, u32, String)> = Vec::new();
        for f in &self.l8 {
            let key = (f.ctx, f.line, f.msg.clone());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            self.ctxs[f.ctx].diag(out, RuleId::L8, f.line, f.msg.clone());
        }
    }

    /// Computes (memoized) the summary of `fns[i]`, emitting edges and L8
    /// findings for its body as a side effect of the first visit. A fn
    /// already on the DFS stack returns an empty summary: recursion past
    /// the first unrolling adds no new acquisition.
    fn summary(&mut self, i: usize) -> Summary {
        match self.state[i] {
            SummaryState::Visiting => return Summary::default(),
            SummaryState::Done(idx) => return self.done[idx].clone(),
            SummaryState::Unvisited => {}
        }
        self.state[i] = SummaryState::Visiting;
        let s = self.analyze(i);
        self.done.push(s.clone());
        self.state[i] = SummaryState::Done(self.done.len() - 1);
        s
    }

    fn analyze(&mut self, i: usize) -> Summary {
        let f = &self.fns[i];
        let ctx = self.ctxs[f.ctx];
        let events = extract_events(ctx, f);
        let mut sum = Summary::default();
        // Live guards: (lock, binding, block depth, line acquired).
        let mut held: Vec<(String, Option<String>, usize, u32)> = Vec::new();
        let mut depth = 0usize;
        for ev in events {
            match ev {
                Ev::Open => depth += 1,
                Ev::Close => {
                    held.retain(|g| g.2 < depth);
                    depth = depth.saturating_sub(1);
                }
                Ev::Semi => held.retain(|g| g.1.is_some() || g.2 < depth),
                Ev::Drop { binding } => {
                    if let Some(pos) =
                        held.iter().rposition(|g| g.1.as_deref() == Some(binding.as_str()))
                    {
                        held.remove(pos);
                    }
                }
                Ev::Acquire { lock, line, binding } => {
                    for g in &held {
                        self.record_edge(
                            &g.0,
                            &lock,
                            f.ctx,
                            line,
                            format!(
                                "`{}` holds `{}` (acquired {}:{}) and then acquires `{}` at {}:{}",
                                f.name, g.0, ctx.path, g.3, lock, ctx.path, line
                            ),
                        );
                    }
                    if !sum.acquires.iter().any(|(l, _)| *l == lock) {
                        sum.acquires.push((
                            lock.clone(),
                            vec![format!(
                                "`{}` acquires `{}` at {}:{}",
                                f.name, lock, ctx.path, line
                            )],
                        ));
                    }
                    held.push((lock, binding, depth, line));
                }
                Ev::Blocking { what, line, exempt } => {
                    let offenders: Vec<&(String, Option<String>, usize, u32)> = held
                        .iter()
                        .filter(|g| {
                            !g.1.as_deref().map(|b| exempt.iter().any(|e| e == b)).unwrap_or(false)
                        })
                        .collect();
                    if !offenders.is_empty() {
                        let locks: Vec<String> = offenders
                            .iter()
                            .map(|g| format!("`{}` (acquired line {})", g.0, g.3))
                            .collect();
                        self.l8.push(L8Finding {
                            ctx: f.ctx,
                            line,
                            msg: format!(
                                "blocking call `{what}` while holding {}: a stalled peer \
                                 (or the unwound dispatch itself) extends the critical \
                                 section unboundedly — move the blocking work off-lock, \
                                 or waive with `lint: allow(L8): reason`",
                                locks.join(", ")
                            ),
                        });
                    }
                    if !sum.blocking.iter().any(|(w, _)| *w == what) {
                        sum.blocking.push((
                            what.clone(),
                            vec![format!(
                                "`{}` blocks in `{}` at {}:{}",
                                f.name, what, ctx.path, line
                            )],
                        ));
                    }
                }
                Ev::Call { name, line } => {
                    let callees = match self.by_name.get(name.as_str()) {
                        Some(v) => v.clone(),
                        None => continue,
                    };
                    for c in callees {
                        if c == i {
                            continue; // direct recursion adds nothing new
                        }
                        let cs = self.summary(c);
                        for (lock, chain) in &cs.acquires {
                            for g in &held {
                                let mut desc = format!(
                                    "`{}` holds `{}` (acquired {}:{}) and calls `{}` at {}:{}, which reaches: ",
                                    f.name, g.0, ctx.path, g.3, name, ctx.path, line
                                );
                                desc.push_str(&chain.join(" → "));
                                self.record_edge(&g.0, lock, f.ctx, line, desc);
                            }
                            if !sum.acquires.iter().any(|(l, _)| l == lock) {
                                let mut chain2 = vec![format!(
                                    "`{}` calls `{}` at {}:{}",
                                    f.name, name, ctx.path, line
                                )];
                                chain2.extend(chain.iter().cloned());
                                sum.acquires.push((lock.clone(), chain2));
                            }
                        }
                        for (what, chain) in &cs.blocking {
                            if !held.is_empty() {
                                let locks: Vec<String> = held
                                    .iter()
                                    .map(|g| format!("`{}` (acquired line {})", g.0, g.3))
                                    .collect();
                                self.l8.push(L8Finding {
                                    ctx: f.ctx,
                                    line,
                                    msg: format!(
                                        "call to `{name}` reaches blocking `{what}` while \
                                         holding {} [{}] — move the call off-lock, or waive \
                                         with `lint: allow(L8): reason`",
                                        locks.join(", "),
                                        chain.join(" → ")
                                    ),
                                });
                            }
                            if !sum.blocking.iter().any(|(w, _)| w == what) {
                                let mut chain2 = vec![format!(
                                    "`{}` calls `{}` at {}:{}",
                                    f.name, name, ctx.path, line
                                )];
                                chain2.extend(chain.iter().cloned());
                                sum.blocking.push((what.clone(), chain2));
                            }
                        }
                    }
                }
            }
        }
        sum
    }

    fn record_edge(&mut self, from: &str, to: &str, ctx: usize, line: u32, desc: String) {
        if from == to {
            // Same lock class twice on one path is re-entrancy, not an
            // ordering question (and spurious under name aliasing).
            return;
        }
        self.edges.entry((from.to_string(), to.to_string())).or_insert(EdgeWitness {
            ctx,
            line,
            desc,
        });
    }
}

// ---------------------------------------------------------------------------
// Token-stream extraction
// ---------------------------------------------------------------------------

/// Finds every `fn name(…) { … }` body across the crate's files. Bodies
/// inside `#[cfg(test)]` regions are skipped (test code may block under
/// locks it owns exclusively); bodies of nested fns are collected here
/// and skipped by the enclosing fn's event scan.
fn collect_fns(ctxs: &[&FileCtx]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    for (ci, ctx) in ctxs.iter().enumerate() {
        let toks = &ctx.toks;
        let mut i = 0usize;
        while i + 1 < toks.len() {
            let is_fn = matches!(&toks[i].tok, Tok::Ident(s) if s == "fn");
            if !is_fn {
                i += 1;
                continue;
            }
            let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
                i += 1; // `fn(…)` pointer type
                continue;
            };
            // Scan the signature for the body `{` (a `;` first means a
            // bodiless trait method or extern decl).
            let mut j = i + 2;
            let mut open = None;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('{') => {
                        open = Some(j);
                        break;
                    }
                    Tok::Punct(';') => break,
                    _ => j += 1,
                }
            }
            let Some(open) = open else {
                i = j + 1;
                continue;
            };
            let close = matching_brace(toks, open);
            if !ctx.in_test_region(toks[i].line) {
                out.push(FnInfo { name: name.clone(), ctx: ci, open, close });
            }
            // Do not skip to `close`: nested fns inside this body must be
            // collected too. The event scan handles the nesting.
            i = open + 1;
        }
    }
    out
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[crate::lexer::SpannedTok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// Call-position identifiers that are control-flow keywords, not calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "loop", "move", "else", "break", "continue",
    "unsafe", "ref", "dyn", "where", "as", "box", "await", "Some", "Ok", "Err",
];

/// Scans one fn body into lock events. Nested `fn` bodies are skipped
/// (they are separate entries in the crate's fn list); closure bodies are
/// scanned inline as part of the enclosing fn, which over-approximates
/// (a stored closure's body may run later, off-lock) but is exactly right
/// for the immediately-invoked `catch_unwind`/worker-loop closures this
/// codebase uses.
fn extract_events(ctx: &FileCtx, f: &FnInfo) -> Vec<Ev> {
    let toks = &ctx.toks;
    let mut out = Vec::new();
    let mut pending_let: Option<String> = None;
    let mut i = f.open;
    while i <= f.close {
        match &toks[i].tok {
            Tok::Punct('{') => {
                pending_let = None;
                out.push(Ev::Open);
            }
            Tok::Punct('}') => out.push(Ev::Close),
            Tok::Punct(';') => {
                pending_let = None;
                out.push(Ev::Semi);
            }
            Tok::Ident(s) if s == "fn" => {
                // Nested fn: skip its whole body.
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(_))) {
                    let mut j = i + 2;
                    while let Some(t) = toks.get(j) {
                        match t.tok {
                            Tok::Punct('{') => {
                                i = matching_brace(toks, j);
                                break;
                            }
                            Tok::Punct(';') => {
                                i = j;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                }
            }
            Tok::Ident(s) if s == "let" => {
                pending_let = let_binding(toks, i);
            }
            Tok::Ident(name) if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('(')) => {
                let line = toks[i].line;
                let is_method = i > 0 && toks[i - 1].tok == Tok::Punct('.');
                let empty_args = toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(')'));
                if !is_method && config::LOCK_ACQUIRE_FNS.contains(&name.as_str()) {
                    // Project lock helper: `tracked_lock(&self.state, "site")`.
                    if let Some(lock) = first_arg_last_ident(toks, i + 1) {
                        out.push(Ev::Acquire { lock, line, binding: pending_let.take() });
                    }
                } else if is_method
                    && empty_args
                    && matches!(name.as_str(), "lock" | "read" | "write")
                {
                    // `.lock()` / RwLock `.read()` / `.write()`.
                    if let Some(recv) = receiver_ident(toks, i - 1) {
                        if !config::LOCK_EXEMPT_RECEIVERS.contains(&recv.as_str()) {
                            out.push(Ev::Acquire { lock: recv, line, binding: pending_let.take() });
                        }
                    }
                } else if !is_method && name == "drop" {
                    if let Some(Tok::Ident(b)) = toks.get(i + 2).map(|t| &t.tok) {
                        if toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct(')')) {
                            out.push(Ev::Drop { binding: b.clone() });
                        }
                    }
                } else if is_method && matches!(name.as_str(), "wait" | "wait_timeout") {
                    // Condvar wait: the guard it releases appears as the
                    // receiver (`q.wait(&cv)`) or an argument
                    // (`cv.wait(q)`); either spelling exempts it.
                    let mut exempt = receiver_chain_idents(toks, i - 1);
                    exempt.extend(arg_idents(toks, i + 1));
                    out.push(Ev::Blocking { what: name.clone(), line, exempt });
                } else if config::BLOCKING_CALLS.contains(&name.as_str())
                    && (name != "join" || (is_method && empty_args))
                {
                    // `join` must look like `JoinHandle::join` (`.join()`),
                    // not `slice.join(", ")`.
                    out.push(Ev::Blocking { what: name.clone(), line, exempt: Vec::new() });
                } else if config::THREAD_SPAWN_FNS.contains(&name.as_str()) {
                    // The spawned closure runs on its own thread with an
                    // empty hold stack: skip the whole argument list.
                    let mut depth = 0i32;
                    let mut j = i + 1;
                    while let Some(t) = toks.get(j) {
                        match t.tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                } else if !KEYWORDS.contains(&name.as_str())
                    && !config::CALL_RESOLUTION_EXEMPT.contains(&name.as_str())
                {
                    out.push(Ev::Call { name: name.clone(), line });
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The variable a `let` statement binds, descending one level into
/// `Some(x)` / `Ok(mut g)` / `(a, b)` patterns.
fn let_binding(toks: &[crate::lexer::SpannedTok], let_idx: usize) -> Option<String> {
    let mut j = let_idx + 1;
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if s == "mut" || s == "ref" => j += 1,
            Some(Tok::Ident(s)) => {
                // `Some(x)` — prefer the ident inside the parens.
                if toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::Punct('(')) {
                    let mut k = j + 2;
                    while let Some(t) = toks.get(k) {
                        match &t.tok {
                            Tok::Ident(s2) if s2 == "mut" || s2 == "ref" => k += 1,
                            Tok::Ident(s2) => return Some(s2.clone()),
                            _ => return Some(s.clone()),
                        }
                    }
                }
                return Some(s.clone());
            }
            Some(Tok::Punct('(')) => j += 1, // tuple pattern: take first elem
            _ => return None,
        }
    }
}

/// Last identifier inside the first top-level argument of the call whose
/// `(` sits at `open`: `tracked_lock(&self.state, "x")` → `state`.
fn first_arg_last_ident(toks: &[crate::lexer::SpannedTok], open: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last: Option<String> = None;
    for t in toks.iter().skip(open) {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct(',') if depth == 1 => break,
            Tok::Ident(s) => last = Some(s.clone()),
            _ => {}
        }
    }
    last
}

/// The identifier naming a method receiver, walking back from the `.` at
/// `dot`: `self.current.read()` → `current`; `io::stdout().lock()` →
/// `stdout` (skipping the `()` call).
fn receiver_ident(toks: &[crate::lexer::SpannedTok], dot: usize) -> Option<String> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match &toks[k].tok {
            Tok::Ident(s) => return Some(s.clone()),
            Tok::Punct(')') => {
                // Skip a balanced `(…)` (receiver is a call result).
                let mut depth = 0i32;
                loop {
                    match toks[k].tok {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
            }
            _ => return None,
        }
    }
}

/// All identifiers in a dotted receiver chain (`self.job.done.wait(…)` →
/// `[done, job, self]`), for the condvar-wait guard exemption.
fn receiver_chain_idents(toks: &[crate::lexer::SpannedTok], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = dot;
    while k > 0 {
        k -= 1;
        match &toks[k].tok {
            Tok::Ident(s) => out.push(s.clone()),
            Tok::Punct('.') => {}
            _ => break,
        }
    }
    out
}

/// All identifiers anywhere in a call's argument list.
fn arg_idents(toks: &[crate::lexer::SpannedTok], open: usize) -> Vec<String> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for t in toks.iter().skip(open) {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s) => out.push(s.clone()),
            _ => {}
        }
    }
    out
}
