//! Chaos certification of the query engine under deterministic fault
//! injection (DESIGN.md §11). Built only with `--features fault-inject`
//! (which forwards `ligra/fault-inject` and `ligra-engine/fault-inject`
//! and arms the hooks).
//!
//! The sweep drives the `edgemap.round` point — the one a running query
//! passes through — with every action across eight seeds, and asserts
//! the robustness invariants the serving tier promises:
//!
//! * no worker thread ever dies — a panicking query is contained by the
//!   worker's `catch_unwind` boundary and the pool self-heals;
//! * every submitted query reaches a terminal state (done / cancelled /
//!   failed / panicked / shed) — nothing hangs, nothing is lost;
//! * the result cache never serves a value produced by a faulted run;
//! * an injected panic surfaces as the typed `QueryError::Panicked`
//!   naming the fault point, and the very next query on the same worker
//!   completes normally.
#![cfg(feature = "fault-inject")]

use ligra_apps as apps;
use ligra_engine::metrics::{render, stats_fields, FAMILIES, RETIRED};
use ligra_engine::{
    Engine, EngineConfig, FaultAction, FaultPlan, FaultPoint, HistogramSnapshot, JsonObj,
    MutateError, MutationConfig, MutationLog, Query, QueryError, QueryOutput, QueryStatus,
};
use ligra_graph::generators::grid3d;
use ligra_graph::DeltaBatch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

const ACTIONS: [FaultAction; 3] =
    [FaultAction::Panic, FaultAction::Error, FaultAction::Latency(Duration::from_millis(2))];

fn engine_with(plan: FaultPlan, workers: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers,
        fault: Some(Arc::new(plan)),
        ..EngineConfig::default()
    }));
    // 512 vertices, symmetric: big enough for multi-round traversals,
    // small enough that the full sweep stays fast.
    engine.install_graph(Arc::new(grid3d(8)));
    engine
}

/// Twelve pairwise-distinct queries, so every run is a cache miss and
/// executes its edgeMap rounds — enough hits to reach any seeded
/// schedule in 1..=8.
fn distinct_query(i: u32) -> Query {
    match i % 4 {
        0 => Query::Bfs { source: i },
        1 => Query::Bc { source: i },
        2 => Query::PageRank { iters: i + 1 },
        _ => Query::Radii { seed: i as u64 },
    }
}

#[test]
fn sweep_seeds_and_actions_every_query_terminal_no_worker_dies() {
    for &seed in &SEEDS {
        for action in ACTIONS {
            let plan = FaultPlan::seeded(seed).arm(FaultPoint::EdgemapRound, action);
            let engine = engine_with(plan, 2);
            let label = format!("seed {seed}, {}", action.name());

            let handles: Vec<_> = (0..12)
                .map(|i| {
                    engine
                        .submit(distinct_query(i), None)
                        .unwrap_or_else(|e| panic!("{label}: submit rejected: {e}"))
                })
                .collect();
            for h in &handles {
                let status = h.wait();
                assert!(status.is_terminal(), "{label}: query {} not terminal", h.id());
            }

            let plan = engine.fault_plan().expect("plan installed");
            assert!(plan.total_injected() >= 1, "{label}: the armed fault never fired");
            assert!(engine.workers_alive(), "{label}: a worker thread died");

            // Self-heal: after the fault fired, the pool keeps serving.
            let h = engine
                .submit(Query::Cc, None)
                .unwrap_or_else(|e| panic!("{label}: post-fault submit: {e}"));
            assert_eq!(h.wait(), QueryStatus::Done, "{label}: post-fault query failed");

            let m = engine.metrics();
            assert_eq!(
                (m.queue_depth.get(), m.running.get()),
                (0, 0),
                "{label}: scheduler accounting did not return to idle"
            );
            if matches!(action, FaultAction::Panic) {
                let panics = m.retired(QueryStatus::Panicked);
                assert!(panics >= 1, "{label}: contained panic not counted");
            }
        }
    }
}

/// The round-boundary fault point belongs to the one generic dispatcher,
/// so it fires whatever representation is traversed — including a
/// compressed graph, which the engine does not serve (library call).
#[test]
fn edgemap_round_fault_fires_on_a_compressed_traversal() {
    let cg: ligra_compress::CompressedGraph =
        ligra_compress::CompressedGraph::from_graph(&grid3d(4));
    let plan = FaultPlan::seeded(1).arm_at(FaultPoint::EdgemapRound, FaultAction::Error, 2);
    let opts = ligra::EdgeMapOptions::new().fault_plan(&plan);
    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| apps::bfs_with(&cg, 0, opts)))
            .expect_err("the armed second round must unwind");
    let fault = unwound.downcast_ref::<ligra::FaultError>().expect("typed FaultError payload");
    assert_eq!((fault.point, fault.hit), (FaultPoint::EdgemapRound, 2));
    assert_eq!(plan.injected(FaultPoint::EdgemapRound), 1);
}

#[test]
fn injected_panic_is_typed_and_the_same_worker_keeps_serving() {
    for &seed in &SEEDS {
        // One worker, so the follow-up query provably lands on the
        // worker that just contained a panic.
        let plan = FaultPlan::seeded(seed).arm_at(FaultPoint::EdgemapRound, FaultAction::Panic, 1);
        let engine = engine_with(plan, 1);

        let h = engine.submit(Query::Cc, None).expect("submit");
        assert_eq!(h.wait(), QueryStatus::Panicked, "seed {seed}");
        match h.report().error {
            Some(QueryError::Panicked { point, .. }) => assert_eq!(point, "edgemap.round"),
            other => panic!("seed {seed}: expected Panicked, got {other:?}"),
        }
        assert!(engine.workers_alive(), "seed {seed}: worker died");

        let h2 = engine.submit(Query::Cc, None).expect("submit after panic");
        assert_eq!(h2.wait(), QueryStatus::Done, "seed {seed}: worker did not self-heal");
        assert!(h2.result().is_some());
        let m = engine.metrics();
        assert_eq!(m.retired(QueryStatus::Panicked), 1, "seed {seed}");
        assert_eq!(m.retired(QueryStatus::Done), 1, "seed {seed}");
    }
}

#[test]
fn cache_never_serves_a_value_from_a_faulted_run() {
    for &seed in &SEEDS {
        for action in [FaultAction::Error, FaultAction::Panic] {
            // Fire on the very first edgeMap round: the first run is the
            // faulted one, and whatever it produced must not be served
            // to anyone else.
            let plan = FaultPlan::seeded(seed).arm_at(FaultPoint::EdgemapRound, action, 1);
            let engine = engine_with(plan, 2);
            let q = Query::PageRank { iters: 4 };

            let h1 = engine.submit(q.clone(), None).expect("submit");
            let s1 = h1.wait();
            match action {
                // An injected error unwinds out of the round but is
                // retired as a typed transient failure.
                FaultAction::Error => assert_eq!(s1, QueryStatus::Failed, "seed {seed}"),
                // An injected panic is contained and typed.
                _ => assert_eq!(s1, QueryStatus::Panicked, "seed {seed}"),
            }

            // The second identical query must re-execute — the faulted
            // run may not have populated the cache.
            let h2 = engine.submit(q.clone(), None).expect("resubmit");
            assert_eq!(h2.wait(), QueryStatus::Done, "seed {seed}");
            let span2 = h2.span().expect("span");
            assert!(!span2.cache_hit, "seed {seed}: cache served a faulted run's value");

            // The clean re-run does cache (the Once-schedule fault is
            // spent), so a third submit is a hit with identical output.
            let h3 = engine.submit(q, None).expect("third submit");
            assert_eq!(h3.wait(), QueryStatus::Done, "seed {seed}");
            assert!(h3.span().expect("span").cache_hit, "seed {seed}: clean run not cached");
            match (h2.result().as_deref(), h3.result().as_deref()) {
                (
                    Some(ligra_engine::QueryOutput::PageRank(a)),
                    Some(ligra_engine::QueryOutput::PageRank(b)),
                ) => assert_eq!(a.rank, b.rank, "seed {seed}: cached value differs"),
                other => panic!("seed {seed}: unexpected outputs {other:?}"),
            }
        }
    }
}

#[test]
fn periodic_faults_under_load_leave_the_engine_consistent() {
    // Heavier mixed run: a panic every seventh edgeMap round, across
    // seeds, with concurrent clients. Terminal accounting must balance exactly.
    for &seed in &SEEDS[..4] {
        let plan =
            FaultPlan::seeded(seed).arm_every(FaultPoint::EdgemapRound, FaultAction::Panic, 7);
        let engine = engine_with(plan, 3);
        let handles: Vec<_> =
            (0..24).filter_map(|i| engine.submit(distinct_query(i % 12), None).ok()).collect();
        let mut terminal = 0u64;
        for h in &handles {
            assert!(h.wait().is_terminal(), "seed {seed}: query {} hung", h.id());
            terminal += 1;
        }
        let m = engine.metrics();
        // Cache-hit submits count under `completed` too, so the terminal
        // statuses partition the handle count exactly.
        assert_eq!(
            RETIRED.map(|st| m.retired(st)).iter().sum::<u64>(),
            terminal,
            "seed {seed}: terminal accounting does not balance: {m:?}"
        );
        assert!(engine.workers_alive(), "seed {seed}");
        let idle = (m.queue_depth.get(), m.running.get());
        assert_eq!(idle, (0, 0), "seed {seed}: not idle after quiesce");
    }
}

#[test]
fn metrics_stay_truthful_under_armed_faults() {
    // The observability acceptance probe: under a chaos run the metrics
    // registry must show the faults (injection and panic counters
    // nonzero), its quantiles must be the bucket math applied to its own
    // histograms, and the Prometheus rendering must carry the same
    // numbers a scrape would alert on.
    let plan = FaultPlan::seeded(5).arm_every(FaultPoint::EdgemapRound, FaultAction::Panic, 5);
    let engine = engine_with(plan, 2);
    let handles: Vec<_> =
        (0..24).filter_map(|i| engine.submit(distinct_query(i % 12), None).ok()).collect();
    for h in &handles {
        assert!(h.wait().is_terminal());
    }

    let stats = engine.stats();
    let m = &stats.metrics;
    let injected: u64 = stats.fault_injections.iter().map(|&(_, n)| n).sum();
    assert!(injected >= 1, "armed fault never surfaced in the injection counters");
    let panics = m.retired(QueryStatus::Panicked);
    assert!(panics >= 1, "contained panics not visible in retired{{status=panicked}}");
    let retired: u64 = RETIRED.map(|st| m.retired(st)).iter().sum();
    assert_eq!(retired, handles.len() as u64);

    // The reply's quantiles are bucket math over the sample's own
    // histograms: a bucket upper bound clamped by the observed max, so
    // never above the true maximum.
    let run = HistogramSnapshot::merged(&m.run_time_snapshots());
    let reply = stats_fields(FAMILIES, &stats, JsonObj::new()).finish();
    assert!(reply.contains(&format!("\"run_p50_ns\":{},", run.p50())), "{reply}");
    assert!(reply.contains(&format!("\"run_p99_ns\":{},", run.p99())), "{reply}");
    assert!(reply.contains(&format!("\"run_max_ns\":{}", run.max)), "{reply}");
    assert!(run.p99() <= run.max);

    // And the scrape tells the same story in the pinned vocabulary.
    let text = render(FAMILIES, &stats);
    assert!(text
        .lines()
        .any(|l| l.starts_with("ligra_fault_injections_total{point=\"edgemap.round\"}")
            && !l.ends_with(" 0")));
    assert!(
        text.contains(&format!("ligra_queries_retired_total{{status=\"panicked\"}} {panics}\n"))
    );
    assert!(engine.workers_alive());
}

#[test]
fn writer_vs_readers_keep_snapshot_isolation_under_apply_faults() {
    // One sequential writer churns the graph through the mutation log
    // (with `mutate.apply` periodically erroring by injection) while
    // reader threads run CC queries the whole time. Every reader
    // observation must match the exact graph its span's epoch named —
    // never a half-applied batch, never a mix of two epochs — and a
    // faulted apply must publish nothing.
    for &seed in &SEEDS[..4] {
        let plan =
            FaultPlan::seeded(seed).arm_every(FaultPoint::MutateApply, FaultAction::Error, 3);
        let engine = engine_with(plan, 2);
        let log = Arc::new(MutationLog::new(
            Arc::clone(&engine),
            MutationConfig { compact_threshold: None },
        ));

        // The writer records the expected CC labels for every epoch it
        // publishes (snapshots are immutable, so computing them inline
        // off the store is race-free).
        let expected_for = |engine: &Engine| {
            let snap = engine.current_snapshot().expect("installed");
            (snap.epoch(), apps::cc(snap.graph().as_ref()).label)
        };
        let mut expected: HashMap<u64, Vec<u32>> = HashMap::new();
        let (e0, labels0) = expected_for(&engine);
        expected.insert(e0, labels0);

        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut observations = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let Ok(h) = engine.submit(Query::Cc, None) else { continue };
                        if h.wait() != QueryStatus::Done {
                            continue;
                        }
                        let epoch = h.span().expect("finished query has a span").epoch;
                        if let Some(QueryOutput::Cc(r)) = h.result().as_deref() {
                            observations.push((epoch, r.label.clone()));
                        }
                    }
                    observations
                })
            })
            .collect();

        let mut injected = 0u32;
        for i in 0..30u32 {
            let batch = DeltaBatch::new()
                .add_edge(i % 512, (i * 13 + 7) % 512)
                .del_edge(i % 512, (i + 1) % 512);
            match log.apply(&batch) {
                Ok(r) => {
                    let (epoch, labels) = expected_for(&engine);
                    assert_eq!(epoch, r.epoch, "seed {seed}: single writer owns installs");
                    expected.insert(epoch, labels);
                }
                Err(e) => {
                    assert!(
                        matches!(e, MutateError::Injected { point: "mutate.apply", .. }),
                        "seed {seed}: unexpected apply failure {e}"
                    );
                    injected += 1;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);

        let mut checked = 0usize;
        for reader in readers {
            for (epoch, labels) in reader.join().expect("reader thread panicked") {
                let want = expected.get(&epoch).unwrap_or_else(|| {
                    panic!("seed {seed}: reader observed unpublished epoch {epoch}")
                });
                assert_eq!(
                    &labels, want,
                    "seed {seed}: snapshot isolation broken at epoch {epoch}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "seed {seed}: readers observed nothing");
        assert!(injected >= 1, "seed {seed}: the armed apply fault never fired");
        assert!(engine.workers_alive(), "seed {seed}");
    }
}

#[test]
fn panicked_compaction_never_poisons_the_store() {
    for &seed in &SEEDS[..4] {
        let plan = FaultPlan::seeded(seed).arm_at(FaultPoint::MutateCompact, FaultAction::Panic, 1);
        let engine = engine_with(plan, 2);
        let log = Arc::new(MutationLog::new(
            Arc::clone(&engine),
            MutationConfig { compact_threshold: None },
        ));
        for i in 0..5u32 {
            log.apply(&DeltaBatch::new().add_edge(i, 511 - i)).expect("apply is unaffected");
        }
        let epoch_before = engine.current_epoch();
        let graph_before = Arc::clone(engine.current_snapshot().expect("snap").graph());
        let labels_before = apps::cc(graph_before.as_ref()).label;

        // The armed compaction panics; the unwind is contained, the
        // failure is typed and counted, and the store still serves the
        // exact pre-compaction snapshot.
        match log.compact() {
            Err(MutateError::Panicked { point, .. }) => assert_eq!(point, "mutate.compact"),
            other => panic!("seed {seed}: expected contained panic, got {other:?}"),
        }
        assert_eq!(engine.current_epoch(), epoch_before, "seed {seed}: epoch moved");
        assert!(
            Arc::ptr_eq(engine.current_snapshot().expect("snap").graph(), &graph_before),
            "seed {seed}: store swapped a graph from a failed compaction"
        );
        assert_eq!(engine.metrics().mutation_compaction_failures.get(), 1, "seed {seed}");
        assert!(!log.status().compacting, "seed {seed}: compactor slot leaked");

        // Queries and mutations keep working on the overlaid snapshot...
        let h = engine.submit(Query::Cc, None).expect("submit after failed compaction");
        assert_eq!(h.wait(), QueryStatus::Done, "seed {seed}");
        // ...and the next compaction (the Once-schedule fault is spent)
        // succeeds with a result identical to the overlaid view.
        let report = log.compact().expect("second compaction");
        let clean = Arc::clone(engine.current_snapshot().expect("snap").graph());
        assert!(!clean.has_overlay(), "seed {seed}");
        assert_eq!(engine.current_epoch(), Some(report.epoch));
        assert_eq!(
            apps::cc(clean.as_ref()).label,
            labels_before,
            "seed {seed}: compaction changed results"
        );
        assert_eq!(engine.metrics().mutation_compactions.get(), 1, "seed {seed}");
        assert!(engine.workers_alive(), "seed {seed}");
    }
}

/// Lock-order certification of the chaos path itself: after a faulted
/// mixed workload (a worker panic mid-traversal beside mutation applies
/// and a compaction), the global lock oracle must still hold an acyclic
/// acquisition graph — fault recovery takes the same locks in the same
/// order as the happy path. Needs both features: the fault hooks to
/// drive the workload, the tracked guards to observe it.
#[cfg(feature = "lock-check")]
#[test]
fn chaos_workload_certifies_lock_order() {
    let plan = FaultPlan::seeded(7).arm_at(FaultPoint::EdgemapRound, FaultAction::Panic, 3);
    let engine = engine_with(plan, 3);
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    for i in 0..8u32 {
        log.apply(&DeltaBatch::new().add_edge(i, 511 - i)).expect("apply");
        let h = engine.submit(distinct_query(i), None).expect("submit");
        assert!(h.wait().is_terminal());
    }
    log.compact().expect("compact");

    let report =
        ligra_engine::LockOracle::global().certify().expect("chaos run certifies lock order");
    assert!(!report.sites.is_empty(), "tracked guards recorded nothing");
    assert!(
        report.edges.contains(&("mutation.state", "store.current")),
        "expected the apply-path nesting; edges: {:?}",
        report.edges
    );
}
