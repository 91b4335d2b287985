//! Deterministic, seeded fault injection for robustness testing.
//!
//! A [`FaultPlan`] arms named *fault points* — fixed places in the
//! framework and the serving tier where a fault may be injected: at
//! every `edgeMap` round boundary, while a mutation batch is applied,
//! during a background compaction, and as the router forwards a
//! request. Each point sits inside a recovery path that a real panic
//! or a real I/O error also takes, so an injection there proves the
//! path contains real failures. Each armed point fires on the Nth time
//! execution passes through it, where N comes either from an explicit
//! schedule or deterministically from a seed, so a failing chaos run is
//! replayable from `(seed, point)` alone.
//!
//! Three fault shapes cover the failure modes a serving engine must
//! survive (DESIGN.md §11):
//!
//! * [`FaultAction::Panic`] — unwinds with a typed [`FaultError`]
//!   payload, exercising `catch_unwind` worker isolation;
//! * [`FaultAction::Latency`] — sleeps, exercising deadlines, queue-wait
//!   shedding, and retry budgets;
//! * [`FaultAction::Error`] — returns a typed [`FaultError`] through the
//!   call site's normal error channel, exercising graceful degradation.
//!
//! Mirroring the `race-check` oracle (DESIGN.md §10), the types here
//! always exist so harnesses compile without `cfg` noise, but every
//! hook in the traversal kernels and the engine is gated behind the
//! `fault-inject` cargo feature and compiles away entirely when it is
//! off.

use ligra_parallel::mix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Named places where a [`FaultPlan`] may inject a fault. The set is a
/// closed vocabulary: telemetry and chaos tests pin these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The start of each `edgeMap` round inside a running query.
    EdgemapRound,
    /// Applying a mutation batch to the live graph (`MutationLog`).
    MutateApply,
    /// The background CSR compaction of an overlaid snapshot.
    MutateCompact,
    /// The router forwarding a request to a backend (`ligra-route`).
    RouteForward,
}

/// Number of named fault points (array sizes below).
const NUM_POINTS: usize = 4;

impl FaultPoint {
    /// All fault points, in schedule order.
    pub const ALL: [FaultPoint; NUM_POINTS] = [
        FaultPoint::EdgemapRound,
        FaultPoint::MutateApply,
        FaultPoint::MutateCompact,
        FaultPoint::RouteForward,
    ];

    /// The stable wire/CLI name of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::EdgemapRound => "edgemap.round",
            FaultPoint::MutateApply => "mutate.apply",
            FaultPoint::MutateCompact => "mutate.compact",
            FaultPoint::RouteForward => "route.forward",
        }
    }

    /// Parses a stable name back into a point (`"edgemap.round"`, ...).
    pub fn parse(s: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == s)
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::EdgemapRound => 0,
            FaultPoint::MutateApply => 1,
            FaultPoint::MutateCompact => 2,
            FaultPoint::RouteForward => 3,
        }
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed fault point does when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Unwind with a [`FaultError`] payload (`std::panic::panic_any`),
    /// so the recovery boundary can attribute the panic to its point.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Latency(Duration),
    /// Return a typed [`FaultError`] through the call site's error
    /// channel — a spurious transient failure.
    Error,
}

impl FaultAction {
    /// The stable name of this action (`"panic"`, `"latency"`,
    /// `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Latency(_) => "latency",
            FaultAction::Error => "error",
        }
    }
}

/// The typed error a fired fault produces: either returned as
/// `Err(FaultError)` ([`FaultAction::Error`]) or carried as the unwind
/// payload ([`FaultAction::Panic`]).
///
/// Call sites with no `Result` channel (the `edgeMap` round boundary)
/// surface the `Error` action by unwinding with this payload instead;
/// the recovery boundary inspects [`FaultError::action`] to tell an
/// injected transient error apart from an injected panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    /// The point that fired.
    pub point: FaultPoint,
    /// 1-based hit count at which the fault fired.
    pub hit: u64,
    /// The action the schedule fired with.
    pub action: FaultAction,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault-inject: injected fault at {} (hit {})", self.point, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// When an armed point fires relative to its hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Fire exactly once, on the Nth hit (1-based).
    Once(u64),
    /// Fire on every Nth hit (hit % n == 0).
    Every(u64),
}

#[derive(Debug, Clone, Copy)]
struct Arm {
    action: FaultAction,
    schedule: Schedule,
}

/// A deterministic injection schedule over the named [`FaultPoint`]s.
///
/// Construction is cheap and lock-free at check time; the plan is
/// shared by reference (engine configs hold an `Arc<FaultPlan>`). Hit
/// and injection counters are observable afterwards so tests can assert
/// a fault actually fired.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    arms: [Option<Arm>; NUM_POINTS],
    hits: [AtomicU64; NUM_POINTS],
    injected: [AtomicU64; NUM_POINTS],
}

impl FaultPlan {
    /// An empty plan (nothing armed) carrying `seed` for later
    /// [`FaultPlan::arm`] calls.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            arms: [None; NUM_POINTS],
            hits: Default::default(),
            injected: Default::default(),
        }
    }

    /// Arms `point` with `action`, firing once on a hit index derived
    /// deterministically from `(seed, point)` — between the 1st and 8th
    /// hit, so short runs still reach the fault.
    pub fn arm(mut self, point: FaultPoint, action: FaultAction) -> Self {
        let nth = 1 + mix64(self.seed ^ (0x9e37 + point.index() as u64)) % 8;
        self.arms[point.index()] = Some(Arm { action, schedule: Schedule::Once(nth) });
        self
    }

    /// Arms `point` with `action`, firing once on exactly the `nth`
    /// hit (1-based). `nth == 0` is clamped to 1.
    pub fn arm_at(mut self, point: FaultPoint, action: FaultAction, nth: u64) -> Self {
        self.arms[point.index()] = Some(Arm { action, schedule: Schedule::Once(nth.max(1)) });
        self
    }

    /// Arms `point` with `action`, firing on every `period`-th hit.
    /// `period == 0` is clamped to 1 (fire on every hit).
    pub fn arm_every(mut self, point: FaultPoint, action: FaultAction, period: u64) -> Self {
        self.arms[point.index()] = Some(Arm { action, schedule: Schedule::Every(period.max(1)) });
        self
    }

    /// The 1-based hit at which `point` will fire, if armed `Once`.
    pub fn scheduled_hit(&self, point: FaultPoint) -> Option<u64> {
        match self.arms[point.index()]?.schedule {
            Schedule::Once(n) => Some(n),
            Schedule::Every(_) => None,
        }
    }

    /// Times execution has passed through `point` on this plan.
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// Times `point` actually injected a fault.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all points.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The hook call sites place at a fault point. Counts the hit, and
    /// if the point's schedule fires: sleeps ([`FaultAction::Latency`]),
    /// unwinds with a [`FaultError`] payload ([`FaultAction::Panic`]),
    /// or returns `Err(FaultError)` ([`FaultAction::Error`]). Unarmed
    /// points only pay one relaxed `fetch_add`.
    pub fn check(&self, point: FaultPoint) -> Result<(), FaultError> {
        let i = point.index();
        let hit = self.hits[i].fetch_add(1, Ordering::Relaxed) + 1;
        let Some(arm) = self.arms[i] else { return Ok(()) };
        let fire = match arm.schedule {
            Schedule::Once(n) => hit == n,
            Schedule::Every(p) => hit.is_multiple_of(p),
        };
        if !fire {
            return Ok(());
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        let err = FaultError { point, hit, action: arm.action };
        match arm.action {
            FaultAction::Latency(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Error => Err(err),
            FaultAction::Panic => std::panic::panic_any(err),
        }
    }

    /// Parses a CLI/script spec of the form
    /// `point:action[:nth]` where `action` is `panic`, `error`, or
    /// `latency-<millis>ms` — e.g. `mutate.apply:error:2` or
    /// `edgemap.round:latency-5ms`. Omitting `nth` uses the seeded
    /// schedule.
    pub fn arm_spec(self, spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let point = parts
            .next()
            .and_then(FaultPoint::parse)
            .ok_or_else(|| format!("unknown fault point in spec {spec:?}"))?;
        let action = match parts.next() {
            Some("panic") => FaultAction::Panic,
            Some("error") => FaultAction::Error,
            Some(a) if a.starts_with("latency-") && a.ends_with("ms") => {
                let ms: u64 = a["latency-".len()..a.len() - 2]
                    .parse()
                    .map_err(|_| format!("bad latency in spec {spec:?}"))?;
                FaultAction::Latency(Duration::from_millis(ms))
            }
            _ => return Err(format!("unknown fault action in spec {spec:?}")),
        };
        match parts.next() {
            None => Ok(self.arm(point, action)),
            Some(n) => {
                let nth: u64 = n.parse().map_err(|_| format!("bad hit index in spec {spec:?}"))?;
                Ok(self.arm_at(point, action, nth))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        let plan = FaultPlan::seeded(7);
        for _ in 0..100 {
            for p in FaultPoint::ALL {
                plan.check(p).expect("unarmed point must not fire");
            }
        }
        assert_eq!(plan.total_injected(), 0);
        assert_eq!(plan.hits(FaultPoint::RouteForward), 100);
    }

    #[test]
    fn error_fires_exactly_once_on_the_nth_hit() {
        let plan = FaultPlan::seeded(0).arm_at(FaultPoint::MutateCompact, FaultAction::Error, 3);
        assert!(plan.check(FaultPoint::MutateCompact).is_ok());
        assert!(plan.check(FaultPoint::MutateCompact).is_ok());
        let err = plan.check(FaultPoint::MutateCompact).expect_err("3rd hit fires");
        assert_eq!(err.point, FaultPoint::MutateCompact);
        assert_eq!(err.hit, 3);
        assert!(plan.check(FaultPoint::MutateCompact).is_ok());
        assert_eq!(plan.injected(FaultPoint::MutateCompact), 1);
    }

    #[test]
    fn every_schedule_fires_periodically() {
        let plan = FaultPlan::seeded(0).arm_every(FaultPoint::MutateApply, FaultAction::Error, 2);
        let fired: Vec<bool> =
            (0..6).map(|_| plan.check(FaultPoint::MutateApply).is_err()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
        assert_eq!(plan.injected(FaultPoint::MutateApply), 3);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed).arm(FaultPoint::EdgemapRound, FaultAction::Error);
            let b = FaultPlan::seeded(seed).arm(FaultPoint::EdgemapRound, FaultAction::Error);
            let nth = a.scheduled_hit(FaultPoint::EdgemapRound).expect("armed once");
            assert_eq!(Some(nth), b.scheduled_hit(FaultPoint::EdgemapRound));
            assert!((1..=8).contains(&nth), "seed {seed} scheduled hit {nth}");
        }
    }

    #[test]
    fn panic_action_unwinds_with_typed_payload() {
        let plan = FaultPlan::seeded(0).arm_at(FaultPoint::EdgemapRound, FaultAction::Panic, 1);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.check(FaultPoint::EdgemapRound);
        }))
        .expect_err("panic action must unwind");
        let err = payload.downcast_ref::<FaultError>().expect("typed payload");
        assert_eq!(err.point, FaultPoint::EdgemapRound);
        assert!(err.to_string().contains("edgemap.round"));
    }

    #[test]
    fn latency_action_delays_then_succeeds() {
        let plan = FaultPlan::seeded(0).arm_at(
            FaultPoint::RouteForward,
            FaultAction::Latency(Duration::from_millis(5)),
            1,
        );
        let start = std::time::Instant::now();
        plan.check(FaultPoint::RouteForward).expect("latency is not an error");
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(plan.injected(FaultPoint::RouteForward), 1);
    }

    #[test]
    fn specs_parse_points_actions_and_hits() {
        let plan = FaultPlan::seeded(0)
            .arm_spec("mutate.compact:error:2")
            .and_then(|p| p.arm_spec("edgemap.round:latency-5ms"))
            .expect("specs parse");
        assert_eq!(plan.scheduled_hit(FaultPoint::MutateCompact), Some(2));
        assert!(plan.scheduled_hit(FaultPoint::EdgemapRound).is_some());
        let mutate = FaultPlan::seeded(0).arm_spec("mutate.apply:panic:1").expect("mutate spec");
        assert_eq!(mutate.scheduled_hit(FaultPoint::MutateApply), Some(1));
        assert!(FaultPlan::seeded(0).arm_spec("mutate.compact:error").is_ok());
        let route = FaultPlan::seeded(0).arm_spec("route.forward:error:2").expect("route spec");
        assert_eq!(route.scheduled_hit(FaultPoint::RouteForward), Some(2));
        assert!(FaultPlan::seeded(0).arm_spec("nope:error").is_err());
        assert!(FaultPlan::seeded(0).arm_spec("edgemap.round:explode").is_err());
        assert!(FaultPlan::seeded(0).arm_spec("edgemap.round:error:x").is_err());
    }

    #[test]
    fn point_names_round_trip() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse(p.name()), Some(p));
        }
        assert_eq!(FaultPoint::parse("bogus"), None);
    }
}
