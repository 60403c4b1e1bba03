//! Admission control under deadline pressure: decide a query's fate
//! *before* it consumes resources.
//!
//! # The pressure model
//!
//! A [`PressureGauge`] tracks the engine's **aggregate queued deadline
//! pressure**: the estimated service times of every admitted,
//! not-yet-finished query, keyed by that query's deadline. It predicts
//! the wait a new arrival sees as the sum of the unexpired charges due
//! no later than the arrival's own deadline, drained *serially* (a query
//! that reaches the pool forks over every worker, so queued queries are
//! modeled as running one after another, not side by side), and scaled
//! by a learned **drain multiplier**. Nothing orders the pool by
//! deadline: queued pool tasks run in arrival order, and `pc serve` runs
//! each request on its connection's own thread. So work due later that
//! arrived earlier can still delay an arrival; the deadline cut is a
//! prediction, not a schedule, and the multiplier corrects it against
//! the waits admitted queries actually observe
//! ([`PressureGauge::settle_waited`]). Whether an arrival should instead
//! be charged every unexpired charge is an open question for an
//! under-load test to decide. Per-query service time is learned online
//! — an EWMA of observed run times, calibrated separately for exact and
//! degraded executions — and scaled by a per-query **cost factor** the
//! caller supplies. A `pc-core` session derives it in
//! `Session::cost_factor` from normalized box volumes, as
//! `(1 + reached) / (1 + total / 2)`: `reached` sums the volumes of the
//! constraints the query region reaches, `total` the whole catalog's. A
//! query touching about half the catalog's volume scores about 1.0, and
//! one touching a corner less.
//!
//! Admission judges once per query, in one form:
//! [`PressureGauge::admit_ticket`] charges the gauge and returns a
//! detached [`SchedTicket`] that whoever runs the query settles
//! ([`PressureGauge::settle_waited`]) exactly once, however the run ends.
//! Open-loop serving judges at *arrival*, before the query is enqueued:
//! under sustained overload the queue itself is where deadlines die, so
//! the verdict must come before the wait, not after it. A query nobody
//! judged at arrival is judged when its run starts, where arrival and
//! start coincide; its ticket then has no queue wait to report.
//!
//! # The admission ladder
//!
//! [`PressureGauge::admit_ticket`] compares the arrival's deadline slack
//! against `expected wait + estimated cost` and returns the first rung
//! that fits:
//!
//! 1. **Exact** — the full pipeline fits in the slack; run untouched.
//! 2. **Degraded** — the exact path cannot finish, but the degraded
//!    ladder (LP relaxation, capped SAT re-checks) can: skip straight
//!    down at admission instead of burning the budget to discover the
//!    trip mid-flight.
//! 3. **Shed** — even the degraded path cannot meet the deadline:
//!    answer immediately from the cheapest sound path (a pre-tripped
//!    run: frontier cells un-split, SAT admits unverified, pure
//!    relaxation). The answer is wide but still *contains* the exact
//!    range — reject-with-degraded-answer, never an error.
//!
//! An uncalibrated gauge (no completed queries yet) estimates zero cost
//! and admits everything exactly — the first queries through are the
//! calibration set, and misjudging them costs at most their own budget
//! trip, which is the pre-admission status quo.
//!
//! # Soundness
//!
//! Admission only ever *re-routes* a query to a rung of the existing
//! degradation ladder; every rung returns a superset of the exact range
//! (property-tested in `pc-core`). The gauge can misestimate freely
//! without ever producing a wrong answer — only a wider one, or a
//! missed optimization.

use crate::QueryBudget;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What the admission layer decided for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Run the full exact pipeline.
    Exact,
    /// Skip down the degradation ladder at admission (LP relaxation,
    /// capped SAT re-checks): the exact path cannot meet the deadline.
    Degraded,
    /// Even the degraded path cannot meet the deadline: answer from the
    /// cheapest sound path immediately.
    Shed,
}

impl std::fmt::Display for AdmissionVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionVerdict::Exact => write!(f, "exact"),
            AdmissionVerdict::Degraded => write!(f, "degraded"),
            AdmissionVerdict::Shed => write!(f, "shed"),
        }
    }
}

/// Per-query scheduling observability: what admission saw and decided.
/// Attached to `BoundReport` and surfaced through `pc batch --stats`.
#[derive(Debug, Clone, Copy)]
pub struct SchedReport {
    /// Armed-to-admitted wall time: how long the query sat queued before
    /// a worker picked it up.
    pub queue_wait: Duration,
    /// The admission decision.
    pub verdict: AdmissionVerdict,
    /// The expected wait predicted at admission: the unexpired charges
    /// due no later than this query's deadline, drained serially and
    /// scaled by the learned drain multiplier.
    pub backlog: Duration,
    /// The service-time estimate this query was charged against the
    /// gauge (zero while uncalibrated).
    pub estimated_cost: Duration,
}

impl SchedReport {
    /// A report for paths that bypass admission (no deadline armed, or
    /// admission disabled): exact verdict, whatever queue wait the
    /// budget observed.
    pub fn bypass(budget: &QueryBudget) -> SchedReport {
        SchedReport {
            queue_wait: budget.armed_for().unwrap_or(Duration::ZERO),
            verdict: AdmissionVerdict::Exact,
            backlog: Duration::ZERO,
            estimated_cost: Duration::ZERO,
        }
    }
}

/// Cumulative gauge counters (tests and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureStats {
    pub admitted_exact: u64,
    pub admitted_degraded: u64,
    pub shed: u64,
    /// Calibrated EWMA of exact service time (zero = uncalibrated).
    pub ewma_exact: Duration,
    /// Calibrated EWMA of degraded service time (zero = uncalibrated).
    pub ewma_degraded: Duration,
    /// Learned drain-rate multiplier (milli-units, 1000 = 1.0).
    pub drain_mult_milli: u64,
}

/// Nominal charge for a shed query: one task granule of work (decompose
/// nothing, admit everything unverified, one interval sweep).
const SHED_COST_US: u64 = 50;

/// Cost factors outside this range are clamped — a bad estimate must
/// not be able to wedge the gauge open or shut.
const FACTOR_MIN: f64 = 0.05;
const FACTOR_MAX: f64 = 20.0;

/// Aggregate queued-deadline-pressure tracker; see the module docs.
/// One gauge per serving `Session`, shared by every concurrent query.
/// Calibration state is atomic; the deadline-keyed charge profile takes
/// one short mutex hold per admit/settle (admissions are per-query, not
/// per-task — contention is bounded by query arrival rate).
#[derive(Debug)]
pub struct PressureGauge {
    /// Reference instant deadlines are keyed against.
    epoch: Instant,
    /// Outstanding charges (µs) keyed by deadline (µs since `epoch`;
    /// `u64::MAX` = no deadline). An arrival's expected wait sums the
    /// keys at or before its own deadline.
    queued: Mutex<BTreeMap<u64, u64>>,
    /// Sum of charged service-time estimates of in-flight queries (µs).
    backlog_us: AtomicU64,
    /// EWMA of observed exact service times (µs); 0 = no observation.
    ewma_exact_us: AtomicU64,
    /// EWMA of observed degraded service times (µs); 0 = no observation.
    ewma_degraded_us: AtomicU64,
    /// Feedback multiplier (milli-units, 1000 = 1.0) applied to the
    /// serial-drain wait prediction. The pool's *effective* drain rate
    /// swings with contention, thermal state, and co-tenancy, and the
    /// prediction leaves out queued work due after the arrival although
    /// nothing runs queued work in deadline order. No fixed charging
    /// constant survives either, so the gauge learns the ratio of
    /// observed queue waits to its own predictions and scales future
    /// predictions by it. Over-admission raises
    /// observed waits, which raises the multiplier, which sheds more;
    /// over-shedding empties the queue and lets it fall back. Clamped to
    /// [1/4, 3]: only admitted queries with a predicted wait of at least
    /// 200 µs feed it, so it learns nothing while the gauge sheds
    /// everything or the queue stays short, and the clamps bound how far
    /// a value learned in one burst can misjudge the next.
    drain_mult_milli: AtomicU64,
    admitted_exact: AtomicU64,
    admitted_degraded: AtomicU64,
    shed: AtomicU64,
}

impl Default for PressureGauge {
    fn default() -> Self {
        PressureGauge::new()
    }
}

impl PressureGauge {
    /// A fresh, uncalibrated gauge.
    pub fn new() -> PressureGauge {
        PressureGauge {
            epoch: Instant::now(),
            queued: Mutex::new(BTreeMap::new()),
            backlog_us: AtomicU64::new(0),
            ewma_exact_us: AtomicU64::new(0),
            ewma_degraded_us: AtomicU64::new(0),
            drain_mult_milli: AtomicU64::new(1000),
            admitted_exact: AtomicU64::new(0),
            admitted_degraded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Judge one arrival and charge it against the gauge *now*, returning
    /// a detached ticket. `cost_factor` scales the learned service-time
    /// EWMAs to this query's estimated size (1.0 = average; a session
    /// passes its box-volume share, `Session::cost_factor`). A query with
    /// no deadline is always admitted
    /// exactly, and still charged: its charge, due after every deadline,
    /// shows in [`Self::backlog`] but in no timed arrival's expected
    /// wait. The runner must eventually
    /// [`settle_waited`](Self::settle_waited) the ticket or the charge
    /// leaks.
    pub fn admit_ticket(&self, cost_factor: f64, deadline: Option<Instant>) -> SchedTicket {
        let factor = if cost_factor.is_finite() {
            cost_factor.clamp(FACTOR_MIN, FACTOR_MAX)
        } else {
            1.0
        };
        let scale = |ewma_us: u64| -> u64 { (ewma_us as f64 * factor).round() as u64 };
        let est_exact_us = scale(self.ewma_exact_us.load(Ordering::Relaxed));
        let est_degraded_us = scale(self.ewma_degraded_us.load(Ordering::Relaxed))
            .min(est_exact_us.max(SHED_COST_US));
        let key = self.deadline_key(deadline);

        let slack_us = match deadline {
            None => u64::MAX,
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .as_micros()
                .min(u64::MAX as u128) as u64,
        };

        // Expected wait: the charges due no later than this arrival's
        // deadline, drained *serially* — a query that reaches the pool
        // forks over every worker, so queued queries are modeled as
        // running one after another, and summing their wall estimates
        // (no division by workers) is the drain time. Nothing runs queued
        // work in deadline order; the learned multiplier corrects the
        // prediction against observed waits. Charge the arrival inside
        // the same lock hold so concurrent admits see each other.
        let (verdict, charge_us, wait_us);
        {
            // Charges whose deadline has already passed don't count as
            // wait: the runner demotes expired queries to the one-granule
            // shed path at pop, so they drain in negligible time even
            // though their full charge is still outstanding.
            let now_key = self.deadline_key(Some(Instant::now()));
            let mut queued = self.queued.lock().unwrap();
            let urgent_us: u64 = if key < now_key {
                0
            } else {
                queued.range(now_key..=key).map(|(_, c)| c).sum()
            };
            // Serial drain, feedback-corrected: the counted charges add
            // up as wall time, and the learned multiplier scales that by
            // how fast the pool has actually been draining relative to
            // the estimates.
            let mult = self.drain_mult_milli.load(Ordering::Relaxed);
            wait_us = urgent_us.saturating_mul(mult) / 1000;
            (verdict, charge_us) = if wait_us.saturating_add(est_exact_us) <= slack_us {
                (AdmissionVerdict::Exact, est_exact_us)
            } else if wait_us.saturating_add(est_degraded_us) <= slack_us {
                (AdmissionVerdict::Degraded, est_degraded_us)
            } else {
                (AdmissionVerdict::Shed, SHED_COST_US)
            };
            *queued.entry(key).or_insert(0) += charge_us;
        }
        match verdict {
            AdmissionVerdict::Exact => &self.admitted_exact,
            AdmissionVerdict::Degraded => &self.admitted_degraded,
            AdmissionVerdict::Shed => &self.shed,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.backlog_us.fetch_add(charge_us, Ordering::Relaxed);

        SchedTicket {
            verdict,
            charged_us: charge_us,
            wait_us,
            key,
        }
    }

    /// Release a ticket's charge. With `run_time` (success) the observed
    /// service time also calibrates the verdict's EWMA; `run_time` must
    /// cover the *run only*, not the queue wait — queueing is the gauge's
    /// own doing and must not inflate its service estimates. With
    /// `observed_wait`, the queue wait the query actually saw between
    /// admission and run start: against the ticket's *predicted* wait
    /// this is the gauge's own forecast error, and it feeds the
    /// drain-rate multiplier. Shed tickets are excluded from that: the
    /// multiplier learns only from the queries the gauge admitted, so
    /// shedding cannot raise its own rate.
    pub fn settle_waited(
        &self,
        ticket: SchedTicket,
        run_time: Option<Duration>,
        observed_wait: Option<Duration>,
    ) {
        if let Some(waited) = observed_wait {
            if ticket.verdict != AdmissionVerdict::Shed && ticket.wait_us >= 200 {
                let waited_us = waited.as_micros().min(u64::MAX as u128) as u64;
                let obs = (waited_us.saturating_mul(1000) / ticket.wait_us).clamp(250, 3000);
                // Racy symmetric EWMA (a racing store drops one
                // observation): new = old + (obs - old)/4.
                let old = self.drain_mult_milli.load(Ordering::Relaxed);
                let new = if obs >= old {
                    old + (obs - old) / 4
                } else {
                    old - (old - obs) / 4
                };
                self.drain_mult_milli
                    .store(new.clamp(250, 3000), Ordering::Relaxed);
            }
        }
        if let Some(run) = run_time {
            let observed_us = run.as_micros().min(u64::MAX as u128) as u64;
            match ticket.verdict {
                AdmissionVerdict::Exact => {
                    self.calibrate(&self.ewma_exact_us, observed_us);
                }
                AdmissionVerdict::Degraded => {
                    self.calibrate(&self.ewma_degraded_us, observed_us);
                }
                // Shed cost is nominal; nothing to learn.
                AdmissionVerdict::Shed => {}
            }
        }
        self.release(ticket.key, ticket.charged_us);
    }

    fn deadline_key(&self, deadline: Option<Instant>) -> u64 {
        match deadline {
            None => u64::MAX,
            Some(d) => d
                .saturating_duration_since(self.epoch)
                .as_micros()
                .min(u64::MAX as u128) as u64,
        }
    }

    /// The sum of every outstanding charge, whatever its deadline: the
    /// serial drain time of all admitted, unfinished work, without the
    /// drain multiplier. An arrival's expected wait counts only the
    /// unexpired charges due no later than its own deadline (see
    /// [`Self::admit_ticket`]).
    pub fn backlog(&self) -> Duration {
        Duration::from_micros(self.backlog_us.load(Ordering::Relaxed))
    }

    /// Cumulative counters and calibration state.
    pub fn stats(&self) -> PressureStats {
        PressureStats {
            admitted_exact: self.admitted_exact.load(Ordering::Relaxed),
            admitted_degraded: self.admitted_degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            ewma_exact: Duration::from_micros(self.ewma_exact_us.load(Ordering::Relaxed)),
            ewma_degraded: Duration::from_micros(self.ewma_degraded_us.load(Ordering::Relaxed)),
            drain_mult_milli: self.drain_mult_milli.load(Ordering::Relaxed),
        }
    }

    fn release(&self, key: u64, charged_us: u64) {
        {
            // Runners settle from a drop guard, which must not panic; every
            // update under this lock is one map operation, so a poisoned
            // map is still a valid one.
            let mut queued = self.queued.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(c) = queued.get_mut(&key) {
                *c = c.saturating_sub(charged_us);
                if *c == 0 {
                    queued.remove(&key);
                }
            }
        }
        // Saturating: a racing mis-release must never wrap the backlog
        // to "infinitely loaded".
        let _ = self
            .backlog_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(charged_us))
            });
    }

    fn calibrate(&self, slot: &AtomicU64, observed_us: u64) {
        // Lossy racy asymmetric EWMA: fast down (new = (old+obs)/2), slow
        // up (new = old + (obs-old)/8). Under overload a query's observed
        // wall time includes whatever other queries' tasks its blocked
        // frames stole and ran, so high observations mostly measure
        // *contention*, not this query class's service demand; chasing
        // them would spiral the estimate up and shed queries the pool
        // could still serve. Low observations are genuine — a query
        // can't finish faster than its own work — so they pull hard.
        // A racing store just drops one observation.
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 {
            observed_us.max(1)
        } else if observed_us < old {
            (old + observed_us) / 2
        } else {
            old.saturating_add((observed_us - old) / 8).max(1)
        };
        slot.store(new.max(1), Ordering::Relaxed);
    }
}

/// A detached admission decision: the verdict plus the charge it left on
/// the gauge. Returned by [`PressureGauge::admit_ticket`] at arrival and
/// carried (as plain data — no borrow of the gauge) to wherever the
/// query eventually runs, which must settle it exactly once.
#[derive(Debug)]
pub struct SchedTicket {
    verdict: AdmissionVerdict,
    charged_us: u64,
    wait_us: u64,
    key: u64,
}

impl SchedTicket {
    pub fn verdict(&self) -> AdmissionVerdict {
        self.verdict
    }

    /// The service-time estimate charged to the backlog.
    pub fn estimated_cost(&self) -> Duration {
        Duration::from_micros(self.charged_us)
    }

    /// The expected wait predicted at admission (see
    /// [`SchedReport::backlog`]).
    pub fn backlog_at_admission(&self) -> Duration {
        Duration::from_micros(self.wait_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated(exact_us: u64, degraded_us: u64) -> PressureGauge {
        let g = PressureGauge::new();
        g.ewma_exact_us.store(exact_us, Ordering::Relaxed);
        g.ewma_degraded_us.store(degraded_us, Ordering::Relaxed);
        g
    }

    #[test]
    fn uncalibrated_gauge_admits_everything_exact() {
        let g = PressureGauge::new();
        let deadline = Instant::now() + Duration::from_micros(1);
        let t = g.admit_ticket(1.0, Some(deadline));
        assert_eq!(t.verdict(), AdmissionVerdict::Exact);
        g.settle_waited(t, Some(Duration::from_micros(1)), None);
    }

    #[test]
    fn no_deadline_is_always_exact_but_charged() {
        let g = calibrated(10_000, 2_000);
        let t = g.admit_ticket(1.0, None);
        assert_eq!(t.verdict(), AdmissionVerdict::Exact);
        assert!(g.backlog() >= Duration::from_micros(10_000));
        g.settle_waited(t, None, None);
        assert_eq!(g.backlog(), Duration::ZERO);
    }

    #[test]
    fn ladder_exact_degraded_shed() {
        let g = calibrated(10_000, 2_000);
        // plenty of slack: exact
        let t = g.admit_ticket(1.0, Some(Instant::now() + Duration::from_millis(100)));
        assert_eq!(t.verdict(), AdmissionVerdict::Exact);
        g.settle_waited(t, None, None);
        // slack fits degraded but not exact
        let t = g.admit_ticket(1.0, Some(Instant::now() + Duration::from_micros(5_000)));
        assert_eq!(t.verdict(), AdmissionVerdict::Degraded);
        g.settle_waited(t, None, None);
        // hopeless slack: shed
        let t = g.admit_ticket(1.0, Some(Instant::now() + Duration::from_micros(100)));
        assert_eq!(t.verdict(), AdmissionVerdict::Shed);
        g.settle_waited(t, None, None);
        let s = g.stats();
        assert_eq!((s.admitted_exact, s.admitted_degraded, s.shed), (1, 1, 1));
    }

    #[test]
    fn backlog_pushes_later_arrivals_down_the_ladder() {
        let g = calibrated(10_000, 100);
        let deadline = Instant::now() + Duration::from_millis(15);
        let first = g.admit_ticket(1.0, Some(deadline));
        assert_eq!(first.verdict(), AdmissionVerdict::Exact);
        // the same deadline no longer fits exact behind 10ms of backlog
        let second = g.admit_ticket(1.0, Some(deadline));
        assert_eq!(second.verdict(), AdmissionVerdict::Degraded);
        g.settle_waited(second, Some(Duration::from_micros(100)), None);
        g.settle_waited(first, Some(Duration::from_millis(10)), None);
    }

    #[test]
    fn cost_factor_scales_the_estimate() {
        let g = calibrated(1_000, 100);
        // a 10× query does not fit where a 1× query would
        let t = g.admit_ticket(10.0, Some(Instant::now() + Duration::from_micros(2_000)));
        assert_ne!(t.verdict(), AdmissionVerdict::Exact);
        g.settle_waited(t, None, None);
        let t = g.admit_ticket(1.0, Some(Instant::now() + Duration::from_micros(2_000)));
        assert_eq!(t.verdict(), AdmissionVerdict::Exact);
        g.settle_waited(t, None, None);
    }

    #[test]
    fn complete_calibrates_and_releases() {
        let g = PressureGauge::new();
        let t = g.admit_ticket(1.0, None);
        g.settle_waited(t, Some(Duration::from_millis(2)), None);
        let s = g.stats();
        assert!(s.ewma_exact >= Duration::from_millis(1));
        assert_eq!(g.backlog(), Duration::ZERO);
    }

    #[test]
    fn degenerate_cost_factors_are_clamped() {
        let g = calibrated(1_000, 100);
        for f in [f64::NAN, f64::INFINITY, -3.0, 0.0, 1e300] {
            let t = g.admit_ticket(f, Some(Instant::now() + Duration::from_secs(60)));
            g.settle_waited(t, None, None);
        }
        assert_eq!(g.backlog(), Duration::ZERO);
    }
}
