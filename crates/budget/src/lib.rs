//! Query budgets, deadlines, and cooperative cancellation for the PC
//! engine — the robustness substrate every long-running path checks.
//!
//! # Why a separate crate
//!
//! Budgets are consulted from the bottom of the stack up: the SAT witness
//! search (`pc-predicate`), the branch & bound node loop (`pc-solver`),
//! and the decomposition / serving layers (`pc-core`). `pc-solver` does
//! not depend on `pc-predicate`, so the shared type lives below both.
//! The same goes for [`WorkGate`], which every search consults before
//! handing work to the pool.
//!
//! # Model
//!
//! A [`QueryBudget`] is a cheap, clonable handle (an `Option<Arc>` —
//! [`QueryBudget::unlimited`] is a `None` whose every check is a branch
//! on a constant) carrying up to four independent limits:
//!
//! * a **deadline** (wall-clock [`Instant`]),
//! * a **SAT-check cap** (decomposition / specialization / closure work),
//! * a **node cap** (branch & bound expansions),
//! * an **explicit cancel** flag, flipped from outside via the paired
//!   [`CancelToken`].
//!
//! # Granularity guarantee
//!
//! Checks are **cooperative** and sit at *task-granule* boundaries: once
//! per DFS split in decomposition, once per SAT satisfiability probe,
//! once per claimed B&B node, and once per branch of the parallel
//! witness fan-out. A trip is therefore observed within one granule —
//! one SAT probe, one LP re-solve — never mid-pivot, and a tripped
//! search returns without finishing the remaining exponential work. The
//! flip side: a single granule is not interruptible, so latency-to-return
//! is bounded by the largest single LP/SAT call, not by zero.
//!
//! # Trip semantics
//!
//! The first limit crossed **trips** the budget, permanently (sticky):
//! every subsequent [`QueryBudget::charge_sat`] / [`charge_node`] /
//! [`proceed`](QueryBudget::proceed) answers `false`, so sibling tasks of
//! a parallel fan-out all drain within their own granule. The consumer
//! decides what a trip means; the engine's policy (documented at each
//! site, property-tested in `pc-core`) is **degrade, don't error**:
//!
//! * a tripped decomposition emits its frontier un-split (sound, looser
//!   bounds — see `pc_core::decompose`),
//! * a tripped SAT probe counts as "assume satisfiable" / "assume not
//!   closed" (the EarlyStop admission argument: may widen, never
//!   narrows),
//! * a tripped branch & bound surfaces `BudgetExhausted` and the engine
//!   falls back to the LP relaxation (an outer bound of the MILP
//!   optimum),
//! * results computed under a trip carry `degraded: true`.
//!
//! [`charge_node`]: QueryBudget::charge_node

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod caps;
#[cfg(feature = "fault")]
pub mod fault;
mod gate;

pub mod pressure;

pub use caps::{parse_cap_value, parse_line_caps, BudgetCaps};
pub use gate::WorkGate;

/// Why a budget tripped: the first limit crossed, sticky for the
/// budget's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The paired [`CancelToken`] was fired.
    Cancelled,
    /// The SAT-check cap was exhausted.
    SatCap,
    /// The branch & bound node cap was exhausted.
    NodeCap,
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripReason::Deadline => write!(f, "deadline"),
            TripReason::Cancelled => write!(f, "cancelled"),
            TripReason::SatCap => write!(f, "sat-check cap"),
            TripReason::NodeCap => write!(f, "node cap"),
        }
    }
}

/// Trip-state encoding in [`Inner::tripped`]: 0 = live, else reason + 1.
fn encode(reason: TripReason) -> u8 {
    match reason {
        TripReason::Deadline => 1,
        TripReason::Cancelled => 2,
        TripReason::SatCap => 3,
        TripReason::NodeCap => 4,
    }
}

fn decode(v: u8) -> Option<TripReason> {
    match v {
        1 => Some(TripReason::Deadline),
        2 => Some(TripReason::Cancelled),
        3 => Some(TripReason::SatCap),
        4 => Some(TripReason::NodeCap),
        _ => None,
    }
}

/// Shared state of one armed budget.
#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    sat_cap: u64,
    node_cap: u64,
    sat_used: AtomicU64,
    nodes_used: AtomicU64,
    cancelled: AtomicBool,
    /// Sticky first-trip record; see [`encode`].
    tripped: AtomicU8,
    /// When the budget was armed — the admission layer measures queue
    /// wait as "armed → admitted".
    armed_at: Instant,
    /// Parent budget for [`QueryBudget::restricted`] children: a child
    /// also trips (with the parent's reason) whenever the parent does,
    /// so a cancel or deadline on the original handle still lands.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn fresh() -> Inner {
        Inner {
            deadline: None,
            sat_cap: u64::MAX,
            node_cap: u64::MAX,
            sat_used: AtomicU64::new(0),
            nodes_used: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            tripped: AtomicU8::new(0),
            armed_at: Instant::now(),
            parent: None,
        }
    }

    /// Record the first trip; later trips keep the original reason.
    fn trip(&self, reason: TripReason) {
        let _ =
            self.tripped
                .compare_exchange(0, encode(reason), Ordering::AcqRel, Ordering::Acquire);
    }

    /// Check the passive limits (deadline, cancel) and the sticky flag.
    /// `true` = proceed.
    fn proceed(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) != 0 {
            return false;
        }
        if let Some(parent) = &self.parent {
            if !parent.proceed() {
                if let Some(reason) = decode(parent.tripped.load(Ordering::Acquire)) {
                    self.trip(reason);
                }
                return false;
            }
        }
        if self.cancelled.load(Ordering::Acquire) {
            self.trip(TripReason::Cancelled);
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(TripReason::Deadline);
                return false;
            }
        }
        true
    }
}

/// A deadline / work-cap / cancellation budget for one query (or one
/// epoch derivation). Cheap to clone and share across the pool; the
/// default [`unlimited`](QueryBudget::unlimited) handle costs one branch
/// per check. See the module docs for the trip and granularity
/// semantics.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    inner: Option<Arc<Inner>>,
}

impl QueryBudget {
    /// The no-op budget: never trips, checks compile to a `None` test.
    pub const fn unlimited() -> QueryBudget {
        QueryBudget { inner: None }
    }

    /// An armed budget with no limits yet — useful as a pure
    /// cancellation handle (pair with [`cancel_token`]).
    ///
    /// [`cancel_token`]: QueryBudget::cancel_token
    pub fn armed() -> QueryBudget {
        QueryBudget {
            inner: Some(Arc::new(Inner::fresh())),
        }
    }

    /// Arm (if needed) and return the sole mutable reference to the
    /// inner state. Builder methods run before the handle is shared, so
    /// the `Arc` is never contended here.
    fn arm(&mut self) -> &mut Inner {
        let arc = self.inner.get_or_insert_with(|| Arc::new(Inner::fresh()));
        Arc::get_mut(arc).expect("budget builders run before the handle is shared")
    }

    /// Add a wall-clock deadline `timeout` from now.
    ///
    /// Saturates: a timeout too large to represent as an [`Instant`]
    /// (e.g. `Duration::MAX`) arms the budget with **no** deadline
    /// instead of panicking — "longer than the process can live" and
    /// "never" are the same limit.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryBudget {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline(deadline),
            None => {
                // Still arm the handle (so cancel tokens work and the
                // builder's contract "returns an armed budget" holds).
                self.arm();
                self
            }
        }
    }

    /// Add an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> QueryBudget {
        self.arm().deadline = Some(deadline);
        self
    }

    /// Cap the number of SAT satisfiability probes.
    pub fn with_sat_cap(mut self, cap: u64) -> QueryBudget {
        self.arm().sat_cap = cap;
        self
    }

    /// Cap the number of branch & bound node expansions.
    pub fn with_node_cap(mut self, cap: u64) -> QueryBudget {
        self.arm().node_cap = cap;
        self
    }

    /// A token that cancels this budget from another thread. `None` for
    /// an [`unlimited`](QueryBudget::unlimited) budget (nothing to
    /// cancel — arm one with [`armed`](QueryBudget::armed) or any
    /// `with_*` builder first).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.inner.as_ref().map(|inner| CancelToken {
            inner: Arc::clone(inner),
        })
    }

    /// True for the no-op handle (no checks will ever trip).
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The armed wall-clock deadline, if any — the scheduler reads this
    /// to stamp the query's pool tasks and to judge admission.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// How long ago this budget was armed. The admission layer reports
    /// this as the query's queue wait (armed at arrival → admitted when
    /// a worker picks it up). `None` for the unlimited handle.
    pub fn armed_for(&self) -> Option<Duration> {
        self.inner.as_ref().map(|i| i.armed_at.elapsed())
    }

    /// A budget born tripped with `reason`: every check answers `false`
    /// from the first granule. The load-shedding path runs rejected
    /// queries under one of these — each pipeline stage degrades
    /// immediately (frontier cells un-split, SAT admits unverified, LP
    /// relaxation), producing the cheapest sound answer the engine has.
    pub fn pre_tripped(reason: TripReason) -> QueryBudget {
        let inner = Inner::fresh();
        inner.tripped.store(encode(reason), Ordering::Release);
        QueryBudget {
            inner: Some(Arc::new(inner)),
        }
    }

    /// A child budget with tighter work caps that still answers to this
    /// one: the child trips whenever the parent trips (cancel, deadline —
    /// with the parent's reason), carries the parent's deadline, but
    /// spends its **own** sat/node allowance. The admission layer runs
    /// early-degraded and shed queries under such children, so skipping
    /// down the degradation ladder never consumes the caller's budget.
    pub fn restricted(&self, sat_cap: u64, node_cap: u64) -> QueryBudget {
        let mut inner = Inner::fresh();
        inner.sat_cap = sat_cap;
        inner.node_cap = node_cap;
        if let Some(parent) = &self.inner {
            inner.deadline = parent.deadline;
            inner.armed_at = parent.armed_at;
            inner.parent = Some(Arc::clone(parent));
        }
        QueryBudget {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Charge one SAT probe. `true` = proceed; `false` = the budget is
    /// (now) tripped and the caller should degrade within this granule.
    pub fn charge_sat(&self) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        if !inner.proceed() {
            return false;
        }
        if inner.sat_used.fetch_add(1, Ordering::AcqRel) >= inner.sat_cap {
            inner.trip(TripReason::SatCap);
            return false;
        }
        true
    }

    /// Charge one branch & bound node. Same contract as
    /// [`charge_sat`](QueryBudget::charge_sat).
    pub fn charge_node(&self) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        if !inner.proceed() {
            return false;
        }
        if inner.nodes_used.fetch_add(1, Ordering::AcqRel) >= inner.node_cap {
            inner.trip(TripReason::NodeCap);
            return false;
        }
        true
    }

    /// Check the passive limits (deadline, cancel, sticky trip) without
    /// charging any work — the fork-point check. `true` = proceed.
    pub fn proceed(&self) -> bool {
        match &self.inner {
            None => true,
            Some(inner) => inner.proceed(),
        }
    }

    /// Whether any limit has tripped (sticky).
    pub fn is_tripped(&self) -> bool {
        self.trip_reason().is_some()
    }

    /// The first limit crossed, if any.
    pub fn trip_reason(&self) -> Option<TripReason> {
        let inner = self.inner.as_ref()?;
        decode(inner.tripped.load(Ordering::Acquire))
    }

    /// SAT probes charged so far (diagnostics).
    pub fn sat_used(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.sat_used.load(Ordering::Acquire))
    }

    /// Branch & bound nodes charged so far (diagnostics).
    pub fn nodes_used(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.nodes_used.load(Ordering::Acquire))
    }
}

/// Fires the paired [`QueryBudget`]'s cancel flag. Clonable; any clone
/// cancels for all. The budget observes the cancel at its next check
/// (within one task granule) and stays tripped forever after.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Cancel the paired budget. Idempotent; a budget that already
    /// tripped on another limit keeps its original reason.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
        // Trip eagerly so `is_tripped` observers don't wait for the next
        // worker-side check.
        self.inner.trip(TripReason::Cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = QueryBudget::unlimited();
        for _ in 0..1000 {
            assert!(b.charge_sat());
            assert!(b.charge_node());
            assert!(b.proceed());
        }
        assert!(!b.is_tripped());
        assert!(b.cancel_token().is_none());
        assert!(b.is_unlimited());
    }

    #[test]
    fn sat_cap_trips_sticky() {
        let b = QueryBudget::unlimited().with_sat_cap(3);
        assert!(b.charge_sat());
        assert!(b.charge_sat());
        assert!(b.charge_sat());
        assert!(!b.charge_sat());
        assert_eq!(b.trip_reason(), Some(TripReason::SatCap));
        // sticky: everything answers false now, including other limits
        assert!(!b.charge_sat());
        assert!(!b.charge_node());
        assert!(!b.proceed());
        assert_eq!(b.sat_used(), 4);
    }

    #[test]
    fn node_cap_trips() {
        let b = QueryBudget::unlimited().with_node_cap(2);
        assert!(b.charge_node());
        assert!(b.charge_node());
        assert!(!b.charge_node());
        assert_eq!(b.trip_reason(), Some(TripReason::NodeCap));
    }

    #[test]
    fn deadline_trips() {
        let b = QueryBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!b.proceed());
        assert_eq!(b.trip_reason(), Some(TripReason::Deadline));
    }

    #[test]
    fn cancel_trips_across_clones() {
        let b = QueryBudget::armed();
        let token = b.cancel_token().expect("armed budgets are cancellable");
        let clone = b.clone();
        assert!(clone.proceed());
        token.cancel();
        assert!(!clone.proceed());
        assert!(!b.charge_sat());
        assert_eq!(b.trip_reason(), Some(TripReason::Cancelled));
    }

    #[test]
    fn first_trip_wins() {
        let b = QueryBudget::unlimited().with_sat_cap(0);
        assert!(!b.charge_sat());
        b.cancel_token().unwrap().cancel();
        assert_eq!(b.trip_reason(), Some(TripReason::SatCap));
    }

    #[test]
    fn builders_compose() {
        let b = QueryBudget::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_sat_cap(10)
            .with_node_cap(10);
        assert!(!b.is_unlimited());
        assert!(b.proceed());
        assert!(b.charge_sat() && b.charge_node());
    }

    #[test]
    fn huge_timeout_saturates_instead_of_panicking() {
        let b = QueryBudget::unlimited().with_timeout(Duration::MAX);
        assert!(!b.is_unlimited(), "saturated timeout still arms the handle");
        assert_eq!(b.deadline(), None, "unrepresentable deadline = no deadline");
        assert!(b.proceed());
        assert!(b.cancel_token().is_some());
        // a merely-large (but representable) timeout keeps its deadline
        let b = QueryBudget::unlimited().with_timeout(Duration::from_secs(86_400 * 365));
        assert!(b.deadline().is_some());
    }

    #[test]
    fn restricted_child_spends_its_own_caps() {
        let parent = QueryBudget::unlimited().with_sat_cap(1000);
        let child = parent.restricted(2, u64::MAX);
        assert!(child.charge_sat());
        assert!(child.charge_sat());
        assert!(!child.charge_sat());
        assert_eq!(child.trip_reason(), Some(TripReason::SatCap));
        // the parent is untouched: its allowance was never spent
        assert!(parent.proceed());
        assert_eq!(parent.sat_used(), 0);
    }

    #[test]
    fn restricted_child_follows_parent_cancel() {
        let parent = QueryBudget::armed();
        let child = parent.restricted(u64::MAX, u64::MAX);
        assert!(child.proceed());
        parent.cancel_token().unwrap().cancel();
        assert!(!child.proceed());
        assert_eq!(child.trip_reason(), Some(TripReason::Cancelled));
    }

    #[test]
    fn restricted_child_inherits_deadline_and_age() {
        let deadline = Instant::now() - Duration::from_millis(1);
        let parent = QueryBudget::unlimited().with_deadline(deadline);
        let child = parent.restricted(u64::MAX, u64::MAX);
        assert_eq!(child.deadline(), Some(deadline));
        assert!(!child.proceed());
        assert_eq!(child.trip_reason(), Some(TripReason::Deadline));
        assert!(child.armed_for().is_some());
    }

    #[test]
    fn trip_reason_displays() {
        for (r, s) in [
            (TripReason::Deadline, "deadline"),
            (TripReason::Cancelled, "cancelled"),
            (TripReason::SatCap, "sat"),
            (TripReason::NodeCap, "node"),
        ] {
            assert!(r.to_string().contains(s));
        }
    }
}
