//! Work-gated forking: a search runs inline until it has done enough work
//! to pay for handing some of it to the pool.
//!
//! Handing a subtree to the work-stealing pool is not free. A cold
//! fan-out (waking a worker, migrating the caller into the pool, stealing,
//! merging the halves) costs about 100 µs on a 2-vCPU host, while most
//! searches of a one-shot bound (a decomposition, a closure probe, a
//! branch & bound) finish in less. Forking those only adds the hand-off
//! to their latency. A [`WorkGate`] is created when a search starts; its
//! fork sites ask [`WorkGate::is_open`] and hand work to the pool only
//! once the search has run [`WorkGate::GRAIN`] inline. A small search then
//! never pays a hand-off, and a big one has already done enough work to
//! pay for it (the rent-or-buy argument; see [`WorkGate::GRAIN`]).
//!
//! The eager gate ([`WorkGate::start`] with `eager: true`) is open from
//! the first node. It forks at every eligible site, so it is the oracle
//! for "forked == inline" tests; it is not a tuning knob. The grain is a
//! constant, not an option.

use std::time::{Duration, Instant};

/// When one search may start handing work to the pool. Cheap to copy;
/// checking it reads the monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkGate {
    /// The instant the gate opens; `None` for a search that never forks.
    opens_at: Option<Instant>,
}

impl WorkGate {
    /// Inline work a search runs before its first fork: twice the
    /// measured cost of one cold fan-out, about 100 µs on a 2-vCPU host.
    /// On two workers a fork at best halves the time left, so forking
    /// after `g` of inline work costs at most `(g + hand-off) / g` times
    /// the better choice while `g` is under two hand-offs, and more again
    /// above; two hand-offs is the ski-rental optimum (1.5×).
    pub const GRAIN: Duration = Duration::from_micros(200);

    /// The gate of a search that never forks.
    pub const INLINE: WorkGate = WorkGate { opens_at: None };

    /// The gate of a search that starts now: open once the search has run
    /// [`WorkGate::GRAIN`] inline, or at once when `eager`.
    pub fn start(eager: bool) -> WorkGate {
        let now = Instant::now();
        WorkGate {
            opens_at: Some(if eager { now } else { now + Self::GRAIN }),
        }
    }

    /// Whether a fork site may hand work to the pool now. Once open, a
    /// gate stays open.
    pub fn is_open(&self) -> bool {
        self.opens_at.is_some_and(|t| Instant::now() >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_never_opens_and_eager_is_open_at_once() {
        assert!(!WorkGate::INLINE.is_open());
        assert!(WorkGate::start(true).is_open());
    }

    #[test]
    fn gated_opens_after_the_grain() {
        let gate = WorkGate::start(false);
        let opened = Instant::now() + WorkGate::GRAIN;
        while Instant::now() < opened {
            std::hint::spin_loop();
        }
        assert!(gate.is_open());
    }
}
