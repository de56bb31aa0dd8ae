//! Time: the live path's one clock, and the simulator's virtual seconds.
//!
//! Every live component — client, server, agent and the chaos link — reads
//! and spends time through the [`Clock`] its transport carries
//! (`netsolve_net::Transport::clock`): [`RealClock`] in production, a
//! [`VirtualClock`] where a test replays the live code without waiting.
//! The discrete-event simulator counts [`SimTime`] seconds, which the
//! agent's core shares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// A point in time, in seconds since an arbitrary epoch.
///
/// Stored as `f64` seconds: the simulator needs sub-millisecond arithmetic
/// on analytic quantities (bytes/bandwidth), and 52 bits of mantissa give
/// microsecond resolution over centuries.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// The epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime(ms / 1e3)
    }

    /// Seconds since epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds since epoch.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Elapsed seconds since `earlier` (negative if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }

    /// This time advanced by `secs` seconds.
    pub fn plus(self, secs: f64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

impl std::ops::Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl std::ops::Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// Where the live path reads and spends time.
pub trait Clock: Send + Sync {
    /// Current time.
    fn now(&self) -> Instant;

    /// Return once the clock reads `t` or later.
    fn sleep_until(&self, t: Instant);

    /// Time from `earlier` to now; zero if `earlier` is later.
    fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// Spend `pause` on this clock.
    fn sleep(&self, pause: Duration) {
        self.sleep_until(self.now() + pause)
    }
}

/// The system's monotonic clock: a sleep blocks the thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep_until(&self, t: Instant) {
        std::thread::sleep(t.saturating_duration_since(Instant::now()))
    }
}

/// A clock that moves only when told to, for deterministic tests: a sleep
/// moves it forward to the wake time and returns at once.
///
/// Cloning shares the underlying time cell, so every component holding a
/// clone observes the same virtual instant. Time never runs backwards.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    origin: Instant,
    elapsed: Arc<Mutex<Duration>>,
}

impl VirtualClock {
    /// A virtual clock reading the moment of its creation.
    pub fn new() -> Self {
        VirtualClock { origin: Instant::now(), elapsed: Arc::default() }
    }

    /// Move the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        *self.elapsed.lock() += by;
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.origin + *self.elapsed.lock()
    }

    fn sleep_until(&self, t: Instant) {
        let mut elapsed = self.elapsed.lock();
        *elapsed = (*elapsed).max(t.saturating_duration_since(self.origin));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = a + 0.5;
        assert!((b.as_secs() - 2.5).abs() < 1e-12);
        assert!((b - a - 0.5).abs() < 1e-12);
        assert!((b.since(a) - 0.5).abs() < 1e-12);
        assert!((SimTime::from_millis(1500.0).as_secs() - 1.5).abs() < 1e-12);
        assert!((a.plus(1.0).as_millis() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn real_clock_monotonic() {
        let c = RealClock;
        let t1 = c.now();
        let t2 = c.now();
        assert!(t2 >= t1);
        c.sleep_until(t1 + Duration::from_millis(1));
        assert!(c.since(t1) >= Duration::from_millis(1));
    }

    #[test]
    fn virtual_clock_advances_and_shares() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        let t0 = c.now();
        c.advance(Duration::from_millis(1500));
        assert_eq!(c2.since(t0), Duration::from_millis(1500));
        c2.sleep_until(t0 + Duration::from_secs(3));
        assert_eq!(c.now(), t0 + Duration::from_secs(3));
    }

    /// A virtual sleep costs no wall time and lands exactly on its wake
    /// time; a wake time already passed leaves the clock where it is.
    #[test]
    fn virtual_sleep_moves_time_instead_of_spending_it() {
        let c = VirtualClock::new();
        let (t0, wall) = (c.now(), Instant::now());
        c.sleep(Duration::from_secs(3600));
        assert_eq!(c.since(t0), Duration::from_secs(3600));
        c.sleep_until(t0 + Duration::from_secs(1));
        assert_eq!(c.since(t0), Duration::from_secs(3600), "time never runs backwards");
        assert!(wall.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn clock_trait_object_usable() {
        let clocks: Vec<Box<dyn Clock>> = vec![Box::new(RealClock), Box::new(VirtualClock::new())];
        for c in &clocks {
            let t = c.now();
            c.sleep(Duration::ZERO);
            assert!(c.now() >= t);
        }
    }
}
