//! Backend bookkeeping: the per-backend circuit breaker and the retained
//! LOAD cache that makes warm-standby rejoin possible.
//!
//! Each backend cycles through a small health machine driven entirely by
//! the event loop (no locks, no timers of its own):
//!
//! ```text
//!              dial ok                 replays drained
//!   Probing ───────────▶ Standby ───────────────────▶ Healthy
//!      ▲  ◀──────────┐      │                            │
//!      │   dial err  │      └── conn lost ──┐            │
//!      │ (< 3 fails) │                      ▼            ▼
//!      └─────────────┴──────────────── note_failure ◀────┘
//!                                           │ (≥ 3 consecutive fails)
//!                                           ▼
//!                                         Dead  ── backoff ──▶ Probing
//! ```
//!
//! `Dead` is not removal: the backend keeps its ring points and its probe
//! schedule (with a longer backoff), so a rebooted process rejoins in
//! place. On reconnect the router replays every retained LOAD whose
//! replica set includes this backend (`Standby`); only when the replays
//! drain does the backend take new traffic again (`Healthy`) — a rejoined
//! replica never serves `UnknownFingerprint` for factors it is supposed
//! to hold.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use trisolv_server::conn::Conn;
use trisolv_server::Fingerprint;

/// Consecutive dial/connection failures before `Probing` hardens to `Dead`.
pub(crate) const DEAD_THRESHOLD: u32 = 3;
/// Cap on the probe-backoff exponent (`probe_interval * 2^exp`).
pub(crate) const MAX_BACKOFF_EXP: u32 = 6;

/// Breaker state of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Connected, replays drained: takes new traffic.
    Healthy,
    /// Connected but replaying retained LOADs; no new traffic yet.
    Standby,
    /// Disconnected, probing on a short backoff.
    Probing,
    /// Disconnected after repeated failures; probing on a long backoff.
    Dead,
}

/// One in-flight sub-request on a backend connection. They live in a map
/// keyed by the wire request id, and replies may land in any order.
pub(crate) struct SubReq {
    /// Router request id this sub-request belongs to.
    pub req: u64,
    /// Backstop deadline for the reply; when it blows, only this
    /// sub-request fails.
    pub expires: Instant,
    /// When the sub-request was enqueued (latency samples, hedge timing).
    pub sent: Instant,
    /// Whether this is a SOLVE forward (only those are hedge candidates
    /// and only their completions feed the latency window).
    pub solve: bool,
    /// Whether this sub-request *is* a hedge (duplicate dispatch).
    pub hedge: bool,
    /// Cleared once the hedge scan has considered this sub-request, so a
    /// past-threshold sub that cannot be hedged (budget, no replica) does
    /// not wake the loop forever.
    pub hedge_eligible: bool,
}

impl SubReq {
    /// A plain (non-hedge) sub-request.
    pub fn new(req: u64, expires: Instant, sent: Instant, solve: bool) -> SubReq {
        SubReq {
            req,
            expires,
            sent,
            solve,
            hedge: false,
            hedge_eligible: solve,
        }
    }

    /// A hedge duplicate of a SOLVE sub-request.
    pub fn new_hedge(req: u64, expires: Instant, sent: Instant) -> SubReq {
        SubReq {
            req,
            expires,
            sent,
            solve: true,
            hedge: true,
            hedge_eligible: false,
        }
    }
}

/// Windowed completion-latency tracker feeding the adaptive hedge
/// threshold: a ring of the last [`LatencyWindow::CAP`] non-hedged SOLVE
/// completion times, queried at p99. Hedged completions are excluded so a
/// stalled replica cannot poison the threshold through its own rescues.
#[derive(Default)]
pub(crate) struct LatencyWindow {
    samples: Vec<u32>,
    next: usize,
}

impl LatencyWindow {
    const CAP: usize = 64;

    pub fn record(&mut self, d: Duration) {
        let ms = d.as_millis().min(u128::from(u32::MAX)) as u32;
        if self.samples.len() < Self::CAP {
            self.samples.push(ms);
        } else {
            self.samples[self.next] = ms;
        }
        self.next = (self.next + 1) % Self::CAP;
    }

    /// The windowed p99 (max of the top 1%; with ≤ 100 samples, the max).
    /// Zero when no samples have landed yet.
    pub fn p99(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() * 99).div_ceil(100).saturating_sub(1);
        Duration::from_millis(u64::from(sorted[idx]))
    }
}

/// One backend: address, breaker, connection, and in-flight bookkeeping.
pub(crate) struct Backend {
    /// Dial address (as configured; also reported in EVICT outcomes).
    pub addr: String,
    /// Breaker state.
    pub health: Health,
    /// Live connection, when one exists (`Standby`/`Healthy`).
    pub conn: Option<Conn>,
    /// Backstop for the `OK_HELLO` answer; set exactly while the `HELLO`
    /// the router opened the connection with is unanswered, during which
    /// no sub-request may be queued.
    pub hello_deadline: Option<Instant>,
    /// In-flight sub-requests keyed by wire request id.
    pub inflight: HashMap<u64, SubReq>,
    /// Next wire request id.
    pub next_wire: u64,
    /// Completion-latency window feeding the adaptive hedge threshold.
    pub latency: LatencyWindow,
    /// Consecutive failures since the last successful connect.
    pub failures: u32,
    /// Earliest next dial attempt.
    pub next_probe: Instant,
    /// A dial is in flight on the dialer thread.
    pub dialing: bool,
    /// Retained-LOAD replays still pending before promotion to `Healthy`.
    pub rejoining: usize,
}

impl Backend {
    /// A new backend starts `Probing` with an immediate first dial.
    pub fn new(addr: String, now: Instant) -> Backend {
        Backend {
            addr,
            health: Health::Probing,
            conn: None,
            hello_deadline: None,
            inflight: HashMap::new(),
            next_wire: 1,
            latency: LatencyWindow::default(),
            failures: 0,
            next_probe: now,
            dialing: false,
            rejoining: 0,
        }
    }

    /// May new client traffic route here?
    pub fn usable(&self) -> bool {
        self.health == Health::Healthy && self.conn.is_some()
    }

    /// Record a dial failure or a lost connection: drop the conn, bump the
    /// consecutive-failure count, demote to `Probing` (or `Dead` past the
    /// threshold), and schedule the next probe with exponential backoff.
    /// The caller owns draining `inflight` *before* calling this.
    pub fn note_failure(&mut self, now: Instant, probe_interval: Duration) {
        self.conn = None;
        self.hello_deadline = None;
        self.rejoining = 0;
        self.failures = self.failures.saturating_add(1);
        self.health = if self.failures >= DEAD_THRESHOLD {
            Health::Dead
        } else {
            Health::Probing
        };
        let exp = (self.failures - 1).min(MAX_BACKOFF_EXP);
        self.next_probe = now + probe_interval.max(Duration::from_millis(1)) * (1u32 << exp);
    }

    /// Record a successful connect: the breaker resets and the backend sits
    /// in `Standby` until its retained-LOAD replays (if any) drain. The
    /// caller installs the connection and queues the replays.
    pub fn note_connected(&mut self) {
        self.failures = 0;
        self.health = Health::Standby;
    }

    /// One replay sub-request finished. Returns `true` when this was the
    /// last one and the backend just promoted to `Healthy`.
    pub fn finish_rejoin(&mut self) -> bool {
        self.rejoining = self.rejoining.saturating_sub(1);
        if self.rejoining == 0 && self.health == Health::Standby {
            self.health = Health::Healthy;
            true
        } else {
            false
        }
    }

    /// Should the loop hand this backend to the dialer now?
    pub fn wants_dial(&self, now: Instant) -> bool {
        self.conn.is_none() && !self.dialing && now >= self.next_probe
    }
}

/// Retained LOAD payloads keyed by fingerprint, under a byte budget with
/// oldest-first eviction. This is what a rejoining backend replays: the
/// router re-sends the original LOAD frames for every fingerprint the ring
/// places on it, so a factor survives the death of any single replica.
pub(crate) struct Retained {
    map: HashMap<Fingerprint, Vec<u8>>,
    order: VecDeque<Fingerprint>,
    bytes: usize,
    budget: usize,
}

impl Retained {
    pub fn new(budget: usize) -> Retained {
        Retained {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            budget: budget.max(1),
        }
    }

    /// Retain (or refresh) a LOAD payload, evicting oldest entries past the
    /// budget. A payload larger than the whole budget is not retained.
    pub fn insert(&mut self, fp: Fingerprint, payload: Vec<u8>) {
        self.remove(fp);
        if payload.len() > self.budget {
            return;
        }
        self.bytes += payload.len();
        self.map.insert(fp, payload);
        self.order.push_back(fp);
        while self.bytes > self.budget {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(p) = self.map.remove(&old) {
                self.bytes -= p.len();
            }
        }
    }

    pub fn remove(&mut self, fp: Fingerprint) {
        if let Some(p) = self.map.remove(&fp) {
            self.bytes -= p.len();
            self.order.retain(|f| *f != fp);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Fingerprint, &Vec<u8>)> {
        self.map.iter()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_probing_standby_healthy() {
        let t0 = Instant::now();
        let mut b = Backend::new("127.0.0.1:1".into(), t0);
        assert_eq!(b.health, Health::Probing);
        assert!(b.wants_dial(t0));
        b.dialing = true;
        assert!(!b.wants_dial(t0), "no double dials");
        // connect with two replays pending
        b.dialing = false;
        b.note_connected();
        b.rejoining = 2;
        assert_eq!(b.health, Health::Standby);
        assert!(!b.usable(), "standby takes no new traffic");
        assert!(!b.finish_rejoin());
        assert!(b.finish_rejoin(), "last replay promotes");
        assert_eq!(b.health, Health::Healthy);
        assert_eq!(b.failures, 0);
    }

    #[test]
    fn repeated_failures_harden_to_dead_with_growing_backoff() {
        let t0 = Instant::now();
        let step = Duration::from_millis(100);
        let mut b = Backend::new("127.0.0.1:1".into(), t0);
        b.note_failure(t0, step);
        assert_eq!(b.health, Health::Probing);
        let p1 = b.next_probe;
        assert_eq!(p1, t0 + step);
        b.note_failure(t0, step);
        assert_eq!(b.health, Health::Probing);
        let p2 = b.next_probe;
        assert!(p2 > p1, "backoff grows");
        b.note_failure(t0, step);
        assert_eq!(b.health, Health::Dead, "third consecutive failure");
        assert!(b.next_probe > p2);
        assert!(!b.wants_dial(t0), "dead backend waits out its backoff");
        assert!(b.wants_dial(b.next_probe), "…but keeps probing");
        // a successful reconnect fully resets the breaker
        b.note_connected();
        assert_eq!(b.failures, 0);
        assert!(b.finish_rejoin(), "no replays pending: immediate promote");
        assert_eq!(b.health, Health::Healthy);
    }

    #[test]
    fn backoff_exponent_saturates() {
        let t0 = Instant::now();
        let step = Duration::from_millis(10);
        let mut b = Backend::new("x".into(), t0);
        for _ in 0..100 {
            b.note_failure(t0, step);
        }
        assert_eq!(b.next_probe, t0 + step * (1 << MAX_BACKOFF_EXP));
    }

    #[test]
    fn latency_window_p99_tracks_recent_samples() {
        let mut w = LatencyWindow::default();
        assert_eq!(w.p99(), Duration::ZERO, "empty window contributes nothing");
        for _ in 0..50 {
            w.record(Duration::from_millis(10));
        }
        assert_eq!(w.p99(), Duration::from_millis(10));
        w.record(Duration::from_millis(500));
        assert_eq!(
            w.p99(),
            Duration::from_millis(500),
            "a tail spike is visible at p99"
        );
        // the window is a ring: a full turn of fresh fast samples pushes
        // the spike out again
        for _ in 0..LatencyWindow::CAP {
            w.record(Duration::from_millis(5));
        }
        assert_eq!(w.p99(), Duration::from_millis(5));
    }

    #[test]
    fn retained_cache_enforces_budget_oldest_first() {
        let mut r = Retained::new(100);
        let fp = |i: u64| Fingerprint(i, i);
        r.insert(fp(1), vec![0; 40]);
        r.insert(fp(2), vec![0; 40]);
        assert_eq!((r.len(), r.bytes()), (2, 80));
        // refresh does not duplicate
        r.insert(fp(1), vec![0; 40]);
        assert_eq!((r.len(), r.bytes()), (2, 80));
        // pushing past the budget evicts the oldest (fp 2 now, after fp 1's refresh)
        r.insert(fp(3), vec![0; 40]);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|(f, _)| *f != fp(2)));
        // an entry larger than the whole budget is refused
        r.insert(fp(4), vec![0; 101]);
        assert!(r.iter().all(|(f, _)| *f != fp(4)));
        r.remove(fp(3));
        assert_eq!((r.len(), r.bytes()), (1, 40));
    }
}
