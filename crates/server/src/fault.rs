//! Deterministic fault injection for the solve service.
//!
//! A [`FaultPlan`] is a seeded list of rules, each binding a *site* (a named
//! point in the request path), an *action* (what goes wrong there), and a
//! *gate* (how often it fires). Plans are compiled in unconditionally —
//! there is no feature flag — but an empty plan is a single `Option`
//! check on the hot path, so production configurations pay nothing.
//!
//! Spec grammar (`trisolv serve --fault-spec`): clauses separated by `;`.
//!
//! ```text
//! seed=42;solve.panic=every:7;read.stall=prob:0.05,ms:20;write.torn=every:13
//! ```
//!
//! * `seed=<u64>` seeds the probabilistic gates (defaults to 0);
//! * every other clause is `<site>.<action>=<gate>[,ms:<dur>]` where the
//!   gate is `every:<n>` (fire on every n-th arrival at the site, exactly
//!   reproducible) or `prob:<p>` (fire with probability `p` from the
//!   seeded generator), and `ms:` sets the stall duration for `stall`
//!   actions (default 10 ms).
//!
//! Sites and the actions they accept:
//!
//! | site     | where it fires                                   | actions |
//! |----------|--------------------------------------------------|---------|
//! | `conn`   | connection handed to a worker                    | `drop` |
//! | `read`   | before reading a request frame                   | `stall`, `drop`, `bitflip` |
//! | `write`  | before writing a reply frame                     | `stall`, `drop`, `torn`, `bitflip` |
//! | `solve`  | inside the blocked solve (threaded executor)     | `panic`, `stall` |
//! | `factor` | inside `LOAD` factorization                      | `panic`, `stall` |
//! | `worker` | in the worker loop, outside all panic isolation  | `panic` |
//! | `cache`  | cached-factor lookup on the solve path           | `torn` |
//! | `store`  | snapshot write in the persistence thread         | `torn`, `stall`, `bitflip` |
//!
//! `torn` at the `write` site writes a truncated frame and then drops the
//! connection, which is exactly what a peer crash mid-`writev` looks like;
//! at the `cache` site it silently flips one bit in the resident factor's
//! values (keeping the integrity checksum of the *original*), which is what
//! undetected memory corruption looks like — the engine's verify cadence
//! must catch, evict, and refactor it. `worker.panic` kills the worker
//! thread itself, exercising the supervisor's respawn path. At the `store`
//! site, `torn` leaves a truncated snapshot at the *final* file name
//! (a crash between `write` and `fsync`), `stall` sleeps before the write
//! (widening the window a SIGKILL drill aims at), and `bitflip` flips one
//! payload byte after the trailer checksum was computed (silent media
//! corruption) — the recovery scan must discard all three without panicking.
//! At the `read` site, `bitflip` flips one byte of a parsed request payload
//! before it is verified; at the `write` site it flips one byte of an
//! encoded reply frame after its checksum trailer was computed. Both model
//! wire corruption that length framing cannot see: the receiver's
//! checksum rejects the frame (`ERR Corrupt` server-side, a counted drop
//! at the router, a `Protocol` error in the client) instead of decoding
//! the damage.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use trisolv_matrix::rng::Rng;

/// A named point in the request path where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A freshly accepted connection reaching its worker.
    Conn,
    /// About to read a request frame from the peer.
    Read,
    /// About to write a reply frame to the peer.
    Write,
    /// Inside the blocked solve executor.
    Solve,
    /// Inside `LOAD` factorization.
    Factor,
    /// The worker loop itself (outside panic isolation).
    Worker,
    /// Cached-factor lookup on the solve path (integrity drills).
    Cache,
    /// Snapshot write in the factor-store persistence thread.
    Store,
}

impl FaultSite {
    fn parse(s: &str) -> Result<FaultSite, String> {
        Ok(match s {
            "conn" => FaultSite::Conn,
            "read" => FaultSite::Read,
            "write" => FaultSite::Write,
            "solve" => FaultSite::Solve,
            "factor" => FaultSite::Factor,
            "worker" => FaultSite::Worker,
            "cache" => FaultSite::Cache,
            "store" => FaultSite::Store,
            other => {
                return Err(format!(
                    "unknown fault site {other:?} (conn|read|write|solve|factor|worker|cache|store)"
                ))
            }
        })
    }

    fn name(self) -> &'static str {
        match self {
            FaultSite::Conn => "conn",
            FaultSite::Read => "read",
            FaultSite::Write => "write",
            FaultSite::Solve => "solve",
            FaultSite::Factor => "factor",
            FaultSite::Worker => "worker",
            FaultSite::Cache => "cache",
            FaultSite::Store => "store",
        }
    }
}

/// What goes wrong when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for the given duration (read/write stall, slow solve).
    Stall(Duration),
    /// Panic on the current thread.
    Panic,
    /// Drop the connection without a reply.
    Drop,
    /// Write a truncated frame, then drop the connection.
    Torn,
    /// Flip one payload byte after checksums were computed (silent wire or
    /// media corruption; `read`, `write`, and `store` sites).
    BitFlip,
}

impl FaultAction {
    fn kind(&self) -> &'static str {
        match self {
            FaultAction::Stall(_) => "stall",
            FaultAction::Panic => "panic",
            FaultAction::Drop => "drop",
            FaultAction::Torn => "torn",
            FaultAction::BitFlip => "bitflip",
        }
    }
}

/// How often a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// Fire on every `n`-th arrival at the site (1-based, exactly
    /// reproducible regardless of seed).
    Every(u64),
    /// Fire with this probability, drawn from the plan's seeded generator.
    Prob(f64),
}

struct Rule {
    site: FaultSite,
    action: FaultAction,
    gate: Gate,
    /// Arrivals at this rule so far (drives `Gate::Every`).
    count: AtomicU64,
}

struct PlanInner {
    rules: Vec<Rule>,
    rng: Mutex<Rng>,
    injected: AtomicU64,
}

/// A seeded, thread-safe fault-injection plan. Cloning shares the plan's
/// counters (clones see the same `every:` cadence and injection totals).
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlan(empty)"),
            Some(p) => {
                write!(f, "FaultPlan[")?;
                for (i, r) in p.rules.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{}.{}={:?}", r.site.name(), r.action.kind(), r.gate)?;
                }
                write!(f, "]")
            }
        }
    }
}

impl FaultPlan {
    /// A plan that never injects anything (the production default).
    pub fn none() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// Whether the plan has any rules at all.
    pub fn is_empty(&self) -> bool {
        self.inner.is_none()
    }

    /// Total faults injected so far (all sites).
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |p| p.injected.load(Ordering::Relaxed))
    }

    /// Parse a `--fault-spec` string. An empty string yields the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::none());
        }
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} missing '='"))?;
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|e| format!("bad fault seed {value:?}: {e}"))?;
                continue;
            }
            let (site_s, action_s) = key
                .split_once('.')
                .ok_or_else(|| format!("fault key {key:?} is not <site>.<action>"))?;
            let site = FaultSite::parse(site_s)?;
            let mut gate = None;
            let mut stall_ms = 10u64;
            for part in value.split(',') {
                let (k, v) = part
                    .split_once(':')
                    .ok_or_else(|| format!("fault arg {part:?} is not <key>:<value>"))?;
                match k {
                    "every" => {
                        let n: u64 = v.parse().map_err(|e| format!("bad every:{v}: {e}"))?;
                        if n == 0 {
                            return Err("every:0 never fires; omit the rule instead".to_string());
                        }
                        gate = Some(Gate::Every(n));
                    }
                    "prob" => {
                        let p: f64 = v.parse().map_err(|e| format!("bad prob:{v}: {e}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("prob:{v} outside [0, 1]"));
                        }
                        gate = Some(Gate::Prob(p));
                    }
                    "ms" => {
                        stall_ms = v.parse().map_err(|e| format!("bad ms:{v}: {e}"))?;
                    }
                    other => return Err(format!("unknown fault arg {other:?} (every|prob|ms)")),
                }
            }
            let gate =
                gate.ok_or_else(|| format!("fault clause {clause:?} needs every: or prob:"))?;
            let action = match action_s {
                "stall" => FaultAction::Stall(Duration::from_millis(stall_ms)),
                "panic" => FaultAction::Panic,
                "drop" => FaultAction::Drop,
                "torn" => FaultAction::Torn,
                "bitflip" => FaultAction::BitFlip,
                other => {
                    return Err(format!(
                        "unknown fault action {other:?} (stall|panic|drop|torn|bitflip)"
                    ))
                }
            };
            let allowed: &[&str] = match site {
                FaultSite::Conn => &["drop"],
                FaultSite::Read => &["stall", "drop", "bitflip"],
                FaultSite::Write => &["stall", "drop", "torn", "bitflip"],
                FaultSite::Solve | FaultSite::Factor => &["panic", "stall"],
                FaultSite::Worker => &["panic"],
                FaultSite::Cache => &["torn"],
                FaultSite::Store => &["torn", "stall", "bitflip"],
            };
            if !allowed.contains(&action.kind()) {
                return Err(format!(
                    "fault action {:?} not valid at site {:?} (allowed: {})",
                    action.kind(),
                    site.name(),
                    allowed.join("|")
                ));
            }
            rules.push(Rule {
                site,
                action,
                gate,
                count: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Ok(FaultPlan::none());
        }
        Ok(FaultPlan {
            inner: Some(Arc::new(PlanInner {
                rules,
                rng: Mutex::new(Rng::seed_from_u64(seed)),
                injected: AtomicU64::new(0),
            })),
        })
    }

    /// Should a fault fire at `site` right now? Returns the action to take.
    /// Costs one `Option` check when the plan is empty.
    #[inline]
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        let inner = self.inner.as_ref()?;
        for rule in &inner.rules {
            if rule.site != site {
                continue;
            }
            let fire = match rule.gate {
                Gate::Every(n) => (rule.count.fetch_add(1, Ordering::Relaxed) + 1) % n == 0,
                Gate::Prob(p) => {
                    let mut rng = inner.rng.lock().unwrap_or_else(|e| e.into_inner());
                    rng.bool(p)
                }
            };
            if fire {
                inner.injected.fetch_add(1, Ordering::Relaxed);
                return Some(rule.action);
            }
        }
        None
    }

    /// [`check`](FaultPlan::check), then immediately honor `Stall` (sleep)
    /// and `Panic` (panic) actions in place; `Drop`/`Torn` are returned for
    /// the caller to act on, since only it owns the connection.
    ///
    /// # Panics
    /// When a `panic` rule fires — that is the point.
    pub fn trip(&self, site: FaultSite) -> Option<FaultAction> {
        match self.check(site)? {
            FaultAction::Stall(d) => {
                std::thread::sleep(d);
                None
            }
            FaultAction::Panic => {
                panic!("injected fault: panic at site {}", site.name());
            }
            other => Some(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_specs_yield_empty_plans() {
        for spec in ["", "   ", ";;"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty());
            assert_eq!(plan.check(FaultSite::Solve), None);
            assert_eq!(plan.injected(), 0);
        }
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn every_gate_fires_exactly_each_nth() {
        let plan = FaultPlan::parse("solve.panic=every:3").unwrap();
        let fired: Vec<bool> = (0..9)
            .map(|_| plan.check(FaultSite::Solve).is_some())
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.injected(), 3);
        // other sites are untouched
        assert_eq!(plan.check(FaultSite::Read), None);
    }

    #[test]
    fn prob_gate_is_seeded_and_reproducible() {
        let a = FaultPlan::parse("seed=9;read.drop=prob:0.5").unwrap();
        let b = FaultPlan::parse("seed=9;read.drop=prob:0.5").unwrap();
        let fa: Vec<bool> = (0..64)
            .map(|_| a.check(FaultSite::Read).is_some())
            .collect();
        let fb: Vec<bool> = (0..64)
            .map(|_| b.check(FaultSite::Read).is_some())
            .collect();
        assert_eq!(fa, fb, "same seed, same firing sequence");
        assert!(fa.iter().any(|&f| f) && fa.iter().any(|&f| !f));
        // prob:0 never fires, prob:1 always fires
        let never = FaultPlan::parse("read.drop=prob:0").unwrap();
        assert!((0..32).all(|_| never.check(FaultSite::Read).is_none()));
        let always = FaultPlan::parse("read.drop=prob:1").unwrap();
        assert!((0..32).all(|_| always.check(FaultSite::Read).is_some()));
    }

    #[test]
    fn stall_duration_and_action_mapping() {
        let plan =
            FaultPlan::parse("read.stall=every:1,ms:25;write.torn=every:1;conn.drop=every:1")
                .unwrap();
        assert_eq!(
            plan.check(FaultSite::Read),
            Some(FaultAction::Stall(Duration::from_millis(25)))
        );
        assert_eq!(plan.check(FaultSite::Write), Some(FaultAction::Torn));
        assert_eq!(plan.check(FaultSite::Conn), Some(FaultAction::Drop));
        let cache = FaultPlan::parse("cache.torn=every:2").unwrap();
        assert_eq!(cache.check(FaultSite::Cache), None);
        assert_eq!(cache.check(FaultSite::Cache), Some(FaultAction::Torn));
        let store = FaultPlan::parse("store.bitflip=every:1;store.torn=every:2").unwrap();
        assert_eq!(store.check(FaultSite::Store), Some(FaultAction::BitFlip));
        // wire-corruption drills: bitflip is legal at read and write
        let wire = FaultPlan::parse("read.bitflip=every:1;write.bitflip=every:1").unwrap();
        assert_eq!(wire.check(FaultSite::Read), Some(FaultAction::BitFlip));
        assert_eq!(wire.check(FaultSite::Write), Some(FaultAction::BitFlip));
    }

    #[test]
    fn trip_sleeps_stalls_and_returns_connection_actions() {
        let plan = FaultPlan::parse("read.stall=every:1,ms:5;write.drop=every:1").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(plan.trip(FaultSite::Read), None, "stall handled in place");
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(plan.trip(FaultSite::Write), Some(FaultAction::Drop));
    }

    #[test]
    fn trip_panics_on_panic_rules() {
        let plan = FaultPlan::parse("solve.panic=every:1").unwrap();
        let err = std::panic::catch_unwind(|| plan.trip(FaultSite::Solve)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn bad_specs_are_rejected_with_messages() {
        for (spec, frag) in [
            ("solve", "missing '='"),
            ("solvepanic=every:1", "not <site>.<action>"),
            ("warp.panic=every:1", "unknown fault site"),
            ("solve.melt=every:1", "unknown fault action"),
            ("solve.panic=often:1", "unknown fault arg"),
            ("solve.panic=ms:5", "needs every: or prob:"),
            ("solve.panic=every:0", "never fires"),
            ("solve.panic=prob:1.5", "outside [0, 1]"),
            ("read.panic=every:1", "not valid at site"),
            ("conn.torn=every:1", "not valid at site"),
            ("cache.panic=every:1", "not valid at site"),
            ("store.drop=every:1", "not valid at site"),
            ("solve.bitflip=every:1", "not valid at site"),
            ("seed=banana;solve.panic=every:1", "bad fault seed"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(frag), "spec {spec:?}: {err}");
        }
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::parse("solve.panic=every:2").unwrap();
        let clone = plan.clone();
        assert_eq!(plan.check(FaultSite::Solve), None);
        assert_eq!(clone.check(FaultSite::Solve), Some(FaultAction::Panic));
        assert_eq!(plan.injected(), 1);
        assert_eq!(clone.injected(), 1);
    }
}
