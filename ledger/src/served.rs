//! The served workloads: the program's own `Server` and `Router` spawned
//! in this process at their shipped defaults, driven over loopback.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trisolv_core::refine::componentwise_backward_error;
use trisolv_matrix::{CscMatrix, DenseMatrix};
use trisolv_router::{Router, RouterOptions, RunningRouter};
use trisolv_server::{
    Client, ClientOptions, EngineOptions, Fingerprint, RunningServer, Server, ServerOptions,
};

use crate::metrics::{Kind, CHURN_BUDGET_BYTES, CHURN_SPECS};
use crate::net::{self, StreamOut};
use crate::sched::ZipfBlocks;
use crate::trace::Tracer;
use crate::{cpu, inputs, libwl, stats};

/// Servers (and perhaps a router in front of them) under test.
pub struct Stack {
    pub servers: Vec<RunningServer>,
    pub router: Option<RunningRouter>,
    /// Where clients connect: the router if there is one.
    pub addr: String,
}

impl Stack {
    /// One `Server` at `ServerOptions::default()` but for its engine.
    pub fn direct(engine: EngineOptions) -> Stack {
        let server = Server::spawn(ServerOptions {
            engine,
            ..ServerOptions::default()
        })
        .expect("bind a loopback port");
        Stack {
            addr: server.local_addr().to_string(),
            servers: vec![server],
            router: None,
        }
    }

    /// `Router::spawn` at `RouterOptions::default()` (R = 2) in front of
    /// two default servers.
    pub fn routed() -> Stack {
        let servers: Vec<RunningServer> = (0..2)
            .map(|_| Server::spawn(ServerOptions::default()).expect("bind a loopback port"))
            .collect();
        let router = Router::spawn(RouterOptions {
            backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterOptions::default()
        })
        .expect("bind a loopback port");
        assert!(
            router.wait_healthy(servers.len(), Duration::from_secs(10)),
            "router never saw its backends healthy"
        );
        Stack {
            addr: router.local_addr().to_string(),
            servers,
            router: Some(router),
        }
    }

    pub fn for_kind(kind: Kind) -> Stack {
        match kind {
            Kind::RouteOpen => Stack::routed(),
            Kind::ServeChurn => Stack::direct(EngineOptions {
                budget_bytes: CHURN_BUDGET_BYTES,
                ..EngineOptions::default()
            }),
            _ => Stack::direct(EngineOptions::default()),
        }
    }

    /// This stack as a generator's target.
    pub fn target<'a>(&'a self, fp: Fingerprint, pool: &'a [Vec<f64>]) -> net::Target<'a> {
        net::Target {
            addr: &self.addr,
            fp,
            pool,
        }
    }

    pub fn client(&self) -> Client {
        Client::connect_with(&self.addr, ClientOptions::default()).expect("connect over loopback")
    }

    /// The `STATS` counters (summed over backends by a router).
    pub fn counters(&self) -> Counters {
        self.client().stats().expect("STATS").into_iter().collect()
    }

    /// Stop every thread the stack started and wait for them.
    pub fn stop(self) {
        if let Some(r) = self.router {
            r.join();
        }
        for s in self.servers {
            s.join();
        }
    }
}

/// Spawn the stack for `kind` and pay its first, missing LOAD; returns
/// the stack, the loaded factor and the seconds both took together.
pub fn set_up(kind: Kind, a: &CscMatrix) -> (Stack, Fingerprint, f64) {
    let t = Instant::now();
    let stack = Stack::for_kind(kind);
    let loaded = stack.client().load(a).expect("LOAD");
    assert!(
        !loaded.already_cached,
        "a fresh server held the factor already"
    );
    (stack, loaded.fingerprint, t.elapsed().as_secs_f64())
}

/// `set_up` five times (stopping all stacks but the last); the median
/// time and the last stack.
pub fn set_up_median(kind: Kind, a: &CscMatrix) -> (Stack, Fingerprint, f64, usize) {
    const REPEATS: usize = 5;
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..REPEATS {
        if let Some((stack, _)) = last.take() {
            Stack::stop(stack);
        }
        let (stack, fp, s) = set_up(kind, a);
        secs.push(s);
        last = Some((stack, fp));
    }
    let (stack, fp) = last.expect("at least one set-up");
    (stack, fp, stats::median(&secs), REPEATS)
}

/// Backward error of every retained reply; returns `(worst, failures)`.
pub fn verify(a: &CscMatrix, pool: &[Vec<f64>], retained: &[(usize, Vec<f64>)]) -> (f64, u64) {
    let mut worst = 0.0f64;
    let mut failures = 0;
    for (k, x) in retained {
        let omega = componentwise_backward_error(
            a,
            &DenseMatrix::column_vector(x),
            &DenseMatrix::column_vector(&pool[*k]),
        )
        .unwrap_or(f64::INFINITY);
        worst = worst.max(omega);
        if !libwl::meets_target(omega) {
            failures += 1;
        }
    }
    (worst, failures)
}

/// What a served stream saw: the common [`StreamOut`], and what only
/// `serve_churn`'s operations have.
#[derive(Default)]
pub struct ServedOut {
    pub stream: StreamOut,
    pub load_hit_ms: Vec<f64>,
    pub load_miss_ms: Vec<f64>,
    pub refine_iters: Vec<f64>,
    pub uncertified: u64,
    pub worst_omega: f64,
    pub verify_failures: u64,
    pub retried: u64,
    pub reconnects: u64,
    /// `STATS` right after the warm-up and after the first full Zipf block
    /// of the measured phase, and the LOADs issued between the two: for
    /// one seed the counters over that window repeat exactly, whatever the
    /// machine's speed.
    pub counter_window: Option<(Counters, Counters, u64)>,
}

pub type Counters = BTreeMap<String, u64>;

impl ServedOut {
    /// Verify the retained replies against `a`; the worst backward error
    /// seen and every operation that failed in any way: errors and
    /// refusals, replies failing verification, uncertified certificates.
    pub fn verdict(&self, a: &CscMatrix, pool: &[Vec<f64>]) -> (f64, u64) {
        let (omega, failures) = verify(a, pool, &self.stream.retained);
        let failed = self.stream.err + failures + self.verify_failures + self.uncertified;
        (omega.max(self.worst_omega), failed)
    }
}

/// One sequential client; each operation is a `LOAD` of a Zipf-chosen
/// matrix of the working set (a hit, or a refactor that evicts) followed
/// by a certified `SOLVE` against it. Warm-up is a count, not a time —
/// one LOAD of each matrix and one Zipf block — so the cache state at the
/// start of the measured phase depends on the seed alone.
pub fn churn(stack: &Stack, seed: u64, secs: f64, tracer: &Tracer) -> Result<ServedOut, String> {
    let mats: Vec<CscMatrix> = CHURN_SPECS
        .iter()
        .map(|s| inputs::matrix(s, seed))
        .collect();
    let rhs: Vec<Vec<f64>> = mats
        .iter()
        .map(|a| inputs::rhs_pool(a.ncols(), 1, seed).remove(0))
        .collect();
    let mut client = stack.client();
    let cpu_at_start = cpu::own_thread_cpu();
    let mut keys = ZipfBlocks::new(mats.len(), 20, seed);
    let block = keys.block_len();
    let mut out = ServedOut::default();
    let op = |client: &mut Client,
              k: usize,
              index: Option<u64>,
              out: &mut ServedOut|
     -> Result<(), String> {
        let t0 = Instant::now();
        let loaded = client.load(&mats[k]).map_err(|e| format!("LOAD: {e}"))?;
        let t1 = Instant::now();
        let reply = client
            .solve_certified(loaded.fingerprint, &rhs[k], 0)
            .map_err(|e| format!("certified SOLVE: {e}"))?;
        let t2 = Instant::now();
        let Some(index) = index else {
            return Ok(()); // warm-up
        };
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        out.stream.lat_ms.push(ms(t0, t2));
        let parent = tracer.record("op", "client", index, -1, t0, t2);
        tracer.record("load", "engine", index, parent, t0, t1);
        tracer.record("solve_certified", "refine", index, parent, t1, t2);
        if loaded.already_cached {
            out.load_hit_ms.push(ms(t0, t1));
        } else {
            out.load_miss_ms.push(ms(t0, t1));
        }
        out.refine_iters.push(f64::from(reply.iterations));
        if !reply.certified {
            out.uncertified += 1;
        }
        out.stream.ok += 1;
        if (index + 1) % net::RETAIN_EVERY == 0 {
            let (omega, failed) = verify(&mats[k], &rhs[k..=k], &[(0, reply.x)]);
            out.worst_omega = out.worst_omega.max(omega);
            out.verify_failures += failed;
        }
        Ok(())
    };
    for k in 0..mats.len() {
        op(&mut client, k, None, &mut out)?;
    }
    for _ in 0..block {
        let k = keys.next().expect("endless");
        op(&mut client, k, None, &mut out)?;
    }
    let at_open = stack.counters();
    let start = Instant::now();
    let close = start + Duration::from_secs_f64(secs);
    let mut index = 0u64;
    // at least the one block whose counters are reported
    while index < block as u64 || Instant::now() < close {
        let k = keys.next().expect("endless");
        op(&mut client, k, Some(index), &mut out)?;
        index += 1;
        if index == block as u64 {
            let paused = Instant::now();
            out.counter_window = Some((at_open.clone(), stack.counters(), block as u64));
            // the STATS round trip is the benchmark's, not the workload's
            out.stream.wall_s -= paused.elapsed().as_secs_f64();
        }
    }
    out.stream.wall_s += start.elapsed().as_secs_f64();
    out.stream.sent = index;
    out.stream.err = index - out.stream.ok;
    out.stream.threads = 1;
    out.stream.conns = 1;
    out.stream.handled = index + (mats.len() + block) as u64;
    out.stream.generator_cpu_s = cpu::own_thread_cpu().zip(cpu_at_start).map(|(b, a)| b - a);
    let rs = client.retry_stats();
    (out.retried, out.reconnects) = (rs.retried, rs.reconnects);
    Ok(out)
}

/// CPU seconds by thread group plus the process total, for deltas.
pub struct CpuMark {
    threads: Option<BTreeMap<String, f64>>,
    process: Option<f64>,
    at: Instant,
}

impl CpuMark {
    pub fn now() -> CpuMark {
        CpuMark {
            threads: cpu::thread_cpu(),
            process: cpu::process_cpu(),
            at: Instant::now(),
        }
    }

    /// CPU ms of thread group `name` since `self`; `None` off Linux.
    pub fn group_ms(&self, later: &CpuMark, name: &str) -> Option<f64> {
        Some(cpu::group_delta(self.threads.as_ref()?, later.threads.as_ref()?, name) * 1e3)
    }

    pub fn process_ms(&self, later: &CpuMark) -> Option<f64> {
        Some((later.process? - self.process?) * 1e3)
    }

    pub fn wall_s(&self, later: &CpuMark) -> f64 {
        later.at.duration_since(self.at).as_secs_f64()
    }
}
