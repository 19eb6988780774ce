//! The catalogue: every workload and every metric the ledger reports, by
//! name. `BENCHMARK.json` is generated from these tables (`ledger
//! describe`) and a test holds the two together.

use crate::json::Json;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process solves through the library, sequential and threaded.
    Lib,
    /// One server, open-loop Poisson stream on one pipelined connection.
    ServeOpen,
    /// One server, closed loop, pipelined to saturation.
    ServeSat,
    /// One server with a small cache; sequential LOAD + certified SOLVE.
    ServeChurn,
    /// Router in front of two servers; the `ServeOpen` stream.
    RouteOpen,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Generator spec of the matrix the timed solves run against (for
    /// `ServeChurn`, the middle of its working set).
    pub spec: &'static str,
    /// Right-hand sides per library solve; served requests carry one.
    pub nrhs: usize,
    pub why: &'static str,
}

/// Open-loop arrival rate of `serve_open` and `route_open`, requests/s.
pub const OPEN_RATE: f64 = 250.0;
/// In-flight requests `serve_sat` keeps across its connections.
pub const SAT_IN_FLIGHT: usize = 32;
/// `serve_churn`'s working set and cache budget: six factors of which
/// about four fit in `f64`.
pub const CHURN_SPECS: [&str; 6] = [
    "grid2d:84x78",
    "grid2d:84x80",
    "grid2d:84x82",
    "grid2d:84x84",
    "grid2d:84x86",
    "grid2d:84x88",
];
pub const CHURN_BUDGET_BYTES: usize = 12 << 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lib_2d_rhs1",
        kind: Kind::Lib,
        spec: "grid2d:160",
        nrhs: 1,
        why: "Paper's 1-RHS case on a 2-D grid (mean supernode width 1.3): per-supernode overhead, scatter/gather and executor sync dominate and blas does little; amalgamation and scheduling work shows here.",
    },
    Workload {
        name: "lib_3d_rhs30",
        kind: Kind::Lib,
        spec: "grid3d:18",
        nrhs: 30,
        why: "Paper's 30-RHS case on a 3-D grid: wide separators put the time in blocked trsm/gemm, so kernel and panel-layout work shows here and barely on lib_2d_rhs1.",
    },
    Workload {
        name: "serve_open",
        kind: Kind::ServeOpen,
        spec: "grid2d:112",
        nrhs: 1,
        why: "Latency at low utilisation: open-loop Poisson 250 req/s on one hot factor over loopback; the solve is a fraction of it, so proto/server/engine changes move it and kernel changes should not.",
    },
    Workload {
        name: "serve_sat",
        kind: Kind::ServeSat,
        spec: "grid2d:112",
        nrhs: 1,
        why: "Saturation on the same factor: closed loop, 32 requests in flight, so the batch lane forms wide batches; batching, multi-RHS kernels and CPU per request decide it, idle-latency work does not.",
    },
    Workload {
        name: "serve_churn",
        kind: Kind::ServeChurn,
        spec: "grid2d:84x84",
        nrhs: 1,
        why: "Writes beside reads: Zipf LOAD + certified SOLVE over six factors in a 12 MiB cache that holds four; pays setup, eviction and refinement per op, so heavier analysis or fatter cache entries lose here.",
    },
    Workload {
        name: "route_open",
        kind: Kind::RouteOpen,
        spec: "grid2d:112",
        nrhs: 1,
        why: "serve_open's traffic one hop further out: a router in front of two servers, R=2; the difference to serve_open is the router's cost, which a reactor or protocol refactor must hold.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (zero) for per-layer metrics.
    pub bound: f64,
    /// For people: the README's tables are made from it.
    #[allow(dead_code)]
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25,
        "lib: median of 5 full order→analyze→factor→plan→schedule builds; served: spawn + first (miss) LOAD, median of 5"),
    e2e("p50_ms", "ms", "lower", 0.25,
        "median time of one operation as its caller sees it (lib: one threaded forward+back solve, permutation included; open loop: from the instant the request was due; churn: LOAD + certified SOLVE)"),
    e2e("throughput_rps", "1/s", "higher", 0.25,
        "verified-ok operations per second of the measured phase (open loop: the delivered rate)"),
    e2e("seq_solve_ms", "ms", "lower", 0.25,
        "the plain single-thread baseline: one SparseCholeskySolver::solve of the workload's matrix, in-process"),
    e2e("peak_rss_mb", "MB", "lower", 0.25,
        "peak resident set of the whole process (VmHWM), program and generator together"),
];

/// Single-layer numbers from the traced run; prefix = layer.
pub const PER_LAYER: &[Metric] = &[
    // blas: factor::blas
    layer("blas.flops", "count", "lower", "computed flops of one forward+back sweep from plan widths/heights × nrhs"),
    layer("blas.bytes", "B", "lower", "computed bytes one sweep moves: factor values twice, working vectors read+written twice"),
    layer("blas.flops_per_byte", "flop/B", "higher", "blas.flops / blas.bytes"),
    layer("blas.replay_ms", "ms", "lower", "the four kernels on every factor block in plan order, contiguous refill, no scatter/gather"),
    layer("blas.trsm_ms", "ms", "lower", "the replay's two triangular kernels alone"),
    layer("blas.gemm_ms", "ms", "lower", "the replay's two rectangle kernels alone"),
    layer("blas.gflops", "Gflop/s", "higher", "blas.flops / blas.replay_ms"),
    layer("blas.gbps", "GB/s", "higher", "blas.bytes / blas.replay_ms (computed bytes)"),
    layer("blas.f32_replay_ms", "ms", "lower", "the replay on the f32 factor"),
    layer("blas.triad_gbps", "GB/s", "higher", "one-thread STREAM triad, arrays 4x the last-level cache up to 256 MiB each, same run"),
    layer("blas.peak_gflops", "Gflop/s", "higher", "one-thread register-resident multiply-add loop, same run"),
    layer("blas.roofline_frac", "ratio", "higher", "blas.gflops / min(peak_gflops, triad_gbps × flops_per_byte)"),
    // plan: core::plan
    layer("plan.nsup", "count", "lower", "supernodes"),
    layer("plan.mean_width", "count", "higher", "columns per supernode"),
    layer("plan.nlevels", "count", "lower", "levels of the supernodal tree"),
    layer("plan.max_level_width", "count", "higher", "supernodes in the widest level"),
    layer("plan.n_tasks", "count", "higher", "subtree tasks at the default width"),
    layer("plan.n_top", "count", "lower", "supernodes above the subtree cut"),
    layer("plan.imbalance", "ratio", "lower", "max / mean flops per thread slot"),
    layer("plan.top_flops_frac", "ratio", "lower", "share of solve flops above the cut"),
    layer("plan.build_ms", "ms", "lower", "SolvePlan::new"),
    // exec: core::seq, core::threaded
    layer("exec.t1_ms", "ms", "lower", "SparseCholeskySolver::solve, one thread"),
    layer("exec.tn_ms", "ms", "lower", "ThreadedSolver at the default width, permutation included"),
    layer("exec.fwd_ms", "ms", "lower", "threaded forward sweep alone"),
    layer("exec.bwd_ms", "ms", "lower", "threaded backward sweep alone"),
    layer("exec.f32_ms", "ms", "lower", "SparseCholeskySolverF32::solve, one thread"),
    layer("exec.self_ms", "ms", "lower", "exec.t1_ms − blas.replay_ms: what the executor adds to the kernels"),
    layer("exec.self_frac", "ratio", "lower", "exec.self_ms / exec.t1_ms"),
    layer("exec.ns_per_snode", "ns", "lower", "exec.self_ms per supernode"),
    layer("exec.speedup_par", "ratio", "higher", "exec.t1_ms / exec.tn_ms (width = proc.nproc)"),
    layer("exec.par_eff", "ratio", "higher", "exec.speedup_par / width"),
    layer("exec.bit_identical", "count", "higher", "1 when threaded ≡ sequential bit for bit"),
    // setup: graph::nd, symbolic, factor::seqchol
    layer("setup.order_ms", "ms", "lower", "nested dissection"),
    layer("setup.symbolic_ms", "ms", "lower", "analyze_with_perm"),
    layer("setup.factor_ms", "ms", "lower", "factor_supernodal"),
    layer("setup.factor_gflops", "Gflop/s", "higher", "partition factor flops / setup.factor_ms"),
    layer("setup.plan_ms", "ms", "lower", "plan + subtree schedule"),
    // refine: core::refine
    layer("refine.iters", "count", "lower", "correction sweeps of one certified solve"),
    layer("refine.ms", "ms", "lower", "refine::refine in-process"),
    layer("refine.residual_ms", "ms", "lower", "one componentwise_backward_error"),
    layer("refine.max_omega", "ratio", "lower", "largest backward error any verified reply showed"),
    layer("refine.fallbacks", "count", "lower", "certified replies that came back uncertified"),
    // engine: server::{engine,batch,cache}
    layer("engine.solve_ms", "ms", "lower", "ladder rung D2: one in-process caller of Engine::solve"),
    layer("engine.self_ms", "ms", "lower", "D2 − D1"),
    layer("engine.load_miss_ms", "ms", "lower", "LOAD that factors (churn: median over the stream)"),
    layer("engine.load_hit_ms", "ms", "lower", "LOAD of a resident factor"),
    layer("engine.batches", "count", "lower", "blocked solves run"),
    layer("engine.mean_batch", "count", "higher", "columns per blocked solve"),
    layer("engine.largest_batch", "count", "higher", "widest blocked solve"),
    layer("engine.cache_hits", "count", "higher", "SOLVE lookups that found the factor"),
    layer("engine.cache_misses", "count", "lower", "SOLVE lookups that missed"),
    layer("engine.load_hits", "count", "higher", "LOADs answered from the cache"),
    layer("engine.load_misses", "count", "lower", "LOADs that factored"),
    layer("engine.evictions", "count", "lower", "LRU evictions"),
    layer("engine.hit_rate", "ratio", "higher", "(cache_hits + load_hits) / (SOLVE lookups + LOADs)"),
    layer("engine.shed", "count", "lower", "requests refused Busy"),
    layer("engine.deadline_misses", "count", "lower", "requests past their deadline"),
    layer("engine.exec_fallbacks", "count", "lower", "batches re-run sequentially after a panic"),
    layer("engine.certified_solves", "count", "higher", "certified solves answered"),
    layer("engine.f32_solves", "count", "higher", "columns solved on the f32 lane"),
    layer("engine.precision_fallbacks", "count", "lower", "f32 factors promoted to f64"),
    layer("engine.resident_mb", "MB", "lower", "computed: EngineStats.cache.resident_bytes after the stream"),
    layer("engine.unbatched_rps", "1/s", "higher", "serve_sat's loop against max_batch = 1"),
    layer("engine.batch_gain", "ratio", "higher", "the same loop at the shipped max_batch / engine.unbatched_rps"),
    // proto: server::protocol, fingerprint
    layer("proto.wrap_us", "us", "lower", "wrap_v4 of one SOLVE payload"),
    layer("proto.unwrap_us", "us", "lower", "unwrap_v4 of it"),
    layer("proto.encode_us", "us", "lower", "encode_frame of it"),
    layer("proto.fingerprint_us", "us", "lower", "Fingerprint::of_matrix"),
    layer("proto.bytes_per_req", "B", "lower", "computed request + reply frame bytes"),
    // server: server::{server,conn,poller}
    layer("server.rtt_ms", "ms", "lower", "STATS round trip: the loop with no solve"),
    layer("server.solve_rtt_ms", "ms", "lower", "ladder rung D3: Client::solve against Server"),
    layer("server.self_ms", "ms", "lower", "D3 − D2"),
    layer("server.loop_cpu_ms_per_req", "ms", "lower", "tsv-evloop thread CPU per request"),
    layer("server.worker_cpu_ms_per_req", "ms", "lower", "tsv-worker-* thread CPU per request"),
    layer("server.mb_per_s", "MB/s", "higher", "request + reply bytes per second of the stream"),
    layer("server.frames_pipelined", "count", "higher", "frames admitted behind an unanswered one"),
    layer("server.connections_total", "count", "lower", "connections accepted"),
    layer("server.crc_rejects", "count", "lower", "frames failing their checksum"),
    // router: router::{router,backend,ring}
    layer("router.hop_ms", "ms", "lower", "D4 − D3: what the router adds to one solve"),
    layer("router.load_fanout_ms", "ms", "lower", "first LOAD through the router (R = 2)"),
    layer("router.loop_cpu_ms_per_req", "ms", "lower", "tsv-router thread CPU per request"),
    layer("router.sat_rps", "1/s", "higher", "serve_sat's loop through the router"),
    layer("router.sat_ratio", "ratio", "higher", "router.sat_rps / the same loop direct"),
    layer("router.failovers", "count", "lower", "SOLVE re-routes"),
    layer("router.hedges_sent", "count", "lower", "hedge duplicates"),
    layer("router.hedge_wins", "count", "higher", "requests answered by a hedge"),
    layer("router.orphan_replies", "count", "lower", "backend replies matching nothing"),
    layer("router.backends_healthy", "count", "higher", "healthy backends at the end"),
    // client: server::client + the generator
    layer("client.sent", "count", "higher", "requests the stream sent"),
    layer("client.ok", "count", "higher", "replies that were OK"),
    layer("client.err", "count", "lower", "errors and refusals"),
    layer("client.retried", "count", "lower", "Client retries"),
    layer("client.reconnects", "count", "lower", "Client reconnects"),
    layer("client.p95_ms", "ms", "lower", "95th percentile of the stream's operation times (demoted from end to end: its run-to-run spread is 12–18 %)"),
    layer("client.max_ms", "ms", "lower", "slowest operation of the stream"),
    layer("client.late_p95_ms", "ms", "lower", "how late the open-loop sender woke, 95th percentile"),
    layer("client.cpu_ms_per_req", "ms", "lower", "generator thread CPU per request"),
    layer("client.rate_ok_rps", "1/s", "higher", "highest of 250/500/1000 req/s with p95 ≤ 20 ms and no growing backlog"),
    // proc: the whole process
    layer("proc.cpu_ms_per_req", "ms", "lower", "process CPU per operation of the stream"),
    layer("proc.cpu_util", "ratio", "lower", "process CPU / (wall × cores) over the stream"),
    layer("proc.peak_rss_mb", "MB", "lower", "VmHWM before the calibration arrays"),
    layer("proc.nproc", "count", "higher", "cores the run saw"),
    // ladder and trace
    layer("ladder.d0_ms", "ms", "lower", "rung D0: blas replay at one RHS"),
    layer("ladder.d1_ms", "ms", "lower", "rung D1: threaded solve at one RHS"),
    layer("ladder.d4_ms", "ms", "lower", "rung D4: Client::solve through Router to Server"),
    layer("ladder.exec_self_ms", "ms", "lower", "D1 − D0 (negative when threads save more than the executor costs)"),
    layer("trace.overhead_frac", "ratio", "lower", "rung D1 with spans recorded / without − 1"),
    layer("trace.spans", "count", "higher", "spans written to trace.jsonl"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u32) -> Json {
    let metric = |m: &Metric, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "ledger/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// Measured values by metric name, in insertion order; setting a name
/// again replaces it (a stream's counters replace the ladder's).
#[derive(Default)]
pub struct Values(Vec<(String, f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// A value with the number of samples behind it.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        match self.0.iter_mut().find(|e| e.0 == name) {
            Some(e) => (e.1, e.2) = (value, samples),
            None => self.0.push((name.to_string(), value, samples)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.0.iter().find(|e| e.0 == name).map_or(0, |e| e.2)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|e| e.0.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let seconds = on_disk.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(on_disk, benchmark_json(seconds as u32));
        assert!(std::fs::metadata(path).unwrap().len() <= 64 << 10);
    }

    #[test]
    fn values_replace_by_name() {
        let mut v = Values::default();
        v.set_n("a", 1.0, 7);
        v.set("b", 2.0);
        v.set("a", 3.0);
        assert_eq!(v.get("a"), Some(3.0));
        assert_eq!(v.samples("a"), 0);
        assert_eq!(v.names().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(v.get("c"), None);
    }
}
