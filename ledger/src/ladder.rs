//! The traced run: every per-layer metric of one workload.
//!
//! Its spine is a depth ladder. The same seeded single-RHS request
//! stream, one sequential caller, is answered at five depths — D0 the
//! dense kernels replayed, D1 the threaded executor, D2 `Engine::solve`,
//! D3 `Client::solve` → `Server`, D4 `Client::solve` → `Router` →
//! `Server` — so each layer's self time is its rung's median minus the
//! rung below, and the self times sum to what the outermost client sees.
//! Around it: set-up phase timers, kernel and executor rates at the
//! workload's own RHS count, protocol and refinement probes, the
//! saturation loop with and without batching and through the router, a
//! rate ladder, and last the workload's own stream with spans recorded.
//! Counters and CPU times come first from the ladder's rungs and are
//! then replaced by the workload's stream for every layer it exercises.
//!
//! Every phase is a fixed share of `--seconds`, so the whole traced run
//! takes about as long as an untraced one; `--seconds 120` gives each
//! rung the 2000 requests a careful reading wants.

use std::collections::BTreeMap;
use std::time::Instant;

use trisolv_core::refine::{self, componentwise_backward_error, RefineOptions};
use trisolv_matrix::{CscMatrix, DenseMatrix};
use trisolv_router::RunningRouter;
use trisolv_server::protocol::{encode_frame, op, unwrap_v4, wrap_v4, Builder};
use trisolv_server::{BatchOptions, Engine, EngineOptions, EngineStats, Fingerprint};

use crate::libwl::{self, time_calls, Built, Replay, Threaded};
use crate::metrics::{Kind, Values, Workload, SAT_IN_FLIGHT};
use crate::net::{self, StreamOut};
use crate::served::{self, CpuMark, Stack};
use crate::trace::{ladder_table, self_times, Rung, Tracer};
use crate::{calib, cpu, inputs, sched, stats, warm_up, Args, Outcome};

const NOT_IDENTICAL: &str = "threaded solve differs from sequential (exec.bit_identical = 0)";

/// Latency limit of the rate ladder's p95, ms.
const RATE_P95_LIMIT_MS: f64 = 20.0;
const RATES: [f64; 3] = [250.0, 500.0, 1000.0];

/// Per-layer metrics built on `/proc` readers: off Linux they are left
/// out of the result (and said so) rather than reported as zero.
pub const NEEDS_PROC: &[&str] = &[
    "server.loop_cpu_ms_per_req",
    "server.worker_cpu_ms_per_req",
    "router.loop_cpu_ms_per_req",
    "client.cpu_ms_per_req",
    "proc.cpu_ms_per_req",
    "proc.cpu_util",
    "proc.peak_rss_mb",
    "blas.triad_gbps",
    "blas.peak_gflops",
    "blas.roofline_frac",
];

/// `EngineStats` under the keys `STATS` uses, so in-process and served
/// phases share one reader.
fn stats_map(s: &EngineStats) -> BTreeMap<String, u64> {
    [
        ("hits", s.cache.hits),
        ("misses", s.cache.misses),
        ("evictions", s.cache.evictions),
        ("resident_bytes", s.cache.resident_bytes as u64),
        ("batches", s.batches),
        ("batched_cols", s.batched_cols),
        ("max_batch", s.max_batch as u64),
        ("shed", s.shed),
        ("deadline_misses", s.deadline_misses),
        ("exec_fallbacks", s.exec_fallbacks),
        ("certified_solves", s.certified_solves),
        ("connections_total", s.connections_total),
        ("frames_pipelined", s.frames_pipelined),
        ("load_hits", s.load_hits),
        ("f32_solves", s.f32_solves),
        ("precision_fallbacks", s.precision_fallbacks),
        ("crc_rejects", s.crc_rejects),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The engine's and the front end's counters between two readings;
/// `loads` is how many LOADs the phase issued (the engine counts only
/// the ones it answered from the cache).
fn counter_metrics(
    v: &mut Values,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    loads: u64,
) {
    let at = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
    let delta = |k: &str| at(after, k).saturating_sub(at(before, k)) as f64;
    let (batches, cols) = (delta("batches"), delta("batched_cols"));
    v.set("engine.batches", batches);
    v.set(
        "engine.mean_batch",
        if batches > 0.0 { cols / batches } else { 0.0 },
    );
    // a high-water mark, not a counter: the stack's whole life
    v.set("engine.largest_batch", at(after, "max_batch") as f64);
    let (hits, misses, load_hits) = (delta("hits"), delta("misses"), delta("load_hits"));
    v.set("engine.cache_hits", hits);
    v.set("engine.cache_misses", misses);
    v.set("engine.load_hits", load_hits);
    v.set("engine.load_misses", loads as f64 - load_hits);
    v.set("engine.evictions", delta("evictions"));
    v.set(
        "engine.hit_rate",
        (hits + load_hits) / (hits + misses + loads as f64).max(1.0),
    );
    v.set("engine.shed", delta("shed"));
    v.set("engine.deadline_misses", delta("deadline_misses"));
    v.set("engine.exec_fallbacks", delta("exec_fallbacks"));
    v.set("engine.certified_solves", delta("certified_solves"));
    v.set("engine.f32_solves", delta("f32_solves"));
    v.set("engine.precision_fallbacks", delta("precision_fallbacks"));
    v.set(
        "engine.resident_mb",
        at(after, "resident_bytes") as f64 / (1024.0 * 1024.0),
    );
    v.set("server.frames_pipelined", delta("frames_pipelined"));
    v.set("server.connections_total", delta("connections_total"));
    v.set("server.crc_rejects", delta("crc_rejects"));
}

fn router_counters(v: &mut Values, r: &RunningRouter) {
    v.set("router.failovers", r.failovers() as f64);
    v.set("router.hedges_sent", r.hedges_sent() as f64);
    v.set("router.hedge_wins", r.hedge_wins() as f64);
    v.set("router.orphan_replies", r.orphan_replies() as f64);
    v.set("router.backends_healthy", r.healthy_backends() as f64);
}

/// `client.p95_ms` and `client.max_ms` of a stream's operation times.
fn tail_metrics(v: &mut Values, ms: &[f64]) {
    let sorted = stats::sorted(ms);
    v.set_n(
        "client.p95_ms",
        stats::percentile(&sorted, 95.0),
        sorted.len(),
    );
    let max = *sorted.last().expect("a stream has samples");
    v.set_n("client.max_ms", max, sorted.len());
}

/// What a stream's generator, the program's threads and the process
/// spent, per request.
fn stream_metrics(v: &mut Values, s: &StreamOut, before: &CpuMark, after: &CpuMark, routed: bool) {
    let reqs = s.ok.max(1) as f64;
    v.set("client.sent", s.sent as f64);
    v.set("client.ok", s.ok as f64);
    v.set("client.err", s.err as f64);
    tail_metrics(v, &s.lat_ms);
    // a `Client`-driven stream does not count its bytes
    if s.wire_bytes > 0 {
        v.set("server.mb_per_s", s.wire_bytes as f64 / 1e6 / s.wall_s);
    }
    if let Some(secs) = s.generator_cpu_s {
        v.set(
            "client.cpu_ms_per_req",
            secs * 1e3 / s.handled.max(1) as f64,
        );
    }
    let mut per_req = |name: &str, ms: Option<f64>| {
        if let Some(ms) = ms {
            v.set(name, ms / reqs);
        }
    };
    per_req(
        "server.loop_cpu_ms_per_req",
        before.group_ms(after, "tsv-evloop"),
    );
    per_req(
        "server.worker_cpu_ms_per_req",
        before.group_ms(after, "tsv-worker"),
    );
    if routed {
        per_req(
            "router.loop_cpu_ms_per_req",
            before.group_ms(after, "tsv-router"),
        );
    }
    per_req("proc.cpu_ms_per_req", before.process_ms(after));
    if let Some(ms) = before.process_ms(after) {
        v.set(
            "proc.cpu_util",
            ms / 1e3 / (before.wall_s(after) * cpu::nproc() as f64),
        );
    }
}

/// A sequential rung's samples as a stream, for [`stream_metrics`];
/// `caller_cpu_s` is what the calling thread used over the rung.
fn rung_stream(ms: &[f64], bytes_per_req: f64, caller_cpu_s: Option<f64>) -> StreamOut {
    StreamOut {
        generator_cpu_s: caller_cpu_s,
        handled: ms.len() as u64,
        lat_ms: ms.to_vec(),
        sent: ms.len() as u64,
        ok: ms.len() as u64,
        wall_s: ms.iter().sum::<f64>() / 1e3,
        wire_bytes: (ms.len() as f64 * bytes_per_req) as u64,
        threads: 1,
        conns: 1,
        ..StreamOut::default()
    }
}

/// Kernel and executor rates at `nrhs` right-hand sides: `blas.*` (but
/// for the calibration) and `exec.*`. Returns the replay and threaded
/// medians, which are rungs D0 and D1 when `nrhs` is one.
fn kernels_and_executor(
    built: &Built,
    b: &DenseMatrix,
    t: f64,
    tracer: &Tracer,
    v: &mut Values,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let solver = &built.solver;
    let nrhs = b.ncols();
    let narrow = solver.demote();

    let mut replay = Replay::new(solver.factor_matrix(), solver.plan(), nrhs);
    let (flops, bytes) = replay.computed_work();
    let full = time_calls(t / 20.0, || replay.sweep(true, true));
    let replay_ms = stats::median(&full);
    v.set_n("blas.replay_ms", replay_ms, full.len());
    v.set(
        "blas.trsm_ms",
        stats::median(&time_calls(t / 40.0, || replay.sweep(true, false))),
    );
    v.set(
        "blas.gemm_ms",
        stats::median(&time_calls(t / 40.0, || replay.sweep(false, true))),
    );
    let mut replay32 = Replay::new(narrow.factor_matrix(), narrow.plan(), nrhs);
    v.set(
        "blas.f32_replay_ms",
        stats::median(&time_calls(t / 40.0, || replay32.sweep(true, true))),
    );
    v.set("blas.flops", flops);
    v.set("blas.bytes", bytes);
    v.set("blas.flops_per_byte", flops / bytes);
    v.set("blas.gflops", flops / (replay_ms * 1e6));
    v.set("blas.gbps", bytes / (replay_ms * 1e6));

    let seq = time_calls(t / 20.0, || solver.solve(b));
    let t1 = stats::median(&seq);
    v.set_n("exec.t1_ms", t1, seq.len());
    let mut threaded = Threaded::new(built, nrhs);
    // every other call records a span inside its timed region, so that
    // both medians come from the same stretch of the machine
    let mut calls = 0u64;
    let both = time_calls(t / 10.0, || {
        let start = Instant::now();
        let x = threaded.solve(b);
        calls += 1;
        if calls % 2 == 0 {
            tracer.record("solve", "exec", calls, -1, start, Instant::now());
        }
        x
    });
    let plain: Vec<f64> = both.iter().copied().step_by(2).collect();
    let spanned: Vec<f64> = both.iter().copied().skip(1).step_by(2).collect();
    let tn = stats::median(&plain);
    v.set_n("exec.tn_ms", tn, plain.len());
    v.set("trace.overhead_frac", stats::median(&spanned) / tn - 1.0);
    let (fwd, bwd) = threaded.sweeps(b, t / 40.0);
    v.set("exec.fwd_ms", fwd);
    v.set("exec.bwd_ms", bwd);
    v.set(
        "exec.f32_ms",
        stats::median(&time_calls(t / 40.0, || narrow.solve(b))),
    );
    v.set("exec.self_ms", t1 - replay_ms);
    v.set("exec.self_frac", (t1 - replay_ms) / t1);
    v.set(
        "exec.ns_per_snode",
        (t1 - replay_ms) * 1e6 / solver.plan().nsup() as f64,
    );
    v.set("exec.speedup_par", t1 / tn);
    v.set("exec.par_eff", t1 / tn / threaded.width() as f64);
    let identical = libwl::same_bits(&threaded.solve(b), &solver.solve(b));
    v.set("exec.bit_identical", f64::from(u8::from(identical)));
    if !identical {
        return Err(NOT_IDENTICAL.to_string());
    }
    Ok((full, plain))
}

/// `proto.*`: direct calls on one SOLVE payload of order `n`.
fn protocol_probes(a: &CscMatrix, rhs: &[f64], v: &mut Values) -> f64 {
    let inner = Builder::new()
        .fingerprint(Fingerprint(1, 2))
        .u64(0)
        .u64(rhs.len() as u64)
        .f64_slice(rhs)
        .build();
    let us = |ms: Vec<f64>| stats::median(&ms) * 1e3;
    let wrapped = wrap_v4(op::SOLVE, 7, &inner);
    v.set(
        "proto.wrap_us",
        us(time_calls(0.02, || wrap_v4(op::SOLVE, 7, &inner))),
    );
    v.set(
        "proto.unwrap_us",
        us(time_calls(0.02, || {
            unwrap_v4(op::SOLVE, &wrapped).map(|(rid, _)| rid)
        })),
    );
    v.set(
        "proto.encode_us",
        us(time_calls(0.02, || encode_frame(op::SOLVE, &wrapped))),
    );
    v.set(
        "proto.fingerprint_us",
        us(time_calls(0.02, || Fingerprint::of_matrix(a))),
    );
    // request: 5 header + 24 envelope + fingerprint, deadline, n, values;
    // reply: 5 header + 24 envelope + n, values
    let bytes = (5 + 24 + 16 + 8 + 8 + 8 * rhs.len()) + (5 + 24 + 8 + 8 * rhs.len());
    v.set("proto.bytes_per_req", bytes as f64);
    bytes as f64
}

/// `refine.*` from one in-process certified solve, repeated.
fn refine_probe(built: &Built, a: &CscMatrix, rhs: &[f64], t: f64, v: &mut Values) {
    let b = DenseMatrix::column_vector(rhs);
    let opts = RefineOptions::default();
    let (x, report) = refine::refine(&built.solver, a, &b, &opts).expect("finite inputs");
    v.set("refine.iters", report.iterations as f64);
    v.set("refine.fallbacks", f64::from(u8::from(!report.certified)));
    v.set("refine.max_omega", report.backward_error);
    v.set(
        "refine.ms",
        stats::median(&time_calls(t / 40.0, || {
            refine::refine(&built.solver, a, &b, &opts)
        })),
    );
    v.set(
        "refine.residual_ms",
        stats::median(&time_calls(t / 40.0, || {
            componentwise_backward_error(a, &x, &b)
        })),
    );
}

/// Highest of [`RATES`] the stack serves with p95 inside the limit and a
/// backlog that does not grow (the last quarter of the step no slower
/// than twice the first); also how late the sender ran at the first rate.
fn rate_ladder(run: &Run, stack: &Stack, fp: Fingerprint, v: &mut Values) {
    let (seed, t, target) = (run.seed, run.t, stack.target(fp, run.pool));
    let quiet = Tracer::new(false);
    let mut ok_rate = 0.0;
    for (step, rate) in RATES.into_iter().enumerate() {
        let warm = t / 40.0;
        let schedule = sched::poisson(rate, warm + t / 12.0, seed + step as u64);
        let Ok(out) = net::open_loop(target, &schedule, warm, &quiet) else {
            break;
        };
        if step == 0 && !out.late_ms.is_empty() {
            v.set_n(
                "client.late_p95_ms",
                stats::percentile_of(&out.late_ms, 95.0),
                out.late_ms.len(),
            );
        }
        let quarter = out.lat_ms.len() / 4;
        if out.err > 0 || quarter == 0 {
            break;
        }
        let p95 = stats::percentile_of(&out.lat_ms, 95.0);
        let (head, tail) = (
            &out.lat_ms[..quarter],
            &out.lat_ms[out.lat_ms.len() - quarter..],
        );
        if p95 > RATE_P95_LIMIT_MS || stats::mean(tail) > 2.0 * stats::mean(head) + 1.0 {
            break;
        }
        ok_rate = rate;
    }
    v.set("client.rate_ok_rps", ok_rate);
}

/// What every phase of a traced run works on.
struct Run<'a> {
    w: &'a Workload,
    a: &'a CscMatrix,
    pool: &'a [Vec<f64>],
    built: &'a Built,
    seed: u64,
    /// `--seconds`: every phase is a share of it.
    t: f64,
    tracer: &'a Tracer,
}

/// One rung: `call` answers the shared request stream, one request after
/// the other, for `t / 20` seconds; each call's ms, with a span per call.
fn rung(
    run: &Run,
    layer: &'static str,
    mut call: impl FnMut(&[f64]) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let (mut next, mut failure) = (0usize, None);
    let ms = time_calls(run.t / 20.0, || {
        let start = Instant::now();
        if let Err(e) = call(&run.pool[next % run.pool.len()]) {
            failure.get_or_insert(e);
        }
        run.tracer
            .record("solve", layer, next as u64, -1, start, Instant::now());
        next += 1;
    });
    failure.map_or(Ok(ms), Err)
}

/// Rungs D2 to D4 above the given D0 and D1, the table, and every
/// engine, server, router and client number a sequential caller yields.
/// Returns the direct and the routed stack, each with its loaded factor,
/// for the saturation loops that follow.
fn climb(
    run: &Run,
    d0: Vec<f64>,
    d1: Vec<f64>,
    bytes_per_req: f64,
    v: &mut Values,
) -> Result<[(Stack, Fingerprint); 2], String> {
    // D2: the engine, in-process
    let engine = Engine::new(EngineOptions::default());
    let start = Instant::now();
    let loaded = engine.load(run.a);
    let fp = loaded
        .map_err(|e| format!("Engine::load: {e}"))?
        .fingerprint;
    v.set("engine.load_miss_ms", start.elapsed().as_secs_f64() * 1e3);
    run.tracer
        .record("load_miss", "engine", 0, -1, start, Instant::now());
    let hits = time_calls(0.0, || engine.load(run.a));
    v.set("engine.load_hit_ms", stats::median(&hits));
    let before = stats_map(&engine.stats());
    let d2 = rung(run, "engine", |rhs| {
        let solved = engine.solve(fp, rhs.to_vec());
        solved.map(drop).map_err(|e| format!("Engine::solve: {e}"))
    })?;
    counter_metrics(v, &before, &stats_map(&engine.stats()), 0);
    drop(engine);

    // D3: one server over loopback
    let (direct, fp, _) = served::set_up(Kind::ServeOpen, run.a);
    let mut client = direct.client();
    let (counters, mark, own) = (direct.counters(), CpuMark::now(), cpu::own_thread_cpu());
    let d3 = rung(run, "server", |rhs| {
        let solved = client.solve(fp, rhs);
        solved.map(drop).map_err(|e| format!("Client::solve: {e}"))
    })?;
    let own = cpu::own_thread_cpu().zip(own).map(|(b, a)| b - a);
    let after = CpuMark::now();
    counter_metrics(v, &counters, &direct.counters(), 0);
    let as_stream = rung_stream(&d3, bytes_per_req, own);
    stream_metrics(v, &as_stream, &mark, &after, false);
    let rtt = time_calls(run.t / 40.0, || client.stats().map(drop));
    v.set("server.rtt_ms", stats::median(&rtt));
    let retry = client.retry_stats();
    v.set("client.retried", retry.retried as f64);
    v.set("client.reconnects", retry.reconnects as f64);
    drop(client);

    // D4: the router in front of two servers
    let start = Instant::now();
    let (routed, rfp, _) = served::set_up(Kind::RouteOpen, run.a);
    run.tracer
        .record("set_up", "router", 0, -1, start, Instant::now());
    let mut client = routed.client();
    let mark = CpuMark::now();
    let d4 = rung(run, "router", |rhs| {
        let solved = client.solve(rfp, rhs);
        solved
            .map(drop)
            .map_err(|e| format!("Client::solve via router: {e}"))
    })?;
    if let Some(ms) = mark.group_ms(&CpuMark::now(), "tsv-router") {
        v.set("router.loop_cpu_ms_per_req", ms / d4.len() as f64);
    }
    // the LOAD inside set_up also spawned the fleet; time one miss alone,
    // of a matrix the fleet has not seen
    let other = inputs::matrix(run.w.spec, run.seed ^ 0x0d4);
    let start = Instant::now();
    let loaded = client.load(&other);
    loaded.map_err(|e| format!("LOAD via router: {e}"))?;
    v.set("router.load_fanout_ms", start.elapsed().as_secs_f64() * 1e3);
    drop(client);

    let layers = ["blas", "exec", "engine", "server", "router"];
    let rungs: Vec<Rung> = [d0, d1, d2, d3, d4]
        .iter()
        .zip(layers)
        .enumerate()
        .map(|(depth, (ms, layer))| Rung {
            depth,
            layer,
            median_ms: stats::median(ms),
            samples: ms.len(),
        })
        .collect();
    print!(
        "{}",
        ladder_table(&format!("{} one RHS", run.w.spec), &rungs)
    );
    let selfs = self_times(&rungs);
    let owner = (0..rungs.len())
        .max_by(|&i, &j| selfs[i].total_cmp(&selfs[j]))
        .expect("five rungs");
    println!(
        "largest share of the client-seen median: {} ({:.4} ms of {:.4} ms)",
        rungs[owner].layer, selfs[owner], rungs[4].median_ms
    );
    for (name, i) in [
        ("ladder.d0_ms", 0),
        ("ladder.d1_ms", 1),
        ("engine.solve_ms", 2),
        ("server.solve_rtt_ms", 3),
        ("ladder.d4_ms", 4),
    ] {
        v.set_n(name, rungs[i].median_ms, rungs[i].samples);
    }
    v.set("ladder.exec_self_ms", selfs[1]);
    v.set("engine.self_ms", selfs[2]);
    v.set("server.self_ms", selfs[3]);
    v.set("router.hop_ms", selfs[4]);
    Ok([(direct, fp), (routed, rfp)])
}

/// `serve_sat`'s loop for `t / 12` seconds; verified-ok replies a second.
fn saturate(run: &Run, stack: &Stack, fp: Fingerprint) -> Result<f64, String> {
    let conns = cpu::nproc().min(2);
    let (warm, secs) = (run.t / 40.0, run.t / 12.0);
    let quiet = Tracer::new(false);
    let (target, window) = (stack.target(fp, run.pool), SAT_IN_FLIGHT / conns);
    let out = net::closed_loop(target, conns, window, warm, secs, &quiet)?;
    if out.err > 0 {
        return Err(format!("{} errors in a saturation loop", out.err));
    }
    Ok(out.ok as f64 / out.wall_s)
}

/// The saturation loop at the shipped `max_batch`, through the router,
/// and against `max_batch = 1`; then the rate ladder. Stops both stacks.
fn saturation_and_rates(
    run: &Run,
    [(direct, fp), (routed, rfp)]: [(Stack, Fingerprint); 2],
    v: &mut Values,
) -> Result<(), String> {
    let batched = saturate(run, &direct, fp)?;
    let via_router = saturate(run, &routed, rfp)?;
    v.set("router.sat_rps", via_router);
    v.set("router.sat_ratio", via_router / batched);
    router_counters(v, routed.router.as_ref().expect("a routed stack"));
    routed.stop();
    let unbatched = Stack::direct(EngineOptions {
        batch: BatchOptions {
            max_batch: 1,
            ..BatchOptions::default()
        },
        ..EngineOptions::default()
    });
    let loaded = unbatched.client().load(run.a);
    let ufp = loaded.map_err(|e| format!("LOAD: {e}"))?.fingerprint;
    let unbatched_rps = saturate(run, &unbatched, ufp)?;
    unbatched.stop();
    v.set("engine.unbatched_rps", unbatched_rps);
    v.set("engine.batch_gain", batched / unbatched_rps);
    rate_ladder(run, &direct, fp, v);
    direct.stop();
    Ok(())
}

/// The workload's own stream for `0.45 t` seconds with a span per
/// operation; the numbers of every layer it exercises replace the
/// ladder's. Returns `(attempted, failed)`.
fn own_stream(run: &Run, block: &DenseMatrix, v: &mut Values) -> Result<(u64, u64), String> {
    let secs = 0.45 * run.t;
    let warm = warm_up(secs);
    let worst_so_far = v.get("refine.max_omega").unwrap_or(0.0);
    if run.w.kind == Kind::Lib {
        let mark = CpuMark::now();
        let out = libwl::run(run.a, run.built, block, warm, secs, run.tracer);
        let after = CpuMark::now();
        if out.mismatches > 0 {
            return Err(NOT_IDENTICAL.to_string());
        }
        let solves = (out.threaded_ms.len() + out.seq_ms.len()) as f64;
        if let Some(ms) = mark.process_ms(&after) {
            v.set("proc.cpu_ms_per_req", ms / solves);
            let cores = cpu::nproc() as f64;
            v.set("proc.cpu_util", ms / 1e3 / (mark.wall_s(&after) * cores));
        }
        // the library's client is its caller
        v.set("client.sent", solves);
        v.set("client.ok", solves);
        tail_metrics(v, &out.threaded_ms);
        v.set("refine.max_omega", out.omega.max(worst_so_far));
        return Ok((solves as u64, u64::from(!libwl::meets_target(out.omega))));
    }
    let (stack, fp, _) = served::set_up(run.w.kind, run.a);
    let (counters, mark) = (stack.counters(), CpuMark::now());
    let target = stack.target(fp, run.pool);
    let out = crate::drive(run.w, &stack, target, run.seed, (warm, secs), run.tracer);
    let (after, counters_after) = (CpuMark::now(), stack.counters());
    if let Some(r) = &stack.router {
        router_counters(v, r);
    }
    let routed = stack.router.is_some();
    stack.stop();
    let out = out?;
    crate::check_generator(&out.stream)?;
    stream_metrics(v, &out.stream, &mark, &after, routed);
    v.set("client.retried", out.retried as f64);
    v.set("client.reconnects", out.reconnects as f64);
    // churn reports one Zipf block's counters, which repeat exactly for a
    // seed; the other streams report the whole phase's
    let (before, after, loads) =
        out.counter_window
            .clone()
            .unwrap_or((counters, counters_after, 0));
    counter_metrics(v, &before, &after, loads);
    if run.w.kind == Kind::ServeChurn {
        let n = out.load_miss_ms.len();
        v.set_n("engine.load_miss_ms", stats::median(&out.load_miss_ms), n);
        let n = out.load_hit_ms.len();
        v.set_n("engine.load_hit_ms", stats::median(&out.load_hit_ms), n);
        let n = out.refine_iters.len();
        v.set_n("refine.iters", stats::median(&out.refine_iters), n);
        v.set("refine.fallbacks", out.uncertified as f64);
    }
    if !out.stream.late_ms.is_empty() {
        let late = stats::percentile_of(&out.stream.late_ms, 95.0);
        v.set_n("client.late_p95_ms", late, out.stream.late_ms.len());
    }
    let (omega, failed) = out.verdict(run.a, run.pool);
    v.set("refine.max_omega", omega.max(worst_so_far));
    Ok((out.stream.sent, failed))
}

/// `blas.triad_gbps`, `blas.peak_gflops` and the roofline ratio, or the
/// reason there is none.
fn calibrate_into(v: &mut Values) {
    let Some(c) = calib::calibrate() else {
        println!("calibration: last-level cache size unreadable; blas.flops_per_byte stands without a roofline");
        return;
    };
    println!(
        "calibration: triad {:.2} GB/s on three arrays of {} MiB ({:.1}x the reported last-level cache of {} MiB), multiply-add {:.2} Gflop/s, one thread",
        c.triad_gbps,
        c.array_bytes >> 20,
        c.array_bytes as f64 / c.llc_bytes as f64,
        c.llc_bytes >> 20,
        c.peak_gflops
    );
    let intensity = v
        .get("blas.flops_per_byte")
        .expect("set by the kernel phase");
    let roof = c.peak_gflops.min(c.triad_gbps * intensity);
    v.set("blas.triad_gbps", c.triad_gbps);
    v.set("blas.peak_gflops", c.peak_gflops);
    let achieved = v.get("blas.gflops").expect("set by the kernel phase");
    v.set("blas.roofline_frac", achieved / roof);
}

pub fn run_traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let a = inputs::matrix(w.spec, args.seed);
    let pool = inputs::rhs_pool(a.ncols(), inputs::POOL, args.seed);
    let mut v = Values::default();
    v.set("proc.nproc", cpu::nproc() as f64);

    libwl::build_phases(&a, &tracer, &mut v);
    let built = libwl::build(&a);
    let run = Run {
        w,
        a: &a,
        pool: &pool,
        built: &built,
        seed: args.seed,
        t: args.seconds,
        tracer: &tracer,
    };
    let block = inputs::rhs_block(a.ncols(), w.nrhs, args.seed);
    let (mut d0, mut d1) = kernels_and_executor(&built, &block, run.t, &tracer, &mut v)?;
    if w.nrhs != 1 {
        // the ladder's requests carry one right-hand side
        let one = DenseMatrix::column_vector(&pool[0]);
        let mut replay = Replay::new(built.solver.factor_matrix(), built.solver.plan(), 1);
        let mut threaded = Threaded::new(&built, 1);
        d0 = time_calls(run.t / 20.0, || replay.sweep(true, true));
        d1 = time_calls(run.t / 20.0, || threaded.solve(&one));
    }
    let bytes_per_req = protocol_probes(&a, &pool[0], &mut v);
    refine_probe(&built, &a, &pool[0], run.t, &mut v);
    let stacks = climb(&run, d0, d1, bytes_per_req, &mut v)?;
    saturation_and_rates(&run, stacks, &mut v)?;
    let (attempted, failed) = own_stream(&run, &block, &mut v)?;
    let tail_samples = v.samples("client.p95_ms");
    if !stats::supports(tail_samples, 95.0) {
        println!("client.p95_ms rests on {tail_samples} samples, fewer than ten beyond it");
    }

    // read the peak before the calibration arrays dwarf it
    if let Some(mb) = cpu::peak_rss_mb() {
        v.set("proc.peak_rss_mb", mb);
    }
    calibrate_into(&mut v);
    let path = args.out.join("trace.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    v.set("trace.spans", tracer.len() as f64);
    println!("trace: {} spans in {}", tracer.len(), path.display());
    Ok(Outcome {
        values: v,
        attempted,
        failed,
    })
}
