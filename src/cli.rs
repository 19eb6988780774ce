//! Implementation of the `trisolv` command-line tool (argument parsing and
//! subcommands), kept as a library module so it is unit-testable.
//!
//! Subcommands:
//!
//! * `info <matrix>` — structural and symbolic statistics;
//! * `solve <matrix> [--procs P] [--nrhs M] [--block B] [--ordering O]` —
//!   factor and solve on the simulated machine, reporting timings;
//! * `convert <in> <out>` — convert between Matrix-Market (`.mtx`) and
//!   Harwell-Boeing (anything else) files;
//! * `gen <spec> <out>` — generate a test matrix (`grid2d:64`, `fem3d:...`,
//!   `random:...`) so nothing needs external matrix files;
//! * `serve` / `client` — the factor-caching, RHS-batching solve service
//!   and its load-generating client (see `crates/server` and DESIGN.md §10);
//! * `route` — the sharded, replicated distributed solve tier: a
//!   consistent-hash router in front of N `serve` backends, speaking the
//!   same protocol (see `crates/router` and DESIGN.md §15).
//!
//! Matrices are detected by extension: `.mtx` → Matrix Market, otherwise
//! Harwell-Boeing.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Duration;

use trisolv_core::mapping::SubcubeMapping;
use trisolv_core::tree::{solve_fb, SolveConfig};
use trisolv_factor::seqchol;
use trisolv_graph::{mindeg, multilevel, nd, rcm, Graph, Permutation};
use trisolv_machine::MachineParams;
use trisolv_matrix::{gen, hb, io as mmio, CscMatrix};
use trisolv_server as srv;

/// Errors surfaced to the CLI user.
pub type CliError = String;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print structural statistics.
    Info {
        /// Input matrix path.
        path: String,
    },
    /// Factor and solve with timing report.
    Solve {
        /// Input matrix path.
        path: String,
        /// Virtual processors.
        procs: usize,
        /// Right-hand sides.
        nrhs: usize,
        /// Block-cyclic block size.
        block: usize,
        /// Ordering name.
        ordering: String,
        /// Shared-memory solver threads for the real (non-simulated) solve
        /// (`0` = `std::thread::available_parallelism`).
        threads: usize,
        /// Run the certified-solve pipeline (iterative refinement with a
        /// componentwise backward-error certificate) and report it.
        certify: bool,
        /// Dynamic regularization: boost non-positive pivots instead of
        /// failing (implies the certified pipeline so the perturbations are
        /// refined against the original matrix).
        regularize: bool,
        /// Symmetric diagonal equilibration before factoring (implies the
        /// certified pipeline).
        scale: bool,
        /// Precision lane for the certified pipeline: `f64` (classic),
        /// or `f32`/`auto` — the mixed-precision driver (implies the
        /// certified pipeline; `f32` and `auto` behave identically here,
        /// the distinction only matters for the server's cache policy).
        precision: String,
    },
    /// Convert between matrix file formats.
    Convert {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
    },
    /// Generate a test matrix from a spec string and write it to a file.
    Gen {
        /// Generator spec (see [`trisolv_matrix::gen::from_spec`]).
        spec: String,
        /// Output path (`.mtx` → Matrix Market, else Harwell-Boeing).
        output: String,
    },
    /// Run the factor-caching solve server until a SHUTDOWN request.
    Serve {
        /// Bind address (port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads (should be ≥ max_batch for full batches).
        workers: usize,
        /// Micro-batcher: seal a batch at this many RHS columns.
        max_batch: usize,
        /// Micro-batcher: seal a non-full batch after this many µs.
        window_us: u64,
        /// Factor-cache byte budget in MiB.
        budget_mb: usize,
        /// Executor: `seq` or `threaded`.
        exec: String,
        /// Fault-injection spec (empty = no faults).
        fault_spec: String,
        /// Admission-control high-water mark (0 = unbounded).
        max_pending: usize,
        /// Slow-peer socket timeout in milliseconds (0 = disabled).
        io_timeout_ms: u64,
        /// Cap on client SOLVE deadlines in milliseconds (0 = uncapped).
        deadline_cap_ms: u64,
        /// Threads per blocked solve in the threaded executor, distinct
        /// from `workers` (`0` = `std::thread::available_parallelism`).
        solver_threads: usize,
        /// Factor-integrity cadence: verify a cached factor's checksum
        /// every N solves against it, self-healing on mismatch (0 = off).
        verify_every: u64,
        /// Maximum concurrent connections (0 = unlimited); extras get a
        /// structured `Busy` and a close.
        max_conns: usize,
        /// Per-connection pipelining cap (frames in flight before the event
        /// loop stops reading that socket).
        pipeline: usize,
        /// Durable factor-store directory (empty = no persistence).
        persist_dir: String,
        /// Durable factor-store byte budget in MiB (0 = unbounded).
        persist_budget_mb: usize,
        /// Cache residency lane for new factors: `f64`, `f32`, or `auto`
        /// (demote like `f32`, but promote fingerprints whose certified
        /// solves ever needed the `f64` fallback).
        precision: String,
    },
    /// Run the distributed-tier router in front of a backend fleet.
    Route {
        /// Client-facing bind address (port 0 picks an ephemeral port).
        addr: String,
        /// Backend addresses (`host:port`, comma-separated on the CLI).
        /// Mutually exclusive with `spawn`.
        backends: Vec<String>,
        /// Spawn this many local backend processes on ephemeral ports
        /// instead of routing to `backends`.
        spawn: usize,
        /// Replication factor (factors resident on this many backends).
        replication: usize,
        /// Virtual nodes per backend on the hash ring.
        vnodes: usize,
        /// Cap on client SOLVE deadlines in milliseconds (0 = uncapped).
        deadline_cap_ms: u64,
        /// Slow-peer socket timeout in milliseconds (0 = disabled).
        io_timeout_ms: u64,
        /// Base reconnect-probe interval for unhealthy backends, in
        /// milliseconds.
        probe_ms: u64,
        /// Maximum concurrent client connections (0 = unlimited).
        max_conns: usize,
        /// Per-connection pipelining cap.
        pipeline: usize,
        /// Byte budget (MiB) for retained LOAD payloads replayed to
        /// rejoining backends (0 = retain nothing).
        retained_mb: usize,
        /// Hedged-SOLVE latency floor in milliseconds: duplicate a solve to
        /// the next replica once it outlives max(backend p99, this floor)
        /// (0 = hedging off).
        hedge_after_ms: u64,
        /// Hedge budget as a fraction of dispatched solve sub-requests
        /// (0 = hedging off).
        hedge_budget: f64,
    },
    /// Drive a running server with the load generator.
    Client {
        /// Server address.
        addr: String,
        /// Generator spec for the matrix to load and solve against.
        spec: Option<String>,
        /// Matrix file to load instead of a generated one.
        matrix: Option<String>,
        /// Concurrent client connections.
        clients: usize,
        /// Run duration in seconds.
        secs: f64,
        /// Send SHUTDOWN to the server when done.
        shutdown: bool,
        /// Per-request deadline/timeout in milliseconds (0 = server default).
        timeout_ms: u64,
        /// Retry attempts after a transient failure.
        retries: u32,
        /// Base backoff between retries in milliseconds.
        backoff_ms: u64,
        /// Extra connections opened before the run and held idle through it
        /// (connection-scaling smoke; see the event-driven front end).
        idle_conns: usize,
        /// Issue one certified SOLVE (the SOLVE certify flag) after the
        /// load and print the server's refinement certificate.
        certify: bool,
        /// Print the server's STATS counters after the run.
        stats: bool,
    },
}

/// Parse CLI arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let usage = "usage: trisolv <info|solve|convert|gen|serve|route|client> ...\n\
                 \x20 trisolv info <matrix>\n\
                 \x20 trisolv solve <matrix> [--procs P] [--nrhs M] [--block B] [--ordering nd|multilevel|mindeg|rcm|natural]\n\
                 \x20               [--threads T]      (real shared-memory solve width; 0 = available parallelism)\n\
                 \x20               [--certify] [--regularize] [--scale]   (certified solve: refinement / pivot boosting / equilibration)\n\
                 \x20               [--precision f64|f32|auto]  (f32/auto: mixed-precision certified pipeline)\n\
                 \x20 trisolv convert <in> <out>\n\
                 \x20 trisolv gen <spec> <out>      (spec e.g. grid2d:64, grid3d:16x16x16, fem2d:24x24:3, random:500:6:1)\n\
                 \x20 trisolv serve [--addr A] [--workers N] [--max-batch K] [--window-us U] [--budget-mb M] [--exec seq|threaded]\n\
                 \x20               [--fault-spec S] [--max-pending P] [--io-timeout-ms T] [--deadline-cap-ms D] [--solver-threads T]\n\
                 \x20               [--verify-every N]  (factor-integrity checksum cadence; 0 = off)\n\
                 \x20               [--max-conns C]     (concurrent-connection cap; 0 = unlimited)\n\
                 \x20               [--pipeline P]      (per-connection in-flight frame cap)\n\
                 \x20               [--persist-dir D]   (durable factor store; warm restart recovers it)\n\
                 \x20               [--persist-budget-mb M]  (on-disk snapshot budget; 0 = unbounded)\n\
                 \x20               [--precision f64|f32|auto]  (cache lane; auto promotes factors that needed fallback)\n\
                 \x20 trisolv route [--addr A] (--backends h:p,h:p,... | --spawn N) [--replication R] [--vnodes V]\n\
                 \x20               [--deadline-cap-ms D] [--io-timeout-ms T] [--probe-ms P] [--max-conns C] [--pipeline P]\n\
                 \x20               [--retained-mb M]   (retained-LOAD replay budget for rejoining backends)\n\
                 \x20               [--hedge-after-ms H] [--hedge-budget F]  (tail-latency hedging; 0 for either = off)\n\
                 \x20 trisolv client <addr> [--gen spec | --matrix path] [--clients N] [--secs S] [--shutdown]\n\
                 \x20               [--timeout-ms T] [--retries R] [--backoff-ms B] [--idle-conns I]\n\
                 \x20               [--certify]  (one certified SOLVE; prints the refinement certificate)\n\
                 \x20               [--stats]    (print the server's STATS counters after the run)";
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("info") => {
            let path = it.next().ok_or_else(|| usage.to_string())?.clone();
            Ok(Command::Info { path })
        }
        Some("solve") => {
            let path = it.next().ok_or_else(|| usage.to_string())?.clone();
            let mut procs = 16usize;
            let mut nrhs = 1usize;
            let mut block = 8usize;
            let mut ordering = "nd".to_string();
            let mut threads = 0usize;
            let mut certify = false;
            let mut regularize = false;
            let mut scale = false;
            let mut precision = "f64".to_string();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--certify" => {
                        certify = true;
                        continue;
                    }
                    "--regularize" => {
                        regularize = true;
                        continue;
                    }
                    "--scale" => {
                        scale = true;
                        continue;
                    }
                    _ => {}
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag.as_str() {
                    "--procs" => procs = value.parse().map_err(|e| format!("bad --procs: {e}"))?,
                    "--nrhs" => nrhs = value.parse().map_err(|e| format!("bad --nrhs: {e}"))?,
                    "--block" => block = value.parse().map_err(|e| format!("bad --block: {e}"))?,
                    "--ordering" => ordering = value.clone(),
                    "--threads" => {
                        threads = value.parse().map_err(|e| format!("bad --threads: {e}"))?
                    }
                    "--precision" => precision = value.clone(),
                    other => return Err(format!("unknown flag {other}\n{usage}")),
                }
            }
            if procs == 0 || nrhs == 0 || block == 0 {
                return Err("--procs, --nrhs, --block must be positive".to_string());
            }
            trisolv_server::PrecisionMode::parse(&precision)?;
            Ok(Command::Solve {
                path,
                procs,
                nrhs,
                block,
                ordering,
                threads,
                certify,
                regularize,
                scale,
                precision,
            })
        }
        Some("convert") => {
            let input = it.next().ok_or_else(|| usage.to_string())?.clone();
            let output = it.next().ok_or_else(|| usage.to_string())?.clone();
            Ok(Command::Convert { input, output })
        }
        Some("gen") => {
            let spec = it.next().ok_or_else(|| usage.to_string())?.clone();
            let output = it.next().ok_or_else(|| usage.to_string())?.clone();
            Ok(Command::Gen { spec, output })
        }
        Some("serve") => {
            let mut addr = "127.0.0.1:7411".to_string();
            let mut workers = 32usize;
            let mut max_batch = 8usize;
            let mut window_us = 1000u64;
            let mut budget_mb = 512usize;
            let mut exec = "threaded".to_string();
            let mut fault_spec = String::new();
            let mut max_pending = 1024usize;
            let mut io_timeout_ms = 10_000u64;
            let mut deadline_cap_ms = 30_000u64;
            let mut solver_threads = 0usize;
            let mut verify_every = 0u64;
            let mut max_conns = 0usize;
            let mut pipeline = 64usize;
            let mut persist_dir = String::new();
            let mut persist_budget_mb = 0usize;
            let mut precision = "f64".to_string();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag.as_str() {
                    "--addr" => addr = value.clone(),
                    "--workers" => {
                        workers = value.parse().map_err(|e| format!("bad --workers: {e}"))?
                    }
                    "--max-batch" => {
                        max_batch = value.parse().map_err(|e| format!("bad --max-batch: {e}"))?
                    }
                    "--window-us" => {
                        window_us = value.parse().map_err(|e| format!("bad --window-us: {e}"))?
                    }
                    "--budget-mb" => {
                        budget_mb = value.parse().map_err(|e| format!("bad --budget-mb: {e}"))?
                    }
                    "--exec" => exec = value.clone(),
                    "--fault-spec" => fault_spec = value.clone(),
                    "--max-pending" => {
                        max_pending = value
                            .parse()
                            .map_err(|e| format!("bad --max-pending: {e}"))?
                    }
                    "--io-timeout-ms" => {
                        io_timeout_ms = value
                            .parse()
                            .map_err(|e| format!("bad --io-timeout-ms: {e}"))?
                    }
                    "--deadline-cap-ms" => {
                        deadline_cap_ms = value
                            .parse()
                            .map_err(|e| format!("bad --deadline-cap-ms: {e}"))?
                    }
                    "--solver-threads" => {
                        solver_threads = value
                            .parse()
                            .map_err(|e| format!("bad --solver-threads: {e}"))?
                    }
                    "--verify-every" => {
                        verify_every = value
                            .parse()
                            .map_err(|e| format!("bad --verify-every: {e}"))?
                    }
                    "--max-conns" => {
                        max_conns = value.parse().map_err(|e| format!("bad --max-conns: {e}"))?
                    }
                    "--pipeline" => {
                        pipeline = value.parse().map_err(|e| format!("bad --pipeline: {e}"))?
                    }
                    "--persist-dir" => persist_dir = value.clone(),
                    "--persist-budget-mb" => {
                        persist_budget_mb = value
                            .parse()
                            .map_err(|e| format!("bad --persist-budget-mb: {e}"))?
                    }
                    "--precision" => precision = value.clone(),
                    other => return Err(format!("unknown flag {other}\n{usage}")),
                }
            }
            if workers == 0 || max_batch == 0 || budget_mb == 0 {
                return Err("--workers, --max-batch, --budget-mb must be positive".to_string());
            }
            if pipeline == 0 {
                return Err("--pipeline must be positive".to_string());
            }
            if persist_dir.is_empty() && persist_budget_mb != 0 {
                return Err("--persist-budget-mb needs --persist-dir".to_string());
            }
            trisolv_server::ExecMode::parse(&exec)?;
            trisolv_server::FaultPlan::parse(&fault_spec)?;
            trisolv_server::PrecisionMode::parse(&precision)?;
            Ok(Command::Serve {
                addr,
                workers,
                max_batch,
                window_us,
                budget_mb,
                exec,
                fault_spec,
                max_pending,
                io_timeout_ms,
                deadline_cap_ms,
                solver_threads,
                verify_every,
                max_conns,
                pipeline,
                persist_dir,
                persist_budget_mb,
                precision,
            })
        }
        Some("route") => {
            let mut addr = "127.0.0.1:7412".to_string();
            let mut backends: Vec<String> = Vec::new();
            let mut spawn = 0usize;
            let mut replication = 2usize;
            let mut vnodes = trisolv_router::Ring::DEFAULT_VNODES;
            let mut deadline_cap_ms = 30_000u64;
            let mut io_timeout_ms = 10_000u64;
            let mut probe_ms = 100u64;
            let mut max_conns = 0usize;
            let mut pipeline = 64usize;
            let mut retained_mb = 256usize;
            let mut hedge_after_ms = 50u64;
            let mut hedge_budget = 0.10f64;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag.as_str() {
                    "--addr" => addr = value.clone(),
                    "--backends" => {
                        backends = value
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    "--spawn" => spawn = value.parse().map_err(|e| format!("bad --spawn: {e}"))?,
                    "--replication" => {
                        replication = value
                            .parse()
                            .map_err(|e| format!("bad --replication: {e}"))?
                    }
                    "--vnodes" => {
                        vnodes = value.parse().map_err(|e| format!("bad --vnodes: {e}"))?
                    }
                    "--deadline-cap-ms" => {
                        deadline_cap_ms = value
                            .parse()
                            .map_err(|e| format!("bad --deadline-cap-ms: {e}"))?
                    }
                    "--io-timeout-ms" => {
                        io_timeout_ms = value
                            .parse()
                            .map_err(|e| format!("bad --io-timeout-ms: {e}"))?
                    }
                    "--probe-ms" => {
                        probe_ms = value.parse().map_err(|e| format!("bad --probe-ms: {e}"))?
                    }
                    "--max-conns" => {
                        max_conns = value.parse().map_err(|e| format!("bad --max-conns: {e}"))?
                    }
                    "--pipeline" => {
                        pipeline = value.parse().map_err(|e| format!("bad --pipeline: {e}"))?
                    }
                    "--retained-mb" => {
                        retained_mb = value
                            .parse()
                            .map_err(|e| format!("bad --retained-mb: {e}"))?
                    }
                    "--hedge-after-ms" => {
                        hedge_after_ms = value
                            .parse()
                            .map_err(|e| format!("bad --hedge-after-ms: {e}"))?
                    }
                    "--hedge-budget" => {
                        hedge_budget = value
                            .parse()
                            .map_err(|e| format!("bad --hedge-budget: {e}"))?;
                        if !(0.0..=1.0).contains(&hedge_budget) {
                            return Err("--hedge-budget must be in [0, 1]".to_string());
                        }
                    }
                    other => return Err(format!("unknown flag {other}\n{usage}")),
                }
            }
            match (backends.is_empty(), spawn) {
                (true, 0) => return Err("route needs --backends or --spawn\n".to_string() + usage),
                (false, s) if s > 0 => {
                    return Err("--backends and --spawn are mutually exclusive".to_string())
                }
                _ => {}
            }
            if replication == 0 || vnodes == 0 || pipeline == 0 || probe_ms == 0 {
                return Err(
                    "--replication, --vnodes, --pipeline, --probe-ms must be positive".to_string(),
                );
            }
            Ok(Command::Route {
                addr,
                backends,
                spawn,
                replication,
                vnodes,
                deadline_cap_ms,
                io_timeout_ms,
                probe_ms,
                max_conns,
                pipeline,
                retained_mb,
                hedge_after_ms,
                hedge_budget,
            })
        }
        Some("client") => {
            let addr = it.next().ok_or_else(|| usage.to_string())?.clone();
            if addr.starts_with("--") {
                return Err(usage.to_string());
            }
            let mut spec = None;
            let mut matrix = None;
            let mut clients = 4usize;
            let mut secs = 2.0f64;
            let mut shutdown = false;
            let mut timeout_ms = 0u64;
            let mut retries = 3u32;
            let mut backoff_ms = 50u64;
            let mut idle_conns = 0usize;
            let mut certify = false;
            let mut stats = false;
            while let Some(flag) = it.next() {
                if flag == "--shutdown" {
                    shutdown = true;
                    continue;
                }
                if flag == "--certify" {
                    certify = true;
                    continue;
                }
                if flag == "--stats" {
                    stats = true;
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag.as_str() {
                    "--gen" => spec = Some(value.clone()),
                    "--matrix" => matrix = Some(value.clone()),
                    "--clients" => {
                        clients = value.parse().map_err(|e| format!("bad --clients: {e}"))?
                    }
                    "--secs" => secs = value.parse().map_err(|e| format!("bad --secs: {e}"))?,
                    "--timeout-ms" => {
                        timeout_ms = value
                            .parse()
                            .map_err(|e| format!("bad --timeout-ms: {e}"))?
                    }
                    "--retries" => {
                        retries = value.parse().map_err(|e| format!("bad --retries: {e}"))?
                    }
                    "--backoff-ms" => {
                        backoff_ms = value
                            .parse()
                            .map_err(|e| format!("bad --backoff-ms: {e}"))?
                    }
                    "--idle-conns" => {
                        idle_conns = value
                            .parse()
                            .map_err(|e| format!("bad --idle-conns: {e}"))?
                    }
                    other => return Err(format!("unknown flag {other}\n{usage}")),
                }
            }
            if spec.is_some() && matrix.is_some() {
                return Err("--gen and --matrix are mutually exclusive".to_string());
            }
            if clients == 0 || secs.is_nan() || secs <= 0.0 {
                return Err("--clients and --secs must be positive".to_string());
            }
            if backoff_ms == 0 {
                return Err("--backoff-ms must be positive".to_string());
            }
            Ok(Command::Client {
                addr,
                spec,
                matrix,
                clients,
                secs,
                shutdown,
                timeout_ms,
                retries,
                backoff_ms,
                idle_conns,
                certify,
                stats,
            })
        }
        _ => Err(usage.to_string()),
    }
}

/// Load a matrix by extension (`.mtx` → Matrix Market, else Harwell-Boeing).
pub fn load_matrix(path: &str) -> Result<(CscMatrix, String), CliError> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    if Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("mtx"))
    {
        let (m, _) = mmio::read_matrix_market(reader).map_err(|e| e.to_string())?;
        Ok((
            m,
            Path::new(path)
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned(),
        ))
    } else {
        let (m, title) = hb::read_harwell_boeing(reader).map_err(|e| e.to_string())?;
        Ok((m, title))
    }
}

fn ordering_perm(name: &str, a: &CscMatrix) -> Result<Permutation, CliError> {
    let g = Graph::from_sym_lower(a);
    Ok(match name {
        "nd" => nd::nested_dissection(&g, nd::NdOptions::default()),
        "multilevel" => {
            multilevel::nested_dissection_multilevel(&g, multilevel::MlOptions::default())
        }
        "mindeg" => mindeg::minimum_degree(&g),
        "rcm" => rcm::reverse_cuthill_mckee(&g),
        "natural" => Permutation::identity(a.ncols()),
        other => return Err(format!("unknown ordering {other:?}")),
    })
}

/// Execute a parsed command, returning the text to print.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    let mut out = String::new();
    match cmd {
        Command::Info { path } => {
            let (a, title) = load_matrix(path)?;
            let _ = writeln!(out, "matrix:  {title}");
            let _ = writeln!(out, "order:   {} x {}", a.nrows(), a.ncols());
            let _ = writeln!(out, "stored:  {} nonzeros (lower triangle)", a.nnz());
            let perm = ordering_perm("nd", &a)?;
            let an = seqchol::analyze_with_perm(&a, &perm);
            let _ = writeln!(out, "--- after nested dissection ---");
            let _ = writeln!(out, "factor:  {} nonzeros", an.part.nnz());
            let _ = writeln!(
                out,
                "opcount: {:.2} Mflop factorization, {:.3} Mflop per fw+bw solve",
                an.part.factor_flops() as f64 / 1e6,
                an.part.solve_flops(1) as f64 / 1e6
            );
            let _ = writeln!(out, "supernodes: {}", an.part.nsup());
            let _ = writeln!(out, "etree height: {}", an.sym.tree().height());
        }
        Command::Solve {
            path,
            procs,
            nrhs,
            block,
            ordering,
            threads,
            certify,
            regularize,
            scale,
            precision,
        } => {
            let (a, title) = load_matrix(path)?;
            let perm = ordering_perm(ordering, &a)?;
            let an = seqchol::analyze_with_perm(&a, &perm);
            let factor = seqchol::factor_supernodal(&an.pa, &an.part)
                .map_err(|e| format!("factorization failed: {e}"))?;
            let mapping = SubcubeMapping::new(&an.part, *procs);
            let config = SolveConfig {
                nprocs: *procs,
                block: *block,
                params: MachineParams::t3d(),
            };
            let b = gen::random_rhs(a.ncols(), *nrhs, 42);
            let (x, report) = solve_fb(&factor, &mapping, &b, &config);
            // residual check in the permuted space
            let ax = an.pa.spmv_sym_lower(&x).map_err(|e| e.to_string())?;
            let resid = ax.max_abs_diff(&b).unwrap_or(f64::NAN) / b.norm_max().max(1.0);
            let _ = writeln!(out, "matrix:   {title} (N = {})", a.ncols());
            let _ = writeln!(
                out,
                "ordering: {ordering}; factor nnz {}; {} supernodes",
                an.part.nnz(),
                an.part.nsup()
            );
            let _ = writeln!(
                out,
                "solve:    p = {procs}, NRHS = {nrhs}, b = {block} -> {:.4} s virtual ({:.1} MFLOPS)",
                report.total_time,
                report.mflops()
            );
            let _ = writeln!(
                out,
                "          forward {:.4} s, backward {:.4} s, {} msgs, {} words",
                report.forward_time, report.backward_time, report.msgs, report.words
            );
            let _ = writeln!(out, "residual: {resid:.3e} (relative, random RHS)");
            // Real shared-memory solve on this machine, same factor and RHS.
            let nthreads = if *threads == 0 {
                trisolv_core::default_threads()
            } else {
                *threads
            };
            let tsolver = trisolv_core::ThreadedSolver::new(&factor)
                .map_err(|e| format!("solve plan failed: {e}"))?
                .with_threads(nthreads);
            let mut ws = tsolver.workspace(*nrhs);
            let start = std::time::Instant::now();
            let tx = tsolver.forward_backward_with(&b, &mut ws);
            let wall = start.elapsed().as_secs_f64();
            let tax = an.pa.spmv_sym_lower(&tx).map_err(|e| e.to_string())?;
            let tresid = tax.max_abs_diff(&b).unwrap_or(f64::NAN) / b.norm_max().max(1.0);
            let _ = writeln!(
                out,
                "threaded: {nthreads} threads -> {:.6} s wall ({:.1} MFLOPS), residual {tresid:.3e}",
                wall,
                an.part.solve_flops(*nrhs) as f64 / wall.max(1e-12) / 1e6
            );
            // Certified pipeline on the original (unpermuted) system: any
            // of the three flags turns it on, since equilibration and
            // regularization only make sense refined against the original
            // matrix (DESIGN.md §13).
            let mixed = precision != "f64";
            if *certify || *regularize || *scale || mixed {
                let copts = trisolv_core::CertifyOptions {
                    scale: *scale,
                    regularize: *regularize,
                    condition: true,
                    ..trisolv_core::CertifyOptions::default()
                };
                let cb = gen::random_rhs(a.ncols(), 1, 7);
                let (report, lane_note) = if mixed {
                    let ms = trisolv_core::certified_solve_mixed(&a, &cb, &copts)
                        .map_err(|e| format!("certified solve failed: {e}"))?;
                    let note = if ms.fell_back {
                        " [f32 lane, fell back to f64]"
                    } else {
                        " [f32 lane]"
                    };
                    (ms.report, note)
                } else {
                    let cs = trisolv_core::certified_solve(&a, &cb, &copts)
                        .map_err(|e| format!("certified solve failed: {e}"))?;
                    (cs.report, "")
                };
                let r = &report;
                let _ = writeln!(
                    out,
                    "certify:  omega {:.3e} after {} refinement step(s) -> {}{lane_note}",
                    r.backward_error,
                    r.iterations,
                    if r.certified {
                        "certified"
                    } else {
                        "NOT certified"
                    }
                );
                let mut extras = format!("          boosted pivots {}", r.perturbations);
                if let Some(ratio) = r.scaling_ratio {
                    let _ = write!(extras, ", scaling ratio {ratio:.3e}");
                }
                if let Some(cond) = r.condition_estimate {
                    let _ = write!(extras, ", cond1 estimate {cond:.3e}");
                }
                let _ = writeln!(out, "{extras}");
            }
        }
        Command::Convert { input, output } => {
            let (a, title) = load_matrix(input)?;
            write_matrix(output, &a, &title)?;
            let _ = writeln!(out, "wrote {output} ({} nonzeros)", a.nnz());
        }
        Command::Gen { spec, output } => {
            let a = gen::from_spec(spec)?;
            write_matrix(output, &a, spec)?;
            let _ = writeln!(
                out,
                "wrote {output}: {} ({} x {}, {} nonzeros stored)",
                spec,
                a.nrows(),
                a.ncols(),
                a.nnz()
            );
        }
        Command::Serve {
            addr,
            workers,
            max_batch,
            window_us,
            budget_mb,
            exec,
            fault_spec,
            max_pending,
            io_timeout_ms,
            deadline_cap_ms,
            solver_threads,
            verify_every,
            max_conns,
            pipeline,
            persist_dir,
            persist_budget_mb,
            precision,
        } => {
            let fault = srv::FaultPlan::parse(fault_spec)?;
            let persist = if persist_dir.is_empty() {
                None
            } else {
                let mut p = srv::StoreOptions::new(persist_dir);
                if *persist_budget_mb > 0 {
                    p.budget_bytes = (*persist_budget_mb as u64) << 20;
                }
                Some(p)
            };
            let opts = srv::ServerOptions {
                addr: addr.clone(),
                workers: *workers,
                engine: srv::EngineOptions {
                    budget_bytes: budget_mb << 20,
                    batch: srv::BatchOptions {
                        max_batch: *max_batch,
                        window: Duration::from_micros(*window_us),
                        wait_timeout: Duration::from_secs(30),
                    },
                    exec: srv::ExecMode::parse(exec)?,
                    max_pending: *max_pending,
                    solver_threads: *solver_threads,
                    verify_every: *verify_every,
                    precision: srv::PrecisionMode::parse(precision)?,
                },
                fault,
                io_timeout: Duration::from_millis(*io_timeout_ms),
                deadline_cap: Duration::from_millis(*deadline_cap_ms),
                max_conns: *max_conns,
                max_pipeline: *pipeline,
                persist,
            };
            let server = srv::Server::spawn(opts).map_err(|e| format!("cannot serve: {e}"))?;
            // SIGTERM/SIGINT drain through the event loop's waker and exit
            // cleanly; only the CLI installs the process-wide handler.
            server.install_signal_handlers();
            // Announce the bound address immediately (scripts and the CI
            // smoke job parse this line), then park until a SHUTDOWN frame.
            println!(
                "trisolv-server listening on {} ({} workers, max batch {}, window {} us, {} exec{})",
                server.local_addr(),
                workers,
                max_batch,
                window_us,
                exec,
                if fault_spec.is_empty() {
                    String::new()
                } else {
                    format!(", faults: {fault_spec}")
                }
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait();
            let _ = writeln!(out, "server shut down cleanly");
        }
        Command::Route {
            addr,
            backends,
            spawn,
            replication,
            vnodes,
            deadline_cap_ms,
            io_timeout_ms,
            probe_ms,
            max_conns,
            pipeline,
            retained_mb,
            hedge_after_ms,
            hedge_budget,
        } => {
            // --spawn: supervise a local fleet of `trisolv serve` children
            // on ephemeral ports; kept alive until the router exits.
            let (fleet, backend_addrs) = if *spawn > 0 {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot find own executable: {e}"))?;
                let args: Vec<String> = ["serve", "--addr", "127.0.0.1:0"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let fleet = trisolv_router::Fleet::spawn(&exe.to_string_lossy(), &args, *spawn)
                    .map_err(|e| format!("cannot spawn backend fleet: {e}"))?;
                let addrs = fleet.addrs().to_vec();
                (Some(fleet), addrs)
            } else {
                (None, backends.clone())
            };
            let nbackends = backend_addrs.len();
            let router = trisolv_router::Router::spawn(trisolv_router::RouterOptions {
                addr: addr.clone(),
                backends: backend_addrs,
                replication: *replication,
                vnodes: *vnodes,
                io_timeout: Duration::from_millis(*io_timeout_ms),
                deadline_cap: Duration::from_millis(*deadline_cap_ms),
                max_conns: *max_conns,
                max_pipeline: *pipeline,
                probe_interval: Duration::from_millis(*probe_ms),
                retained_budget: retained_mb * 1024 * 1024,
                hedge_after: Duration::from_millis(*hedge_after_ms),
                hedge_budget: *hedge_budget,
            })
            .map_err(|e| format!("cannot route: {e}"))?;
            // Announce the bound address immediately (scripts and the CI
            // router-smoke job parse this line), then park until SHUTDOWN.
            println!(
                "trisolv-router listening on {} ({nbackends} backends, replication {replication})",
                router.local_addr()
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            router.wait();
            drop(fleet);
            let _ = writeln!(out, "router shut down cleanly");
        }
        Command::Client {
            addr,
            spec,
            matrix,
            clients,
            secs,
            shutdown,
            timeout_ms,
            retries,
            backoff_ms,
            idle_conns,
            certify,
            stats,
        } => {
            let a = match (spec, matrix) {
                (Some(s), None) => gen::from_spec(s)?,
                (None, Some(path)) => load_matrix(path)?.0,
                (None, None) => gen::from_spec("grid2d:32")?,
                (Some(_), Some(_)) => unreachable!("rejected at parse time"),
            };
            let mut client = srv::Client::connect_retry(addr.as_str(), Duration::from_secs(5))
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let loaded = client.load(&a).map_err(|e| format!("LOAD failed: {e}"))?;
            let _ = writeln!(
                out,
                "loaded {} (n = {}, factor nnz {}, fingerprint {}{})",
                spec.as_deref()
                    .unwrap_or(matrix.as_deref().unwrap_or("grid2d:32")),
                loaded.n,
                loaded.factor_nnz,
                loaded.fingerprint,
                if loaded.already_cached {
                    ", already cached"
                } else {
                    ""
                }
            );
            let report = srv::run_load(&srv::LoadGenOptions {
                addr: addr.clone(),
                fingerprint: loaded.fingerprint,
                n: loaded.n,
                clients: *clients,
                duration: Duration::from_secs_f64(*secs),
                seed: 42,
                deadline_ms: *timeout_ms,
                client: srv::ClientOptions {
                    retries: *retries,
                    backoff: Duration::from_millis(*backoff_ms),
                    ..srv::ClientOptions::default()
                },
                idle_conns: *idle_conns,
            })
            .map_err(|e| format!("load generation failed: {e}"))?;
            let _ = writeln!(
                out,
                "requests: {} ok, {} errors in {:.2} s ({:.0} req/s)",
                report.requests,
                report.errors,
                report.elapsed.as_secs_f64(),
                report.throughput_rps
            );
            let _ = writeln!(
                out,
                "latency:  p50 {:.0} us, p99 {:.0} us, mean {:.0} us",
                report.p50_us, report.p99_us, report.mean_us
            );
            if *idle_conns > 0 {
                let _ = writeln!(
                    out,
                    "idle:     {} extra connections held open (asked for {})",
                    report.idle_conns, idle_conns
                );
            }
            if report.retry != srv::RetryStats::default() {
                let _ = writeln!(
                    out,
                    "retries:  {} retried, {} shed, {} deadline-missed, {} reconnects",
                    report.retry.retried,
                    report.retry.shed,
                    report.retry.deadline_missed,
                    report.retry.reconnects
                );
            }
            if *certify {
                let rhs = gen::random_rhs(loaded.n, 1, 7);
                let reply = client
                    .solve_certified(loaded.fingerprint, rhs.col(0), 0)
                    .map_err(|e| format!("certified SOLVE failed: {e}"))?;
                let _ = writeln!(
                    out,
                    "certify:  omega {:.3e} after {} refinement step(s) -> {}",
                    reply.backward_error,
                    reply.iterations,
                    if reply.certified {
                        "certified"
                    } else {
                        "NOT certified"
                    }
                );
            }
            if *stats {
                for (key, value) in client.stats().map_err(|e| format!("STATS failed: {e}"))? {
                    let _ = writeln!(out, "stat {key} = {value}");
                }
            }
            if *shutdown {
                client
                    .shutdown_server()
                    .map_err(|e| format!("SHUTDOWN failed: {e}"))?;
                let _ = writeln!(out, "server shutdown acknowledged");
            }
            if report.requests == 0 {
                return Err("no requests completed".to_string());
            }
        }
    }
    Ok(out)
}

/// Write a matrix by extension (`.mtx` → Matrix Market, else Harwell-Boeing).
fn write_matrix(output: &str, a: &CscMatrix, title: &str) -> Result<(), CliError> {
    let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let mut w = BufWriter::new(file);
    if Path::new(output)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("mtx"))
    {
        mmio::write_matrix_market(&mut w, a, mmio::Symmetry::Symmetric).map_err(|e| e.to_string())
    } else {
        hb::write_harwell_boeing(&mut w, a, title, "TRISOLV", true).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommands() {
        assert_eq!(
            parse_args(&strv(&["info", "m.mtx"])).unwrap(),
            Command::Info {
                path: "m.mtx".into()
            }
        );
        let cmd = parse_args(&strv(&[
            "solve",
            "m.rsa",
            "--procs",
            "64",
            "--nrhs",
            "10",
            "--block",
            "4",
            "--ordering",
            "multilevel",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                path: "m.rsa".into(),
                procs: 64,
                nrhs: 10,
                block: 4,
                ordering: "multilevel".into(),
                threads: 3,
                certify: false,
                regularize: false,
                scale: false,
                precision: "f64".into(),
            }
        );
        // the certify flags are boolean (no value) and order-insensitive
        let cmd = parse_args(&strv(&[
            "solve",
            "m.rsa",
            "--certify",
            "--procs",
            "4",
            "--scale",
            "--regularize",
            "--precision",
            "f32",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                path: "m.rsa".into(),
                procs: 4,
                nrhs: 1,
                block: 8,
                ordering: "nd".into(),
                threads: 0,
                certify: true,
                regularize: true,
                scale: true,
                precision: "f32".into(),
            }
        );
        assert!(parse_args(&strv(&["solve"])).is_err());
        assert!(
            parse_args(&strv(&["solve", "m", "--precision", "f16"])).is_err(),
            "bad precision lanes are rejected at parse time"
        );
        assert!(parse_args(&strv(&["bogus"])).is_err());
        assert!(parse_args(&strv(&["solve", "m", "--procs"])).is_err());
        assert!(parse_args(&strv(&["solve", "m", "--procs", "0"])).is_err());
        assert_eq!(
            parse_args(&strv(&["gen", "grid2d:8", "g.mtx"])).unwrap(),
            Command::Gen {
                spec: "grid2d:8".into(),
                output: "g.mtx".into()
            }
        );
        assert!(parse_args(&strv(&["gen", "grid2d:8"])).is_err());
    }

    #[test]
    fn parses_serve_and_client() {
        assert_eq!(
            parse_args(&strv(&["serve"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7411".into(),
                workers: 32,
                max_batch: 8,
                window_us: 1000,
                budget_mb: 512,
                exec: "threaded".into(),
                fault_spec: String::new(),
                max_pending: 1024,
                io_timeout_ms: 10_000,
                deadline_cap_ms: 30_000,
                solver_threads: 0,
                verify_every: 0,
                max_conns: 0,
                pipeline: 64,
                persist_dir: String::new(),
                persist_budget_mb: 0,
                precision: "f64".into(),
            }
        );
        assert_eq!(
            parse_args(&strv(&[
                "serve",
                "--addr",
                "0.0.0.0:9000",
                "--workers",
                "4",
                "--max-batch",
                "30",
                "--window-us",
                "500",
                "--budget-mb",
                "64",
                "--exec",
                "seq",
                "--fault-spec",
                "solve.panic=every:7",
                "--max-pending",
                "16",
                "--io-timeout-ms",
                "2500",
                "--deadline-cap-ms",
                "750",
                "--solver-threads",
                "2",
                "--verify-every",
                "64",
                "--max-conns",
                "5000",
                "--pipeline",
                "16",
                "--persist-dir",
                "/tmp/factors",
                "--persist-budget-mb",
                "128",
                "--precision",
                "auto",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 4,
                max_batch: 30,
                window_us: 500,
                budget_mb: 64,
                exec: "seq".into(),
                fault_spec: "solve.panic=every:7".into(),
                max_pending: 16,
                io_timeout_ms: 2500,
                deadline_cap_ms: 750,
                solver_threads: 2,
                verify_every: 64,
                max_conns: 5000,
                pipeline: 16,
                persist_dir: "/tmp/factors".into(),
                persist_budget_mb: 128,
                precision: "auto".into(),
            }
        );
        assert!(
            parse_args(&strv(&["serve", "--precision", "bf16"])).is_err(),
            "bad precision lanes are rejected at parse time"
        );
        assert!(
            parse_args(&strv(&["serve", "--persist-budget-mb", "8"])).is_err(),
            "--persist-budget-mb without --persist-dir is rejected"
        );
        assert!(parse_args(&strv(&["serve", "--exec", "warp"])).is_err());
        assert!(parse_args(&strv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&strv(&["serve", "--pipeline", "0"])).is_err());
        assert!(
            parse_args(&strv(&["serve", "--fault-spec", "warp.panic=every:1"])).is_err(),
            "bad fault specs are rejected at parse time"
        );

        assert_eq!(
            parse_args(&strv(&[
                "client",
                "127.0.0.1:7411",
                "--gen",
                "grid2d:16",
                "--clients",
                "8",
                "--secs",
                "0.5",
                "--shutdown",
                "--timeout-ms",
                "200",
                "--retries",
                "5",
                "--backoff-ms",
                "20",
                "--idle-conns",
                "100",
            ]))
            .unwrap(),
            Command::Client {
                addr: "127.0.0.1:7411".into(),
                spec: Some("grid2d:16".into()),
                matrix: None,
                clients: 8,
                secs: 0.5,
                shutdown: true,
                timeout_ms: 200,
                retries: 5,
                backoff_ms: 20,
                idle_conns: 100,
                certify: false,
                stats: false,
            }
        );
        if let Command::Client { certify, stats, .. } =
            parse_args(&strv(&["client", "a:1", "--certify", "--stats"])).unwrap()
        {
            assert!(certify && stats);
        } else {
            panic!("expected client command");
        }
        assert!(parse_args(&strv(&["client"])).is_err());
        assert!(parse_args(&strv(&["client", "a:1", "--backoff-ms", "0"])).is_err());
        assert!(
            parse_args(&strv(&["client", "a:1", "--gen", "g", "--matrix", "m"])).is_err(),
            "--gen and --matrix are mutually exclusive"
        );
        assert!(parse_args(&strv(&["client", "a:1", "--clients", "0"])).is_err());
    }

    #[test]
    fn parses_route() {
        assert_eq!(
            parse_args(&strv(&[
                "route",
                "--backends",
                "127.0.0.1:7411, 127.0.0.1:7413",
                "--replication",
                "3",
                "--vnodes",
                "32",
                "--deadline-cap-ms",
                "5000",
                "--io-timeout-ms",
                "2500",
                "--probe-ms",
                "50",
                "--max-conns",
                "1000",
                "--pipeline",
                "16",
                "--retained-mb",
                "64",
                "--hedge-after-ms",
                "25",
                "--hedge-budget",
                "0.2",
            ]))
            .unwrap(),
            Command::Route {
                addr: "127.0.0.1:7412".into(),
                backends: vec!["127.0.0.1:7411".into(), "127.0.0.1:7413".into()],
                spawn: 0,
                replication: 3,
                vnodes: 32,
                deadline_cap_ms: 5000,
                io_timeout_ms: 2500,
                probe_ms: 50,
                max_conns: 1000,
                pipeline: 16,
                retained_mb: 64,
                hedge_after_ms: 25,
                hedge_budget: 0.2,
            }
        );
        assert_eq!(
            parse_args(&strv(&["route", "--spawn", "3"])).unwrap(),
            Command::Route {
                addr: "127.0.0.1:7412".into(),
                backends: vec![],
                spawn: 3,
                replication: 2,
                vnodes: trisolv_router::Ring::DEFAULT_VNODES,
                deadline_cap_ms: 30_000,
                io_timeout_ms: 10_000,
                probe_ms: 100,
                max_conns: 0,
                pipeline: 64,
                retained_mb: 256,
                hedge_after_ms: 50,
                hedge_budget: 0.10,
            }
        );
        assert!(
            parse_args(&strv(&["route"])).is_err(),
            "route needs --backends or --spawn"
        );
        assert!(
            parse_args(&strv(&["route", "--backends", "a:1", "--spawn", "2"])).is_err(),
            "--backends and --spawn are mutually exclusive"
        );
        assert!(parse_args(&strv(&["route", "--spawn", "2", "--replication", "0"])).is_err());
        assert!(
            parse_args(&strv(&["route", "--spawn", "2", "--hedge-budget", "1.5"])).is_err(),
            "--hedge-budget must be a fraction"
        );
    }

    #[test]
    fn client_command_against_live_server() {
        let server = srv::Server::spawn(srv::ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            ..srv::ServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let out = run(&Command::Client {
            addr: addr.clone(),
            spec: Some("grid2d:12".into()),
            matrix: None,
            clients: 2,
            secs: 0.2,
            shutdown: true,
            timeout_ms: 0,
            retries: 3,
            backoff_ms: 50,
            idle_conns: 10,
            certify: true,
            stats: true,
        })
        .unwrap();
        assert!(out.contains("loaded grid2d:12"), "{out}");
        assert!(out.contains("idle:     10 extra connections"), "{out}");
        assert!(out.contains("requests:"), "{out}");
        assert!(out.contains("certify:  omega"), "{out}");
        assert!(out.contains("-> certified"), "{out}");
        assert!(out.contains("stat solves_ok = "), "{out}");
        assert!(out.contains("server shutdown acknowledged"), "{out}");
        // SHUTDOWN must actually have stopped the server
        server.wait();
        // a second client now fails to connect quickly
        assert!(srv::Client::connect(addr.as_str()).is_err());
    }

    #[test]
    fn gen_writes_loadable_matrix() {
        let dir = std::env::temp_dir().join("trisolv-cli-gen-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("gen.mtx");
        let msg = run(&Command::Gen {
            spec: "grid2d:8".into(),
            output: mtx.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(msg.contains("64 x 64"), "{msg}");
        let (a, _) = load_matrix(&mtx.to_string_lossy()).unwrap();
        assert_eq!(a, gen::grid2d_laplacian(8, 8));
        // Harwell-Boeing output path as well
        let rsa = dir.join("gen.rsa");
        run(&Command::Gen {
            spec: "random:40:5:3".into(),
            output: rsa.to_string_lossy().into_owned(),
        })
        .unwrap();
        let (b, _) = load_matrix(&rsa.to_string_lossy()).unwrap();
        assert_eq!(b.nrows(), 40);
        // bad specs surface as clean errors
        assert!(run(&Command::Gen {
            spec: "nosuch:4".into(),
            output: mtx.to_string_lossy().into_owned(),
        })
        .is_err());
    }

    #[test]
    fn info_solve_convert_round_trip() {
        let dir = std::env::temp_dir().join("trisolv-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        let rsa = dir.join("g.rsa");
        // write a test matrix in Matrix-Market form
        {
            let a = gen::grid2d_laplacian(8, 8);
            let mut f = std::io::BufWriter::new(File::create(&mtx).unwrap());
            mmio::write_matrix_market(&mut f, &a, mmio::Symmetry::Symmetric).unwrap();
        }
        let info = run(&Command::Info {
            path: mtx.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(info.contains("order:   64 x 64"), "{info}");
        // convert to Harwell-Boeing and solve from that
        run(&Command::Convert {
            input: mtx.to_string_lossy().into_owned(),
            output: rsa.to_string_lossy().into_owned(),
        })
        .unwrap();
        let solved = run(&Command::Solve {
            path: rsa.to_string_lossy().into_owned(),
            procs: 4,
            nrhs: 2,
            block: 2,
            ordering: "nd".into(),
            threads: 2,
            certify: false,
            regularize: false,
            scale: false,
            precision: "f64".into(),
        })
        .unwrap();
        assert!(solved.contains("residual:"), "{solved}");
        assert!(solved.contains("threaded: 2 threads"), "{solved}");
        assert!(
            !solved.contains("certify:"),
            "no certificate lines without the flags: {solved}"
        );
        // with the certify flags, the certificate lines appear
        let certified = run(&Command::Solve {
            path: rsa.to_string_lossy().into_owned(),
            procs: 4,
            nrhs: 2,
            block: 2,
            ordering: "nd".into(),
            threads: 2,
            certify: true,
            regularize: true,
            scale: true,
            precision: "f32".into(),
        })
        .unwrap();
        assert!(
            certified.contains("certify:") && certified.contains("certified"),
            "{certified}"
        );
        assert!(
            certified.contains("[f32 lane]"),
            "a well-conditioned grid must certify on the narrow lane: {certified}"
        );
        assert!(
            certified.contains("boosted pivots 0")
                && certified.contains("scaling ratio")
                && certified.contains("cond1 estimate"),
            "{certified}"
        );
        let treal = solved.lines().find(|l| l.starts_with("threaded")).unwrap();
        let tresid: f64 = treal.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(tresid < 1e-9, "{treal}");
        // the printed residual must be tiny
        let resid_line = solved.lines().find(|l| l.starts_with("residual")).unwrap();
        let val: f64 = resid_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(val < 1e-9, "{resid_line}");
    }

    #[test]
    fn unknown_ordering_rejected() {
        let a = gen::grid2d_laplacian(3, 3);
        assert!(ordering_perm("zigzag", &a).is_err());
        for name in ["nd", "multilevel", "mindeg", "rcm", "natural"] {
            assert_eq!(ordering_perm(name, &a).unwrap().len(), 9);
        }
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&Command::Info {
            path: "/nonexistent/m.rsa".into(),
        })
        .unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
