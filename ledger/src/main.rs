//! `ledger`: the repository's benchmark. Six workloads, six end-to-end
//! metrics a user of the system sees, and — from a separate traced run —
//! the per-layer numbers that explain them. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ledger diff BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]
//! ledger describe [RUN_SECONDS]
//! ```
//!
//! Everything runs at the program's shipped defaults; the benchmark
//! changes no knob of the program except where a workload is defined by
//! one (`serve_churn`'s cache budget, the traced run's `max_batch = 1`).

mod calib;
mod cpu;
mod diff;
mod inputs;
mod json;
mod ladder;
mod libwl;
mod metrics;
mod net;
mod sched;
mod served;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{
    Kind, Metric, Values, Workload, END_TO_END, OPEN_RATE, PER_LAYER, SAT_IN_FLIGHT, WORKLOADS,
};
use trace::Tracer;

/// Seconds one run measures unless `--seconds` says otherwise; also the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 10;
/// An open-loop stream whose sender woke later than this at its 95th
/// percentile measured the generator (or a stalled host), not the
/// program. One connection carries 100 KB frames whose write takes about
/// 0.3 ms, and 9 % of Poisson gaps at 250 requests a second are shorter
/// than that, so 0.3 to 0.9 ms is this generator's own p95; 2 ms is not.
const LATE_P95_MAX_MS: f64 = 2.0;

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    pub out: PathBuf,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// Warm-up before every measured phase: long enough for caches, lanes
/// and the allocator to settle, short next to the phase itself.
pub fn warm_up(seconds: f64) -> f64 {
    (0.15 * seconds).min(2.0)
}

/// Generator threads and connections a run may use: the core count, but
/// never fewer than the sender + receiver pair an open loop needs.
pub fn generator_limit() -> usize {
    cpu::nproc().max(2)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
         ledger diff BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]\n       \
         ledger describe [RUN_SECONDS]\nworkloads: {}",
        names.join(" ")
    )
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(DEFAULT_SECONDS),
        trace: false,
        out: PathBuf::from(".ledger_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                metrics::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => run_diff(&argv[1..]),
        Some("describe") => {
            let seconds = argv
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(DEFAULT_SECONDS);
            print!("{}", metrics::benchmark_json(seconds).pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_run_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(metrics::workload(name).expect("checked at parse"), &args),
            None => run_all(&args),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

fn run_diff(argv: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            files.push(a.as_str());
        }
    }
    let [base, new] = files[..] else {
        return Err(usage());
    };
    Ok(if diff::run(base, new, &bench)? {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Every workload in turn, each in a fresh process of this same binary:
/// exactly what a caller running them one by one gets, so that one
/// workload's allocations cannot show up in the next one's peak RSS.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut worst = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("run {}: {e}", w.name))?;
        if !status.success() {
            eprintln!(
                "ledger: workload {} did not produce a result ({status})",
                w.name
            );
            worst = ExitCode::from(1);
        }
    }
    Ok(worst)
}

fn run_one(w: &Workload, args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    eprintln!(
        "ledger: {} seed {} seconds {} trace {} ({} cores)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu::nproc()
    );
    let (outcome, declared) = if args.trace {
        (ladder::run_traced(w, args), PER_LAYER)
    } else {
        (run_untraced(w, args), END_TO_END)
    };
    // An invalid run reports no number at all: a wrong figure in a
    // results file is worse than a missing one.
    let outcome = outcome.map_err(|why| format!("workload {} invalid: {why}", w.name))?;
    emit(w, args, &outcome, declared)?;
    Ok(ExitCode::SUCCESS)
}

/// First line a tool prints, or `"unknown"` (the driver's checkout is no
/// git repository; a stripped container may have no `rustc` on its path).
fn tool_says(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Print `workload metric unit value` lines, append the full record to
/// `<out>/results.jsonl`, and print the result object as the last line.
fn emit(w: &Workload, args: &Args, outcome: &Outcome, declared: &[Metric]) -> Result<(), String> {
    for name in outcome.values.names() {
        if !declared.iter().any(|m| m.name == name) {
            return Err(format!(
                "internal: {name} was measured but is not in the catalogue"
            ));
        }
    }
    let mut metrics = Vec::new();
    for m in declared {
        let Some(value) = outcome.values.get(m.name) else {
            if ladder::NEEDS_PROC.contains(&m.name) {
                eprintln!("ledger: {} not measured on this platform", m.name);
                continue;
            }
            return Err(format!(
                "workload {} invalid: {} was not measured",
                w.name, m.name
            ));
        };
        if !value.is_finite() {
            return Err(format!(
                "workload {} invalid: {} is {value}",
                w.name, m.name
            ));
        }
        let samples = match outcome.values.samples(m.name) {
            0 => String::new(),
            n => format!(" n={n}"),
        };
        println!("{} {} {} {}{}", w.name, m.name, m.unit, value, samples);
        metrics.push((
            m.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    let result = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ];
    let mut record = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        (
            "rev",
            Json::Str(tool_says("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        ("nproc", Json::Num(cpu::nproc() as f64)),
        ("cpu", Json::Str(cpu::cpu_model())),
        ("rustc", Json::Str(tool_says("rustc", &["--version"]))),
    ];
    record.extend(result.clone());
    append_line(
        &args.out.join("results.jsonl"),
        &Json::obj(record).compact(),
    )?;
    println!("{}", Json::obj(result).compact());
    Ok(())
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Median and rate of a stream's latencies into `values`, or the reason
/// the stream cannot back a median (ten samples must lie beyond it).
fn latency_metrics(
    values: &mut Values,
    lat_ms: &[f64],
    ok: u64,
    wall_s: f64,
) -> Result<(), String> {
    if !stats::supports(lat_ms.len(), 50.0) {
        return Err(format!("{} samples cannot back p50_ms", lat_ms.len()));
    }
    values.set_n("p50_ms", stats::median(lat_ms), lat_ms.len());
    values.set_n("throughput_rps", ok as f64 / wall_s, ok as usize);
    Ok(())
}

/// Fail the run if its generator broke its own rules.
pub fn check_generator(stream: &net::StreamOut) -> Result<(), String> {
    let limit = generator_limit();
    if stream.threads > limit || stream.conns > limit {
        return Err(format!(
            "{} generator threads on {} connections exceed the limit of {limit}",
            stream.threads, stream.conns
        ));
    }
    if !stream.late_ms.is_empty() {
        let late = stats::percentile_of(&stream.late_ms, 95.0);
        if late > LATE_P95_MAX_MS {
            return Err(format!(
                "open-loop sender woke {late:.3} ms late at p95 (limit {LATE_P95_MAX_MS} ms)"
            ));
        }
    }
    Ok(())
}

/// The stream a served workload's kind defines, against a running stack:
/// `warm` seconds unreported, then `seconds` measured.
pub fn drive(
    w: &Workload,
    stack: &served::Stack,
    target: net::Target,
    seed: u64,
    (warm, seconds): (f64, f64),
    tracer: &Tracer,
) -> Result<served::ServedOut, String> {
    let stream = match w.kind {
        Kind::ServeOpen | Kind::RouteOpen => {
            let schedule = sched::poisson(OPEN_RATE, warm + seconds, seed);
            let stream = net::open_loop(target, &schedule, warm, tracer)?;
            // A host that stalls for tens of milliseconds makes the sender
            // late through no fault of the program's: repeat such a stream
            // once before calling the run invalid.
            match check_generator(&stream) {
                Ok(()) => stream,
                Err(why) => {
                    eprintln!("ledger: {why}; repeating the stream once");
                    net::open_loop(target, &schedule, warm, tracer)?
                }
            }
        }
        Kind::ServeSat => {
            let conns = cpu::nproc().min(2);
            let window = SAT_IN_FLIGHT / conns;
            net::closed_loop(target, conns, window, warm, seconds, tracer)?
        }
        Kind::ServeChurn => return served::churn(stack, seed, seconds, tracer),
        Kind::Lib => unreachable!("library workloads have no stack"),
    };
    Ok(served::ServedOut {
        stream,
        ..Default::default()
    })
}

fn run_untraced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(false);
    let (seed, seconds) = (args.seed, args.seconds);
    let warm = warm_up(seconds);
    let a = inputs::matrix(w.spec, seed);
    let mut values = Values::default();
    let (attempted, failed);
    if w.kind == Kind::Lib {
        const BUILDS: usize = 5;
        let mut secs = Vec::new();
        let mut built = None;
        for _ in 0..BUILDS {
            let t = std::time::Instant::now();
            built = Some(libwl::build(&a));
            secs.push(t.elapsed().as_secs_f64());
        }
        let built = built.expect("built five times");
        values.set_n("setup_s", stats::median(&secs), BUILDS);
        let b = inputs::rhs_block(a.ncols(), w.nrhs, seed);
        let out = libwl::run(&a, &built, &b, warm, seconds, &tracer);
        if out.mismatches > 0 {
            return Err(format!(
                "threaded solve differs from sequential in {} of the compared answers",
                out.mismatches
            ));
        }
        let solves = out.threaded_ms.len();
        latency_metrics(
            &mut values,
            &out.threaded_ms,
            solves as u64,
            out.threaded_wall_s,
        )?;
        values.set_n("seq_solve_ms", stats::median(&out.seq_ms), out.seq_ms.len());
        attempted = (solves + out.seq_ms.len()) as u64;
        failed = u64::from(!libwl::meets_target(out.omega));
    } else {
        let pool = inputs::rhs_pool(a.ncols(), inputs::POOL, seed);
        let seq = libwl::seq_baseline(&a, &pool[0], 0.1 * seconds);
        values.set_n("seq_solve_ms", stats::median(&seq), seq.len());
        let (stack, fp, setup_s, setups) = served::set_up_median(w.kind, &a);
        values.set_n("setup_s", setup_s, setups);
        let target = stack.target(fp, &pool);
        let out = drive(w, &stack, target, seed, (warm, seconds), &tracer);
        stack.stop();
        let out = out?;
        check_generator(&out.stream)?;
        let stream = &out.stream;
        latency_metrics(&mut values, &stream.lat_ms, stream.ok, stream.wall_s)?;
        attempted = stream.sent;
        failed = out.verdict(&a, &pool).1;
    }
    let rss = cpu::peak_rss_mb().ok_or("peak RSS is not measured on this platform")?;
    values.set("peak_rss_mb", rss);
    Ok(Outcome {
        values,
        attempted,
        failed,
    })
}
