//! Spans recorded by the benchmark itself around its calls into each
//! layer, kept in memory and written as `trace.jsonl` when the run ends.
//! Spans inside the program are a later change.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Index of the span that caused this one, or -1.
    pub parent: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread. A disabled tracer records nothing, so
/// the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished span and return its index, for children to name
    /// as their parent.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        parent: i64,
        start: Instant,
        end: Instant,
    ) -> i64 {
        if !self.enabled {
            return -1;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name,
            layer,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        spans.len() as i64 - 1
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .len()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let line = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer)),
                ("req", Json::Num(s.req as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

/// One rung of the depth ladder: the same request stream answered one
/// layer further out than the rung below.
pub struct Rung {
    pub depth: usize,
    pub layer: &'static str,
    pub median_ms: f64,
    pub samples: usize,
}

/// Each layer's self time: its rung's median minus the rung below (the
/// bottom rung keeps its own). By construction they sum to the top rung;
/// [`ladder_table`] asserts it so an edit that breaks the chain fails.
pub fn self_times(rungs: &[Rung]) -> Vec<f64> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, r)| r.median_ms - if i == 0 { 0.0 } else { rungs[i - 1].median_ms })
        .collect()
}

pub fn ladder_table(title: &str, rungs: &[Rung]) -> String {
    let selfs = self_times(rungs);
    let top = rungs.last().expect("a ladder has rungs").median_ms;
    let sum: f64 = selfs.iter().sum();
    assert!(
        (sum - top).abs() <= 1e-9 * top.abs().max(1.0),
        "ladder self times sum to {sum}, top rung is {top}"
    );
    let mut out = format!("depth ladder, {title}: self time = rung median − rung below\n");
    out += "  rung layer    median_ms    self_ms  share  samples\n";
    for (r, s) in rungs.iter().zip(&selfs) {
        out += &format!(
            "  D{}   {:8} {:10.4} {:10.4} {:5.1}% {:8}\n",
            r.depth,
            r.layer,
            r.median_ms,
            s,
            100.0 * s / top,
            r.samples
        );
    }
    out + &format!(
        "  sum of self times {sum:.4} ms = D{} median {top:.4} ms\n",
        rungs.len() - 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_self_times_sum_to_the_top_rung() {
        let rungs: Vec<Rung> = [0.61, 1.44, 2.23, 3.6, 4.4]
            .iter()
            .zip(["blas", "exec", "engine", "server", "router"])
            .enumerate()
            .map(|(depth, (&median_ms, layer))| Rung {
                depth,
                layer,
                median_ms,
                samples: 100,
            })
            .collect();
        let selfs = self_times(&rungs);
        assert_eq!(selfs[0], 0.61);
        assert!((selfs[3] - 1.37).abs() < 1e-12);
        assert!((selfs.iter().sum::<f64>() - 4.4).abs() < 1e-12);
        let table = ladder_table("grid2d:112", &rungs);
        assert!(table.contains("D4") && table.contains("router"), "{table}");
        // a rung faster than the one below it has a negative self time
        // and the chain still closes
        let dip = [
            Rung {
                depth: 0,
                layer: "blas",
                median_ms: 2.0,
                samples: 1,
            },
            Rung {
                depth: 1,
                layer: "exec",
                median_ms: 1.5,
                samples: 1,
            },
        ];
        assert_eq!(self_times(&dip), [2.0, -0.5]);
        ladder_table("dip", &dip);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let now = Instant::now();
        let off = Tracer::new(false);
        assert_eq!(off.record("a", "exec", 1, -1, now, now), -1);
        assert_eq!(off.len(), 0);
        let on = Tracer::new(true);
        let root = on.record("op", "client", 7, -1, now, now);
        assert_eq!(on.record("load", "engine", 7, root, now, now), 1);
        assert_eq!(on.len(), 2);
    }
}
