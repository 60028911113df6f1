//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self-time breakdown derived from them.
//!
//! A span's *self time* is its duration minus its children's durations
//! (children run sequentially inside their parent). A root span covers one
//! replayed job; its self time is the job time no layer span covers, reported
//! as `unattributed`. Span names are `<layer>.<call>`; a layer's self time is
//! the sum over its spans.

use netline::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// The span recorder. When off, [`Tracer::span`] still times its closure (the
/// metrics need the durations) but records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` of `job`; returns `f`'s value and the
    /// span's duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        if !self.on {
            let value = f(self);
            return (value, self.now_ns() - start_ns);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (value, end_ns - start_ns)
    }

    /// Self-time breakdown of every root span named `root`: total job time,
    /// per-layer self time, and the roots' own (unattributed) time.
    pub fn breakdown(&self, root: &str) -> Breakdown {
        let mut children = vec![0u64; self.spans.len()];
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            root_of[i] = span.parent.map_or(i, |p| root_of[p]);
            if let Some(p) = span.parent {
                children[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = Breakdown::default();
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            let own = (span.end_ns - span.start_ns) - children[i];
            if span.parent.is_none() {
                out.jobs += 1;
                out.job_ns += span.end_ns - span.start_ns;
                out.unattributed_ns += own;
            } else {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *out.layers.entry(layer).or_default() += own;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Int(id as i64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("job", Json::Int(s.job as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Where the job time of one workload's replayed jobs went.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub jobs: usize,
    pub job_ns: u64,
    pub layers: BTreeMap<&'static str, u64>,
    pub unattributed_ns: u64,
}

impl Breakdown {
    /// Layer self times plus unattributed time minus job time: zero when the
    /// spans nest properly.
    pub fn residual_ns(&self) -> i64 {
        self.layers.values().sum::<u64>() as i64 + self.unattributed_ns as i64 - self.job_ns as i64
    }

    pub fn to_json(&self) -> Json {
        let share = |ns: u64| Json::Num(ns as f64 / self.job_ns.max(1) as f64);
        let mut layers: Vec<(&str, Json)> = self
            .layers
            .iter()
            .map(|(name, &ns)| {
                (
                    *name,
                    Json::obj(vec![
                        ("self_ns", Json::Int(ns as i64)),
                        ("share", share(ns)),
                    ]),
                )
            })
            .collect();
        layers.push((
            "unattributed",
            Json::obj(vec![
                ("self_ns", Json::Int(self.unattributed_ns as i64)),
                ("share", share(self.unattributed_ns)),
            ]),
        ));
        Json::obj(vec![
            ("jobs", Json::Int(self.jobs as i64)),
            ("job_ns", Json::Int(self.job_ns as i64)),
            ("layers", Json::obj(layers)),
            ("residual_ns", Json::Int(self.residual_ns())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_and_unattributed_sum_to_job_time() {
        let mut tr = Tracer::new(true);
        for job in 0..3 {
            tr.span("cold_traffic", job, |t| {
                t.span("engine.run", job, |t| {
                    t.span("table.fill", job, |_| std::hint::black_box(job * 2));
                });
                t.span("spec.render", job, |_| ());
            });
        }
        tr.span("probe.runner", 0, |t| t.span("engine.run", 0, |_| ()));
        let b = tr.breakdown("cold_traffic");
        assert_eq!(b.jobs, 3);
        assert_eq!(b.residual_ns(), 0);
        assert_eq!(
            b.layers.keys().copied().collect::<Vec<_>>(),
            ["engine", "spec", "table"]
        );
        assert_eq!(tr.breakdown("probe.runner").jobs, 1);
    }

    #[test]
    fn an_off_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (value, ns) = tr.span("cold_traffic", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(value, 7);
        assert!(ns >= 1_000_000);
        assert_eq!(tr.breakdown("cold_traffic").jobs, 0);
    }
}
