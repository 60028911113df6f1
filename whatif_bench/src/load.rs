//! The untraced end-to-end run: daemon set-up, the timed closed-loop phase
//! and per-job outcome accounting.

use netline::Json;
use pimba_serviced::{Client, Daemon, DaemonConfig, ResultStore};
use std::io;
use std::time::Instant;

/// How one job ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Terminal `done` event: every record arrived.
    Done,
    /// The daemon refused the spec.
    Refused,
    /// Terminal `failed` event.
    Failed,
    /// Terminal `timed_out` event.
    TimedOut,
    /// Terminal `cancelled` event (nothing here cancels, so unexpected).
    Cancelled,
    /// The connection broke before a terminal event.
    IoError,
}

/// One job of the timed phase.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Index into the workload's job sequence.
    pub index: usize,
    /// How it ended.
    pub outcome: Outcome,
    /// Canonical record lines (empty unless `Done`).
    pub records: Vec<String>,
    /// Latency from submission to the terminal event, in seconds.
    pub latency_s: f64,
    /// Seconds from the previous job's terminal event (or the phase start)
    /// to this job's submission: how late the generator submitted it.
    pub lag_s: f64,
    /// When its terminal event arrived, in seconds from the phase start.
    pub end_s: f64,
}

/// The result of a timed phase.
#[derive(Debug)]
pub struct Phase {
    /// Every job attempted, in job order.
    pub jobs: Vec<JobRun>,
    /// Host seconds from the phase start to the last terminal event.
    pub wall_s: f64,
    /// CPU seconds the whole process (daemon and generator) spent meanwhile.
    pub cpu_s: f64,
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` (in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = stat.rsplit(')').next()?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Per-outcome job counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub attempted: usize,
    pub succeeded: usize,
    pub refused: usize,
    pub failed: usize,
    pub timed_out: usize,
    pub cancelled: usize,
    pub io_errors: usize,
}

impl Counts {
    pub fn of(jobs: &[JobRun]) -> Self {
        let mut c = Counts {
            attempted: jobs.len(),
            ..Counts::default()
        };
        for job in jobs {
            match job.outcome {
                Outcome::Done => c.succeeded += 1,
                Outcome::Refused => c.refused += 1,
                Outcome::Failed => c.failed += 1,
                Outcome::TimedOut => c.timed_out += 1,
                Outcome::Cancelled => c.cancelled += 1,
                Outcome::IoError => c.io_errors += 1,
            }
        }
        c
    }

    /// Jobs that did not complete.
    pub fn unsuccessful(&self) -> usize {
        self.attempted - self.succeeded
    }

    pub fn to_json(self) -> Json {
        let n = |v: usize| Json::Int(v as i64);
        Json::obj(vec![
            ("attempted", n(self.attempted)),
            ("succeeded", n(self.succeeded)),
            ("refused", n(self.refused)),
            ("failed", n(self.failed)),
            ("timed_out", n(self.timed_out)),
            ("cancelled", n(self.cancelled)),
            ("io_errors", n(self.io_errors)),
            (
                "error_rate",
                Json::Num(self.unsuccessful() as f64 / self.attempted.max(1) as f64),
            ),
        ])
    }
}

/// A running daemon with its load connection.
pub struct Served {
    pub daemon: Daemon,
    pub client: Client,
}

impl Served {
    /// Closes the connection, then drains and stops the daemon.
    pub fn stop(self) {
        drop(self.client);
        self.daemon.stop();
    }
}

/// Starts a daemon on loopback (default config) over `store` and connects a
/// client; returns once the daemon has answered a `stats` request.
pub fn start(store: ResultStore) -> io::Result<Served> {
    let daemon = Daemon::start(DaemonConfig::default(), store)?;
    let mut client = Client::connect(daemon.addr())?;
    client.stats()?;
    Ok(Served { daemon, client })
}

/// Submits `spec` and streams it to its terminal event.
fn run_job(client: &mut Client, spec: &Json) -> (Outcome, Vec<String>) {
    match client.run(spec, 0, None) {
        Ok(Ok(outcome)) => {
            let state = match outcome.state.as_str() {
                "done" => Outcome::Done,
                "failed" => Outcome::Failed,
                "timed_out" => Outcome::TimedOut,
                _ => Outcome::Cancelled,
            };
            let records = if state == Outcome::Done {
                outcome.records
            } else {
                Vec::new()
            };
            (state, records)
        }
        Ok(Err(_refusal)) => (Outcome::Refused, Vec::new()),
        Err(_) => (Outcome::IoError, Vec::new()),
    }
}

/// Closed loop on one connection: job `i + 1` is submitted when job `i`
/// ends, for `jobs` jobs.
pub fn closed_loop(served: &mut Served, spec_of: impl Fn(usize) -> Json, jobs: usize) -> Phase {
    let addr = served.daemon.addr();
    let client = &mut served.client;
    let (origin, cpu0) = (Instant::now(), process_cpu_s());
    let mut runs = Vec::with_capacity(jobs);
    let mut previous_end = origin;
    for index in 0..jobs {
        let spec = spec_of(index);
        let submitted = Instant::now();
        let (outcome, records) = run_job(client, &spec);
        let end = Instant::now();
        if outcome == Outcome::IoError {
            // A broken stream loses this job; later jobs get a new connection.
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
        }
        runs.push(JobRun {
            index,
            outcome,
            records,
            latency_s: (end - submitted).as_secs_f64(),
            lag_s: (submitted - previous_end).as_secs_f64(),
            end_s: (end - origin).as_secs_f64(),
        });
        previous_end = end;
    }
    Phase {
        jobs: runs,
        wall_s: origin.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Simulated requests a canonical record carries (`summary.completed`).
pub fn completed_requests(record: &str) -> usize {
    Json::parse(record)
        .ok()
        .and_then(|r| r.get("summary")?.get("completed")?.as_i64())
        .unwrap_or(0) as usize
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
