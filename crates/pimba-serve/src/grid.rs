//! The grid core shared by the traffic runner ([`crate::runner`]) and
//! `pimba-fleet`'s fleet runner: one memo type, [`GridMemo`], and the steps
//! every grid run takes — one simulator per system, one trace per
//! (scenario, rate), one SLO capacity search per (system, scenario), and the
//! cancellable, memoized cell loop. A runner supplies only its cell function,
//! its cell key and its record type.
//!
//! The memo keeps only what is costly to recompute: capacity searches and
//! whole cells. Traces are cheap, seeded draws and are regenerated on every
//! run; a cell key still folds its trace's bits, so a cell hit needs the
//! identical trace.
//!
//! Memo keys cover each artifact's complete input identity (see
//! [`pimba_system::memo`] for the purity contract). Execution knobs that
//! cannot change bits — thread counts — are deliberately excluded, so any run
//! warms the memo for any other.

use crate::traffic::{Scenario, Trace};
use pimba_models::config::ModelConfig;
use pimba_system::config::SystemConfig;
use pimba_system::memo::{Fingerprint, FingerprintBuilder, MemoStats, MemoStore};
use pimba_system::persist::MemoValue;
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{
    max_batch_within_slo, parallel_map, worker_threads, RunAborted, RunControl,
};
use rand::rngs::Pcg32;
use rand::Rng;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The batch cap of every SLO capacity search. It is folded into the
/// capacity memo key, so changing it turns persisted capacity entries cold.
pub const CAPACITY_SEARCH_CAP: usize = 512;

/// A grid cell record a [`GridMemo`] can persist.
pub trait GridRecord: MemoValue + Clone + Send + Sync {
    /// The memo's segment-file and `stats` name prefix (`"traffic"` or
    /// `"fleet"`): stores are named `{PREFIX}_{capacity,cells}`.
    const MEMO_PREFIX: &'static str;
}

/// The memo of one kind of grid evaluation — share one (behind an [`Arc`])
/// across every run that should reuse results. Two stores cover a grid
/// run's two costly steps: SLO capacity searches and whole cells. A warm cell
/// skips its simulation and returns bytes identical to a cold run.
#[derive(Debug)]
pub struct GridMemo<R> {
    /// Per-(system, scenario) SLO batch-capacity searches.
    max_batches: MemoStore<usize>,
    /// Fully evaluated grid cells.
    cells: MemoStore<R>,
}

// Manual impl: the derive would demand `R: Default`.
impl<R> Default for GridMemo<R> {
    fn default() -> Self {
        Self {
            max_batches: MemoStore::new(),
            cells: MemoStore::new(),
        }
    }
}

impl<R: GridRecord> GridMemo<R> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disk-backed memo rooted at `dir` (created if absent): each store
    /// appends to its own crash-safe segment file
    /// (`{prefix}_{capacity,cells}.seg` — see
    /// [`pimba_system::persist`]), and entries persisted by earlier processes
    /// are loaded up front, so repeated what-ifs across restarts are warm
    /// hits returning bit-identical records. Traffic and fleet memos can
    /// share `dir`: their prefixes differ. A `{prefix}_traces.seg` left by an
    /// older layout, which also stored traces, is never opened.
    pub fn persistent(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let [capacity, cells] = Self::segment_names();
        let path = |name: String| dir.join(format!("{name}.seg"));
        Ok(Self {
            max_batches: MemoStore::persistent(&path(capacity))?,
            cells: MemoStore::persistent(&path(cells))?,
        })
    }

    fn segment_names() -> [String; 2] {
        ["capacity", "cells"].map(|store| format!("{}_{store}", R::MEMO_PREFIX))
    }

    /// Forces persisted entries to stable storage (no-op for in-memory
    /// memos).
    pub fn sync(&self) -> std::io::Result<()> {
        self.max_batches.sync()?;
        self.cells.sync()
    }

    /// Entries loaded from disk at open, across both stores, not counting
    /// undecodable ones (0 for in-memory memos).
    pub fn loaded_entries(&self) -> usize {
        [self.max_batches.load_report(), self.cells.load_report()]
            .into_iter()
            .flatten()
            .map(|report| report.records - report.undecodable)
            .sum()
    }

    /// `(capacity, cells)` hit/miss counters.
    pub fn stats(&self) -> (MemoStats, MemoStats) {
        (self.max_batches.stats(), self.cells.stats())
    }

    /// Number of memoized grid cells.
    pub fn cells_stored(&self) -> usize {
        self.cells.len()
    }

    /// Every memoized cell fingerprint, sorted by `(hi, lo)` words (a
    /// deterministic enumeration order).
    pub fn cell_keys(&self) -> Vec<Fingerprint> {
        self.cells.keys()
    }

    /// The memoized record under exactly `key`, if any — the lookup behind
    /// the serving daemon's `query` verb. Counts as a hit/miss in
    /// [`GridMemo::stats`] like any other cell lookup.
    pub fn cell(&self, key: Fingerprint) -> Option<Arc<R>> {
        self.cells.get(key)
    }

    /// Per-store `(name, len_bytes)` of the backing segment files, in
    /// `capacity, cells` order (zero bytes for in-memory stores) — the sizes
    /// the daemon's `stats` verb reports.
    pub fn segment_stats(&self) -> [(String, u64); 2] {
        let [capacity, cells] = Self::segment_names();
        [
            (capacity, self.max_batches.len_bytes()),
            (cells, self.cells.len_bytes()),
        ]
    }
}

/// One simulator per system, shared by all of that system's cells and worker
/// threads.
pub fn grid_simulators(systems: &[SystemConfig]) -> Vec<ServingSimulator> {
    systems.iter().cloned().map(ServingSimulator::new).collect()
}

/// One trace per (scenario, rate), scenario-major, shared by every other grid
/// axis so that cells are compared under identical arrivals. Trace
/// `scn * rates + r` draws from stream `scn * rates + r` of `seed`. Always
/// generated: a trace is a cheap, seeded draw, so no memo keeps it.
pub fn grid_traces(
    scenarios: &[Scenario],
    rates_rps: &[f64],
    requests: usize,
    seed: u64,
) -> Vec<Arc<Trace>> {
    let mut traces = Vec::with_capacity(scenarios.len() * rates_rps.len());
    for (scn, scenario) in scenarios.iter().enumerate() {
        for (r, &rate) in rates_rps.iter().enumerate() {
            let stream = (scn * rates_rps.len() + r) as u64;
            let trace_seed = Pcg32::new_stream(seed, stream).next_u64();
            traces.push(Arc::new(scenario.generate(rate, requests, trace_seed)));
        }
    }
    traces
}

/// The anchor sequence length of a scenario's capacity search: its mean total
/// tokens per request, at least 1.
pub fn anchor_seq(scenario: &Scenario) -> usize {
    (scenario.mean_total_tokens() as usize).max(1)
}

/// The largest batch (up to [`CAPACITY_SEARCH_CAP`]) whose decode step on
/// `sim` holds `tpot_ms` at `anchor_seq` tokens; 1 when even batch 1 misses.
pub fn slo_capacity(
    sim: &ServingSimulator,
    model: &ModelConfig,
    anchor_seq: usize,
    tpot_ms: f64,
) -> usize {
    max_batch_within_slo(sim, model, anchor_seq, tpot_ms, CAPACITY_SEARCH_CAP).unwrap_or(1)
}

/// The memo key of one capacity search.
pub(crate) fn capacity_key(
    system: &SystemConfig,
    model: &ModelConfig,
    anchor_seq: usize,
    tpot_ms: f64,
) -> Fingerprint {
    FingerprintBuilder::new()
        .debug(system)
        .debug(model)
        .usize(anchor_seq)
        .f64(tpot_ms)
        .usize(CAPACITY_SEARCH_CAP)
        .finish()
}

/// The batch cap of every (system, scenario) pair, system-major: the
/// [`slo_capacity`] at the scenario's [`anchor_seq`]. Independent of the rate
/// axis, so it runs once per pair. `threads` 0 uses every core.
pub fn grid_capacities<R: GridRecord>(
    memo: Option<&GridMemo<R>>,
    sims: &[ServingSimulator],
    scenarios: &[Scenario],
    model: &ModelConfig,
    tpot_ms: f64,
    threads: usize,
) -> Vec<usize> {
    parallel_map(sims.len() * scenarios.len(), worker_threads(threads), |i| {
        let sim = &sims[i / scenarios.len()];
        let anchor = anchor_seq(&scenarios[i % scenarios.len()]);
        let search = || slo_capacity(sim, model, anchor, tpot_ms);
        match memo {
            Some(memo) => *memo
                .max_batches
                .get_or_insert_with(capacity_key(sim.config(), model, anchor, tpot_ms), search),
            None => search(),
        }
    })
}

/// Evaluates cells `0..total` over `threads` workers (0 = every core) and
/// returns their records in index order, bit-identical for any thread count.
///
/// Each cell is checked for cancellation before it starts; `cell(i)` then
/// builds its inputs. With a memo attached the record is looked up under
/// `key(&inputs)` — computed only then — and `eval(i, &inputs)` runs on a
/// miss only; without one `eval` always runs. Progress is reported after
/// every cell. A cancelled run returns [`RunAborted`]; cells that finished
/// before the flag went up stay in the memo (they are complete and correct).
pub fn run_cells<R: GridRecord, C>(
    memo: Option<&GridMemo<R>>,
    total: usize,
    threads: usize,
    control: &RunControl,
    cell: impl Fn(usize) -> C + Sync,
    key: impl Fn(&C) -> Fingerprint + Sync,
    eval: impl Fn(usize, &C) -> R + Sync,
) -> Result<Vec<R>, RunAborted> {
    let completed = AtomicUsize::new(0);
    let records: Vec<Option<R>> = parallel_map(total, worker_threads(threads), |i| {
        if control.cancelled() {
            return None;
        }
        let inputs = cell(i);
        let record = match memo {
            Some(memo) => (*memo
                .cells
                .get_or_insert_with(key(&inputs), || eval(i, &inputs)))
            .clone(),
            None => eval(i, &inputs),
        };
        control.report(completed.fetch_add(1, Ordering::Relaxed) + 1, total);
        Some(record)
    });
    records
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(RunAborted)
}
