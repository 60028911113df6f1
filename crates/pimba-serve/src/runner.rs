//! The traffic sweep runner: (system × scenario × arrival-rate) grids evaluated
//! in parallel, with shared simulators and reproducible per-cell traces.
//!
//! Each grid point is a whole discrete-event simulation. The runner keeps only
//! its cell function, cell key and record; the rest — simulators, traces
//! generated once per (scenario, rate) from split PCG streams and shared by
//! every system, capacity searches, and the cancellable memoized cell loop —
//! is the [`crate::grid`] core it shares with `pimba-fleet`'s fleet runner.
//! Systems are compared under *identical* arrival sequences; records come
//! back in grid order and are bit-identical for any thread count.

use crate::engine::{AdmissionMode, Engine, EngineConfig};
use crate::grid::{grid_capacities, grid_simulators, grid_traces, run_cells, GridMemo, GridRecord};
use crate::metrics::{SloSpec, TenantSlos, TenantSummary, TrafficSummary};
use crate::sched::PolicyKind;
use crate::traffic::{Scenario, Trace};
use pimba_models::config::ModelConfig;
use pimba_system::config::SystemConfig;
use pimba_system::memo::{Fingerprint, FingerprintBuilder};
use pimba_system::obs::{profile_phase, TraceRecorder, TraceSink};
use pimba_system::sweep::{RunAborted, RunControl};
use std::sync::Arc;

/// Folds a trace's raw request bits into `builder` — the content identity of
/// the arrival stream, independent of how it was generated. The trace half of
/// every memoized grid-cell key (the other half fingerprints the cell's
/// config).
pub fn fold_trace(mut builder: FingerprintBuilder, trace: &Trace) -> FingerprintBuilder {
    builder = builder.usize(trace.requests.len());
    for r in &trace.requests {
        builder = builder
            .f64(r.arrival_ns)
            .usize(r.prompt_len)
            .usize(r.output_len)
            .u64(u64::from(r.tenant))
            .u64(u64::from(r.priority));
    }
    builder
}

/// The content address of a trace on its own.
pub fn trace_fingerprint(trace: &Trace) -> Fingerprint {
    fold_trace(FingerprintBuilder::new(), trace).finish()
}

/// The memo of traffic-grid evaluations (segment prefix `traffic`).
pub type TrafficMemo = GridMemo<TrafficRecord>;

impl GridRecord for TrafficRecord {
    const MEMO_PREFIX: &'static str = "traffic";
}

/// The cartesian (system × scenario × arrival-rate) grid of one traffic study.
#[derive(Debug, Clone)]
pub struct TrafficGrid {
    /// Serving systems under comparison.
    pub systems: Vec<SystemConfig>,
    /// Traffic scenarios.
    pub scenarios: Vec<Scenario>,
    /// Mean arrival rates in requests/second.
    pub rates_rps: Vec<f64>,
    /// The model every system serves.
    pub model: ModelConfig,
    /// Scheduling policy (one per grid; sweep policies by running several grids).
    pub policy: PolicyKind,
    /// Requests generated per (scenario, rate) trace.
    pub requests_per_cell: usize,
    /// Base seed; every (scenario, rate) trace derives its own PCG stream.
    pub seed: u64,
    /// The SLO defining goodput and attainment.
    pub slo: SloSpec,
    /// Per-tenant SLO overrides for the per-tenant record summaries; `None`
    /// holds every tenant to [`TrafficGrid::slo`].
    pub tenant_slos: Option<TenantSlos>,
    /// Per-replica device-memory budget; `None` uses each system's aggregate
    /// HBM capacity (see [`EngineConfig::capacity_bytes`]).
    pub capacity_bytes: Option<f64>,
    /// Admission-probe anchoring (see [`AdmissionMode`]; the default
    /// final-sequence mode reproduces the historical grids bit for bit).
    pub admission: AdmissionMode,
    /// Sequence-length bucket for step-latency lookups (see
    /// [`EngineConfig::seq_bucket`]).
    pub seq_bucket: usize,
    /// Macro-step fast-forwarding (see [`EngineConfig::fast_forward`]).
    /// Results are bit-identical either way; `false` forces the per-step
    /// oracle loop.
    pub fast_forward: bool,
    /// Timeline decimation (see [`EngineConfig::timeline_sample_every`]).
    pub timeline_sample_every: usize,
}

impl TrafficGrid {
    /// A grid serving `model` with no axes yet — chain the `with_*` builders;
    /// defaults: continuous batching, 200 requests/cell, seed 0xC0FFEE, the
    /// default chat SLO, exact (unbucketed) sequence lengths.
    pub fn new(model: ModelConfig) -> Self {
        Self {
            systems: Vec::new(),
            scenarios: Vec::new(),
            rates_rps: Vec::new(),
            model,
            policy: PolicyKind::Continuous,
            requests_per_cell: 200,
            seed: 0xC0FFEE,
            slo: SloSpec::default(),
            tenant_slos: None,
            capacity_bytes: None,
            admission: AdmissionMode::FinalSeqLen,
            seq_bucket: 1,
            fast_forward: true,
            timeline_sample_every: 1,
        }
    }

    /// Replaces the system axis.
    pub fn with_systems(mut self, systems: Vec<SystemConfig>) -> Self {
        self.systems = systems;
        self
    }

    /// Replaces the scenario axis.
    pub fn with_scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Replaces the arrival-rate axis.
    pub fn with_rates(mut self, rates_rps: Vec<f64>) -> Self {
        self.rates_rps = rates_rps;
        self
    }

    /// Selects the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-trace request count.
    pub fn with_requests_per_cell(mut self, n: usize) -> Self {
        self.requests_per_cell = n;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the SLO.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the sequence-length bucket for step-latency lookups (must be
    /// positive, matching [`EngineConfig::seq_bucket`]'s contract).
    pub fn with_seq_bucket(mut self, seq_bucket: usize) -> Self {
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        self.seq_bucket = seq_bucket;
        self
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.systems.len() * self.scenarios.len() * self.rates_rps.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (system, scenario, rate) index tuple of flat cell `i`, rate fastest.
    fn indices(&self, i: usize) -> (usize, usize, usize) {
        let r = i % self.rates_rps.len();
        let rest = i / self.rates_rps.len();
        (rest / self.scenarios.len(), rest % self.scenarios.len(), r)
    }
}

/// The evaluation of one traffic grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRecord {
    /// Index into [`TrafficGrid::systems`].
    pub system: usize,
    /// Index into [`TrafficGrid::scenarios`].
    pub scenario: usize,
    /// Mean arrival rate simulated, in requests/second.
    pub rate_rps: f64,
    /// The batch cap the engine ran with (from the SLO capacity search).
    pub max_batch: usize,
    /// Aggregate metrics under the grid's SLO.
    pub summary: TrafficSummary,
    /// Per-tenant metrics, ascending tenant order, each under its own SLO
    /// from [`TrafficGrid::tenant_slos`] (single-tenant cells get one entry).
    pub per_tenant: Vec<TenantSummary>,
    /// Checkpoint-restore counters of the cell (all zeros for preemption-free
    /// policies).
    pub preemption: crate::metrics::PreemptionStats,
}

/// Parallel evaluator of [`TrafficGrid`]s.
#[derive(Debug, Clone, Default)]
pub struct TrafficRunner {
    threads: usize,
    memo: Option<Arc<TrafficMemo>>,
    trace: Option<Arc<TraceRecorder>>,
}

impl TrafficRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a [`TrafficMemo`]: capacity searches and whole cells are
    /// looked up before simulating and stored after; traces are always
    /// regenerated. Re-running a grid
    /// against a warm memo returns records byte-identical to a cold run
    /// without stepping a single engine.
    pub fn with_memo(mut self, memo: Arc<TrafficMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Attaches a [`TraceRecorder`]: every *simulated* cell records its
    /// engine decisions into a track named `cell <index>` (see
    /// [`pimba_system::obs`]). Memo-warm cells skip the engine entirely and
    /// therefore record nothing. Records stay byte-identical with a recorder
    /// attached — tracing is write-only.
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Evaluates every cell and returns records in grid order (rate fastest,
    /// then scenario, then system). Deterministic for any thread count.
    pub fn run(&self, grid: &TrafficGrid) -> Vec<TrafficRecord> {
        self.run_controlled(grid, &RunControl::new())
            .expect("uncontrolled run cannot be cancelled")
    }

    /// [`TrafficRunner::run`] under a [`RunControl`]: per-cell progress
    /// callbacks and cooperative cell-granular cancellation (the serving
    /// daemon's entry point; see [`run_cells`]).
    pub fn run_controlled(
        &self,
        grid: &TrafficGrid,
        control: &RunControl,
    ) -> Result<Vec<TrafficRecord>, RunAborted> {
        let total = grid.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        if control.cancelled() {
            return Err(RunAborted);
        }
        let memo = self.memo.as_deref();
        let sims = grid_simulators(&grid.systems);
        let traces = grid_traces(
            &grid.scenarios,
            &grid.rates_rps,
            grid.requests_per_cell,
            grid.seed,
        );
        let max_batches = grid_capacities(
            memo,
            &sims,
            &grid.scenarios,
            &grid.model,
            grid.slo.tpot_ms,
            self.threads,
        );
        run_cells(
            memo,
            total,
            self.threads,
            control,
            |i| {
                let (sys, scn, r) = grid.indices(i);
                let engine_config = EngineConfig {
                    max_batch: max_batches[sys * grid.scenarios.len() + scn],
                    capacity_bytes: grid.capacity_bytes,
                    seq_bucket: grid.seq_bucket,
                    fast_forward: grid.fast_forward,
                    timeline_sample_every: grid.timeline_sample_every,
                    admission: grid.admission,
                    ..EngineConfig::default()
                };
                let trace = &traces[scn * grid.rates_rps.len() + r];
                (sys, scn, grid.rates_rps[r], engine_config, trace)
            },
            |&(sys, scn, rate_rps, engine_config, trace)| {
                // Everything the record is a function of; thread count and
                // latency caching are execution knobs and excluded.
                let builder = FingerprintBuilder::new()
                    .usize(sys)
                    .usize(scn)
                    .f64(rate_rps)
                    .debug(&grid.systems[sys])
                    .debug(&grid.model)
                    .debug(&grid.slo)
                    .debug(&grid.tenant_slos)
                    .debug(&grid.policy)
                    .debug(&engine_config);
                fold_trace(builder, trace).finish()
            },
            |i, &(sys, scn, rate_rps, engine_config, trace)| {
                let engine = Engine::new(&sims[sys], &grid.model, engine_config);
                let mut policy = grid.policy.build();
                let sink = match &self.trace {
                    Some(recorder) => recorder.track(&format!("cell {i}")),
                    None => TraceSink::disabled(),
                };
                let result = engine.run_traced(trace, policy.as_mut(), sink);
                {
                    let _export = profile_phase("metrics_export");
                    let cell = i.to_string();
                    result.export_metrics(control.metrics(), &[("cell", &cell)]);
                }
                let tenant_slos = grid
                    .tenant_slos
                    .clone()
                    .unwrap_or_else(|| TenantSlos::uniform(grid.slo));
                TrafficRecord {
                    system: sys,
                    scenario: scn,
                    rate_rps,
                    max_batch: engine_config.max_batch,
                    summary: result.summary(&grid.slo),
                    per_tenant: result.per_tenant_summaries(&tenant_slos),
                    preemption: result.preemption,
                }
            },
        )
    }
}

/// The SLO-attainment curve of one (system, scenario) pair: `(rate, attainment,
/// goodput)` triples in ascending rate order, extracted from grid records.
pub fn slo_curve(
    records: &[TrafficRecord],
    system: usize,
    scenario: usize,
) -> Vec<(f64, f64, f64)> {
    let mut curve: Vec<(f64, f64, f64)> = records
        .iter()
        .filter(|r| r.system == system && r.scenario == scenario)
        .map(|r| (r.rate_rps, r.summary.slo_attainment, r.summary.goodput_rps))
        .collect();
    curve.sort_by(|a, b| a.0.total_cmp(&b.0));
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TraceRequest;
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_system::config::SystemKind;
    use pimba_system::obs::MetricsHub;

    fn small_grid() -> TrafficGrid {
        TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
            .with_systems(vec![
                SystemConfig::small_scale(SystemKind::Gpu),
                SystemConfig::small_scale(SystemKind::Pimba),
            ])
            .with_scenarios(vec![Scenario::chat()])
            .with_rates(vec![4.0, 40.0])
            .with_requests_per_cell(40)
            .with_seq_bucket(32)
    }

    #[test]
    fn warm_memo_rerun_is_byte_identical_with_zero_simulations() {
        let grid = small_grid();
        let memo = Arc::new(TrafficMemo::new());
        let cold = TrafficRunner::new().with_memo(memo.clone()).run(&grid);
        let (batches, cells) = memo.stats();
        assert_eq!(cells.misses as usize, grid.len());
        let cold_batch_misses = batches.misses;

        let warm = TrafficRunner::new().with_memo(memo.clone()).run(&grid);
        assert_eq!(warm, cold, "warm records must be byte-identical");
        let (batches, cells) = memo.stats();
        assert_eq!(cells.hits as usize, grid.len(), "every cell from the store");
        assert_eq!(cells.misses as usize, grid.len(), "no warm recomputation");
        assert_eq!(batches.misses, cold_batch_misses, "no warm capacity search");

        // The memo is invisible in the results.
        assert_eq!(TrafficRunner::new().run(&grid), cold);
    }

    /// The trace half of every memo cell key, pinned as a literal: a store
    /// written by an earlier build only loads warm while this fold stays
    /// byte-for-byte the same.
    #[test]
    fn trace_fingerprint_of_a_fixed_trace_is_pinned() {
        let request = |arrival_ns, prompt_len, output_len, tenant, priority| TraceRequest {
            arrival_ns,
            prompt_len,
            output_len,
            tenant,
            priority,
        };
        let trace = Trace::from_requests(vec![
            request(0.0, 128, 64, 0, 0),
            request(1.5e6, 512, 1, 1, 2),
            request(2.25e7, 7, 300, 3, 0),
        ]);
        let (hi, lo) = trace_fingerprint(&trace).words();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "d156cbbd8a9c7df2289913406ce8d917"
        );
    }

    /// The capacity-memo key, pinned as a literal: persisted
    /// `*_capacity.seg` entries only load warm while this key (search cap
    /// included) stays byte-for-byte the same.
    #[test]
    fn capacity_memo_key_of_a_fixed_search_is_pinned() {
        let (hi, lo) = crate::grid::capacity_key(
            &SystemConfig::small_scale(SystemKind::Pimba),
            &ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
            1024,
            50.0,
        )
        .words();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "98c0a1d3acfbd722bc4ba29cdefc4a61"
        );
    }

    /// Cell workers report progress concurrently; the hub's gauges must still
    /// end every 2-thread run at `done == total`, run after run.
    #[test]
    fn progress_gauges_end_at_the_total_under_concurrent_workers() {
        let grid = small_grid().with_rates(vec![2.0, 4.0, 8.0, 16.0, 32.0, 40.0]);
        let total = grid.len() as f64;
        for _ in 0..8 {
            let hub = MetricsHub::new();
            TrafficRunner::new()
                .with_threads(2)
                .run_controlled(&grid, &RunControl::new().with_metrics(hub.clone()))
                .expect("no cancel flag");
            let json = hub.to_json();
            for gauge in ["run_progress_cells_done", "run_progress_cells_total"] {
                let reading =
                    format!(r#""name":"{gauge}","labels":[],"kind":"gauge","value":{total:?}"#);
                assert!(json.contains(&reading), "{gauge} != {total} in {json}");
            }
        }
    }

    #[test]
    fn records_come_back_in_grid_order_with_all_requests_served() {
        let grid = small_grid();
        let records = TrafficRunner::new().with_threads(3).run(&grid);
        assert_eq!(records.len(), grid.len());
        for (i, rec) in records.iter().enumerate() {
            let (sys, scn, r) = grid.indices(i);
            assert_eq!((rec.system, rec.scenario), (sys, scn));
            assert_eq!(rec.rate_rps, grid.rates_rps[r]);
            assert_eq!(rec.summary.completed, grid.requests_per_cell);
            assert!(rec.summary.ttft_ms.p50 > 0.0);
            assert!(rec.summary.e2e_ms.p99 >= rec.summary.e2e_ms.p50);
        }
    }

    #[test]
    fn higher_rate_never_improves_latency() {
        let grid = small_grid();
        let records = TrafficRunner::new().run(&grid);
        for sys in 0..grid.systems.len() {
            let curve = slo_curve(&records, sys, 0);
            assert_eq!(curve.len(), 2);
            let low = records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 4.0);
            let high = records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 40.0);
            let (low, high) = (low.unwrap(), high.unwrap());
            assert!(high.summary.e2e_ms.p99 >= low.summary.e2e_ms.p99);
        }
    }

    #[test]
    fn pimba_sustains_at_least_the_gpu_goodput() {
        let grid = small_grid();
        let records = TrafficRunner::new().run(&grid);
        // At the saturating rate, the PIM-offloaded system must hold at least
        // the GPU baseline's goodput (its decode steps are strictly faster).
        let goodput = |sys: usize| {
            records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 40.0)
                .unwrap()
                .summary
                .goodput_rps
        };
        assert!(goodput(1) >= goodput(0), "pimba goodput under gpu goodput");
    }

    #[test]
    fn empty_grid_is_empty_result() {
        let grid = small_grid().with_rates(Vec::new());
        assert!(grid.is_empty());
        assert!(TrafficRunner::new().run(&grid).is_empty());
    }
}
