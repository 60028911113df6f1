//! The traced pass: a single-threaded replay of a sample of every
//! workload's jobs, calling each layer's public functions directly.
//!
//! Each sampled job is rebuilt *layer by layer* under a root span named
//! after its workload: trace generation (`traffic`), SLO capacity search
//! (`sweep`), `Engine::run` (`engine`) or `FleetSim::run` (`cluster`),
//! record summaries (`metrics`), canonical rendering (`spec`), and — for the
//! warm mix — the warm-memo runner call (`memo`) and segment appends and
//! syncs (`persist`). Differential probes run beside the job roots under
//! `probe.*` roots: the direct runner call (`runner`), the daemon round trip
//! (`serviced`), the per-replica engines of each fleet cell, and the dense
//! latency table and step function at the job's shapes (`table`, `serving`).
//! `warm_whatif_mix` is replayed here only; it has no timed phase.
//!
//! Every replayed job's records must be byte-identical across the daemon
//! round trip, the direct runner call and the layered rebuild (and the timed
//! phase's records of the same job, when the run's workload is replayed).

use crate::load::median;
use crate::trace::Tracer;
use crate::workload::{self, Workload, WARM_MIX};
use crate::{copy_store, metric};
use netline::{Json, LineConn};
use pimba_fleet::cluster::{FleetConfig, FleetSim};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRecord, FleetRunner};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::TenantSlos;
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::traffic::Trace;
use pimba_serviced::spec::{render_fleet_record, render_traffic_record, Experiment};
use pimba_serviced::{Client, Daemon, DaemonConfig, ResultStore};
use pimba_system::cache::LatencyCache;
use pimba_system::memo::{FingerprintBuilder, MemoStore};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{max_batch_within_slo, RunControl};
use pimba_system::table::StepLatencyTable;
use rand::rngs::Pcg32;
use rand::Rng;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Sampled `cold_traffic` jobs (the workload's first jobs).
const TRAFFIC_SAMPLE: usize = 6;
/// Sampled `cold_fleet` jobs.
const FLEET_SAMPLE: usize = 3;
/// Sampled `warm_whatif_mix` reads and fresh cells (the sequence's first).
const WARM_READS: usize = 40;
const WARM_FRESH: usize = 8;
/// Batch sizes the table and step-function probes visit per cell.
const PROBE_BATCHES: usize = 16;
/// Daemon-store reopens timed per traced pass.
const REOPENS: usize = 5;
/// Inserts per fresh cell in the append probe.
const APPEND_REPS: usize = 16;

/// What the traced pass hands back to `main`.
pub struct Pass {
    pub metrics: Vec<(&'static str, Json)>,
    pub mismatches: Vec<String>,
    pub breakdowns: Json,
    pub tracer: Tracer,
}

/// The canonical records of a direct single-threaded runner call on `spec`,
/// with no memo.
pub fn direct_records(spec: &Json) -> Result<Vec<String>, String> {
    match Experiment::from_json(spec).map_err(|e| e.to_string())? {
        Experiment::Traffic(grid) => Ok(TrafficRunner::new()
            .with_threads(1)
            .run(&grid)
            .iter()
            .map(render_traffic_record)
            .collect()),
        Experiment::Fleet(grid) => Ok(FleetRunner::new()
            .with_threads(1)
            .run(&grid)
            .iter()
            .map(render_fleet_record)
            .collect()),
        Experiment::Capacity(_) => Err("capacity specs are not replayed".into()),
    }
}

fn traffic_grid(spec: &Json) -> TrafficGrid {
    match Experiment::from_json(spec) {
        Ok(Experiment::Traffic(grid)) => grid,
        other => panic!("generated spec is not a traffic grid: {other:?}"),
    }
}

fn fleet_grid(spec: &Json) -> FleetGrid {
    match Experiment::from_json(spec) {
        Ok(Experiment::Fleet(grid)) => grid,
        other => panic!("generated spec is not a fleet grid: {other:?}"),
    }
}

/// Work counters and layer times of layered rebuilds.
#[derive(Debug, Default)]
struct Sums {
    gen_ns: u64,
    gen_requests: usize,
    capacity_ns: u64,
    capacity_calls: usize,
    engine_ns: u64,
    engine_events: u64,
    cache_lookups: u64,
    cache_hits: u64,
    cluster_ns: u64,
    cluster_events: u64,
    cluster_arrivals: usize,
}

/// One simulated traffic cell of a rebuild: what the probes need.
struct TrafficCell {
    system: usize,
    max_batch: usize,
    max_seq: usize,
    trace: Arc<Trace>,
    record: TrafficRecord,
}

/// One simulated fleet cell of a rebuild.
struct FleetCell {
    system: usize,
    config: FleetConfig,
    trace: Arc<Trace>,
}

/// The per-(scenario, rate) traces of a grid, drawn exactly as the runners
/// draw them.
fn generate_traces(
    tr: &mut Tracer,
    job: u64,
    scenarios: &[pimba_serve::traffic::Scenario],
    rates: &[f64],
    requests: usize,
    seed: u64,
    sums: &mut Sums,
) -> Vec<Arc<Trace>> {
    let mut traces = Vec::new();
    for (scn, scenario) in scenarios.iter().enumerate() {
        for (r, &rate) in rates.iter().enumerate() {
            let stream = (scn * rates.len() + r) as u64;
            let trace_seed = Pcg32::new_stream(seed, stream).next_u64();
            let (trace, ns) = tr.span("traffic.generate", job, |_| {
                scenario.generate(rate, requests, trace_seed)
            });
            sums.gen_ns += ns;
            sums.gen_requests += trace.len();
            traces.push(Arc::new(trace));
        }
    }
    traces
}

/// Per-(system, scenario) SLO capacity searches, as the runners run them.
fn capacity_searches(
    tr: &mut Tracer,
    job: u64,
    sims: &[ServingSimulator],
    scenarios: &[pimba_serve::traffic::Scenario],
    model: &pimba_models::ModelConfig,
    tpot_ms: f64,
    sums: &mut Sums,
) -> Vec<usize> {
    let mut out = Vec::new();
    for sim in sims {
        for scenario in scenarios {
            let anchor_seq = (scenario.mean_total_tokens() as usize).max(1);
            let (max_batch, ns) = tr.span("sweep.capacity_search", job, |_| {
                max_batch_within_slo(sim, model, anchor_seq, tpot_ms, 512).unwrap_or(1)
            });
            sums.capacity_ns += ns;
            sums.capacity_calls += 1;
            out.push(max_batch);
        }
    }
    out
}

fn cached_sims(systems: &[pimba_system::SystemConfig]) -> Vec<ServingSimulator> {
    systems
        .iter()
        .map(|c| ServingSimulator::with_cache(c.clone(), Arc::new(LatencyCache::new())))
        .collect()
}

/// Rebuilds a traffic grid's records from its layers.
fn rebuild_traffic(
    tr: &mut Tracer,
    job: u64,
    grid: &TrafficGrid,
    sums: &mut Sums,
) -> (Vec<String>, Vec<TrafficCell>) {
    let sims = cached_sims(&grid.systems);
    let traces = generate_traces(
        tr,
        job,
        &grid.scenarios,
        &grid.rates_rps,
        grid.requests_per_cell,
        grid.seed,
        sums,
    );
    let max_batches = capacity_searches(
        tr,
        job,
        &sims,
        &grid.scenarios,
        &grid.model,
        grid.slo.tpot_ms,
        sums,
    );
    let tenant_slos = grid
        .tenant_slos
        .clone()
        .unwrap_or_else(|| TenantSlos::uniform(grid.slo));
    let (rates, scenarios) = (grid.rates_rps.len(), grid.scenarios.len());
    let mut lines = Vec::new();
    let mut cells = Vec::new();
    // Grid order: rate fastest, then scenario, then system.
    for i in 0..grid.len() {
        let (sys, scn, r) = ((i / rates) / scenarios, (i / rates) % scenarios, i % rates);
        let trace = &traces[scn * rates + r];
        let max_batch = max_batches[sys * scenarios + scn];
        let config = EngineConfig {
            max_batch,
            capacity_bytes: grid.capacity_bytes,
            seq_bucket: grid.seq_bucket,
            fast_forward: grid.fast_forward,
            timeline_sample_every: grid.timeline_sample_every,
            admission: grid.admission,
            ..EngineConfig::default()
        };
        let (result, ns) = tr.span("engine.run", job, |_| {
            Engine::new(&sims[sys], &grid.model, config).run(trace, grid.policy.build().as_mut())
        });
        sums.engine_ns += ns;
        sums.engine_events += result.events();
        let (record, _) = tr.span("metrics.summary", job, |_| TrafficRecord {
            system: sys,
            scenario: scn,
            rate_rps: grid.rates_rps[r],
            max_batch,
            summary: result.summary(&grid.slo),
            per_tenant: result.per_tenant_summaries(&tenant_slos),
            preemption: result.preemption,
        });
        let (line, _) = tr.span("spec.render", job, |_| render_traffic_record(&record));
        lines.push(line);
        cells.push(TrafficCell {
            system: sys,
            max_batch,
            max_seq: trace
                .requests
                .iter()
                .map(|q| q.prompt_len + q.output_len)
                .max()
                .unwrap_or(1),
            trace: Arc::clone(trace),
            record,
        });
    }
    for sim in &sims {
        let cache = sim.cache().expect("cached simulator");
        for stats in [cache.op_stats(), cache.workload_stats()] {
            sums.cache_lookups += stats.hits + stats.misses;
            sums.cache_hits += stats.hits;
        }
    }
    (lines, cells)
}

/// Rebuilds a fleet grid's records from its layers.
fn rebuild_fleet(
    tr: &mut Tracer,
    job: u64,
    grid: &FleetGrid,
    sums: &mut Sums,
) -> (Vec<String>, Vec<FleetCell>) {
    let sims = cached_sims(&grid.systems);
    let traces = generate_traces(
        tr,
        job,
        &grid.scenarios,
        &grid.rates_rps,
        grid.requests_per_cell,
        grid.seed,
        sums,
    );
    let max_batches = match grid.max_batch {
        Some(max_batch) => vec![max_batch; grid.systems.len() * grid.scenarios.len()],
        None => capacity_searches(
            tr,
            job,
            &sims,
            &grid.scenarios,
            &grid.model,
            grid.slo.tpot_ms,
            sums,
        ),
    };
    let tenant_slos = grid
        .tenant_slos
        .clone()
        .unwrap_or_else(|| TenantSlos::uniform(grid.slo));
    let mut lines = Vec::new();
    let mut cells = Vec::new();
    for i in 0..grid.len() {
        let (sys, scn, rate, reps, router) = grid.indices(i);
        let config = FleetConfig {
            mode: grid.mode.mode_for(grid.replica_counts[reps]),
            router: grid.routers[router],
            policy: grid.policy,
            engine: EngineConfig {
                max_batch: max_batches[sys * grid.scenarios.len() + scn],
                capacity_bytes: None,
                seq_bucket: grid.seq_bucket,
                fast_forward: grid.fast_forward,
                timeline_sample_every: grid.timeline_sample_every,
                ..EngineConfig::default()
            },
            seed: Pcg32::new_stream(grid.seed, 0x7007 + i as u64).next_u64(),
            workers: 0,
            speculation: true,
        };
        let trace = &traces[scn * grid.rates_rps.len() + rate];
        let (result, ns) = tr.span("cluster.run", job, |_| {
            FleetSim::new(&sims[sys], &grid.model).run(trace, &config)
        });
        sums.cluster_ns += ns;
        sums.cluster_events += result.events();
        sums.cluster_arrivals += trace.len();
        let (record, _) = tr.span("metrics.summary", job, |_| FleetRecord {
            system: sys,
            scenario: scn,
            rate_rps: grid.rates_rps[rate],
            replicas: config.mode.replicas(),
            router: config.router,
            max_batch: config.engine.max_batch,
            summary: result.summary(&grid.slo),
            goodput_per_replica: result.goodput_per_replica(&grid.slo),
            per_replica_completed: result.per_replica_completed(),
            per_tenant: result.per_tenant_summary(&tenant_slos),
            fault: result.fault,
        });
        let (line, _) = tr.span("spec.render", job, |_| render_fleet_record(&record));
        lines.push(line);
        cells.push(FleetCell {
            system: sys,
            config,
            trace: Arc::clone(trace),
        });
    }
    (lines, cells)
}

/// Rebuilds a job once untraced (on `off`) and once traced (on `tr`),
/// alternating which goes first by job parity so warm-up favours neither;
/// only the untraced rebuild's counters go to `sums`. Returns the untraced
/// value and time, then the traced ones.
fn twice<T>(
    off: &mut Tracer,
    tr: &mut Tracer,
    root: &'static str,
    job: u64,
    sums: &mut Sums,
    mut rebuild: impl FnMut(&mut Tracer, &mut Sums) -> T,
) -> ((T, u64), (T, u64)) {
    let mut discarded = Sums::default();
    if job.is_multiple_of(2) {
        let plain = off.span(root, job, |t| rebuild(t, sums));
        (plain, tr.span(root, job, |t| rebuild(t, &mut discarded)))
    } else {
        let traced = tr.span(root, job, |t| rebuild(t, &mut discarded));
        (off.span(root, job, |t| rebuild(t, sums)), traced)
    }
}

/// One daemon round trip over a raw connection: the records, the bytes on
/// the wire both ways, and the host time from submit to the terminal event.
fn round_trip(addr: SocketAddr, spec: &Json) -> Result<(Vec<String>, usize, u64), String> {
    let io = |e: std::io::Error| format!("daemon round trip: {e}");
    let mut conn = LineConn::connect(addr).map_err(io)?;
    let request = Json::obj(vec![
        ("cmd", Json::str("submit")),
        ("priority", Json::Int(0)),
        ("spec", spec.clone()),
    ])
    .render();
    let t0 = Instant::now();
    conn.write_line(&request).map_err(io)?;
    let mut bytes = request.len() + 1;
    let mut records = Vec::new();
    loop {
        let line = conn
            .read_line()
            .map_err(io)?
            .ok_or("daemon closed the connection")?;
        bytes += line.len() + 1;
        let event = Json::parse(&line).map_err(|e| format!("bad event line: {e}"))?;
        match event.get("event").and_then(Json::as_str) {
            Some("accepted" | "progress") => {}
            Some("record") => {
                records.push(event.get("data").ok_or("record without data")?.render())
            }
            Some("done") => return Ok((records, bytes, t0.elapsed().as_nanos() as u64)),
            other => return Err(format!("job ended with {other:?}: {line}")),
        }
    }
}

/// The daemon's traffic-cell hit rate, from its `stats` verb.
fn cell_hit_rate(addr: SocketAddr) -> Result<f64, String> {
    let stats = Client::connect(addr)
        .and_then(|mut client| client.stats())
        .map_err(|e| format!("daemon stats: {e}"))?;
    let cells = stats
        .get("store")
        .and_then(|s| s.get("traffic"))
        .and_then(|t| t.get("cells"))
        .ok_or("stats without store.traffic.cells")?;
    let count = |k: &str| cells.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
    Ok(count("hits") / (count("hits") + count("misses")).max(1.0))
}

/// Collects record mismatches between the sources of one job.
struct Checker<'a> {
    served: &'a dyn Fn(usize) -> Option<Vec<String>>,
    run_workload: Workload,
    mismatches: Vec<String>,
}

impl Checker<'_> {
    fn check(
        &mut self,
        workload: &str,
        index: usize,
        expected: &[String],
        others: &[(&str, &[String])],
    ) {
        let mut sources: Vec<(&str, Vec<String>)> =
            others.iter().map(|(n, r)| (*n, r.to_vec())).collect();
        if workload == self.run_workload.name() {
            if let Some(served) = (self.served)(index) {
                sources.push(("timed phase", served));
            }
        }
        for (name, records) in sources {
            if records != expected {
                self.mismatches.push(format!(
                    "{workload} job {index}: {name} records differ from the direct runner call"
                ));
            }
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(f64::MIN_POSITIVE)
}

/// Runs the traced pass. `served` returns the timed phase's records of job
/// `index` of `run_workload`; `pool` holds the warm mix's pre-seeded store.
pub fn traced_pass(
    seed: u64,
    run_workload: Workload,
    served: &dyn Fn(usize) -> Option<Vec<String>>,
    pool: &Path,
    work: &Path,
) -> Result<Pass, String> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut checker = Checker {
        served,
        run_workload,
        mismatches: Vec::new(),
    };
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut metrics: Vec<(&'static str, Json)> = Vec::new();

    // Cold daemon for the round trips of both cold workloads.
    let cold = Daemon::start(DaemonConfig::default(), ResultStore::in_memory())
        .map_err(|e| format!("replay daemon: {e}"))?;
    let (mut runner_ns, mut replayed_ns) = (0u64, 0u64);

    // cold_traffic: layered rebuild, direct runner, daemon round trip, and
    // the dense-table and step-function probes at each cell's shapes.
    let w = Workload::ColdTraffic;
    let mut sums = Sums::default();
    let (mut table_fill_ns, mut table_lookup_ns, mut table_entries) = (0u64, 0u64, 0usize);
    let (mut step_eval_ns, mut step_evals) = (0u64, 0usize);
    for index in 0..TRAFFIC_SAMPLE {
        let spec = workload::cold_traffic_spec(seed, index);
        let grid = traffic_grid(&spec);
        let job = index as u64;
        let (((plain, _), plain_ns), ((lines, cells), ns)) =
            twice(&mut off, &mut tr, w.name(), job, &mut sums, |t, s| {
                rebuild_traffic(t, job, &grid, s)
            });
        untraced_ns += plain_ns;
        traced_ns += ns;
        let (direct, direct_ns) = tr.span("probe.runner", job, |_| direct_records(&spec));
        let direct = direct?;
        runner_ns += direct_ns;
        replayed_ns += plain_ns;
        let (daemon, _) = tr.span("probe.serviced", job, |_| round_trip(cold.addr(), &spec));
        let (daemon, _, _) = daemon?;
        checker.check(
            w.name(),
            index,
            &direct,
            &[
                ("layered rebuild", &lines[..]),
                ("untraced rebuild", &plain[..]),
                ("daemon", &daemon[..]),
            ],
        );

        for cell in &cells {
            let sim = ServingSimulator::uncached(grid.systems[cell.system].clone());
            let bucket = grid.seq_bucket;
            let seqs: Vec<usize> = (1..=cell.max_seq.div_ceil(bucket))
                .map(|k| k * bucket)
                .collect();
            let mut batches: Vec<usize> = (0..PROBE_BATCHES)
                .map(|k| 1 + k * (cell.max_batch - 1) / (PROBE_BATCHES - 1))
                .collect();
            batches.dedup();
            tr.span("probe.table", job, |t| {
                let mut table =
                    StepLatencyTable::new(&sim, &grid.model, bucket, cell.max_batch, cell.max_seq);
                let mut pass = |t: &mut Tracer, name: &'static str| {
                    t.span(name, job, |_| {
                        for &b in &batches {
                            for &s in &seqs {
                                black_box(table.step_ns(b, s));
                            }
                        }
                    })
                    .1
                };
                table_fill_ns += pass(t, "table.fill");
                table_lookup_ns += pass(t, "table.lookup");
            });
            table_entries += batches.len() * seqs.len();
            tr.span("probe.serving", job, |t| {
                for &b in &batches {
                    let step = sim.step_function(&grid.model, b);
                    step_eval_ns += t
                        .span("serving.step_eval", job, |_| {
                            for &s in &seqs {
                                black_box(step.total_ns(s));
                            }
                        })
                        .1;
                }
            });
            step_evals += batches.len() * seqs.len();
        }
    }
    let traffic_breakdown = tr.breakdown(w.name());
    let engine_self = traffic_breakdown.layers.get("engine").copied().unwrap_or(0);
    metrics.extend([
        (
            "serving.step_eval_ns",
            metric(ratio(step_eval_ns as f64, step_evals as f64), "ns"),
        ),
        (
            "table.fill_ns",
            metric(ratio(table_fill_ns as f64, table_entries as f64), "ns"),
        ),
        (
            "table.lookup_ns",
            metric(ratio(table_lookup_ns as f64, table_entries as f64), "ns"),
        ),
        ("table.entries", metric(table_entries as f64, "count")),
        ("cache.lookups", metric(sums.cache_lookups as f64, "count")),
        (
            "cache.hit_rate",
            metric(
                ratio(sums.cache_hits as f64, sums.cache_lookups as f64),
                "ratio",
            ),
        ),
        (
            "traffic.gen_ns_per_request",
            metric(ratio(sums.gen_ns as f64, sums.gen_requests as f64), "ns"),
        ),
        (
            "sweep.capacity_search_us",
            metric(
                ratio(sums.capacity_ns as f64, sums.capacity_calls as f64) / 1e3,
                "us",
            ),
        ),
        ("engine.events", metric(sums.engine_events as f64, "count")),
        (
            "engine.ns_per_event",
            metric(
                ratio(sums.engine_ns as f64, sums.engine_events as f64),
                "ns",
            ),
        ),
        (
            "engine.share",
            metric(
                ratio(engine_self as f64, traffic_breakdown.job_ns as f64),
                "ratio",
            ),
        ),
    ]);

    // cold_fleet: layered rebuild, then each cell's routed sub-traces through
    // a plain engine per replica (the cluster's self time is the difference).
    let w = Workload::ColdFleet;
    let mut sums = Sums::default();
    let mut by_router: Vec<(RouterKind, u64, u64)> = Vec::new();
    for index in 0..FLEET_SAMPLE {
        let spec = workload::cold_fleet_spec(seed, index);
        let grid = fleet_grid(&spec);
        let job = index as u64;
        let (((plain, plain_cells), plain_ns), ((lines, _), ns)) =
            twice(&mut off, &mut tr, w.name(), job, &mut sums, |t, s| {
                rebuild_fleet(t, job, &grid, s)
            });
        untraced_ns += plain_ns;
        traced_ns += ns;
        let (direct, direct_ns) = tr.span("probe.runner", job, |_| direct_records(&spec));
        let direct = direct?;
        runner_ns += direct_ns;
        replayed_ns += plain_ns;
        let (daemon, _) = tr.span("probe.serviced", job, |_| round_trip(cold.addr(), &spec));
        let (daemon, _, _) = daemon?;
        checker.check(
            w.name(),
            index,
            &direct,
            &[
                ("layered rebuild", &lines[..]),
                ("untraced rebuild", &plain[..]),
                ("daemon", &daemon[..]),
            ],
        );

        for cell in &plain_cells {
            // One simulator per cell, its cache warmed by an untimed fleet
            // run, so the timed fleet run and the timed per-replica engines
            // (which share it, as replicas share the fleet's) see the same
            // cache state.
            let sim = ServingSimulator::with_cache(
                grid.systems[cell.system].clone(),
                Arc::new(LatencyCache::new()),
            );
            let fleet = FleetSim::new(&sim, &grid.model);
            black_box(fleet.run(&cell.trace, &cell.config));
            let (fleet_ns, engines_ns) = tr
                .span("probe.cluster", job, |t| {
                    let (result, fleet_ns) =
                        t.span("cluster.run", job, |_| fleet.run(&cell.trace, &cell.config));
                    let mut engines_ns = 0;
                    for replica in 0..cell.config.mode.replicas() as u32 {
                        let routed = Trace {
                            requests: cell
                                .trace
                                .requests
                                .iter()
                                .zip(&result.assignment)
                                .filter(|(_, &a)| a == replica)
                                .map(|(q, _)| *q)
                                .collect(),
                        };
                        engines_ns += t
                            .span("engine.run", job, |_| {
                                black_box(
                                    Engine::new(&sim, &grid.model, cell.config.engine)
                                        .run(&routed, cell.config.policy.build().as_mut()),
                                )
                            })
                            .1;
                    }
                    (fleet_ns, engines_ns)
                })
                .0;
            match by_router
                .iter_mut()
                .find(|(r, _, _)| *r == cell.config.router)
            {
                Some(entry) => {
                    entry.1 += fleet_ns;
                    entry.2 += engines_ns;
                }
                None => by_router.push((cell.config.router, fleet_ns, engines_ns)),
            }
        }
    }
    cold.stop();
    metrics.push((
        "cluster.events",
        metric(sums.cluster_events as f64, "count"),
    ));
    metrics.push((
        "cluster.ns_per_arrival",
        metric(
            ratio(sums.cluster_ns as f64, sums.cluster_arrivals as f64),
            "ns",
        ),
    ));
    for (name, router) in [
        ("cluster.self_share.round_robin", RouterKind::RoundRobin),
        ("cluster.self_share.jsq", RouterKind::Jsq),
        ("cluster.self_share.po2", RouterKind::PowerOfTwo),
    ] {
        let (fleet, engines) = by_router
            .iter()
            .find(|(r, _, _)| *r == router)
            .map_or((0, 0), |&(_, f, e)| (f, e));
        metrics.push((
            name,
            metric(ratio(fleet as f64 - engines as f64, fleet as f64), "ratio"),
        ));
    }
    metrics.push((
        "runner.self_share",
        metric(
            ratio(runner_ns as f64 - replayed_ns as f64, runner_ns as f64),
            "ratio",
        ),
    ));

    // warm_whatif_mix: two copies of the pre-seeded store — one behind a
    // daemon, one for direct calls — so both see the same store state.
    let (dir_a, dir_b) = (work.join("replay-a"), work.join("replay-b"));
    copy_store(pool, &dir_a)?;
    copy_store(pool, &dir_b)?;
    let open = |dir: &Path| ResultStore::persistent(dir).map_err(|e| format!("reopen store: {e}"));
    let mut reopen_ms = Vec::new();
    for _ in 0..REOPENS {
        let (store, ns) = tr.span("probe.persist", 0, |t| {
            t.span("persist.reopen", 0, |_| open(&dir_b)).0
        });
        store?;
        reopen_ms.push(ns as f64 / 1e6);
    }
    let direct_store = open(&dir_b)?;
    let loaded_entries = direct_store.loaded_entries();
    let warm = Daemon::start(DaemonConfig::default(), open(&dir_a)?)
        .map_err(|e| format!("replay daemon: {e}"))?;
    // Rebuilt fresh cells are appended to a segment pair of their own.
    let append_dir = work.join("append");
    std::fs::create_dir_all(&append_dir).map_err(|e| format!("append store: {e}"))?;
    let persist_io = |e: std::io::Error| format!("append store: {e}");
    let traces_seg: MemoStore<Trace> =
        MemoStore::persistent(&append_dir.join("traces.seg")).map_err(persist_io)?;
    let cells_seg: MemoStore<TrafficRecord> =
        MemoStore::persistent(&append_dir.join("cells.seg")).map_err(persist_io)?;
    let mut append_key = 0u64;
    let mut append = |t: &mut Tracer, job: u64, cells: &[TrafficCell]| {
        t.span("persist.append", job, |_| {
            for cell in cells {
                append_key += 1;
                let key = FingerprintBuilder::new().u64(append_key).finish();
                traces_seg.get_or_insert_with(key, || (*cell.trace).clone());
                cells_seg.get_or_insert_with(key, || cell.record.clone());
            }
        });
        t.span("persist.sync", job, |_| {
            let _ = traces_seg.sync();
            let _ = cells_seg.sync();
        });
    };

    let (mut reads, mut fresh) = (0, 0);
    let sample: Vec<(usize, workload::WarmJob)> = workload::warm_jobs(seed)
        .enumerate()
        .filter(|(_, j)| {
            let take = if j.fresh {
                fresh < WARM_FRESH
            } else {
                reads < WARM_READS
            };
            if take {
                *(if j.fresh { &mut fresh } else { &mut reads }) += 1;
            }
            take
        })
        .take(WARM_READS + WARM_FRESH)
        .collect();
    let (mut warm_cell_us, mut self_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut fresh_cells: Vec<TrafficCell> = Vec::new();
    for (index, job_spec) in &sample {
        let index = *index;
        let job = index as u64;
        let grid = traffic_grid(&job_spec.spec);
        let rebuild = |t: &mut Tracer, sums: &mut Sums| {
            if job_spec.fresh {
                let (lines, cells) = rebuild_traffic(t, job, &grid, sums);
                append(t, job, &cells);
                (lines, cells)
            } else {
                let (records, _) = t.span("memo.warm_run", job, |_| {
                    TrafficRunner::new()
                        .with_threads(1)
                        .with_memo(Arc::clone(&direct_store.traffic))
                        .run(&grid)
                });
                let (lines, _) = t.span("spec.render", job, |_| {
                    records
                        .iter()
                        .map(render_traffic_record)
                        .collect::<Vec<_>>()
                });
                (lines, Vec::new())
            }
        };
        let (((plain, _), plain_ns), ((lines, cells), ns)) = twice(
            &mut off,
            &mut tr,
            WARM_MIX,
            job,
            &mut Sums::default(),
            rebuild,
        );
        untraced_ns += plain_ns;
        traced_ns += ns;
        fresh_cells.extend(cells);

        let (direct, direct_ns) = tr.span("probe.runner", job, |_| {
            Experiment::from_json(&job_spec.spec)
                .expect("generated spec")
                .run(&direct_store, &RunControl::new())
        });
        let direct = direct.map_err(|_| "direct run aborted".to_string())?;
        let (daemon, _) = tr.span("probe.serviced", job, |_| {
            round_trip(warm.addr(), &job_spec.spec)
        });
        let (daemon, wire_bytes, daemon_ns) = daemon?;
        if !job_spec.fresh {
            warm_cell_us.push(direct_ns as f64 / 1e3);
        }
        self_us.push((daemon_ns as f64 - direct_ns as f64) / 1e3);
        bytes.push(wire_bytes as f64);
        let cold = direct_records(&job_spec.spec)?;
        checker.check(
            WARM_MIX,
            index,
            &cold,
            &[
                ("layered rebuild", &lines[..]),
                ("untraced rebuild", &plain[..]),
                ("memo runner", &direct[..]),
                ("daemon", &daemon[..]),
            ],
        );
    }
    let hit_rate = cell_hit_rate(warm.addr())?;
    warm.stop();

    // Append cost: the fresh cells inserted into disk-backed stores minus the
    // same inserts into in-memory ones.
    let mut append_us = Vec::new();
    for (k, cell) in fresh_cells.iter().enumerate() {
        let time_inserts = |traces: &MemoStore<Trace>, records: &MemoStore<TrafficRecord>| {
            let t0 = Instant::now();
            for rep in 0..APPEND_REPS {
                let key = FingerprintBuilder::new()
                    .u64(k as u64)
                    .u64(rep as u64)
                    .u64(1 << 40)
                    .finish();
                traces.get_or_insert_with(key, || (*cell.trace).clone());
                records.get_or_insert_with(key, || cell.record.clone());
            }
            t0.elapsed().as_nanos() as f64 / APPEND_REPS as f64
        };
        let disk = time_inserts(&traces_seg, &cells_seg);
        let memory = time_inserts(&MemoStore::new(), &MemoStore::new());
        append_us.push((disk - memory) / 1e3);
    }
    metrics.extend([
        ("memo.cell_hit_rate", metric(hit_rate, "ratio")),
        ("memo.warm_cell_us", metric(median(&warm_cell_us), "us")),
        ("persist.reopen_ms", metric(median(&reopen_ms), "ms")),
        (
            "persist.loaded_entries",
            metric(loaded_entries as f64, "count"),
        ),
        ("persist.append_us", metric(median(&append_us), "us")),
        ("serviced.self_us", metric(median(&self_us), "us")),
        (
            "serviced.bytes_per_job",
            metric(
                bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
                "bytes",
            ),
        ),
        (
            "bench.trace_overhead",
            metric(
                ratio(traced_ns as f64 - untraced_ns as f64, untraced_ns as f64),
                "ratio",
            ),
        ),
    ]);

    let mut breakdowns = Vec::new();
    for name in [
        Workload::ColdTraffic.name(),
        Workload::ColdFleet.name(),
        WARM_MIX,
    ] {
        let b = tr.breakdown(name);
        if b.residual_ns() != 0 {
            checker
                .mismatches
                .push(format!("{name}: layer self times do not sum to job time"));
        }
        breakdowns.push((name, b.to_json()));
    }
    Ok(Pass {
        metrics,
        mismatches: checker.mismatches,
        breakdowns: Json::obj(breakdowns),
        tracer: tr,
    })
}
