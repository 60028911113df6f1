//! The workloads as seeded job generators. The daemon sees only the spec
//! JSON produced here; every spec is a pure function of the workload seed and
//! the job index.

use netline::Json;

/// Model families every workload rotates over (all at `small` scale).
const FAMILIES: [&str; 3] = ["opt", "mamba2", "zamba2"];
/// Traffic scenarios of the traffic workloads.
const SCENARIOS: [&str; 3] = ["chat", "reasoning", "rag_long_context"];
/// Fleet routers of every `cold_fleet` grid.
const ROUTERS: [&str; 3] = ["round_robin", "jsq", "po2"];

/// Moderate and saturating single-replica arrival rates of `cold_traffic`
/// grids, in requests/second.
const TRAFFIC_RATES: [f64; 2] = [2.0, 24.0];
/// `(moderate, saturating)` single-replica arrival rates per scenario of the
/// what-if cells, in requests/second.
const WHATIF_RATES: [(f64, f64); 3] = [(4.0, 48.0), (0.5, 6.0), (1.0, 12.0)];
/// Scenarios of `cold_fleet` grids.
const FLEET_SCENARIOS: [&str; 2] = ["chat", "reasoning"];
/// Fleet-level arrival rate of `cold_fleet` grids — high enough that
/// load-aware routers see queues on 8 replicas.
const FLEET_RATE: f64 = 96.0;

/// Requests per cell of a `cold_traffic` job: enough that the engine, not
/// the daemon's per-job overhead, takes most of a job's CPU time.
const TRAFFIC_REQUESTS: i64 = 128;
/// Requests per cell of a `cold_fleet` job.
const FLEET_REQUESTS: i64 = 128;
/// Requests per `warm_whatif_mix` cell.
const WHATIF_REQUESTS: i64 = 24;
/// Replicas of every `cold_fleet` cell.
const FLEET_REPLICAS: i64 = 8;
/// Sequence bucket of every spec.
const SEQ_BUCKET: i64 = 64;

/// Distinct what-if cells stored in the pre-seeded store.
const POOL_CELLS: usize = 240;
/// Share of `warm_whatif_mix` jobs that ask for a cell the store lacks.
const FRESH_SHARE: f64 = 0.10;

/// The name of the warm what-if mix, which only the traced pass replays:
/// single-cell `what_if` jobs against a pre-seeded disk-backed store, mostly
/// reads, some fresh cells.
pub const WARM_MIX: &str = "warm_whatif_mix";

/// The benchmark's timed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client, back-to-back cold `traffic_grid` jobs.
    ColdTraffic,
    /// Closed loop, one client, back-to-back cold 8-replica `fleet_grid` jobs.
    ColdFleet,
}

impl Workload {
    /// Every timed workload.
    pub const ALL: [Workload; 2] = [Workload::ColdTraffic, Workload::ColdFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTraffic => "cold_traffic",
            Workload::ColdFleet => "cold_fleet",
        }
    }

    /// Closed-loop jobs per second of `--seconds`: a closed-loop run is a
    /// fixed amount of work, sized to take about `--seconds` on a 2-core
    /// host, so its job count, records and memory do not depend on speed.
    pub fn closed_jobs_per_s(self) -> f64 {
        match self {
            Workload::ColdTraffic => 80.0,
            Workload::ColdFleet => 45.0,
        }
    }

    /// Served jobs per run re-computed by a direct runner call.
    pub fn checked_jobs(self) -> usize {
        match self {
            Workload::ColdTraffic => 6,
            Workload::ColdFleet => 4,
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`, so distinct inputs give
/// distinct outputs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded generator (SplitMix64 stream).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a stream tag.
    fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream tags separating the generators' random draws.
mod streams {
    pub const TRAFFIC: u64 = 0x7AFF;
    pub const FLEET: u64 = 0xF1EE;
    pub const POOL: u64 = 0x9001;
    pub const FRESH: u64 = 0xF2E5;
    pub const MIX: u64 = 0x5C4E;
}

/// A per-job simulation seed, distinct for distinct `index` within one
/// `(seed, stream)` (the finalizer is a bijection; the top bits are dropped
/// to fit the spec's non-negative integer).
fn job_seed(seed: u64, stream: u64, index: usize) -> i64 {
    (mix(mix(seed ^ mix(stream)).wrapping_add(index as u64)) >> 2) as i64
}

fn model(family: &str) -> Json {
    Json::obj(vec![
        ("family", Json::str(family)),
        ("scale", Json::str("small")),
    ])
}

fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s)).collect())
}

/// The model family of closed-loop job `index`: the families in a
/// seed-shuffled order, repeated, so any run covers the same mix.
fn family_of(seed: u64, stream: u64, index: usize) -> &'static str {
    let mut order = FAMILIES;
    let mut rng = Rng::new(seed, stream ^ 0x0DE2);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order[index % order.len()]
}

/// Job `index` of `cold_traffic`: a GPU-vs-Pimba `traffic_grid` over every
/// scenario at a moderate and a saturating rate, under a fresh seed.
pub fn cold_traffic_spec(seed: u64, index: usize) -> Json {
    Json::obj(vec![
        ("kind", Json::str("traffic_grid")),
        ("model", model(family_of(seed, streams::TRAFFIC, index))),
        ("systems", strs(&["gpu", "pimba"])),
        ("scenarios", strs(&SCENARIOS)),
        (
            "rates_rps",
            Json::Arr(TRAFFIC_RATES.map(Json::Num).to_vec()),
        ),
        ("requests_per_cell", Json::Int(TRAFFIC_REQUESTS)),
        ("seq_bucket", Json::Int(SEQ_BUCKET)),
        ("seed", Json::Int(job_seed(seed, streams::TRAFFIC, index))),
    ])
}

/// Job `index` of `cold_fleet`: a GPU-vs-Pimba 8-replica colocated
/// `fleet_grid` over every router at a high rate, under a fresh seed.
pub fn cold_fleet_spec(seed: u64, index: usize) -> Json {
    Json::obj(vec![
        ("kind", Json::str("fleet_grid")),
        ("model", model(family_of(seed, streams::FLEET, index))),
        ("systems", strs(&["gpu", "pimba"])),
        ("scenarios", strs(&FLEET_SCENARIOS)),
        ("rates_rps", Json::Arr(vec![Json::Num(FLEET_RATE)])),
        ("replicas", Json::Arr(vec![Json::Int(FLEET_REPLICAS)])),
        ("routers", strs(&ROUTERS)),
        ("requests_per_cell", Json::Int(FLEET_REQUESTS)),
        ("seq_bucket", Json::Int(SEQ_BUCKET)),
        ("seed", Json::Int(job_seed(seed, streams::FLEET, index))),
    ])
}

/// A single-cell `what_if` spec.
fn what_if(rng: &mut Rng, cell_seed: i64) -> Json {
    let family = FAMILIES[rng.below(FAMILIES.len())];
    let system = ["gpu", "pimba"][rng.below(2)];
    let scenario = rng.below(SCENARIOS.len());
    let (moderate, saturating) = WHATIF_RATES[scenario];
    let rate = if rng.below(2) == 0 {
        moderate
    } else {
        saturating
    };
    Json::obj(vec![
        ("kind", Json::str("what_if")),
        ("model", model(family)),
        ("systems", strs(&[system])),
        ("scenarios", strs(&[SCENARIOS[scenario]])),
        ("rates_rps", Json::Arr(vec![Json::Num(rate)])),
        ("requests_per_cell", Json::Int(WHATIF_REQUESTS)),
        ("seq_bucket", Json::Int(SEQ_BUCKET)),
        ("seed", Json::Int(cell_seed)),
    ])
}

/// The cells the pre-seeded store holds before `warm_whatif_mix` starts.
pub fn warm_pool(seed: u64) -> Vec<Json> {
    let mut rng = Rng::new(seed, streams::POOL);
    (0..POOL_CELLS)
        .map(|k| what_if(&mut rng, job_seed(seed, streams::POOL, k)))
        .collect()
}

/// One job of the `warm_whatif_mix` sequence.
#[derive(Debug, Clone)]
pub struct WarmJob {
    /// The spec submitted.
    pub spec: Json,
    /// `true` when the pre-seeded store does not hold the cell (a write).
    pub fresh: bool,
}

/// The `warm_whatif_mix` job sequence: each job re-asks a pooled cell or,
/// with probability [`FRESH_SHARE`], a fresh one.
pub fn warm_jobs(seed: u64) -> impl Iterator<Item = WarmJob> {
    let pool = warm_pool(seed);
    let mut rng = Rng::new(seed, streams::MIX);
    let mut fresh_rng = Rng::new(seed, streams::FRESH);
    (0..).map(move |index| {
        let fresh = rng.unit() < FRESH_SHARE;
        let spec = if fresh {
            what_if(&mut fresh_rng, job_seed(seed, streams::FRESH, index))
        } else {
            pool[rng.below(pool.len())].clone()
        };
        WarmJob { spec, fresh }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_of(spec: &Json) -> i64 {
        spec.get("seed").and_then(Json::as_i64).expect("spec seed")
    }

    #[test]
    fn specs_are_a_pure_function_of_seed_and_index_with_fresh_job_seeds() {
        for spec in [cold_traffic_spec, cold_fleet_spec] {
            assert_eq!(spec(5, 17), spec(5, 17));
            assert_ne!(spec(5, 17), spec(6, 17));
            let mut seeds: Vec<i64> = (0..2000).map(|i| seed_of(&spec(5, i))).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 2000, "every job misses the memo");
        }
        // Each run of three jobs covers every family once.
        let mut families: Vec<String> = (0..3)
            .map(|i| cold_traffic_spec(9, i).get("model").unwrap().render())
            .collect();
        families.sort();
        families.dedup();
        assert_eq!(families.len(), 3);
    }

    #[test]
    fn warm_jobs_are_seeded_and_mostly_reads() {
        let jobs: Vec<WarmJob> = warm_jobs(3).take(2000).collect();
        for (a, b) in jobs.iter().zip(warm_jobs(3)) {
            assert_eq!((&a.spec, a.fresh), (&b.spec, b.fresh));
        }
        let pool = warm_pool(3);
        for job in &jobs {
            assert_eq!(pool.contains(&job.spec), !job.fresh);
        }
        let fresh = jobs.iter().filter(|j| j.fresh).count() as f64 / jobs.len() as f64;
        assert!((fresh - FRESH_SHARE).abs() < 0.03, "fresh share {fresh}");
    }
}
