//! Content-addressed memoization of fleet what-if grids.
//!
//! A what-if study re-runs a grid with one knob changed — a router swapped,
//! one more rate point, a different replica count — and today re-simulates
//! every cell from scratch even though most cells' inputs are untouched.
//! [`FleetMemo`] — the shared [`GridMemo`] over [`FleetRecord`]s — makes such
//! grids incremental: every artifact the runner produces is keyed by a
//! fingerprint of its *complete* input identity (see [`pimba_system::memo`]
//! for the purity contract) and stored in a concurrent memo store, so a
//! re-evaluation only pays for the cells whose inputs actually changed. Three
//! stores cover the runner's three costs:
//!
//! * **traces** — per-(scenario, rate) arrival traces, the shared-prefix fast
//!   path across systems/replica-counts/routers *and* across grids,
//! * **max_batches** — the per-(system, scenario) SLO capacity searches
//!   (`max_batch_within_slo` binary searches, each tens of simulator steps),
//! * **cells** — full [`FleetRecord`]s: a warm hit skips the fleet
//!   co-simulation entirely and returns bytes identical to a cold run (the
//!   simulation is deterministic bit-for-bit in its fingerprinted inputs).
//!
//! Execution knobs that cannot change results — runner thread counts and the
//! intra-fleet [`workers`](crate::cluster::FleetConfig::workers) count — are
//! deliberately *excluded* from every fingerprint, so a grid evaluated
//! sequentially warms the memo for a parallel re-evaluation and vice versa.
//!
//! This module holds the [`FleetRecord`] codec; the memo itself lives in
//! [`pimba_serve::grid`].

use crate::fault::FaultStats;
use crate::router::RouterKind;
use crate::runner::FleetRecord;
use pimba_serve::codec::{
    decode_summary, decode_tenant_summaries, encode_summary, encode_tenant_summaries,
};
use pimba_serve::grid::{GridMemo, GridRecord};
use pimba_system::persist::{ByteReader, ByteWriter, MemoValue};

pub use pimba_serve::runner::{fold_trace, trace_fingerprint};

/// Schema tag of the [`FleetRecord`] codec (see [`pimba_serve::codec`] for
/// the tagging convention).
const FLEET_RECORD_SCHEMA: u8 = 2;

fn router_tag(router: RouterKind) -> u8 {
    match router {
        RouterKind::RoundRobin => 0,
        RouterKind::Jsq => 1,
        RouterKind::PowerOfTwo => 2,
        RouterKind::TenantAffinity => 3,
    }
}

fn router_from_tag(tag: u8) -> Option<RouterKind> {
    Some(match tag {
        0 => RouterKind::RoundRobin,
        1 => RouterKind::Jsq,
        2 => RouterKind::PowerOfTwo,
        3 => RouterKind::TenantAffinity,
        _ => return None,
    })
}

impl MemoValue for FleetRecord {
    fn encode(&self, out: &mut ByteWriter) {
        out.u8(FLEET_RECORD_SCHEMA);
        out.usize(self.system);
        out.usize(self.scenario);
        out.f64(self.rate_rps);
        out.usize(self.replicas);
        out.u8(router_tag(self.router));
        out.usize(self.max_batch);
        encode_summary(out, &self.summary);
        out.f64(self.goodput_per_replica);
        pimba_system::persist::encode_vec(out, &self.per_replica_completed, |out, &n| out.usize(n));
        encode_tenant_summaries(out, &self.per_tenant);
        let f = &self.fault;
        for n in [
            f.crashes,
            f.restarts,
            f.slowdowns,
            f.link_downs,
            f.migrations,
            f.retries,
            f.timeouts,
            f.black_holed,
            f.lost,
        ] {
            out.u32(n);
        }
        out.f64(f.migrated_bytes);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
        if reader.u8()? != FLEET_RECORD_SCHEMA {
            return None;
        }
        Some(FleetRecord {
            system: reader.usize()?,
            scenario: reader.usize()?,
            rate_rps: reader.f64()?,
            replicas: reader.usize()?,
            router: router_from_tag(reader.u8()?)?,
            max_batch: reader.usize()?,
            summary: decode_summary(reader)?,
            goodput_per_replica: reader.f64()?,
            per_replica_completed: reader.vec(|r| r.usize())?,
            per_tenant: decode_tenant_summaries(reader)?,
            fault: FaultStats {
                crashes: reader.u32()?,
                restarts: reader.u32()?,
                slowdowns: reader.u32()?,
                link_downs: reader.u32()?,
                migrations: reader.u32()?,
                retries: reader.u32()?,
                timeouts: reader.u32()?,
                black_holed: reader.u32()?,
                lost: reader.u32()?,
                migrated_bytes: reader.f64()?,
            },
        })
    }
}

/// The memo of fleet grid evaluations (segment prefix `fleet`) — share one
/// (behind an [`Arc`](std::sync::Arc)) across every
/// [`FleetRunner`](crate::runner::FleetRunner) run that should reuse results.
pub type FleetMemo = GridMemo<FleetRecord>;

impl GridRecord for FleetRecord {
    const MEMO_PREFIX: &'static str = "fleet";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FleetGrid, FleetRunner};
    use pimba_models::{ModelConfig, ModelFamily, ModelScale};
    use pimba_serve::traffic::Scenario;
    use pimba_system::config::{SystemConfig, SystemKind};
    use std::sync::Arc;

    fn small_grid() -> FleetGrid {
        FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
            .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
            .with_scenarios(vec![Scenario::chat()])
            .with_rates(vec![16.0])
            .with_replica_counts(vec![2])
            .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
            .with_requests_per_cell(12)
            .with_seq_bucket(32)
    }

    #[test]
    fn fleet_record_codec_roundtrips_bit_exactly() {
        let grid = small_grid();
        let records = FleetRunner::new().with_threads(1).run(&grid);
        for record in &records {
            let mut w = ByteWriter::new();
            record.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let decoded = FleetRecord::decode(&mut r).expect("decode");
            assert!(r.is_exhausted(), "codec must consume exactly its bytes");
            assert_eq!(&decoded, record);
            assert_eq!(
                decoded.summary.e2e_ms.p50.to_bits(),
                record.summary.e2e_ms.p50.to_bits()
            );
        }
    }

    #[test]
    fn persistent_fleet_memo_is_warm_and_bit_identical_after_restart() {
        let dir = std::env::temp_dir().join(format!("pimba_fleet_memo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = small_grid();

        let cold_memo = Arc::new(FleetMemo::persistent(&dir).expect("open store"));
        let cold = FleetRunner::new()
            .with_memo(Arc::clone(&cold_memo))
            .run(&grid);
        cold_memo.sync().expect("sync");
        drop(cold_memo);

        // "Restart": a fresh process image would reload the same segments.
        let warm_memo = Arc::new(FleetMemo::persistent(&dir).expect("reopen store"));
        let warm = FleetRunner::new()
            .with_memo(Arc::clone(&warm_memo))
            .run(&grid);
        let (_, _, cells) = warm_memo.stats();
        assert_eq!(cells.misses, 0, "every cell must be a warm disk hit");
        assert_eq!(cells.hits as usize, grid.len());
        assert_eq!(warm, cold, "reloaded records are bit-identical");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
