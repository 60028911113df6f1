//! The daemon's result store: the traffic and fleet memos behind every job.
//!
//! One [`ResultStore`] is shared by all workers for the life of the daemon.
//! In-memory mode answers repeated queries within one process; persistent
//! mode ([`ResultStore::persistent`]) roots both memos' crash-safe segment
//! files in one directory — four of them, `{traffic,fleet}_{capacity,cells}.seg`
//! (see [`GridMemo::persistent`](pimba_serve::grid::GridMemo::persistent)) —
//! so identical specs are warm, byte-identical hits across daemon restarts.

use netline::Json;
use pimba_fleet::memo::FleetMemo;
use pimba_serve::runner::TrafficMemo;
use pimba_system::memo::{Fingerprint, MemoStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The shared traffic + fleet memo pair, optionally disk-backed.
#[derive(Debug)]
pub struct ResultStore {
    /// Traffic-grid memo (capacity searches, cells).
    pub traffic: Arc<TrafficMemo>,
    /// Fleet-grid memo (capacity searches, cells).
    pub fleet: Arc<FleetMemo>,
    dir: Option<PathBuf>,
}

impl ResultStore {
    /// A volatile store: warm within the process, empty after restart.
    pub fn in_memory() -> Self {
        Self {
            traffic: Arc::new(TrafficMemo::new()),
            fleet: Arc::new(FleetMemo::new()),
            dir: None,
        }
    }

    /// A disk-backed store rooted at `dir` (created if absent). Entries
    /// persisted by earlier processes are loaded up front; corrupt tails are
    /// truncated, not fatal.
    pub fn persistent(dir: &Path) -> std::io::Result<Self> {
        Ok(Self {
            traffic: Arc::new(TrafficMemo::persistent(dir)?),
            fleet: Arc::new(FleetMemo::persistent(dir)?),
            dir: Some(dir.to_path_buf()),
        })
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Flushes both memos' segment files to stable storage (no-op for
    /// in-memory stores).
    pub fn sync(&self) -> std::io::Result<()> {
        self.traffic.sync()?;
        self.fleet.sync()
    }

    /// Every stored cell fingerprint as `(memo, fingerprint)` pairs — traffic
    /// cells first, each list sorted — for the protocol's `list` command.
    pub fn cell_keys(&self) -> Vec<(&'static str, Fingerprint)> {
        let tag = |memo: &'static str| move |fp| (memo, fp);
        self.traffic
            .cell_keys()
            .into_iter()
            .map(tag("traffic"))
            .chain(self.fleet.cell_keys().into_iter().map(tag("fleet")))
            .collect()
    }

    /// The store's contents as a JSON object for the daemon's `list`
    /// command: per-memo cell counts plus every cell fingerprint rendered as
    /// 32 hex digits, in [`ResultStore::cell_keys`] order.
    pub fn list_json(&self) -> Json {
        let render = |(memo, fp): (&'static str, Fingerprint)| {
            let (hi, lo) = fp.words();
            Json::obj(vec![
                ("memo", Json::str(memo)),
                ("fingerprint", Json::Str(format!("{hi:016x}{lo:016x}"))),
            ])
        };
        Json::obj(vec![
            (
                "traffic_cells",
                Json::Int(self.traffic.cells_stored() as i64),
            ),
            ("fleet_cells", Json::Int(self.fleet.cells_stored() as i64)),
            (
                "cells",
                Json::Arr(self.cell_keys().into_iter().map(render).collect()),
            ),
        ])
    }

    /// Total entries loaded from disk at open (0 for in-memory stores).
    pub fn loaded_entries(&self) -> usize {
        self.traffic.loaded_entries() + self.fleet.loaded_entries()
    }

    /// The store's state as a JSON object for the daemon's `stats` command:
    /// per-memo hit/miss counters plus one `segments` entry per backing
    /// segment file with its size (zero for in-memory stores).
    pub fn stats_json(&self) -> Json {
        fn stats(label: &str, (capacity, cells): (MemoStats, MemoStats)) -> (String, Json) {
            let one = |m: MemoStats| {
                Json::obj(vec![
                    ("hits", Json::Int(m.hits as i64)),
                    ("misses", Json::Int(m.misses as i64)),
                ])
            };
            (
                label.to_string(),
                Json::obj(vec![("capacity", one(capacity)), ("cells", one(cells))]),
            )
        }
        let mut pairs = vec![
            ("persistent".to_string(), Json::Bool(self.dir.is_some())),
            (
                "loaded_entries".to_string(),
                Json::Int(self.loaded_entries() as i64),
            ),
            (
                "cells_stored".to_string(),
                Json::Int((self.traffic.cells_stored() + self.fleet.cells_stored()) as i64),
            ),
        ];
        pairs.push(stats("traffic", self.traffic.stats()));
        pairs.push(stats("fleet", self.fleet.stats()));
        let segments: Vec<Json> = self
            .traffic
            .segment_stats()
            .into_iter()
            .chain(self.fleet.segment_stats())
            .map(|(name, len_bytes)| {
                Json::obj(vec![
                    ("name", Json::Str(name)),
                    ("len_bytes", Json::Int(len_bytes as i64)),
                ])
            })
            .collect();
        pairs.push(("segments".to_string(), Json::Arr(segments)));
        Json::Obj(pairs)
    }
}
