//! End-to-end daemon tests: byte-identity of served records against direct
//! runner calls, queue priority and cancellation semantics, structured error
//! handling, graceful shutdown, and crash-safety of the on-disk store
//! (including a real kill-9 of the binary mid-job).

use netline::Json;
use pimba_fleet::runner::FleetRunner;
use pimba_serve::runner::TrafficRunner;
use pimba_serviced::client::Client;
use pimba_serviced::queue::{JobEvent, JobQueue, JobState};
use pimba_serviced::server::{Daemon, DaemonConfig};
use pimba_serviced::spec::{render_fleet_record, render_traffic_record, Experiment};
use pimba_serviced::store::ResultStore;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pimba_serviced_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn traffic_spec() -> Json {
    Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[8.0,16.0],
            "requests_per_cell":12,"seed":11}"#,
    )
    .unwrap()
}

fn fleet_spec() -> Json {
    Json::parse(
        r#"{"kind":"fleet_grid","model":{"family":"gla","scale":"small"},
            "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
            "replicas":[2],"routers":["round_robin","jsq"],
            "requests_per_cell":12,"seed":11}"#,
    )
    .unwrap()
}

/// A 48-cell grid: long enough that cancellation/timeout (which act at cell
/// granularity) land while cells still remain, on any realistic core count.
fn big_spec() -> Json {
    Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat","reasoning"],
            "rates_rps":[1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0],
            "requests_per_cell":12,"seed":5}"#,
    )
    .unwrap()
}

/// Drains a submission's event stream to its terminal event.
fn drain(events: &Receiver<JobEvent>) -> (Vec<String>, &'static str) {
    let mut records = Vec::new();
    loop {
        match events
            .recv_timeout(Duration::from_secs(120))
            .expect("event")
        {
            JobEvent::Progress { .. } | JobEvent::Trace(_) => {}
            JobEvent::Record(line) => records.push(line),
            JobEvent::Done { .. } => return (records, "done"),
            JobEvent::Failed(_) => return (records, "failed"),
            JobEvent::Cancelled => return (records, "cancelled"),
            JobEvent::TimedOut => return (records, "timed_out"),
        }
    }
}

#[test]
fn served_records_are_byte_identical_to_direct_runs() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Traffic grid: direct run through the same canonical renderer.
    let outcome = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    let Experiment::Traffic(grid) = Experiment::from_json(&traffic_spec()).unwrap() else {
        panic!("traffic spec must parse as a traffic grid");
    };
    let direct: Vec<String> = TrafficRunner::new()
        .run(&grid)
        .iter()
        .map(render_traffic_record)
        .collect();
    assert_eq!(outcome.records, direct);
    assert!(outcome.progress_events > 0, "progress must stream");

    // Fleet grid, same gate.
    let outcome = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    let Experiment::Fleet(grid) = Experiment::from_json(&fleet_spec()).unwrap() else {
        panic!("fleet spec must parse as a fleet grid");
    };
    let direct: Vec<String> = FleetRunner::new()
        .run(&grid)
        .iter()
        .map(render_fleet_record)
        .collect();
    assert_eq!(outcome.records, direct);

    // Identical resubmission: warm memo, still byte-identical.
    let warm = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(warm.records, direct);

    daemon.stop();
}

#[test]
fn higher_priority_jobs_run_first() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);
    // Occupy the single worker (48 cells — far longer than the two submit
    // calls below) so both later submissions stay queued together; the heap
    // then decides their order.
    let blocker = Experiment::from_json(&big_spec()).unwrap();
    let (_, blocker_events) = queue.submit(blocker, 100, None).unwrap();

    let low = Experiment::from_json(&traffic_spec()).unwrap();
    let high = Experiment::from_json(&fleet_spec()).unwrap();
    let (low_id, low_events) = queue.submit(low, 0, None).unwrap();
    let (high_id, high_events) = queue.submit(high, 5, None).unwrap();

    drain(&blocker_events);
    let (_, low_state) = drain(&low_events);
    let (_, high_state) = drain(&high_events);
    assert_eq!((low_state, high_state), ("done", "done"));
    // finish_seq is stamped under the jobs lock at each terminal transition,
    // so comparing it is race-free (unlike wall-clock stamps taken in
    // separately scheduled drain threads).
    assert!(
        queue.finish_seq(high_id).unwrap() < queue.finish_seq(low_id).unwrap(),
        "priority 5 must complete before priority 0 on a single worker"
    );
    queue.shutdown();
}

#[test]
fn cancellation_stops_running_and_queued_jobs() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);

    // Running job: cancel at the first cell boundary.
    let (running_id, running_events) = queue
        .submit(Experiment::from_json(&big_spec()).unwrap(), 0, None)
        .unwrap();
    let cancelled = match running_events
        .recv_timeout(Duration::from_secs(120))
        .expect("event")
    {
        JobEvent::Progress { .. } => queue.cancel(running_id),
        // Whole job finished before the first progress event was drained
        // (cancel has nothing left to stop) — the queued-job half below
        // still exercises the path deterministically.
        JobEvent::Done { .. } => false,
        other => panic!("unexpected event {other:?}"),
    };
    if cancelled {
        let (records, state) = drain(&running_events);
        assert_eq!(state, "cancelled");
        assert!(records.is_empty(), "a cancelled run streams no records");
        assert_eq!(queue.status(running_id).unwrap().0, JobState::Cancelled);
    }

    // Queued job behind a blocker: cancelling must terminate it immediately,
    // before any worker touches it.
    let (_, blocker_events) = queue
        .submit(Experiment::from_json(&traffic_spec()).unwrap(), 10, None)
        .unwrap();
    let (queued_id, queued_events) = queue
        .submit(Experiment::from_json(&fleet_spec()).unwrap(), 0, None)
        .unwrap();
    assert!(queue.cancel(queued_id));
    let (records, state) = drain(&queued_events);
    assert_eq!(state, "cancelled");
    assert!(records.is_empty());
    assert_eq!(queue.status(queued_id).unwrap().0, JobState::Cancelled);
    assert!(
        !queue.cancel(queued_id),
        "terminal jobs cannot be cancelled"
    );

    drain(&blocker_events);
    queue.shutdown();
}

#[test]
fn a_one_millisecond_timeout_times_out() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);
    let (id, events) = queue
        .submit(
            Experiment::from_json(&big_spec()).unwrap(),
            0,
            Some(Duration::from_nanos(1)),
        )
        .unwrap();
    let (_, state) = drain(&events);
    assert_eq!(state, "timed_out");
    assert_eq!(queue.status(id).unwrap().0, JobState::TimedOut);
    queue.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut conn = netline::LineConn::connect(daemon.addr()).unwrap();

    conn.write_line("this is not json").unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("event").unwrap().as_str(), Some("error"));
    assert!(reply
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("invalid JSON"));

    conn.write_line(r#"{"cmd":"frobnicate"}"#).unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("field").unwrap().as_str(), Some("cmd"));

    // Invalid spec: the error names the offending field, and the connection
    // survives to serve the next (valid) request.
    let bad = r#"{"cmd":"submit","spec":{"kind":"traffic_grid",
        "model":{"family":"gpt5","scale":"small"},
        "systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}}"#
        .replace('\n', " ");
    conn.write_line(&bad).unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(
        reply.get("field").unwrap().as_str(),
        Some("spec.model.family")
    );

    let mut client = Client::connect(daemon.addr()).unwrap();
    let outcome = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    daemon.stop();
}

#[test]
fn shutdown_drains_inflight_jobs_and_rejects_new_connections() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let addr = daemon.addr();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.run(&traffic_spec(), 0, None).unwrap().unwrap()
    });
    // Let the submission land, then stop: the in-flight job must still
    // complete and stream all its records.
    std::thread::sleep(Duration::from_millis(50));
    daemon.stop();
    let outcome = client_thread.join().unwrap();
    assert_eq!(outcome.state, "done");
    assert!(!outcome.records.is_empty());
    assert!(
        Client::connect(addr).is_err(),
        "the listener must be closed after stop"
    );
}

#[test]
fn daemon_restart_serves_warm_byte_identical_records_from_disk() {
    let dir = temp_dir("restart");

    let first = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    let cold = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(cold.state, "done");
    first.stop();

    // Crash-tolerance: a torn trailing record (half-written at power loss)
    // must not poison the reload.
    use std::io::Write;
    let seg = dir.join("traffic_cells.seg");
    let mut file = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    file.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    drop(file);

    let second = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let warm = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(warm.records, cold.records, "restart must not change a byte");

    // Every cell must have been answered from the store, not re-simulated.
    let stats = client.stats().unwrap();
    let cells = stats
        .get("store")
        .and_then(|s| s.get("traffic"))
        .and_then(|t| t.get("cells"))
        .expect("stats.store.traffic.cells");
    assert_eq!(cells.get("misses").unwrap().as_i64(), Some(0));
    assert_eq!(cells.get("hits").unwrap().as_i64(), Some(4));

    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_job_leaves_a_loadable_warm_store() {
    let dir = temp_dir("kill");
    // A grid big enough that SIGKILL lands mid-run: 12 cells, sizeable
    // traces.
    let spec = Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat","reasoning"],
            "rates_rps":[4.0,8.0,16.0],"requests_per_cell":60,"seed":3}"#,
    )
    .unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pimba-serviced"))
        .args(["--listen", "127.0.0.1:0", "--store"])
        .arg(&dir)
        .args(["--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon binary");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut lines = stdout.lines();
    let listening = lines.next().unwrap().unwrap();
    let event = Json::parse(&listening).unwrap();
    assert_eq!(event.get("event").unwrap().as_str(), Some("listening"));
    let addr = event.get("addr").unwrap().as_str().unwrap().to_string();

    let mut client = Client::connect(addr.as_str()).unwrap();
    let job = client.submit(&spec, 0, None).unwrap().unwrap();
    assert!(job > 0);
    // Wait for the first finished cells to hit the store, then kill -9.
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("progress") => {
                let done = event.get("done").unwrap().as_i64().unwrap();
                if done >= 2 {
                    break;
                }
            }
            Some("record") => {}
            Some("done") => break, // machine fast enough to finish; still fine
            other => panic!("unexpected event {other:?}"),
        }
    }
    child.kill().expect("kill -9");
    let _ = child.wait();

    // The store must load despite the unsynced, possibly torn tail, with the
    // finished cells warm.
    let store = ResultStore::persistent(&dir).expect("reload after crash");
    assert!(
        store.loaded_entries() > 0,
        "cells finished before the kill must have been persisted"
    );

    // And a re-run over the reloaded store is byte-identical to a pristine
    // cold run.
    let experiment = Experiment::from_json(&spec).unwrap();
    let resumed = experiment
        .run(&store, &pimba_system::sweep::RunControl::new())
        .unwrap();
    let pristine = experiment
        .run(
            &ResultStore::in_memory(),
            &pimba_system::sweep::RunControl::new(),
        )
        .unwrap();
    assert_eq!(resumed, pristine);
    let (_, cells) = store.traffic.stats();
    assert!(cells.hits > 0, "the resumed run must reuse persisted cells");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_enumerates_stored_fingerprints_with_cell_counts() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Empty store: zero counts, empty enumeration.
    let empty = client.list().unwrap();
    assert_eq!(empty.get("event").and_then(Json::as_str), Some("list"));
    assert_eq!(empty.get("traffic_cells").and_then(Json::as_i64), Some(0));
    assert_eq!(empty.get("fleet_cells").and_then(Json::as_i64), Some(0));

    let traffic = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    let fleet = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(
        (traffic.state.as_str(), fleet.state.as_str()),
        ("done", "done")
    );

    let listing = client.list().unwrap();
    assert_eq!(
        listing.get("traffic_cells").and_then(Json::as_i64),
        Some(traffic.records.len() as i64)
    );
    assert_eq!(
        listing.get("fleet_cells").and_then(Json::as_i64),
        Some(fleet.records.len() as i64)
    );
    let Some(Json::Arr(cells)) = listing.get("cells") else {
        panic!("list must carry a 'cells' array: {}", listing.render());
    };
    assert_eq!(cells.len(), traffic.records.len() + fleet.records.len());
    let mut fingerprints = Vec::new();
    for cell in cells {
        let memo = cell.get("memo").and_then(Json::as_str).expect("memo tag");
        assert!(
            matches!(memo, "traffic" | "fleet"),
            "unexpected memo {memo}"
        );
        let fp = cell
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint");
        assert_eq!(fp.len(), 32, "fingerprints render as 32 hex digits: {fp}");
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        fingerprints.push((memo.to_string(), fp.to_string()));
    }
    // Deterministic enumeration: traffic first, each memo's keys sorted.
    let traffic_fps: Vec<_> = fingerprints
        .iter()
        .filter(|(m, _)| m == "traffic")
        .collect();
    assert!(fingerprints[..traffic_fps.len()]
        .iter()
        .all(|(m, _)| m == "traffic"));
    assert!(traffic_fps.windows(2).all(|w| w[0].1 <= w[1].1));

    // A second client sees the identical listing.
    let mut other = Client::connect(daemon.addr()).unwrap();
    assert_eq!(other.list().unwrap().render(), listing.render());
    daemon.stop();
}

/// The `metrics` reply is a pure function of the awaited job sequence: two
/// fresh daemons that each run a traffic job, a fleet job and a warm traffic
/// resubmit render byte-identical snapshots. (The progress gauges only move
/// forward, so which cell worker reported last cannot show.)
#[test]
fn metrics_replies_are_byte_identical_across_fresh_daemons() {
    let metrics_after_sequence = || {
        let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
        let mut client = Client::connect(daemon.addr()).unwrap();
        for spec in [traffic_spec(), fleet_spec(), traffic_spec()] {
            let run = client.run(&spec, 0, None).unwrap().unwrap();
            assert_eq!(run.state, "done");
        }
        let metrics = client.metrics().unwrap().render();
        daemon.stop();
        metrics
    };
    let first = metrics_after_sequence();
    assert!(
        first.contains("serve_requests_completed") && first.contains("run_progress_cells_done"),
        "the sequence must publish serving and progress series: {first}"
    );
    assert_eq!(metrics_after_sequence(), first);
    // Pinned across builds too: the committed reply was rendered by an
    // earlier build, so any change to the exported series shows here.
    assert_eq!(
        format!("{first}\n"),
        include_str!("fixtures/metrics_after_sequence.json"),
        "metrics reply drifted from the committed fixture"
    );
}

/// The memo cell keys of the two reference specs, pinned as literals: a
/// store written by an earlier build only loads warm while every cell of the
/// same spec lands on the same fingerprint.
#[test]
fn cell_fingerprints_of_the_reference_specs_are_pinned() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for spec in [traffic_spec(), fleet_spec()] {
        let run = client.run(&spec, 0, None).unwrap().unwrap();
        assert_eq!(run.state, "done");
    }
    let listing = client.list().unwrap();
    daemon.stop();
    let Some(Json::Arr(cells)) = listing.get("cells") else {
        panic!("list must carry a 'cells' array: {}", listing.render());
    };
    let listed: Vec<String> = cells
        .iter()
        .map(|cell| {
            let field = |name| cell.get(name).and_then(Json::as_str).expect(name);
            format!("{} {}", field("memo"), field("fingerprint"))
        })
        .collect();
    assert_eq!(
        listed,
        [
            "traffic 3ebf5036b65c7cc7494b14cd953a9103",
            "traffic 53a63803ee8f01453eeda894aa7c3fea",
            "traffic bd12611c9ef1414b29f58b9f8368c214",
            "traffic dcb589598e472f60927d477836581620",
            "fleet 081cc5d8b854211f57f376ba0b867ef8",
            "fleet 56cd9f3cfa5c066788f1aebf0bd6a6b1",
        ]
    );
}

/// One persistent store serving both grid kinds holds exactly the four
/// segment files, and the `stats` verb names them in store order.
#[test]
fn persistent_store_holds_four_named_segments_in_stats_order() {
    let dir = temp_dir("segments");
    let daemon = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for spec in [traffic_spec(), fleet_spec()] {
        let run = client.run(&spec, 0, None).unwrap().unwrap();
        assert_eq!(run.state, "done");
    }
    let stats = client.stats().unwrap();
    daemon.stop();

    let expected = [
        "traffic_capacity",
        "traffic_cells",
        "fleet_capacity",
        "fleet_cells",
    ];
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut want: Vec<String> = expected.iter().map(|name| format!("{name}.seg")).collect();
    want.sort();
    assert_eq!(files, want);

    let segments = stats
        .get("store")
        .and_then(|s| s.get("segments"))
        .and_then(Json::as_arr)
        .expect("stats.store.segments");
    let names: Vec<&str> = segments
        .iter()
        .map(|seg| seg.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, expected);
    for seg in segments {
        assert!(seg.get("len_bytes").and_then(Json::as_i64) > Some(0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopened store loads exactly the results the jobs computed — one entry
/// per simulated cell and per capacity search — and no traces.
#[test]
fn reopened_store_loads_only_cells_and_capacity_searches() {
    let dir = temp_dir("reopen_entries");
    let daemon = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for spec in [traffic_spec(), fleet_spec()] {
        let run = client.run(&spec, 0, None).unwrap().unwrap();
        assert_eq!(run.state, "done");
    }
    let stats = client.stats().unwrap();
    daemon.stop();

    let misses = |memo: &str, store: &str| {
        stats
            .get("store")
            .and_then(|s| s.get(memo))
            .and_then(|m| m.get(store))
            .and_then(|c| c.get("misses"))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("stats.store.{memo}.{store}.misses"))
    };
    let computed: i64 = ["traffic", "fleet"]
        .iter()
        .flat_map(|memo| [misses(memo, "cells"), misses(memo, "capacity")])
        .sum();
    // Traffic: 2 systems × 2 rates cells and 2 capacity searches. Fleet: 2
    // router cells and 1 capacity search.
    assert_eq!(computed, (4 + 2) + (2 + 1));

    let reopened = ResultStore::persistent(&dir).unwrap();
    assert_eq!(reopened.loaded_entries() as i64, computed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_metrics_and_query_round_trip_over_the_protocol() {
    // Baseline daemon: plain run, no trace requested.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let plain = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(plain.state, "done");
    assert!(plain.trace.is_none(), "no trace unless the spec opts in");
    daemon.stop();

    // Traced daemon: cold store, so cells actually simulate and record.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut spec = traffic_spec();
    let Json::Obj(pairs) = &mut spec else {
        panic!("spec fixtures are objects")
    };
    pairs.push(("trace".to_string(), Json::Bool(true)));
    let traced = client.run(&spec, 0, None).unwrap().unwrap();
    assert_eq!(traced.state, "done");
    assert_eq!(
        traced.records, plain.records,
        "tracing must not change record bytes"
    );
    let trace = traced.trace.expect("trace must stream when requested");
    assert!(!trace.is_empty(), "a cold traced run records events");
    for line in trace.lines() {
        Json::parse(line).expect("every trace line is valid JSON");
    }

    // Warm resubmission: memoized cells record nothing, but the records are
    // still byte-identical and the (empty) trace envelope still streams.
    let warm = client.run(&spec, 0, None).unwrap().unwrap();
    assert_eq!(warm.records, plain.records);
    assert!(warm.trace.is_some());

    // The queue-wide metrics registry saw the run's serving series.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("event").and_then(Json::as_str), Some("metrics"));
    let series = metrics
        .get("data")
        .and_then(|d| d.get("metrics"))
        .and_then(Json::as_arr)
        .expect("metrics array");
    assert!(
        series
            .iter()
            .any(|s| { s.get("name").and_then(Json::as_str) == Some("serve_requests_completed") }),
        "traffic runs must publish serving metrics: {}",
        metrics.render()
    );

    // query: a stored cell fetched by fingerprint renders to the exact bytes
    // of one streamed record.
    let listing = client.list().unwrap();
    let cells = listing.get("cells").and_then(Json::as_arr).expect("cells");
    let fp = cells
        .iter()
        .find(|c| c.get("memo").and_then(Json::as_str) == Some("traffic"))
        .and_then(|c| c.get("fingerprint"))
        .and_then(Json::as_str)
        .expect("a stored traffic fingerprint");
    let result = client.query(fp).unwrap();
    assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
    assert_eq!(result.get("memo").and_then(Json::as_str), Some("traffic"));
    assert_eq!(result.get("fingerprint").and_then(Json::as_str), Some(fp));
    let data = result.get("data").expect("queried record").render();
    assert!(
        plain.records.contains(&data),
        "queried bytes must be one of the streamed records"
    );

    // Unknown and malformed fingerprints get structured errors.
    let missing = client.query("00000000000000000000000000000000").unwrap();
    assert_eq!(missing.get("event").and_then(Json::as_str), Some("error"));
    let malformed = client.query("not-a-fingerprint").unwrap();
    assert_eq!(malformed.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(
        malformed.get("field").and_then(Json::as_str),
        Some("fingerprint")
    );

    // stats: one segment entry per backing store, all zeros in-memory.
    let stats = client.stats().unwrap();
    let segments = stats
        .get("store")
        .and_then(|s| s.get("segments"))
        .and_then(Json::as_arr)
        .expect("stats.store.segments");
    assert_eq!(segments.len(), 4, "two traffic + two fleet segments");
    for seg in segments {
        assert!(seg.get("name").and_then(Json::as_str).is_some());
        assert_eq!(seg.get("len_bytes").and_then(Json::as_i64), Some(0));
    }
    daemon.stop();
}

#[test]
fn client_recovers_a_multi_line_trace_byte_for_byte() {
    // One cell: a grid's cells run in parallel and register their trace
    // tracks as they start, so only a single cell fixes the track order.
    let spec = Json::parse(
        r#"{"kind":"fleet_grid","model":{"family":"gla","scale":"small"},
            "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
            "replicas":[2],"routers":["jsq"],
            "requests_per_cell":24,"seed":11,"trace":true}"#,
    )
    .unwrap();

    // The trace the queue publishes, before any JSON escaping.
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);
    let (_, events) = queue
        .submit_traced(Experiment::from_json(&spec).unwrap(), 0, None, true)
        .unwrap();
    let direct = loop {
        match events
            .recv_timeout(Duration::from_secs(120))
            .expect("event")
        {
            JobEvent::Trace(data) => break data,
            JobEvent::Progress { .. } | JobEvent::Record(_) => {}
            other => panic!("terminal event before the trace: {other:?}"),
        }
    };
    queue.shutdown();
    assert!(
        direct.lines().count() > 1 && direct.contains('"'),
        "the trace must span lines and carry quotes to escape"
    );

    // The same trace shipped as one escaped string line and parsed back.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let outcome = client.run(&spec, 0, None).unwrap().unwrap();
    daemon.stop();
    assert_eq!(outcome.state, "done");
    assert_eq!(outcome.trace.as_deref(), Some(direct.as_str()));
}

#[test]
fn client_retry_reconnects_and_resubmits_after_transient_failures() {
    use pimba_serviced::client::ClientRetry;
    let retry = ClientRetry {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter: Duration::from_millis(1),
        seed: 9,
    };
    // Backoff is deterministic, exponential and capped: same (seed, attempt)
    // always pauses the same time, within [base·2^(n-1), max + jitter].
    for attempt in 1..=6u32 {
        let pause = retry.backoff(attempt);
        assert_eq!(
            pause,
            retry.backoff(attempt),
            "jitter must be a pure function"
        );
        assert!(pause <= retry.max_backoff + retry.jitter);
    }
    assert!(retry.backoff(2) >= Duration::from_millis(2));

    // Connecting to a dead port exhausts the attempts, then reports the error.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    assert!(Client::connect_with_retry(dead, &retry).is_err());

    // Against a live daemon, both retrying entry points succeed and the
    // resubmitted records are byte-identical to a plain run.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect_with_retry(daemon.addr(), &retry).unwrap();
    let direct = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    let retried = Client::run_with_retry(daemon.addr(), &traffic_spec(), 0, None, &retry)
        .unwrap()
        .unwrap();
    assert_eq!(retried.records, direct.records);

    // Structured refusals are not retried: an invalid spec fails fast with
    // the daemon's error, not an exhausted-attempts timeout.
    let bad = Json::parse(r#"{"kind":"warp_grid"}"#).unwrap();
    let refusal = Client::run_with_retry(daemon.addr(), &bad, 0, None, &retry)
        .unwrap()
        .expect_err("invalid spec must be refused");
    assert!(
        refusal.field.starts_with("spec."),
        "refusal names the offending spec field: {refusal}"
    );
    daemon.stop();
}
