//! Streaming ingest through a live server: durable `POST /v1/insert` /
//! `/v1/remove`, snapshot isolation for concurrent readers, online
//! compaction, and crash-free restart recovery of everything the server
//! acknowledged.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use emd_core::{ground, Histogram};
use emd_json::{self as json, Value};
use emd_query::{DurableIndex, DurableSnapshot};
use emd_reduction::{CombiningReduction, ReducedEmd};
use emd_serve::{IngestState, QuerySpec, Snapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 4;

fn parse_object(body: &str) -> BTreeMap<String, Value> {
    match json::parse(body).expect("response is valid JSON") {
        Value::Object(map) => map,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn number(map: &BTreeMap<String, Value>, key: &str) -> f64 {
    match map.get(key) {
        Some(Value::Number(n)) => *n,
        other => panic!("expected numeric `{key}`, got {other:?}"),
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "flexemd-serve-ingest-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn h(bins: &[f64]) -> Histogram {
    Histogram::new(bins.to_vec()).unwrap()
}

/// A dynamic snapshot over a fresh durable directory. The static
/// executor/database fields still serve `/healthz` fallbacks on
/// read-only servers; with ingest present they are never queried, so the
/// usual test corpus stands in.
fn dynamic_snapshot(dir: &std::path::Path) -> (Snapshot, Arc<IngestState>) {
    let cost = Arc::new(ground::linear(DIM).unwrap());
    let reduced =
        ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap();
    let index = DurableIndex::create(dir, cost, reduced).unwrap();
    let ingest = Arc::new(IngestState::new(index).unwrap());
    let database = common::database();
    let executor = common::executor(&database);
    (
        Snapshot {
            executor,
            database,
            name: "dynamic-test".to_owned(),
            faults: None,
            ingest: Some(Arc::clone(&ingest)),
        },
        ingest,
    )
}

fn insert_body(bins: &[f64]) -> String {
    let weights: Vec<String> = bins.iter().map(|b| format!("{b}")).collect();
    format!("{{\"weights\":[{}]}}", weights.join(","))
}

fn served_knn(addr: std::net::SocketAddr, bins: &[f64], k: usize) -> (u16, String) {
    let body = format!(
        "{{\"weights\":[{}],\"k\":{k}}}",
        bins.iter()
            .map(|b| format!("{b}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, _, response) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
    (status, response)
}

#[test]
fn insert_query_remove_round_trip() {
    let dir = unique_dir("round-trip");
    let (snapshot, _ingest) = dynamic_snapshot(&dir);
    let server = common::start(snapshot, 2);
    let addr = server.addr();

    // Empty corpus: queries are a clean 409, not an engine error.
    let (status, body) = served_knn(addr, &[0.5, 0.5, 0.0, 0.0], 1);
    assert_eq!(status, 409, "{body}");

    // Three durable inserts; ids are sequential external ids.
    let corpus = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ];
    for (expect, bins) in corpus.iter().enumerate() {
        let (status, _, body) =
            common::raw_call(addr, "POST", "/v1/insert", Some(&insert_body(bins)));
        assert_eq!(status, 200, "{body}");
        let map = parse_object(&body);
        assert_eq!(number(&map, "id") as usize, expect);
        assert_eq!(map.get("durable"), Some(&Value::Bool(true)));
    }

    // healthz reflects the dynamic corpus.
    let objects = || {
        let (status, _, body) = common::raw_call(addr, "GET", "/healthz", None);
        assert_eq!(status, 200);
        let health = parse_object(&body);
        assert_eq!(health.get("writable"), Some(&Value::Bool(true)));
        number(&health, "objects") as usize
    };
    assert_eq!(objects(), 3);

    // A just-inserted id is its own nearest neighbor.
    let by_id = |id: usize| {
        let body = format!("{{\"query_id\":{id},\"k\":1}}");
        let (status, _, response) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
        (status, response)
    };
    let (status, body) = by_id(2);
    assert_eq!(status, 200, "{body}");
    let map = parse_object(&body);
    let neighbors = map.get("neighbors").and_then(Value::as_array).unwrap();
    assert_eq!(number(neighbors[0].as_object().unwrap(), "id") as usize, 2);

    // Queries answer in external ids.
    let (status, body) = served_knn(addr, &[0.0, 0.9, 0.1, 0.0], 1);
    assert_eq!(status, 200, "{body}");
    let map = parse_object(&body);
    let neighbors = map.get("neighbors").and_then(Value::as_array).unwrap();
    let first = neighbors[0].as_object().unwrap();
    assert_eq!(number(first, "id") as usize, 1);

    // Remove external id 1; the nearest neighbor moves.
    let (status, _, body) = common::raw_call(addr, "POST", "/v1/remove", Some("{\"id\":1}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(parse_object(&body).get("removed"), Some(&Value::Bool(true)));
    let (_, body) = served_knn(addr, &[0.0, 0.9, 0.1, 0.0], 1);
    let map = parse_object(&body);
    let neighbors = map.get("neighbors").and_then(Value::as_array).unwrap();
    let first = neighbors[0].as_object().unwrap();
    assert_eq!(number(first, "id") as usize, 0, "id 1 is gone");
    let (status, body) = by_id(1);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("`query_id` 1 names no live object"), "{body}");
    assert_eq!(objects(), 2);

    // Removing an unknown id is a clean false, not an error.
    let (status, _, body) = common::raw_call(addr, "POST", "/v1/remove", Some("{\"id\":77}"));
    assert_eq!(status, 200);
    assert_eq!(
        parse_object(&body).get("removed"),
        Some(&Value::Bool(false))
    );

    server.drain_and_join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot owns the id map: `DurableSnapshot::run` under a pivot cap
/// answers in the same external ids, with the same bounds, as the server
/// renders for the same request.
#[test]
fn degraded_answers_carry_the_snapshots_external_ids() {
    let dir = unique_dir("degraded-ids");
    let (snapshot, ingest) = dynamic_snapshot(&dir);
    let server = common::start(snapshot, 1);
    let addr = server.addr();

    let corpus = [
        [1.0, 0.0, 0.0, 0.0],
        [0.4, 0.3, 0.2, 0.1],
        [0.0, 0.0, 0.5, 0.5],
        [0.1, 0.2, 0.3, 0.4],
        [0.25, 0.25, 0.25, 0.25],
    ];
    for bins in &corpus {
        let (status, _, body) =
            common::raw_call(addr, "POST", "/v1/insert", Some(&insert_body(bins)));
        assert_eq!(status, 200, "{body}");
    }
    // Removing external id 0 shifts every dense engine id by one.
    let (status, _, body) = common::raw_call(addr, "POST", "/v1/remove", Some("{\"id\":0}"));
    assert_eq!(status, 200, "{body}");

    let probe = [0.3, 0.3, 0.2, 0.2];
    let spec = QuerySpec {
        k: Some(3),
        max_pivots: Some(0),
        ..QuerySpec::default()
    };
    let (outcome, _) = ingest
        .snapshot()
        .unwrap()
        .run(&spec.query_for(h(&probe)))
        .unwrap();
    let local: Vec<(usize, u64, bool)> = outcome
        .degraded()
        .expect("no solve fits in zero pivots")
        .candidates
        .iter()
        .map(|c| (c.id, c.bound.to_bits(), c.exact))
        .collect();
    assert!(local.iter().all(|&(id, _, _)| (1..=4).contains(&id)));

    let body = format!("{{\"weights\":{probe:?},\"k\":3,\"max_pivots\":0}}");
    let (status, _, response) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
    assert_eq!(status, 200, "{response}");
    let map = parse_object(&response);
    assert_eq!(map.get("degraded"), Some(&Value::Bool(true)), "{response}");
    let served: Vec<(usize, u64, bool)> = map
        .get("candidates")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|candidate| {
            let candidate = candidate.as_object().unwrap();
            (
                number(candidate, "id") as usize,
                number(candidate, "bound").to_bits(),
                candidate.get("exact") == Some(&Value::Bool(true)),
            )
        })
        .collect();
    assert_eq!(served, local);

    server.drain_and_join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writes_are_rejected_on_a_read_only_server() {
    let server = common::start(common::snapshot(), 1);
    let addr = server.addr();
    for (path, body) in [
        ("/v1/insert", "{\"weights\":[1.0,0.0]}"),
        ("/v1/remove", "{\"id\":0}"),
        ("/admin/compact", "{}"),
    ] {
        let (status, _, response) = common::raw_call(addr, "POST", path, Some(body));
        assert_eq!(status, 409, "{path}: {response}");
    }
    server.drain_and_join().unwrap();
}

/// The tentpole e2e: kNN readers hammer the server while a writer
/// streams inserts and compacts. Every response must be well-formed, and
/// a snapshot taken before the writes answers bit-identically after all
/// of them — copy-on-write isolation end to end.
#[test]
fn concurrent_knn_under_ingest_keeps_pre_insert_snapshots_bit_stable() {
    let dir = unique_dir("concurrent");
    let (snapshot, ingest) = dynamic_snapshot(&dir);
    let server = common::start(snapshot, 4);
    let addr = server.addr();

    // Seed corpus.
    for bins in [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ] {
        let (status, _, body) =
            common::raw_call(addr, "POST", "/v1/insert", Some(&insert_body(&bins)));
        assert_eq!(status, 200, "{body}");
    }

    // Freeze a reader view before the concurrent phase.
    let frozen: Arc<DurableSnapshot> = ingest.snapshot().unwrap();
    let probe = h(&[0.4, 0.1, 0.1, 0.4]);
    let baseline: Vec<(u64, u64)> = frozen
        .knn(&probe, 3)
        .unwrap()
        .0
        .iter()
        .map(|&(id, d)| (id, d.to_bits()))
        .collect();

    // Readers: 3 threads x 20 kNN requests against the live server.
    let mut readers = Vec::new();
    for worker in 0..3 {
        readers.push(std::thread::spawn(move || {
            for i in 0..20 {
                let x = f64::from((worker * 20 + i) % 10) / 10.0;
                let bins = [x, 1.0 - x, 0.0, 0.0];
                let (status, body) = served_knn(addr, &bins, 2);
                assert_eq!(status, 200, "reader saw {body}");
                let map = parse_object(&body);
                assert!(map.contains_key("neighbors"), "{body}");
            }
        }));
    }

    // Writer: stream 12 inserts over HTTP, compacting midway.
    for i in 0..12u32 {
        let x = f64::from(i + 1) / 14.0;
        let bins = [x / 2.0, 0.5 - x / 2.0, (1.0 - x) / 2.0, x / 2.0];
        let total: f64 = bins.iter().sum();
        let normalized: Vec<f64> = bins.iter().map(|b| b / total).collect();
        let (status, _, body) =
            common::raw_call(addr, "POST", "/v1/insert", Some(&insert_body(&normalized)));
        assert_eq!(status, 200, "writer saw {body}");
        if i == 6 {
            let (status, _, body) = common::raw_call(addr, "POST", "/admin/compact", Some("{}"));
            assert_eq!(status, 200, "compact saw {body}");
        }
    }
    for reader in readers {
        reader.join().unwrap();
    }

    // The frozen snapshot never moved.
    let after: Vec<(u64, u64)> = frozen
        .knn(&probe, 3)
        .unwrap()
        .0
        .iter()
        .map(|&(id, d)| (id, d.to_bits()))
        .collect();
    assert_eq!(baseline, after, "pre-insert snapshot must stay bit-stable");

    // The live view sees all 16 objects.
    let (_, _, body) = common::raw_call(addr, "GET", "/healthz", None);
    assert_eq!(number(&parse_object(&body), "objects") as usize, 16);

    server.drain_and_join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Client faults and server faults land on opposite sides of the 4xx/5xx
/// line: a malformed body is a 400, but a WAL append failure is the
/// server's disk dying and must surface as a 500 whose body flags the
/// write's durability as indeterminate.
#[test]
fn wal_failures_surface_as_500_not_400() {
    let dir = unique_dir("wal-500");
    let cost = Arc::new(ground::linear(DIM).unwrap());
    let reduced =
        ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap();
    // The second WAL append (the second insert) fails at the store layer.
    let faults = Arc::new(emd_faultkit::FailPlan::new().fail_wal_append(2));
    let index = DurableIndex::create_with(&dir, cost, reduced, faults).unwrap();
    let ingest = Arc::new(IngestState::new(index).unwrap());
    let database = common::database();
    let executor = common::executor(&database);
    let snapshot = Snapshot {
        executor,
        database,
        name: "wal-500-test".to_owned(),
        faults: None,
        ingest: Some(Arc::clone(&ingest)),
    };
    let server = common::start(snapshot, 1);
    let addr = server.addr();

    // A malformed body is the client's fault: 400.
    let (status, _, body) = common::raw_call(
        addr,
        "POST",
        "/v1/insert",
        Some("{\"weights\":[2.0,0.0,0.0,0.0]}"),
    );
    assert_eq!(status, 400, "{body}");

    // First well-formed insert succeeds and is durable.
    let (status, _, body) = common::raw_call(
        addr,
        "POST",
        "/v1/insert",
        Some(&insert_body(&[1.0, 0.0, 0.0, 0.0])),
    );
    assert_eq!(status, 200, "{body}");

    // Second insert hits the injected WAL append failure: the server's
    // disk, not the client's request — a 500 flagging indeterminate
    // durability, never a 400.
    let (status, _, body) = common::raw_call(
        addr,
        "POST",
        "/v1/insert",
        Some(&insert_body(&[0.0, 1.0, 0.0, 0.0])),
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("indeterminate"), "{body}");

    // The failure consumed no external id and left the index writable:
    // the next insert succeeds with the next id.
    let (status, _, body) = common::raw_call(
        addr,
        "POST",
        "/v1/insert",
        Some(&insert_body(&[0.0, 0.0, 1.0, 0.0])),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(number(&parse_object(&body), "id") as u64, 1);

    server.drain_and_join().unwrap();
    drop(ingest);
    std::fs::remove_dir_all(&dir).ok();
}

/// Everything the server acknowledged with 200 survives a restart: drain
/// the server, reopen the directory cold, and find every insert.
#[test]
fn acknowledged_writes_survive_restart() {
    let dir = unique_dir("restart");
    let (snapshot, ingest) = dynamic_snapshot(&dir);
    let server = common::start(snapshot, 2);
    let addr = server.addr();
    let mut acknowledged = Vec::new();
    for i in 0..5u32 {
        let x = f64::from(i + 1) / 6.0;
        let bins = [x, 1.0 - x, 0.0, 0.0];
        let (status, _, body) =
            common::raw_call(addr, "POST", "/v1/insert", Some(&insert_body(&bins)));
        assert_eq!(status, 200, "{body}");
        acknowledged.push(number(&parse_object(&body), "id") as u64);
    }
    let (status, _, _) = common::raw_call(addr, "POST", "/v1/remove", Some("{\"id\":2}"));
    assert_eq!(status, 200);
    server.drain_and_join().unwrap();

    // Release the server-side owner: the durable directory is
    // exclusively locked while any handle is alive.
    drop(ingest);
    let (reopened, report) = DurableIndex::open(&dir).unwrap();
    assert!(report.torn_tail.is_none(), "clean shutdown leaves no tear");
    assert_eq!(reopened.len(), 4);
    for id in acknowledged {
        if id == 2 {
            assert!(reopened.get(id).is_none(), "removed id stays removed");
        } else {
            assert!(reopened.get(id).is_some(), "acknowledged id {id} survives");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
