//! Deterministic fault injection through the running server: budget
//! exhaustion degrades a single response, a worker panic costs one 500,
//! and the server keeps serving afterwards — with the panic visible in
//! `/metrics`.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use emd_faultkit::{FailPlan, FaultInjector, InjectedPanic};
use emd_json::{self as json, Value};
use emd_query::DurableIndex;
use emd_serve::{IngestState, Snapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Suppress the default panic-hook noise for *injected* panics only;
/// genuine panics still print as usual.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

fn parse_object(body: &str) -> BTreeMap<String, Value> {
    match json::parse(body).expect("response is valid JSON") {
        Value::Object(map) => map,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

#[test]
fn injected_solve_exhaustion_degrades_one_request_then_recovers() {
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().exhaust_solve(1));
    let database = common::database();
    let executor = common::executor(&database);
    let snapshot = Snapshot {
        executor,
        database,
        name: "faulty".to_owned(),
        faults: Some(plan),
        ingest: None,
    };
    let server = common::start(snapshot, 1);
    let addr = server.addr();

    // The failpoint fires at the first solve: a 200 with the degraded
    // flag and the injected reason — not an error.
    let (status, _, body) =
        common::raw_call(addr, "POST", "/v1/knn", Some("{\"query_id\": 0, \"k\": 3}"));
    assert_eq!(status, 200, "degraded is not an error: {body}");
    let map = parse_object(&body);
    assert_eq!(map.get("degraded"), Some(&Value::Bool(true)), "{body}");
    assert_eq!(
        map.get("reason").and_then(Value::as_str),
        Some("injected"),
        "{body}"
    );

    // The failpoint is spent: the next request answers exactly.
    let (status, _, body) =
        common::raw_call(addr, "POST", "/v1/knn", Some("{\"query_id\": 0, \"k\": 3}"));
    assert_eq!(status, 200);
    assert_eq!(
        parse_object(&body).get("degraded"),
        Some(&Value::Bool(false)),
        "server did not recover: {body}"
    );
    server.drain_and_join().unwrap();
}

/// Budgets and solve faults on a *writable* server: queries run on live
/// snapshots of the durable index, whose filters used to drop the request
/// budget — `max_pivots` and `solve:` fail plans did nothing there.
#[test]
fn budgets_and_solve_faults_reach_the_writable_server() {
    let dir =
        std::env::temp_dir().join(format!("flexemd-serve-live-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let database = common::database();
    let cost = Arc::clone(database.cost_arc());
    let mut index = DurableIndex::create(&dir, cost, common::reduced(&database)).unwrap();
    for histogram in database.histograms() {
        index.append_insert(histogram.clone()).unwrap();
    }
    index.sync().unwrap();
    // The second solve the server ever runs is exhausted by the plan.
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().exhaust_solve(2));
    let snapshot = Snapshot {
        executor: common::executor(&database),
        database,
        name: "writable-faulty".to_owned(),
        faults: Some(plan),
        ingest: Some(Arc::new(IngestState::new(index).unwrap())),
    };
    let server = common::start(snapshot, 1);
    let addr = server.addr();
    let knn = |extra: &str| {
        let body = format!("{{\"query_id\": 0, \"k\": 3{extra}}}");
        let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
        assert_eq!(status, 200, "degraded is not an error: {body}");
        parse_object(&body)
    };

    // Exactly one degraded reply from the fail plan, then recovery.
    let injected = knn("");
    assert_eq!(injected.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(
        injected.get("reason").and_then(Value::as_str),
        Some("injected")
    );
    let exact = knn("");
    assert_eq!(exact.get("degraded"), Some(&Value::Bool(false)));

    // A pivot cap far below one query's work degrades; without it the
    // same request is exact again.
    let capped = knn(", \"max_pivots\": 1");
    assert_eq!(capped.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(
        capped.get("reason").and_then(Value::as_str),
        Some("pivot_cap")
    );
    assert_eq!(knn("").get("neighbors"), exact.get("neighbors"));

    server.drain_and_join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_worker_panic_is_one_500_and_the_server_survives() {
    quiet_injected_panics();
    // Request ids are the server's admission sequence (0, 1, 2, ...);
    // the panic failpoint targets request 1 only.
    let database = common::database();
    let snapshot = Snapshot {
        executor: common::executor(&database),
        database,
        name: "panicky".to_owned(),
        ingest: None,
        faults: Some(Arc::new(FailPlan::new().panic_worker(1))),
    };
    // One worker: requests execute in admission order, so the sequence
    // numbers below are deterministic.
    let server = common::start(snapshot, 1);
    let addr = server.addr();
    three_requests_one_panic(addr);

    // The health endpoint still answers and the panic shows up in the
    // merged metrics.
    let (status, _, _) = common::raw_call(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, _, body) = common::raw_call(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = parse_object(&body);
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters object");
    assert_eq!(
        counters.get("query.worker_panics"),
        Some(&Value::Number(1.0)),
        "panic counter visible via /metrics: {body}"
    );
    assert!(counters.contains_key("serve.status.500"), "{body}");
    server.drain_and_join().unwrap();
}

/// Three kNN requests against a one-worker server whose fault plan
/// panics request 1: exactly that one is a 500 naming the panic, and the
/// two around it answer bit-identically — the panic left no residue.
fn three_requests_one_panic(addr: std::net::SocketAddr) {
    let payload = "{\"query_id\": 2, \"k\": 3}";
    let mut statuses = Vec::new();
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(payload));
        statuses.push(status);
        bodies.push(body);
    }
    assert_eq!(
        statuses,
        vec![200, 500, 200],
        "exactly the targeted request fails: {bodies:?}"
    );
    let error = parse_object(&bodies[1]);
    let detail = error.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        detail.contains("panic"),
        "500 body names the panic: {detail}"
    );
    assert_eq!(bodies[0], bodies[2]);
}

/// Worker failpoints reach a writable server too: its live snapshots'
/// executors are probed through the request budget, like the static one.
#[test]
fn injected_worker_panic_reaches_the_writable_server() {
    quiet_injected_panics();
    let dir = std::env::temp_dir().join(format!("flexemd-serve-live-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let database = common::database();
    let cost = Arc::clone(database.cost_arc());
    let mut index = DurableIndex::create(&dir, cost, common::reduced(&database)).unwrap();
    for histogram in database.histograms() {
        index.append_insert(histogram.clone()).unwrap();
    }
    index.sync().unwrap();
    let snapshot = Snapshot {
        executor: common::executor(&database),
        database,
        name: "writable-panicky".to_owned(),
        faults: Some(Arc::new(FailPlan::new().panic_worker(1))),
        ingest: Some(Arc::new(IngestState::new(index).unwrap())),
    };
    let server = common::start(snapshot, 1);
    three_requests_one_panic(server.addr());
    server.drain_and_join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_fault_plans_never_wedge_the_server() {
    quiet_injected_panics();
    for seed in 0..8u64 {
        let database = common::database();
        let snapshot = Snapshot {
            executor: common::executor(&database),
            database,
            name: format!("seeded-{seed}"),
            faults: Some(Arc::new(FailPlan::from_seed(seed))),
            ingest: None,
        };
        let server = common::start(snapshot, 2);
        let addr = server.addr();
        for id in 0..6 {
            let payload = format!("{{\"query_id\": {id}, \"k\": 2}}");
            let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(&payload));
            assert!(
                status == 200 || status == 500,
                "seed {seed} request {id}: unexpected status {status}: {body}"
            );
        }
        // Whatever the plan injected, the server still drains cleanly.
        let (status, _, _) = common::raw_call(addr, "GET", "/healthz", None);
        assert_eq!(status, 200, "seed {seed}");
        server.drain_and_join().unwrap();
    }
}
