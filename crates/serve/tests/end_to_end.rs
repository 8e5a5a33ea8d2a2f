//! End-to-end server tests: a real `TcpListener` on an ephemeral port,
//! concurrent clients, and bit-level comparison against the direct
//! [`Executor`] the server wraps.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use emd_json::{self as json, Value};
use emd_query::{Query, QueryOutcome};
use emd_serve::http::http_call;
use std::collections::BTreeMap;
use std::time::Duration;

fn parse_object(body: &str) -> BTreeMap<String, Value> {
    match json::parse(body).expect("response is valid JSON") {
        Value::Object(map) => map,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

/// `(id, distance-bits)` pairs from a served kNN response body.
fn served_neighbors(body: &str) -> Vec<(usize, u64)> {
    let map = parse_object(body);
    assert_eq!(
        map.get("degraded"),
        Some(&Value::Bool(false)),
        "expected an exact outcome: {body}"
    );
    map.get("neighbors")
        .and_then(Value::as_array)
        .expect("neighbors array")
        .iter()
        .map(|entry| {
            let entry = entry.as_object().expect("neighbor object");
            let id = match entry.get("id") {
                Some(Value::Number(n)) => *n as usize,
                other => panic!("bad id {other:?}"),
            };
            let distance = match entry.get("distance") {
                Some(Value::Number(n)) => n.to_bits(),
                other => panic!("bad distance {other:?}"),
            };
            (id, distance)
        })
        .collect()
}

#[test]
fn concurrent_served_knn_is_bit_identical_to_direct_executor() {
    let server = common::start(common::snapshot(), 4);
    let addr = server.addr();

    // Direct answers from an identical executor, one per query object.
    let database = common::database();
    let executor = common::executor(&database);
    let k = 5;
    let expected: Vec<Vec<(usize, u64)>> = (0..common::OBJECTS)
        .map(|id| {
            let query = Query::knn(database.get(id).unwrap().clone(), k);
            let (outcome, _) = executor.run(&query).unwrap();
            match outcome {
                QueryOutcome::Exact(neighbors) => neighbors
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect(),
                QueryOutcome::Degraded(_) => panic!("unbudgeted query degraded"),
            }
        })
        .collect();

    // Every object queried concurrently from 8 client threads.
    std::thread::scope(|scope| {
        for chunk in (0..common::OBJECTS).collect::<Vec<_>>().chunks(3) {
            let expected = &expected;
            let chunk = chunk.to_vec();
            scope.spawn(move || {
                for id in chunk {
                    let body = format!("{{\"query_id\": {id}, \"k\": {k}}}");
                    let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
                    assert_eq!(status, 200, "object {id}: {body}");
                    assert_eq!(
                        served_neighbors(&body),
                        expected[id],
                        "served kNN for object {id} diverges from the direct executor"
                    );
                }
            });
        }
    });
    server.drain_and_join().unwrap();
}

#[test]
fn range_queries_and_inline_weights_serve_exactly() {
    let server = common::start(common::snapshot(), 2);
    let addr = server.addr();
    let database = common::database();
    let executor = common::executor(&database);

    // Range query by id.
    let epsilon = 2.5;
    let query = Query::range(database.get(3).unwrap().clone(), epsilon);
    let (outcome, _) = executor.run(&query).unwrap();
    let QueryOutcome::Exact(expected) = outcome else {
        panic!("unbudgeted range query degraded");
    };
    let body = format!("{{\"query_id\": 3, \"epsilon\": {epsilon}}}");
    let (status, _, body) = common::raw_call(addr, "POST", "/v1/range", Some(&body));
    assert_eq!(status, 200, "{body}");
    let served = served_neighbors(&body);
    assert_eq!(served.len(), expected.len());
    for (served, expected) in served.iter().zip(&expected) {
        assert_eq!(*served, (expected.id, expected.distance.to_bits()));
    }

    // kNN with the query histogram inlined as weights instead of an id.
    let histogram = database.get(7).unwrap().clone();
    let weights: Vec<String> = histogram.bins().iter().map(|w| format!("{w}")).collect();
    let body = format!("{{\"weights\": [{}], \"k\": 4}}", weights.join(", "));
    let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
    assert_eq!(status, 200, "{body}");
    let served = served_neighbors(&body);
    let direct = Query::knn(histogram, 4);
    let (outcome, _) = executor.run(&direct).unwrap();
    let QueryOutcome::Exact(expected) = outcome else {
        panic!("unbudgeted query degraded");
    };
    let expected: Vec<(usize, u64)> = expected
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect();
    assert_eq!(served, expected);
    server.drain_and_join().unwrap();
}

#[test]
fn deadline_zero_degrades_with_bound_ordered_candidates() {
    let server = common::start(common::snapshot(), 2);
    let addr = server.addr();
    let (status, _, body) = common::raw_call(
        addr,
        "POST",
        "/v1/knn",
        Some("{\"query_id\": 0, \"k\": 3, \"deadline_ms\": 0}"),
    );
    assert_eq!(status, 200, "degraded results are still 200s: {body}");
    let map = parse_object(&body);
    assert_eq!(map.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(
        map.get("reason").and_then(Value::as_str),
        Some("deadline"),
        "{body}"
    );
    let candidates = map
        .get("candidates")
        .and_then(Value::as_array)
        .expect("candidates array");
    let bounds: Vec<f64> = candidates
        .iter()
        .map(|c| match c.as_object().and_then(|c| c.get("bound")) {
            Some(Value::Number(n)) => *n,
            other => panic!("bad bound {other:?}"),
        })
        .collect();
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "candidates must be bound-ordered: {bounds:?}"
    );
    server.drain_and_join().unwrap();
}

#[test]
fn inflight_overflow_sheds_with_429_and_retry_after() {
    // max_inflight = 0: the very first admitted connection is over cap,
    // so every request sheds deterministically.
    let server = emd_serve::Server::start(
        common::snapshot(),
        emd_serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            max_inflight: 0,
        },
    )
    .unwrap();
    let addr = server.addr();
    for _ in 0..3 {
        let (status, headers, body) =
            common::raw_call(addr, "POST", "/v1/knn", Some("{\"query_id\": 0}"));
        assert_eq!(status, 429, "{body}");
        assert_eq!(common::header(&headers, "Retry-After"), Some("1"));
        let map = parse_object(&body);
        assert!(map.contains_key("error"), "shed body names the error");
    }
    server.drain_and_join().unwrap();
}

#[test]
fn bad_requests_get_typed_4xx_not_5xx() {
    let server = common::start(common::snapshot(), 1);
    let addr = server.addr();
    let cases: Vec<(&str, u16)> = vec![
        ("not json", 400),
        ("{\"query_id\": 99999, \"k\": 3}", 400),
        ("{\"query_id\": 0, \"k\": 0}", 400),
        ("{\"query_id\": 0, \"k\": 2, \"epsilon\": 1.0}", 400),
        ("{\"k\": 2}", 400),
        ("{\"weights\": [0.5, \"x\"], \"k\": 2}", 400),
    ];
    for (payload, expected) in cases {
        let (status, _, body) = common::raw_call(addr, "POST", "/v1/knn", Some(payload));
        assert_eq!(status, expected, "payload {payload}: {body}");
    }
    // Unknown route and wrong method.
    let (status, _, _) = common::raw_call(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = common::raw_call(addr, "GET", "/v1/knn", None);
    assert_eq!(status, 405);
    server.drain_and_join().unwrap();
}

#[test]
fn healthz_and_metrics_reflect_traffic() {
    let server = common::start(common::snapshot(), 2);
    let addr = server.addr();

    let (status, body) = http_call(addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
    assert_eq!(status, 200);
    let health = parse_object(&body);
    assert_eq!(
        health.get("schema").and_then(Value::as_str),
        Some(emd_serve::RESPONSE_SCHEMA)
    );
    assert_eq!(
        health.get("index").and_then(Value::as_str),
        Some("gaussian-test")
    );
    assert_eq!(
        health.get("objects"),
        Some(&Value::Number(common::OBJECTS as f64))
    );

    for id in 0..4 {
        let body = format!("{{\"query_id\": {id}, \"k\": 2}}");
        let (status, _, _) = common::raw_call(addr, "POST", "/v1/knn", Some(&body));
        assert_eq!(status, 200);
    }
    let (status, _, body) = common::raw_call(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = parse_object(&body);
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters object");
    let requests = match counters.get("serve.requests") {
        Some(Value::Number(n)) => *n,
        other => panic!("serve.requests missing: {other:?}"),
    };
    assert!(requests >= 4.0, "saw {requests} requests");
    assert!(counters.contains_key("serve.status.200"), "{body}");
    assert!(counters.contains_key("serve.shed"), "{body}");
    let histograms = metrics
        .get("histograms")
        .and_then(Value::as_object)
        .expect("histograms object");
    assert!(
        histograms.contains_key("serve.route.knn"),
        "per-route latency histogram: {body}"
    );
    // The in-flight gauge counts this very /metrics request.
    let gauges = metrics
        .get("gauges")
        .and_then(Value::as_object)
        .expect("gauges object");
    assert!(gauges.contains_key("serve.inflight"), "{body}");
    server.drain_and_join().unwrap();
}

#[test]
fn drain_finishes_queued_work_then_stops_accepting() {
    let server = common::start(common::snapshot(), 2);
    let addr = server.addr();
    let (status, _, _) = common::raw_call(addr, "POST", "/v1/knn", Some("{\"query_id\": 1}"));
    assert_eq!(status, 200);

    let (status, _, body) = common::raw_call(addr, "POST", "/admin/drain", None);
    assert_eq!(status, 202, "{body}");
    server.join().unwrap();

    // The listener is gone: new connections are refused (or reset).
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(stream) = refused {
        // The OS may still complete the handshake on a dying socket;
        // reading must then fail or return EOF immediately.
        let mut buf = [0u8; 1];
        use std::io::Read;
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        assert!(!matches!(stream.read(&mut buf), Ok(n) if n > 0));
    }
}
