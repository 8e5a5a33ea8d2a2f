//! Shared snapshot builders and a tiny raw HTTP client for the serve
//! integration suites.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

use emd_data::gaussian::{self, GaussianParams};
use emd_query::{Database, EmdDistance, Executor, Filter, QueryPlan, ReducedEmdFilter};
use emd_reduction::{CombiningReduction, ReducedEmd};
use emd_serve::{RunningServer, ServeConfig, Server, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Bins in the synthetic corpus.
pub const DIM: usize = 12;
/// Reduced dimensionality of the filter stage.
pub const REDUCED: usize = 3;
/// Objects in the corpus (classes * per_class).
pub const OBJECTS: usize = 24;

/// A small deterministic gaussian corpus (24 objects, 12 bins).
pub fn database() -> Database {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let dataset = gaussian::generate(
        &GaussianParams {
            dim: DIM,
            num_classes: 4,
            per_class: 6,
            ..GaussianParams::default()
        },
        &mut rng,
    );
    assert_eq!(dataset.histograms.len(), OBJECTS);
    Database::new(dataset.histograms, Arc::new(dataset.cost)).unwrap()
}

/// The reduced EMD (12 -> 3 bins, contiguous groups) every suite filters by.
pub fn reduced(database: &Database) -> ReducedEmd {
    let assignment: Vec<usize> = (0..DIM).map(|i| i * REDUCED / DIM).collect();
    ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(assignment, REDUCED).unwrap(),
    )
    .unwrap()
}

/// The standard single-stage filter pipeline over [`database`].
pub fn executor(database: &Database) -> Executor {
    let stages: Vec<Box<dyn Filter>> = vec![Box::new(
        ReducedEmdFilter::new(database, reduced(database)).unwrap(),
    )];
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

/// A ready-to-serve snapshot over the deterministic corpus.
pub fn snapshot() -> Snapshot {
    let database = database();
    let executor = executor(&database);
    Snapshot {
        executor,
        database,
        name: "gaussian-test".to_owned(),
        faults: None,
        ingest: None,
    }
}

/// Start a server on an ephemeral port with `workers` workers.
pub fn start(snapshot: Snapshot, workers: usize) -> RunningServer {
    Server::start(
        snapshot,
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// One raw HTTP exchange, returning `(status, headers, body)` — unlike
/// `emd_serve::http::http_call` this keeps the headers, so tests can
/// assert on `Retry-After` and friends.
pub fn raw_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let headers = lines
        .map(|line| {
            let (name, value) = line.split_once(':').unwrap();
            (name.trim().to_owned(), value.trim().to_owned())
        })
        .collect();
    (status, headers, body.to_owned())
}

/// Case-insensitive header lookup over [`raw_call`]'s header list.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}
