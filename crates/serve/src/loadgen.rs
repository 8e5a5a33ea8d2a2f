//! A closed-loop load generator for the query server.
//!
//! `flexemd loadgen` drives a running server with a
//! deterministic seeded workload: each of `threads` client threads
//! issues its share of `requests` back-to-back (closed loop — a new
//! request starts only when the previous response has been fully read),
//! picking `query_id`s with a splitmix64 stream derived from the seed.
//! The workload is therefore reproducible request-for-request; only the
//! measured latencies and throughput reflect wall-clock.
//!
//! Responses are classified — exact, degraded, shed (429), client
//! error, server error — and summarized into a schema-versioned
//! ([`REPORT_SCHEMA`]) [`LoadgenReport`] with latency percentiles, the
//! document `flexemd loadgen --out` writes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::spec::QuerySpec;
use emd_json::{self as json, Value};

/// Schema tag of [`LoadgenReport::to_json_string`].
pub const REPORT_SCHEMA: &str = "flexemd-bench/v1";

/// Workload shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent closed-loop client threads.
    pub threads: usize,
    /// Total requests across all threads.
    pub requests: usize,
    /// Query shape sent with every request (k / epsilon / budget).
    pub spec: QuerySpec,
    /// Workload seed; the `query_id` sequence is a pure function of
    /// `(seed, thread, request index)`.
    pub seed: u64,
    /// Per-socket I/O timeout.
    pub io_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            requests: 64,
            spec: QuerySpec::default(),
            seed: 0x5EED,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Latency summary in microseconds over the successful (non-shed)
/// responses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

/// The outcome of one load generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Client threads used.
    pub threads: usize,
    /// Requests issued (= configured total).
    pub requests: usize,
    /// `200` responses with `"degraded": false`.
    pub ok: usize,
    /// `200` responses with `"degraded": true`.
    pub degraded: usize,
    /// `429` shed responses.
    pub shed: usize,
    /// Other `4xx` responses.
    pub client_errors: usize,
    /// `5xx` responses and transport failures.
    pub server_errors: usize,
    /// Latency percentiles over answered (non-shed) requests.
    pub latency: LatencySummary,
    /// Wall-clock duration of the whole run.
    pub elapsed_ms: u64,
    /// Answered requests per second of wall-clock.
    pub throughput_rps: f64,
}

impl LoadgenReport {
    /// Fraction of answered (`200`) responses that were degraded.
    #[must_use]
    pub fn degraded_rate(&self) -> f64 {
        let answered = self.ok + self.degraded;
        if answered == 0 {
            return 0.0;
        }
        self.degraded as f64 / answered as f64
    }

    /// Render the schema-versioned JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        json::write_escaped(&mut out, REPORT_SCHEMA);
        out.push_str(&format!(
            ",\"kind\":\"loadgen\",\"threads\":{},\"requests\":{},\"ok\":{},\"degraded\":{},\
             \"shed\":{},\"client_errors\":{},\"server_errors\":{},\"degraded_rate\":{},\
             \"elapsed_ms\":{},\"throughput_rps\":{},\"latency_us\":{{\"mean\":{},\"p50\":{},\
             \"p90\":{},\"p99\":{},\"max\":{}}}}}",
            self.threads,
            self.requests,
            self.ok,
            self.degraded,
            self.shed,
            self.client_errors,
            self.server_errors,
            self.degraded_rate(),
            self.elapsed_ms,
            self.throughput_rps,
            self.latency.mean_us,
            self.latency.p50_us,
            self.latency.p90_us,
            self.latency.p99_us,
            self.latency.max_us,
        ));
        out
    }
}

/// The splitmix64 step: a tiny, well-mixed deterministic stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One blocking HTTP exchange: connect, send, read the full response.
///
/// Returns `(status, body)`. The server closes after one response, so
/// the body is everything after the header/body separator.
///
/// # Errors
///
/// Returns [`ServeError::Io`] for transport failures and
/// [`ServeError::BadResponse`] when the response is not parseable HTTP.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    io_timeout: Duration,
) -> Result<(u16, String), ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    (&stream).write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    (&stream).read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Split a raw `Connection: close` response into status and body.
fn parse_response(raw: &[u8]) -> Result<(u16, String), ServeError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| ServeError::BadResponse("response is not UTF-8".to_owned()))?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(ServeError::BadResponse(
            "response has no header/body separator".to_owned(),
        ));
    };
    let status_line = head.lines().next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(ServeError::BadResponse(format!(
            "malformed status line `{status_line}`"
        )));
    };
    if !version.starts_with("HTTP/") {
        return Err(ServeError::BadResponse(format!(
            "malformed status line `{status_line}`"
        )));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| ServeError::BadResponse(format!("malformed status `{status}`")))?;
    Ok((status, body.to_owned()))
}

/// Ask `/healthz` how many objects the server's corpus holds.
///
/// # Errors
///
/// Returns [`ServeError`] when the server is unreachable or the health
/// document is malformed or reports an empty corpus.
pub fn discover_objects(addr: SocketAddr, io_timeout: Duration) -> Result<usize, ServeError> {
    let (status, body) = http_call(addr, "GET", "/healthz", None, io_timeout)?;
    if status != 200 {
        return Err(ServeError::BadResponse(format!(
            "/healthz returned status {status}"
        )));
    }
    let value = json::parse(&body).map_err(ServeError::BadResponse)?;
    let objects = value
        .get("objects")
        .and_then(Value::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| ServeError::BadResponse("/healthz lacks an `objects` count".to_owned()))?;
    if objects == 0 {
        return Err(ServeError::BadResponse(
            "server corpus is empty; nothing to query".to_owned(),
        ));
    }
    Ok(objects)
}

/// Per-request classification accumulated by each client thread.
#[derive(Debug, Default, Clone)]
struct ThreadTally {
    ok: usize,
    degraded: usize,
    shed: usize,
    client_errors: usize,
    server_errors: usize,
    latencies_us: Vec<u64>,
}

/// Build the request body for one workload query.
fn request_body(spec: &QuerySpec, query_id: u64) -> String {
    let mut body = format!("{{\"query_id\":{query_id}");
    if let Some(k) = spec.k {
        body.push_str(&format!(",\"k\":{k}"));
    }
    if let Some(epsilon) = spec.epsilon {
        body.push_str(&format!(",\"epsilon\":{epsilon}"));
    }
    if let Some(deadline) = spec.deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{deadline}"));
    }
    if let Some(pivots) = spec.max_pivots {
        body.push_str(&format!(",\"max_pivots\":{pivots}"));
    }
    body.push('}');
    body
}

fn classify(tally: &mut ThreadTally, status: u16, body: &str, latency_us: u64) {
    match status {
        200 => {
            tally.latencies_us.push(latency_us);
            let degraded = json::parse(body)
                .ok()
                .as_ref()
                .and_then(Value::as_object)
                .and_then(|object| object.get("degraded"))
                .map(|v| matches!(v, Value::Bool(true)))
                .unwrap_or(false);
            if degraded {
                tally.degraded += 1;
            } else {
                tally.ok += 1;
            }
        }
        429 => tally.shed += 1,
        400..=499 => tally.client_errors += 1,
        _ => tally.server_errors += 1,
    }
}

/// Run the workload against a live server and summarize it.
///
/// # Errors
///
/// Returns [`ServeError::BadAddr`] when the target address does not
/// resolve, and [`ServeError`] when `/healthz` discovery fails.
/// Individual request failures during the run are *not* errors — they
/// count into [`LoadgenReport::server_errors`].
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    let mut addrs = config
        .addr
        .to_socket_addrs()
        .map_err(|_| ServeError::BadAddr(config.addr.clone()))?;
    let Some(addr) = addrs.next() else {
        return Err(ServeError::BadAddr(config.addr.clone()));
    };
    // A server at zero capacity sheds even `/healthz`; the workload is
    // still worth running (it measures exactly that shedding), so fall
    // back to a one-object id space instead of erroring out.
    let objects = match discover_objects(addr, config.io_timeout) {
        Ok(objects) => objects,
        Err(ServeError::BadResponse(detail)) if detail.contains("status 429") => 1,
        Err(error) => return Err(error),
    };
    let threads = config.threads.max(1);
    let route = if config.spec.epsilon.is_some() {
        "/v1/range"
    } else {
        "/v1/knn"
    };

    let started = Instant::now();
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for thread in 0..threads {
            // Spread the total across threads; the first `remainder`
            // threads take one extra request.
            let share = config.requests / threads + usize::from(thread < config.requests % threads);
            let spec = config.spec;
            let seed = config.seed ^ ((thread as u64) << 32);
            handles.push(scope.spawn(move || {
                let mut tally = ThreadTally::default();
                let mut state = seed;
                for _ in 0..share {
                    let query_id = splitmix64(&mut state) % objects as u64;
                    let body = request_body(&spec, query_id);
                    let begun = Instant::now();
                    match http_call(addr, "POST", route, Some(&body), config.io_timeout) {
                        Ok((status, response_body)) => {
                            let micros =
                                u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX);
                            classify(&mut tally, status, &response_body, micros);
                        }
                        Err(_) => tally.server_errors += 1,
                    }
                }
                tally
            }));
        }
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_default())
            .collect()
    });
    let elapsed = started.elapsed();

    let mut totals = ThreadTally::default();
    for tally in tallies {
        totals.ok += tally.ok;
        totals.degraded += tally.degraded;
        totals.shed += tally.shed;
        totals.client_errors += tally.client_errors;
        totals.server_errors += tally.server_errors;
        totals.latencies_us.extend(tally.latencies_us);
    }
    totals.latencies_us.sort_unstable();

    let answered = totals.latencies_us.len();
    let latency = if answered == 0 {
        LatencySummary::default()
    } else {
        let sum: u128 = totals.latencies_us.iter().map(|&us| u128::from(us)).sum();
        LatencySummary {
            mean_us: sum as f64 / answered as f64,
            p50_us: percentile(&totals.latencies_us, 50),
            p90_us: percentile(&totals.latencies_us, 90),
            p99_us: percentile(&totals.latencies_us, 99),
            max_us: totals.latencies_us.last().copied().unwrap_or(0),
        }
    };
    let seconds = elapsed.as_secs_f64();
    Ok(LoadgenReport {
        threads,
        requests: config.requests,
        ok: totals.ok,
        degraded: totals.degraded,
        shed: totals.shed,
        client_errors: totals.client_errors,
        server_errors: totals.server_errors,
        latency,
        elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        throughput_rps: if seconds > 0.0 {
            answered as f64 / seconds
        } else {
            0.0
        },
    })
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted_us: &[u64], pct: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (sorted_us.len() - 1) * pct / 100;
    sorted_us.get(rank).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixed() {
        let mut a = 42;
        let mut b = 42;
        let first: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let second: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(first, second);
        let mut unique = first.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), first.len());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50), 50);
        assert_eq!(percentile(&samples, 99), 99);
        assert_eq!(percentile(&samples, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn request_body_carries_spec_fields() {
        let spec = QuerySpec {
            k: Some(3),
            epsilon: None,
            deadline_ms: Some(25),
            max_pivots: None,
        };
        let body = request_body(&spec, 17);
        let value = json::parse(&body).expect("valid body");
        let object = value.as_object().expect("object");
        assert!(matches!(object.get("query_id"), Some(Value::Number(n)) if *n == 17.0));
        assert!(matches!(object.get("k"), Some(Value::Number(n)) if *n == 3.0));
        assert!(matches!(object.get("deadline_ms"), Some(Value::Number(n)) if *n == 25.0));
        assert!(object.get("max_pivots").is_none());
    }

    #[test]
    fn classify_buckets_statuses() {
        let mut tally = ThreadTally::default();
        classify(&mut tally, 200, r#"{"degraded":false}"#, 10);
        classify(&mut tally, 200, r#"{"degraded":true}"#, 20);
        classify(&mut tally, 429, "", 1);
        classify(&mut tally, 400, "", 1);
        classify(&mut tally, 500, "", 1);
        assert_eq!(
            (
                tally.ok,
                tally.degraded,
                tally.shed,
                tally.client_errors,
                tally.server_errors
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(tally.latencies_us, vec![10, 20]);
    }

    #[test]
    fn report_json_is_schema_versioned_and_parseable() {
        let report = LoadgenReport {
            threads: 2,
            requests: 10,
            ok: 6,
            degraded: 2,
            shed: 2,
            client_errors: 0,
            server_errors: 0,
            latency: LatencySummary {
                mean_us: 120.5,
                p50_us: 100,
                p90_us: 200,
                p99_us: 300,
                max_us: 310,
            },
            elapsed_ms: 50,
            throughput_rps: 160.0,
        };
        let text = report.to_json_string();
        let value = json::parse(&text).expect("valid JSON");
        let object = value.as_object().expect("object");
        assert_eq!(
            object.get("schema").and_then(Value::as_str),
            Some(REPORT_SCHEMA)
        );
        assert!(
            matches!(object.get("degraded_rate"), Some(Value::Number(n)) if (*n - 0.25).abs() < 1e-12)
        );
        let latency = object
            .get("latency_us")
            .and_then(Value::as_object)
            .expect("latency object");
        assert!(matches!(latency.get("p99"), Some(Value::Number(n)) if *n == 300.0));
    }

    #[test]
    fn parse_response_extracts_status_and_body() {
        let (status, body) =
            parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"x\":1}")
                .expect("parses");
        assert_eq!(status, 429);
        assert_eq!(body, "{\"x\":1}");
        assert!(parse_response(b"not http at all").is_err());
    }
}
