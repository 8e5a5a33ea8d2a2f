//! `gauss32-serve-mixed-1k`: reads beside writes through the whole stack.
//!
//! Gaussian 32 bins, 8 classes; FB-All from the k-medoids start, d' = 8,
//! |S| = 64. Set-up = `DurableIndex::create`, bulk-load 1 000 objects with
//! a group commit every 64, `compact()`. Every round restores that
//! directory, starts an in-process `emd_serve::Server` (2 workers, writable
//! through `IngestState`) and drives it with 2 closed-loop clients x 100
//! operations over `emd_serve::loadgen::http_call`: 80 % `POST /v1/knn`
//! (explicit weights, k = 10) and 20 % `POST /v1/insert` (200 = after the
//! fsync). Closed loop because each caller waits for its reply; 2 clients
//! because the box has 2 cores. Socket, parse, accept queue, the dynamic
//! snapshot's `LiveReducedFilter` scan, the per-insert fsync and the O(n)
//! snapshot publish are all on the path, so a gain for queries that costs
//! writers (or the reverse) shows in `queries_per_s`.
//!
//! Queries come from classes 0-4 and inserted objects from classes 6-7, a
//! class apart on the chain: every insert lengthens the stage-1 scan of
//! every later query, but none can enter a query's ten nearest, so answers
//! do not depend on how the two clients happen to interleave and can be
//! compared bit for bit between rounds. The gate checks exactly that
//! against an oracle over the final state.

use crate::gate::oracle_gate;
use crate::inputs::{
    gaussian32, gaussian32_training_sample, log_histogram, rng, train_fb_all, weights_body,
};
use crate::metrics::{Res, Values};
use crate::obsview::ObsView;
use crate::protocol::{
    round_queries_per_s, Checks, OpKind, OpSample, Round, Setup, StateDir, Workload, K,
};
use crate::spans::Tracer;
use crate::stats::percentile;
use emd_core::{CostMatrix, Histogram};
use emd_query::{Database, DurableIndex, EmdDistance, Executor, QueryPlan};
use emd_reduction::ReducedEmd;
use emd_serve::loadgen::http_call;
use emd_serve::{IngestState, ServeConfig, Server, Snapshot};
use emd_store::json::{self, Value};
use rand::seq::SliceRandom;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "gauss32-serve-mixed-1k";

const CLASSES: usize = 8;
const D_RED: usize = 8;
const CLIENTS: usize = 2;
/// Classes `0..=LAST_QUERY_CLASS` supply queries, `FIRST_INSERT_CLASS..`
/// supply inserted objects.
const LAST_QUERY_CLASS: u32 = 4;
const FIRST_INSERT_CLASS: u32 = 6;
const SYNC_EVERY: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct ServeMixed {
    bulk: usize,
    /// kNN and insert operations per client.
    knn_per_client: usize,
    inserts_per_client: usize,
    sample: usize,
}

struct Op {
    kind: OpKind,
    histogram: Histogram,
    body: String,
}

pub struct Plan {
    /// One operation sequence per client.
    clients: Vec<Vec<Op>>,
    bulk: Vec<Histogram>,
    cost: Arc<CostMatrix>,
    reduced: ReducedEmd,
}

impl ServeMixed {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            ServeMixed {
                bulk: 200,
                knn_per_client: 16,
                inserts_per_client: 4,
                sample: 16,
            }
        } else {
            ServeMixed {
                bulk: 1_000,
                knn_per_client: 80,
                inserts_per_client: 20,
                sample: 64,
            }
        }
    }

    /// kNN operations per round.
    #[cfg(test)]
    pub fn query_operations(&self) -> usize {
        CLIENTS * self.knn_per_client
    }

    /// One served round with `clients` callers; the plan's sequences are
    /// dealt to them round-robin, so one caller replays both in turn.
    fn serve_round(&self, plan: &Plan, dir: &Path, tracer: &Tracer, clients: usize) -> Res<Round> {
        let started = Instant::now();
        let reopen_span = tracer.enter("reopen");
        let (index, report) = {
            let _span = tracer.enter("durable.open");
            DurableIndex::open(dir)?
        };
        let ingest = Arc::new(IngestState::new(index)?);
        let server = {
            let _span = tracer.enter("serve.start");
            let server = Server::start(placeholder_snapshot(plan, &ingest)?, serve_config())?;
            while !matches!(
                http_call(server.addr(), "GET", "/healthz", None, IO_TIMEOUT),
                Ok((200, _))
            ) {
                std::thread::yield_now();
            }
            server
        };
        drop(reopen_span);
        let reopen = started.elapsed();
        let addr = server.addr();
        let stage_names = ingest
            .snapshot()
            .map(|s| super::stage_names(s.executor()))
            .unwrap_or_default();

        let mut ops: Vec<OpSample> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..clients)
                .map(|caller| {
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        for (client, sequence) in plan.clients.iter().enumerate() {
                            if client % clients == caller {
                                samples.extend(
                                    sequence
                                        .iter()
                                        .enumerate()
                                        .map(|(i, op)| call(addr, client, i, op)),
                                );
                            }
                        }
                        samples
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        ops.sort_by_key(|op| (op.client, op.index));
        for op in &ops {
            let name = if op.kind == OpKind::Knn {
                "http.knn"
            } else {
                "http.insert"
            };
            tracer.record(name, op.start, op.end, op.op_id());
        }

        let mut extras = Vec::new();
        let obs = if tracer.enabled() {
            let mut floor = f64::MAX;
            for _ in 0..50 {
                let begun = Instant::now();
                http_call(addr, "GET", "/healthz", None, IO_TIMEOUT)?;
                floor = floor.min(begun.elapsed().as_secs_f64() * 1e6);
            }
            extras.push(("serve.healthz_us", floor));
            extras.push(("durable.replayed_records", report.replayed_records as f64));
            let (status, body) = http_call(addr, "GET", "/metrics", None, IO_TIMEOUT)?;
            if status != 200 {
                return Err(format!("/metrics returned {status}").into());
            }
            Some(ObsView::from_metrics_json(&body)?)
        } else {
            None
        };
        server.drain_and_join()?;
        let live_objects = ingest.len();
        Ok(Round {
            reopen,
            ops,
            ingest: None,
            checks: Checks::default(),
            live_objects,
            obs,
            stage_names,
            extras,
        })
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: CLIENTS,
        ..ServeConfig::default()
    }
}

/// `Snapshot` wants a static executor/database pair even when every query
/// routes through the ingest state; one object satisfies it (the CLI's
/// `serve --wal` does the same).
fn placeholder_snapshot(plan: &Plan, ingest: &Arc<IngestState>) -> Res<Snapshot> {
    let database = Database::new(plan.bulk[..1].to_vec(), Arc::clone(&plan.cost))?;
    let executor = Executor::new(QueryPlan::new(
        Vec::new(),
        Box::new(EmdDistance::new(&database)?),
    )?);
    Ok(Snapshot {
        executor,
        database,
        name: NAME.to_owned(),
        faults: None,
        ingest: Some(Arc::clone(ingest)),
    })
}

/// One blocking HTTP exchange, timed from connect to the last byte of the
/// reply; the reply is parsed after the clock stops.
fn call(addr: SocketAddr, client: usize, index: usize, op: &Op) -> OpSample {
    let path = if op.kind == OpKind::Knn {
        "/v1/knn"
    } else {
        "/v1/insert"
    };
    let start = Instant::now();
    let reply = http_call(addr, "POST", path, Some(&op.body), IO_TIMEOUT);
    let end = Instant::now();
    let parsed = match reply {
        Ok((200, body)) => parse_reply(op.kind, &body),
        _ => None,
    };
    let (answer, refinements, ok) = match parsed {
        Some((answer, refinements)) => (answer, refinements, true),
        None => (Vec::new(), 0, false),
    };
    OpSample {
        kind: op.kind,
        client,
        index,
        start,
        end,
        answer,
        refinements,
        ok,
    }
}

/// `(answer, refinements)` of a 200 reply; `None` for a degraded answer, a
/// write that is not durable, or a body that is not what the route returns.
fn parse_reply(kind: OpKind, body: &str) -> Option<(Vec<(u64, u64)>, u64)> {
    let value = json::parse(body).ok()?;
    let object = value.as_object()?;
    let whole = |key: &str| match object.get(key) {
        Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    };
    match kind {
        OpKind::Insert => {
            (object.get("durable") == Some(&Value::Bool(true))).then_some(())?;
            Some((vec![(whole("id")?, 0)], 0))
        }
        OpKind::Knn => {
            (object.get("degraded") == Some(&Value::Bool(false))).then_some(())?;
            let neighbors = object.get("neighbors")?.as_array()?;
            let answer = neighbors
                .iter()
                .map(|neighbor| {
                    let neighbor = neighbor.as_object()?;
                    match (neighbor.get("id"), neighbor.get("distance")) {
                        (Some(Value::Number(id)), Some(Value::Number(distance))) => {
                            Some((*id as u64, distance.to_bits()))
                        }
                        _ => None,
                    }
                })
                .collect::<Option<Vec<_>>>()?;
            Some((answer, whole("refinements")?))
        }
    }
}

impl Workload for ServeMixed {
    type Plan = Plan;

    fn name(&self) -> &'static str {
        NAME
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn dim(&self) -> usize {
        32
    }

    fn setup(&self, seed: u64, dir: &Path, tracer: &Tracer) -> Res<Setup<Plan>> {
        let _setup = tracer.enter("setup");
        let recording = ObsView::record(tracer);
        let started = Instant::now();
        let (bulk, clients, sample, cost) = {
            let _span = tracer.enter("data.generate");
            let bulk_per_class = self.bulk.div_ceil(CLASSES);
            let queries_per_class =
                (CLIENTS * self.knn_per_client).div_ceil(LAST_QUERY_CLASS as usize + 1);
            let inserts_per_class =
                (CLIENTS * self.inserts_per_client).div_ceil(CLASSES - FIRST_INSERT_CLASS as usize);
            let per_class = bulk_per_class + queries_per_class.max(inserts_per_class);
            let dataset = gaussian32(CLASSES, per_class, &mut rng(seed, 0));
            let (mut bulk, mut queries, mut inserts) = (Vec::new(), Vec::new(), Vec::new());
            for (position, (histogram, &label)) in dataset
                .histograms
                .into_iter()
                .zip(&dataset.labels)
                .enumerate()
            {
                if position % per_class < bulk_per_class {
                    bulk.push(histogram);
                } else if label <= LAST_QUERY_CLASS {
                    queries.push(histogram);
                } else if label >= FIRST_INSERT_CLASS {
                    inserts.push(histogram);
                }
            }
            let mut draw = rng(seed, 1);
            bulk.shuffle(&mut draw);
            bulk.truncate(self.bulk);
            queries.shuffle(&mut draw);
            inserts.shuffle(&mut draw);
            let clients =
                (0..CLIENTS)
                    .map(|_| {
                        let knn = queries.drain(..self.knn_per_client).map(|histogram| Op {
                            kind: OpKind::Knn,
                            body: weights_body(&histogram, Some(K)),
                            histogram,
                        });
                        let mut sequence: Vec<Op> = knn.collect();
                        sequence.extend(inserts.drain(..self.inserts_per_client).map(
                            |histogram| Op {
                                kind: OpKind::Insert,
                                body: weights_body(&histogram, None),
                                histogram,
                            },
                        ));
                        sequence.shuffle(&mut draw);
                        sequence
                    })
                    .collect();
            let sample = gaussian32_training_sample(CLASSES, self.sample);
            (bulk, clients, sample, Arc::new(dataset.cost))
        };
        let generate = started.elapsed();

        let reduced = train_fb_all(&cost, &sample, D_RED, tracer)?;
        let mut index = {
            let _span = tracer.enter("durable.create");
            DurableIndex::create(dir, Arc::clone(&cost), reduced.clone())?
        };
        {
            let _span = tracer.enter("durable.bulk_load");
            for (loaded, histogram) in bulk.iter().enumerate() {
                index.append_insert(histogram.clone())?;
                if (loaded + 1) % SYNC_EVERY == 0 {
                    index.sync()?;
                }
            }
            index.sync()?;
        }
        {
            let _span = tracer.enter("durable.compact");
            index.compact()?;
        }
        Ok(Setup {
            objects: bulk.len(),
            plan: Plan {
                clients,
                bulk,
                cost,
                reduced,
            },
            generate,
            obs: ObsView::harvest(recording),
        })
    }

    fn round(&self, plan: &Plan, dir: &Path, tracer: &Tracer) -> Res<Round> {
        self.serve_round(plan, dir, tracer, CLIENTS)
    }

    fn gate(&self, plan: &Plan, dir: &Path, last: &Round) -> Res<Checks> {
        let mut checks = Checks::default();
        let (index, _) = DurableIndex::open(dir)?;
        // Every acknowledged insert survived the final reopen, under the id
        // the server returned, with the weights the client sent.
        for op in last.ops.iter().filter(|op| op.kind == OpKind::Insert) {
            let sent = &plan.clients[op.client][op.index].histogram;
            let stored = op.answer.first().and_then(|&(id, _)| index.get(id));
            checks.expect(stored == Some(sent), || {
                format!(
                    "insert {}/{} is not in the reopened index",
                    op.client, op.index
                )
            });
        }
        // Oracles over the final state: bulk-loaded and inserted objects.
        let external: Vec<u64> = (0..plan.bulk.len() as u64 + last.ops.len() as u64)
            .filter(|&id| index.get(id).is_some())
            .collect();
        checks.expect(external.len() == index.len(), || {
            "live ids are not contiguous".to_owned()
        });
        let objects: Vec<Histogram> = external
            .iter()
            .filter_map(|&id| index.get(id).cloned())
            .collect();
        let database = Database::new(objects, Arc::clone(&plan.cost))?;
        let probes: Vec<_> = last
            .ops
            .iter()
            .filter(|op| op.kind == OpKind::Knn)
            .map(|op| {
                (
                    &plan.clients[op.client][op.index].histogram,
                    op.answer.as_slice(),
                )
            })
            .collect();
        oracle_gate(&database, &plan.reduced, &external, &probes, &mut checks)?;
        Ok(checks)
    }

    fn op_log(&self, plan: &Plan) -> Vec<u8> {
        let mut log = Vec::new();
        for sequence in &plan.clients {
            for op in sequence {
                log.push(op.kind as u8);
                log_histogram(&mut log, &op.histogram);
                log.extend_from_slice(op.body.as_bytes());
            }
        }
        log
    }

    fn trace_extras(&self, plan: &Plan, dir: &StateDir, layers: &mut Values) -> Res<()> {
        let quiet = Tracer::new(false);
        // The same sequences through one caller, then through two.
        dir.restore()?;
        let one = round_queries_per_s(1, &self.serve_round(plan, dir.path(), &quiet, 1)?);
        dir.restore()?;
        let two = round_queries_per_s(
            CLIENTS,
            &self.serve_round(plan, dir.path(), &quiet, CLIENTS)?,
        );
        layers.set("serve.qps_c1", one);
        layers.set("serve.qps_c2", two);
        layers.set("serve.scaling_c2_over_c1", two / one);

        // The same queries without the server, and against a static
        // Red-EMD scan over the same objects.
        dir.restore()?;
        let (index, _) = DurableIndex::open(dir.path())?;
        let started = Instant::now();
        let snapshot = index.snapshot()?;
        layers.set("durable.snapshot_us", started.elapsed().as_secs_f64() * 1e6);
        let queries: Vec<&Histogram> = plan.clients[0]
            .iter()
            .filter(|op| op.kind == OpKind::Knn)
            .map(|op| &op.histogram)
            .take(60)
            .collect();
        let mut local_ms = Vec::new();
        for query in &queries {
            let begun = Instant::now();
            std::hint::black_box(snapshot.knn(query, K)?);
            local_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        }
        local_ms.sort_by(f64::total_cmp);
        layers.set("serve.local_knn_p50_ms", percentile(&local_ms, 0.5));
        let database = Database::new(plan.bulk.clone(), Arc::clone(&plan.cost))?;
        let ratio = super::dynamic_vs_static(&snapshot, &database, &plan.reduced, &queries)?;
        layers.set("dynamic.knn_vs_static_ratio", ratio);
        Ok(())
    }
}
