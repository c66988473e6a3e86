//! The load: closed-loop feedback clients and the open-loop ingest
//! generator, each on its own thread, timing every call they make.

use crate::system::System;
use crate::trace::{Span, SpanLog};
use crate::workload::{Corpus, Spec, ROUNDS};
use qcluster_loadgen::{FleetPlan, IngestStream, SessionPlan, SoakConfig};
use qcluster_net::{Client, ClientConfig};
use qcluster_router::Router;
use qcluster_service::{NeighborDto, Request, Response, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions planned per client; a client that runs past them wraps.
const PLANNED_SESSIONS: usize = 100_000;
/// Request ids of ingests, apart from clients' `client << 40 | seq`.
const INGEST_REQUESTS: u64 = 1 << 63;

/// The operation kinds the benchmark counts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CreateSession`.
    Create,
    /// `Query` (example or refined).
    Query,
    /// `Feed`.
    Feed,
    /// `CloseSession`.
    Close,
    /// `Ingest`.
    Ingest,
}

impl Op {
    /// Every kind, in report order.
    pub const ALL: [Op; 5] = [Op::Create, Op::Query, Op::Feed, Op::Close, Op::Ingest];

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Query => "query",
            Op::Feed => "feed",
            Op::Close => "close",
            Op::Ingest => "ingest",
        }
    }
}

/// Attempted and failed counts per [`Op`]; succeeded = the difference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    attempted: [u64; 5],
    failed: [u64; 5],
}

impl OpCounts {
    fn note(&mut self, op: Op, ok: bool) {
        self.attempted[op as usize] += 1;
        if !ok {
            self.failed[op as usize] += 1;
        }
    }

    /// Adds another set of counts into this one.
    pub fn add(&mut self, other: &OpCounts) {
        for i in 0..5 {
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
        }
    }

    /// Attempts of one kind.
    pub fn attempted(&self, op: Op) -> u64 {
        self.attempted[op as usize]
    }

    /// Failures of one kind.
    pub fn failed(&self, op: Op) -> u64 {
        self.failed[op as usize]
    }

    /// Attempts over every kind.
    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    /// Failures over every kind.
    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// A feedback client's connection to the system.
pub enum Conn {
    /// One `qcluster-net` connection to a single node.
    Tcp(Client),
    /// The shared router of a cluster.
    Router(Arc<Router>),
}

impl Conn {
    /// Opens a client connection to the system's front end.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn open(system: &System) -> Result<Conn, String> {
        match &system.router {
            Some(router) => Ok(Conn::Router(Arc::clone(router))),
            None => Client::connect(system.nodes[0].addr, ClientConfig::default())
                .map(Conn::Tcp)
                .map_err(|e| format!("connect: {e}")),
        }
    }

    /// Sends one request: `Client::call` over TCP, or the matching
    /// `Router` method. Transport and router errors come back as `Err`.
    pub fn call(&mut self, request: Request) -> Result<Response, String> {
        match self {
            Conn::Tcp(client) => client.call(&request).map_err(|e| format!("net: {e}")),
            Conn::Router(router) => {
                let err = |e: qcluster_router::RouterError| format!("router: {e}");
                match request {
                    Request::CreateSession { engine } => router
                        .create_session(engine.as_deref())
                        .map(|session| Response::SessionCreated { session })
                        .map_err(err),
                    Request::Query {
                        session,
                        k,
                        vector,
                        deadline_ms,
                    } => router
                        .query(session, k, vector, deadline_ms)
                        .map(|report| report.response)
                        .map_err(err),
                    Request::Feed {
                        session,
                        relevant_ids,
                        scores,
                    } => router
                        .feed(session, &relevant_ids, scores.as_deref())
                        .map_err(err),
                    Request::CloseSession { session } => router
                        .close_session(session)
                        .map(|()| Response::SessionClosed { session })
                        .map_err(err),
                    Request::Ingest { vector } => router
                        .ingest(vector)
                        .map(|(id, total)| Response::Ingested { id, total })
                        .map_err(err),
                    other => Err(format!("not routed by the benchmark: {other:?}")),
                }
            }
        }
    }

    /// The span name of a call of kind `op` on this connection.
    fn span_name(&self, op: Op) -> &'static str {
        match (self, op) {
            (Conn::Tcp(_), Op::Create) => "net.call_create",
            (Conn::Tcp(_), Op::Query) => "net.call_query",
            (Conn::Tcp(_), Op::Feed) => "net.call_feed",
            (Conn::Tcp(_), Op::Close) => "net.call_close",
            (Conn::Tcp(_), Op::Ingest) => "net.call_ingest",
            (Conn::Router(_), Op::Create) => "router.create_session",
            (Conn::Router(_), Op::Query) => "router.query",
            (Conn::Router(_), Op::Feed) => "router.feed",
            (Conn::Router(_), Op::Close) => "router.close_session",
            (Conn::Router(_), Op::Ingest) => "router.ingest",
        }
    }
}

/// One query of a recorded session, with the feed that preceded it.
#[derive(Debug, Clone)]
pub struct Step {
    /// The marks fed before this query (`None` for the example query).
    pub fed: Option<(Vec<usize>, Vec<f64>)>,
    /// The answer the system served.
    pub served: Vec<NeighborDto>,
    /// Client-side duration of the query call, ns.
    pub query_ns: u64,
    /// Client-side duration of the preceding feed call, ns.
    pub feed_ns: u64,
    /// Server-side query time of the slowest node for this query, ns
    /// (router workloads, traced runs only).
    pub node_max_ns: u64,
    /// Request id of the query (spans of one request share it).
    pub request: u64,
}

/// A session whose every step was recorded for replay.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Client that ran it.
    pub client: usize,
    /// Position in that client's plan.
    pub index: usize,
    /// The example image.
    pub query_image: usize,
    /// Example query first, then one step per feedback round.
    pub steps: Vec<Step>,
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Example-query latencies, ms.
    pub first_query_ms: Vec<f64>,
    /// Feed + refined-query latencies, ms.
    pub round_ms: Vec<f64>,
    /// When each of those rounds completed.
    pub round_done: Vec<Instant>,
    /// Time spent marking answers, µs per round.
    pub oracle_us: Vec<f64>,
    /// Per-op counts.
    pub ops: OpCounts,
    /// `(sessions, precision sum)` per iteration over every session.
    pub precision: Vec<(u64, f64)>,
    /// Recorded sessions (the leading ones asked for).
    pub sessions: Vec<SessionRecord>,
    /// Sessions started.
    pub sessions_run: usize,
    /// When the client's last session ended.
    pub finished: Option<Instant>,
    /// `(queries, distance evaluations, node accesses)` as served.
    pub served_work: (u64, u64, u64),
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// How a phase of client load runs.
pub struct Phase<'a> {
    /// The system under load.
    pub system: &'a System,
    /// Labels the simulated user marks by.
    pub corpus: &'a Corpus,
    /// The workload.
    pub spec: &'a Spec,
    /// One plan per client.
    pub plans: &'a [Vec<SessionPlan>],
    /// First plan index per client.
    pub start: Vec<usize>,
    /// Stop after this many sessions per client...
    pub max_sessions: usize,
    /// ...or at this instant, whichever comes first.
    pub deadline: Option<Instant>,
    /// Leading sessions per client to record for replay.
    pub record: usize,
    /// Record spans (and per-node server time under a router).
    pub traced: bool,
    /// Span clock.
    pub epoch: Instant,
}

/// The seeded session plans, one per client. Identical to the plan
/// `qcluster_loadgen::offline_baseline` replays for the same seed.
pub fn plans(spec: &Spec, seed: u64, corpus_len: usize) -> Vec<Vec<SessionPlan>> {
    FleetPlan::build(&soak_config(spec, seed, PLANNED_SESSIONS), corpus_len)
        .users
        .into_iter()
        .map(|u| u.sessions)
        .collect()
}

/// The soak shape matching a workload: zero think time, no abandonment.
pub fn soak_config(spec: &Spec, seed: u64, sessions_per_user: usize) -> SoakConfig {
    SoakConfig {
        seed,
        users: spec.clients,
        sessions_per_user,
        iterations: ROUNDS,
        k: spec.k,
        think_ms: 0,
        abandon_per_mille: 0,
        ingest_per_sec: 0,
        deadline_ms: None,
        chaos: Vec::new(),
    }
}

/// Runs every client on its own thread until the phase ends.
///
/// # Errors
///
/// A client that cannot connect, or a panicked client thread.
pub fn run_clients(phase: &Phase<'_>) -> Result<Vec<ClientLog>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..phase.spec.clients)
            .map(|c| scope.spawn(move || run_client(phase, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

fn node_query_sums(services: &[&Service]) -> Vec<u64> {
    services
        .iter()
        .map(|s| s.metrics().query_latency.snapshot().sum_ns)
        .collect()
}

/// One client's connection plus everything that times and counts its
/// calls.
struct Caller<'a> {
    conn: Conn,
    client: usize,
    seq: u64,
    ops: OpCounts,
    spans: SpanLog,
    /// `(queries, distance evaluations, node accesses)` as served.
    served_work: (u64, u64, u64),
    /// Every node's service, when a router's per-node server time is
    /// sampled around each query.
    router_nodes: Vec<&'a Service>,
}

/// One answered call: the response (only when it is the expected,
/// undegraded kind), client-side ns, request id, and the slowest
/// node's server-side ns.
struct Answer {
    response: Option<Response>,
    ns: u64,
    request: u64,
    node_max_ns: u64,
}

impl Caller<'_> {
    fn call(&mut self, op: Op, request: Request) -> Answer {
        self.seq += 1;
        let id = ((self.client as u64) << 40) | self.seq;
        let before = (!self.router_nodes.is_empty() && op == Op::Query)
            .then(|| node_query_sums(&self.router_nodes));
        let span = self.conn.span_name(op);
        let conn = &mut self.conn;
        let (result, ns) = self.spans.time(span, id, None, || conn.call(request));
        let node_max_ns = before.map_or(0, |before| {
            node_query_sums(&self.router_nodes)
                .iter()
                .zip(&before)
                .map(|(a, b)| a.saturating_sub(*b))
                .max()
                .unwrap_or(0)
        });
        let ok = match (&result, op) {
            (Ok(Response::Neighbors { degraded, .. }), Op::Query) => !degraded,
            (Ok(Response::FeedAccepted { .. }), Op::Feed)
            | (Ok(Response::SessionCreated { .. }), Op::Create)
            | (Ok(Response::SessionClosed { .. }), Op::Close) => true,
            _ => false,
        };
        self.ops.note(op, ok);
        if let (true, Ok(Response::Neighbors { stats, .. })) = (ok, &result) {
            self.served_work.0 += 1;
            self.served_work.1 += stats.distance_evaluations;
            self.served_work.2 += stats.nodes_accessed;
        }
        Answer {
            response: ok.then(|| result.ok()).flatten(),
            ns,
            request: id,
            node_max_ns,
        }
    }
}

fn run_client(phase: &Phase<'_>, c: usize) -> Result<ClientLog, String> {
    let spec = phase.spec;
    let conn = Conn::open(phase.system)?;
    let mut caller = Caller {
        conn,
        client: c,
        seq: 0,
        ops: OpCounts::default(),
        spans: SpanLog::new(phase.epoch, phase.traced),
        served_work: (0, 0, 0),
        router_nodes: if phase.traced && phase.system.router.is_some() {
            phase.system.nodes.iter().map(|n| &*n.service).collect()
        } else {
            Vec::new()
        },
    };
    let mut log = ClientLog {
        precision: vec![(0, 0.0); ROUNDS + 1],
        ..ClientLog::default()
    };
    let plan = &phase.plans[c];

    let mut index = phase.start[c];
    while log.sessions_run < phase.max_sessions && phase.deadline.is_none_or(|d| Instant::now() < d)
    {
        let session_plan = &plan[index % plan.len()];
        let record = log.sessions_run < phase.record;
        let query_image = session_plan.query_image;
        log.sessions_run += 1;
        index += 1;

        let created = caller.call(Op::Create, Request::CreateSession { engine: None });
        let Some(Response::SessionCreated { session }) = created.response else {
            continue;
        };
        let mut steps = Vec::new();
        let answer = caller.call(
            Op::Query,
            Request::Query {
                session,
                k: spec.k,
                vector: Some(phase.system.point(query_image).to_vec()),
                deadline_ms: None,
            },
        );
        let mut served = neighbors(answer.response);
        if let Some(list) = &served {
            log.first_query_ms.push(answer.ns as f64 / 1e6);
            note_answer(&mut log, phase.corpus, query_image, 0, list, spec.k);
            if record {
                steps.push(Step {
                    fed: None,
                    served: list.clone(),
                    query_ns: answer.ns,
                    feed_ns: 0,
                    node_max_ns: answer.node_max_ns,
                    request: answer.request,
                });
            }
        }
        for round in 1..=ROUNDS {
            let Some(list) = served.take() else { break };
            let ids: Vec<usize> = list.iter().map(|n| n.id).collect();
            let t = Instant::now();
            let (marked_ids, scores) = phase.corpus.mark(query_image, &ids);
            log.oracle_us.push(t.elapsed().as_nanos() as f64 / 1e3);

            let fed = caller.call(
                Op::Feed,
                Request::Feed {
                    session,
                    relevant_ids: marked_ids.clone(),
                    scores: Some(scores.clone()),
                },
            );
            if fed.response.is_none() {
                break;
            }
            let answer = caller.call(
                Op::Query,
                Request::Query {
                    session,
                    k: spec.k,
                    vector: None,
                    deadline_ms: None,
                },
            );
            served = neighbors(answer.response);
            if let Some(list) = &served {
                log.round_ms.push((fed.ns + answer.ns) as f64 / 1e6);
                log.round_done.push(Instant::now());
                note_answer(&mut log, phase.corpus, query_image, round, list, spec.k);
                if record {
                    steps.push(Step {
                        fed: Some((marked_ids, scores)),
                        served: list.clone(),
                        query_ns: answer.ns,
                        feed_ns: fed.ns,
                        node_max_ns: answer.node_max_ns,
                        request: answer.request,
                    });
                }
            }
        }
        caller.call(Op::Close, Request::CloseSession { session });
        if record {
            log.sessions.push(SessionRecord {
                client: c,
                index: index - 1,
                query_image,
                steps,
            });
        }
    }
    log.finished = Some(Instant::now());
    log.ops = caller.ops;
    log.served_work = caller.served_work;
    log.spans = caller.spans.into_spans();
    Ok(log)
}

fn neighbors(answer: Option<Response>) -> Option<Vec<NeighborDto>> {
    match answer {
        Some(Response::Neighbors { neighbors, .. }) => Some(neighbors),
        _ => None,
    }
}

fn note_answer(
    log: &mut ClientLog,
    corpus: &Corpus,
    query_image: usize,
    iteration: usize,
    list: &[NeighborDto],
    k: usize,
) {
    let ids: Vec<usize> = list.iter().map(|n| n.id).collect();
    let slot = &mut log.precision[iteration];
    slot.0 += 1;
    slot.1 += corpus.precision(query_image, &ids, k);
}

/// What the ingest generator measured.
#[derive(Debug, Default)]
pub struct IngestLog {
    /// Completion minus due time, ms.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time, ms.
    pub late_ms: Vec<f64>,
    /// Acked `(id, vector)` pairs.
    pub acked: Vec<(usize, Vec<f64>)>,
    /// Ingest counts.
    pub ops: OpCounts,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// Sends the seeded ingest stream open-loop at `spec.ingest_per_s`:
/// request `i` is due `i / rate` after the start, whether or not
/// earlier ones have returned, and its latency runs from its due time.
///
/// # Errors
///
/// A target that cannot be reached at all.
pub fn run_ingest(
    system: &System,
    spec: &Spec,
    stream: &mut IngestStream<'_>,
    until: Instant,
    traced: bool,
    epoch: Instant,
) -> Result<IngestLog, String> {
    let mut conn = Conn::open(system)?;
    let span = conn.span_name(Op::Ingest);
    let mut log = IngestLog::default();
    let mut spans = SpanLog::new(epoch, traced);
    let interval = Duration::from_secs_f64(1.0 / f64::from(spec.ingest_per_s));
    let start = Instant::now();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        // A generator running behind stops at the window's end too:
        // requests due by then but never sent are not measured.
        if due >= until || Instant::now() >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let vector = stream.next_vector();
        let sent = Instant::now();
        let request = Request::Ingest {
            vector: vector.clone(),
        };
        let (result, _) = spans.time(span, INGEST_REQUESTS | i, None, || conn.call(request));
        let done = Instant::now();
        let ok = matches!(result, Ok(Response::Ingested { .. }));
        log.ops.note(Op::Ingest, ok);
        if let Ok(Response::Ingested { id, .. }) = result {
            log.latency_ms.push((done - due).as_secs_f64() * 1e3);
            log.late_ms.push((sent - due).as_secs_f64() * 1e3);
            log.acked.push((id, vector));
        }
    }
    log.spans = spans.into_spans();
    Ok(log)
}
