//! Replays recorded sessions through each layer's public functions —
//! `dispatch`, `QclusterEngine::feed`/`query`, `Shard::knn`,
//! `merge_top_k` — timing every call, and checks that each replayed
//! answer equals the answer the system served.

use crate::load::{SessionRecord, Step};
use crate::system::{Node, System};
use crate::trace::{Span, SpanLog};
use crate::workload::Spec;
use qcluster_core::{FeedbackPoint, QclusterEngine};
use qcluster_index::{merge_top_k, EuclideanQuery, NodeCache, QueryDistance, SearchStats};
use qcluster_service::{dispatch, FanoutQuery, NeighborDto, Request, Response, ServiceConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Layer timings of one replayed query (and the feed before it).
#[derive(Debug, Clone, Default)]
pub struct QueryTiming {
    /// A refined query (after a feed) rather than the example query.
    pub refined: bool,
    /// Client-side call time of the served query, ns.
    pub call_ns: u64,
    /// Client-side call time of the served feed before it, ns.
    pub feed_call_ns: u64,
    /// In-process `dispatch` of the same query, ns (single node).
    pub dispatch_ns: u64,
    /// In-process `dispatch` of the same feed, ns (single node).
    pub dispatch_feed_ns: u64,
    /// `QclusterEngine::feed`, ns.
    pub core_feed_ns: u64,
    /// `QclusterEngine::query` (plan compile), ns.
    pub plan_ns: u64,
    /// `Shard::knn`, one entry per shard, ns.
    pub shard_ns: Vec<u64>,
    /// `merge_top_k`, ns.
    pub merge_ns: u64,
    /// Slowest node's server-side query time under a router, ns.
    pub node_max_ns: u64,
    /// Engine clusters after the feed.
    pub clusters: usize,
    /// Search work summed over shards.
    pub stats: SearchStats,
    /// Points in the shards the query addressed.
    pub points: u64,
}

/// What a replay produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// One entry per replayed query.
    pub timings: Vec<QueryTiming>,
    /// Spans of every timed call.
    pub spans: Vec<Span>,
    /// Answers compared.
    pub checked: usize,
    /// Human-readable mismatches (empty when correct).
    pub mismatches: Vec<String>,
}

/// The base corpus as the replay sees it: one node per partition.
struct Partitions<'a> {
    nodes: Vec<&'a Node>,
}

impl<'a> Partitions<'a> {
    fn of(system: &'a System) -> Partitions<'a> {
        let mut nodes: Vec<&Node> = Vec::new();
        for node in &system.nodes {
            if nodes.last().is_none_or(|n| n.id_base != node.id_base) {
                nodes.push(node);
            }
        }
        Partitions { nodes }
    }

    /// Labelled points in the base corpus.
    fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.service.corpus().len()).sum()
    }
}

/// One replayed session's engine and per-shard caches.
struct Replayer<'a> {
    parts: &'a Partitions<'a>,
    spans: SpanLog,
    k: usize,
    router: bool,
}

impl Replayer<'_> {
    /// Runs `query` through every shard and merges; returns the merged
    /// top-k with the timing fields filled in.
    fn knn(
        &mut self,
        query: &dyn FanoutQuery,
        caches: &mut [NodeCache],
        request: u64,
        timing: &mut QueryTiming,
    ) -> Vec<NeighborDto> {
        let parent = Some(if self.router {
            "router.query"
        } else {
            "service.dispatch_query"
        });
        let mut lists = Vec::new();
        let mut caches = caches.iter_mut();
        for node in &self.parts.nodes {
            for shard in node.service.corpus().shards() {
                let cache = caches.next().expect("one cache per shard");
                let ((mut list, stats), ns) =
                    self.spans.time("index.shard", request, parent, || {
                        shard.knn(query, self.k, Some(cache))
                    });
                timing.shard_ns.push(ns);
                for n in &mut list {
                    n.id += node.id_base;
                }
                add_stats(&mut timing.stats, &stats);
                timing.points += shard.len() as u64;
                lists.push(list);
            }
        }
        let k = self.k;
        let (merged, ns) = self
            .spans
            .time("index.merge", request, parent, || merge_top_k(lists, k));
        timing.merge_ns = ns;
        merged.into_iter().map(NeighborDto::from).collect()
    }
}

fn add_stats(into: &mut SearchStats, s: &SearchStats) {
    into.nodes_accessed += s.nodes_accessed;
    into.cache_hits += s.cache_hits;
    into.disk_reads += s.disk_reads;
    into.distance_evaluations += s.distance_evaluations;
    into.quant_phase1_points += s.quant_phase1_points;
    into.quant_reranked += s.quant_reranked;
    into.quant_fallbacks += s.quant_fallbacks;
    into.quant_plan_misses += s.quant_plan_misses;
}

/// Replays `sessions` and checks every answer.
///
/// On a single node each served answer must equal the replay exactly
/// (ids and distance bits), and so must an in-process `dispatch` of
/// the same requests on a fresh session of the same service. Under a
/// router, live ingests can join an answer while it runs, so the base
/// corpus part of each answer must equal the replay's leading entries
/// exactly, and every ingested entry must carry its exact distance
/// under the replayed query.
pub fn replay(
    sessions: &[SessionRecord],
    system: &System,
    spec: &Spec,
    ingested: &HashMap<usize, Vec<f64>>,
    epoch: Instant,
    keep_spans: bool,
) -> Replay {
    let parts = Partitions::of(system);
    let router = system.router.is_some();
    let mut replayer = Replayer {
        parts: &parts,
        spans: SpanLog::new(epoch, keep_spans),
        k: spec.k,
        router,
    };
    let mut out = Replay::default();
    let engine_config = ServiceConfig::default().engine;
    for session in sessions {
        let mut engine = QclusterEngine::new(engine_config);
        let mut caches: Vec<NodeCache> = parts
            .nodes
            .iter()
            .flat_map(|n| n.service.corpus().shards())
            .map(|s| NodeCache::new(s.num_nodes()))
            .collect();
        let mut shadow = (!router).then(|| Shadow::open(&parts.nodes[0].service));
        for (n, step) in session.steps.iter().enumerate() {
            let mut timing = QueryTiming {
                refined: step.fed.is_some(),
                call_ns: step.query_ns,
                feed_call_ns: step.feed_ns,
                node_max_ns: step.node_max_ns,
                ..QueryTiming::default()
            };
            let where_ = format!(
                "client {} session {} step {n}",
                session.client, session.index
            );
            if let Some(shadow) = shadow.as_mut() {
                match shadow.run(step, session, spec.k, &mut replayer.spans, &mut timing) {
                    Ok(answer) if same(&answer, &step.served) => {}
                    Ok(answer) => out.mismatches.push(format!(
                        "{where_}: in-process dispatch answered {:?}, TCP served {:?}",
                        ids(&answer),
                        ids(&step.served)
                    )),
                    Err(e) => out
                        .mismatches
                        .push(format!("{where_}: dispatch failed: {e}")),
                }
            }
            let query: Box<dyn FanoutQuery> = match &step.fed {
                None => Box::new(EuclideanQuery::new(
                    system.point(session.query_image).to_vec(),
                )),
                Some((ids, scores)) => {
                    let points: Vec<FeedbackPoint> = ids
                        .iter()
                        .zip(scores)
                        .map(|(&id, &score)| {
                            FeedbackPoint::new(id, system.point(id).to_vec(), score)
                        })
                        .collect();
                    let parent = Some(if router {
                        "router.feed"
                    } else {
                        "service.dispatch_feed"
                    });
                    let fed;
                    (fed, timing.core_feed_ns) =
                        replayer
                            .spans
                            .time("core.feed", step.request, parent, || engine.feed(&points));
                    timing.clusters = engine.num_clusters();
                    let parent = Some(if router {
                        "router.query"
                    } else {
                        "service.dispatch_query"
                    });
                    let plan;
                    (plan, timing.plan_ns) =
                        replayer
                            .spans
                            .time("core.plan", step.request, parent, || engine.query());
                    match fed.and(plan) {
                        Ok(query) => Box::new(query),
                        Err(e) => {
                            out.mismatches
                                .push(format!("{where_}: replay engine failed: {e}"));
                            break;
                        }
                    }
                }
            };
            let replayed = replayer.knn(&*query, &mut caches, step.request, &mut timing);
            out.checked += 1;
            let verdict = if router {
                check_routed(&step.served, &replayed, parts.len(), ingested, |v| {
                    query.distance(v)
                })
            } else if same(&step.served, &replayed) {
                Ok(())
            } else {
                Err(format!(
                    "served {:?}, replay {:?}",
                    ids(&step.served),
                    ids(&replayed)
                ))
            };
            if let Err(e) = verdict {
                out.mismatches.push(format!("{where_}: {e}"));
            }
            out.timings.push(timing);
        }
        if let Some(shadow) = shadow {
            shadow.close();
        }
    }
    out.spans = replayer.spans.into_spans();
    out
}

fn check_routed(
    served: &[NeighborDto],
    replayed: &[NeighborDto],
    base_len: usize,
    ingested: &HashMap<usize, Vec<f64>>,
    distance_of: impl Fn(&[f64]) -> f64,
) -> Result<(), String> {
    let base: Vec<NeighborDto> = served.iter().filter(|n| n.id < base_len).cloned().collect();
    if base.len() > replayed.len() || !same(&base, &replayed[..base.len()]) {
        return Err(format!(
            "base entries {:?} are not the replay's leading {:?}",
            ids(&base),
            ids(replayed)
        ));
    }
    for n in served.iter().filter(|n| n.id >= base_len) {
        let vector = ingested
            .get(&n.id)
            .ok_or_else(|| format!("served id {} was never acked", n.id))?;
        let expected = distance_of(vector);
        if expected.to_bits() != n.distance.to_bits() {
            return Err(format!(
                "ingested id {} served at distance {} but replays at {expected}",
                n.id, n.distance
            ));
        }
    }
    Ok(())
}

/// Same ids and bit-identical distances, in order.
fn same(a: &[NeighborDto], b: &[NeighborDto]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

fn ids(list: &[NeighborDto]) -> Vec<usize> {
    list.iter().map(|n| n.id).collect()
}

/// A fresh session on the served node, driven in-process through
/// `dispatch` with the same requests the client sent over TCP.
struct Shadow<'a> {
    service: &'a qcluster_service::Service,
    session: Result<u64, String>,
}

impl<'a> Shadow<'a> {
    fn open(service: &'a qcluster_service::Service) -> Shadow<'a> {
        let session = match dispatch(service, Request::CreateSession { engine: None }) {
            Response::SessionCreated { session } => Ok(session),
            other => Err(format!("create: {other:?}")),
        };
        Shadow { service, session }
    }

    fn run(
        &mut self,
        step: &Step,
        session: &SessionRecord,
        k: usize,
        spans: &mut SpanLog,
        timing: &mut QueryTiming,
    ) -> Result<Vec<NeighborDto>, String> {
        let sid = self.session.clone()?;
        let service = self.service;
        if let Some((ids, scores)) = &step.fed {
            let request = Request::Feed {
                session: sid,
                relevant_ids: ids.clone(),
                scores: Some(scores.clone()),
            };
            let response;
            (response, timing.dispatch_feed_ns) = spans.time(
                "service.dispatch_feed",
                step.request,
                Some("net.call_feed"),
                || dispatch(service, request),
            );
            if !matches!(response, Response::FeedAccepted { .. }) {
                return Err(format!("feed: {response:?}"));
            }
        }
        let request = Request::Query {
            session: sid,
            k,
            vector: step
                .fed
                .is_none()
                .then(|| service.corpus().point(session.query_image).to_vec()),
            deadline_ms: None,
        };
        let response;
        (response, timing.dispatch_ns) = spans.time(
            "service.dispatch_query",
            step.request,
            Some("net.call_query"),
            || dispatch(service, request),
        );
        match response {
            Response::Neighbors { neighbors, .. } => Ok(neighbors),
            other => Err(format!("query: {other:?}")),
        }
    }

    fn close(self) {
        if let Ok(session) = self.session {
            dispatch(self.service, Request::CloseSession { session });
        }
    }
}
