//! Per-layer metrics of a traced run: span means, self times, and
//! deltas of the counters the system exports through `Stats`.
//!
//! A client call is the server's own time for the op plus transport.
//! The server's time comes from its `Stats` sums over the same traced
//! phase, so it carries the load's queueing and core contention. Its
//! children, timed by the replay, follow the served schedule: plan
//! compile, then the shard legs in parallel (the executor fans them
//! out at once, so they count once, as the slowest), then the merge.

use crate::load::{ClientLog, IngestLog};
use crate::metrics::Values;
use crate::replay::QueryTiming;
use crate::stats::{mean, percentile};
use crate::trace::self_time_ns;
use qcluster_service::{ClusterGauges, MetricsSnapshot, StorageGauges};

/// Service-side counters read before and after the traced phase.
pub struct Snapshots {
    /// The front end: the single node, or every partition leader
    /// aggregated by the router.
    pub service: MetricsSnapshot,
    /// The ingest partition's leader (`None` on a single node).
    pub store: Option<MetricsSnapshot>,
    /// The router's own gauges (`None` on a single node).
    pub cluster: Option<ClusterGauges>,
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// Replayed queries of the traced phase.
    pub timings: &'a [QueryTiming],
    /// Client logs of the traced phase.
    pub clients: &'a [ClientLog],
    /// Ingest log of the traced phase.
    pub ingest: &'a IngestLog,
    /// Counters before the traced phase.
    pub before: &'a Snapshots,
    /// Counters after it.
    pub after: &'a Snapshots,
    /// `Service::ingest` times on a scratch durable service, ns.
    pub store_ingest_ns: &'a [u64],
    /// Rounds per second of the untraced and the traced phase.
    pub rounds_per_s: (f64, f64),
    /// Whether a router fronts the system.
    pub router: bool,
    /// Whether the workload has an ingest stream.
    pub ingesting: bool,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counter delta between two snapshots of one node.
fn d(after: u64, before: u64) -> u64 {
    after.saturating_sub(before)
}

fn per(delta_sum: u64, delta_count: u64) -> f64 {
    ratio(delta_sum, delta_count) / 1e3
}

/// Time a query's replayed children take on the served schedule: plan
/// compile, then the shard legs in parallel (counted once, as the
/// slowest), then the merge.
pub fn query_children_ns(t: &QueryTiming) -> u64 {
    t.plan_ns + shard_max_ns(t) + t.merge_ns
}

/// Transport time of one call, ns: the mean client call less the
/// server's own mean time for the same op over the same phase.
fn transport_ns(mean_call_ns: f64, server_us: f64) -> u64 {
    (mean_call_ns - server_us * 1e3).max(0.0) as u64
}

/// What a parent lasting `parent_ns` on average spends outside its
/// children, which last `children_ns` on average; children that
/// outlast the parent clip it to 0.
fn self_mean_ns(parent_ns: f64, children_ns: f64) -> f64 {
    (parent_ns - children_ns).max(0.0)
}

fn shard_max_ns(t: &QueryTiming) -> u64 {
    t.shard_ns.iter().copied().max().unwrap_or(0)
}

/// Computes every per-layer metric.
///
/// # Errors
///
/// An ingest percentile without enough samples beyond it, on a
/// workload with an ingest stream.
pub fn per_layer(tr: &Traced<'_>) -> Result<Values, String> {
    let mut v = Values::new();
    let q = tr.timings;
    let refined: Vec<&QueryTiming> = q.iter().filter(|t| t.refined).collect();
    let (b, a) = (&tr.before.service, &tr.after.service);

    // net: client round trips and what dispatch does not explain.
    let net = !tr.router;
    let when_net = |x: f64| if net { x } else { 0.0 };
    v.insert("net.call_query_us", when_net(mean_of(q, |t| us(t.call_ns))));
    v.insert(
        "net.call_feed_us",
        when_net(mean_of(&refined, |t| us(t.feed_call_ns))),
    );
    v.insert(
        "net.sheds",
        d(a.transport.write_queue_sheds, b.transport.write_queue_sheds) as f64,
    );
    v.insert(
        "net.decode_errors",
        d(a.transport.decode_errors, b.transport.decode_errors) as f64,
    );

    // service: in-process dispatch plus the server's own sums.
    v.insert(
        "service.dispatch_query_us",
        when_net(mean_of(q, |t| us(t.dispatch_ns))),
    );
    v.insert(
        "service.dispatch_feed_us",
        when_net(mean_of(&refined, |t| us(t.dispatch_feed_ns))),
    );
    v.insert(
        "service.query_us",
        per(
            d(a.query.sum_ns, b.query.sum_ns),
            d(a.query.count, b.query.count),
        ),
    );
    v.insert(
        "service.feed_us",
        per(
            d(a.feed.sum_ns, b.feed.sum_ns),
            d(a.feed.count, b.feed.count),
        ),
    );
    v.insert(
        "service.fanout_us",
        per(
            d(a.fanout.sum_ns, b.fanout.sum_ns),
            d(a.fanout.count, b.fanout.count),
        ),
    );
    let shard_sum = |s: &MetricsSnapshot| s.shard_latency.mean_ns * s.shard_latency.count as f64;
    let shard_count = d(a.shard_latency.count, b.shard_latency.count);
    v.insert(
        "service.shard_us",
        if shard_count == 0 {
            0.0
        } else {
            (shard_sum(a) - shard_sum(b)) / shard_count as f64 / 1e3
        },
    );
    // Transport is what the client waited beyond the server's own
    // time, both from the served phase; the server's time less the
    // replayed children is the service's self time, so queueing and
    // core contention under load stay in the service.
    let net_query_ns = transport_ns(mean_of(q, |t| t.call_ns as f64), v["service.query_us"]);
    let net_feed_ns = transport_ns(
        mean_of(&refined, |t| t.feed_call_ns as f64),
        v["service.feed_us"],
    );
    v.insert("net.self_us", when_net(us(net_query_ns)));
    v.insert(
        "service.self_us",
        when_net(
            self_mean_ns(
                v["service.query_us"] * 1e3,
                mean_of(q, |t| query_children_ns(t) as f64),
            ) / 1e3,
        ),
    );
    let plan_hits = d(a.plan_cache_hits, b.plan_cache_hits);
    let plan_lookups = plan_hits + d(a.plan_cache_misses, b.plan_cache_misses);
    v.insert(
        "service.plan_cache_hit_ratio",
        ratio(plan_hits, plan_lookups),
    );
    v.insert("service.plan_cache_lookups", plan_lookups as f64);
    let node_hits = d(a.cache_hits, b.cache_hits);
    v.insert(
        "service.node_cache_hit_ratio",
        ratio(node_hits, node_hits + d(a.cache_misses, b.cache_misses)),
    );

    // core: the engine, replayed.
    v.insert("core.feed_us", mean_of(&refined, |t| us(t.core_feed_ns)));
    v.insert("core.plan_us", mean_of(&refined, |t| us(t.plan_ns)));
    v.insert("core.clusters", mean_of(&refined, |t| t.clusters as f64));

    // index: shard legs and merge, replayed; work as served.
    let legs: Vec<f64> = q
        .iter()
        .flat_map(|t| t.shard_ns.iter().map(|&n| us(n)))
        .collect();
    v.insert("index.shard_us", mean(&legs));
    v.insert("index.shard_max_us", mean_of(q, |t| us(shard_max_ns(t))));
    v.insert("index.merge_us", mean_of(q, |t| us(t.merge_ns)));
    let (served_queries, served_evals, served_nodes) =
        tr.clients.iter().fold((0, 0, 0), |acc, c| {
            (
                acc.0 + c.served_work.0,
                acc.1 + c.served_work.1,
                acc.2 + c.served_work.2,
            )
        });
    v.insert("index.distance_evals", ratio(served_evals, served_queries));
    v.insert("index.node_accesses", ratio(served_nodes, served_queries));
    let queries = d(a.query.count, b.query.count);
    v.insert(
        "index.phase1_points",
        ratio(d(a.quant.phase1_points, b.quant.phase1_points), queries),
    );
    v.insert(
        "index.reranked",
        ratio(d(a.quant.reranked, b.quant.reranked), queries),
    );
    v.insert(
        "index.rescans",
        d(a.quant.fallback_rescans, b.quant.fallback_rescans) as f64,
    );
    // Points a query touched: phase-1 bounds on quantized shards,
    // exact distances elsewhere.
    let touched: u64 = q
        .iter()
        .map(|t| {
            if t.stats.quant_phase1_points > 0 {
                t.stats.quant_phase1_points
            } else {
                t.stats.distance_evaluations
            }
        })
        .sum();
    let addressed: u64 = q.iter().map(|t| t.points).sum();
    v.insert("index.pruned_fraction", 1.0 - ratio(touched, addressed));

    // store: the ingest path's durable writes.
    let storage = |f: fn(&StorageGauges) -> u64| match (&tr.before.store, &tr.after.store) {
        (Some(b), Some(a)) => d(f(&a.storage), f(&b.storage)),
        _ => 0,
    };
    let acked = tr.ingest.acked.len() as u64;
    v.insert(
        "store.ingest_us",
        mean(
            &tr.store_ingest_ns
                .iter()
                .map(|&n| us(n))
                .collect::<Vec<_>>(),
        ),
    );
    v.insert(
        "store.wal_fsyncs_per_ingest",
        ratio(storage(|g| g.wal_fsyncs), acked),
    );
    v.insert("store.index_rebuilds", storage(|g| g.index_rebuilds) as f64);

    // ingest: the open-loop stream, timed from each request's due time.
    let ingest_pct = |p: f64| -> Result<f64, String> {
        if tr.ingesting {
            percentile(&tr.ingest.latency_ms, p).map(|x| x.value)
        } else {
            Ok(0.0)
        }
    };
    v.insert("ingest.p50_ms", ingest_pct(50.0)?);
    v.insert("ingest.p90_ms", ingest_pct(90.0)?);

    // router: scatter/merge around the slowest node.
    let when_router = |x: f64| if tr.router { x } else { 0.0 };
    v.insert(
        "router.query_us",
        when_router(mean_of(q, |t| us(t.call_ns))),
    );
    v.insert(
        "router.feed_us",
        when_router(mean_of(&refined, |t| us(t.feed_call_ns))),
    );
    v.insert(
        "router.ingest_us",
        when_router(mean_of(&tr.ingest.spans, |s| s.dur_us())),
    );
    v.insert(
        "router.self_us",
        when_router(mean_of(q, |t| {
            us(self_time_ns(0, t.call_ns, &[(0, t.node_max_ns)]))
        })),
    );
    let gauge = |f: fn(&ClusterGauges) -> u64| match (&tr.before.cluster, &tr.after.cluster) {
        (Some(b), Some(a)) => d(f(a), f(b)) as f64,
        _ => 0.0,
    };
    v.insert("router.stale_reads", gauge(|g| g.stale_reads));
    v.insert("router.ryw_fallbacks", gauge(|g| g.ryw_leader_fallbacks));
    v.insert("router.fenced_ships", gauge(|g| g.fenced_stale_ships));
    v.insert(
        "router.anti_entropy_chunks",
        gauge(|g| g.anti_entropy_chunks_shipped),
    );

    // round: one feed + refined query split into layer self times.
    // Transport per call is the mean over every query of the phase;
    // the rest of a refined call is the server's, less its replayed
    // children. On a single node the layers add up to the client's
    // round time; the residual is what clipping removed (replayed
    // children that outlast the server's own time on average).
    let mean_ns = |f: fn(&QueryTiming) -> u64| mean_of(&refined, |t| f(t) as f64);
    let round_ns = mean_ns(|t| t.feed_call_ns + t.call_ns);
    let net_ns = (net_query_ns + net_feed_ns) as f64;
    let service_ns = self_mean_ns(
        mean_ns(|t| t.call_ns) - net_query_ns as f64,
        mean_ns(query_children_ns),
    ) + self_mean_ns(
        mean_ns(|t| t.feed_call_ns) - net_feed_ns as f64,
        mean_ns(|t| t.core_feed_ns),
    );
    let core_ns = mean_ns(|t| t.core_feed_ns + t.plan_ns);
    let index_ns = mean_ns(|t| shard_max_ns(t) + t.merge_ns);
    v.insert("round.client_us", round_ns / 1e3);
    v.insert("round.net_self_us", when_net(net_ns / 1e3));
    v.insert("round.service_self_us", when_net(service_ns / 1e3));
    v.insert("round.core_self_us", core_ns / 1e3);
    v.insert("round.index_self_us", index_ns / 1e3);
    v.insert(
        "round.residual_us",
        when_net((round_ns - net_ns - service_ns - core_ns - index_ns) / 1e3),
    );

    // The benchmark's own client.
    let oracle: Vec<f64> = tr
        .clients
        .iter()
        .flat_map(|c| c.oracle_us.iter().copied())
        .collect();
    v.insert("client.oracle_us", mean(&oracle));
    v.insert("client.ingest_late_ms", mean(&tr.ingest.late_ms));
    let (untraced, traced) = tr.rounds_per_s;
    v.insert("trace.overhead_pct", 100.0 * (untraced - traced) / untraced);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_children_count_parallel_legs_once() {
        let t = QueryTiming {
            plan_ns: 100,
            shard_ns: vec![300, 200, 250, 100],
            merge_ns: 50,
            ..QueryTiming::default()
        };
        // 100 + slowest leg 300 + 50.
        assert_eq!(query_children_ns(&t), 450);
        assert_eq!(self_mean_ns(1_000.0, 450.0), 550.0);
        // Children that outlast their parent clip it to 0.
        assert_eq!(self_mean_ns(400.0, 450.0), 0.0);
    }

    #[test]
    fn round_layers_add_up_to_the_round() {
        let t = QueryTiming {
            refined: true,
            call_ns: 2_000,
            feed_call_ns: 800,
            core_feed_ns: 300,
            plan_ns: 100,
            shard_ns: vec![300, 200],
            merge_ns: 50,
            ..QueryTiming::default()
        };
        // The server spent 1 µs on the query and 0.5 µs on the feed.
        let net_query = transport_ns(2_000.0, 1.0);
        let net_feed = transport_ns(800.0, 0.5);
        assert_eq!((net_query, net_feed), (1_000, 300));
        let service = self_mean_ns(1_000.0, query_children_ns(&t) as f64)
            + self_mean_ns(500.0, t.core_feed_ns as f64);
        let core = 300.0 + 100.0;
        let index = 300.0 + 50.0;
        assert_eq!(
            (net_query + net_feed) as f64 + service + core + index,
            2_000.0 + 800.0
        );
    }
}
