//! The seeded, page-pruned quantized fan-out against the exact one.
//!
//! A quantized service reads the best-ranked pages across all shards
//! first and runs every shard leg under that seed bound, skipping pages
//! that cannot hold a global top-k point. The answers must stay the
//! exact scan's, ids and distance bits, over whole feedback sessions;
//! and when a leg fails or times out, the degraded answer must be the
//! exact top-k over the surviving shards, as it is without a seed.

use std::time::{Duration, Instant};

use qcluster_eval::synthetic::{semantic_gap_corpus, SemanticGapConfig};
use qcluster_failpoint::{self as failpoint, Action};
use qcluster_index::{merge_top_k, EuclideanQuery, Neighbor};
use qcluster_service::{
    Executor, Service, ServiceConfig, ShardFailureKind, ShardKind, ShardedCorpus,
};

/// A 24-d semantic-gap corpus: 60 categories of two 50-point modes, in
/// category order, so each of 4 shards holds 1,500 points (6 pages).
fn gap_corpus() -> (Vec<Vec<f64>>, Vec<usize>) {
    let (vectors, categories, _, _) = semantic_gap_corpus(&SemanticGapConfig {
        categories: 60,
        per_mode: 50,
        dim: 24,
        ..SemanticGapConfig::default()
    });
    (vectors, categories)
}

fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

fn service(points: &[Vec<f64>], kind: ShardKind) -> Service {
    Service::new(
        points,
        ServiceConfig {
            num_shards: 4,
            num_workers: 2,
            shard_kind: kind,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service")
}

/// Example query, then three rounds of marking the same-category hits,
/// feeding them and querying again: the quantized service answers every
/// step exactly as the scan service does, and skips pages doing it.
#[test]
fn quantized_service_equals_scan_service_over_feedback_sessions() {
    // Failpoints are process-global: hold the lock so the degraded test
    // cannot arm one under this test's queries.
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let (points, categories) = gap_corpus();
    let scan = service(&points, ShardKind::Scan);
    let quant = service(&points, ShardKind::Quantized);
    let k = 20;
    for example in [7usize, 2_345, 4_100, 5_999] {
        let category = categories[example];
        let s = scan.create_session().unwrap();
        let q = quant.create_session().unwrap();
        let mut want = scan.query_vector(s, points[example].clone(), k).unwrap();
        let got = quant.query_vector(q, points[example].clone(), k).unwrap();
        assert_eq!(
            bits(&got.neighbors),
            bits(&want.neighbors),
            "example {example}"
        );
        for round in 1..=3 {
            let marked: Vec<usize> = want
                .neighbors
                .iter()
                .map(|n| n.id)
                .filter(|&id| categories[id] == category)
                .collect();
            scan.feed_ids(s, &marked, None).unwrap();
            quant.feed_ids(q, &marked, None).unwrap();
            want = scan.query(s, k).unwrap();
            let got = quant.query(q, k).unwrap();
            assert_eq!(
                bits(&got.neighbors),
                bits(&want.neighbors),
                "example {example} round {round}"
            );
            assert!(!got.degraded());
        }
    }
    let gauges = quant.stats().quant;
    assert_eq!(gauges.plan_misses, 0);
    assert_eq!(gauges.fallback_rescans, 0);
    assert_eq!(
        gauges.pages,
        16 * 4 * 6,
        "16 queries over 4 shards of 6 pages"
    );
    assert!(
        gauges.pages_skipped * 2 > gauges.pages,
        "{} of {} pages skipped",
        gauges.pages_skipped,
        gauges.pages
    );
    assert_eq!(scan.stats().quant.pages, 0);
}

/// The exact top-k over `survivors`, each shard answered on its own.
fn unseeded_survivors(
    corpus: &ShardedCorpus,
    query: &EuclideanQuery,
    k: usize,
    survivors: &[usize],
) -> Vec<Neighbor> {
    let lists = survivors
        .iter()
        .map(|&i| corpus.shards()[i].knn(query, k, None).0)
        .collect();
    merge_top_k(lists, k)
}

/// A failed or timed-out quantized leg leaves a degraded answer equal to
/// the unseeded survivors' merge — also when the missing shard held the
/// seed page, which cuts the survivors short of their own top-k.
#[test]
fn degraded_quantized_answer_equals_unseeded_survivors() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let (points, _) = gap_corpus();
    let corpus = ShardedCorpus::build(&points, 4, ShardKind::Quantized);
    let executor = Executor::new(2).unwrap();
    let k = 30;
    // Point 2_000 lives in shard 1; its category's points seed the bound.
    let query = EuclideanQuery::new(points[2_000].clone());
    let healthy = executor.try_knn(&corpus, &query, k, None, None).unwrap();
    assert_eq!(
        bits(&healthy.neighbors),
        bits(&unseeded_survivors(&corpus, &query, k, &[0, 1, 2, 3]))
    );

    for failed in [1usize, 3] {
        let survivors: Vec<usize> = (0..4).filter(|&i| i != failed).collect();
        let want = unseeded_survivors(&corpus, &query, k, &survivors);
        let name = format!("executor.shard.{failed}");

        failpoint::configure(&name, Action::Error("chaos".into()));
        let report = executor.try_knn(&corpus, &query, k, None, None).unwrap();
        failpoint::remove(&name);
        assert_eq!(report.shards_ok, 3);
        assert!(matches!(
            report.failures[0].kind,
            ShardFailureKind::Failed(_)
        ));
        assert_eq!(
            bits(&report.neighbors),
            bits(&want),
            "shard {failed} failed"
        );

        failpoint::configure(&name, Action::Sleep(400));
        let deadline = Instant::now() + Duration::from_millis(150);
        let report = executor
            .try_knn(&corpus, &query, k, None, Some(deadline))
            .unwrap();
        failpoint::remove(&name);
        assert_eq!(report.shards_ok, 3);
        assert_eq!(report.failures[0].kind, ShardFailureKind::Timeout);
        assert_eq!(
            bits(&report.neighbors),
            bits(&want),
            "shard {failed} timed out"
        );
        // Let the sleeping leg drain before the next fan-out.
        std::thread::sleep(Duration::from_millis(300));
    }
    failpoint::clear_all();
}
