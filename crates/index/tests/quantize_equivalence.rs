//! Property tests pinning the two-phase quantized scan to the exact
//! linear scan, **bit-for-bit**.
//!
//! The contract under test: for any corpus and any diagonal-form query,
//! `QuantizedScan::two_phase_knn` returns the same neighbor ids in the
//! same order with the same `f64::to_bits` distances as
//! `LinearScan::knn`. Phase 1 may only ever *shrink* the rerank set —
//! never change the answer — and when the certified window is too small
//! the scan must fall back to an exact pass rather than return an
//! approximate top-k. The same holds for a scan within a bound
//! (`two_phase_knn_within`): it returns the exact top-k cut to the
//! bound, and scans seeded by one `seed_bound` across shards merge to
//! the exact global top-k, with whole pages skipped on page bounds.
//!
//! Four corpus shapes stress the bound where it is weakest:
//!
//! - generic random corpora (arbitrary dims, magnitudes up to 1e9);
//! - duplicate-heavy corpora (many exact ties at the same distance, so
//!   the `(distance, id)` tiebreak ordering is load-bearing);
//! - zero-range dimensions (constant columns quantize with `delta = 0`,
//!   exercising the inflation floor of the error bound);
//! - clustered multi-page corpora in corpus order, with a partial last
//!   page, where page bounds skip pages and the seed bound lands on
//!   tied duplicates.
//!
//! CI runs these with `PROPTEST_CASES=256` in the `quantize-equivalence`
//! job; the default is lighter for local `cargo test`.

use proptest::prelude::*;
use qcluster_index::{
    merge_top_k, seed_bound, BoundingBox, EuclideanQuery, LinearScan, Neighbor, QuantizedScan,
    QueryDistance, WeightedEuclideanQuery,
};

fn assert_same(got: &[Neighbor], want: &[Neighbor], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}", what);
    for (g, w) in got.iter().zip(want.iter()) {
        prop_assert_eq!(g.id, w.id, "{}", what);
        prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{}", what);
    }
    Ok(())
}

/// The exact top-`k` cut to distances `≤ bound`.
fn cut(mut neighbors: Vec<Neighbor>, bound: f64) -> Vec<Neighbor> {
    neighbors.retain(|n| n.distance <= bound);
    neighbors
}

/// Asserts the quantized scan answers `query` identically to the exact
/// scan for every `k` in `ks`: self-seeded, and within bounds at, above
/// and below the exact `k`-th distance — each at the default, a
/// one-slot (second-round forcing) and an oversized rerank window.
fn assert_equivalent<Q: QueryDistance>(
    points: &[Vec<f64>],
    query: &Q,
    ks: &[usize],
) -> Result<(), TestCaseError> {
    let exact = LinearScan::new(points);
    let quant = QuantizedScan::from_rows(points);
    for &k in ks {
        let want = exact.knn(query, k);
        let d_k = want.last().expect("non-empty corpus").distance;
        for window in [None, Some(1), Some(points.len() * 2)] {
            let what = format!("k={k} window={window:?}");
            let (got, stats) = quant.two_phase_knn(query, k, window);
            assert_same(&got, &want, &what)?;
            // A fallback rescan is allowed (it is how correctness is
            // certified when the window is too tight), but a plan miss
            // is not: these queries are all diagonal-form.
            prop_assert_eq!(stats.plan_misses, 0);
            prop_assert_eq!(stats.pages, quant.npages() as u64);
            // Ties exactly at τ0 and any bound above the k-th distance
            // leave the answer whole; a bound below it cuts it.
            for bound in [d_k, d_k * 2.0 + 1.0, f64::INFINITY, d_k * 0.5] {
                let (got, _) = quant.two_phase_knn_within(query, k, window, bound);
                assert_same(
                    &got,
                    &cut(want.clone(), bound),
                    &format!("{what} bound={bound}"),
                )?;
            }
        }
    }
    Ok(())
}

/// Asserts that scans over contiguous shards of `points`, each run
/// within one cross-shard `seed_bound`, merge to the exact top-`k`.
fn assert_seeded_shards_merge_exactly<Q: QueryDistance>(
    points: &[Vec<f64>],
    shards: usize,
    query: &Q,
    k: usize,
) -> Result<(), TestCaseError> {
    let want = LinearScan::new(points).knn(query, k);
    let chunk = points.len().div_ceil(shards);
    let scans: Vec<QuantizedScan> = points.chunks(chunk).map(QuantizedScan::from_rows).collect();
    let refs: Vec<&QuantizedScan> = scans.iter().collect();
    let (tau0, _) = seed_bound(&refs, query, k);
    prop_assert!(tau0 >= want.last().expect("non-empty").distance);
    let lists = scans
        .iter()
        .enumerate()
        .map(|(s, scan)| {
            let (mut list, _) = scan.two_phase_knn_within(query, k, None, tau0);
            for n in &mut list {
                n.id += s * chunk;
            }
            list
        })
        .collect();
    assert_same(&merge_top_k(lists, k), &want, "seeded shards")
}

/// A query without a quantized plan: every scan must run exact.
struct NoPlan(EuclideanQuery);

impl QueryDistance for NoPlan {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn distance(&self, x: &[f64]) -> f64 {
        self.0.distance(x)
    }
    fn min_distance(&self, b: &BoundingBox) -> f64 {
        self.0.min_distance(b)
    }
}

/// Vectors sharing one dimensionality.
fn uniform_points(max_dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1..max_dim + 1).prop_flat_map(move |dim| {
        prop::collection::vec(prop::collection::vec(-1.0e9..1.0e9f64, dim), 1..max_n)
    })
}

/// A corpus drawn from a tiny palette of distinct vectors, so most
/// points are exact duplicates and the top-k is decided by id ties.
fn duplicate_heavy_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..5)
        .prop_flat_map(|dim| {
            (
                prop::collection::vec(prop::collection::vec(-100.0..100.0f64, dim), 1..4),
                prop::collection::vec(0usize..4, 8..120),
            )
        })
        .prop_map(|(palette, picks)| {
            picks
                .into_iter()
                .map(|i| palette[i % palette.len()].clone())
                .collect()
        })
}

/// A corpus where a prefix of dimensions is constant (zero quantization
/// range) and the rest vary.
fn zero_range_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..4, 1usize..4)
        .prop_flat_map(|(flat_dims, live_dims)| {
            (
                prop::collection::vec(-1.0e6..1.0e6f64, flat_dims),
                prop::collection::vec(prop::collection::vec(-1.0e6..1.0e6f64, live_dims), 1..150),
            )
        })
        .prop_map(|(constants, live)| {
            live.into_iter()
                .map(|row| {
                    let mut v = constants.clone();
                    v.extend(row);
                    v
                })
                .collect()
        })
}

/// Tight blobs laid out in corpus order (so each page spans few blobs),
/// 2–4 pages with a partial last page, some points duplicated in place.
fn clustered_points() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (1usize..6, 257usize..800, 20usize..90, any::<u64>()).prop_map(|(dim, n, blob, seed)| {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut points: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut center = vec![0.0; dim];
        for i in 0..n {
            if i % blob == 0 {
                center = (0..dim).map(|_| rnd() * 100.0).collect();
            }
            if i % 7 == 3 {
                let dup = points[i - 1].clone();
                points.push(dup);
            } else {
                points.push(center.iter().map(|c| c + rnd() * 0.5).collect());
            }
        }
        let probe = (seed % n as u64) as usize;
        (points, probe)
    })
}

fn query_center(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e9..1.0e9f64, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random corpora, plain Euclidean queries: two-phase equals exact
    /// bit-for-bit at every k and window.
    #[test]
    fn two_phase_matches_exact_on_random_corpora(
        points in uniform_points(8, 300),
        seed in any::<u64>(),
    ) {
        let dim = points[0].len();
        let center: Vec<f64> = (0..dim)
            .map(|j| {
                // Derive a deterministic in-range query from the seed.
                let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(j as u32 * 7);
                ((h % 2_000_001) as f64 - 1_000_000.0) * 1.0e3
            })
            .collect();
        let query = EuclideanQuery::new(center);
        assert_equivalent(&points, &query, &[1, 3, 17])?;
    }

    /// Weighted queries (including zero weights, which collapse whole
    /// dimensions out of the distance) stay exact.
    #[test]
    fn two_phase_matches_exact_for_weighted_queries(
        points in uniform_points(6, 200),
        raw_weights in prop::collection::vec(0.0..10.0f64, 6),
        raw_center in query_center(6),
    ) {
        let dim = points[0].len();
        let query = WeightedEuclideanQuery::new(
            raw_center[..dim].to_vec(),
            raw_weights[..dim].to_vec(),
        );
        assert_equivalent(&points, &query, &[1, 8])?;
    }

    /// Duplicate-heavy corpora: massive distance ties force the
    /// `(distance, id)` ordering through both phases unchanged.
    #[test]
    fn two_phase_preserves_tie_order_on_duplicates(
        points in duplicate_heavy_points(),
        raw_center in query_center(4),
    ) {
        let dim = points[0].len();
        let query = EuclideanQuery::new(raw_center[..dim].to_vec());
        let n = points.len();
        assert_equivalent(&points, &query, &[1, 5, n])?;
    }

    /// Constant dimensions quantize with zero delta; the error bound's
    /// inflation floor must still certify exact results.
    #[test]
    fn two_phase_survives_zero_range_dimensions(
        points in zero_range_points(),
        raw_center in query_center(6),
    ) {
        let dim = points[0].len();
        let query = EuclideanQuery::new(raw_center[..dim].to_vec());
        assert_equivalent(&points, &query, &[1, 4, 23])?;
    }

    /// Clustered multi-page corpora: pages are skipped on their bounds,
    /// the seed lands on duplicates tied at τ0, and the answer stays
    /// exact self-seeded, within bounds, and merged across shards
    /// seeded by one cross-shard bound — k ≥ shard length included.
    #[test]
    fn page_pruned_scan_matches_exact_on_clustered_corpora(
        case in clustered_points(),
        weights in prop::collection::vec(0.0..4.0f64, 6),
    ) {
        let (points, probe) = case;
        let dim = points[0].len();
        let center = points[probe].clone();
        let plain = EuclideanQuery::new(center.clone());
        let n = points.len();
        assert_equivalent(&points, &plain, &[1, 50, n + 3])?;
        let weighted = WeightedEuclideanQuery::new(center, weights[..dim].to_vec());
        assert_equivalent(&points, &weighted, &[5])?;
        for shards in [1, 4] {
            for k in [1, 20, n] {
                assert_seeded_shards_merge_exactly(&points, shards, &plain, k)?;
            }
            assert_seeded_shards_merge_exactly(&points, shards, &weighted, 10)?;
        }
    }

    /// A query without a plan is a plan miss: answered exactly, and cut
    /// to the bound when one is given.
    #[test]
    fn plan_misses_answer_exactly(case in clustered_points()) {
        let (points, probe) = case;
        let query = NoPlan(EuclideanQuery::new(points[probe].clone()));
        let quant = QuantizedScan::from_rows(&points);
        let want = LinearScan::new(&points).knn(&query, 30);
        let (got, stats) = quant.two_phase_knn(&query, 30, None);
        prop_assert_eq!(stats.plan_misses, 1);
        assert_same(&got, &want, "self-seeded")?;
        let bound = want[10].distance;
        let (got, _) = quant.two_phase_knn_within(&query, 30, None, bound);
        assert_same(&got, &cut(want, bound), "within")?;
    }
}

/// On a clustered corpus a seeded scan skips most pages and still
/// answers exactly.
#[test]
fn seeded_scan_skips_pages_on_clustered_corpus() {
    let mut state = 7u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<Vec<f64>> = (0..8000)
        .map(|i| {
            let blob = (i / 100) as f64;
            vec![blob * 3.0 + rnd(), (blob * 7.0) % 50.0 + rnd(), rnd()]
        })
        .collect();
    let quant = QuantizedScan::from_rows(&points);
    let query = EuclideanQuery::new(points[4321].clone());
    let (got, stats) = quant.two_phase_knn(&query, 20, None);
    assert_eq!(got, LinearScan::new(&points).knn(&query, 20));
    assert_eq!(stats.pages, 32);
    assert!(
        stats.pages_skipped >= 24,
        "{} of 32 pages skipped",
        stats.pages_skipped
    );
    assert!(stats.phase1_points <= 8 * 256);
}
