//! Exact-vs-two-phase quantized scan comparison, machine-readable.
//!
//! Three experiments:
//!
//! - **in-memory** (1M points, g=4, d=24 — the kernel bench's headline
//!   configuration): full exact tile-kernel k-NN versus the two-phase
//!   scan (u8 phase-1 filter + exact rerank) over the same corpus, with
//!   bit-for-bit equality asserted on every rep. The corpus interleaves
//!   its modes point by point, so every 256-point page spans all of
//!   them and page bounds skip nothing: the acceptance bar is **≥3×
//!   speedup** from the u8 column alone — phase 1 reads 8× fewer bytes
//!   per point.
//! - **clustered** (same size and modes, stored mode by mode): pages are
//!   tight, so the scan skips whole pages on their bounds; the skipped
//!   fraction is recorded next to the speedup.
//! - **segment-scale** (10M points): seal a synthetic corpus into a
//!   format-v2 segment on disk (the `dataset-tool synth` path), time the
//!   zero-copy load into a `QuantizedScan`, and time both query forms at
//!   a scale where the corpus (~1.9 GB exact + 240 MB codes) is far out
//!   of cache.
//!
//! Results go to `BENCH_quantize.json` in the working directory with the
//! shared host fingerprint; `-- --test` runs a smoke pass at toy sizes
//! without writing the JSON, and asserts that the clustered toy corpus
//! skips pages.

use qcluster_bench::{host_fingerprint_json, synth_segment};
use qcluster_core::{Cluster, CovarianceScheme, DisjunctiveQuery, FeedbackPoint};
use qcluster_index::{default_rerank_window, Neighbor, QuantizedScan, QUANT_PAGE_POINTS};
use qcluster_store::load_segment_quantized;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const FULL_N: usize = 1_000_000;
const FULL_SEGMENT_N: u64 = 10_000_000;
const SMOKE_N: usize = 4_096;
const SMOKE_SEGMENT_N: u64 = 20_000;
const G: usize = 4;
const D: usize = 24;
const K: usize = 50;

/// Modes of the synthetic corpora.
const MODES: usize = 16;

/// How a corpus stores its modes.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// Point `i` belongs to mode `i mod 16` (the synthetic segment's
    /// layout too).
    Interleaved,
    /// Mode `c` holds the contiguous ids `[c·n/16, (c+1)·n/16)`.
    Clustered,
}

impl Layout {
    /// The mode of point `id` in an `n`-point corpus.
    fn mode(self, id: usize, n: usize) -> usize {
        match self {
            Layout::Interleaved => id % MODES,
            Layout::Clustered => id * MODES / n,
        }
    }

    /// The `t`-th point of mode `c` in an `n`-point corpus.
    fn id(self, c: usize, t: usize, n: usize) -> usize {
        match self {
            Layout::Interleaved => (c + t * MODES) % n,
            Layout::Clustered => (c * n / MODES + t) % n,
        }
    }
}

/// A relevance-feedback query over the synthetic corpus: the user has
/// marked images from `G` of the corpus' 16 modes, so each feedback
/// cluster is built from *actual corpus points* of one mode — the
/// workload shape every Qcluster round produces (random far-off query
/// centers would be a straw man: feedback clusters always sit on data).
fn feedback_query(scan: &QuantizedScan, layout: Layout) -> DisjunctiveQuery {
    let n = scan.len();
    let clusters: Vec<Cluster> = (0..G)
        .map(|c| {
            Cluster::from_points(
                (0..10)
                    .map(|t| {
                        let id = layout.id(c, t, n);
                        let mut v = vec![0.0f64; D];
                        scan.corpus().copy_point(id, &mut v);
                        FeedbackPoint::new(id, v, 1.0)
                    })
                    .collect(),
            )
            .expect("non-empty cluster")
        })
        .collect();
    DisjunctiveQuery::new(&clusters, CovarianceScheme::default_diagonal()).expect("compiles")
}

fn assert_identical(exact: &[Neighbor], two_phase: &[Neighbor]) {
    assert_eq!(exact.len(), two_phase.len(), "result cardinality diverged");
    for (e, t) in exact.iter().zip(two_phase.iter()) {
        assert_eq!(e.id, t.id, "two-phase returned a different neighbor");
        assert_eq!(
            e.distance.to_bits(),
            t.distance.to_bits(),
            "two-phase distance is not bit-identical"
        );
    }
}

struct Timed {
    exact_ms: f64,
    two_phase_ms: f64,
    phase1_points: u64,
    pages: u64,
    pages_skipped: u64,
    reranked: u64,
    fallback_rescans: u64,
}

impl Timed {
    fn skipped_fraction(&self) -> f64 {
        self.pages_skipped as f64 / self.pages.max(1) as f64
    }
}

/// Best-of-`reps` wall time for both query forms over one scan, with
/// bit-for-bit equality asserted on every reidentification.
fn time_pair(scan: &QuantizedScan, query: &DisjunctiveQuery, reps: usize) -> Timed {
    let window = Some(default_rerank_window(K));
    let mut exact_best = f64::INFINITY;
    let mut quant_best = f64::INFINITY;
    let mut stats_at_best = None;
    for _ in 0..reps {
        let start = Instant::now();
        let exact = scan.corpus().knn(query, K);
        exact_best = exact_best.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let (two_phase, stats) = scan.two_phase_knn(query, K, window);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < quant_best {
            quant_best = elapsed;
            stats_at_best = Some(stats);
        }
        assert_identical(&exact, &two_phase);
        black_box((exact, two_phase));
    }
    let stats = stats_at_best.expect("at least one rep");
    Timed {
        exact_ms: exact_best * 1e3,
        two_phase_ms: quant_best * 1e3,
        phase1_points: stats.phase1_points,
        pages: stats.pages,
        pages_skipped: stats.pages_skipped,
        reranked: stats.reranked,
        fallback_rescans: stats.fallback_rescans,
    }
}

fn in_memory_corpus(n: usize, layout: Layout, rng: &mut StdRng) -> QuantizedScan {
    // Clustered like the synthetic segment corpus: quantization ranges
    // span all centers, so the per-dim deltas are realistic rather than
    // degenerate-uniform.
    let centers: Vec<Vec<f64>> = (0..MODES)
        .map(|_| (0..D).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    let flat: Vec<f64> = (0..n)
        .flat_map(|i| {
            let c = &centers[layout.mode(i, n)];
            c.iter()
                .map(|&base| base + rng.gen_range(-1.0..1.0))
                .collect::<Vec<f64>>()
        })
        .collect();
    QuantizedScan::from_flat(&flat, D)
}

fn run_in_memory(n: usize, layout: Layout, reps: usize) -> Timed {
    let mut rng = StdRng::seed_from_u64(42);
    let scan = in_memory_corpus(n, layout, &mut rng);
    let query = feedback_query(&scan, layout);
    let timed = time_pair(&scan, &query, reps);
    let name = match layout {
        Layout::Interleaved => "in-memory",
        Layout::Clustered => "clustered",
    };
    println!(
        "{name:<10} n={n:>9}  exact {:>9.2} ms  two-phase {:>9.2} ms  speedup {:>5.2}x  \
         (phase1 {} pages skipped {}/{} reranked {} rescans {})",
        timed.exact_ms,
        timed.two_phase_ms,
        timed.exact_ms / timed.two_phase_ms,
        timed.phase1_points,
        timed.pages_skipped,
        timed.pages,
        timed.reranked,
        timed.fallback_rescans,
    );
    timed
}

struct SegmentRun {
    seal_s: f64,
    load_s: f64,
    segment_bytes: u64,
    timed: Timed,
}

fn run_segment(n: u64, reps: usize) -> SegmentRun {
    let path = std::env::temp_dir().join(format!("bench_quantize_{}.qseg", std::process::id()));
    let start = Instant::now();
    synth_segment(&path, n, D, 16, 42).expect("seal synthetic segment");
    let seal_s = start.elapsed().as_secs_f64();
    let segment_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let start = Instant::now();
    let scan = load_segment_quantized(&path).expect("load v2 segment");
    let load_s = start.elapsed().as_secs_f64();
    assert_eq!(scan.len() as u64, n);

    let query = feedback_query(&scan, Layout::Interleaved);
    let timed = time_pair(&scan, &query, reps);
    println!(
        "segment    n={n:>9}  seal {seal_s:>6.1} s  load {load_s:>6.2} s  \
         exact {:>9.2} ms  two-phase {:>9.2} ms  speedup {:>5.2}x",
        timed.exact_ms,
        timed.two_phase_ms,
        timed.exact_ms / timed.two_phase_ms,
    );
    std::fs::remove_file(&path).ok();
    SegmentRun {
        seal_s,
        load_s,
        segment_bytes,
        timed,
    }
}

fn timed_json(t: &Timed, indent: &str) -> String {
    format!(
        "{indent}\"exact_ms\": {:.3},\n\
         {indent}\"two_phase_ms\": {:.3},\n\
         {indent}\"speedup\": {:.3},\n\
         {indent}\"phase1_points\": {},\n\
         {indent}\"pages\": {},\n\
         {indent}\"pages_skipped\": {},\n\
         {indent}\"skipped_fraction\": {:.4},\n\
         {indent}\"reranked\": {},\n\
         {indent}\"fallback_rescans\": {}",
        t.exact_ms,
        t.two_phase_ms,
        t.exact_ms / t.two_phase_ms,
        t.phase1_points,
        t.pages,
        t.pages_skipped,
        t.skipped_fraction(),
        t.reranked,
        t.fallback_rescans,
    )
}

fn write_json(path: &str, in_memory: &Timed, clustered: &Timed, segment: &SegmentRun) {
    let s = format!(
        "{{\n  \"bench\": \"quantize\",\n\
         {fingerprint}\
         \"scheme\": \"diagonal\",\n  \
         \"g\": {G},\n  \"d\": {D},\n  \"k\": {K},\n  \
         \"in_memory\": {{\n    \"n\": {FULL_N},\n{imem}\n  }},\n  \
         \"clustered\": {{\n    \"n\": {FULL_N},\n{clus}\n  }},\n  \
         \"segment\": {{\n    \"n\": {FULL_SEGMENT_N},\n    \
         \"segment_bytes\": {bytes},\n    \
         \"seal_s\": {seal:.2},\n    \"load_s\": {load:.3},\n{seg}\n  }}\n}}\n",
        fingerprint = host_fingerprint_json("  "),
        imem = timed_json(in_memory, "    "),
        clus = timed_json(clustered, "    "),
        bytes = segment.segment_bytes,
        seal = segment.seal_s,
        load = segment.load_s,
        seg = timed_json(&segment.timed, "    "),
    );
    std::fs::write(path, s).expect("write BENCH_quantize.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    if smoke {
        // Smoke mode (CI): toy sizes, one rep — bit-for-bit equality and
        // harness correctness only, no timing claims, no JSON.
        let timed = run_in_memory(SMOKE_N, Layout::Interleaved, 1);
        assert_eq!(timed.pages, SMOKE_N.div_ceil(QUANT_PAGE_POINTS) as u64);
        let clustered = run_in_memory(SMOKE_N, Layout::Clustered, 1);
        assert!(
            clustered.pages_skipped > 0,
            "page bounds skipped no page of the clustered corpus"
        );
        let seg = run_segment(SMOKE_SEGMENT_N, 1);
        assert_eq!(
            seg.timed.pages,
            (SMOKE_SEGMENT_N as usize).div_ceil(QUANT_PAGE_POINTS) as u64
        );
        println!("quantize bench smoke: ok");
        return;
    }
    let in_memory = run_in_memory(FULL_N, Layout::Interleaved, 5);
    let clustered = run_in_memory(FULL_N, Layout::Clustered, 5);
    let segment = run_segment(FULL_SEGMENT_N, 3);
    write_json("BENCH_quantize.json", &in_memory, &clustered, &segment);
    let speedup = in_memory.exact_ms / in_memory.two_phase_ms;
    println!("\nheadline (g={G}, d={D}, n={FULL_N}): {speedup:.2}x two-phase over exact");
    assert!(
        speedup >= 3.0,
        "two-phase speedup {speedup:.2}x below the 3x acceptance bar"
    );
    println!("wrote BENCH_quantize.json");
}
