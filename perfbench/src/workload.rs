//! The three workloads, their inputs, and the simulated user's oracle.

use qcluster_eval::oracle::{SCORE_RELATED, SCORE_SAME_CATEGORY};
use qcluster_eval::synthetic::{semantic_gap_corpus, SemanticGapConfig};
use qcluster_eval::Dataset;
use qcluster_service::ShardKind;

/// Which labelled corpus a workload serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorpusKind {
    /// `semantic_gap_dataset(Scale::Quick)`: 7,500 points in 3-d.
    Quick,
    /// A semantic-gap corpus of the given shape.
    Gap {
        /// Categories (each is two modes).
        categories: usize,
        /// Points per mode.
        per_mode: usize,
        /// Dimensionality.
        dim: usize,
    },
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as `--workload` takes it.
    pub name: &'static str,
    /// The corpus the feedback loop runs over.
    pub corpus: CorpusKind,
    /// Index behind each service shard.
    pub shard_kind: ShardKind,
    /// Three partitions behind a router instead of one node.
    pub cluster: bool,
    /// Closed-loop feedback clients (at most the core count).
    pub clients: usize,
    /// Result count per query.
    pub k: usize,
    /// Open-loop ingest rate, vectors per second (0 = no ingest).
    pub ingest_per_s: u32,
    /// Sessions each client runs before measurement starts.
    pub warmup_sessions: usize,
    /// Leading sessions per client replayed and checked on every run.
    pub check_sessions: usize,
    /// Sessions per client replayed in a traced run (`None` = all).
    pub traced_sessions: Option<usize>,
    /// Times the system is stood up to take the median set-up time.
    pub setup_reps: usize,
    /// Hold served precision to `offline_baseline` within ε.
    pub precision_check: bool,
}

/// Feedback rounds per session after the example query: the paper's
/// session shape, the same in every workload.
pub const ROUNDS: usize = 3;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["loop_small", "scan_large", "cluster_rw"];

impl Spec {
    /// The full-size workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let loop_small = Spec {
            name: "loop_small",
            corpus: CorpusKind::Quick,
            shard_kind: ShardKind::Tree,
            cluster: false,
            clients: 2,
            k: 20,
            ingest_per_s: 0,
            warmup_sessions: 50,
            check_sessions: 40,
            traced_sessions: None,
            setup_reps: 31,
            precision_check: true,
        };
        match name {
            "loop_small" => Some(loop_small),
            "scan_large" => Some(Spec {
                name: "scan_large",
                corpus: CorpusKind::Gap {
                    categories: 20_000,
                    per_mode: 50,
                    dim: 24,
                },
                shard_kind: ShardKind::Quantized,
                clients: 1,
                k: 50,
                warmup_sessions: 3,
                check_sessions: 2,
                traced_sessions: Some(6),
                setup_reps: 3,
                precision_check: false,
                ..loop_small
            }),
            "cluster_rw" => Some(Spec {
                name: "cluster_rw",
                cluster: true,
                clients: 1,
                // A sixth of what the replicated partition acks back to
                // back (~3 ms each on 2 cores); at 100/s its tail rises
                // five-fold.
                ingest_per_s: 50,
                warmup_sessions: 20,
                check_sessions: 20,
                precision_check: false,
                ..loop_small
            }),
            _ => None,
        }
    }

    /// A scaled-down copy for smoke tests: small corpora and few
    /// set-ups, the same code paths.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Option<Spec> {
        let mut spec = Spec::named(name)?;
        if let CorpusKind::Gap { dim, .. } = spec.corpus {
            spec.corpus = CorpusKind::Gap {
                categories: 200,
                per_mode: 50,
                dim,
            };
        }
        spec.warmup_sessions = 2;
        spec.check_sessions = spec.check_sessions.min(10);
        spec.setup_reps = 1;
        Some(spec)
    }
}

/// The category labels of a corpus, which only the benchmark's
/// simulated user sees. The vectors themselves go to the system and
/// are read back from it.
pub struct Corpus {
    categories: Vec<u32>,
    supers: Vec<u32>,
    per_category: usize,
}

impl Corpus {
    /// Generates the workload's corpus: its labels, and the rows the
    /// system is stood up over. The corpus is fixed per workload; the
    /// seed only drives the query plan and the ingest stream.
    pub fn build(kind: CorpusKind, quick: &Dataset) -> (Corpus, Vec<Vec<f64>>) {
        match kind {
            CorpusKind::Quick => (Corpus::from_dataset(quick), quick.vectors().to_vec()),
            CorpusKind::Gap {
                categories,
                per_mode,
                dim,
            } => {
                let (vectors, cats, supers, per_category) =
                    semantic_gap_corpus(&SemanticGapConfig {
                        categories,
                        per_mode,
                        dim,
                        ..SemanticGapConfig::default()
                    });
                let corpus = Corpus {
                    categories: cats.into_iter().map(|c| c as u32).collect(),
                    supers: supers.into_iter().map(|s| s as u32).collect(),
                    per_category,
                };
                (corpus, vectors)
            }
        }
    }

    /// Copies the labels out of an evaluation dataset.
    pub fn from_dataset(dataset: &Dataset) -> Corpus {
        Corpus {
            categories: (0..dataset.len())
                .map(|i| dataset.category(i) as u32)
                .collect(),
            supers: (0..dataset.len())
                .map(|i| dataset.super_category(i) as u32)
                .collect(),
            per_category: dataset.images_per_category(),
        }
    }

    /// Labelled images.
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// The simulated user's marks for one answer, as `qcluster-eval`'s
    /// `SimulatedUser` grades them: 3 for the query's category, 1 for a
    /// related category, unlabelled (ingested) ids ignored; when nothing
    /// qualifies, the example image itself at 3.
    pub fn mark(&self, query_image: usize, retrieved: &[usize]) -> (Vec<usize>, Vec<f64>) {
        let category = self.categories[query_image];
        let query_super = self.supers[category as usize * self.per_category];
        let (mut ids, mut scores) = (Vec::new(), Vec::new());
        for &id in retrieved.iter().filter(|&&id| id < self.len()) {
            let score = if self.categories[id] == category {
                SCORE_SAME_CATEGORY
            } else if self.supers[id] == query_super {
                SCORE_RELATED
            } else {
                continue;
            };
            ids.push(id);
            scores.push(score);
        }
        if ids.is_empty() {
            ids.push(query_image);
            scores.push(SCORE_SAME_CATEGORY);
        }
        (ids, scores)
    }

    /// Same-category precision of the first `k` retrieved ids.
    pub fn precision(&self, query_image: usize, retrieved: &[usize], k: usize) -> f64 {
        let category = self.categories[query_image];
        let hits = retrieved
            .iter()
            .take(k)
            .filter(|&&id| id < self.len() && self.categories[id] == category)
            .count();
        hits as f64 / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_bench::{semantic_gap_dataset, Scale};
    use qcluster_eval::{precision_at_k, SimulatedUser};

    #[test]
    fn every_named_workload_resolves_and_fits_two_cores() {
        for name in WORKLOADS {
            let spec = Spec::named(name).unwrap();
            assert_eq!(spec.name, name);
            assert!(spec.clients <= 2);
            assert!(Spec::tiny(name).is_some());
        }
        assert!(Spec::named("nope").is_none());
    }

    #[test]
    fn oracle_matches_the_evaluation_user() {
        let dataset = semantic_gap_dataset(Scale::Quick);
        let corpus = Corpus::from_dataset(&dataset);
        for query in [0usize, 777, 4242] {
            let retrieved: Vec<usize> = (0..200).map(|i| (query + i * 13) % 7600).collect();
            let user = SimulatedUser::new(&dataset, dataset.category(query));
            let labelled: Vec<usize> = retrieved
                .iter()
                .copied()
                .filter(|&id| id < dataset.len())
                .collect();
            let expected = user.mark(&labelled);
            let (ids, scores) = corpus.mark(query, &retrieved);
            if expected.is_empty() {
                assert_eq!(ids, vec![query]);
            } else {
                assert_eq!(ids, expected.iter().map(|p| p.id).collect::<Vec<_>>());
                assert_eq!(scores, expected.iter().map(|p| p.score).collect::<Vec<_>>());
            }
            assert_eq!(
                corpus.precision(query, &retrieved, 20),
                precision_at_k(&dataset, dataset.category(query), &retrieved, 20)
            );
        }
    }
}
