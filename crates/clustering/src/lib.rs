//! # refil-clustering
//!
//! Clustering substrate for RefFiL's global prompt clustering: the
//! parameter-free FINCH algorithm the paper adopts (Eq. 4–5), cosine
//! similarity primitives, a bounded point history that keeps its cosine
//! matrix current for incremental FINCH, and a seeded k-means used as an
//! ablation comparator.
//!
//! # Examples
//!
//! ```
//! use refil_clustering::finch;
//!
//! let prompts = vec![
//!     vec![1.0, 0.0],
//!     vec![0.9, 0.1],
//!     vec![0.0, 1.0],
//!     vec![0.1, 0.9],
//! ];
//! let result = finch(&prompts);
//! assert_eq!(result.finest().num_clusters, 2);
//! ```

#![warn(missing_docs)]

mod finch;
mod history;
mod kmeans;
mod similarity;

pub use finch::{cluster_means, finch, finch_traced, FinchResult, Partition};
pub use history::PointHistory;
pub use kmeans::{kmeans, KmeansResult};
pub use similarity::{cosine_similarity, first_neighbor, squared_distance};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
        prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dim..=dim), 0..max_n)
    }

    /// Indices into [`COARSE`], one per coordinate: points drawn from a few
    /// values, so duplicates, zero vectors and exactly tied cosines are
    /// common.
    fn arb_coarse(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
        prop::collection::vec(prop::collection::vec(0..COARSE.len(), dim..=dim), 0..max_n)
    }

    const COARSE: [f32; 6] = [-1.0, 0.0, 0.0, 0.5, 1.0, 2.0];

    fn coarse(ix: &[Vec<usize>], dim: usize) -> Vec<Vec<f32>> {
        ix.iter()
            .map(|p| p[..dim].iter().map(|&i| COARSE[i]).collect())
            .collect()
    }

    /// FINCH as first written: every level calls [`first_neighbor`], which
    /// recomputes both norms per ordered pair, and means are summed into
    /// one vector per cluster. The oracle for the matrix-based [`finch`].
    fn reference_finch(points: &[Vec<f32>]) -> Vec<Partition> {
        fn once(points: &[Vec<f32>]) -> Partition {
            let n = points.len();
            let neighbors: Vec<usize> = (0..n).map(|i| first_neighbor(points, i)).collect();
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    x = parent[x];
                }
                x
            }
            for (i, &nb) in neighbors.iter().enumerate() {
                let (ra, rb) = (find(&mut parent, i), find(&mut parent, nb));
                parent[ra.max(rb)] = ra.min(rb);
            }
            let mut remap = vec![None; n];
            let mut next = 0;
            let labels = (0..n)
                .map(|i| {
                    let root = find(&mut parent, i);
                    *remap[root].get_or_insert_with(|| {
                        next += 1;
                        next - 1
                    })
                })
                .collect();
            Partition {
                labels,
                num_clusters: next,
            }
        }
        fn means(points: &[Vec<f32>], labels: &[usize], k: usize) -> Vec<Vec<f32>> {
            let mut sums = vec![vec![0.0f32; points[0].len()]; k];
            let mut counts = vec![0usize; k];
            for (p, &l) in points.iter().zip(labels) {
                counts[l] += 1;
                for (s, &x) in sums[l].iter_mut().zip(p) {
                    *s += x;
                }
            }
            for (s, &c) in sums.iter_mut().zip(&counts) {
                for x in s.iter_mut() {
                    *x /= c as f32;
                }
            }
            sums
        }
        let n = points.len();
        if n < 2 {
            return vec![Partition {
                labels: vec![0; n],
                num_clusters: n,
            }];
        }
        let mut partitions = Vec::new();
        let mut current = points.to_vec();
        let mut mapping: Vec<usize> = (0..n).collect();
        loop {
            let level = once(&current);
            let labels: Vec<usize> = mapping.iter().map(|&m| level.labels[m]).collect();
            partitions.push(Partition {
                labels: labels.clone(),
                num_clusters: level.num_clusters,
            });
            if level.num_clusters <= 1 || level.num_clusters == current.len() {
                return partitions;
            }
            current = means(&current, &level.labels, level.num_clusters);
            mapping = labels;
        }
    }

    fn bits(means: &[Vec<f32>]) -> Vec<Vec<u32>> {
        means
            .iter()
            .map(|m| m.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    proptest! {
        #[test]
        fn finch_partition_is_valid(points in arb_points(24, 4)) {
            let r = finch(&points);
            for p in &r.partitions {
                prop_assert_eq!(p.labels.len(), points.len());
                if points.is_empty() {
                    prop_assert_eq!(p.num_clusters, 0);
                    continue;
                }
                // Every label in range, every cluster non-empty.
                let mut seen = vec![false; p.num_clusters];
                for &l in &p.labels {
                    prop_assert!(l < p.num_clusters);
                    seen[l] = true;
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }

        #[test]
        fn finch_hierarchy_is_monotone(points in arb_points(24, 3)) {
            let r = finch(&points);
            let counts: Vec<usize> = r.partitions.iter().map(|p| p.num_clusters).collect();
            for w in counts.windows(2) {
                prop_assert!(w[1] <= w[0], "counts {:?}", counts);
            }
        }

        #[test]
        fn finch_refinement_nests(points in arb_points(20, 3)) {
            // Finer partitions must refine coarser ones: two points together
            // at level L stay together at level L+1.
            let r = finch(&points);
            for w in r.partitions.windows(2) {
                let (fine, coarse) = (&w[0], &w[1]);
                for i in 0..points.len() {
                    for j in (i + 1)..points.len() {
                        if fine.labels[i] == fine.labels[j] {
                            prop_assert_eq!(coarse.labels[i], coarse.labels[j]);
                        }
                    }
                }
            }
        }

        #[test]
        fn finch_matches_first_neighbor_reference(points in arb_points(24, 5)) {
            prop_assert_eq!(finch(&points).partitions, reference_finch(&points));
        }

        #[test]
        fn finch_matches_reference_on_ties_and_zeros(ix in arb_coarse(20, 3)) {
            let points = coarse(&ix, 3);
            prop_assert_eq!(finch(&points).partitions, reference_finch(&points));
        }

        #[test]
        fn history_finch_is_bit_identical_to_finch_from_scratch(
            cap in 2usize..10,
            dim in 1usize..7,
            batches in prop::collection::vec(arb_coarse(8, 6), 1..12),
        ) {
            // Ingest batches of coarse points (duplicates, zero vectors,
            // exact ties) well past the cap; after each one the cached FINCH
            // and cluster means must equal a from-scratch run on a pool kept
            // the way the store used to keep it: push, then drop the oldest.
            let mut history = PointHistory::new(dim, cap);
            let mut pool: Vec<Vec<f32>> = Vec::new();
            for batch in &batches {
                let batch = coarse(batch, dim);
                let refs: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
                history.extend(&refs);
                for p in batch {
                    pool.push(p);
                    if pool.len() > cap {
                        pool.remove(0);
                    }
                }
                prop_assert_eq!(&history.to_vecs(), &pool);
                let cached = history.finch();
                let fresh = finch(&pool);
                prop_assert_eq!(&cached.partitions, &fresh.partitions);
                prop_assert_eq!(&cached.partitions, &reference_finch(&pool));
                for p in &cached.partitions {
                    prop_assert_eq!(
                        bits(&history.cluster_means(&p.labels, p.num_clusters)),
                        bits(&cluster_means(&pool, &p.labels, p.num_clusters))
                    );
                }
            }
        }

        #[test]
        fn kmeans_labels_in_range(points in arb_points(24, 3), k in 1usize..6) {
            let r = kmeans(&points, k, 7, 50);
            for &l in &r.labels {
                prop_assert!(l < r.centroids.len().max(1));
            }
        }

        #[test]
        fn cosine_symmetric_and_bounded(a in prop::collection::vec(-5.0f32..5.0, 4),
                                        b in prop::collection::vec(-5.0f32..5.0, 4)) {
            let s1 = cosine_similarity(&a, &b);
            let s2 = cosine_similarity(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-5);
            prop_assert!((-1.0001..=1.0001).contains(&s1));
        }
    }
}
