//! FINCH: parameter-free clustering by first-neighbour relations
//! (Sarfraz, Sharma & Stiefelhagen, CVPR 2019).
//!
//! RefFiL's server clusters uploaded prompt groups with FINCH (paper Eq. 4):
//! two prompts `m`, `j` are linked when `j = c_m` (j is m's first neighbour),
//! `m = c_j`, or `c_m = c_j` (they share a first neighbour). Connected
//! components of that adjacency form the first partition; the procedure then
//! recurses on cluster means to build a hierarchy, needing no cluster-count
//! parameter — which is what makes it suitable for the dynamic federated
//! setting.

use crate::similarity::{first_neighbors_of, row};

/// One level of the FINCH hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Cluster label per input point.
    pub labels: Vec<usize>,
    /// Number of clusters at this level.
    pub num_clusters: usize,
}

/// Full FINCH output: successively coarser partitions (level 0 = finest).
#[derive(Debug, Clone)]
pub struct FinchResult {
    /// Partition hierarchy; `partitions[0]` is the first-neighbour partition.
    pub partitions: Vec<Partition>,
}

impl FinchResult {
    /// The finest partition (the one RefFiL's server uses, Eq. 5).
    pub fn finest(&self) -> &Partition {
        &self.partitions[0]
    }

    /// The coarsest computed partition.
    pub fn coarsest(&self) -> &Partition {
        self.partitions
            .last()
            .expect("FINCH always yields at least one partition")
    }

    /// The partition whose cluster count is closest to `k` (FINCH's standard
    /// "required number of clusters" mode without any refinement step).
    pub fn closest_to(&self, k: usize) -> &Partition {
        self.partitions
            .iter()
            .min_by_key(|p| p.num_clusters.abs_diff(k))
            .expect("non-empty hierarchy")
    }
}

/// Runs FINCH on `points` (each a feature vector) under cosine similarity.
///
/// Returns a one-level trivial partition for fewer than two points.
///
/// # Panics
///
/// Panics if point dimensionalities differ.
pub fn finch(points: &[Vec<f32>]) -> FinchResult {
    finch_traced(points, &refil_telemetry::Telemetry::disabled())
}

/// [`finch`] wrapped in a `finch_cluster` telemetry span, recording the
/// input size and resulting hierarchy depth as histogram observations.
pub fn finch_traced(points: &[Vec<f32>], telemetry: &refil_telemetry::Telemetry) -> FinchResult {
    traced(points.len(), telemetry, || {
        let n = points.len();
        if n < 2 {
            return trivial(n);
        }
        let dim = points[0].len();
        for p in points {
            assert_eq!(p.len(), dim, "inconsistent point dimensionality");
        }
        let data = points.concat();
        let neighbors = first_neighbors_of(&data, n, dim);
        hierarchy(&neighbors, dim, |labels, k| {
            flat_means(rows(&data, dim, n), dim, labels, k)
        })
    })
}

/// Runs `run` in a `finch_cluster` span over `n` points and records the
/// `finch.*` observations of its result.
pub(crate) fn traced(
    n: usize,
    telemetry: &refil_telemetry::Telemetry,
    run: impl FnOnce() -> FinchResult,
) -> FinchResult {
    let _span = telemetry.span("finch_cluster");
    let result = run();
    telemetry.observe("finch.points", n as f64);
    telemetry.observe("finch.levels", result.partitions.len() as f64);
    telemetry.observe("finch.finest_clusters", result.finest().num_clusters as f64);
    result
}

/// The one-level result for fewer than two points.
pub(crate) fn trivial(n: usize) -> FinchResult {
    debug_assert!(n < 2);
    FinchResult {
        partitions: vec![Partition {
            labels: vec![0; n],
            num_clusters: n,
        }],
    }
}

/// The FINCH hierarchy over `n >= 2` points whose first neighbours are
/// `neighbors`. Level 0 links the points themselves (Eq. 4); each coarser
/// level links the previous level's cluster means, computed fresh. `means0`
/// returns the level-0 cluster means, row-major, for `(labels, k)`.
pub(crate) fn hierarchy(
    neighbors: &[usize],
    dim: usize,
    means0: impl FnOnce(&[usize], usize) -> Vec<f32>,
) -> FinchResult {
    let level = link(neighbors);
    if level.num_clusters <= 1 || level.num_clusters == neighbors.len() {
        return FinchResult {
            partitions: vec![level],
        };
    }
    // `current` holds this level's cluster means (row-major, `k` rows);
    // `mapping[i]` maps original point i to its row among them.
    let mut k = level.num_clusters;
    let mut current = means0(&level.labels, k);
    let mut mapping = level.labels.clone();
    let mut partitions = vec![level];
    loop {
        let level = link(&first_neighbors_of(&current, k, dim));
        let labels: Vec<usize> = mapping.iter().map(|&m| level.labels[m]).collect();
        partitions.push(Partition {
            labels: labels.clone(),
            num_clusters: level.num_clusters,
        });
        if level.num_clusters <= 1 || level.num_clusters == k {
            break;
        }
        current = flat_means(
            rows(&current, dim, k),
            dim,
            &level.labels,
            level.num_clusters,
        );
        k = level.num_clusters;
        mapping = labels;
    }
    FinchResult { partitions }
}

/// One round of first-neighbour clustering: links each point with its
/// first neighbour (Eq. 4), then labels the connected components.
fn link(neighbors: &[usize]) -> Partition {
    let n = neighbors.len();
    // Union-find over the Eq. 4 links.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    };
    for (i, &nb) in neighbors.iter().enumerate() {
        // j = c_i and i = c_j are both covered by linking i with c_i.
        union(&mut parent, i, nb);
        // c_i = c_j: linking every i to c_i already places all points sharing
        // a first neighbour in the same component (transitively via c_i).
    }

    // Compact component ids into 0..k in order of first appearance.
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut remap: Vec<Option<usize>> = vec![None; n];
    for (i, label) in labels.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        *label = *remap[root].get_or_insert_with(|| {
            let l = next;
            next += 1;
            l
        });
    }
    Partition {
        labels,
        num_clusters: next,
    }
}

/// The first `n` rows of the row-major points `data`.
pub(crate) fn rows(data: &[f32], dim: usize, n: usize) -> impl Iterator<Item = &[f32]> {
    (0..n).map(move |i| row(data, dim, i))
}

/// Row-major mean of each of `k` clusters, summing members in row order.
///
/// # Panics
///
/// Panics if a label `>= k` appears.
pub(crate) fn flat_means<'a>(
    points: impl Iterator<Item = &'a [f32]>,
    dim: usize,
    labels: &[usize],
    k: usize,
) -> Vec<f32> {
    let mut sums = vec![0.0f32; k * dim];
    let mut counts = vec![0usize; k];
    for (p, &l) in points.zip(labels) {
        assert!(l < k, "label {l} out of range");
        counts[l] += 1;
        for (s, &x) in sums[l * dim..(l + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
    for (l, &c) in counts.iter().enumerate() {
        if c > 0 {
            for x in &mut sums[l * dim..(l + 1) * dim] {
                *x /= c as f32;
            }
        }
    }
    sums
}

/// Mean vector of each cluster.
///
/// # Panics
///
/// Panics if a label `>= num_clusters` appears.
pub fn cluster_means(points: &[Vec<f32>], labels: &[usize], num_clusters: usize) -> Vec<Vec<f32>> {
    assert_eq!(points.len(), labels.len(), "labels length mismatch");
    let dim = points.first().map_or(0, Vec::len);
    let means = flat_means(points.iter().map(Vec::as_slice), dim, labels, num_clusters);
    rows(&means, dim, num_clusters)
        .map(<[f32]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.05],
            vec![0.95, 0.0],
            vec![1.05, -0.02],
            vec![-0.02, 1.0],
            vec![0.0, 0.97],
            vec![0.03, 1.04],
        ]
    }

    #[test]
    fn separates_two_blobs() {
        let r = finch(&two_blobs());
        let p = r.finest();
        assert_eq!(p.num_clusters, 2, "labels {:?}", p.labels);
        assert_eq!(p.labels[0], p.labels[1]);
        assert_eq!(p.labels[1], p.labels[2]);
        assert_eq!(p.labels[3], p.labels[4]);
        assert_eq!(p.labels[4], p.labels[5]);
        assert_ne!(p.labels[0], p.labels[3]);
    }

    #[test]
    fn hierarchy_coarsens() {
        let r = finch(&two_blobs());
        let counts: Vec<usize> = r.partitions.iter().map(|p| p.num_clusters).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "hierarchy not monotone: {counts:?}");
        }
        assert_eq!(r.coarsest().num_clusters, 1);
    }

    #[test]
    fn single_point_single_cluster() {
        let r = finch(&[vec![1.0, 2.0]]);
        assert_eq!(r.finest().num_clusters, 1);
        assert_eq!(r.finest().labels, vec![0]);
    }

    #[test]
    fn empty_input() {
        let r = finch(&[]);
        assert_eq!(r.finest().num_clusters, 0);
        assert!(r.finest().labels.is_empty());
    }

    #[test]
    fn identical_points_collapse() {
        let pts = vec![vec![0.5, 0.5]; 5];
        let r = finch(&pts);
        assert_eq!(r.finest().num_clusters, 1);
    }

    #[test]
    fn closest_to_picks_right_level() {
        let r = finch(&two_blobs());
        assert_eq!(r.closest_to(2).num_clusters, 2);
        assert_eq!(r.closest_to(1).num_clusters, 1);
    }

    #[test]
    fn cluster_means_average() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![10.0, 10.0]];
        let means = cluster_means(&pts, &[0, 0, 1], 2);
        assert_eq!(means[0], vec![1.0, 1.0]);
        assert_eq!(means[1], vec![10.0, 10.0]);
    }
}
