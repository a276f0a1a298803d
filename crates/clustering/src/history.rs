//! A bounded FIFO of points that keeps its pairwise cosine matrix current,
//! so re-running FINCH after each batch of new points costs one matrix row
//! per new point instead of every pair again.

use refil_telemetry::Telemetry;

use crate::finch::{flat_means, hierarchy, rows, traced, trivial, FinchResult};
use crate::similarity::{fill_cosines, first_neighbors, norm, tri_row};

/// The most recent `cap` points (oldest first), each point's norm, and the
/// cosine between every pair of them (a packed lower triangle: at most
/// `cap·(cap−1)/2` floats, 8 KiB at a cap of 64).
///
/// [`PointHistory::finch`] reads FINCH's first partition (Eq. 4) from the
/// cached matrix and returns exactly what [`crate::finch`] returns on
/// [`PointHistory::to_vecs`]: every cached cosine equals
/// [`crate::cosine_similarity`] bit for bit, and the points keep their
/// arrival order, on which FINCH's tie-breaks, label order and cluster-mean
/// sums depend.
#[derive(Debug, Clone)]
pub struct PointHistory {
    dim: usize,
    cap: usize,
    /// Row-major points, oldest first.
    data: Vec<f32>,
    /// Euclidean norm of each point.
    norms: Vec<f32>,
    /// Cosine of each pair `(a, b)`, `b < a`, of the points in order, at
    /// `tri_row(a) + b`; allocated at full size by the first push.
    sims: Vec<f32>,
}

impl PointHistory {
    /// An empty history of `dim`-float points keeping at most `cap`.
    pub fn new(dim: usize, cap: usize) -> Self {
        Self {
            dim,
            cap,
            data: Vec::new(),
            norms: Vec::new(),
            sims: Vec::new(),
        }
    }

    /// Number of points held.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether no point is held.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// The points, oldest first, as owned vectors.
    pub fn to_vecs(&self) -> Vec<Vec<f32>> {
        rows(&self.data, self.dim, self.len())
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Appends `points` in order, then drops the oldest points beyond the
    /// cap. Only the pairs that involve a new point are computed.
    ///
    /// # Panics
    ///
    /// Panics if a point's length is not the history's dimension.
    pub fn extend(&mut self, points: &[&[f32]]) {
        for p in points {
            assert_eq!(p.len(), self.dim, "point dimension mismatch");
        }
        let (n, cap, dim) = (self.len(), self.cap, self.dim);
        let evict = (n + points.len()).saturating_sub(cap);
        let evict_old = evict.min(n);
        // New points that would be evicted in the same call are never stored.
        let points = &points[evict - evict_old..];
        if points.is_empty() {
            return;
        }
        if self.sims.is_empty() {
            self.sims = vec![0.0; tri_row(cap)];
            self.data.reserve_exact(cap * dim);
            self.norms.reserve_exact(cap);
        }
        if evict_old > 0 {
            self.data.drain(..evict_old * dim);
            self.norms.drain(..evict_old);
            // Drop the oldest rows and columns: kept pair (i, j) moves up
            // from (i + evict_old, j + evict_old). Each source row lies after
            // its destination, so copying rows in order never reads a moved
            // one.
            for i in 1..n - evict_old {
                let src = tri_row(i + evict_old) + evict_old;
                self.sims.copy_within(src..src + i, tri_row(i));
            }
        }
        let from = self.len();
        for p in points {
            self.data.extend_from_slice(p);
            self.norms.push(norm(p));
        }
        fill_cosines(&self.data, dim, &self.norms, from, &mut self.sims);
    }

    /// FINCH over the held points; equal to [`crate::finch`] on
    /// [`PointHistory::to_vecs`].
    pub fn finch(&self) -> FinchResult {
        self.finch_traced(&Telemetry::disabled())
    }

    /// [`PointHistory::finch`] with the `finch_cluster` span and `finch.*`
    /// observations of [`crate::finch_traced`].
    pub fn finch_traced(&self, telemetry: &Telemetry) -> FinchResult {
        let n = self.len();
        traced(n, telemetry, || {
            if n < 2 {
                return trivial(n);
            }
            let neighbors = first_neighbors(&self.sims, n);
            hierarchy(&neighbors, self.dim, |labels, k| {
                flat_means(rows(&self.data, self.dim, n), self.dim, labels, k)
            })
        })
    }

    /// Mean of each cluster of the held points; equal to
    /// [`crate::cluster_means`] on [`PointHistory::to_vecs`].
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != len()` or a label `>= num_clusters`
    /// appears.
    pub fn cluster_means(&self, labels: &[usize], num_clusters: usize) -> Vec<Vec<f32>> {
        assert_eq!(labels.len(), self.len(), "labels length mismatch");
        let means = flat_means(
            rows(&self.data, self.dim, self.len()),
            self.dim,
            labels,
            num_clusters,
        );
        rows(&means, self.dim, num_clusters)
            .map(<[f32]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_similarity;
    use crate::similarity::row;

    fn assert_matrix_exact(h: &PointHistory) {
        for i in 0..h.len() {
            for j in (0..h.len()).filter(|&j| j != i) {
                let want = cosine_similarity(row(&h.data, h.dim, i), row(&h.data, h.dim, j));
                let cached = h.sims[tri_row(i.max(j)) + i.min(j)];
                assert_eq!(cached.to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn cached_cosines_equal_cosine_similarity_through_eviction() {
        let mut h = PointHistory::new(7, 5);
        let pts: Vec<Vec<f32>> = (0..13)
            .map(|i| (0..7).map(|k| ((i * 7 + k) as f32 * 0.37).sin()).collect())
            .collect();
        for chunk in pts.chunks(3) {
            let refs: Vec<&[f32]> = chunk.iter().map(Vec::as_slice).collect();
            h.extend(&refs);
            assert_matrix_exact(&h);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.to_vecs(), pts[8..].to_vec());
    }

    #[test]
    fn batch_larger_than_cap_keeps_its_newest_points() {
        let mut h = PointHistory::new(1, 3);
        h.extend(&[&[1.0], &[2.0]]);
        h.extend(&[&[3.0], &[4.0], &[5.0], &[6.0]]);
        assert_eq!(h.to_vecs(), vec![vec![4.0], vec![5.0], vec![6.0]]);
        assert_matrix_exact(&h);
    }

    #[test]
    fn fewer_than_two_points_give_the_trivial_partition() {
        let mut h = PointHistory::new(2, 4);
        assert_eq!(h.finch().finest().num_clusters, 0);
        h.extend(&[&[1.0, 0.0]]);
        assert_eq!(h.finch().finest().labels, vec![0]);
        h.extend(&[]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn wrong_dimension_panics() {
        PointHistory::new(2, 4).extend(&[&[1.0]]);
    }
}
