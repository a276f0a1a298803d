//! Vector similarity primitives.

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector has (near-)zero norm, so degenerate
/// prompts never dominate a nearest-neighbour search.
///
/// # Panics
///
/// Panics if lengths differ.
///
/// # Examples
///
/// ```
/// let s = refil_clustering::cosine_similarity(&[1.0, 0.0], &[0.5, 0.0]);
/// assert!((s - 1.0).abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "cosine length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Index of the nearest neighbour of `points[i]` under cosine similarity,
/// excluding `i` itself. Ties break toward the smaller index.
///
/// # Panics
///
/// Panics if `points.len() < 2`.
pub fn first_neighbor(points: &[Vec<f32>], i: usize) -> usize {
    assert!(
        points.len() >= 2,
        "first neighbour needs at least two points"
    );
    let mut best = usize::MAX;
    let mut best_sim = f32::NEG_INFINITY;
    for (j, p) in points.iter().enumerate() {
        if j == i {
            continue;
        }
        let s = cosine_similarity(&points[i], p);
        if s > best_sim {
            best_sim = s;
            best = j;
        }
    }
    best
}

/// Euclidean norm `sqrt(Σ x²)`, accumulated in index order: bit for bit the
/// operand norm [`cosine_similarity`] computes.
pub(crate) fn norm(a: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for &x in a {
        s += x * x;
    }
    s.sqrt()
}

/// Cosine from a dot product and both operand norms, with
/// [`cosine_similarity`]'s zero-norm rule. `na * nb == nb * na`, so the
/// result does not depend on which operand came first.
fn cosine_from(dot: f32, na: f32, nb: f32) -> f32 {
    let denom = na * nb;
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Dot product accumulated in index order.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Dot products of `a` with four rows at once. Each accumulator sums its
/// products in index order, so each result equals [`dot`] bit for bit.
fn dot4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let n = a.len();
    let (b0, b1, b2, b3) = (&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]);
    let mut acc = [0.0f32; 4];
    for k in 0..n {
        let x = a[k];
        acc[0] += x * b0[k];
        acc[1] += x * b1[k];
        acc[2] += x * b2[k];
        acc[3] += x * b3[k];
    }
    acc
}

/// Row `i` of the row-major points `data` (rows of `dim` floats).
pub(crate) fn row(data: &[f32], dim: usize, i: usize) -> &[f32] {
    &data[i * dim..(i + 1) * dim]
}

/// Offset of row `a` in a packed lower triangle: the pairs `(a, b)` with
/// `b < a` sit at `tri_row(a) + b`, rows in order. A cosine matrix is
/// symmetric and its diagonal unused, so the triangle holds all of it.
pub(crate) fn tri_row(a: usize) -> usize {
    a * a.saturating_sub(1) / 2
}

/// Fills rows `from..n` of the packed lower-triangle cosine matrix `tri`
/// (see [`tri_row`]) over the `n = norms.len()` row-major points in `data`:
/// every pair `(a, b)` with `b < a` and `a >= from`.
///
/// Every entry equals `cosine_similarity(point_a, point_b)` bit for bit:
/// the dot and both norms accumulate in index order as there, and products
/// commute exactly.
pub(crate) fn fill_cosines(data: &[f32], dim: usize, norms: &[f32], from: usize, tri: &mut [f32]) {
    for a in from..norms.len() {
        let pa = row(data, dim, a);
        let out = &mut tri[tri_row(a)..tri_row(a) + a];
        let mut b = 0;
        while b + 4 <= a {
            let rows = [0, 1, 2, 3].map(|t| row(data, dim, b + t));
            for (t, d) in dot4(pa, rows).into_iter().enumerate() {
                out[b + t] = cosine_from(d, norms[a], norms[b + t]);
            }
            b += 4;
        }
        for b in b..a {
            out[b] = cosine_from(dot(pa, row(data, dim, b)), norms[a], norms[b]);
        }
    }
}

/// The first neighbour of each of the first `n` points, read from a packed
/// lower-triangle cosine matrix: the most similar other point, ties to the
/// smaller index, as in [`first_neighbor`].
pub(crate) fn first_neighbors(tri: &[f32], n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            // Row i of the full matrix in column order: its own triangle
            // row, then column i of every later row.
            let before = tri[tri_row(i)..tri_row(i) + i].iter().copied();
            let after = (i + 1..n).map(|j| tri[tri_row(j) + i]);
            let mut best = usize::MAX;
            let mut best_sim = f32::NEG_INFINITY;
            for (j, s) in before.chain(after).enumerate() {
                if s > best_sim {
                    best_sim = s;
                    best = if j < i { j } else { j + 1 };
                }
            }
            best
        })
        .collect()
}

/// The first neighbour of each of `n` row-major points, computing every
/// pair's cosine once from cached norms.
pub(crate) fn first_neighbors_of(data: &[f32], n: usize, dim: usize) -> Vec<usize> {
    let norms: Vec<f32> = (0..n).map(|i| norm(row(data, dim, i))).collect();
    let mut tri = vec![0.0f32; tri_row(n)];
    fill_cosines(data, dim, &norms, 0, &mut tri);
    first_neighbors(&tri, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn first_neighbor_excludes_self() {
        let pts = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        assert_eq!(first_neighbor(&pts, 0), 1);
        assert_eq!(first_neighbor(&pts, 1), 0);
        assert_eq!(first_neighbor(&pts, 2), 1);
    }

    #[test]
    fn squared_distance_matches_manual() {
        assert_eq!(squared_distance(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
    }
}
