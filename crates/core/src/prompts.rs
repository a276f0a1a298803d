//! Global prompt sharing and clustering (paper Eq. 2–5, 8).
//!
//! Clients upload **Local Prompt Groups** (LPGs): per-class balanced means of
//! their generated prompts (Eq. 2 — unweighted averaging so resource-rich
//! clients cannot skew the global prompt set). The server pools LPGs, then
//! clusters each class's prompts **domain-wise with FINCH** (Eq. 4) and keeps
//! one representative per cluster (Eq. 5), fixing the "80 % of participants
//! just moved to the new domain" imbalance that plain averaging suffers from.
//! Averaging the representatives across clusters and classes yields the
//! generalized prompt `P̄^g` (Eq. 8) used by the GPL loss.

use serde::{Deserialize, Serialize};

use refil_clustering::{kmeans, PointHistory};
use refil_telemetry::Telemetry;

/// How the server condenses each class's LPG pool into representatives —
/// FINCH is the paper's choice; k-means and plain averaging are the
/// `ablation_clustering` comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterMode {
    /// Parameter-free first-neighbour clustering (the paper, Eq. 4–5).
    Finch,
    /// Lloyd's k-means with a fixed cluster count.
    Kmeans(usize),
    /// No clustering: a single mean per class (the "directly averaging all
    /// prompts" strawman the paper argues against).
    Average,
}

/// One client's per-class prompt means for a round (Eq. 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalPromptGroup {
    /// Uploading client.
    pub client_id: usize,
    /// `(class, flattened p*d prompt)` pairs for classes present locally.
    pub prompts: Vec<(usize, Vec<f32>)>,
}

impl LocalPromptGroup {
    /// Serialized payload size in bytes (for traffic accounting).
    pub fn byte_len(&self) -> u64 {
        self.prompts
            .iter()
            .map(|(_, v)| 8 + 4 * v.len() as u64)
            .sum()
    }

    /// The wire envelope this group travels in (ids narrowed to the codec's
    /// fixed-width fields).
    pub fn to_wire(&self) -> refil_fed::PromptGroup {
        refil_fed::PromptGroup {
            client_id: self.client_id as u64,
            prompts: self
                .prompts
                .iter()
                .map(|(k, v)| (*k as u32, v.clone()))
                .collect(),
        }
    }

    /// Reconstructs the group from its decoded wire envelope.
    pub fn from_wire(g: refil_fed::PromptGroup) -> Self {
        Self {
            client_id: g.client_id as usize,
            prompts: g
                .prompts
                .into_iter()
                .map(|(k, v)| (k as usize, v))
                .collect(),
        }
    }
}

/// Server-side global prompt state: a bounded per-class history of uploaded
/// LPGs, FINCH-clustered into representatives after every round.
#[derive(Debug, Clone)]
pub struct GlobalPromptStore {
    classes: usize,
    dim: usize,
    /// `pool[k]` = recent LPG history for class `k` (FIFO, bounded, oldest
    /// first), with the cosines between its prompts kept current so each
    /// round computes only the new prompts' rows.
    pool: Vec<PointHistory>,
    /// `reps[k]` = representative prompts for class `k` (cluster means).
    reps: Vec<Vec<Vec<f32>>>,
    /// Cap on stored representatives per class.
    per_class_cap: usize,
    /// Condensation algorithm.
    mode: ClusterMode,
}

impl GlobalPromptStore {
    /// Creates an empty store for `classes` classes of flattened prompt
    /// dimension `dim`.
    pub fn new(classes: usize, dim: usize) -> Self {
        Self {
            classes,
            dim,
            pool: Self::histories(classes, dim, 64),
            reps: vec![Vec::new(); classes],
            per_class_cap: 16,
            mode: ClusterMode::Finch,
        }
    }

    /// Overrides the per-class representative cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.per_class_cap = cap.max(1);
        self
    }

    /// Overrides the per-class LPG history cap. Call it before the first
    /// ingest: it starts every class's history afresh.
    pub fn with_pool_cap(mut self, cap: usize) -> Self {
        self.pool = Self::histories(self.classes, self.dim, cap.max(2));
        self
    }

    fn histories(classes: usize, dim: usize, cap: usize) -> Vec<PointHistory> {
        (0..classes).map(|_| PointHistory::new(dim, cap)).collect()
    }

    /// Overrides the condensation algorithm (ablation support).
    pub fn with_mode(mut self, mode: ClusterMode) -> Self {
        self.mode = mode;
        self
    }

    /// Flattened prompt dimension `p * d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether any representatives exist yet.
    pub fn is_empty(&self) -> bool {
        self.reps.iter().all(Vec::is_empty)
    }

    /// Total representative count across classes.
    pub fn total_reps(&self) -> usize {
        self.reps.iter().map(Vec::len).sum()
    }

    /// Representatives for class `k` (`P̂^{g,k}`, Eq. 5).
    pub fn class_representatives(&self, k: usize) -> &[Vec<f32>] {
        &self.reps[k]
    }

    /// Ingests a round of uploads: each LPG joins its class's bounded FIFO
    /// history, then every touched class is re-clustered with FINCH (finest
    /// partition, Eq. 4–5) and the cluster means become the representatives.
    ///
    /// The history preserves prompts from domains whose clients no longer
    /// participate — the store is the framework's only cross-task memory,
    /// and it is rehearsal-free (no raw data, only `p*d`-float prompts).
    ///
    /// # Panics
    ///
    /// Panics if any prompt has the wrong dimension or class index.
    pub fn ingest(&mut self, uploads: &[LocalPromptGroup]) {
        self.ingest_traced(uploads, &Telemetry::disabled());
    }

    /// [`GlobalPromptStore::ingest`] wrapped in a `prompt_ingest` telemetry
    /// span; FINCH re-clustering spans nest inside it, and the resulting
    /// pool and representative sizes are recorded as histogram observations.
    ///
    /// # Panics
    ///
    /// Panics if any prompt has the wrong dimension or class index.
    pub fn ingest_traced(&mut self, uploads: &[LocalPromptGroup], telemetry: &Telemetry) {
        let _span = telemetry.span("prompt_ingest");
        let mut fresh: Vec<Vec<&[f32]>> = vec![Vec::new(); self.classes];
        for up in uploads {
            for (k, v) in &up.prompts {
                assert!(*k < self.classes, "class {k} out of range");
                assert_eq!(v.len(), self.dim, "prompt dim mismatch");
                fresh[*k].push(v);
            }
        }
        for (k, prompts) in fresh.iter().enumerate() {
            if prompts.is_empty() {
                continue;
            }
            let pool = &mut self.pool[k];
            pool.extend(prompts);
            if pool.len() == 1 {
                self.reps[k] = pool.to_vecs();
                continue;
            }
            let mut means = match self.mode {
                ClusterMode::Finch => {
                    let result = pool.finch_traced(telemetry);
                    // The finest partition separates domains (prompts from
                    // different domains are unlikely to be first neighbours);
                    // when it exceeds the cap, fall back to the hierarchy
                    // level closest to the cap.
                    let partition = if result.finest().num_clusters > self.per_class_cap {
                        result.closest_to(self.per_class_cap)
                    } else {
                        result.finest()
                    };
                    pool.cluster_means(&partition.labels, partition.num_clusters)
                }
                ClusterMode::Kmeans(kk) => kmeans(&pool.to_vecs(), kk.max(1), 17, 50).centroids,
                ClusterMode::Average => pool.cluster_means(&vec![0; pool.len()], 1),
            };
            means.truncate(self.per_class_cap);
            self.reps[k] = means;
        }
        telemetry.observe(
            "prompt.pool_size",
            self.pool.iter().map(PointHistory::len).sum::<usize>() as f64,
        );
        telemetry.observe("prompt.reps", self.total_reps() as f64);
    }

    /// All representatives as a flat candidate list plus each one's class —
    /// the sampling set for the DPCL loss.
    pub fn candidates(&self) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut cands = Vec::with_capacity(self.total_reps());
        let mut classes = Vec::with_capacity(self.total_reps());
        for (k, reps) in self.reps.iter().enumerate() {
            for r in reps {
                cands.push(r.clone());
                classes.push(k);
            }
        }
        (cands, classes)
    }

    /// The generalized global prompt `P̄^g` (Eq. 8): the per-class average of
    /// clustered representatives, averaged across classes into a single
    /// flattened prompt. `None` while the store is empty.
    pub fn generalized_prompt(&self) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        let mut classes_with = 0usize;
        for reps in &self.reps {
            if reps.is_empty() {
                continue;
            }
            let mut class_mean = vec![0.0f32; self.dim];
            for r in reps {
                for (m, &x) in class_mean.iter_mut().zip(r) {
                    *m += x;
                }
            }
            for (a, m) in acc.iter_mut().zip(&class_mean) {
                *a += m / reps.len() as f32;
            }
            classes_with += 1;
        }
        if classes_with == 0 {
            return None;
        }
        for a in &mut acc {
            *a /= classes_with as f32;
        }
        Some(acc)
    }

    /// Broadcast payload size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.iter().map(|v| 4 * v.len() as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lpg(client: usize, class: usize, v: Vec<f32>) -> LocalPromptGroup {
        LocalPromptGroup {
            client_id: client,
            prompts: vec![(class, v)],
        }
    }

    #[test]
    fn ingest_clusters_two_domains() {
        let mut store = GlobalPromptStore::new(2, 2);
        // Class 0 prompts from two distinct "domains".
        store.ingest(&[
            lpg(0, 0, vec![1.0, 0.0]),
            lpg(1, 0, vec![0.95, 0.02]),
            lpg(2, 0, vec![0.0, 1.0]),
            lpg(3, 0, vec![0.03, 0.98]),
        ]);
        assert_eq!(store.class_representatives(0).len(), 2);
        assert!(store.class_representatives(1).is_empty());
    }

    #[test]
    fn previous_reps_survive_new_rounds() {
        let mut store = GlobalPromptStore::new(1, 2);
        store.ingest(&[lpg(0, 0, vec![1.0, 0.0]), lpg(1, 0, vec![0.97, 0.03])]);
        assert_eq!(store.total_reps(), 1);
        // A later round with only the other domain's prompts must not erase
        // the first domain's cluster: the LPG history keeps it alive.
        store.ingest(&[lpg(2, 0, vec![0.0, 1.0]), lpg(3, 0, vec![0.02, 0.97])]);
        assert_eq!(store.class_representatives(0).len(), 2);
    }

    #[test]
    fn cluster_modes_condense_differently() {
        let uploads = vec![
            lpg(0, 0, vec![1.0, 0.0]),
            lpg(1, 0, vec![0.97, 0.03]),
            lpg(2, 0, vec![0.0, 1.0]),
            lpg(3, 0, vec![0.02, 0.97]),
        ];
        let mut f = GlobalPromptStore::new(1, 2);
        f.ingest(&uploads);
        assert_eq!(f.class_representatives(0).len(), 2);
        let mut a = GlobalPromptStore::new(1, 2).with_mode(ClusterMode::Average);
        a.ingest(&uploads);
        assert_eq!(a.class_representatives(0).len(), 1);
        let mut k = GlobalPromptStore::new(1, 2).with_mode(ClusterMode::Kmeans(3));
        k.ingest(&uploads);
        assert_eq!(k.class_representatives(0).len(), 3);
    }

    #[test]
    fn pool_cap_bounds_history() {
        let mut store = GlobalPromptStore::new(1, 2).with_pool_cap(4);
        for i in 0..20 {
            store.ingest(&[lpg(i, 0, vec![i as f32, 1.0])]);
        }
        assert!(store.pool[0].len() <= 4);
    }

    #[test]
    fn incremental_store_matches_finch_from_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use refil_clustering::{cluster_means, finch};

        // The reference is the store as first written: a `Vec` FIFO per
        // class, re-clustered from scratch with `finch` every round. Coarse
        // values make duplicates, zero vectors and exact ties common; the
        // small caps force FIFO eviction and the `closest_to` fallback.
        const COARSE: [f32; 5] = [-1.0, 0.0, 0.0, 0.5, 1.0];
        let (classes, dim, pool_cap, rep_cap) = (3, 4, 6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = GlobalPromptStore::new(classes, dim)
            .with_pool_cap(pool_cap)
            .with_cap(rep_cap);
        let mut pools = vec![Vec::<Vec<f32>>::new(); classes];
        let mut reps = vec![Vec::<Vec<f32>>::new(); classes];
        for _ in 0..60 {
            let coarse = rng.gen_bool(0.7);
            let uploads: Vec<LocalPromptGroup> = (0..rng.gen_range(1..5))
                .map(|client_id| LocalPromptGroup {
                    client_id,
                    prompts: (0..rng.gen_range(1..4))
                        .map(|_| {
                            let v = (0..dim)
                                .map(|_| {
                                    if coarse {
                                        COARSE[rng.gen_range(0..COARSE.len())]
                                    } else {
                                        rng.gen_range(-1.0..1.0)
                                    }
                                })
                                .collect();
                            (rng.gen_range(0..classes), v)
                        })
                        .collect(),
                })
                .collect();
            store.ingest(&uploads);
            let mut touched = vec![false; classes];
            for (k, v) in uploads.iter().flat_map(|u| &u.prompts) {
                pools[*k].push(v.clone());
                if pools[*k].len() > pool_cap {
                    pools[*k].remove(0);
                }
                touched[*k] = true;
            }
            for k in (0..classes).filter(|&k| touched[k]) {
                let pool = &pools[k];
                reps[k] = if pool.len() == 1 {
                    pool.clone()
                } else {
                    let result = finch(pool);
                    let p = if result.finest().num_clusters > rep_cap {
                        result.closest_to(rep_cap)
                    } else {
                        result.finest()
                    };
                    let mut means = cluster_means(pool, &p.labels, p.num_clusters);
                    means.truncate(rep_cap);
                    means
                };
            }
            for (k, want) in reps.iter().enumerate() {
                let bits = |r: &[Vec<f32>]| -> Vec<Vec<u32>> {
                    r.iter()
                        .map(|v| v.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(
                    bits(store.class_representatives(k)),
                    bits(want),
                    "class {k}"
                );
            }
        }
    }

    #[test]
    fn cap_limits_representatives() {
        let mut store = GlobalPromptStore::new(1, 2).with_cap(2);
        // Four orthogonal-ish directions would give up to 4 clusters.
        store.ingest(&[
            lpg(0, 0, vec![1.0, 0.0]),
            lpg(1, 0, vec![-1.0, 0.0]),
            lpg(2, 0, vec![0.0, 1.0]),
            lpg(3, 0, vec![0.0, -1.0]),
        ]);
        assert!(store.class_representatives(0).len() <= 2);
    }

    #[test]
    fn generalized_prompt_is_mean_of_class_means() {
        let mut store = GlobalPromptStore::new(2, 2);
        store.ingest(&[lpg(0, 0, vec![2.0, 0.0]), lpg(1, 1, vec![0.0, 4.0])]);
        let p = store.generalized_prompt().unwrap();
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    fn empty_store_has_no_generalized_prompt() {
        let store = GlobalPromptStore::new(3, 4);
        assert!(store.generalized_prompt().is_none());
        assert!(store.is_empty());
        assert_eq!(store.candidates().0.len(), 0);
    }

    #[test]
    fn candidates_align_with_classes() {
        let mut store = GlobalPromptStore::new(2, 2);
        store.ingest(&[lpg(0, 0, vec![1.0, 0.0]), lpg(1, 1, vec![0.0, 1.0])]);
        let (cands, classes) = store.candidates();
        assert_eq!(cands.len(), classes.len());
        assert_eq!(classes, vec![0, 1]);
    }

    #[test]
    fn byte_len_counts_floats() {
        let mut store = GlobalPromptStore::new(1, 3);
        store.ingest(&[lpg(0, 0, vec![1.0, 2.0, 3.0])]);
        assert_eq!(store.byte_len(), 12);
        let up = lpg(0, 0, vec![1.0, 2.0, 3.0]);
        assert_eq!(up.byte_len(), 8 + 12);
    }
}
