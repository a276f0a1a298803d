//! Optimizers operating on a [`Params`] store.

use crate::params::Params;
use crate::tensor::Tensor;

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// The paper trains every method with SGD; this implementation matches
/// PyTorch's semantics (`v = mu*v + g + wd*w; w -= lr*v`).
///
/// # Examples
///
/// ```
/// use refil_nn::{Graph, Params, Sgd, Tensor};
///
/// let mut params = Params::new();
/// let w = params.insert("w", Tensor::from_vec(vec![1.0], &[1]), true);
/// let mut opt = Sgd::new(0.1);
/// let g = Graph::new();
/// let wv = g.param(&params, w);
/// let loss = g.mul(wv, wv);
/// g.backward(loss, &mut params);
/// opt.step(&mut params);
/// assert!((params.value(w).data()[0] - 0.8).abs() < 1e-6); // 1 - 0.1*2
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Tensor>>,
    lr_scales: Option<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
            lr_scales: None,
        }
    }

    /// Sets per-parameter learning-rate multipliers, indexed like the
    /// [`Params`] store (parameter-group learning rates, e.g. a slow
    /// backbone with fast prompt/classifier heads).
    pub fn with_param_lr_scales(mut self, scales: Vec<f32>) -> Self {
        self.lr_scales = Some(scales);
        self
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update to every trainable parameter, then leaves the
    /// gradients untouched (call [`Params::zero_grad`] before the next pass).
    ///
    /// Updates in place, element by element:
    /// `u = g + wd·w; v = mu·v + u; w += (-lr·scale)·v`. Frozen parameters
    /// are skipped and get no velocity.
    pub fn step(&mut self, params: &mut Params) {
        if self.velocity.len() < params.len() {
            self.velocity.resize(params.len(), None);
        }
        let (wd, mu) = (self.weight_decay, self.momentum);
        for (idx, entry) in params.entries_mut().iter_mut().enumerate() {
            if !entry.trainable {
                continue;
            }
            let scale = self
                .lr_scales
                .as_ref()
                .and_then(|s| s.get(idx).copied())
                .unwrap_or(1.0);
            let alpha = -self.lr * scale;
            let mut velocity = if mu != 0.0 {
                let v = self.velocity[idx].get_or_insert_with(|| Tensor::zeros(entry.grad.shape()));
                Some(v.data_mut())
            } else {
                None
            };
            let w = entry.value.data_mut();
            for (i, (wi, &gi)) in w.iter_mut().zip(entry.grad.data()).enumerate() {
                let mut u = gi;
                if wd != 0.0 {
                    u += wd * *wi;
                }
                if let Some(v) = velocity.as_deref_mut() {
                    v[i] *= mu;
                    v[i] += u;
                    u = v[i];
                }
                *wi += alpha * u;
            }
        }
    }

    /// Drops momentum state (used at task boundaries).
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }
}

/// Adam optimizer (used for substrate diagnostics; the paper's runs use SGD).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam update to every trainable parameter.
    pub fn step(&mut self, params: &mut Params) {
        self.t += 1;
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = params
            .iter()
            .filter(|(_, e)| e.trainable)
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            let idx = id.index();
            let g = params.grad(id).clone();
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(g.shape()));
            m.scale_inplace(self.beta1);
            m.axpy(1.0 - self.beta1, &g);
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(g.shape()));
            v.scale_inplace(self.beta2);
            let g2 = g.map(|x| x * x);
            v.axpy(1.0 - self.beta2, &g2);
            let mhat = m.map(|x| x / bc1);
            let vhat = v.map(|x| x / bc2);
            let upd = mhat.zip(&vhat, |mi, vi| mi / (vi.sqrt() + self.eps));
            params.value_mut(id).axpy(-self.lr, &upd);
        }
    }
}

/// Rescales trainable gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &mut Params, max_norm: f32) -> f32 {
    let norm = params.grad_norm();
    if norm > max_norm && norm > 0.0 {
        params.scale_grads(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quad_loss_step(params: &mut Params, opt: &mut Sgd) -> f32 {
        params.zero_grad();
        let g = Graph::new();
        let w = g.param(params, params.id("w").unwrap());
        let loss = g.mul(w, w);
        let loss_sum = g.sum_all(loss);
        let out = g.value(loss_sum).data()[0];
        g.backward(loss_sum, params);
        opt.step(params);
        out
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = Params::new();
        params.insert("w", Tensor::from_vec(vec![5.0, -3.0], &[2]), true);
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let l = quad_loss_step(&mut params, &mut opt);
            assert!(l <= last + 1e-6, "loss increased: {l} > {last}");
            last = l;
        }
        assert!(last < 1e-3, "did not converge: {last}");
    }

    #[test]
    fn momentum_accelerates() {
        let mut p1 = Params::new();
        p1.insert("w", Tensor::from_vec(vec![5.0], &[1]), true);
        let mut p2 = p1.clone();
        let mut plain = Sgd::new(0.01);
        let mut mom = Sgd::new(0.01).with_momentum(0.9);
        for _ in 0..20 {
            quad_loss_step(&mut p1, &mut plain);
            quad_loss_step(&mut p2, &mut mom);
        }
        let l1 = p1.value(p1.id("w").unwrap()).data()[0].abs();
        let l2 = p2.value(p2.id("w").unwrap()).data()[0].abs();
        assert!(l2 < l1, "momentum ({l2}) should beat plain ({l1})");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::from_vec(vec![1.0], &[1]), true);
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        // No loss gradient: only decay acts.
        opt.step(&mut params);
        assert!((params.value(w).data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn frozen_params_unchanged() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::from_vec(vec![2.0], &[1]), false);
        params.grad_mut(w).fill(1.0);
        let mut opt = Sgd::new(0.5);
        opt.step(&mut params);
        assert_eq!(params.value(w).data(), &[2.0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = Params::new();
        params.insert("w", Tensor::from_vec(vec![4.0], &[1]), true);
        let mut opt = Adam::new(0.2);
        for _ in 0..100 {
            params.zero_grad();
            let g = Graph::new();
            let w = g.param(&params, params.id("w").unwrap());
            let loss = g.mul(w, w);
            let s = g.sum_all(loss);
            g.backward(s, &mut params);
            opt.step(&mut params);
        }
        assert!(params.value(params.id("w").unwrap()).data()[0].abs() < 0.1);
    }

    #[test]
    fn per_param_lr_scales_apply() {
        let mut params = Params::new();
        let a = params.insert("a", Tensor::from_vec(vec![1.0], &[1]), true);
        let b = params.insert("b", Tensor::from_vec(vec![1.0], &[1]), true);
        params.grad_mut(a).fill(1.0);
        params.grad_mut(b).fill(1.0);
        let mut opt = Sgd::new(0.1).with_param_lr_scales(vec![0.1, 1.0]);
        opt.step(&mut params);
        assert!((params.value(a).data()[0] - 0.99).abs() < 1e-6);
        assert!((params.value(b).data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::zeros(&[2]), true);
        params.grad_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = clip_grad_norm(&mut params, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((params.grad_norm() - 1.0).abs() < 1e-5);
    }
}
