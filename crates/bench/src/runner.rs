//! Experiment orchestration: run one or all methods on one dataset.

use refil_eval::{scores, Scores};
use refil_fed::{FdilRunner, RunResult};
use refil_telemetry::Telemetry;

use crate::datasets::{DatasetChoice, Scale};
use crate::methods::{build_method, method_config, MethodChoice};

/// One experiment: a dataset at a scale, in canonical or new domain order.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Which dataset.
    pub dataset: DatasetChoice,
    /// Protocol scaling.
    pub scale: Scale,
    /// Use the Table 4 shuffled domain order.
    pub new_order: bool,
    /// Master seed (data generation, protocol, model init).
    pub seed: u64,
}

impl ExperimentSpec {
    /// Canonical-order experiment at the environment-selected scale.
    pub fn new(dataset: DatasetChoice) -> Self {
        Self {
            dataset,
            scale: Scale::from_env(),
            new_order: false,
            seed: 42,
        }
    }

    /// Switches to the Table 4 domain order.
    pub fn with_new_order(mut self, new_order: bool) -> Self {
        self.new_order = new_order;
        self
    }
}

/// One method's outcome on an experiment.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Paper row label.
    pub name: String,
    /// Raw run output (per-domain accuracy matrix, traffic, timeline).
    pub result: RunResult,
    /// Avg / Last / forgetting summary.
    pub scores: Scores,
}

/// Runs one method on an experiment (telemetry disabled).
pub fn run_experiment(spec: &ExperimentSpec, method: MethodChoice) -> MethodResult {
    run_experiment_traced(spec, method, &Telemetry::disabled())
}

/// Runs one method on an experiment, recording the federated loop into
/// `telemetry` (see [`refil_fed::FdilRunner`] for the span hierarchy).
///
/// The worker-thread count follows `REFIL_THREADS` (the [`FdilRunner`]
/// default); results are byte-identical at any thread count.
pub fn run_experiment_traced(
    spec: &ExperimentSpec,
    method: MethodChoice,
    telemetry: &Telemetry,
) -> MethodResult {
    run_experiment_with_threads(spec, method, telemetry, None)
}

/// Like [`run_experiment_traced`], with an explicit worker-thread count.
///
/// `threads = None` keeps the `REFIL_THREADS` default; `Some(0)` uses all
/// available cores; any other value is the exact worker count.
pub fn run_experiment_with_threads(
    spec: &ExperimentSpec,
    method: MethodChoice,
    telemetry: &Telemetry,
    threads: Option<usize>,
) -> MethodResult {
    run_experiment_with_wire(spec, method, telemetry, threads, None)
}

/// Like [`run_experiment_with_threads`], additionally overriding the uplink
/// compression spec (`wire = None` keeps the dataset default, i.e. the
/// identity spec). This is the in-process counterpart of the networked
/// `--wire` flag: same config knob, same byte accounting.
pub fn run_experiment_with_wire(
    spec: &ExperimentSpec,
    method: MethodChoice,
    telemetry: &Telemetry,
    threads: Option<usize>,
    wire: Option<refil_fed::WireConfig>,
) -> MethodResult {
    let dataset = spec
        .dataset
        .generate(&spec.scale, spec.seed, spec.new_order);
    let cfg = method_config(spec.dataset, dataset.num_domains(), spec.seed ^ 7);
    let mut strategy = build_method(method, cfg);
    let mut run_cfg = spec.dataset.run_config(&spec.scale, spec.seed);
    if let Some(w) = wire {
        run_cfg.wire = w;
    }
    let mut runner = FdilRunner::new(run_cfg).telemetry(telemetry);
    if let Some(n) = threads {
        runner = runner.threads(n);
    }
    let result = runner.run(&dataset, strategy.as_mut());
    let s = scores(&result.domain_acc);
    MethodResult {
        name: method.paper_name().to_string(),
        result,
        scores: s,
    }
}

/// Runs all eight methods on an experiment, in the paper's row order.
///
/// Progress is reported through a level-filtered stderr telemetry sink
/// (`REFIL_LOG` controls verbosity); each run takes seconds to minutes at
/// bench scale on one core.
pub fn run_all_methods(spec: &ExperimentSpec) -> Vec<MethodResult> {
    MethodChoice::all()
        .into_iter()
        .map(|m| {
            let telemetry = Telemetry::stderr();
            let start = std::time::Instant::now();
            let r = run_experiment_traced(spec, m, &telemetry);
            telemetry.info(format!(
                "{}: Avg {:.2}%  Last {:.2}%  ({:.1?})",
                r.name,
                r.scores.avg,
                r.scores.last,
                start.elapsed()
            ));
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_runs_finetune() {
        let spec = ExperimentSpec {
            dataset: DatasetChoice::OfficeCaltech10,
            scale: Scale::smoke(),
            new_order: false,
            seed: 1,
        };
        let r = run_experiment(&spec, MethodChoice::Finetune);
        assert_eq!(r.result.domain_acc.len(), 4);
        assert!(r.scores.avg > 0.0);
    }
}
