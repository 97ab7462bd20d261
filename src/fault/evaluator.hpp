#pragma once
// Monte-Carlo robustness evaluation (paper Eq. 3-4), generalized over the
// pluggable FaultModel zoo.
//
// The fault-marginalized utility u(alpha, theta) = -E[loss] is intractable;
// it is estimated by T independent fault samples: perturb, evaluate on the
// held-out set, restore, average.  The sampling loop only sees the
// FaultModel interface, so drift, stuck-at, bit-flip, variation,
// quantization, and composed models all evaluate through the same
// deterministic parallel machinery.

#include <functional>
#include <vector>

#include "fault/drift.hpp"
#include "fault/injector.hpp"
#include "fault/model.hpp"
#include "nn/module.hpp"

namespace bayesft::fault {

/// Summary statistics of a Monte-Carlo robustness evaluation.
struct RobustnessReport {
    double mean_accuracy = 0.0;  ///< mean metric over fault samples
    double std_accuracy = 0.0;   ///< population standard deviation
    double min_accuracy = 0.0;   ///< worst sample
    double max_accuracy = 0.0;   ///< best sample
    std::vector<double> samples;  ///< per-fault-sample metric values
};

/// Estimates classification accuracy of `model` on (images, labels) under
/// `fault`, averaged over `num_samples` independent fault realizations.
/// Weights are restored after every sample (strong exception safety via
/// WeightSnapshot).
///
/// Monte-Carlo samples are distributed over the global thread pool using
/// per-thread model replicas (Module::clone) and per-sample forked RNG
/// streams, so the report — including the per-sample vector — is
/// bit-identical for every `num_threads` value and every FaultModel.
/// num_threads: 0 = pool width, 1 = serial in-place evaluation, N = at
/// most N threads.
///
/// Thread safety: safe to call concurrently on distinct models; `rng` is
/// advanced exactly once regardless of thread count.
RobustnessReport evaluate_under_faults(nn::Module& model,
                                       const Tensor& images,
                                       const std::vector<int>& labels,
                                       const FaultModel& fault,
                                       std::size_t num_samples, Rng& rng,
                                       std::size_t num_threads = 0);

/// Generic variant: `metric` maps the perturbed model to any scalar score
/// (e.g. mAP for detection).  Same perturb-score-restore discipline and the
/// same deterministic sample-parallel execution.
///
/// num_threads defaults to 1 (serial) because parallel execution evaluates
/// `metric` concurrently on per-thread *replicas* of `model`: pass
/// num_threads 0 (pool width) or > 1 only if `metric` scores the module it
/// is handed (never a captured alias of `model`) and is safe to call
/// concurrently.  Falls back to serial when the model has a layer without
/// clone() support.
///
/// Debug builds additionally assert `verify_stateless(fault)` — a fault
/// model with hidden mutable state would silently break the thread-count
/// invariance guarantee.
RobustnessReport evaluate_metric_under_faults(
    nn::Module& model, const FaultModel& fault, std::size_t num_samples,
    Rng& rng, const std::function<double(nn::Module&)>& metric,
    std::size_t num_threads = 1);

/// Sweeps a sigma grid with LogNormalDrift, returning mean accuracy per
/// sigma.  This is the x-axis of every accuracy figure in the paper.
std::vector<double> sigma_sweep(nn::Module& model, const Tensor& images,
                                const std::vector<int>& labels,
                                const std::vector<double>& sigmas,
                                std::size_t num_samples, Rng& rng);

}  // namespace bayesft::fault
