#include "core/experiment.hpp"

#include <stdexcept>

#include "core/method.hpp"
#include "fault/evaluator.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {

ResultTable ExperimentResult::to_table(const std::string& title) const {
    std::vector<std::string> columns{"sigma"};
    for (const MethodCurve& curve : curves) columns.push_back(curve.method);
    ResultTable table(title, columns);
    for (std::size_t i = 0; i < sigmas.size(); ++i) {
        std::vector<double> row{sigmas[i]};
        for (const MethodCurve& curve : curves) {
            row.push_back(curve.accuracy[i] * 100.0);
        }
        table.add_row(row);
    }
    return table;
}

namespace {

/// Sigma sweep with a custom accuracy metric (standard or FTNA decode).
/// `num_threads` follows the evaluate_metric_under_faults contract: pass 0
/// (pool width) only for metrics that score the module they are handed.
std::vector<double> sweep(
    nn::Module& net, const std::vector<double>& sigmas,
    std::size_t eval_samples, Rng& rng,
    const std::function<double(nn::Module&)>& metric,
    std::size_t num_threads) {
    std::vector<double> curve;
    curve.reserve(sigmas.size());
    for (double sigma : sigmas) {
        const fault::LogNormalDrift drift(sigma);
        curve.push_back(fault::evaluate_metric_under_faults(
                            net, drift, eval_samples, rng, metric,
                            num_threads)
                            .mean_accuracy);
    }
    return curve;
}

}  // namespace

ExperimentResult run_classification_experiment(
    const ModelFactory& factory, const data::Dataset& train_set,
    const data::Dataset& test_set, std::size_t num_classes,
    const ExperimentConfig& config) {
    if (!factory) {
        throw std::invalid_argument("run_classification_experiment: no factory");
    }
    ExperimentResult result;
    result.sigmas = config.sigmas;

    for (const auto& method : make_methods(config.methods)) {
        Rng rng(config.seed + method->seed_offset());
        const TrainedMethod trained = method->train(
            factory, train_set, test_set, num_classes, config, rng);
        if (!trained.trials.empty()) {
            result.bayesft_trials = trained.trials;
            result.bayesft_trial_points = trained.trial_points;
            result.bayesft_resumed = trained.resumed_trials;
        }
        if (!trained.search_completed) {
            // The search checkpointed out mid-run (stop_after): its model
            // is half-searched state, so skip the sweep — the caller
            // resumes with the same checkpoint path to finish the figure.
            result.bayesft_completed = false;
            break;
        }
        result.curves.push_back(
            {method->name(),
             sweep(*trained.net, config.sigmas, config.eval_samples, rng,
                   trained.metric, trained.sweep_threads)});
        if (!trained.best_alpha.empty()) {
            result.bayesft_alpha = trained.best_alpha;
        }
    }
    return result;
}

}  // namespace bayesft::core
