// End-to-end benchmark driver for BayesFT (see README.md next to this
// file).  It assembles each workload from the library's public functions
// and times those calls from outside:
//
//   search loop   bayesopt::BayesOpt::suggest_batch / observe_batch and
//                 core::EvaluationEngine::evaluate_batch / evaluate_points
//   evaluators    models builders, nn::train_classifier,
//                 fault::evaluate_under_faults
//   persistence   core::save_checkpoint, core::RunStore::append
//   server        an in-process serve::EvalServer driven by
//                 serve::ServeClient connections
//
// Usage:
//   e2ebench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir>
//   e2ebench_driver --self-test | --list
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/bayesopt.hpp"
#include "core/engine.hpp"
#include "core/param_space.hpp"
#include "core/persist.hpp"
#include "core/runstore.hpp"
#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/objects.hpp"
#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/targets.hpp"
#include "simd/kernels.hpp"
#include "trace.hpp"
#include "utils/parallel.hpp"
#include "utils/rng.hpp"

#ifndef E2E_FLAGS
#define E2E_FLAGS "unknown"
#endif
#ifdef __clang__
#define E2E_COMPILER "clang " __clang_version__
#else
#define E2E_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace bayesft;
using e2ebench::Span;

// ---------------------------------------------------------------- names --

const std::vector<std::string> kWorkloads = {
    "cnn_dropout_search", "long_arch_search", "pool_arch_search",
    "serve_mixed"};

struct MetricSpec {
    const char* name;
    const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"search_s", "s"},
    {"round_p50_ms", "ms"},     {"round_p95_ms", "ms"},
    {"jobs_per_s", "1/s"},      {"req_p50_us", "us"},
    {"req_p99_us", "us"},       {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.gen_s", "s"},
    {"models.build_s", "s"},
    {"models.build_calls", "count"},
    {"nn.train_s", "s"},
    {"nn.train_calls", "count"},
    {"nn.train_samples_per_s", "1/s"},
    {"fault.mc_s", "s"},
    {"fault.mc_passes", "count"},
    {"fault.mc_passes_per_s", "1/s"},
    {"bayesopt.suggest_s", "s"},
    {"bayesopt.suggest_calls", "count"},
    {"bayesopt.observe_s", "s"},
    {"bayesopt.gp_rows", "count"},
    {"bayesopt.best_utility", "ratio"},
    {"engine.eval_s", "s"},
    {"engine.self_s", "s"},
    {"engine.candidates", "count"},
    {"engine.cache_hits", "count"},
    {"engine.hit_ratio", "ratio"},
    {"engine.failed", "count"},
    {"distrib.eval_s", "s"},
    {"distrib.trials_per_s", "1/s"},
    {"persist.save_s", "s"},
    {"persist.saves", "count"},
    {"persist.bytes", "bytes"},
    {"runstore.append_s", "s"},
    {"runstore.appends", "count"},
    {"runstore.bytes", "bytes"},
    {"serve.self_s", "s"},
    {"serve.batches", "count"},
    {"serve.jobs_per_batch", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.busy", "count"},
    {"serve.evictions", "count"},
    {"serve.hot_p50_us", "us"},
    {"serve.cold_p50_us", "us"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// Span layer names (the prefix of the per-layer metrics they feed).
constexpr const char* kDataGen = "data.gen";
constexpr const char* kModelsBuild = "models.build";
constexpr const char* kNnTrain = "nn.train";
constexpr const char* kFaultMc = "fault.mc";
constexpr const char* kSuggest = "bayesopt.suggest";
constexpr const char* kObserve = "bayesopt.observe";
constexpr const char* kEngineEval = "engine.eval";
constexpr const char* kDistribEval = "distrib.eval";
constexpr const char* kPersistSave = "persist.save";
constexpr const char* kRunstoreAppend = "runstore.append";
constexpr const char* kServeRequest = "serve.request";

// ------------------------------------------------------------- counters --

/// Work counts at the layer boundaries the driver calls.  Atomic because
/// the evaluator closures run on pool threads.
struct Counters {
    std::atomic<std::uint64_t> build_calls{0};
    std::atomic<std::uint64_t> train_calls{0};
    std::atomic<std::uint64_t> train_samples{0};
    std::atomic<std::uint64_t> mc_passes{0};
    std::atomic<std::uint64_t> suggest_calls{0};
    std::atomic<std::uint64_t> candidates{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> saves{0};
    std::atomic<std::uint64_t> save_bytes{0};
    std::atomic<std::uint64_t> appends{0};
    std::atomic<std::uint64_t> append_bytes{0};

    void reset() {
        for (auto* c : {&build_calls, &train_calls, &train_samples,
                        &mc_passes, &suggest_calls, &candidates, &cache_hits,
                        &failed, &saves, &save_bytes, &appends,
                        &append_bytes}) {
            c->store(0);
        }
    }
};

Counters g_counters;

/// Counts only while tracing: counts belong to the traced run, and the
/// untraced run pays nothing for them.
void count(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
    if (e2ebench::tracing()) counter += n;
}

// ------------------------------------------------- traced library calls --

models::ModelHandle traced_build(
    const std::function<models::ModelHandle()>& build,
    std::uint64_t parent = 0) {
    const Span span(kModelsBuild, parent);
    count(g_counters.build_calls);
    return build();
}

void traced_train(nn::Module& net, const data::Dataset& train,
                  const nn::TrainConfig& config, Rng& rng,
                  std::uint64_t parent = 0) {
    const Span span(kNnTrain, parent);
    nn::train_classifier(net, train.images, train.labels, config, rng);
    count(g_counters.train_calls);
    count(g_counters.train_samples, config.epochs * train.labels.size());
}

/// The fault-marginalized utility (paper Eq. 4) over log-normal drift
/// levels, one evaluate_under_faults call per level.
double traced_drift_utility(nn::Module& net, const data::Dataset& validation,
                            const std::vector<double>& sigmas,
                            std::size_t mc_samples, Rng& rng,
                            std::uint64_t parent = 0) {
    const Span span(kFaultMc, parent);
    double total = 0.0;
    for (const double sigma : sigmas) {
        total += fault::evaluate_under_faults(
                     net, validation.images, validation.labels,
                     fault::LogNormalDrift(sigma), mc_samples, rng)
                     .mean_accuracy;
    }
    count(g_counters.mc_passes, sigmas.size() * mc_samples);
    return total / static_cast<double>(sigmas.size());
}

data::Dataset traced_data(const std::function<data::Dataset()>& generate) {
    const Span span(kDataGen);
    return generate();
}

// ---------------------------------------------------------------- passes --

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string bits(double value) { return core::format_bits(value); }

std::string bits(const std::vector<double>& point) {
    std::string out;
    for (const double value : point) {
        if (!out.empty()) out += ' ';
        out += bits(value);
    }
    return out;
}

/// What one pass over a workload's fixed budget produced.
struct PassResult {
    double wall_s = 0.0;
    std::vector<double> round_ms;
    std::vector<double> req_us;
    std::vector<double> hot_us;
    std::vector<double> cold_us;
    /// Digest of one line per trial or served response, in order: compared
    /// between the untraced and the traced run.  Only the digest is kept,
    /// so the driver's own memory does not grow with the run length.
    std::uint64_t log_digest = 0;
    /// Utility of every trial or response (NaN where none was returned).
    std::vector<double> utilities;
    std::size_t jobs = 0;
    std::size_t failed = 0;
    /// End-of-pass layer readings (GP rows, server counter deltas, ...).
    std::map<std::string, double> readings;
};

/// Output checks; any failure makes the run incorrect.
struct Checks {
    std::vector<std::string> failures;
    void expect(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Runs pass `pass` (0, 1, ...) of the fixed budget.  A pure function
    /// of (workload seed, pass): the same pass always yields the same log.
    virtual PassResult run_pass(std::size_t pass) = 0;
    /// Output checks on a finished pass, run outside the timed region.
    virtual void check(std::size_t pass, const PassResult& result,
                       Checks& checks) = 0;
};

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
    return core::mix_key(seed, static_cast<std::uint64_t>(pass) + 1);
}

// ------------------------------------------------------- search workloads --

/// One BO search of a fixed trial budget: suggest, evaluate, observe and
/// checkpoint per round, plus one run-store line per trial.
struct SearchSpec {
    std::string scenario;
    core::ParamSpace space;
    std::string acquisition;
    bayesopt::BayesOptConfig bo;
    std::size_t budget = 0;
    std::size_t q = 1;
};

struct SearchOutcome {
    PassResult result;
    bayesopt::Trial best;
};

SearchOutcome run_search(
    const SearchSpec& spec, std::uint64_t seed, const std::string& work_dir,
    const std::function<core::BatchOutcome(const std::vector<core::Alpha>&)>&
        evaluate,
    const std::function<void(core::SearchCheckpoint&)>& fill_checkpoint) {
    SearchOutcome out;
    PassResult& result = out.result;
    const std::string checkpoint_path = work_dir + "/search.ckpt";
    core::RunStore store(work_dir + "/runs");
    const auto start = Clock::now();
    Rng rng(seed);
    bayesopt::BayesOpt bo(spec.space.encoded_bounds(),
                          spec.space.kernel(4.0, 1.0),
                          bayesopt::make_acquisition(spec.acquisition),
                          spec.bo, rng.split(), spec.space.projection());
    std::size_t done = 0;
    while (done < spec.budget) {
        const auto round_start = Clock::now();
        const std::size_t group = std::min(spec.q, spec.budget - done);
        std::vector<bayesopt::Point> points;
        {
            const Span span(kSuggest);
            points = bo.suggest_batch(group);
        }
        count(g_counters.suggest_calls);
        const auto eval_start = Clock::now();
        const core::BatchOutcome outcome = evaluate(points);
        const double eval_us = seconds_since(eval_start) * 1e6;
        count(g_counters.candidates, group);
        count(g_counters.cache_hits, outcome.cache_hits);
        {
            const Span span(kObserve);
            bo.observe_batch(points, outcome.utilities, outcome.statuses);
        }
        core::SearchCheckpoint checkpoint;
        checkpoint.run_id = spec.scenario;
        checkpoint.build = core::build_stamp();
        checkpoint.space_digest = spec.space.digest();
        checkpoint.trials_done = done + group;
        checkpoint.run_rng = rng.state();
        checkpoint.bo = bo.export_state();
        fill_checkpoint(checkpoint);
        {
            const Span span(kPersistSave);
            core::save_checkpoint(checkpoint, checkpoint_path);
        }
        count(g_counters.saves);
        if (e2ebench::tracing()) {
            count(g_counters.save_bytes,
                  std::filesystem::file_size(checkpoint_path));
        }
        std::vector<core::RunRecord> records;
        for (std::size_t j = 0; j < group; ++j) {
            core::RunRecord record;
            record.kind = "trial";
            record.scenario = spec.scenario;
            record.family = "e2ebench";
            record.seed = seed;
            record.build = core::build_stamp();
            record.batch = spec.q;
            record.trial = done + j;
            record.point = spec.space.describe(spec.space.decode(points[j]));
            record.objective = outcome.utilities[j];
            record.status = trial_status_name(outcome.statuses[j]);
            records.push_back(record);
            if (e2ebench::tracing()) {
                count(g_counters.append_bytes,
                      core::RunStore::to_json(record).size() + 1);
            }
            if (outcome.statuses[j] != TrialStatus::kOk) {
                ++result.failed;
                count(g_counters.failed);
            }
            result.log_digest = core::mix_key(
                result.log_digest, std::to_string(done + j) + " " +
                                       bits(points[j]) + " -> " +
                                       bits(outcome.utilities[j]) + " " +
                                       record.status);
            result.utilities.push_back(outcome.utilities[j]);
        }
        result.req_us.push_back(eval_us);
        {
            const Span span(kRunstoreAppend);
            store.append(spec.scenario, records);
        }
        count(g_counters.appends);
        done += group;
        result.round_ms.push_back(seconds_since(round_start) * 1e3);
    }
    result.wall_s = seconds_since(start);
    result.jobs = done;
    out.best = *bo.best();
    result.readings["bayesopt.gp_rows"] =
        static_cast<double>(bo.surrogate().observation_count());
    result.readings["bayesopt.best_utility"] = out.best.y;
    return out;
}

/// Common output checks: the budget was met, nothing failed, and every
/// utility is an accuracy in [0, 1].
void check_trials(const PassResult& result, std::size_t budget,
                  const std::string& label, Checks& checks) {
    checks.expect(result.utilities.size() == budget && result.jobs == budget,
                  label + ": trial count equals the budget");
    checks.expect(result.failed == 0, label + ": no trial failed");
    for (const double utility : result.utilities) {
        if (!std::isfinite(utility) || utility < 0.0 || utility > 1.0) {
            checks.expect(false, label + ": utility finite in [0,1]: " +
                                     bits(utility));
            return;
        }
    }
}

/// Algorithm 1: a dropout-rate-only search on ResNet18-S over synthetic
/// objects.  The weights evolve between rounds (evaluate_batch adopts the
/// winner's replica), q candidates train concurrently, and each is scored
/// under several drift levels with several Monte-Carlo samples.
class CnnDropoutSearch final : public Workload {
public:
    static constexpr std::size_t kSamples = 48;
    static constexpr std::size_t kImageSize = 8;
    static constexpr std::size_t kBudget = 12;
    static constexpr std::size_t kQ = 4;

    CnnDropoutSearch(std::uint64_t seed, std::string work_dir)
        : seed_(seed), work_dir_(std::move(work_dir)) {
        const data::Dataset full = traced_data([&] {
            Rng data_rng(core::mix_key(seed, std::string_view("objects")));
            data::ObjectConfig config;
            config.samples = kSamples;
            config.image_size = kImageSize;
            return data::synthetic_objects(config, data_rng);
        });
        Rng split_rng(core::mix_key(seed, std::string_view("split")));
        data_ = data::split(full, 1.0 / 3.0, split_rng);
        Rng model_rng(core::mix_key(seed, std::string_view("model")));
        base_ = traced_build(
            [&] { return models::make_resnet18_s(10, model_rng); });
        train_.epochs = 1;
        train_.batch_size = 16;
        train_.learning_rate = 0.02;
    }

    PassResult run_pass(std::size_t pass) override {
        const std::uint64_t seed = pass_seed(seed_, pass);
        models::ModelHandle model = base_.clone();
        SearchSpec spec;
        spec.scenario = "cnn_dropout_search";
        spec.space = core::ParamSpace::dropout(model.dropout_sites.size(),
                                               0.5);
        spec.acquisition = "posterior_mean";
        spec.bo.initial_random_trials = kQ;
        spec.budget = kBudget;
        spec.q = kQ;

        core::EvaluationEngine engine;
        core::EvalContext context;
        context.key = core::mix_key(seed, std::string_view("cnn"));
        Rng loop_rng(core::mix_key(seed, std::string_view("loop")));
        const core::CandidateEvaluator evaluator =
            [this](models::ModelHandle& candidate, const core::Alpha&,
                   Rng& r) {
                traced_train(*candidate.net, data_.train, train_, r);
                return traced_drift_utility(*candidate.net, data_.test,
                                            kSigmas, kMcSamples, r);
            };
        const auto evaluate = [&](const std::vector<core::Alpha>& alphas) {
            const Span span(kEngineEval);
            e2ebench::set_ambient_parent(span.id());
            core::BatchOutcome outcome =
                engine.evaluate_batch(model, alphas, evaluator, loop_rng,
                                      context, /*adopt_winner=*/true);
            e2ebench::set_ambient_parent(0);
            ++context.stamp;  // the weights moved: cached utilities are stale
            return outcome;
        };
        const auto fill = [&](core::SearchCheckpoint& checkpoint) {
            checkpoint.context_key = context.key;
            checkpoint.context_stamp = context.stamp;
            checkpoint.model_bits = core::snapshot_model(*model.net);
            checkpoint.model_rngs = core::snapshot_model_rngs(*model.net);
            checkpoint.model_digest = core::model_structure_digest(*model.net);
        };
        return run_search(spec, seed, work_dir_, evaluate, fill).result;
    }

    void check(std::size_t pass, const PassResult& result,
               Checks& checks) override {
        check_trials(result, kBudget,
                     "cnn_dropout_search pass " + std::to_string(pass),
                     checks);
    }

private:
    inline static const std::vector<double> kSigmas = {0.3, 0.9};
    static constexpr std::size_t kMcSamples = 2;

    std::uint64_t seed_;
    std::string work_dir_;
    data::TrainTestSplit data_;
    models::ModelHandle base_;
    nn::TrainConfig train_;
};

/// A self-contained mixed-space architecture search (mlp_arch_family):
/// every candidate builds, trains and scores its own model, so the
/// outcome is a pure function of (context, point).
class ArchSearch : public Workload {
public:
    struct Shape {
        std::string scenario;
        std::size_t budget = 0;
        std::size_t q = 1;
        std::size_t workers = 0;
        models::MlpOptions base;
        nn::TrainConfig train;
        std::vector<double> sigmas;
        std::size_t mc_samples = 1;
    };

    ArchSearch(Shape shape, std::uint64_t seed, std::string work_dir,
               const std::function<data::Dataset()>& generate)
        : shape_(std::move(shape)),
          seed_(seed),
          work_dir_(std::move(work_dir)),
          family_(models::mlp_arch_family(shape_.base, 2, 0.5)) {
        const data::Dataset full = traced_data(generate);
        Rng split_rng(core::mix_key(seed, std::string_view("split")));
        data_ = data::split(full, 0.4, split_rng);
    }

    PassResult run_pass(std::size_t pass) override {
        const std::uint64_t seed = pass_seed(seed_, pass);
        SearchSpec spec;
        spec.scenario = shape_.scenario;
        spec.space = family_.space;
        spec.acquisition = "ei";
        spec.budget = shape_.budget;
        spec.q = shape_.q;

        core::EngineConfig config;
        config.workers = shape_.workers;
        core::EvaluationEngine engine(config);
        const core::EvalContext context = context_for(seed);
        const core::PointEvaluator evaluator = point_evaluator();
        const char* layer = shape_.workers > 0 ? kDistribEval : kEngineEval;
        const auto evaluate = [&](const std::vector<core::Alpha>& points) {
            const Span span(layer);
            e2ebench::set_ambient_parent(span.id());
            core::BatchOutcome outcome =
                engine.evaluate_points(points, evaluator, context);
            e2ebench::set_ambient_parent(0);
            return outcome;
        };
        const auto fill = [&](core::SearchCheckpoint& checkpoint) {
            checkpoint.context_key = context.key;
            checkpoint.context_stamp = context.stamp;
            checkpoint.cache = engine.export_cache();
        };
        SearchOutcome outcome =
            run_search(spec, seed, work_dir_, evaluate, fill);
        bests_[pass] = outcome.best;
        return std::move(outcome.result);
    }

    /// Besides the trial checks, the best point re-evaluated through a
    /// fresh in-process engine must reproduce its recorded utility bit for
    /// bit.
    void check(std::size_t pass, const PassResult& result,
               Checks& checks) override {
        const std::string label =
            shape_.scenario + " pass " + std::to_string(pass);
        check_trials(result, shape_.budget, label, checks);
        const auto found = bests_.find(pass);
        if (found == bests_.end()) {
            checks.expect(false, label + ": no best trial recorded");
            return;
        }
        core::EvaluationEngine fresh;
        const core::BatchOutcome again = fresh.evaluate_points(
            {found->second.x}, point_evaluator(),
            context_for(pass_seed(seed_, pass)));
        checks.expect(again.statuses[0] == TrialStatus::kOk &&
                          bits(again.utilities[0]) ==
                              bits(found->second.y),
                      label + ": best point re-evaluates bit-identically (" +
                          bits(again.utilities[0]) + " vs " +
                          bits(found->second.y) + ")");
    }

private:
    core::EvalContext context_for(std::uint64_t seed) const {
        core::EvalContext context;
        context.key = core::mix_key(seed, family_.space.digest());
        return context;
    }

    core::PointEvaluator point_evaluator() const {
        return [this](const core::Alpha& encoded, Rng& r) {
            const core::ParamPoint point = family_.space.decode(encoded);
            models::ModelHandle model = traced_build(
                [&] { return family_.build(family_.space, point, r); });
            traced_train(*model.net, data_.train, shape_.train, r);
            return traced_drift_utility(*model.net, data_.test,
                                        shape_.sigmas, shape_.mc_samples, r);
        };
    }

    Shape shape_;
    std::uint64_t seed_;
    std::string work_dir_;
    models::ArchFamily family_;
    data::TrainTestSplit data_;
    std::map<std::size_t, bayesopt::Trial> bests_;
};

std::unique_ptr<Workload> make_long_arch_search(std::uint64_t seed,
                                                const std::string& work_dir) {
    ArchSearch::Shape shape;
    shape.scenario = "long_arch_search";
    shape.budget = 200;
    shape.q = 1;
    shape.base.input_features = 2;
    shape.base.hidden = 12;
    shape.base.classes = 3;
    shape.train.epochs = 1;
    shape.train.batch_size = 32;
    shape.train.learning_rate = 0.05;
    shape.sigmas = {0.5};
    shape.mc_samples = 1;
    return std::make_unique<ArchSearch>(shape, seed, work_dir, [seed] {
        Rng data_rng(core::mix_key(seed, std::string_view("blobs")));
        return data::make_blobs(120, 3, 4.0, 0.6, data_rng);
    });
}

std::unique_ptr<Workload> make_pool_arch_search(std::uint64_t seed,
                                                const std::string& work_dir) {
    ArchSearch::Shape shape;
    shape.scenario = "pool_arch_search";
    shape.budget = 100;
    shape.q = 4;
    shape.workers = 4;
    shape.base.input_features = 256;
    shape.base.hidden = 64;
    shape.base.classes = 10;
    shape.train.epochs = 2;
    shape.train.batch_size = 32;
    shape.train.learning_rate = 0.05;
    shape.sigmas = {0.3, 0.6};
    shape.mc_samples = 2;
    return std::make_unique<ArchSearch>(shape, seed, work_dir, [seed] {
        Rng data_rng(core::mix_key(seed, std::string_view("digits")));
        data::DigitConfig config;
        config.samples = 400;
        return data::synthetic_digits(config, data_rng);
    });
}

// ----------------------------------------------------------- serve_mixed --

/// A closed loop of two client connections (enough for the server to
/// coalesce; on the one pinned CPU, more would measure time slices) against
/// an in-process EvalServer serving a toy_mlp target (600 blobs, 12-wide
/// MLP family, 1-epoch training, one drift level).  A share of each
/// client's requests repeats a hot point set that fits in the server's LRU
/// (cache hits); the rest are fresh points (cold engine evaluations).
class ServeMixed final : public Workload {
public:
    static constexpr std::size_t kClients = 2;
    static constexpr std::size_t kHotPoints = 32;
    static constexpr double kHotShare = 0.3;
    static constexpr std::size_t kRequestsPerClient = 100;
    static constexpr std::size_t kCheckedResponses = 12;

    ServeMixed(std::uint64_t seed, std::string work_dir)
        : seed_(seed),
          work_dir_(std::move(work_dir)),
          clients_(kClients) {
        const data::Dataset full = traced_data([&] {
            Rng data_rng(core::mix_key(seed, std::string_view("blobs")));
            return data::make_blobs(600, 3, 4.0, 0.6, data_rng);
        });
        Rng split_rng(core::mix_key(seed, std::string_view("split")));
        auto data = std::make_shared<const data::TrainTestSplit>(
            data::split(full, 0.4, split_rng));
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        auto family = std::make_shared<const models::ArchFamily>(
            models::mlp_arch_family(base, 2, 0.5));
        nn::TrainConfig train;
        train.epochs = 1;
        train.batch_size = 32;
        train.learning_rate = 0.05;

        serve::ServeTarget target;
        target.name = "toy_mlp";
        target.bounds = family->space.encoded_bounds();
        target.digest =
            serve::serve_target_digest(target.name, target.bounds.dims());
        target.evaluate = [this, data, family, train](
                              const core::ObjectiveConfig& objective,
                              const core::Alpha& encoded, Rng& rng) {
            const std::uint64_t parent = request_span(encoded);
            const core::ParamPoint point = family->space.decode(encoded);
            models::ModelHandle model = traced_build(
                [&] { return family->build(family->space, point, rng); },
                parent);
            traced_train(*model.net, data->train, train, rng, parent);
            return traced_drift_utility(*model.net, data->test,
                                        objective.sigmas,
                                        objective.mc_samples, rng, parent);
        };
        core::ObjectiveConfig drift;
        drift.sigmas = {0.5};
        drift.mc_samples = 1;
        target.variants.push_back(
            {"drift",
             serve::fault_variant_digest(target.digest, "drift", drift),
             drift});
        targets_.push_back(std::move(target));
        space_ = family->space;

        Rng hot_rng(core::mix_key(seed, std::string_view("hot")));
        for (std::size_t i = 0; i < kHotPoints; ++i) {
            hot_.push_back(space_.encode(space_.sample(hot_rng)));
        }

        serve::ServeConfig config;
        config.tcp_port = -1;  // ephemeral port on 127.0.0.1
        // No run store: its two fsyncs per evaluated batch took up to 40%
        // of a pass, and their latency follows the shared disk's load.
        // The run-store write path is measured by the searches.
        config.runs_dir = "";
        server_ = std::make_unique<serve::EvalServer>(config, targets_);
        server_->start();
        // Fill the LRU with the hot set: every later hot request is a hit.
        serve::ServeClient client =
            serve::ServeClient::connect_tcp(server_->tcp_port());
        for (const core::Alpha& point : hot_) {
            client.eval(request_for(point));
        }
    }

    ~ServeMixed() override { server_->stop(); }

    PassResult run_pass(std::size_t pass) override {
        const std::uint64_t seed = pass_seed(seed_, pass);
        struct ClientLog {
            std::vector<std::string> responses;
            std::vector<core::Alpha> points;
            std::vector<bool> hot;
            std::vector<double> latency_us;
            std::string error;
        };
        std::vector<ClientLog> logs(clients_);
        const serve::ServeStats before = server_->stats();
        const auto start = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients_; ++c) {
            threads.emplace_back([&, c] {
                ClientLog& log = logs[c];
                try {
                    Rng rng(core::mix_key(seed, static_cast<std::uint64_t>(c)));
                    serve::ServeClient client =
                        serve::ServeClient::connect_tcp(server_->tcp_port());
                    for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
                        const bool hot = rng.uniform() < kHotShare;
                        const core::Alpha point =
                            hot ? hot_[rng.uniform_int(
                                      static_cast<std::uint64_t>(kHotPoints))]
                                : space_.encode(space_.sample(rng));
                        const auto sent = Clock::now();
                        std::string response;
                        {
                            const Span span(kServeRequest);
                            if (!hot) register_request(point, span.id());
                            response = client.eval(request_for(point));
                        }
                        log.latency_us.push_back(seconds_since(sent) * 1e6);
                        log.responses.push_back(std::move(response));
                        log.points.push_back(point);
                        log.hot.push_back(hot);
                    }
                } catch (const std::exception& error) {
                    log.error = error.what();
                }
            });
        }
        for (std::thread& thread : threads) thread.join();
        PassResult result;
        result.wall_s = seconds_since(start);
        const serve::ServeStats after = server_->stats();
        {
            const std::lock_guard<std::mutex> lock(requests_mutex_);
            requests_.clear();
        }
        for (std::size_t c = 0; c < clients_; ++c) {
            ClientLog& log = logs[c];
            if (!log.error.empty()) {
                result.failed += kRequestsPerClient - log.responses.size();
                result.log_digest =
                    core::mix_key(result.log_digest, "error: " + log.error);
            }
            for (std::size_t r = 0; r < log.responses.size(); ++r) {
                const std::string& line = log.responses[r];
                core::RunRecord record;
                if (core::RunStore::parse_line(line, record) &&
                    record.status == "ok") {
                    result.utilities.push_back(record.objective);
                } else {
                    ++result.failed;  // busy, error or failed trial
                    result.utilities.push_back(NAN);
                }
                result.req_us.push_back(log.latency_us[r]);
                result.round_ms.push_back(log.latency_us[r] * 1e-3);
                (log.hot[r] ? result.hot_us : result.cold_us)
                    .push_back(log.latency_us[r]);
                result.log_digest = core::mix_key(
                    result.log_digest, std::to_string(c) + " " + line);
            }
        }
        result.jobs = clients_ * kRequestsPerClient;
        const auto delta = [&](std::uint64_t serve::ServeStats::*field) {
            return static_cast<double>(after.*field - before.*field);
        };
        result.readings["serve.batches"] = delta(&serve::ServeStats::batches);
        result.readings["serve.completed"] =
            delta(&serve::ServeStats::completed);
        result.readings["serve.cache_hits"] =
            delta(&serve::ServeStats::cache_hits);
        result.readings["serve.busy"] = delta(&serve::ServeStats::busy);
        result.readings["serve.evictions"] =
            delta(&serve::ServeStats::cache_evictions);
        sample_ = logs_to_sample(logs);
        sample_pass_ = pass;
        return result;
    }

    /// Every response is an ok trial with a utility in [0, 1], the request
    /// count equals the budget, and a sample of responses (hot and cold) is
    /// byte-equal to serve::reference_responses.
    void check(std::size_t pass, const PassResult& result,
               Checks& checks) override {
        const std::string label = "serve_mixed pass " + std::to_string(pass);
        check_trials(result, clients_ * kRequestsPerClient, label, checks);
        // Only the newest pass keeps its response sample.
        if (pass != sample_pass_) return;
        const serve::ServeTarget& target = targets_.front();
        const std::vector<std::string> expected = serve::reference_responses(
            target, target.variants.front(), nn::InferenceMode::kFloat32,
            sample_.points, sample_.trials);
        for (std::size_t i = 0; i < expected.size(); ++i) {
            checks.expect(expected[i] == sample_.responses[i],
                          label + ": response equals the in-process "
                                  "reference: " + sample_.responses[i]);
        }
    }

private:
    struct Sample {
        std::vector<core::Alpha> points;
        std::vector<std::uint64_t> trials;
        std::vector<std::string> responses;
    };

    template <typename Logs>
    Sample logs_to_sample(const Logs& logs) const {
        Sample sample;
        for (std::size_t c = 0; c < logs.size(); ++c) {
            const auto& log = logs[c];
            const std::size_t stride = std::max<std::size_t>(
                1, log.responses.size() * logs.size() / kCheckedResponses);
            for (std::size_t r = c; r < log.responses.size(); r += stride) {
                sample.points.push_back(log.points[r]);
                sample.trials.push_back(r);
                sample.responses.push_back(log.responses[r]);
            }
        }
        return sample;
    }

    serve::EvalRequest request_for(const core::Alpha& point) const {
        serve::EvalRequest request;
        request.target = targets_.front().digest;
        request.fault = targets_.front().variants.front().digest;
        request.point = point;
        return request;
    }

    static std::uint64_t point_key(const core::Alpha& point) {
        return core::mix_key(0, point.data(), point.size());
    }

    /// Links server-side evaluation spans of a fresh point to the client
    /// request span that sent it.
    void register_request(const core::Alpha& point, std::uint64_t span) {
        if (span == 0) return;
        const std::lock_guard<std::mutex> lock(requests_mutex_);
        requests_[point_key(point)] = span;
    }

    std::uint64_t request_span(const core::Alpha& point) {
        if (!e2ebench::tracing()) return 0;
        const std::lock_guard<std::mutex> lock(requests_mutex_);
        const auto found = requests_.find(point_key(point));
        return found == requests_.end() ? 0 : found->second;
    }

    std::uint64_t seed_;
    std::string work_dir_;
    std::size_t clients_;
    std::vector<serve::ServeTarget> targets_;
    core::ParamSpace space_;
    std::vector<core::Alpha> hot_;
    std::unique_ptr<serve::EvalServer> server_;
    std::mutex requests_mutex_;
    std::unordered_map<std::uint64_t, std::uint64_t> requests_;
    Sample sample_;
    std::size_t sample_pass_ = 0;
};

// ---------------------------------------------------------------- driver --

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
};

std::unique_ptr<Workload> make_workload(const Options& options,
                                        const std::string& dir) {
    if (options.workload == "cnn_dropout_search") {
        return std::make_unique<CnnDropoutSearch>(options.seed, dir);
    }
    if (options.workload == "long_arch_search") {
        return make_long_arch_search(options.seed, dir);
    }
    if (options.workload == "pool_arch_search") {
        return make_pool_arch_search(options.seed, dir);
    }
    if (options.workload == "serve_mixed") {
        return std::make_unique<ServeMixed>(options.seed, dir);
    }
    throw std::invalid_argument("unknown workload: " + options.workload);
}

/// The CPU brand string from CPUID ("unknown" off x86).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
    return model.empty() ? "unknown" : model;
#else
    return "unknown";
#endif
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// Pins the driver to the highest-numbered CPU it may run on; its threads
/// and forked workers, all started later, inherit the pin.  Returns the
/// CPU, or -1 if the pin failed.  On a shared host whose vCPUs are stolen
/// for seconds at a time, work spread over several vCPUs waits at every
/// hand-off and barrier for the slowest of them: in one loaded period,
/// unpinned, pool_arch_search ran 3.4 times and serve_mixed 3.8 times
/// slower than in a quiet one; pinned, pool_arch_search ran 1.25 times
/// slower.
int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
    return -1;
}

void print_host(const Options& options, int pinned_cpu) {
    std::cout << "{\"host\": {\"cpu\": " << json_string(cpu_model())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"pinned_cpu\": " << pinned_cpu
              << ", \"pool_threads\": " << parallel_thread_count()
              << ", \"simd\": "
              << json_string(simd::tier_name(simd::active_tier()))
              << ", \"compiler\": " << json_string(E2E_COMPILER)
              << ", \"flags\": " << json_string(E2E_FLAGS)
              << ", \"build\": " << json_string(core::build_stamp())
              << "}, \"workload\": " << json_string(options.workload)
              << ", \"seed\": " << options.seed
              << ", \"seconds\": " << json_number(options.seconds)
              << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs passes 0, 1, ... until `seconds` have elapsed (at least
/// `min_passes`), or exactly `fixed` passes when it is non-zero.
std::vector<PassResult> run_passes(Workload& workload, double seconds,
                                   std::size_t min_passes,
                                   std::size_t fixed = 0) {
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    while (fixed != 0 ? passes.size() < fixed
                      : (passes.size() < min_passes ||
                         seconds_since(start) < seconds)) {
        passes.push_back(workload.run_pass(passes.size()));
    }
    return passes;
}

template <typename Get>
std::vector<double> pooled(const std::vector<PassResult>& passes, Get get) {
    std::vector<double> all;
    for (const PassResult& pass : passes) {
        const std::vector<double>& values = get(pass);
        all.insert(all.end(), values.begin(), values.end());
    }
    return all;
}

double mean_reading(const std::vector<PassResult>& passes,
                    const std::string& key) {
    double total = 0.0;
    for (const PassResult& pass : passes) {
        const auto found = pass.readings.find(key);
        if (found != pass.readings.end()) total += found->second;
    }
    return passes.empty() ? 0.0 : total / static_cast<double>(passes.size());
}

/// Prints a timing with its sample count and the samples beyond it.
void describe_timing(const std::string& name, const std::vector<double>& all,
                     double p, const char* unit) {
    std::cout << "  " << name << " = " << e2ebench::percentile(all, p) << ' '
              << unit << "  (n=" << all.size() << ", "
              << e2ebench::samples_beyond(all, p) << " beyond)\n";
}

using MetricValues = std::vector<std::pair<std::string, double>>;

/// Blocks a run is cut into before its quieter half is kept.
constexpr std::size_t kQuietBlocks = 16;

/// End-to-end metrics over the passes of the quieter half of the run (see
/// e2ebench::quiet_half); set-up is the median over every set-up.
MetricValues end_to_end_metrics(const std::vector<double>& setups,
                                const std::vector<PassResult>& all) {
    std::vector<double> all_walls;
    std::vector<double> all_jobs;
    for (const PassResult& pass : all) {
        all_walls.push_back(pass.wall_s);
        all_jobs.push_back(static_cast<double>(pass.jobs));
    }
    std::vector<PassResult> passes;
    for (const std::size_t i :
         e2ebench::quiet_half(all_walls, all_jobs, kQuietBlocks)) {
        passes.push_back(all[i]);
    }
    std::vector<double> walls;
    std::vector<double> rates;
    for (const PassResult& pass : passes) {
        walls.push_back(pass.wall_s);
        rates.push_back(static_cast<double>(pass.jobs) / pass.wall_s);
    }
    const auto rounds = pooled(passes, [](const PassResult& p) -> const auto& {
        return p.round_ms;
    });
    const auto reqs = pooled(passes, [](const PassResult& p) -> const auto& {
        return p.req_us;
    });
    std::cout << "end-to-end (untraced; " << passes.size() << " of "
              << all.size() << " passes, the quieter half):\n";
    describe_timing("setup_s", setups, 0.5, "s");
    describe_timing("search_s", walls, 0.5, "s");
    describe_timing("jobs_per_s", rates, 0.5, "1/s");
    describe_timing("round_p50_ms", rounds, 0.5, "ms");
    describe_timing("round_p95_ms", rounds, 0.95, "ms");
    describe_timing("req_p50_us", reqs, 0.5, "us");
    describe_timing("req_p99_us", reqs, 0.99, "us");
    return {
        {"setup_s", e2ebench::median(setups)},
        {"search_s", e2ebench::median(walls)},
        {"round_p50_ms", e2ebench::median(rounds)},
        {"round_p95_ms", e2ebench::percentile(rounds, 0.95)},
        {"jobs_per_s", e2ebench::median(rates)},
        {"req_p50_us", e2ebench::median(reqs)},
        {"req_p99_us", e2ebench::percentile(reqs, 0.99)},
        {"peak_rss_mb", peak_rss_mb()},
    };
}

using CounterSnapshot = std::map<std::string, double>;

CounterSnapshot snapshot_counters() {
    return {
        {"models.build_calls", g_counters.build_calls},
        {"nn.train_calls", g_counters.train_calls},
        {"nn.train_samples", g_counters.train_samples},
        {"fault.mc_passes", g_counters.mc_passes},
        {"bayesopt.suggest_calls", g_counters.suggest_calls},
        {"engine.candidates", g_counters.candidates},
        {"engine.cache_hits", g_counters.cache_hits},
        {"engine.failed", g_counters.failed},
        {"persist.saves", g_counters.saves},
        {"persist.bytes", g_counters.save_bytes},
        {"runstore.appends", g_counters.appends},
        {"runstore.bytes", g_counters.append_bytes},
    };
}

/// Per-layer metrics: the traced set-up counted once plus the mean over
/// the traced passes.
MetricValues per_layer_metrics(
    const std::map<std::string, e2ebench::LayerTime>& setup_layers,
    const CounterSnapshot& setup_counts,
    const std::map<std::string, e2ebench::LayerTime>& pass_layers,
    const CounterSnapshot& pass_counts, const std::vector<PassResult>& passes,
    double untraced_wall, double traced_wall, bool distributed) {
    const double n = static_cast<double>(passes.size());
    const auto layer = [&](const char* name, bool self) {
        double value = 0.0;
        if (const auto s = setup_layers.find(name); s != setup_layers.end()) {
            value += self ? s->second.self_s : s->second.total_s;
        }
        if (const auto p = pass_layers.find(name); p != pass_layers.end()) {
            value += (self ? p->second.self_s : p->second.total_s) / n;
        }
        return value;
    };
    const auto count = [&](const std::string& name) {
        return setup_counts.at(name) + pass_counts.at(name) / n;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    const auto hot = pooled(passes, [](const PassResult& p) -> const auto& {
        return p.hot_us;
    });
    const auto cold = pooled(passes, [](const PassResult& p) -> const auto& {
        return p.cold_us;
    });
    const double train_s = layer(kNnTrain, true);
    const double mc_s = layer(kFaultMc, true);
    const double distrib_s = layer(kDistribEval, false);
    const double serve_completed = mean_reading(passes, "serve.completed");
    const double serve_hits = mean_reading(passes, "serve.cache_hits");
    const double serve_batches = mean_reading(passes, "serve.batches");

    std::cout << "self time per pass by layer (traced, set-up counted once; "
              << passes.size() << " passes):\n";
    std::vector<std::pair<double, std::string>> ranking;
    for (const auto& [name, time] : pass_layers) {
        ranking.emplace_back(layer(name.c_str(), true), name);
    }
    for (const auto& [name, time] : setup_layers) {
        if (!pass_layers.count(name)) {
            ranking.emplace_back(layer(name.c_str(), true), name);
        }
    }
    std::sort(ranking.rbegin(), ranking.rend());
    for (const auto& [self, name] : ranking) {
        std::cout << "  " << name << " " << self << " s\n";
    }
    if (distributed) {
        std::cout << "  (evaluations ran in forked workers: their "
                     "models/nn/fault spans are not collected)\n";
    }

    return {
        {"data.gen_s", layer(kDataGen, true)},
        {"models.build_s", layer(kModelsBuild, true)},
        {"models.build_calls", count("models.build_calls")},
        {"nn.train_s", train_s},
        {"nn.train_calls", count("nn.train_calls")},
        {"nn.train_samples_per_s", ratio(count("nn.train_samples"), train_s)},
        {"fault.mc_s", mc_s},
        {"fault.mc_passes", count("fault.mc_passes")},
        {"fault.mc_passes_per_s", ratio(count("fault.mc_passes"), mc_s)},
        {"bayesopt.suggest_s", layer(kSuggest, true)},
        {"bayesopt.suggest_calls", count("bayesopt.suggest_calls")},
        {"bayesopt.observe_s", layer(kObserve, true)},
        {"bayesopt.gp_rows", mean_reading(passes, "bayesopt.gp_rows")},
        {"bayesopt.best_utility",
         mean_reading(passes, "bayesopt.best_utility")},
        {"engine.eval_s", layer(kEngineEval, false)},
        {"engine.self_s", layer(kEngineEval, true)},
        {"engine.candidates", count("engine.candidates")},
        {"engine.cache_hits", count("engine.cache_hits")},
        {"engine.hit_ratio",
         ratio(count("engine.cache_hits"), count("engine.candidates"))},
        {"engine.failed", count("engine.failed")},
        {"distrib.eval_s", distrib_s},
        {"distrib.trials_per_s",
         distributed ? ratio(count("engine.candidates"), distrib_s) : 0.0},
        {"persist.save_s", layer(kPersistSave, true)},
        {"persist.saves", count("persist.saves")},
        {"persist.bytes", count("persist.bytes")},
        {"runstore.append_s", layer(kRunstoreAppend, true)},
        {"runstore.appends", count("runstore.appends")},
        {"runstore.bytes", count("runstore.bytes")},
        {"serve.self_s", layer(kServeRequest, true)},
        {"serve.batches", serve_batches},
        {"serve.jobs_per_batch",
         ratio(serve_completed - serve_hits, serve_batches)},
        {"serve.hit_ratio", ratio(serve_hits, serve_completed)},
        {"serve.busy", mean_reading(passes, "serve.busy")},
        {"serve.evictions", mean_reading(passes, "serve.evictions")},
        {"serve.hot_p50_us", e2ebench::median(hot)},
        {"serve.cold_p50_us", e2ebench::median(cold)},
        {"trace.overhead_s", (traced_wall - untraced_wall) / n},
        {"trace.overhead_frac", ratio(traced_wall - untraced_wall,
                                      untraced_wall)},
    };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricValues& values,
                  const std::vector<MetricSpec>& specs) {
    std::map<std::string, double> by_name(values.begin(), values.end());
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::cout << (i ? ", " : "") << json_string(specs[i].name)
                  << ": {\"value\": " << json_number(by_name.at(specs[i].name))
                  << ", \"unit\": " << json_string(specs[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

/// Set-up repeats.  A fixed count, not a time, so that the allocator
/// history before the passes, and with it the peak resident set, does not
/// depend on the host's speed.
constexpr std::size_t kSetups = 60;
/// Pass index of the unmeasured warm-up pass (never a measured index).
constexpr std::size_t kWarmupPass = 1000000;

int run(const Options& options) {
    const int pinned_cpu = pin_to_one_cpu();  // before any thread starts
    // One malloc arena: with one per thread, the peak resident set moved
    // by 10-20% between runs with which thread allocated first.
    mallopt(M_ARENA_MAX, 1);
    print_host(options, pinned_cpu);
    Checks checks;

    // Set-up: repeated so its median is steady; the last instance runs.
    // The work directories are the driver's own, made outside the timing.
    for (const char* instance : {"/untraced", "/traced"}) {
        std::filesystem::create_directories(options.work_dir + instance);
    }
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    while (setups.size() < kSetups) {
        workload.reset();
        const auto start = Clock::now();
        workload = make_workload(options, options.work_dir + "/untraced");
        setups.push_back(seconds_since(start));
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto tally = [&](const std::vector<PassResult>& passes) {
        for (const PassResult& pass : passes) {
            attempted += pass.jobs;
            failed += pass.failed;
        }
    };
    const auto check_all = [&](Workload& w,
                               const std::vector<PassResult>& passes) {
        for (std::size_t i = 0; i < passes.size(); ++i) {
            w.check(i, passes[i], checks);
        }
    };

    workload->run_pass(kWarmupPass);

    if (!options.trace) {
        const std::vector<PassResult> passes =
            run_passes(*workload, options.seconds, 2);
        const MetricValues values = end_to_end_metrics(setups, passes);
        tally(passes);
        check_all(*workload, passes);
        workload.reset();
        for (const std::string& failure : checks.failures) {
            std::cout << "CHECK FAILED: " << failure << "\n";
        }
        print_result(checks.failures.empty(), attempted, failed, values,
                     kEndToEnd);
        return 0;
    }

    // Traced mode: a second instance is set up with tracing on, then the
    // untraced and the traced instance run the same passes in alternation,
    // so slow drifts of the host load cancel in the tracing overhead.  The
    // two trial logs of each pass must be identical.
    const std::unique_ptr<Workload> plain = std::move(workload);
    e2ebench::drain_spans();
    g_counters.reset();
    e2ebench::set_tracing(true);
    workload = make_workload(options, options.work_dir + "/traced");
    e2ebench::set_tracing(false);
    const auto setup_layers = e2ebench::layer_times(e2ebench::drain_spans());
    const CounterSnapshot setup_counts = snapshot_counters();
    workload->run_pass(kWarmupPass);
    g_counters.reset();
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    const auto start = Clock::now();
    while (traced.empty() || seconds_since(start) < options.seconds) {
        untraced.push_back(plain->run_pass(untraced.size()));
        e2ebench::set_tracing(true);
        traced.push_back(workload->run_pass(traced.size()));
        e2ebench::set_tracing(false);
    }
    const auto pass_layers = e2ebench::layer_times(e2ebench::drain_spans());
    const CounterSnapshot pass_counts = snapshot_counters();
    for (const auto& [instance, passes] :
         {std::pair{plain.get(), &untraced}, {workload.get(), &traced}}) {
        tally(*passes);
        check_all(*instance, *passes);
    }
    workload.reset();

    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        untraced_wall += untraced[i].wall_s;
        traced_wall += traced[i].wall_s;
        checks.expect(untraced[i].log_digest == traced[i].log_digest &&
                          untraced[i].jobs == traced[i].jobs,
                      "pass " + std::to_string(i) +
                          ": traced trial log equals the untraced one");
    }
    const MetricValues values = per_layer_metrics(
        setup_layers, setup_counts, pass_layers, pass_counts, traced,
        untraced_wall, traced_wall, options.workload == "pool_arch_search");
    std::cout << "tracing overhead: " << (traced_wall - untraced_wall)
              << " s over " << traced.size() << " passes (untraced "
              << untraced_wall << " s)\n";
    for (const std::string& failure : checks.failures) {
        std::cout << "CHECK FAILED: " << failure << "\n";
    }
    print_result(checks.failures.empty(), attempted, failed, values,
                 kPerLayer);
    return 0;
}

int self_test() {
    int failures = e2ebench::run_self_tests();
    for (const std::string& name : kWorkloads) {
        if (!e2ebench::valid_name(name)) {
            std::cerr << "self-test failed: workload name " << name << "\n";
            ++failures;
        }
    }
    for (const auto* specs : {&kEndToEnd, &kPerLayer}) {
        for (const MetricSpec& spec : *specs) {
            if (!e2ebench::valid_name(spec.name)) {
                std::cerr << "self-test failed: metric name " << spec.name
                          << "\n";
                ++failures;
            }
        }
    }
    std::cout << (failures == 0 ? "self-tests passed" : "self-tests FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
}

/// Names and units, one per line, for run.py to compare with
/// BENCHMARK.json.
void list_names() {
    for (const std::string& name : kWorkloads) {
        std::cout << "workload " << name << "\n";
    }
    for (const MetricSpec& spec : kEndToEnd) {
        std::cout << "end_to_end " << spec.name << " " << spec.unit << "\n";
    }
    for (const MetricSpec& spec : kPerLayer) {
        std::cout << "per_layer " << spec.name << " " << spec.unit << "\n";
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--self-test") return self_test();
            if (arg == "--list") {
                list_names();
                return 0;
            }
            if (i + 1 >= argc) {
                throw std::invalid_argument("missing value for " + arg);
            }
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.trace = value == "1";
            } else if (arg == "--work-dir") {
                options.work_dir = value;
            } else {
                throw std::invalid_argument("unknown argument " + arg);
            }
        }
        if (std::find(kWorkloads.begin(), kWorkloads.end(),
                      options.workload) == kWorkloads.end()) {
            throw std::invalid_argument("unknown workload '" +
                                        options.workload + "'");
        }
        if (options.work_dir.empty() || !(options.seconds > 0.0)) {
            throw std::invalid_argument("--work-dir and --seconds > 0 needed");
        }
    } catch (const std::exception& error) {
        std::cerr << "e2ebench: " << error.what() << "\n";
        return 2;
    }
    int status = 1;
    try {
        status = run(options);
    } catch (const std::exception& error) {
        std::cerr << "e2ebench: " << error.what() << "\n";
        status = 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    return status;
}
