// Micro-benchmarks of the numeric substrates: blocked GEMM (including a
// comparison against the seed's scalar i-k-j kernel), batched conv
// forward/backward, GP fit, per-fault-model injection throughput across
// the FaultModel zoo, multi-threaded Monte-Carlo drift evaluation scaling,
// candidate-engine search throughput, and GP proposal cost over typed
// mixed search spaces (suggest_throughput_vs_dims).
//
// Results are printed as a human-readable table AND emitted as
// machine-readable JSON — one record per (op, shape, threads) with ns/iter,
// GFLOP/s, and (for the bandwidth-bound injection ops) GB/s — so successive
// PRs can track a perf trajectory in BENCH_*.json files.  Usage:
//
//   micro_ops [output.json] [--filter <op-substring>]
//
// Default output: BENCH_micro_ops.json.  --filter runs only the ops whose
// name contains the substring (e.g. --filter matmul, --filter injection).
//
// Timing discipline: every op gets one untimed warmup call (pages the
// buffers in, settles the lazily initialized SIMD dispatch), then samples
// until ~200 ms accumulate and reports the median iteration — robust to
// scheduler noise in both directions, unlike best-of (optimistic) or mean
// (tail-sensitive).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/bayesopt.hpp"
#include "bayesopt/gp.hpp"
#include "core/engine.hpp"
#include "core/objective.hpp"
#include "core/param_space.hpp"
#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "fault/zoo.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/trainer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "utils/parallel.hpp"
#include "utils/rng.hpp"

namespace {

using namespace bayesft;

struct Record {
    std::string op;
    std::string shape;
    std::size_t threads = 1;
    double ns_per_iter = 0.0;
    double gflops = 0.0;  // 0 when FLOP count is not meaningful
    double gbps = 0.0;    // 0 when a bytes count is not meaningful
};

std::vector<Record> g_records;
std::string g_filter;  // --filter: run only ops containing this substring

/// True when `op` passes the --filter substring (empty filter = run all).
bool want(const std::string& op) {
    return g_filter.empty() || op.find(g_filter) != std::string::npos;
}

/// Times `fn` adaptively: one untimed warmup call, then repeats until
/// ~200ms of samples (at least `min_iters`), reporting the median
/// iteration — robust against scheduler noise in either direction.
template <typename Fn>
double time_ns(Fn&& fn, std::size_t min_iters = 3) {
    using clock = std::chrono::steady_clock;
    fn();  // warmup: fault pages in, settle lazy SIMD dispatch / scratch
    std::vector<double> samples;
    double total = 0.0;
    while (samples.size() < min_iters || total < 2e8) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        samples.push_back(ns);
        total += ns;
        if (samples.size() > 200) break;
    }
    std::nth_element(samples.begin(),
                     samples.begin() +
                         static_cast<std::ptrdiff_t>(samples.size() / 2),
                     samples.end());
    return samples[samples.size() / 2];
}

void report(const std::string& op, const std::string& shape,
            std::size_t threads, double ns, double flops,
            double bytes = 0.0) {
    Record r;
    r.op = op;
    r.shape = shape;
    r.threads = threads;
    r.ns_per_iter = ns;
    r.gflops = flops > 0.0 ? flops / ns : 0.0;  // FLOP/ns == GFLOP/s
    r.gbps = bytes > 0.0 ? bytes / ns : 0.0;    // byte/ns == GB/s
    g_records.push_back(r);
    std::printf("%-28s %-16s threads=%-2zu %12.0f ns/iter %8.2f GFLOP/s"
                " %8.2f GB/s\n",
                op.c_str(), shape.c_str(), threads, ns, r.gflops, r.gbps);
}

/// The seed repository's scalar i-k-j matmul kernel, kept verbatim as the
/// speedup baseline for the blocked kernel.
Tensor seed_matmul(const Tensor& a, const Tensor& b) {
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        float* crow = pc + i * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float aval = pa[i * k + kk];
            if (aval == 0.0F) continue;
            const float* brow = pb + kk * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
        }
    }
    return c;
}

void bench_gemm() {
    Rng rng(1);
    const std::size_t n = 256;
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    const std::string shape = "256x256x256";

    volatile float sink = 0.0F;
    double seed_ns = 0.0;
    if (want("matmul_seed_ikj")) {
        seed_ns = time_ns([&] {
            Tensor c = seed_matmul(a, b);
            sink = sink + c[0];
        });
        report("matmul_seed_ikj", shape, 1, seed_ns, flops);
    }

    if (want("matmul_blocked_1t")) {
        // Single-threaded blocked kernel (direct call, bypassing the pool).
        Tensor c({n, n});
        const double blocked_ns = time_ns([&] {
            c.fill(0.0F);
            detail::gemm_block(a.data(), n, b.data(), n, c.data(), n, n, n,
                               n);
            sink = sink + c[0];
        });
        report("matmul_blocked_1t", shape, 1, blocked_ns, flops);
        if (seed_ns > 0.0) {
            std::printf("  -> blocked vs seed single-thread speedup: %.2fx\n",
                        seed_ns / blocked_ns);
        }
    }

    if (!want("matmul")) return;
    // Pool-parallel entry point the library actually uses.
    const double pool_ns = time_ns([&] {
        Tensor out = matmul(a, b);
        sink = sink + out[0];
    });
    report("matmul", shape, parallel_thread_count(), pool_ns, flops);

    for (const std::size_t dim : {64UL, 128UL, 512UL}) {
        Rng r2(2);
        const Tensor aa = Tensor::randn({dim, dim}, r2);
        const Tensor bb = Tensor::randn({dim, dim}, r2);
        const double f = 2.0 * static_cast<double>(dim) * dim * dim;
        const double ns = time_ns([&] {
            Tensor out = matmul(aa, bb);
            sink = sink + out[0];
        });
        report("matmul",
               std::to_string(dim) + "x" + std::to_string(dim) + "x" +
                   std::to_string(dim),
               parallel_thread_count(), ns, f);
    }
}

void bench_conv() {
    Rng rng(3);
    nn::Conv2d conv(16, 32, 3, 1, 1, rng);
    const Tensor input = Tensor::randn({16, 16, 16, 16}, rng);
    // FLOPs: 2 * N * OC * OH * OW * (IC * KH * KW)
    const double flops = 2.0 * 16 * 32 * 16 * 16 * (16 * 9);
    volatile float sink = 0.0F;
    if (want("conv2d_forward")) {
        const double fwd_ns = time_ns([&] {
            Tensor out = conv.forward(input);
            sink = sink + out[0];
        });
        report("conv2d_forward", "n16c16->32k3s1p1x16",
               parallel_thread_count(), fwd_ns, flops);
    }

    if (want("conv2d_backward")) {
        const Tensor out = conv.forward(input);
        const Tensor grad = Tensor::randn(out.shape(), rng);
        const double bwd_ns = time_ns([&] {
            Tensor gin = conv.backward(grad);
            sink = sink + gin[0];
        });
        report("conv2d_backward", "n16c16->32k3s1p1x16",
               parallel_thread_count(), bwd_ns, 3.0 * flops);
    }
}

/// Random d3 design of size n for the GP scaling benches (one shared
/// generator so every op in the series sees the same kind of data).
void make_gp_data(std::size_t n, std::vector<bayesopt::Point>& xs,
                  std::vector<double>& ys) {
    Rng rng(6);
    xs.clear();
    ys.clear();
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(rng.normal());
    }
}

bayesopt::GaussianProcess make_gp() {
    return bayesopt::GaussianProcess(
        std::make_shared<bayesopt::ArdSquaredExponential>(3, 4.0), 1e-4);
}

void bench_gp() {
    // Full refits across the trial-count axis: the O(n^3) wall a
    // thousand-trial search would hit without the incremental path
    // (docs/optimizer-scaling.md).  n=4096 is a single timed call — at
    // tens of seconds per refit, medians of many samples are pointless.
    if (want("gp_fit")) {
        std::vector<bayesopt::Point> xs;
        std::vector<double> ys;
        for (const std::size_t n : {128UL, 512UL, 1024UL, 4096UL}) {
            make_gp_data(n, xs, ys);
            bayesopt::GaussianProcess gp = make_gp();
            const double ns = time_ns([&] { gp.fit(xs, ys); },
                                      n >= 4096 ? 1 : 3);
            report("gp_fit", "n" + std::to_string(n) + "d3",
                   parallel_thread_count(), ns, 0.0);
        }
    }

    // Incremental observe at n=1024: one rank-1 Cholesky append + alpha
    // recompute (O(n^2)) against the O(n^3) full refit the pre-PR9 code
    // paid per observation.  Each timed iteration appends one row to a
    // 1024-row fit and truncates back, so every sample measures the same
    // n -> n+1 transition.
    if (want("gp_observe")) {
        std::vector<bayesopt::Point> xs;
        std::vector<double> ys;
        make_gp_data(1024, xs, ys);
        const bayesopt::Point extra = {0.25, 0.5, 0.75};

        bayesopt::GaussianProcess gp = make_gp();
        gp.fit(xs, ys);
        if (gp.jitter() != 0.0) {
            std::fprintf(stderr,
                         "micro_ops: gp_observe baseline fit needed jitter; "
                         "incremental path unavailable\n");
            std::exit(1);
        }
        const double inc_ns = time_ns([&] {
            if (!gp.observe(extra, 0.5)) std::abort();
            gp.truncate(1024);
        });
        report("gp_observe", "n1024d3_incremental", parallel_thread_count(),
               inc_ns, 0.0);

        // The historical alternative: refit from scratch on n+1 rows.
        std::vector<bayesopt::Point> xs_plus = xs;
        std::vector<double> ys_plus = ys;
        xs_plus.push_back(extra);
        ys_plus.push_back(0.5);
        bayesopt::GaussianProcess full = make_gp();
        const double full_ns =
            time_ns([&] { full.fit(xs_plus, ys_plus); }, 2);
        report("gp_observe", "n1024d3_full_refit", parallel_thread_count(),
               full_ns, 0.0);
        std::printf("  -> incremental observe speedup over full refit: "
                    "%.1fx\n",
                    full_ns / inc_ns);
    }

    // Acquisition scoring of one proposal pool: m pooled posteriors in one
    // cross-kernel build + multi-RHS solve vs m per-point calls.
    if (want("gp_acquisition_pool")) {
        std::vector<bayesopt::Point> xs;
        std::vector<double> ys;
        make_gp_data(512, xs, ys);
        bayesopt::GaussianProcess gp = make_gp();
        gp.fit(xs, ys);
        constexpr std::size_t kPool = 192;
        std::vector<bayesopt::Point> pool;
        Rng pool_rng(7);
        for (std::size_t i = 0; i < kPool; ++i) {
            pool.push_back({pool_rng.uniform(), pool_rng.uniform(),
                            pool_rng.uniform()});
        }
        volatile double sink = 0.0;
        const double batched_ns = time_ns([&] {
            const std::vector<bayesopt::Posterior> posts =
                gp.posterior_batch(pool);
            sink = sink + posts.back().mean;
        });
        report("gp_acquisition_pool", "n512m192_batched",
               parallel_thread_count(), batched_ns, 0.0);
        const double pointwise_ns = time_ns([&] {
            double acc = 0.0;
            for (const bayesopt::Point& p : pool) {
                acc += gp.posterior(p).mean;
            }
            sink = sink + acc;
        });
        report("gp_acquisition_pool", "n512m192_per_point",
               parallel_thread_count(), pointwise_ns, 0.0);
        std::printf("  -> pooled posterior speedup over per-point: %.1fx\n",
                    pointwise_ns / batched_ns);
    }

    // One late proposal of a long mixed-space architecture search: 200
    // observed mlp_arch_family points (two one-hot blocks, an integer
    // depth, two dropout rates) scored against the 512 random + 128 local
    // candidates of one suggest() — the mixed kernel's cross block plus
    // the lane-parallel solve.
    if (want("gp_acquisition_pool")) {
        models::MlpOptions base;
        const core::ParamSpace space =
            models::mlp_arch_family(base, 2, 0.5).space;
        Rng rng(11);
        auto draw = [&](std::size_t count) {
            std::vector<bayesopt::Point> points;
            for (std::size_t i = 0; i < count; ++i) {
                points.push_back(space.encode(space.sample(rng)));
            }
            return points;
        };
        const std::vector<bayesopt::Point> xs = draw(200);
        std::vector<double> ys;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            ys.push_back(rng.uniform());
        }
        bayesopt::GaussianProcess gp(space.kernel(4.0, 1.0), 1e-4);
        gp.fit(xs, ys);
        const std::vector<bayesopt::Point> pool = draw(640);
        volatile double sink = 0.0;
        const double ns = time_ns([&] {
            const std::vector<bayesopt::Posterior> posts =
                gp.posterior_batch(pool);
            sink = sink + posts.back().variance;
        });
        report("gp_acquisition_pool", "n200m640_mixed",
               parallel_thread_count(), ns, 0.0);
    }
}

void bench_fault_injection() {
    // Bytes per injection: the elementwise kernels stream the span once —
    // one 4-byte read and one 4-byte write per weight.  (The composed
    // chain touches the span once per stage, so its GB/s understates the
    // raw traffic; records stay comparable as "useful bytes per second".)
    constexpr double kBytesPerWeight = 2.0 * sizeof(float);

    // Historical drift_injection record, timed region unchanged since PR1
    // (perturb only, constant-ones initial buffer) so the ns/iter
    // trajectory in BENCH_micro_ops.json stays comparable across PRs.
    if (want("drift_injection")) {
        Rng rng(8);
        std::vector<float> weights(1 << 16, 1.0F);
        const fault::LogNormalDrift drift(0.5);
        volatile float sink = 0.0F;
        const double ns = time_ns([&] {
            drift.perturb(weights, rng);
            sink = sink + weights[0];
        });
        report("drift_injection", "65536", 1, ns, 0.0,
               kBytesPerWeight * 65536.0);
    }

    if (!want("fault_injection")) return;

    // Per-model injection throughput over the rest of the fault zoo: one
    // `fault_injection` record per FaultModel on a 64K-weight buffer.
    // This series refreshes the buffer inside the timed region (so
    // magnitude-dependent models see a stable input); records are
    // comparable within the series, not with drift_injection.
    Rng init_rng(8);
    std::vector<float> base(1 << 16);
    for (float& w : base) w = static_cast<float>(init_rng.normal());

    struct Case {
        const char* shape;
        std::unique_ptr<fault::FaultModel> model;
    };
    std::vector<Case> cases;
    cases.push_back({"stuck_at",
                     std::make_unique<fault::StuckAtFault>(0.05, 0.25)});
    cases.push_back({"bit_flip8",
                     std::make_unique<fault::BitFlipFault>(1e-3, 8)});
    cases.push_back({"variation",
                     std::make_unique<fault::GaussianVariationFault>(0.3)});
    cases.push_back({"quantize8",
                     std::make_unique<fault::QuantizationFault>(8)});
    {
        std::vector<std::unique_ptr<fault::FaultModel>> stages;
        stages.push_back(std::make_unique<fault::QuantizationFault>(8));
        stages.push_back(
            std::make_unique<fault::GaussianVariationFault>(0.2));
        stages.push_back(std::make_unique<fault::LogNormalDrift>(0.3));
        cases.push_back({"composed_deploy",
                         std::make_unique<fault::ComposedFault>(
                             std::move(stages))});
    }

    Rng rng(9);
    std::vector<float> weights(base.size());
    volatile float sink = 0.0F;
    for (const Case& c : cases) {
        const double ns = time_ns([&] {
            std::copy(base.begin(), base.end(), weights.begin());
            c.model->perturb(weights, rng);
            sink = sink + weights[0];
        });
        report("fault_injection", c.shape, 1, ns, 0.0,
               kBytesPerWeight * static_cast<double>(base.size()));
    }
}

void bench_mc_evaluation() {
    if (!want("mc_drift_eval")) return;
    // Monte-Carlo drift evaluation: same seed at 1/2/4 threads must give
    // identical reports, and wall time should scale down with real cores.
    Rng rng(12);
    auto blobs = data::make_blobs(512, 3, 4.0, 0.4, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 64, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(64, 64, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(64, 3, rng);
    model.set_training(false);
    const fault::LogNormalDrift drift(0.4);
    constexpr std::size_t kSamples = 16;

    std::vector<double> reference;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        fault::RobustnessReport rep;
        const double ns = time_ns(
            [&] {
                Rng inner(99);
                rep = fault::evaluate_under_faults(model, blobs.images,
                                                   blobs.labels, drift,
                                                   kSamples, inner, threads);
            },
            2);
        report("mc_drift_eval", "mlp64x2_T16", threads, ns, 0.0);
        if (reference.empty()) {
            reference = rep.samples;
        } else if (rep.samples != reference) {
            std::fprintf(stderr,
                         "ERROR: thread-count-variant robustness report at "
                         "%zu threads\n",
                         threads);
            std::exit(1);
        }
    }
    std::printf(
        "  -> reports bit-identical across 1/2/4 threads (pool width %zu)\n",
        parallel_thread_count());
}

void bench_search_throughput() {
    if (!want("search_throughput")) return;
    // Candidate-evaluation engine throughput vs batch size q: every
    // candidate trains a replica of a small MLP for one epoch and scores
    // the drift-marginalized utility — the BayesFT inner loop.  Each q
    // evaluates the same total number of candidates, so ns/candidate is
    // directly comparable (q = 1 is the serial in-place path).
    Rng data_rng(21);
    const auto blobs = data::make_blobs(256, 3, 4.0, 0.4, data_rng);
    Rng split_rng(22);
    const auto parts = data::split(blobs, 0.3, split_rng);

    nn::TrainConfig epoch_config;
    epoch_config.epochs = 1;
    core::ObjectiveConfig objective;
    objective.sigmas = {0.4};
    objective.mc_samples = 2;
    const core::CandidateEvaluator evaluator =
        [&](models::ModelHandle& m, const core::Alpha&, Rng& r) {
            nn::train_classifier(*m.net, parts.train.images,
                                 parts.train.labels, epoch_config, r);
            return core::drift_utility(*m.net, parts.test.images,
                                       parts.test.labels, objective, r);
        };

    constexpr std::size_t kCandidates = 8;
    double serial_ns = 0.0;
    for (const std::size_t q : {1UL, 2UL, 4UL, 8UL}) {
        Rng model_rng(23);
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 32;
        options.hidden_layers = 2;
        options.classes = 3;
        models::ModelHandle model = models::make_mlp(options, model_rng);

        core::EvaluationEngine engine;
        core::EvalContext context;
        Rng search_rng(24);
        Rng alpha_rng(25);
        const double ns = time_ns(
            [&] {
                for (std::size_t done = 0; done < kCandidates; done += q) {
                    std::vector<core::Alpha> alphas;
                    for (std::size_t j = 0; j < q; ++j) {
                        core::Alpha alpha(2);
                        for (double& a : alpha) {
                            a = alpha_rng.uniform(0.0, 0.5);
                        }
                        alphas.push_back(std::move(alpha));
                    }
                    engine.evaluate_batch(model, alphas, evaluator,
                                          search_rng, context,
                                          /*adopt_winner=*/true);
                    ++context.stamp;
                }
            },
            2);
        const double per_candidate = ns / static_cast<double>(kCandidates);
        report("search_throughput", "q" + std::to_string(q),
               parallel_thread_count(), per_candidate, 0.0);
        if (q == 1) {
            serial_ns = per_candidate;
        } else if (q == 4) {
            std::printf("  -> q=4 batched speedup over q=1: %.2fx\n",
                        serial_ns / per_candidate);
        }
    }
}

void bench_search_distributed() {
    if (!want("search_distributed")) return;
    // Self-contained candidate evaluation vs worker count: the coordinator
    // farms evaluate_points batches to w forked workers over the pipe
    // protocol (docs/distributed.md); w=0 is the in-process path.  Every
    // worker count evaluates the same candidates, so ns/candidate directly
    // shows the fork/pipe overhead against the parallel win.  The engine
    // (and so its worker pool) lives across the timing iterations — a real
    // search forks its workers once, not per batch.
    Rng data_rng(31);
    const auto blobs = data::make_blobs(192, 3, 4.0, 0.4, data_rng);
    Rng split_rng(32);
    const auto parts = data::split(blobs, 0.3, split_rng);

    nn::TrainConfig epoch_config;
    epoch_config.epochs = 1;
    core::ObjectiveConfig objective;
    objective.sigmas = {0.4};
    objective.mc_samples = 1;
    const core::PointEvaluator evaluator = [&](const core::Alpha& encoded,
                                               Rng& r) {
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 24;
        options.hidden_layers = 2;
        options.classes = 3;
        options.dropout = models::DropoutKind::kStandard;
        options.initial_dropout_rate =
            encoded.empty() ? 0.0 : encoded.front();
        models::ModelHandle model = models::make_mlp(options, r);
        nn::train_classifier(*model.net, parts.train.images,
                             parts.train.labels, epoch_config, r);
        return core::drift_utility(*model.net, parts.test.images,
                                   parts.test.labels, objective, r);
    };

    constexpr std::size_t kCandidates = 8;
    std::vector<core::Alpha> points;
    Rng point_rng(33);
    for (std::size_t i = 0; i < kCandidates; ++i) {
        points.push_back({point_rng.uniform(0.0, 0.5)});
    }
    core::EvalContext context;
    context.key = 34;

    for (const std::size_t w : {0UL, 1UL, 2UL, 4UL}) {
        core::EngineConfig config;
        // The memo cache would serve every iteration after the first from
        // memory; the point here is the live evaluation path.
        config.cache = false;
        config.workers = w;
        core::EvaluationEngine engine(config);
        const double ns = time_ns(
            [&] { engine.evaluate_points(points, evaluator, context); }, 2);
        report("search_distributed", "w" + std::to_string(w),
               parallel_thread_count(),
               ns / static_cast<double>(kCandidates), 0.0);
    }
}

void bench_suggest_throughput() {
    if (!want("suggest_throughput_vs_dims")) return;
    // GP proposal cost over typed mixed spaces: one BayesOpt per dimension
    // count (continuous + integer + categorical mix), seeded with 12
    // observations of a cheap synthetic objective, then ns per suggest()
    // call — the fixed per-iteration overhead an archsearch scenario pays
    // on top of candidate training.
    struct SpaceCase {
        const char* shape;
        core::ParamSpace space;
    };
    std::vector<SpaceCase> cases;
    {
        core::ParamSpace d3;
        d3.add_continuous("c0", 0.0, 0.6);
        d3.add_integer("i0", 1, 8);
        d3.add_categorical("k0", {"a", "b", "c"});
        cases.push_back({"d3", std::move(d3)});
    }
    {
        core::ParamSpace d8;
        for (int i = 0; i < 4; ++i) {
            d8.add_continuous("c" + std::to_string(i), 0.0, 0.6);
        }
        d8.add_integer("i0", 1, 8);
        d8.add_integer("i1", 16, 128);
        d8.add_categorical("k0", {"a", "b", "c"});
        d8.add_categorical("k1", {"w", "x", "y", "z"});
        cases.push_back({"d8", std::move(d8)});
    }
    {
        core::ParamSpace d16;
        for (int i = 0; i < 8; ++i) {
            d16.add_continuous("c" + std::to_string(i), 0.0, 0.6);
        }
        for (int i = 0; i < 4; ++i) {
            d16.add_integer("i" + std::to_string(i), 1, 8);
        }
        for (int i = 0; i < 4; ++i) {
            d16.add_categorical("k" + std::to_string(i),
                                {"a", "b", "c", "d"});
        }
        cases.push_back({"d16", std::move(d16)});
    }

    for (const SpaceCase& c : cases) {
        bayesopt::BayesOptConfig config;
        config.initial_random_trials = 4;
        bayesopt::BayesOpt bo(c.space.encoded_bounds(),
                              c.space.kernel(4.0, 1.0),
                              std::make_unique<bayesopt::PosteriorMean>(),
                              config, Rng(31), c.space.projection());
        Rng sample_rng(32);
        for (std::size_t i = 0; i < 12; ++i) {
            const std::vector<double> x =
                c.space.encode(c.space.sample(sample_rng));
            double y = 0.0;
            for (double v : x) y += v;
            bo.observe(x, -y);
        }
        volatile double sink = 0.0;
        const double ns = time_ns([&] {
            const bayesopt::Point p = bo.suggest();
            sink = sink + p[0];
        });
        report("suggest_throughput_vs_dims", c.shape, 1, ns, 0.0);
    }
}

void write_json(const std::string& path) {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < g_records.size(); ++i) {
        const Record& r = g_records[i];
        out << "  {\"op\": \"" << r.op << "\", \"shape\": \"" << r.shape
            << "\", \"threads\": " << r.threads << ", \"ns_per_iter\": "
            << std::llround(r.ns_per_iter) << ", \"gflops\": " << r.gflops
            << ", \"gbps\": " << r.gbps << "}"
            << (i + 1 < g_records.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_micro_ops.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--filter") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "micro_ops: --filter needs an op substring\n");
                return 2;
            }
            g_filter = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: micro_ops [output.json] [--filter <op-substring>]\n");
            return 0;
        } else {
            json_path = arg;
        }
    }
    std::printf("pool width: %zu threads (override with BAYESFT_NUM_THREADS)\n",
                parallel_thread_count());
    bench_gemm();
    bench_conv();
    bench_gp();
    bench_fault_injection();
    bench_mc_evaluation();
    bench_search_throughput();
    bench_search_distributed();
    bench_suggest_throughput();
    write_json(json_path);
    std::cout << "wrote " << json_path << " (" << g_records.size()
              << " records)\n";
    return 0;
}
