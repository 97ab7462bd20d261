// The SIMD dispatch layer's bit-exactness contract (simd/kernels.hpp):
// for identical inputs — including the Rng state — every kernel must
// produce bit-identical results on every tier this build + CPU can run.
// Pinned here for every fault model in the zoo, every activation kind
// (forward and backward), the deterministic quantization kernels, GEMM
// across odd/remainder shapes, and the f64 triangular solve across pool
// tails; plus the panel-split invariance that
// makes the parallel GEMM driver thread-count independent, and fault
// injection under 1 and 4 evaluation threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "fault/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "simd/kernels.hpp"
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace bayesft::simd {
namespace {

/// Every tier this build + CPU can actually execute (kScalar always).
std::vector<Tier> available_tiers() {
    std::vector<Tier> tiers;
    for (const Tier t :
         {Tier::kScalar, Tier::kAvx2, Tier::kAvx512, Tier::kNeon}) {
        if (tier_available(t)) tiers.push_back(t);
    }
    return tiers;
}

/// Deterministic weight-like data with sign changes, zeros, and a wide
/// magnitude range (exercises saturation and sign paths).
std::vector<float> test_weights(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> w(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float u = rng.uniform(-1.0, 1.0) < 0.0 ? -1.0F : 1.0F;
        w[i] = u * static_cast<float>(rng.uniform(0.0, 2.0));
        if (i % 17 == 0) w[i] = 0.0F;  // exact zeros stay on the grid
    }
    return w;
}

template <class T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Sizes chosen to straddle every vector width: sub-lane, exactly one
/// 16-lane round, one-past, and large with a ragged tail.
const std::size_t kSpanSizes[] = {1, 5, 16, 17, 31, 33, 64, 257, 1000};

std::vector<std::unique_ptr<fault::FaultModel>> fault_zoo() {
    using namespace fault;
    std::vector<std::unique_ptr<FaultModel>> models;
    models.push_back(std::make_unique<LogNormalDrift>(0.4));
    models.push_back(std::make_unique<GaussianAdditiveDrift>(0.15));
    models.push_back(std::make_unique<UniformScaleDrift>(0.3));
    models.push_back(std::make_unique<StuckAtZeroDrift>(0.2));
    models.push_back(std::make_unique<SignFlipDrift>(0.2));
    models.push_back(std::make_unique<StuckAtFault>(0.15, 0.3));
    models.push_back(std::make_unique<StuckAtFault>(0.5, 0.5, 0.75));
    models.push_back(std::make_unique<BitFlipFault>(0.05, 8));
    models.push_back(std::make_unique<BitFlipFault>(0.02, 12));
    models.push_back(std::make_unique<GaussianVariationFault>(0.25));
    models.push_back(std::make_unique<QuantizationFault>(6));
    models.push_back(fault::dac12_deploy(0.3));
    return models;
}

// ----------------------------------------------------------- dispatch ----

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
    EXPECT_TRUE(tier_available(Tier::kScalar));
    ASSERT_NE(kernels_for(Tier::kScalar), nullptr);
    EXPECT_STREQ(kernels_for(Tier::kScalar)->name, "scalar");
}

TEST(SimdDispatch, TierOverrideSwitchesAndRestores) {
    const Tier before = active_tier();
    {
        TierOverride scalar(Tier::kScalar);
        EXPECT_EQ(active_tier(), Tier::kScalar);
        EXPECT_STREQ(kernels().name, "scalar");
    }
    EXPECT_EQ(active_tier(), before);
}

TEST(SimdDispatch, EveryAvailableTierHasCompleteTable) {
    for (const Tier t : available_tiers()) {
        const KernelTable* kt = kernels_for(t);
        ASSERT_NE(kt, nullptr) << tier_name(t);
        EXPECT_NE(kt->lognormal_mul, nullptr);
        EXPECT_NE(kt->gemm_f32, nullptr);
        EXPECT_NE(kt->qgemm_nt, nullptr);
        EXPECT_NE(kt->solve_lower_f64, nullptr);
        EXPECT_STREQ(kt->name, tier_name(t));
    }
}

// ------------------------------------------- fault-model equivalence ----

/// Every fault model, every span size: identical seed -> bit-identical
/// perturbed weights AND an identical post-call Rng position on every
/// tier (the draw-stream layout is part of the determinism contract).
TEST(SimdBitExact, EveryFaultModelMatchesScalarOnEveryTier) {
    const auto tiers = available_tiers();
    for (const auto& model : fault_zoo()) {
        for (const std::size_t n : kSpanSizes) {
            const std::vector<float> base = test_weights(n, 0xF00D + n);

            std::vector<float> scalar_out = base;
            Rng scalar_rng(42);
            {
                TierOverride scalar(Tier::kScalar);
                model->perturb(scalar_out, scalar_rng);
            }
            const std::uint64_t scalar_next = scalar_rng();

            for (const Tier t : tiers) {
                std::vector<float> out = base;
                Rng rng(42);
                {
                    TierOverride override_tier(t);
                    model->perturb(out, rng);
                }
                EXPECT_TRUE(bits_equal(scalar_out, out))
                    << model->describe() << " n=" << n << " tier "
                    << tier_name(t);
                EXPECT_EQ(rng(), scalar_next)
                    << model->describe() << " n=" << n
                    << " draws a different stream length on "
                    << tier_name(t);
            }
        }
    }
}

// --------------------------------------------- activation equivalence ----

TEST(SimdBitExact, EveryActivationMatchesScalarOnEveryTier) {
    struct Case {
        Act kind;
        float param;
    };
    const Case cases[] = {
        {Act::kRelu, 0.0F},    {Act::kLeakyRelu, 0.01F},
        {Act::kElu, 1.0F},     {Act::kElu, 0.5F},
        {Act::kGelu, 0.0F},    {Act::kSigmoid, 0.0F},
        {Act::kTanh, 0.0F},
    };
    const auto tiers = available_tiers();
    for (const Case& c : cases) {
        for (const std::size_t n : kSpanSizes) {
            // Inputs span both signs, zeros, and the saturating range.
            std::vector<float> x = test_weights(n, 0xAC7 + n);
            for (std::size_t i = 0; i < n; ++i) x[i] *= 4.0F;
            const std::vector<float> g0 = test_weights(n, 0x9AD + n);

            std::vector<float> fwd_ref(n), bwd_ref = g0;
            {
                TierOverride scalar(Tier::kScalar);
                kernels().act_fwd(c.kind, x.data(), fwd_ref.data(), n,
                                  c.param);
                kernels().act_bwd(c.kind, x.data(), bwd_ref.data(), n,
                                  c.param);
            }
            for (const Tier t : tiers) {
                std::vector<float> fwd(n), bwd = g0;
                const KernelTable* kt = kernels_for(t);
                kt->act_fwd(c.kind, x.data(), fwd.data(), n, c.param);
                kt->act_bwd(c.kind, x.data(), bwd.data(), n, c.param);
                EXPECT_TRUE(bits_equal(fwd_ref, fwd))
                    << "act_fwd kind=" << static_cast<int>(c.kind)
                    << " n=" << n << " tier " << tier_name(t);
                EXPECT_TRUE(bits_equal(bwd_ref, bwd))
                    << "act_bwd kind=" << static_cast<int>(c.kind)
                    << " n=" << n << " tier " << tier_name(t);
            }

            // In-place forward (y == x) must agree with out-of-place.
            std::vector<float> inplace = x;
            kernels().act_fwd(c.kind, inplace.data(), inplace.data(), n,
                              c.param);
            std::vector<float> outofplace(n);
            kernels().act_fwd(c.kind, x.data(), outofplace.data(), n,
                              c.param);
            EXPECT_TRUE(bits_equal(inplace, outofplace));
        }
    }
}

// --------------------------------------------------- GEMM equivalence ----

/// Shapes straddling every microkernel boundary: sub-tile, exact tiles,
/// row/column remainders, k spanning multiple kGemmKc panels, and the
/// k == 0 case (accumulate=false must still zero-fill C).
TEST(SimdBitExact, GemmMatchesScalarOnOddShapes) {
    struct Shape {
        std::size_t m, k, n;
    };
    const Shape shapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 16, 32},
                            {13, 1, 19}, {6, 0, 4},    {17, 31, 33},
                            {33, 64, 65}, {2, 259, 9}, {5, 300, 40}};
    const auto tiers = available_tiers();
    for (const Shape& s : shapes) {
        const std::vector<float> a = test_weights(s.m * s.k, 0xA + s.m);
        const std::vector<float> b = test_weights(s.k * s.n, 0xB + s.n);
        const std::vector<float> c0 = test_weights(s.m * s.n, 0xC + s.k);

        for (const bool accumulate : {false, true}) {
            std::vector<float> ref = c0;
            kernels_for(Tier::kScalar)
                ->gemm_f32(a.data(), s.k, b.data(), s.n, ref.data(), s.n,
                           s.m, s.k, s.n, accumulate);
            for (const Tier t : tiers) {
                std::vector<float> c = c0;
                kernels_for(t)->gemm_f32(a.data(), s.k, b.data(), s.n,
                                         c.data(), s.n, s.m, s.k, s.n,
                                         accumulate);
                EXPECT_TRUE(bits_equal(ref, c))
                    << "gemm " << s.m << "x" << s.k << "x" << s.n
                    << " accumulate=" << accumulate << " tier "
                    << tier_name(t);
            }
            if (s.k == 0 && !accumulate) {
                // Overwrite semantics with an empty k: C becomes all-zero.
                for (const float v : ref) EXPECT_EQ(v, 0.0F);
            }
        }
    }
}

/// The parallel GEMM driver splits C into row/column panels; the split
/// must not change a single bit.  Emulate a 4-thread row partition by
/// hand and compare against the one-shot call — this is exactly the
/// invariance that makes any pool width produce identical results.
TEST(SimdBitExact, GemmPanelSplitIsBitInvariant) {
    const std::size_t m = 37, k = 53, n = 29;
    const std::vector<float> a = test_weights(m * k, 1);
    const std::vector<float> b = test_weights(k * n, 2);

    for (const Tier t : available_tiers()) {
        const KernelTable* kt = kernels_for(t);
        std::vector<float> whole(m * n);
        kt->gemm_f32(a.data(), k, b.data(), n, whole.data(), n, m, k, n,
                     false);

        std::vector<float> split(m * n);
        const std::size_t bounds[] = {0, 9, 18, 27, m};  // 4 uneven panels
        for (int p = 0; p < 4; ++p) {
            const std::size_t lo = bounds[p], hi = bounds[p + 1];
            kt->gemm_f32(a.data() + lo * k, k, b.data(), n,
                         split.data() + lo * n, n, hi - lo, k, n, false);
        }
        EXPECT_TRUE(bits_equal(whole, split)) << tier_name(t);
    }
}

// ------------------------------------------- f64 triangular solve ----

/// The lane-parallel forward solve on every tier against the scalar tier:
/// pool sizes straddle every f64 vector width (1/2/4/8 lanes) and every
/// full panel (4 vectors), and the solved rows, the dot(y, alpha) terms
/// and the v^T v terms must all agree bitwise.  Solving the rows one call
/// at a time must give the same bits as one call over the whole pool.
TEST(SimdBitExact, SolveLowerF64MatchesScalarOnTailShapes) {
    const std::size_t pools[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                 15, 16, 17, 31, 32, 33, 65};
    for (const std::size_t n : {1UL, 2UL, 7UL, 40UL}) {
        // A well-conditioned lower factor: unit-ish diagonal, small
        // off-diagonal entries of both signs.
        Rng rng(n);
        std::vector<double> l(n * n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t k = 0; k < i; ++k) {
                l[i * n + k] = rng.uniform(-0.3, 0.3);
            }
            l[i * n + i] = rng.uniform(0.5, 1.5);
        }
        std::vector<double> alpha(n);
        for (double& a : alpha) a = rng.normal();
        for (const std::size_t m : pools) {
            std::vector<double> rhs(m * n);
            for (double& v : rhs) v = rng.uniform(-1.0, 1.0);

            std::vector<double> ref = rhs;
            std::vector<double> ref_dot(m), ref_vtv(m);
            kernels_for(Tier::kScalar)
                ->solve_lower_f64(l.data(), n, ref.data(), m, alpha.data(),
                                  ref_dot.data(), ref_vtv.data());
            for (const Tier t : available_tiers()) {
                const KernelTable* kt = kernels_for(t);
                std::vector<double> y = rhs;
                std::vector<double> dot(m), vtv(m);
                kt->solve_lower_f64(l.data(), n, y.data(), m, alpha.data(),
                                    dot.data(), vtv.data());
                EXPECT_TRUE(bits_equal(ref, y))
                    << "n=" << n << " m=" << m << " " << tier_name(t);
                EXPECT_TRUE(bits_equal(ref_dot, dot))
                    << "n=" << n << " m=" << m << " " << tier_name(t);
                EXPECT_TRUE(bits_equal(ref_vtv, vtv))
                    << "n=" << n << " m=" << m << " " << tier_name(t);

                std::vector<double> bare = rhs;
                kt->solve_lower_f64(l.data(), n, bare.data(), m, nullptr,
                                    nullptr, nullptr);
                EXPECT_TRUE(bits_equal(ref, bare))
                    << "no alpha, n=" << n << " m=" << m << " "
                    << tier_name(t);

                std::vector<double> single = rhs;
                for (std::size_t r = 0; r < m; ++r) {
                    kt->solve_lower_f64(l.data(), n, single.data() + r * n,
                                        1, nullptr, nullptr, nullptr);
                }
                EXPECT_TRUE(bits_equal(ref, single))
                    << "row by row, n=" << n << " m=" << m << " "
                    << tier_name(t);
            }
        }
    }
}

// ------------------------------------------------ quantization kernels ----

TEST(SimdBitExact, QuantizeAndCodesAgreeAcrossTiers) {
    const auto tiers = available_tiers();
    for (const int bits : {4, 8, 12}) {
        for (const std::size_t n : kSpanSizes) {
            const std::vector<float> base = test_weights(n, 0x0DD + n);
            const float qmax =
                static_cast<float>((std::int64_t{1} << (bits - 1)) - 1);
            const float scale =
                kernels_for(Tier::kScalar)->max_abs(base.data(), n) / qmax;
            if (scale == 0.0F) continue;

            std::vector<float> ref = base;
            std::vector<std::int16_t> ref_codes(n);
            {
                const KernelTable* sc = kernels_for(Tier::kScalar);
                sc->quantize(ref.data(), n, bits, scale);
                sc->quantize_codes(base.data(), ref_codes.data(), n, bits,
                                   scale);
            }
            // codes * scale IS the dequantized view (same grid).
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(static_cast<float>(ref_codes[i]) * scale, ref[i])
                    << "bits=" << bits << " i=" << i;
                EXPECT_LE(std::abs(static_cast<float>(ref_codes[i])), qmax);
            }

            for (const Tier t : tiers) {
                std::vector<float> w = base;
                std::vector<std::int16_t> codes(n);
                const KernelTable* kt = kernels_for(t);
                EXPECT_EQ(kt->max_abs(base.data(), n),
                          kernels_for(Tier::kScalar)->max_abs(base.data(), n))
                    << tier_name(t);
                kt->quantize(w.data(), n, bits, scale);
                kt->quantize_codes(base.data(), codes.data(), n, bits,
                                   scale);
                EXPECT_TRUE(bits_equal(ref, w))
                    << "quantize bits=" << bits << " n=" << n << " tier "
                    << tier_name(t);
                EXPECT_EQ(ref_codes, codes)
                    << "quantize_codes bits=" << bits << " n=" << n
                    << " tier " << tier_name(t);
            }
        }
    }
}

TEST(SimdBitExact, QgemmNtMatchesInt64ReferenceOnEveryTier) {
    const std::size_t m = 7, k = 45, n = 11;
    Rng rng(77);
    std::vector<std::int16_t> a(m * k), b(n * k);
    for (auto& v : a) {
        v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
    }
    for (auto& v : b) {
        v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
    }
    const float scale = 3.0517578e-05F;

    std::vector<float> ref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<std::int64_t>(a[i * k + kk]) *
                       static_cast<std::int64_t>(b[j * k + kk]);
            }
            ref[i * n + j] = static_cast<float>(acc) * scale;
        }
    }
    for (const Tier t : available_tiers()) {
        std::vector<float> c(m * n, -1.0F);  // must be overwritten
        kernels_for(t)->qgemm_nt(a.data(), b.data(), c.data(), m, k, n,
                                 scale);
        EXPECT_TRUE(bits_equal(ref, c)) << tier_name(t);
    }
}

// ------------------------------------------------- thread invariance ----

/// Full-stack check: Monte-Carlo fault evaluation of a real model under 1
/// and 4 evaluation threads must agree with each other and across tiers —
/// the injection loops run inside worker threads, so this exercises the
/// kernels under the pool.
TEST(SimdBitExact, InjectionUnderOneAndFourThreadsEveryTier) {
    Rng init(3);
    nn::Sequential model;
    model.emplace<nn::Linear>(12, 16, init);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(16, 4, init);

    Rng data_rng(9);
    const Tensor images = Tensor::randn({24, 12}, data_rng);
    std::vector<int> labels(24);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<int>(i % 4);
    }
    const fault::LogNormalDrift drift(0.5);

    std::vector<double> reference;
    for (const Tier t : available_tiers()) {
        TierOverride override_tier(t);
        for (const std::size_t threads : {1UL, 4UL}) {
            Rng eval_rng(123);
            const auto report = fault::evaluate_under_faults(
                model, images, labels, drift, 8, eval_rng, threads);
            if (reference.empty()) {
                reference = report.samples;
                continue;
            }
            EXPECT_EQ(report.samples, reference)
                << tier_name(t) << " threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace bayesft::simd
