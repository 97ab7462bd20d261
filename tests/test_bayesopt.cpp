// Bayesian optimization: kernel properties, GP posterior correctness,
// acquisition behaviour, and end-to-end optimization of known functions.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/bayesopt.hpp"
#include "bayesopt/gp.hpp"
#include "bayesopt/kernel.hpp"
#include "linalg/matrix.hpp"

namespace bayesft::bayesopt {
namespace {

TEST(Kernel, SquaredExponentialSelfCovarianceIsAmplitude) {
    ArdSquaredExponential k(2, 1.0, 3.0);
    EXPECT_DOUBLE_EQ(k({0.5, 0.5}, {0.5, 0.5}), 3.0);
}

TEST(Kernel, SquaredExponentialSymmetryAndDecay) {
    ArdSquaredExponential k(2, 2.0);
    const Point a{0.1, 0.9};
    const Point b{0.8, 0.2};
    EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
    EXPECT_LT(k(a, b), k(a, a));
    EXPECT_GT(k(a, b), 0.0);
}

TEST(Kernel, ArdScalesWeightDimensionsDifferently) {
    // Large inverse scale in dim 0 makes distance in dim 0 matter more.
    ArdSquaredExponential k(std::vector<double>{10.0, 0.1});
    const double move_dim0 = k({0.0, 0.0}, {0.5, 0.0});
    const double move_dim1 = k({0.0, 0.0}, {0.0, 0.5});
    EXPECT_LT(move_dim0, move_dim1);
}

TEST(Kernel, ExactFormOfPaperEquation9) {
    // kappa(a, b) = k0 exp(-sum k_i (a_i - b_i)^2).
    ArdSquaredExponential k(std::vector<double>{2.0, 3.0}, 1.5);
    const Point a{0.1, 0.4};
    const Point b{0.3, 0.0};
    const double expected =
        1.5 * std::exp(-(2.0 * 0.04 + 3.0 * 0.16));
    EXPECT_NEAR(k(a, b), expected, 1e-12);
}

TEST(Kernel, GramMatrixIsPsd) {
    Rng rng(1);
    ArdSquaredExponential k(3, 1.0);
    std::vector<Point> xs;
    for (int i = 0; i < 12; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    }
    linalg::Matrix gram = k.gram(xs);
    gram.add_diagonal(1e-9);
    EXPECT_NO_THROW(linalg::cholesky(gram));  // PSD + jitter factorizes
}

TEST(Kernel, RejectsBadParameters) {
    EXPECT_THROW(ArdSquaredExponential(2, 0.0), std::invalid_argument);
    EXPECT_THROW(ArdSquaredExponential(2, 1.0, -1.0), std::invalid_argument);
    EXPECT_THROW(ArdSquaredExponential(std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(Matern52(0.0), std::invalid_argument);
}

TEST(Kernel, Matern52BasicProperties) {
    Matern52 k(0.5, 2.0);
    EXPECT_DOUBLE_EQ(k({0.3}, {0.3}), 2.0);
    EXPECT_LT(k({0.0}, {1.0}), k({0.0}, {0.1}));
}

TEST(Gp, InterpolatesTrainingPointsWithLowNoise) {
    auto kernel = std::make_shared<ArdSquaredExponential>(1, 5.0);
    GaussianProcess gp(kernel, 1e-8);
    gp.fit({{0.1}, {0.5}, {0.9}}, {1.0, -2.0, 3.0});
    EXPECT_NEAR(gp.posterior({0.1}).mean, 1.0, 1e-3);
    EXPECT_NEAR(gp.posterior({0.5}).mean, -2.0, 1e-3);
    EXPECT_NEAR(gp.posterior({0.9}).mean, 3.0, 1e-3);
}

TEST(Gp, VarianceSmallAtDataLargeFarAway) {
    auto kernel = std::make_shared<ArdSquaredExponential>(1, 20.0);
    GaussianProcess gp(kernel, 1e-8);
    gp.fit({{0.5}}, {0.0});
    EXPECT_LT(gp.posterior({0.5}).variance, 1e-6);
    // Far from data the posterior reverts to the prior variance k(x, x) = 1.
    EXPECT_NEAR(gp.posterior({5.0}).variance, 1.0, 1e-3);
}

TEST(Gp, SinglePointClosedForm) {
    // With one observation (x0, y0): mu(x) = ybar + k(x,x0)/(k0+noise) *
    // (y0 - ybar), and centering makes ybar = y0, so mu(x) == y0 everywhere.
    auto kernel = std::make_shared<ArdSquaredExponential>(1, 1.0);
    GaussianProcess gp(kernel, 0.01);
    gp.fit({{0.3}}, {2.5});
    EXPECT_NEAR(gp.posterior({0.3}).mean, 2.5, 1e-9);
    EXPECT_NEAR(gp.posterior({0.9}).mean, 2.5, 1e-9);
}

TEST(Gp, PosteriorMeanSmoothlyBlends) {
    auto kernel = std::make_shared<ArdSquaredExponential>(1, 10.0);
    GaussianProcess gp(kernel, 1e-6);
    gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
    const double mid = gp.posterior({0.5}).mean;
    EXPECT_GT(mid, 0.2);
    EXPECT_LT(mid, 0.8);
}

TEST(Gp, LogMarginalLikelihoodPrefersBetterFit) {
    // Data drawn from a smooth function: a kernel with a sane length scale
    // should have higher marginal likelihood than a wildly mismatched one.
    std::vector<Point> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 10; ++i) {
        const double x = i / 10.0;
        xs.push_back({x});
        ys.push_back(std::sin(3.0 * x));
    }
    GaussianProcess good(std::make_shared<ArdSquaredExponential>(1, 3.0),
                         1e-4);
    GaussianProcess bad(std::make_shared<ArdSquaredExponential>(1, 1e4),
                        1e-4);
    good.fit(xs, ys);
    bad.fit(xs, ys);
    EXPECT_GT(good.log_marginal_likelihood(), bad.log_marginal_likelihood());
}

TEST(Gp, ErrorsOnMisuse) {
    auto kernel = std::make_shared<ArdSquaredExponential>(1, 1.0);
    GaussianProcess gp(kernel, 1e-6);
    EXPECT_THROW(gp.posterior({0.5}), std::logic_error);
    EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
    EXPECT_THROW(gp.fit({{0.1}}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(gp.fit({{0.1}, {0.1, 0.2}}, {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Acquisition, PosteriorMeanIgnoresVariance) {
    PosteriorMean acq;
    EXPECT_DOUBLE_EQ(acq.score({1.5, 100.0}, 0.0), 1.5);
}

TEST(Acquisition, ExpectedImprovementZeroWhenCertainBelowIncumbent) {
    ExpectedImprovement acq(0.0);
    EXPECT_DOUBLE_EQ(acq.score({0.5, 0.0}, 1.0), 0.0);
    EXPECT_GT(acq.score({0.5, 1.0}, 1.0), 0.0);  // uncertainty adds hope
}

TEST(Acquisition, ExpectedImprovementIncreasesWithMean) {
    ExpectedImprovement acq;
    EXPECT_GT(acq.score({2.0, 1.0}, 1.0), acq.score({1.5, 1.0}, 1.0));
}

TEST(Acquisition, UcbTradesOffMeanAndVariance) {
    UpperConfidenceBound acq(2.0);
    EXPECT_DOUBLE_EQ(acq.score({1.0, 4.0}, 0.0), 1.0 + 2.0 * 2.0);
}

TEST(Acquisition, FactoryAndValidation) {
    EXPECT_NE(make_acquisition("posterior_mean"), nullptr);
    EXPECT_NE(make_acquisition("ei"), nullptr);
    EXPECT_NE(make_acquisition("ucb"), nullptr);
    EXPECT_THROW(make_acquisition("thompson"), std::invalid_argument);
    EXPECT_THROW(ExpectedImprovement(-1.0), std::invalid_argument);
}

TEST(BoxBounds, ValidationAndSampling) {
    BoxBounds bounds = BoxBounds::uniform(3, 0.0, 1.0);
    Rng rng(2);
    const Point p = bounds.sample(rng);
    EXPECT_EQ(p.size(), 3U);
    for (double v : p) {
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
    Point q{-1.0, 0.5, 2.0};
    bounds.clamp(q);
    EXPECT_DOUBLE_EQ(q[0], 0.0);
    EXPECT_DOUBLE_EQ(q[2], 1.0);

    BoxBounds bad;
    bad.lower = {0.0};
    bad.upper = {0.0};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

double quadratic_peak(const Point& p) {
    // Max 1.0 at (0.7, 0.3).
    const double dx = p[0] - 0.7;
    const double dy = p[1] - 0.3;
    return 1.0 - (dx * dx + dy * dy);
}

TEST(BayesOpt, FindsQuadraticMaximum) {
    BayesOptConfig config;
    config.initial_random_trials = 5;
    BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                std::make_shared<ArdSquaredExponential>(2, 4.0),
                std::make_unique<UpperConfidenceBound>(1.5), config, Rng(3));
    for (int i = 0; i < 30; ++i) {
        const Point x = bo.suggest();
        bo.observe(x, quadratic_peak(x));
    }
    const auto best = bo.best();
    ASSERT_TRUE(best.has_value());
    EXPECT_GT(best->y, 0.97);
    EXPECT_NEAR(best->x[0], 0.7, 0.15);
    EXPECT_NEAR(best->x[1], 0.3, 0.15);
}

TEST(BayesOpt, BeatsRandomSearchOnBudget) {
    // Average over a few seeds: after the same number of evaluations the
    // GP-guided search should reach a higher incumbent than uniform random.
    double bo_total = 0.0, random_total = 0.0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        BayesOptConfig config;
        config.initial_random_trials = 4;
        BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                    std::make_shared<ArdSquaredExponential>(2, 4.0),
                    std::make_unique<ExpectedImprovement>(), config,
                    Rng(seed * 7 + 1));
        Rng random_rng(seed * 13 + 5);
        const BoxBounds bounds = BoxBounds::uniform(2, 0.0, 1.0);
        double random_best = -1e9;
        for (int i = 0; i < 20; ++i) {
            const Point x = bo.suggest();
            bo.observe(x, quadratic_peak(x));
            random_best =
                std::max(random_best, quadratic_peak(bounds.sample(random_rng)));
        }
        bo_total += bo.best()->y;
        random_total += random_best;
    }
    EXPECT_GE(bo_total, random_total);
}

TEST(BayesOpt, ObserveValidatesInput) {
    BayesOptConfig config;
    BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                std::make_shared<ArdSquaredExponential>(2, 1.0),
                std::make_unique<PosteriorMean>(), config, Rng(4));
    // Structural errors still throw (wrong dimension is a caller bug) ...
    EXPECT_THROW(bo.observe({0.5}, 1.0), std::invalid_argument);
    EXPECT_FALSE(bo.best().has_value());
    // ... but a non-finite objective is an evaluation failure, not a bug:
    // the trial is quarantined at the fail penalty instead of aborting the
    // search (docs/robustness.md).
    bo.observe({0.5, 0.5}, std::numeric_limits<double>::quiet_NaN());
    ASSERT_EQ(bo.trials().size(), 1U);
    EXPECT_EQ(bo.trials()[0].status, TrialStatus::kFailedNaN);
    EXPECT_EQ(bo.trials()[0].y, config.fail_penalty);
    ASSERT_TRUE(bo.best().has_value());
    EXPECT_EQ(bo.best()->status, TrialStatus::kFailedNaN);
    // A later successful trial displaces the quarantined incumbent even at
    // a lower objective than the penalty would suggest.
    bo.observe({0.25, 0.25}, -1.0);
    EXPECT_EQ(bo.best()->status, TrialStatus::kOk);
    EXPECT_EQ(bo.best()->y, -1.0);
}

TEST(BayesOpt, SuggestBatchOfOneMatchesSuggest) {
    // Two identical optimizers: suggest_batch(1) must replay suggest()
    // exactly (no fantasy observations, same RNG draws).
    const auto make = [] {
        BayesOptConfig config;
        config.initial_random_trials = 3;
        return BayesOpt(BoxBounds::uniform(2, 0.0, 1.0),
                        std::make_shared<ArdSquaredExponential>(2, 4.0),
                        std::make_unique<UpperConfidenceBound>(1.5), config,
                        Rng(17));
    };
    BayesOpt serial = make();
    BayesOpt batched = make();
    for (int i = 0; i < 8; ++i) {
        const Point a = serial.suggest();
        const std::vector<Point> b = batched.suggest_batch(1);
        ASSERT_EQ(b.size(), 1U);
        EXPECT_EQ(a, b[0]) << "iteration " << i;
        const double y = quadratic_peak(a);
        serial.observe(a, y);
        batched.observe_batch({b[0]}, {y});
    }
    ASSERT_EQ(serial.trials().size(), batched.trials().size());
    for (std::size_t t = 0; t < serial.trials().size(); ++t) {
        EXPECT_EQ(serial.trials()[t].x, batched.trials()[t].x);
        EXPECT_EQ(serial.trials()[t].y, batched.trials()[t].y);
    }
}

TEST(BayesOpt, SuggestBatchIsDiverseAndRollsBackFantasies) {
    BayesOptConfig config;
    config.initial_random_trials = 4;
    BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                std::make_shared<ArdSquaredExponential>(2, 4.0),
                std::make_unique<PosteriorMean>(), config, Rng(19));
    for (int i = 0; i < 6; ++i) {
        const Point x = bo.suggest();
        bo.observe(x, quadratic_peak(x));
    }
    const std::size_t trials_before = bo.trials().size();
    const std::size_t gp_rows_before = bo.surrogate().observation_count();

    const std::vector<Point> batch = bo.suggest_batch(4);
    ASSERT_EQ(batch.size(), 4U);
    // Diversity: no two candidates within the separation tolerance.  (The
    // implementation may fall back to the unfiltered argmax when the whole
    // candidate pool crowds the pending picks; with 512 uniform pool
    // samples over [0,1]^2 and this fixed seed that path is unreachable,
    // so a failure here means the diversity guard actually regressed.)
    const double min_separation =
        config.batch_separation_fraction * std::sqrt(2.0) * 0.5;
    for (std::size_t a = 0; a < batch.size(); ++a) {
        for (double v : batch[a]) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
        for (std::size_t b = a + 1; b < batch.size(); ++b) {
            double dist = 0.0;
            for (std::size_t d = 0; d < 2; ++d) {
                const double delta = batch[a][d] - batch[b][d];
                dist += delta * delta;
            }
            EXPECT_GT(std::sqrt(dist), min_separation)
                << "candidates " << a << " and " << b << " too close";
        }
    }
    // The constant-liar fantasies must not leak into the real history.
    EXPECT_EQ(bo.trials().size(), trials_before);
    EXPECT_EQ(bo.surrogate().observation_count(), gp_rows_before);
    EXPECT_THROW(bo.suggest_batch(0), std::invalid_argument);
}

TEST(BayesOpt, ObserveBatchValidatesInput) {
    BayesOptConfig config;
    BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                std::make_shared<ArdSquaredExponential>(2, 1.0),
                std::make_unique<PosteriorMean>(), config, Rng(23));
    EXPECT_THROW(bo.observe_batch({}, {}), std::invalid_argument);
    EXPECT_THROW(bo.observe_batch({{0.5, 0.5}}, {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(bo.observe_batch({{0.5}}, {1.0}), std::invalid_argument);
    // Non-finite objectives no longer throw: the trial is quarantined with
    // a failure status and the penalty value (see observe()'s contract).
    bo.observe_batch({{0.5, 0.5}},
                     {std::numeric_limits<double>::infinity()});
    ASSERT_EQ(bo.trials().size(), 1U);
    EXPECT_EQ(bo.trials()[0].status, TrialStatus::kFailedNaN);
    bo.observe_batch({{0.2, 0.2}, {0.8, 0.8}}, {0.0, 1.0});
    EXPECT_EQ(bo.trials().size(), 3U);
    EXPECT_TRUE(bo.surrogate().fitted());
    // A caller-supplied status wins over the finiteness check.
    bo.observe_batch({{0.6, 0.6}}, {0.25}, {TrialStatus::kFailedTimeout});
    ASSERT_EQ(bo.trials().size(), 4U);
    EXPECT_EQ(bo.trials()[3].status, TrialStatus::kFailedTimeout);
    EXPECT_EQ(bo.trials()[3].y, config.fail_penalty);
}

TEST(BayesOpt, DuplicateObservationsMergeIntoOneGpRow) {
    // Observing the same point many times used to hand the GP a singular
    // Gram matrix (rescued only by escalating Cholesky jitter).  The
    // duplicate guard merges repeats into one averaged observation.
    BayesOptConfig config;
    BayesOpt bo(BoxBounds::uniform(2, 0.0, 1.0),
                std::make_shared<ArdSquaredExponential>(2, 4.0),
                std::make_unique<PosteriorMean>(), config, Rng(29));
    for (int i = 0; i < 30; ++i) {
        bo.observe({0.5, 0.5}, i % 2 == 0 ? 0.0 : 1.0);
    }
    EXPECT_EQ(bo.trials().size(), 30U);                   // history intact
    EXPECT_EQ(bo.surrogate().observation_count(), 1U);    // one GP row
    const Posterior post = bo.surrogate().posterior({0.5, 0.5});
    EXPECT_TRUE(std::isfinite(post.mean));
    EXPECT_NEAR(post.mean, 0.5, 0.05);  // averaged repeats

    // Near-duplicates (within tolerance) merge too; distinct points do not.
    bo.observe({0.5 + 1e-9, 0.5}, 1.0);
    EXPECT_EQ(bo.surrogate().observation_count(), 1U);
    bo.observe({0.9, 0.1}, 0.3);
    EXPECT_EQ(bo.surrogate().observation_count(), 2U);
}

TEST(Kernel, MixedArdMatchesArdSeWithoutCategoricals) {
    // The bit-compatibility contract: with no categorical blocks the mixed
    // kernel computes term-for-term what ArdSquaredExponential computes.
    MixedArdSquaredExponential mixed({4.0, 4.0, 4.0}, {}, 1.0);
    ArdSquaredExponential ard(3, 4.0);
    Rng rng(41);
    for (int i = 0; i < 30; ++i) {
        const Point a{rng.uniform(), rng.uniform(), rng.uniform()};
        const Point b{rng.uniform(), rng.uniform(), rng.uniform()};
        EXPECT_EQ(mixed(a, b), ard(a, b));
    }
}

TEST(Kernel, MixedArdHammingTermAndValidation) {
    // Layout: one numeric coord + one 3-way one-hot block.
    MixedArdSquaredExponential k({2.0, 1.0, 1.0, 1.0},
                                 {{1, 3}}, 0.7);
    const Point same_cat{0.1, 1.0, 0.0, 0.0};
    const Point same_cat2{0.3, 1.0, 0.0, 0.0};
    const Point other_cat{0.1, 0.0, 1.0, 0.0};
    // Numeric-only distance.
    EXPECT_NEAR(k(same_cat, same_cat2), std::exp(-2.0 * 0.04), 1e-12);
    // Categorical-only distance: exp(-lambda), one-hot coords excluded
    // from the ARD sum.
    EXPECT_NEAR(k(same_cat, other_cat), std::exp(-0.7), 1e-12);
    EXPECT_DOUBLE_EQ(k(same_cat, same_cat), 1.0);

    EXPECT_THROW(MixedArdSquaredExponential({}, {}, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(MixedArdSquaredExponential({1.0, 1.0}, {{0, 2}}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(MixedArdSquaredExponential({1.0, 1.0}, {{1, 2}}, 1.0),
                 std::invalid_argument);  // block past the end
    EXPECT_THROW(
        MixedArdSquaredExponential({1.0, 1.0, 1.0}, {{0, 2}, {1, 2}}, 1.0),
        std::invalid_argument);  // overlapping blocks
    EXPECT_THROW(MixedArdSquaredExponential({0.0, 1.0}, {}, 1.0),
                 std::invalid_argument);  // non-positive numeric scale
}

TEST(Kernel, MixedArdCrossMatrixMatchesPointwiseBitwise) {
    // The precomputed cross block must hold operator()'s bits, including
    // for near-one-hot queries (argmax ties resolve to the first winner)
    // and with the numeric coordinates split around the blocks.
    MixedArdSquaredExponential k({3.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 2.0},
                                 {{1, 3}, {5, 2}}, 0.8, 1.3);
    Rng rng(43);
    auto draw = [&](std::size_t count) {
        std::vector<Point> points;
        for (std::size_t p = 0; p < count; ++p) {
            Point x(8);
            for (double& v : x) v = rng.uniform();
            if (p % 3 == 0) x[2] = x[1];  // a tie inside the first block
            points.push_back(x);
        }
        return points;
    };
    const std::vector<Point> queries = draw(37);
    const std::vector<Point> xs = draw(11);
    const linalg::Matrix c = k.cross_matrix(queries, xs);
    ASSERT_EQ(c.rows(), queries.size());
    ASSERT_EQ(c.cols(), xs.size());
    for (std::size_t r = 0; r < queries.size(); ++r) {
        for (std::size_t i = 0; i < xs.size(); ++i) {
            EXPECT_EQ(c(r, i), k(queries[r], xs[i])) << r << "," << i;
        }
    }
    EXPECT_THROW(k.cross_matrix({Point(7, 0.0)}, xs), std::invalid_argument);
}

TEST(BayesOpt, DuplicateMergeUsesSpanNormalizedDistance) {
    // A wide dimension next to a narrow one: raw Euclidean distance would
    // either merge distinct narrow-dim points or fail to merge identical
    // wide-dim points, depending on the span.  Span-normalized distance
    // treats both dims on the same [0, 1] scale.
    BoxBounds bounds;
    bounds.lower = {0.0, 0.0};
    bounds.upper = {0.6, 1000.0};
    BayesOptConfig config;
    BayesOpt bo(bounds, std::make_shared<ArdSquaredExponential>(2, 4.0),
                std::make_unique<PosteriorMean>(), config, Rng(43));

    // A 5e-4 raw offset in the wide dim is 5e-7 of its span — a duplicate
    // under the normalized tolerance (raw Euclidean 1e-6 would have kept
    // it distinct and risked a near-singular Gram matrix) — while the same
    // 5e-4 raw offset in the narrow dim is 8.3e-4 of its span and stays a
    // genuinely distinct point.
    bo.observe({0.3, 500.0}, 0.0);
    bo.observe({0.3, 500.0005}, 1.0);  // 5e-7 of span: merges
    EXPECT_EQ(bo.surrogate().observation_count(), 1U);
    bo.observe({0.3005, 500.0}, 1.0);  // 8.3e-4 of narrow span: distinct
    EXPECT_EQ(bo.surrogate().observation_count(), 2U);
}

TEST(BayesOpt, BatchSeparationIsSpanNormalized) {
    // With one dominant wide dimension, the diversity guard must still
    // separate candidates in the narrow dims: normalized separation uses
    // the fraction of each dim's span, not raw units.
    BoxBounds bounds;
    bounds.lower = {0.0, 0.0};
    bounds.upper = {0.6, 1000.0};
    BayesOptConfig config;
    config.initial_random_trials = 3;
    BayesOpt bo(bounds, std::make_shared<ArdSquaredExponential>(2, 4.0),
                std::make_unique<PosteriorMean>(), config, Rng(47));
    Rng objective_rng(48);
    for (int i = 0; i < 5; ++i) {
        const Point x = bo.suggest();
        bo.observe(x, objective_rng.uniform());
    }
    const std::vector<Point> batch = bo.suggest_batch(3);
    const double min_separation =
        config.batch_separation_fraction * std::sqrt(2.0);
    for (std::size_t a = 0; a < batch.size(); ++a) {
        for (std::size_t b = a + 1; b < batch.size(); ++b) {
            double sum = 0.0;
            for (std::size_t d = 0; d < 2; ++d) {
                const double span = bounds.upper[d] - bounds.lower[d];
                const double delta = (batch[a][d] - batch[b][d]) / span;
                sum += delta * delta;
            }
            EXPECT_GT(std::sqrt(sum), min_separation)
                << "candidates " << a << " and " << b
                << " too close in normalized distance";
        }
    }
}

TEST(BayesOpt, SuggestStaysInBounds) {
    BayesOptConfig config;
    config.initial_random_trials = 2;
    BayesOpt bo(BoxBounds::uniform(3, 0.2, 0.8),
                std::make_shared<ArdSquaredExponential>(3, 1.0),
                std::make_unique<PosteriorMean>(), config, Rng(5));
    for (int i = 0; i < 10; ++i) {
        const Point x = bo.suggest();
        for (double v : x) {
            EXPECT_GE(v, 0.2);
            EXPECT_LE(v, 0.8);
        }
        bo.observe(x, static_cast<double>(i % 3));
    }
    EXPECT_EQ(bo.trials().size(), 10U);
    EXPECT_TRUE(bo.surrogate().fitted());
}

}  // namespace
}  // namespace bayesft::bayesopt
