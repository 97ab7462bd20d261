#include "bayesopt/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "utils/parallel.hpp"

namespace bayesft::bayesopt {

linalg::Matrix Kernel::gram(const std::vector<Point>& xs) const {
    const std::size_t n = xs.size();
    linalg::Matrix k(n, n);
    if (n < 128) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = (*this)(xs[i], xs[j]);
                k(i, j) = v;
                k(j, i) = v;
            }
        }
        return k;
    }
    // Pool-parallel fill: each chunk owns whole rows of the lower
    // triangle (disjoint outputs), then a second pass mirrors it.  Every
    // element is the same single kernel evaluation the serial loop makes,
    // so the matrix is bit-identical at every thread count.
    parallel_for(0, n, 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                k(i, j) = (*this)(xs[i], xs[j]);
            }
        }
    });
    parallel_for(0, n, 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) k(i, j) = k(j, i);
        }
    });
    return k;
}

linalg::Vector Kernel::cross(const Point& x,
                             const std::vector<Point>& xs) const {
    linalg::Vector v(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) v[i] = (*this)(x, xs[i]);
    return v;
}

linalg::Matrix Kernel::cross_matrix(const std::vector<Point>& queries,
                                    const std::vector<Point>& xs) const {
    const std::size_t m = queries.size();
    const std::size_t n = xs.size();
    linalg::Matrix c(m, n);
    // Row r is exactly cross(queries[r], xs); rows have disjoint outputs,
    // so the split over the pool is bit-deterministic.
    const std::size_t grain = std::max<std::size_t>(1, 1024 / (n + 1));
    parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
                c(r, i) = (*this)(queries[r], xs[i]);
            }
        }
    });
    return c;
}

ArdSquaredExponential::ArdSquaredExponential(
    std::vector<double> inverse_length_scales, double amplitude)
    : inv_scales_(std::move(inverse_length_scales)), amplitude_(amplitude) {
    if (inv_scales_.empty()) {
        throw std::invalid_argument("ArdSquaredExponential: empty scales");
    }
    for (double k : inv_scales_) {
        if (!(k > 0.0)) {
            throw std::invalid_argument(
                "ArdSquaredExponential: inverse length scales must be > 0");
        }
    }
    if (!(amplitude > 0.0)) {
        throw std::invalid_argument(
            "ArdSquaredExponential: amplitude must be > 0");
    }
}

ArdSquaredExponential::ArdSquaredExponential(std::size_t dims,
                                             double inv_scale,
                                             double amplitude)
    : ArdSquaredExponential(std::vector<double>(dims, inv_scale), amplitude) {}

double ArdSquaredExponential::operator()(const Point& a,
                                         const Point& b) const {
    if (a.size() != inv_scales_.size() || b.size() != inv_scales_.size()) {
        throw std::invalid_argument(
            "ArdSquaredExponential: dimension mismatch");
    }
    double exponent = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        exponent += inv_scales_[i] * d * d;
    }
    return amplitude_ * std::exp(-exponent);
}

std::string ArdSquaredExponential::describe() const {
    std::ostringstream os;
    os << "ARD-SE(d=" << inv_scales_.size() << ", k0=" << amplitude_ << ")";
    return os.str();
}

namespace {

/// Argmax coordinate of one one-hot block (first winner on ties).
std::size_t block_argmax(const Point& p, const CategoricalBlock& block) {
    std::size_t best = block.offset;
    for (std::size_t i = block.offset + 1;
         i < block.offset + block.cardinality; ++i) {
        if (p[i] > p[best]) best = i;
    }
    return best - block.offset;
}

}  // namespace

MixedArdSquaredExponential::MixedArdSquaredExponential(
    std::vector<double> inverse_length_scales,
    std::vector<CategoricalBlock> blocks, double hamming_weight,
    double amplitude)
    : dims_(inverse_length_scales.size()),
      blocks_(std::move(blocks)),
      hamming_weight_(hamming_weight),
      amplitude_(amplitude) {
    if (dims_ == 0) {
        throw std::invalid_argument("MixedArdSE: empty scales");
    }
    if (!(hamming_weight > 0.0)) {
        throw std::invalid_argument("MixedArdSE: hamming_weight must be > 0");
    }
    if (!(amplitude > 0.0)) {
        throw std::invalid_argument("MixedArdSE: amplitude must be > 0");
    }
    std::vector<char> is_categorical(dims_, 0);
    std::size_t next_free = 0;
    for (const CategoricalBlock& block : blocks_) {
        if (block.cardinality < 2 || block.offset < next_free ||
            block.offset + block.cardinality > dims_) {
            throw std::invalid_argument(
                "MixedArdSE: malformed categorical blocks");
        }
        next_free = block.offset + block.cardinality;
        for (std::size_t i = block.offset;
             i < block.offset + block.cardinality; ++i) {
            is_categorical[i] = 1;
        }
    }
    for (std::size_t i = 0; i < dims_; ++i) {
        if (is_categorical[i]) continue;
        if (!(inverse_length_scales[i] > 0.0)) {
            throw std::invalid_argument(
                "MixedArdSE: numeric inverse length scales must be > 0");
        }
        numeric_dims_.push_back(i);
        numeric_scales_.push_back(inverse_length_scales[i]);
    }
}

double MixedArdSquaredExponential::operator()(const Point& a,
                                              const Point& b) const {
    if (a.size() != dims_ || b.size() != dims_) {
        throw std::invalid_argument("MixedArdSE: dimension mismatch");
    }
    double exponent = 0.0;
    for (std::size_t j = 0; j < numeric_dims_.size(); ++j) {
        const double d = a[numeric_dims_[j]] - b[numeric_dims_[j]];
        exponent += numeric_scales_[j] * d * d;
    }
    for (const CategoricalBlock& block : blocks_) {
        if (block_argmax(a, block) != block_argmax(b, block)) {
            exponent += hamming_weight_;
        }
    }
    return amplitude_ * std::exp(-exponent);
}

linalg::Matrix MixedArdSquaredExponential::cross_matrix(
    const std::vector<Point>& queries, const std::vector<Point>& xs) const {
    const std::size_t nnum = numeric_dims_.size();
    const std::size_t ncat = blocks_.size();
    // Per point: its numeric coordinates packed in ascending order, and
    // its block argmaxes — computed once instead of once per element.
    struct Encoded {
        std::vector<double> num;
        std::vector<std::size_t> cat;
    };
    auto encode = [&](const std::vector<Point>& points) {
        Encoded e{std::vector<double>(points.size() * nnum),
                  std::vector<std::size_t>(points.size() * ncat)};
        for (std::size_t p = 0; p < points.size(); ++p) {
            if (points[p].size() != dims_) {
                throw std::invalid_argument("MixedArdSE: dimension mismatch");
            }
            for (std::size_t j = 0; j < nnum; ++j) {
                e.num[p * nnum + j] = points[p][numeric_dims_[j]];
            }
            for (std::size_t c = 0; c < ncat; ++c) {
                e.cat[p * ncat + c] = block_argmax(points[p], blocks_[c]);
            }
        }
        return e;
    };
    const Encoded q = encode(queries);
    const Encoded x = encode(xs);
    const std::size_t m = queries.size();
    const std::size_t n = xs.size();
    linalg::Matrix c(m, n);
    const std::size_t grain = std::max<std::size_t>(1, 1024 / (n + 1));
    parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            const double* qa = q.num.data() + r * nnum;
            const std::size_t* qc = q.cat.data() + r * ncat;
            for (std::size_t i = 0; i < n; ++i) {
                const double* xb = x.num.data() + i * nnum;
                const std::size_t* xc = x.cat.data() + i * ncat;
                // operator()'s terms in operator()'s order.
                double exponent = 0.0;
                for (std::size_t j = 0; j < nnum; ++j) {
                    const double d = qa[j] - xb[j];
                    exponent += numeric_scales_[j] * d * d;
                }
                for (std::size_t k = 0; k < ncat; ++k) {
                    if (qc[k] != xc[k]) exponent += hamming_weight_;
                }
                c(r, i) = amplitude_ * std::exp(-exponent);
            }
        }
    });
    return c;
}

std::string MixedArdSquaredExponential::describe() const {
    std::ostringstream os;
    os << "MixedARD-SE(d=" << dims_ << ", cat="
       << blocks_.size() << ", lambda=" << hamming_weight_
       << ", k0=" << amplitude_ << ")";
    return os.str();
}

Matern52::Matern52(double length_scale, double amplitude)
    : length_scale_(length_scale), amplitude_(amplitude) {
    if (!(length_scale > 0.0) || !(amplitude > 0.0)) {
        throw std::invalid_argument("Matern52: parameters must be > 0");
    }
}

double Matern52::operator()(const Point& a, const Point& b) const {
    if (a.size() != b.size()) {
        throw std::invalid_argument("Matern52: dimension mismatch");
    }
    double sq = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sq += d * d;
    }
    const double r = std::sqrt(sq) / length_scale_;
    const double sqrt5_r = std::sqrt(5.0) * r;
    return amplitude_ * (1.0 + sqrt5_r + 5.0 / 3.0 * r * r) *
           std::exp(-sqrt5_r);
}

std::string Matern52::describe() const {
    std::ostringstream os;
    os << "Matern52(l=" << length_scale_ << ", k0=" << amplitude_ << ")";
    return os.str();
}

}  // namespace bayesft::bayesopt
