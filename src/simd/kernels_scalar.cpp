// Scalar reference tier.  Always available; the bit-exactness baseline
// every vector tier is tested against.  Compiled with -ffp-contract=off
// (see CMakeLists.txt) so the only fused operations are the explicit
// std::fma calls the vector tiers also make.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernels.hpp"

namespace bayesft::simd {

namespace {
#include "simd/vec_backends.inc"
#include "simd/kernels_generic.inc"
}  // namespace

const KernelTable* tier_table_scalar() {
    static const KernelTable table = make_table<ScalarBackend>("scalar");
    return &table;
}

}  // namespace bayesft::simd
