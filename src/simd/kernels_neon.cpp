// NEON (aarch64) tier.  aarch64 guarantees Advanced SIMD, so no extra
// compile flags are needed; on non-ARM targets the getter returns
// nullptr.  -ffp-contract=off keeps fusion limited to the explicit fma
// ops shared with the scalar reference.
#define BAYESFT_SIMD_WANT_NEON 1

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

#include "simd/kernels.hpp"

namespace bayesft::simd {

namespace {
#include "simd/vec_backends.inc"
#if defined(__ARM_NEON) && defined(__aarch64__)
#include "simd/kernels_generic.inc"
#endif
}  // namespace

const KernelTable* tier_table_neon() {
#if defined(__ARM_NEON) && defined(__aarch64__)
    static const KernelTable table = make_table<NeonBackend>("neon");
    return &table;
#else
    return nullptr;
#endif
}

}  // namespace bayesft::simd
