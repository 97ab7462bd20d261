// AVX2 + FMA tier.  This TU (and only this TU) is compiled with
// -mavx2 -mfma on x86-64 (see CMakeLists.txt); on other targets, or
// builds whose baseline lacks the flags, the getter returns nullptr and
// dispatch skips the tier.  -ffp-contract=off keeps fusion limited to the
// explicit fma ops shared with the scalar reference.
#define BAYESFT_SIMD_WANT_AVX2 1

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "simd/kernels.hpp"

namespace bayesft::simd {

namespace {
#include "simd/vec_backends.inc"
#if defined(__AVX2__) && defined(__FMA__)
#include "simd/kernels_generic.inc"
#endif
}  // namespace

const KernelTable* tier_table_avx2() {
#if defined(__AVX2__) && defined(__FMA__)
    static const KernelTable table = make_table<Avx2Backend>("avx2");
    return &table;
#else
    return nullptr;
#endif
}

}  // namespace bayesft::simd
