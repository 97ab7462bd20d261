// AVX-512 tier (F+BW+DQ).  Compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl on x86-64 (see CMakeLists.txt); returns nullptr elsewhere.
// -ffp-contract=off keeps fusion limited to the explicit fma ops shared
// with the scalar reference.
#define BAYESFT_SIMD_WANT_AVX512 1

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

#include "simd/kernels.hpp"

namespace bayesft::simd {

namespace {
#include "simd/vec_backends.inc"
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
#include "simd/kernels_generic.inc"
#endif
}  // namespace

const KernelTable* tier_table_avx512() {
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
    static const KernelTable table = make_table<Avx512Backend>("avx512");
    return &table;
#else
    return nullptr;
#endif
}

}  // namespace bayesft::simd
