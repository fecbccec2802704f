// Blocked, parallel GEMM kernels used by Dense and Conv2D layers.
//
// Every C element sums its products over k ascending, skipping zero A
// entries, exactly as a plain ikj loop would. gemm_accumulate holds a
// 16-wide strip of a C row in registers across the whole k loop (-O3
// auto-vectorized) and reads B through a packed, contiguous strip panel;
// both kernels tile the M dimension across the nn/parallel.h thread pool.
// Every output row is owned by exactly one chunk, so results are
// bit-identical for any thread count (see tests/test_parallel.cpp).
// Small problems, and calls from inside a parallel region, run inline.
#pragma once

#include <cstdint>

namespace rdo::nn {

/// C[M,N] += A[M,K] * B[K,N]  (row-major, C must be pre-initialized).
void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);

/// C[M,N] = A[M,K] * B[K,N]  (row-major, C overwritten).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// AT[N,M] = A[M,N]^T (serial; row-major, AT overwritten).
void transpose(const float* a, float* at, std::int64_t m, std::int64_t n);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored as [K,M] row-major.
void gemm_at_b_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace rdo::nn
