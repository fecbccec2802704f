#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/parallel.h"

namespace rdo::nn {

namespace {

/// Width of the C-row strip one kernel pass keeps in registers (four SSE
/// vectors). Each strip element still sums over p ascending, so the
/// strip split leaves results bitwise identical to a plain ikj loop.
constexpr std::int64_t kStrip = 16;

/// Chunks with at least this many rows copy each B strip into a
/// contiguous, zero-padded panel first: B rows of a power-of-two width
/// would otherwise map to the same cache set, and padding lets a narrow
/// last strip run in registers too. Smaller chunks read B in place.
constexpr std::int64_t kPackRows = 4;

/// Minimum multiply-adds one chunk should amortize the dispatch over.
constexpr std::int64_t kGrainFlops = 1 << 15;

std::int64_t row_grain(std::int64_t k, std::int64_t n) {
  const std::int64_t per_row = std::max<std::int64_t>(1, k * n);
  return std::max<std::int64_t>(1, kGrainFlops / per_row);
}

/// cs[0:jn] += arow * B-strip, accumulated in registers. `bs` holds kStrip
/// readable columns per row (row stride ldb); lanes past jn are computed
/// but never stored.
void strip_kernel(const float* arow, const float* bs, std::int64_t ldb,
                  float* cs, std::int64_t jn, std::int64_t k) {
  // `edge` takes the runtime-length copies so that `acc`, indexed only by
  // the fixed-trip loops, can live in registers.
  float edge[kStrip] = {};
  std::copy(cs, cs + jn, edge);
  float acc[kStrip];
  for (std::int64_t j = 0; j < kStrip; ++j) acc[j] = edge[j];
  for (std::int64_t p = 0; p < k; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;  // often sparse (ReLU, quantized zeros)
    const float* brow = bs + p * ldb;
    for (std::int64_t j = 0; j < kStrip; ++j) acc[j] += av * brow[j];
  }
  for (std::int64_t j = 0; j < kStrip; ++j) edge[j] = acc[j];
  std::copy(edge, edge + jn, cs);
}

/// C[i0:i1, :] += A[i0:i1, :] * B, one kStrip-wide column strip at a time.
void gemm_rows(const float* a, const float* b, float* c, std::int64_t i0,
               std::int64_t i1, std::int64_t k, std::int64_t n) {
  const bool pack = i1 - i0 >= kPackRows;
  std::vector<float> panel(pack ? static_cast<std::size_t>(k * kStrip) : 0);
  for (std::int64_t j0 = 0; j0 < n; j0 += kStrip) {
    const std::int64_t jn = std::min(kStrip, n - j0);
    if (pack) {
      for (std::int64_t p = 0; p < k; ++p) {
        float* dst = panel.data() + p * kStrip;
        std::copy(b + p * n + j0, b + p * n + j0 + jn, dst);
        std::fill(dst + jn, dst + kStrip, 0.0f);
      }
      for (std::int64_t i = i0; i < i1; ++i) {
        strip_kernel(a + i * k, panel.data(), kStrip, c + i * n + j0, jn, k);
      }
    } else if (jn == kStrip) {
      for (std::int64_t i = i0; i < i1; ++i) {
        strip_kernel(a + i * k, b + j0, n, c + i * n + j0, jn, k);
      }
    } else {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* cs = c + i * n + j0;
        for (std::int64_t p = 0; p < k; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n + j0;
          for (std::int64_t j = 0; j < jn; ++j) cs[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        gemm_rows(a, b, c, i0, i1, k, n);
      },
      row_grain(k, n));
}

void transpose(const float* a, float* at, std::int64_t m, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) at[j * m + i] = a[i * n + j];
  }
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  // A is [K, M]; we compute C[i, j] += sum_p A[p, i] * B[p, j]. Each
  // chunk owns rows [i0, i1) of C and walks p in the serial order, so
  // every C element sees the exact serial accumulation sequence.
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t p = 0; p < k; ++p) {
          const float* arow = a + p * m;
          const float* brow = b + p * n;
          for (std::int64_t i = i0; i < i1; ++i) {
            const float av = arow[i];
            if (av == 0.0f) continue;
            float* crow = c + i * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      row_grain(k, n));
}

}  // namespace rdo::nn
