// Micro-benchmarks (google-benchmark) for the simulation kernels: device
// programming, crossbar VMM, LUT construction, the VAWO group solver, and
// conv lowering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>

#include "core/vawo.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/parallel.h"
#include "rram/crossbar.h"
#include "rram/programmer.h"
#include "rram/rlut.h"

using namespace rdo;
using rdo::nn::Rng;

namespace {

void BM_WeightProgram(benchmark::State& state) {
  const rram::CellModel cell{
      state.range(0) == 1 ? rram::CellKind::SLC : rram::CellKind::MLC2,
      200.0};
  rram::WeightProgrammer prog(cell, 8, {0.5, 0.0});
  Rng rng(1);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.program(v, rng));
    v = (v + 37) & 255;
  }
}
BENCHMARK(BM_WeightProgram)->Arg(1)->Arg(2);

/// One programming cycle of a 128x128 MLC2 array (32 weights of 4 cells
/// per row): the cell values WeightProgrammer::program_cells draws, laid
/// out row-major as Crossbar::program_values takes them.
std::vector<double> draw_array_values(Rng& rng, int ctw_stride) {
  rram::WeightProgrammer prog({rram::CellKind::MLC2, 200.0}, 8, {0.5, 0.0});
  std::vector<double> values;
  values.reserve(128 * 128);
  for (int i = 0; i < 128 * 32; ++i) {
    for (double c : prog.program_cells((i * ctw_stride) & 255, rng)) {
      values.push_back(c);
    }
  }
  return values;
}

void BM_CrossbarProgram(benchmark::State& state) {
  rram::CrossbarConfig cfg;
  cfg.cell = {rram::CellKind::MLC2, 200.0};
  rram::Crossbar xb(cfg);
  Rng rng(2);
  const std::vector<double> values = draw_array_values(rng, 37);
  for (auto _ : state) {
    xb.program_values(values);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_CrossbarProgram);

void BM_CrossbarVmm(benchmark::State& state) {
  rram::CrossbarConfig cfg;
  cfg.cell = {rram::CellKind::MLC2, 200.0};
  cfg.active_wordlines = static_cast<int>(state.range(0));
  rram::Crossbar xb(cfg);
  Rng rng(3);
  xb.program_values(draw_array_values(rng, 7));
  std::vector<double> x(128);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.vmm(x));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_CrossbarVmm)->Arg(16)->Arg(128);

void BM_LutBuild(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rram::RLut::build(prog, k, 8, Rng(4)));
  }
}
BENCHMARK(BM_LutBuild)->Arg(4)->Arg(16);

// Arg: group size m. The weight range is derived from the LUT bit-width,
// not hardcoded, so changing the programmer's bits keeps the bench honest.
void BM_VawoSolveGroup(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const rram::RLut lut = rram::RLut::build_analytic(prog);
  const int levels = lut.max_weight();
  const int m = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<int> ntw;
  std::vector<double> g2;
  for (int i = 0; i < m; ++i) {
    ntw.push_back(static_cast<int>(rng.uniform_int(0, levels)));
    const double g = rng.uniform(0.01, 1.0);
    g2.push_back(g * g);
  }
  core::VawoOptions opt;
  opt.use_complement = true;
  const core::VawoTable table =
      core::VawoTable::build(lut, levels, opt.offsets, opt.penalize_bias);
  for (auto _ : state) {
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    benchmark::DoNotOptimize(core::vawo_solve_group(
        ntw, g2, table, opt.use_complement, b, comp, ctw));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_VawoSolveGroup)->Arg(16)->Arg(64)->Arg(128);

// Full-layer solve, where the deploy-time cost is actually paid
// (`deploy:vawo_solve`). Arg: group size m.
void BM_VawoLayer(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const rram::RLut lut = rram::RLut::build_analytic(prog);
  const std::int64_t rows = 256, cols = 64;
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  lq.q.resize(static_cast<std::size_t>(rows * cols));
  std::vector<double> grads(lq.q.size());
  Rng rng(9);
  for (std::size_t i = 0; i < lq.q.size(); ++i) {
    lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
    grads[i] = rng.uniform(0.0, 1.0);
  }
  core::VawoOptions opt;
  opt.use_complement = true;
  opt.offsets.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::vawo_layer(lq, grads, lut, opt));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_VawoLayer)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

// Args: {matrix size, pool threads}. The thread sweep is the speedup
// table recorded in EXPERIMENTS.md; results are bit-identical across the
// sweep (asserted in tests/test_parallel.cpp).
void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  nn::set_thread_count(static_cast<int>(state.range(1)));
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)), c(static_cast<std::size_t>(n * n));
  Rng rng(6);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
  nn::set_thread_count(0);
}
BENCHMARK(BM_Gemm)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4});

void BM_GemmAtB(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  nn::set_thread_count(static_cast<int>(state.range(1)));
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)),
      c(static_cast<std::size_t>(n * n), 0.0f);
  Rng rng(8);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm_at_b_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
  nn::set_thread_count(0);
}
BENCHMARK(BM_GemmAtB)->Args({256, 1})->Args({256, 4});

// Dispatch overhead of one parallel_for over a trivial body: the floor
// under which kernels should not bother going parallel.
void BM_ParallelForDispatch(benchmark::State& state) {
  nn::set_thread_count(static_cast<int>(state.range(0)));
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    nn::parallel_for(1024, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  nn::set_thread_count(0);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(4);

// Conv2D on the scaled ResNet's stage-1 shape (8 -> 8 channels, 3x3,
// 32x32, batch 32). Arg: pool threads. Items are flops at 2 per MAC —
// BM_Gemm's convention — so items/s reads as FLOP/s against BM_Gemm.
constexpr std::int64_t kConvBatch = 32, kConvCh = 8, kConvHw = 32;
constexpr std::int64_t kConvMacs =
    kConvBatch * kConvCh * kConvHw * kConvHw * kConvCh * 3 * 3;

nn::Tensor conv_input(Rng& rng) {
  nn::Tensor x({kConvBatch, kConvCh, kConvHw, kConvHw});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = std::max(0.0f, static_cast<float>(rng.uniform(-1, 1)));  // ReLU
  }
  return x;
}

void BM_Conv2DForward(benchmark::State& state) {
  nn::set_thread_count(static_cast<int>(state.range(0)));
  Rng rng(7);
  nn::Conv2D conv(kConvCh, kConvCh, 3, 1, 1, rng, /*bias=*/false);
  const nn::Tensor x = conv_input(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kConvMacs);
  nn::set_thread_count(0);
}
BENCHMARK(BM_Conv2DForward)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// dX and dW: twice the forward MACs.
void BM_Conv2DBackward(benchmark::State& state) {
  nn::set_thread_count(static_cast<int>(state.range(0)));
  Rng rng(9);
  nn::Conv2D conv(kConvCh, kConvCh, 3, 1, 1, rng, /*bias=*/false);
  const nn::Tensor y = conv.forward(conv_input(rng), false);
  nn::Tensor g(y.shape());  // ReLU-masked upstream gradient
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g[i] = rng.uniform(0, 1) < 0.5 ? 0.0f
                                   : static_cast<float>(rng.uniform(-1, 1));
  }
  for (auto _ : state) {
    conv.weight_param().zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 2 * kConvMacs);
  nn::set_thread_count(0);
}
BENCHMARK(BM_Conv2DBackward)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
