// Scenario: deploy a trained LeNet classifier onto an RRAM accelerator.
//
// The full production flow a user of this library would run:
//   1. train LeNet in float                      (rdo::nn / rdo::models)
//   2. characterize the device (build the E[R(v)]/Var[R(v)] LUT —
//      done internally by core::compile_plan from the variation model)
//   3. deploy with VAWO* + PWT on SLC crossbars   (rdo::core)
//   4. report accuracy across the variation sweep, device reading power,
//      crossbar count and the ISAAC tile overhead  (rdo::arch)
#include <cstdio>

#include "arch/isaac_cost.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/trainer.h"

using namespace rdo;

int main() {
  // 1. Data + training.
  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = 60;
  spec.test_per_class = 20;
  const data::SyntheticDataset ds = data::make_synthetic(spec);

  nn::Rng rng(7);
  auto net = models::make_lenet({}, rng);
  nn::SGD opt(net->params(), 0.02f, 0.9f, 1e-4f);
  for (int e = 0; e < 10; ++e) {
    const auto st = nn::train_epoch(*net, opt, ds.train(), 32, rng);
    if (e % 3 == 0) {
      std::printf("train epoch %d: loss %.3f acc %.3f\n", e, st.loss,
                  st.accuracy);
    }
  }
  const float ideal = nn::evaluate(*net, ds.test(), 64).accuracy;
  std::printf("\nideal accuracy: %.2f%%\n", 100 * ideal);

  // 2+3. Deploy across the variation sweep. Each configuration compiles
  // once into a shared DeploymentPlan; the programming-cycle trials are
  // Monte-Carlo repeats (each cycle's devices are seeded from
  // Rng::split(trial)) running in parallel on private backend clones of
  // the trained network — results are bit-identical for any RDO_THREADS.
  std::printf("\ndeploying with %d threads (RDO_THREADS to override)\n",
              nn::thread_count());
  std::printf("\n%-8s %-10s %-12s\n", "sigma", "plain", "VAWO*+PWT");
  for (double sigma : {0.2, 0.3, 0.5}) {
    core::DeployOptions base;
    base.offsets.m = 16;
    base.cell = {rram::CellKind::SLC, 200.0};
    base.variation.sigma = sigma;
    base.seed = 11;

    core::DeployOptions plain = base;
    plain.scheme = core::Scheme::Plain;
    core::DeployOptions full = base;
    full.scheme = core::Scheme::VAWOStarPWT;

    const float a_plain =
        core::run_scheme(*net, plain, ds.train(), ds.test(), 2).mean_accuracy;
    const float a_full =
        core::run_scheme(*net, full, ds.train(), ds.test(), 2).mean_accuracy;
    std::printf("%-8.1f %8.2f%% %10.2f%%\n", sigma, 100 * a_plain,
                100 * a_full);
  }

  // 4. Hardware accounting for the deployed configuration, read off a
  // compiled plan (the trained network is never modified).
  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStar;
  o.offsets.m = 16;
  o.cell = {rram::CellKind::MLC2, 200.0};  // ISAAC stores 2 bits/cell
  o.variation.sigma = 0.5;
  const core::DeploymentPlan plan = core::compile_plan(*net, o, ds.train());
  const double ratio = plan.assigned_read_power() / plan.plain_read_power();
  std::printf("\ncrossbars (128x128, 2-bit MLC): %lld\n",
              static_cast<long long>(plan.total_crossbars()));
  std::printf("offset registers (Eq. 9): %lld\n",
              static_cast<long long>(plan.total_offset_registers()));
  std::printf("device reading power vs plain: %.1f%%\n", 100 * ratio);
  const arch::TileOverhead ov = arch::tile_overhead(16, 8, ratio);
  std::printf("ISAAC tile overhead: +%.3f mm^2 (%.1f%%), %+.2f mW (%.1f%%)\n",
              ov.area_mm2, ov.area_pct, ov.power_mw, ov.power_pct);
  return 0;
}
