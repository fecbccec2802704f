// Table I: relative total device reading power of VAWO* vs. the plain
// scheme.
//
// Paper reference:
//   LeNet + MNIST:     m=16 68.87%,  m=128 79.95%
//   ResNet + CIFAR-10: m=16 57.61%,  m=128 72.24%
// Shape: VAWO* < 100% (lower CTWs -> more devices in high-resistance
// states), finer m saves more, ResNet saves more than LeNet.
#include <cstdio>
#include <limits>
#include <string>

#include "common.h"
#include "core/plan.h"

using namespace rdo;
using namespace rdo::bench;

namespace {

double ratio_for(const rdo::nn::Sequential& net,
                 const data::SyntheticDataset& ds, int m) {
  auto o = bench_options(core::Scheme::VAWOStar, m, rram::CellKind::MLC2,
                         0.5);
  const core::DeploymentPlan plan = core::compile_plan(net, o, ds.train());
  return plan.assigned_read_power() / plan.plain_read_power();
}

}  // namespace

int main() {
  obs::BenchReport rep("table1_reading_power", 2021);

  const data::SyntheticDataset mnist = bench_mnist();
  const data::SyntheticDataset cifar = bench_cifar();
  std::unique_ptr<nn::Sequential> lenet, resnet;
  {
    obs::TraceSpan t("train_models", "harness", rep.metrics());
    lenet = cached_lenet(mnist, nullptr);
    resnet = cached_resnet(cifar, nullptr);
  }

  // One measurement per (workload, m) cell; a throwing cell is recorded
  // as a failure (NaN row) instead of aborting the table.
  auto measure = [&](const char* tag, rdo::nn::Sequential& net,
                     const data::SyntheticDataset& ds, int m) {
    obs::TraceSpan t("power_analysis", "harness", rep.metrics());
    const std::string label = std::string(tag) + "/m" + std::to_string(m);
    try {
      const double r = ratio_for(net, ds, m);
      record_measurement(rep, label, r);
      return r;
    } catch (const std::exception& e) {
      rep.add_failure(label, e.what());
      return std::numeric_limits<double>::quiet_NaN();
    }
  };

  std::printf("=== Table I: relative reading power, VAWO* / plain ===\n\n");
  std::printf("%-22s %8s %8s   (paper)\n", "workload", "m=16", "m=128");
  std::printf("%-22s %7.2f%% %7.2f%%   (68.87%% / 79.95%%)\n",
              "LeNet + MNIST-like", 100 * measure("lenet", *lenet, mnist, 16),
              100 * measure("lenet", *lenet, mnist, 128));
  std::printf("%-22s %7.2f%% %7.2f%%   (57.61%% / 72.24%%)\n",
              "ResNet + CIFAR-like",
              100 * measure("resnet", *resnet, cifar, 16),
              100 * measure("resnet", *resnet, cifar, 128));
  std::printf(
      "\nexpected shape: all < 100%%; m=16 saves more than m=128.\n");
  return finish_report(rep);
}
