// Device-level execution backend over a compiled DeploymentPlan.
//
// Runs a trained network (Sequential of Flatten / Dense / Conv2D / ReLU /
// MaxPool2D / ActQuant — i.e. LeNet-class CNNs and MLPs)
// entirely on simulated crossbars: every Dense/Conv2D layer is tiled onto
// Crossbar arrays and executed via CrossbarLayerExecutor (convolutions
// are lowered to one VMM per output position, exactly how ISAAC drives
// them); ReLU, max-pooling, activation quantization and biases run
// digitally, as in the real accelerator.
//
// The backend consumes the same DeploymentPlan as the fast
// core::EffectiveWeightBackend and supports the plan's full scheme matrix
// including gradient PWT: it embeds an effective-weight engine (which is
// numerically equivalent with an ideal ADC — a property the parity suite
// asserts) to run PWT and to draw each cycle's per-cell conductances.
// Device variation is drawn only there, by WeightProgrammer::program_cells;
// program_cycle() programs exactly those cell values into the simulated
// crossbars, and every stage reads its plan layer and the engine's
// working offsets in place, so there is one copy of each. Deterministic
// DeployStats counters are therefore bit-identical across backends; only
// the ADC model and floating-point summation order can move the reported
// accuracy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend.h"
#include "core/plan.h"
#include "obs/histogram.h"
#include "sim/crossbar_executor.h"

namespace rdo::sim {

/// Device geometry of the simulated substrate. Everything else — cell
/// model, variation, weight bits, offset geometry, LUT protocol, seed —
/// comes from the shared DeploymentPlan so the two backends cannot drift.
struct DeviceSimOptions {
  int xbar_rows = 128;
  int xbar_cols = 128;
  int active_wordlines = 16;  ///< wordlines driven per read cycle
  int adc_bits = 0;           ///< 0 = ideal ADC
  /// Device-level evaluation is slow (one VMM per conv output position);
  /// 0 = the full test set, otherwise evaluate() stops after this many
  /// samples.
  std::int64_t eval_max_samples = 0;
};

class DeviceSimBackend : public rdo::core::ExecutionBackend {
 public:
  /// `plan` must outlive the backend; `src` is cloned internally (via the
  /// embedded effective-weight engine) and never modified. Throws
  /// std::invalid_argument for network layers that cannot run at device
  /// level or when the network does not match the plan.
  DeviceSimBackend(const rdo::core::DeploymentPlan& plan,
                   const rdo::nn::Layer& src, DeviceSimOptions dopt = {});

  /// One CCV cycle: draws every weight's cell conductances from the
  /// plan's seeded stream and programs them into the simulated crossbars.
  void program_cycle(std::uint64_t cycle_salt) override;
  /// PWT on the cycle's measured conductances (runs the gradient loop on
  /// the numerically-equivalent effective-weight twin, whose tuned
  /// offsets the digital offset units read).
  void tune(const rdo::nn::DataView& train) override;
  /// Device-level test accuracy. Images classify in parallel across the
  /// nn/parallel.h pool; bit-identical for any thread count.
  float evaluate(const rdo::nn::DataView& test,
                 std::int64_t batch = 64) override;
  [[nodiscard]] const rdo::core::DeployStats& stats() const override;
  [[nodiscard]] const char* name() const override { return "device-sim"; }

  /// Device-level logits for one flat sample (MLPs; no conv stages).
  /// Like evaluate(), throws until program_cycle() has run.
  [[nodiscard]] std::vector<double> forward(
      const std::vector<double>& x) const;
  /// Device-level logits for one image of the given shape (CNNs).
  /// Thread-safe: const, and every stage reads only state frozen since
  /// the last program_cycle()/tune(). Throws until program_cycle() has
  /// run.
  [[nodiscard]] std::vector<double> forward_image(
      const std::vector<double>& x, int channels, int height,
      int width) const;

  [[nodiscard]] std::int64_t crossbar_count() const;
  [[nodiscard]] std::size_t layer_count() const { return stages_.size(); }

 private:
  struct Stage {
    enum class Kind { Crossbar, Conv, ReLU, MaxPool, ActQuant } kind =
        Kind::ReLU;
    std::unique_ptr<CrossbarLayerExecutor> exec;  // Crossbar/Conv stages
    std::size_t plan_index = 0;       ///< into plan.layers (exec stages)
    std::vector<float> bias;          ///< digital bias add after the xbar
    rdo::quant::ActQuant* aq = nullptr;  ///< ActQuant stages (twin-owned)
    int kernel = 0, stride = 1, pad = 0;  // Conv stages
    int pool_window = 2;                  // MaxPool stages
  };

  rdo::core::EffectiveWeightBackend engine_;  ///< draws cells, owns offsets
  const rdo::core::DeploymentPlan& plan_;
  DeviceSimOptions dopt_;
  std::vector<Stage> stages_;
  rdo::obs::LatencyHistogram eval_latency_;  ///< device-side evaluate()
  mutable rdo::core::DeployStats merged_;    ///< engine + eval, see stats()
  bool deployed_ = false;

  [[nodiscard]] float device_accuracy(const rdo::nn::DataView& test,
                                      std::int64_t max_samples) const;
};

}  // namespace rdo::sim
