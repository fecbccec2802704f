// End-to-end deployment of a trained network onto variation-afflicted
// RRAM crossbars, with the paper's full scheme matrix:
//
//   Plain        CTW = NTW, no offsets            (baseline, §IV "plain")
//   VAWO         variation-aware CTWs + offsets   (§III-B)
//   VAWOStar     VAWO + weight complement         (§III-C, "VAWO*")
//   PWT          plain CTWs, offsets trained post-writing (§III-D)
//   VAWOStarPWT  VAWO* then PWT                   (§IV-A3, the full method)
//
// The pipeline is split into a compile stage and an execution stage:
// compile_plan() (core/plan.h) runs everything scheme-dependent but
// backend-independent once, and an ExecutionBackend (core/backend.h,
// sim/device_backend.h) realizes programming cycles from the shared
// plan:  compile_plan (once)  ->  program_cycle  ->  tune  ->  evaluate.
// CCV means every cycle lands different CRWs; cycles are independent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/offset.h"
#include "nn/layer.h"
#include "nn/trainer.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rram/cell.h"
#include "rram/faults.h"
#include "rram/variation.h"

namespace rdo::core {

enum class Scheme { Plain, VAWO, VAWOStar, PWT, VAWOStarPWT };

const char* to_string(Scheme s);
/// Inverse of to_string(Scheme): accepts the canonical display names
/// ("plain", "VAWO", "VAWO*", "PWT", "VAWO*+PWT") case-insensitively, so
/// the lowercase command-line spellings parse too. Returns nullopt for
/// anything else.
std::optional<Scheme> parse_scheme(std::string_view s);
inline bool scheme_uses_vawo(Scheme s) {
  return s == Scheme::VAWO || s == Scheme::VAWOStar ||
         s == Scheme::VAWOStarPWT;
}
inline bool scheme_uses_complement(Scheme s) {
  return s == Scheme::VAWOStar || s == Scheme::VAWOStarPWT;
}
inline bool scheme_uses_pwt(Scheme s) {
  return s == Scheme::PWT || s == Scheme::VAWOStarPWT;
}

struct PwtOptions {
  int epochs = 2;
  /// Base step size in integer-offset units; gradients are RMS-normalized
  /// per layer each batch, so this is roughly "offset units moved per
  /// batch" (the practical choice of the paper's learning rate eta).
  float lr = 1.0f;
  std::int64_t batch_size = 32;
  std::int64_t max_samples = 0;  ///< 0 = full training set per epoch
  /// Warm-start each offset at the measured group-mean deviation
  /// mean_i(NTW_i - CRW_i) before gradient tuning. Pure posteriori
  /// knowledge (the same measurement PWT already requires) and the
  /// closed-form minimizer of the per-group weight MSE; backprop then
  /// refines it loss-aware. Disable for the strict gradient-only variant.
  bool mean_init = true;
};

/// Knobs of the shared compile/execute pipeline that every deployment
/// path consumes — the single source of truth for the LUT protocol, the
/// gradient-estimation budget and the master seed (the device simulator
/// reads them from the plan instead of carrying shadow copies).
struct PipelineConfig {
  /// LUT statistical-testing protocol (K device sets x J cycles per CTW).
  int lut_k_sets = 16;
  int lut_j_cycles = 8;
  /// Samples used to estimate the mean loss gradient for VAWO.
  std::int64_t grad_samples = 256;
  std::int64_t grad_batch = 32;
  std::uint64_t seed = 1;  ///< master seed (LUT build, programming base)
  /// Comma-separated optimizer pass list run over the compiled plan (see
  /// core/opt/pipeline.h; "" = no passes, plans are byte-identical to a
  /// build without the optimizer). Fed by the RDO_OPT_PASSES environment
  /// variable in rdo_experiment and the "opt_passes" serve config key;
  /// covered by plan_fingerprint so on-disk caches key on it.
  std::string opt_passes;
};

struct DeployOptions : PipelineConfig {
  Scheme scheme = Scheme::Plain;
  OffsetConfig offsets;                 ///< m and offset register width
  rdo::rram::CellModel cell;            ///< SLC or MLC2, ON/OFF ratio
  rdo::rram::VariationModel variation;  ///< sigma (and optional DDV split)
  rdo::rram::FaultModel faults;         ///< optional stuck-at-fault rates
  int weight_bits = 8;
  PwtOptions pwt;
  bool quantize_activations = true;
  bool penalize_bias = true;  ///< see VawoOptions
};

/// Per-deployment observability record, accumulated across the
/// compile -> program_cycle -> tune -> evaluate pipeline.
///
/// The struct is split along the determinism boundary of the BENCH_*.json
/// schema (see obs/report.h): wall times are volatile; every counter and
/// trace below them is derived from the seeded computation and is
/// bit-identical for any RDO_THREADS setting — and across execution
/// backends, which is what the parity suite gates.
struct DeployStats {
  // --- volatile wall times (seconds) ---
  double lut_build_s = 0.0;   ///< statistical LUT construction (K x J)
  double prepare_s = 0.0;     ///< quantize + calibrate + gradients + VAWO
  double vawo_solve_s = 0.0;  ///< CTW/offset assignment inside prepare
  double program_s = 0.0;     ///< device programming per cycle
  double tune_s = 0.0;        ///< PWT (warm start + gradient epochs + snap)
  /// One sample per evaluate() call; sum_seconds is the total test-set
  /// evaluation time. Fixed size however many calls a pooled backend
  /// serves. Volatile like the *_s sums above, so it is excluded from
  /// deploy_stats_json().
  rdo::obs::LatencyHistogram eval_latency;

  // --- cache-effectiveness counters (environment-dependent) ---
  // Hit/miss/save-failure counts of the opt-in on-disk caches
  // (RDO_LUT_CACHE_DIR, RDO_PLAN_CACHE_DIR). They depend on the on-disk
  // cache state, not on the seeded computation, so they belong to the
  // volatile half: excluded from deploy_stats_json() and from the
  // deterministic BENCH sections. Reports see them as the
  // deploy_*_cache_* counters of global_metrics() (core/plan.cpp).
  std::int64_t lut_cache_hits = 0;
  std::int64_t lut_cache_misses = 0;
  std::int64_t lut_cache_save_failures = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t plan_cache_misses = 0;
  std::int64_t plan_cache_save_failures = 0;

  // --- deterministic counters and traces ---
  std::int64_t cycles = 0;              ///< program_cycle() calls
  std::int64_t weights_programmed = 0;  ///< CTWs written across all cycles
  std::int64_t device_pulses = 0;       ///< per-cell programming pulses
  std::int64_t pwt_epochs = 0;
  std::int64_t pwt_batches = 0;
  std::int64_t pwt_offset_updates = 0;  ///< nonzero offset moves applied
  std::vector<float> pwt_epoch_loss;    ///< mean train loss per PWT epoch
  /// Per-cycle accuracies, written by the run_grid harness (one entry
  /// per trial). Backends leave it empty, so a pooled backend's record
  /// stays fixed-size however many evaluate() calls it serves.
  std::vector<float> eval_accuracy;

  /// Accumulate `other` into this record: times and counters add,
  /// traces append in call order. Used to fold per-trial stats into a
  /// per-point record deterministically (trials merge in trial order).
  void merge(const DeployStats& other);
};

/// Deterministic portion of a DeployStats as a JSON object (counters
/// and traces only — wall times are intentionally excluded so the
/// result can live in the deterministic `results` section).
[[nodiscard]] rdo::obs::Json deploy_stats_json(const DeployStats& s);

/// Fold the volatile wall times into the registry's "deploy:*" phase
/// histograms: one sample per call for each *_s sum, and the evaluate()
/// latencies merged whole into "deploy:evaluate".
void add_deploy_phase_times(rdo::obs::MetricsRegistry& metrics,
                            const DeployStats& s);

/// Result of running one scheme over several programming cycles.
struct SchemeResult {
  float mean_accuracy = 0.0f;
  std::vector<float> per_cycle;
  /// Wall time of each program/tune/evaluate trial (latency samples;
  /// volatile, slot order matches per_cycle for any thread count).
  std::vector<double> trial_seconds;
  /// Pipeline stats: the shared compile stage folded together with the
  /// independent trials in trial order. `eval_accuracy` is the per-cycle
  /// record: one entry per successful trial, in trial order.
  DeployStats stats;
  /// One entry per trial: empty string when the trial succeeded, the
  /// exception message otherwise (run_grid records failures instead of
  /// aborting the whole grid).
  std::vector<std::string> errors;
};

/// The Monte-Carlo trial harness. Each grid point is compiled once into
/// a DeploymentPlan that its trials share read-only; then every
/// (point, trial) pair runs as one task over the nn/parallel.h pool
/// (RDO_THREADS) — or, when the tasks would fill at most half the pool,
/// one after another so each task's inner loops use the pool — on a fresh
/// EffectiveWeightBackend over a private clone
/// of `net` (which is only read). Trial t programs cycle t; each cycle's
/// devices come from Rng(seed).split(cycle)-derived streams and trials
/// share no mutable state, so every result is bit-identical for any
/// thread count. Stats merge in (compile, trial 0, trial 1, ...) order,
/// with each successful trial's accuracy appended to eval_accuracy.
///
/// A throwing compile or trial does not abort the grid: its accuracy
/// stays 0 and the exception message lands in results[i].errors[trial]
/// (a compile error in every trial slot of its point). `repeats` must
/// be >= 1.
std::vector<SchemeResult> run_grid(const rdo::nn::Layer& net,
                                   const std::vector<DeployOptions>& points,
                                   const rdo::nn::DataView& train,
                                   const rdo::nn::DataView& test,
                                   int repeats);

/// run_grid over the single point `opt`. Rethrows the first recorded
/// error as std::runtime_error with the same message.
SchemeResult run_scheme(const rdo::nn::Layer& net, const DeployOptions& opt,
                        const rdo::nn::DataView& train,
                        const rdo::nn::DataView& test, int repeats);

}  // namespace rdo::core
