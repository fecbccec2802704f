#include "core/deploy.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <stdexcept>

#include "core/backend.h"
#include "core/check.h"
#include "core/plan.h"
#include "nn/parallel.h"
#include "obs/stopwatch.h"

namespace rdo::core {

void DeployStats::merge(const DeployStats& other) {
  lut_build_s += other.lut_build_s;
  prepare_s += other.prepare_s;
  vawo_solve_s += other.vawo_solve_s;
  program_s += other.program_s;
  tune_s += other.tune_s;
  eval_latency.merge(other.eval_latency);
  lut_cache_hits += other.lut_cache_hits;
  lut_cache_misses += other.lut_cache_misses;
  lut_cache_save_failures += other.lut_cache_save_failures;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  plan_cache_save_failures += other.plan_cache_save_failures;
  cycles += other.cycles;
  weights_programmed += other.weights_programmed;
  device_pulses += other.device_pulses;
  pwt_epochs += other.pwt_epochs;
  pwt_batches += other.pwt_batches;
  pwt_offset_updates += other.pwt_offset_updates;
  pwt_epoch_loss.insert(pwt_epoch_loss.end(), other.pwt_epoch_loss.begin(),
                        other.pwt_epoch_loss.end());
  eval_accuracy.insert(eval_accuracy.end(), other.eval_accuracy.begin(),
                       other.eval_accuracy.end());
}

rdo::obs::Json deploy_stats_json(const DeployStats& s) {
  rdo::obs::Json j = rdo::obs::Json::object();
  j["cycles"] = s.cycles;
  j["weights_programmed"] = s.weights_programmed;
  j["device_pulses"] = s.device_pulses;
  j["pwt_epochs"] = s.pwt_epochs;
  j["pwt_batches"] = s.pwt_batches;
  j["pwt_offset_updates"] = s.pwt_offset_updates;
  rdo::obs::Json losses = rdo::obs::Json::array();
  for (float l : s.pwt_epoch_loss) losses.push_back(static_cast<double>(l));
  j["pwt_epoch_loss"] = std::move(losses);
  rdo::obs::Json accs = rdo::obs::Json::array();
  for (float a : s.eval_accuracy) accs.push_back(static_cast<double>(a));
  j["eval_accuracy"] = std::move(accs);
  return j;
}

void add_deploy_phase_times(rdo::obs::MetricsRegistry& metrics,
                            const DeployStats& s) {
  metrics.histogram("deploy:lut_build").observe(s.lut_build_s);
  metrics.histogram("deploy:prepare").observe(s.prepare_s);
  metrics.histogram("deploy:vawo_solve").observe(s.vawo_solve_s);
  metrics.histogram("deploy:program").observe(s.program_s);
  metrics.histogram("deploy:tune").observe(s.tune_s);
  metrics.histogram("deploy:evaluate").merge(s.eval_latency);
}

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::Plain: return "plain";
    case Scheme::VAWO: return "VAWO";
    case Scheme::VAWOStar: return "VAWO*";
    case Scheme::PWT: return "PWT";
    case Scheme::VAWOStarPWT: return "VAWO*+PWT";
  }
  return "?";
}

std::optional<Scheme> parse_scheme(std::string_view s) {
  std::string low(s);
  std::transform(low.begin(), low.end(), low.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (low == "plain") return Scheme::Plain;
  if (low == "vawo") return Scheme::VAWO;
  if (low == "vawo*") return Scheme::VAWOStar;
  if (low == "pwt") return Scheme::PWT;
  if (low == "vawo*+pwt") return Scheme::VAWOStarPWT;
  return std::nullopt;
}

namespace {

// Grain of a run_grid task loop. Tasks fan out over the pool when they
// fill more than half of its threads: whole trials side by side then beat
// each trial's pool-wide inner loops, which scale sublinearly. Fewer tasks
// run one after another on the caller, so their own parallel loops (VAWO
// compile, PWT, evaluate) keep the whole pool instead of running inline.
// On 4 threads, 3 trials fanned out take ~0.7x the serial time and 2 tie
// (EXPERIMENTS.md "Trial harness"). Results are bit-identical either way.
std::int64_t task_grain(std::int64_t tasks) {
  return 2 * tasks <= rdo::nn::thread_count() ? tasks : 1;
}

}  // namespace

std::vector<SchemeResult> run_grid(const rdo::nn::Layer& net,
                                   const std::vector<DeployOptions>& points,
                                   const rdo::nn::DataView& train,
                                   const rdo::nn::DataView& test,
                                   int repeats) {
  RDO_CHECK(repeats >= 1,
            "run_grid: repeats = " + std::to_string(repeats) + " < 1");
  const auto npoints = static_cast<std::int64_t>(points.size());
  const auto nrep = static_cast<std::size_t>(repeats);
  std::vector<SchemeResult> results(points.size());
  for (SchemeResult& r : results) {
    r.per_cycle.assign(nrep, 0.0f);
    r.trial_seconds.assign(nrep, 0.0);
    r.errors.assign(nrep, "");
  }
  // Compile every point once; all of the point's trials share the plan.
  // A throwing compile is recorded into each of that point's trial slots:
  // one bad point must not discard the rest of the grid.
  std::vector<std::unique_ptr<DeploymentPlan>> plans(points.size());
  std::vector<std::string> compile_errors(points.size());
  rdo::nn::parallel_for(npoints, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      try {
        plans[pi] = std::make_unique<DeploymentPlan>(
            compile_plan(net, points[pi], train));
      } catch (const std::exception& e) {
        compile_errors[pi] = e.what();
      } catch (...) {
        compile_errors[pi] = "unknown exception";
      }
    }
  }, task_grain(npoints));
  // One task per (point, trial): finer than per-point tasks, so a grid
  // with fewer repeats than cores still fills the pool. A throwing trial
  // is recorded, not propagated.
  const std::int64_t ntasks = npoints * repeats;
  std::vector<DeployStats> trial_stats(points.size() * nrep);
  rdo::nn::parallel_for(ntasks, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const auto pi = static_cast<std::size_t>(t / repeats);
      const auto ti = static_cast<std::size_t>(t % repeats);
      SchemeResult& r = results[pi];
      if (plans[pi] == nullptr) {
        r.errors[ti] = compile_errors[pi];
        continue;
      }
      rdo::obs::Stopwatch watch;
      try {
        EffectiveWeightBackend backend(*plans[pi], net);
        backend.program_cycle(ti);
        backend.tune(train);
        r.per_cycle[ti] = backend.evaluate(test);
        DeployStats& s = trial_stats[static_cast<std::size_t>(t)];
        s = backend.stats();
        s.eval_accuracy.push_back(r.per_cycle[ti]);
      } catch (const std::exception& e) {
        r.errors[ti] = e.what();
      } catch (...) {
        r.errors[ti] = "unknown exception";
      }
      r.trial_seconds[ti] = watch.seconds();
    }
  }, task_grain(ntasks));
  // Merge in (compile, trial...) order outside the parallel region so
  // the aggregated counters and traces are thread-count independent.
  for (std::size_t pi = 0; pi < results.size(); ++pi) {
    SchemeResult& r = results[pi];
    if (plans[pi] != nullptr) r.stats = plans[pi]->compile_stats;
    double total = 0.0;
    for (std::size_t ti = 0; ti < nrep; ++ti) {
      r.stats.merge(trial_stats[pi * nrep + ti]);
      total += r.per_cycle[ti];
    }
    r.mean_accuracy = static_cast<float>(total / repeats);
  }
  return results;
}

SchemeResult run_scheme(const rdo::nn::Layer& net, const DeployOptions& opt,
                        const rdo::nn::DataView& train,
                        const rdo::nn::DataView& test, int repeats) {
  SchemeResult res = std::move(run_grid(net, {opt}, train, test, repeats)[0]);
  for (const std::string& e : res.errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return res;
}

}  // namespace rdo::core
