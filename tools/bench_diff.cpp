// bench_diff — the BENCH trajectory regression gate.
//
//   bench_diff [options] <baseline.json> <current.json>
//
// Compares the deterministic sections (counters, gauges, results,
// failures) of two BENCH_*.json documents; timings, pool stats and
// histograms are reported informationally only. See obs/diff.h for the
// tolerance model. CI runs this against the committed baseline under
// bench/baselines/ to gate every PR.
//
// Options:
//   --abs-tol X          absolute tolerance for gauge/result numbers
//   --rel-tol X          relative tolerance for gauge/result numbers
//   --counter-rel-tol X  relative tolerance for counters (default exact)
//
// Exit codes:
//   0  deterministic sections match within tolerance
//   1  regression: at least one divergence beyond tolerance
//   2  usage error
//   3  a file could not be read or is not valid JSON
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/diff.h"
#include "obs/json.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--abs-tol X] [--rel-tol X] "
               "[--counter-rel-tol X] <baseline.json> <current.json>\n");
  return 2;
}

bool parse_tol(const char* flag, const char* value, double* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "bench_diff: %s needs a value\n", flag);
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v >= 0.0)) {
    std::fprintf(stderr, "bench_diff: bad value for %s: %s\n", flag, value);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rdo::obs::DiffOptions opt;
  std::string paths[2];
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--abs-tol") == 0) {
      if (!parse_tol(arg, i + 1 < argc ? argv[++i] : nullptr,
                     &opt.abs_tol)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--rel-tol") == 0) {
      if (!parse_tol(arg, i + 1 < argc ? argv[++i] : nullptr,
                     &opt.rel_tol)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--counter-rel-tol") == 0) {
      if (!parse_tol(arg, i + 1 < argc ? argv[++i] : nullptr,
                     &opt.counter_rel_tol)) {
        return 2;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg);
      return usage();
    } else if (npaths < 2) {
      paths[npaths++] = arg;
    } else {
      return usage();
    }
  }
  if (npaths != 2) return usage();

  rdo::obs::Json baseline;
  rdo::obs::Json current;
  try {
    baseline = rdo::obs::read_json_file(paths[0]);
    current = rdo::obs::read_json_file(paths[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 3;
  }

  const rdo::obs::DiffReport report =
      rdo::obs::diff_bench_documents(baseline, current, opt);
  for (const std::string& line : report.infos) {
    std::printf("info: %s\n", line.c_str());
  }
  for (const std::string& line : report.regressions) {
    std::printf("REGRESSION: %s\n", line.c_str());
  }
  if (!report.ok()) {
    std::printf("bench_diff: %zu regression(s) vs %s\n",
                report.regressions.size(), paths[0].c_str());
    return 1;
  }
  std::printf("bench_diff: deterministic sections match (%zu tolerated "
              "drift(s))\n",
              report.tolerated);
  return 0;
}
