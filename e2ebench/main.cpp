/// \file main.cpp
/// posetrl_bench: the end-to-end benchmark (README.md).
///
///   posetrl_bench --workload train|compile|serve|serve-online --seed N
///                 --seconds S [--trace 0|1] [--trace-file PATH]
///                 [--state-dir DIR] [--smoke]
///
/// --smoke shrinks every phase to a few operations and needs no --seconds.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
/// traced run (--trace 1). Human-readable lines go to standard error. The
/// exit code is 0 only when every output check passed.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: posetrl_bench --workload train|compile|serve|"
               "serve-online --seed N\n"
               "                     --seconds S [--trace 0|1] "
               "[--trace-file PATH]\n"
               "                     [--state-dir DIR] [--smoke]\n");
  return 2;
}

bool parseUnsigned(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-' || errno == ERANGE) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed" && parseUnsigned(v, n)) {
      o.seed = n;
    } else if (a == "--seconds" && parseUnsigned(v, n) && n > 0 && n <= 3600) {
      o.seconds = static_cast<double>(n);
    } else if (a == "--trace" && parseUnsigned(v, n) && n <= 1) {
      o.trace = n == 1;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else if (a == "--state-dir") {
      o.state_dir = v;
    } else {
      return usage();
    }
  }
  if (o.smoke) o.seconds = 1.0;
  if (o.seconds <= 0.0) return usage();

  e2e::RunResult r;
  try {
    if (o.workload == "train") {
      r = e2e::runTrain(o);
    } else if (o.workload == "compile") {
      r = e2e::runCompile(o);
    } else if (o.workload == "serve") {
      r = e2e::runServe(o, /*online=*/false);
    } else if (o.workload == "serve-online") {
      r = e2e::runServe(o, /*online=*/true);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "posetrl_bench: %s\n", e.what());
    return 1;
  }

  bool finite = true;
  std::string metrics;
  for (const e2e::Metrics::Entry& m : r.metrics.entries()) {
    std::fprintf(stderr, "%-32s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (!std::isfinite(m.value)) {
      finite = false;
      std::fprintf(stderr, "posetrl_bench: metric %s is not finite\n",
                   m.name.c_str());
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = r.failed == 0 && finite && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
