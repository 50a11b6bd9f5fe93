#pragma once

/// \file bench.h
/// Shared pieces of the end-to-end benchmark (README.md): run options, the
/// metric list a run prints, the seeded inputs every workload draws from,
/// the reference agent, and the output checker.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/oz_sequence.h"
#include "core/trainer.h"
#include "rl/dqn.h"
#include "workloads/generator.h"

namespace posetrl {
class Module;
}

namespace e2e {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double msBetween(Clock::time_point a, Clock::time_point b);

/// Median of \p v (0 for an empty sample).
double median(std::vector<double> v);
/// p-th percentile by linear interpolation (support/stats.h).
double pct(const std::vector<double>& v, double p);
/// Operations per second, robust to short stalls of the machine: \p gaps
/// (seconds each operation took, in order) are cut into consecutive windows
/// of at least \p window_s; returns the median of the windows' rates.
double medianWindowRate(const std::vector<double>& gaps, double window_s);
double geomean(const std::vector<double>& v);
/// Peak resident set of this process so far, in MiB. Children are not
/// counted.
double peakRssMb();
/// User + system CPU seconds this process has used so far.
double cpuSeconds();

/// FNV-1a hash of \p n bytes, chained from \p h.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 14695981039346656037ull);

/// Runs \p work in a forked child process and copies the text it returns
/// into \p out (NUL-terminated, truncated to \p cap - 1 bytes). The child
/// starts from this process's exact state, and this side allocates nothing,
/// so back-to-back calls do bit-identical work even though the program's
/// results depend on allocation history (README "Findings"). Call only
/// while this process runs a single thread. Throws when the child fails.
void inChild(const std::function<std::string()>& work, char* out,
             std::size_t cap);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase (required; BENCHMARK.json's run_seconds).
  double seconds = 0.0;
  bool trace = false;
  /// Chrome trace-event JSON written at exit by traced runs (optional).
  std::string trace_file;
  /// Holds the cached reference agent and the online learner's per-run
  /// state directories.
  std::string state_dir = ".";
  /// Shrinks every phase to a few operations (the ctest smoke test).
  bool smoke = false;
};

/// Name -> (value, unit) in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one.
struct RunResult {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Records one failed operation with its reason on stderr.
  void fail(const std::string& why);
};

// --- seeded inputs --------------------------------------------------------

/// 32 programs drawn from trainingCorpus(130, seed): the first 16 with 4
/// kernels and the first 16 with 5, the middle of the corpus's 2..7 range.
/// Training samples programs at random, so a narrow size band keeps the
/// per-seed mix of step costs, and so steps/s, comparable across seeds.
std::vector<std::unique_ptr<posetrl::Module>> trainCorpus(std::uint64_t seed,
                                                          std::size_t count);
/// The 37 SPEC-2017 / SPEC-2006 / MiBench analog programs (fixed).
std::vector<std::unique_ptr<posetrl::Module>> suitePrograms();
/// The compile workload's request programs: a fixed pool of 14 size
/// classes (2..15 kernels) of kRequestsPerClass programs each. Every pool
/// program was served and checked once when the pool was fixed, and none
/// failed (README "Findings"), so any failed check is a regression. The
/// seed draws the stream: a permutation of the 14 sizes per block of 14
/// requests, so every block holds each size once, and per size a
/// permutation of its class, so no program repeats.
class RequestStream {
 public:
  static constexpr std::size_t kRequestsPerClass = 160;
  static constexpr std::size_t kPoolSize = 14 * kRequestsPerClass;

  explicit RequestStream(std::uint64_t seed);
  /// Pool index of the i-th request (i < kPoolSize).
  std::size_t poolIndex(std::size_t i) const;
  /// The pool's j-th program: 2 + j % 14 kernels. Indices from kPoolSize on
  /// name programs outside the pool.
  static posetrl::ProgramSpec poolSpec(std::size_t j);

 private:
  std::uint64_t seed_;
  std::vector<std::vector<std::size_t>> classes_;  ///< Per size, shuffled.
};

/// The serve pool: 64 fixed programs; rank r has 2 + (5r mod 14) kernels.
/// The seed draws the requests from it. Under Zipf(1.1) the top ranks carry
/// a quarter of the traffic and sit at the latency median, so seeded pool
/// content would move serve latency by which programs landed there.
std::vector<std::unique_ptr<posetrl::Module>> servePool();
/// Draws pool ranks with probability proportional to 1 / (rank + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t draw(double u) const;  ///< u uniform in [0, 1).

 private:
  std::vector<double> cdf_;
};

std::vector<const posetrl::Module*> pointers(
    const std::vector<std::unique_ptr<posetrl::Module>>& modules);

/// The training run the train workload repeats: the default TrainConfig
/// (ODG actions, 15-step episodes, verifier and contracts on) for
/// \p steps steps, seeded by \p seed.
posetrl::TrainConfig trainConfig(std::uint64_t seed, std::size_t steps);

/// The agent compile and serve requests are served with, as a saveModel
/// blob: the default TrainConfig for \p steps steps over the fixed corpus
/// trainCorpus(2022) (trainingCorpus's own default seed). It is the same
/// for every workload seed, so a seed changes only the request stream. It
/// stands for a model trained offline: it is trained in a forked child, so
/// none of its memory or allocation history stays in this process, and
/// cached under \p state_dir for later runs of the same binary.
std::string referenceAgent(const std::string& state_dir, std::size_t steps);
std::unique_ptr<posetrl::DoubleDqn> loadAgent(const std::string& blob);

// --- output checks --------------------------------------------------------

/// Checks outputs against their inputs: the output passes verifyModule and
/// runModule fingerprints equal the input's on two input seeds. Results are
/// cached under the caller's input id (inputs may be freed and their
/// addresses reused) and, per input, the output's content hash, so a
/// repeated output costs one hash walk.
class OutputChecker {
 public:
  struct Verdict {
    bool ok = false;
    std::string why;     ///< Set when !ok.
    double cycles = 0;   ///< Modeled cycles of the output (input seed 1).
  };
  Verdict check(std::size_t input_id, const posetrl::Module& input,
                posetrl::Module& output);

  /// Stock -Oz applied to an input: modeled size, cycles (input seed 1),
  /// and whether its fingerprints equal the input's on both input seeds.
  struct OzRef {
    double size_bytes = 0;
    double cycles = 0;
    bool preserves_behaviour = false;
  };
  const OzRef& oz(std::size_t input_id, const posetrl::Module& input);

  /// A module run under the interpreter on input seeds 1 and 2.
  struct Runs {
    bool ok = true;
    std::string trap;  ///< Why a run failed (when !ok).
    std::uint64_t fingerprint[2] = {0, 0};
    double cycles = 0;  ///< Input seed 1.
    bool sameBehaviour(const Runs& other) const;
  };

 private:
  const Runs& inputRuns(std::size_t input_id, const posetrl::Module& input);

  std::map<std::size_t, Runs> inputs_;
  std::map<std::pair<std::size_t, std::uint64_t>, Verdict> verdicts_;
  std::map<std::size_t, OzRef> oz_;
};

// --- workloads (workloads.cpp) --------------------------------------------

RunResult runTrain(const Options& o);
RunResult runCompile(const Options& o);
/// The serve workload; with \p online an OnlineLearner is attached.
RunResult runServe(const Options& o, bool online);

}  // namespace e2e
