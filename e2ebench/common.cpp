#include "bench.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/policy.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/structural_hash.h"
#include "ir/verifier.h"
#include "support/rng.h"
#include "support/stats.h"
#include "target/size_model.h"
#include "workloads/suites.h"

using namespace posetrl;

namespace e2e {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double pct(const std::vector<double>& v, double p) { return percentile(v, p); }

double medianWindowRate(const std::vector<double>& gaps, double window_s) {
  std::vector<double> rates;
  double elapsed = 0.0, total = 0.0;
  std::size_t n = 0;
  for (const double g : gaps) {
    elapsed += g;
    total += g;
    ++n;
    if (elapsed >= window_s) {
      rates.push_back(static_cast<double>(n) / elapsed);
      elapsed = 0.0;
      n = 0;
    }
  }
  if (rates.empty() && total > 0.0) {
    rates.push_back(static_cast<double>(gaps.size()) / total);
  }
  return median(rates);
}

double geomean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : geometricMean(v);
}

double peakRssMb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

void inChild(const std::function<std::string()>& work, char* out,
             std::size_t cap) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = work();
      for (std::size_t done = 0; done < text.size();) {
        const ssize_t n =
            write(fds[1], text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e: child process: %s\n", e.what());
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  std::size_t used = 0;
  for (;;) {
    char* dst = used + 1 < cap ? out + used : nullptr;
    char sink[256];
    const ssize_t n = dst != nullptr ? read(fds[0], dst, cap - 1 - used)
                                     : read(fds[0], sink, sizeof sink);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (dst != nullptr) used += static_cast<std::size_t>(n);
  }
  out[used] = '\0';
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void RunResult::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "e2e: FAILED: %s\n", why.c_str());
}

std::vector<std::unique_ptr<Module>> trainCorpus(std::uint64_t seed,
                                                 std::size_t count) {
  const SuiteSpec corpus = trainingCorpus(130, seed);
  std::vector<bool> used(corpus.programs.size(), false);
  std::vector<std::unique_ptr<Module>> out;
  for (std::size_t i = 0; i < count; ++i) {
    const int kernels = 4 + static_cast<int>(i % 2);
    std::size_t pick = corpus.programs.size();
    for (std::size_t j = 0; j < corpus.programs.size(); ++j) {
      if (used[j]) continue;
      if (pick == corpus.programs.size()) pick = j;  // fallback: any size
      if (corpus.programs[j].kernels == kernels) {
        pick = j;
        break;
      }
    }
    used[pick] = true;
    out.push_back(generateProgram(corpus.programs[pick]));
  }
  return out;
}

std::vector<std::unique_ptr<Module>> suitePrograms() {
  std::vector<std::unique_ptr<Module>> out;
  for (const SuiteSpec& suite :
       {spec2017Suite(), spec2006Suite(), mibenchSuite()}) {
    for (const ProgramSpec& spec : suite.programs) {
      out.push_back(generateProgram(spec));
    }
  }
  return out;
}

namespace {

constexpr std::size_t kSizeClasses = 14;

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t k = v.size(); k > 1; --k) {
    std::swap(v[k - 1], v[rng.nextBelow(k)]);
  }
}

}  // namespace

RequestStream::RequestStream(std::uint64_t seed)
    : seed_(seed), classes_(kSizeClasses) {
  for (std::size_t j = 0; j < kSizeClasses * kRequestsPerClass; ++j) {
    classes_[j % kSizeClasses].push_back(j);
  }
  for (std::size_t c = 0; c < kSizeClasses; ++c) {
    Rng rng = Rng::forStream(seed, 0xc1a55000 + c);
    shuffle(classes_[c], rng);
  }
}

std::size_t RequestStream::poolIndex(std::size_t i) const {
  const std::size_t block = i / kSizeClasses;
  Rng rng = Rng::forStream(seed_, 0x5eed0000 + block);
  std::vector<std::size_t> sizes(kSizeClasses);
  for (std::size_t c = 0; c < kSizeClasses; ++c) sizes[c] = c;
  shuffle(sizes, rng);
  return classes_[sizes[i % kSizeClasses]][block];
}

ProgramSpec RequestStream::poolSpec(std::size_t j) {
  ProgramSpec spec;
  spec.name = "req" + std::to_string(j);
  spec.seed = Rng::forStream(0x4e0e57, j).next();
  spec.kernels = 2 + static_cast<int>(j % kSizeClasses);
  return spec;
}

std::vector<std::unique_ptr<Module>> servePool() {
  std::vector<std::unique_ptr<Module>> out;
  for (std::size_t rank = 0; rank < 64; ++rank) {
    ProgramSpec spec;
    spec.name = "pool" + std::to_string(rank);
    spec.seed = Rng::forStream(0x9001, rank).next();
    spec.kernels = 2 + static_cast<int>((5 * rank) % 14);
    out.push_back(generateProgram(spec));
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::draw(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<const Module*> pointers(
    const std::vector<std::unique_ptr<Module>>& modules) {
  std::vector<const Module*> out;
  for (const auto& m : modules) out.push_back(m.get());
  return out;
}

TrainConfig trainConfig(std::uint64_t seed, std::size_t steps) {
  TrainConfig cfg;
  cfg.total_steps = steps;
  cfg.seed = seed;
  cfg.agent.seed = seed;
  return cfg;
}

std::string referenceAgent(const std::string& state_dir, std::size_t steps) {
  // Keyed by this binary's size and modification time, so a rebuild trains
  // afresh.
  struct stat exe {};
  if (stat("/proc/self/exe", &exe) != 0) {
    throw std::runtime_error("cannot stat /proc/self/exe");
  }
  const std::string path =
      state_dir + "/reference-" + std::to_string(exe.st_size) + "-" +
      std::to_string(exe.st_mtim.tv_sec) + "." +
      std::to_string(exe.st_mtim.tv_nsec) + "-" + std::to_string(steps) +
      ".agent";
  if (!std::filesystem::exists(path)) {
    char unused[1];
    inChild(
        [&] {
          const auto corpus = trainCorpus(2022, 32);
          TrainConfig cfg;  // default seeds: one agent for every workload seed
          cfg.total_steps = steps;
          const TrainResult trained = trainAgent(pointers(corpus), cfg);
          const std::string tmp = path + ".tmp" + std::to_string(getpid());
          {
            std::ofstream os(tmp, std::ios::binary);
            trained.agent->saveModel(os);
            if (!os.flush()) throw std::runtime_error("cannot write " + tmp);
          }
          std::filesystem::rename(tmp, path);
          return std::string();
        },
        unused, sizeof unused);
  }
  std::ifstream is(path, std::ios::binary);
  std::ostringstream blob;
  blob << is.rdbuf();
  if (!is) throw std::runtime_error("cannot read " + path);
  return blob.str();
}

std::unique_ptr<DoubleDqn> loadAgent(const std::string& blob) {
  auto agent = std::make_unique<DoubleDqn>(DqnConfig{});
  std::istringstream is(blob);
  agent->loadModel(is);
  return agent;
}

namespace {

OutputChecker::Runs runTwice(Module& m) {
  OutputChecker::Runs runs;
  for (int s = 0; s < 2 && runs.ok; ++s) {
    ExecOptions opts;
    opts.input_seed = static_cast<std::uint64_t>(s + 1);
    const ExecResult r = runModule(m, opts);
    runs.ok = r.ok;
    runs.trap = r.trap;
    runs.fingerprint[s] = r.fingerprint();
    if (s == 0) runs.cycles = r.cycles;
  }
  return runs;
}

}  // namespace

bool OutputChecker::Runs::sameBehaviour(const Runs& other) const {
  return ok && other.ok && fingerprint[0] == other.fingerprint[0] &&
         fingerprint[1] == other.fingerprint[1];
}

const OutputChecker::Runs& OutputChecker::inputRuns(std::size_t input_id,
                                                    const Module& input) {
  auto it = inputs_.find(input_id);
  if (it != inputs_.end()) return it->second;
  return inputs_.emplace(input_id, runTwice(*cloneModule(input)))
      .first->second;
}

OutputChecker::Verdict OutputChecker::check(std::size_t input_id,
                                            const Module& input,
                                            Module& output) {
  const auto key = std::make_pair(input_id, moduleContentHash(output));
  if (auto it = verdicts_.find(key); it != verdicts_.end()) return it->second;
  Verdict& v = verdicts_[key];
  const VerifyResult verified = verifyModule(output);
  if (!verified.ok()) {
    v.why = "output fails verifyModule: " + verified.message();
    return v;
  }
  const Runs& in = inputRuns(input_id, input);
  const Runs out = runTwice(output);
  if (!in.ok) {
    v.why = "input program traps under the interpreter: " + in.trap;
  } else if (!out.ok) {
    v.why = "output traps: " + out.trap;
  } else if (!out.sameBehaviour(in)) {
    v.why = "output behaviour differs from the input's";
  } else {
    v.ok = true;
    v.cycles = out.cycles;
  }
  return v;
}

const OutputChecker::OzRef& OutputChecker::oz(std::size_t input_id,
                                              const Module& input) {
  auto it = oz_.find(input_id);
  if (it != oz_.end()) return it->second;
  const std::unique_ptr<Module> oz = applyPipeline(input, ozPassNames());
  const Runs runs = runTwice(*oz);
  OzRef ref;
  ref.size_bytes =
      SizeModel(TargetInfo::forArch(TargetArch::X86_64)).objectBytes(*oz);
  ref.cycles = runs.cycles;
  ref.preserves_behaviour = runs.sameBehaviour(inputRuns(input_id, input));
  return oz_.emplace(input_id, ref).first->second;
}

}  // namespace e2e
