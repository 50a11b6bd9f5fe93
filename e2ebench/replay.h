#pragma once

/// \file replay.h
/// Per-layer attribution for traced runs, built only from the program's
/// public functions:
///
///  - tracedTrainLoop: a copy of trainAgent's sequential loop with a span
///    around every env ctor, reset, act, step and observe. Started from the
///    same state, it must end bit-identical to trainAgent.
///  - ShadowEnv: replays recorded (program, action) steps on benchmark-owned
///    modules through the same components PhaseOrderEnv::step uses — the
///    sandbox, SizeModel, McaModel, the embedding cache — so the step's time
///    splits into layers; a probe module re-runs each action unsandboxed to
///    split the sandbox into snapshot capture, passes and the fast verifier.
///  - replayRequest: re-runs one compile request's phases (env ctor, reset,
///    greedy act + step with retries, module clones, the sandboxed -Oz
///    rung) with a span around each.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/fast_verifier.h"
#include "core/environment.h"
#include "core/trainer.h"
#include "embed/embed_cache.h"
#include "embed/embedder.h"
#include "ir/snapshot.h"
#include "target/mca_model.h"
#include "target/size_model.h"
#include "trace.h"

namespace e2e {

/// What tracedTrainLoop records. reserve() sizes every buffer before the
/// loop runs, so the loop allocates exactly what trainAgent's loop does: the
/// program's results depend on allocation history (README "Findings"), and
/// the copy must stay bit-identical to trainAgent.
struct TracedTrainRun {
  posetrl::TrainStats stats;
  std::unique_ptr<posetrl::DoubleDqn> agent;
  std::vector<std::size_t> programs;     ///< Corpus index of each episode.
  std::vector<std::size_t> episode_end;  ///< One past each episode's last step.
  std::vector<std::size_t> actions;      ///< Action of every step.
  std::vector<double> step_us;  ///< PhaseOrderEnv::step time per episode.
  std::size_t faulted_steps = 0;
  std::size_t repeated_episodes = 0;  ///< Episodes on an already-seen program.

  void reserve(std::size_t steps);
};

/// trainAgent's sequential loop (num_actors == 1, no checkpointing) with
/// spans: core.episode > core.env_ctor, core.env_reset, rl.act,
/// core.env_step, rl.observe. Reserve \p run and the tracer first.
void tracedTrainLoop(const std::vector<const posetrl::Module*>& corpus,
                     const posetrl::TrainConfig& config, Tracer& tracer,
                     TracedTrainRun& run);

/// Counters of replayed steps.
struct StepCounts {
  std::size_t steps = 0;
  std::size_t noops = 0;   ///< Sandbox reported no IR change.
  std::size_t faults = 0;  ///< Sandbox contained a fault (rolled back).
  std::size_t replays = 0;  ///< Episodes (or requests) replayed.
  /// Replays whose modules ended in another state than the run they replay
  /// or than each other (README "Findings").
  std::size_t diverged = 0;
  double attributed_us = 0.0;  ///< Sandbox + size + mca + embed time.
};

/// Replays steps of one program the way PhaseOrderEnv does (same sandbox
/// configuration, content-stamp memos and embedding cache), timing each
/// layer. A second, probe module takes the same actions unsandboxed to
/// split the sandbox's time. Both persist across episodes, so caches warm
/// as they did in the replayed run.
class ShadowEnv {
 public:
  ShadowEnv(const posetrl::Module& program, const posetrl::EnvConfig& config);
  ShadowEnv(const ShadowEnv&) = delete;
  ShadowEnv& operator=(const ShadowEnv&) = delete;

  /// Replays one episode: every action on the sandboxed module (spans
  /// core.shadow_step > faults.sandbox, target.size, target.mca,
  /// embed.embed), then the actions that did not fault on the probe (spans
  /// ir.snapshot_capture, passes.run, analysis.verify). Resets restore the
  /// pristine snapshot (span ir.snapshot_restore). Counts the replay as
  /// diverged when the two modules end in different states, or when
  /// \p expected_hash is non-zero and the sandboxed one's content hash
  /// differs from it.
  void replay(const std::vector<posetrl::SubSequence>& space,
              std::span<const std::size_t> actions, Tracer& tracer,
              StepCounts& counts, std::uint64_t expected_hash = 0);

 private:
  posetrl::SandboxConfig sandboxConfig();
  void reset(Tracer& tracer);
  bool step(const std::vector<std::string>& passes, Tracer& tracer,
            StepCounts& counts);
  void probe(const std::vector<std::string>& passes, Tracer& tracer);
  void embed();

  posetrl::EnvConfig config_;
  std::unique_ptr<posetrl::Module> work_;
  std::unique_ptr<posetrl::Module> probe_;
  posetrl::ModuleSnapshot work_pristine_;
  posetrl::ModuleSnapshot probe_pristine_;
  posetrl::ModuleSnapshot work_scratch_;
  posetrl::ModuleSnapshot probe_scratch_;
  posetrl::AnalysisManager work_am_;
  posetrl::AnalysisManager probe_am_;
  posetrl::FastVerifier work_verifier_;
  posetrl::FastVerifier probe_verifier_;
  posetrl::SizeModel size_;
  posetrl::McaModel mca_;
  posetrl::Embedder embedder_;
  posetrl::EmbedCache cache_;
  bool started_ = false;
  std::uint64_t metrics_stamp_ = 0;
  std::uint64_t key_stamp_ = 0;
  std::uint64_t key_ = 0;
  bool key_valid_ = false;
  double sink_ = 0.0;  ///< Keeps model results observable.
};

/// Replays \p run's episodes in recorded order (one ShadowEnv per program,
/// so caches warm as they did in training) until \p budget_s elapses.
/// Returns the number of episodes replayed.
std::size_t replayEpisodes(const std::vector<const posetrl::Module*>& corpus,
                           const TracedTrainRun& run,
                           const posetrl::TrainConfig& config, Tracer& tracer,
                           double budget_s, StepCounts& counts);

struct RequestReplay {
  double attributed_us = 0.0;  ///< Summed time of the replayed phases.
  std::size_t clones = 0;      ///< cloneModule calls the service would make.
  posetrl::AnalysisCacheStats analysis;
  posetrl::EmbedCacheStats embed;
};

/// Re-runs CompileService::process's phases for \p program under a span
/// serve.replay > core.env_ctor, core.env_reset, rl.act, core.env_step,
/// serve.backoff, ir.clone, passes.oz, then replays the executed steps on a
/// ShadowEnv. Selection masks \p blocked (the service's breaker mask when
/// the request ran) and, like the service, retries a faulting action with
/// exponential backoff (without jitter) before masking it.
RequestReplay replayRequest(const posetrl::Module& program,
                            const posetrl::DoubleDqn& agent,
                            const std::vector<posetrl::SubSequence>& actions,
                            const posetrl::EnvConfig& config,
                            const std::vector<bool>& blocked, Tracer& tracer,
                            std::uint64_t request, StepCounts& counts);

}  // namespace e2e
