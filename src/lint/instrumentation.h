#pragma once

/// \file instrumentation.h
/// Per-pass instrumentation for pass pipelines. Threaded through
/// runPassSequence (and from there the RL environment), it runs any
/// combination of {structural verify, lint, miscompile oracle} after every
/// pass and attributes each failure to the pass that introduced it — turning
/// "this 60-pass sequence broke the program" into "pass 37, -loop-unswitch,
/// diverged on seed 7".

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/fast_verifier.h"
#include "lint/diagnostic.h"
#include "lint/oracle.h"

namespace posetrl {

class Module;
class Pass;

/// Which checks run after each pass.
struct InstrumentOptions {
  /// Structural verifier (analysis/fast_verifier.h), kept warm across the
  /// sequence so functions a pass left unchanged are skipped.
  bool verify = true;
  /// Diff each pass's declared preserved analyses (Pass::preserved) against
  /// the observed IR delta and fail the pass on a broken promise.
  bool contracts = false;
  bool lint = false;    ///< Semantic lint checkers (lint/lint.h).
  bool oracle = false;  ///< Differential behaviour oracle (lint/oracle.h).
  /// Lint findings at or above this severity count as failures (milder ones
  /// are still recorded as attributed diagnostics).
  LintSeverity lint_failure_threshold = LintSeverity::Error;
  /// Externally owned fast verifier to use instead of this instrumentation's
  /// private one. Lets an owner with a longer lifetime (PhaseOrderEnv) keep
  /// the clean-hash skip cache warm across per-action instrumentation
  /// instances; the owner must clearCache() whenever the module object is
  /// replaced (reset, rollback).
  FastVerifier* shared_fast_verifier = nullptr;
  /// Keep an armed boundary snapshot across beginSequence instead of
  /// disarming it. Only safe when the caller guarantees the module is not
  /// mutated between instrumented sequences (the environment's step loop
  /// does: between-action work is read-only and every restore disarms).
  bool trust_armed_boundary = false;
  OracleOptions oracle_options;
};

/// One check failure pinned to the pass that caused it.
struct PassFailure {
  std::size_t step = 0;  ///< 1-based position in the pass sequence.
  std::string pass;      ///< Name of the offending pass.
  std::string stage;     ///< "verify", "lint" or "oracle".
  std::string detail;
};

/// A lint finding first observed after a specific pass.
struct AttributedDiagnostic {
  std::size_t step = 0;
  std::string pass;
  LintDiagnostic diagnostic;
};

/// Runs configured checks after every pass of a sequence and collects
/// pass-attributed failures. One instance covers one sequence run; call
/// beginSequence again to reuse it.
class PassInstrumentation {
 public:
  explicit PassInstrumentation(InstrumentOptions options = {});

  const InstrumentOptions& options() const { return options_; }

  /// Snapshots \p m's pre-sequence state: lint baseline (so only *new*
  /// findings are attributed) and oracle behaviour baseline.
  void beginSequence(Module& m);

  /// Records the pass-boundary fingerprint snapshot for the contract
  /// checker. Called by runPasses right before each pass runs.
  void beforePass(const Pass& pass, Module& m);

  /// Runs the configured checks on \p m, attributing anything new to
  /// \p pass; \p reported_changed is the pass's own run() return value
  /// (a changed=false lie is a contract violation).
  void afterPass(const Pass& pass, Module& m, bool reported_changed);

  std::size_t stepsRun() const { return step_; }
  bool clean() const { return failures_.empty(); }
  const std::vector<PassFailure>& failures() const { return failures_; }
  const std::vector<AttributedDiagnostic>& attributedDiagnostics() const {
    return attributed_;
  }

  /// Aligned table of failures and attributed diagnostics.
  std::string toText() const;
  /// {"steps": N, "failures": [...], "diagnostics": [...]}.
  std::string toJson() const;

  /// The analysis manager the verify/contract stages use: the ambient
  /// scope-installed one when a pipeline owner (e.g. PhaseOrderEnv)
  /// provides it, else a private fallback.
  AnalysisManager& manager() { return AnalysisManager::currentOr(local_am_); }

 private:
  FastVerifier& activeFastVerifier() {
    return options_.shared_fast_verifier != nullptr
               ? *options_.shared_fast_verifier
               : fast_verifier_;
  }

  InstrumentOptions options_;
  MiscompileOracle oracle_;
  LintReport last_lint_;
  std::size_t step_ = 0;
  std::vector<PassFailure> failures_;
  std::vector<AttributedDiagnostic> attributed_;
  AnalysisManager local_am_;
  FastVerifier fast_verifier_;
};

}  // namespace posetrl
