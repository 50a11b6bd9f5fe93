#include "lint/instrumentation.h"

#include <sstream>

#include "ir/module.h"
#include "ir/verifier.h"
#include "lint/lint.h"
#include "passes/pass.h"
#include "support/error.h"
#include "support/table.h"

namespace posetrl {

std::string PassFailure::str() const {
  std::ostringstream os;
  os << "step " << step << " -" << pass << " [" << stage << "]: " << detail;
  return os.str();
}

PassInstrumentation::PassInstrumentation(InstrumentOptions options)
    : options_(std::move(options)), oracle_(options_.oracle_options) {}

void PassInstrumentation::beginSequence(Module& m) {
  step_ = 0;
  failures_.clear();
  attributed_.clear();
  last_lint_ = LintReport{};
  // A snapshot re-armed by a previous sequence's reconcile may describe a
  // different module (or a since-mutated one); force the first beforePass
  // of this sequence to rehash from the actual state. Owners that guarantee
  // no mutation between sequences (the environment's step loop) opt out and
  // keep the snapshot warm across actions.
  if (options_.contracts && !options_.trust_armed_boundary)
    manager().disarmBoundary();
  if (options_.lint) last_lint_ = runLint(m);
  if (options_.oracle) oracle_.capture(m);
}

void PassInstrumentation::beforePass(const Pass& pass, Module& m) {
  (void)pass;
  if (options_.contracts) manager().recordBoundary(m);
}

void PassInstrumentation::afterPass(const Pass& pass, Module& m,
                                    bool reported_changed) {
  runChecks(pass.name(), m, &pass, reported_changed);
}

void PassInstrumentation::afterPass(std::string_view pass_name, Module& m) {
  runChecks(pass_name, m, nullptr, /*reported_changed=*/true);
}

void PassInstrumentation::runChecks(std::string_view pass_name, Module& m,
                                    const Pass* pass_obj,
                                    bool reported_changed) {
  ++step_;
  const std::string pass(pass_name);
  const auto fail = [&](const char* stage, std::string detail) {
    PassFailure f;
    f.step = step_;
    f.pass = pass;
    f.stage = stage;
    f.detail = std::move(detail);
    POSETRL_CHECK(!options_.abort_on_failure, "pass instrumentation: ",
                  f.str());
    failures_.push_back(std::move(f));
  };

  if (options_.verify) {
    const VerifyResult r = activeFastVerifier().verify(m, manager());
    if (!r.ok()) {
      fail("verify", r.message());
      // Structurally broken IR: linting it would double-report the damage
      // and interpreting it is unsafe, so stop checking this step here.
      // The skipped reconcile leaves the pre-pass snapshot armed; drop it
      // so a continued sequence rehashes instead of misattributing this
      // pass's damage to the next one.
      if (options_.contracts) manager().disarmBoundary();
      return;
    }
  }

  if (options_.contracts) {
    if (pass_obj != nullptr) {
      const BoundaryReport report = manager().reconcileBoundary(
          m, pass_obj->preserved(), reported_changed);
      for (const ContractViolation& v : report.violations)
        fail("contract", v.detail);
    } else {
      // No pass object means no declarations to reconcile; disarm so the
      // next boundary snapshots the actual (possibly mutated) state.
      manager().disarmBoundary();
    }
  }

  if (options_.lint) {
    LintReport now = runLint(m);
    for (LintDiagnostic& d : now.newSince(last_lint_)) {
      if (static_cast<int>(d.severity) >=
          static_cast<int>(options_.lint_failure_threshold)) {
        fail("lint", d.str());
      }
      attributed_.push_back({step_, pass, std::move(d)});
    }
    last_lint_ = std::move(now);
  }

  if (options_.oracle) {
    const OracleVerdict verdict = oracle_.compare(m);
    if (!verdict.equivalent()) {
      fail("oracle", verdict.message());
      // Re-baseline on the diverged behaviour so each later pass is judged
      // against its own predecessor, not the long-lost original — one
      // miscompile must not smear across the rest of the sequence.
      oracle_.capture(m);
    }
  }
}

std::string PassInstrumentation::toText() const {
  std::ostringstream os;
  os << "instrumented " << step_ << " passes: " << failures_.size()
     << " failure(s), " << attributed_.size()
     << " attributed lint finding(s)\n";
  if (!failures_.empty()) {
    TextTable table;
    table.addRow({"step", "pass", "stage", "detail"});
    for (const auto& f : failures_) {
      // First line only; multi-line verifier output stays in toJson().
      std::string first = f.detail.substr(0, f.detail.find('\n'));
      table.addRow({std::to_string(f.step), f.pass, f.stage, first});
    }
    os << table.render();
  }
  if (!attributed_.empty()) {
    TextTable table;
    table.addRow({"step", "pass", "checker", "severity", "message"});
    for (const auto& a : attributed_) {
      table.addRow({std::to_string(a.step), a.pass, a.diagnostic.checker,
                    lintSeverityName(a.diagnostic.severity),
                    a.diagnostic.message});
    }
    os << table.render();
  }
  return os.str();
}

std::string PassInstrumentation::toJson() const {
  std::ostringstream os;
  os << "{\"steps\":" << step_ << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    const PassFailure& f = failures_[i];
    if (i > 0) os << ",";
    os << "{\"step\":" << f.step << ",\"pass\":\"" << jsonEscape(f.pass)
       << "\",\"stage\":\"" << jsonEscape(f.stage) << "\",\"detail\":\""
       << jsonEscape(f.detail) << "\"}";
  }
  os << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < attributed_.size(); ++i) {
    const AttributedDiagnostic& a = attributed_[i];
    if (i > 0) os << ",";
    os << "{\"step\":" << a.step << ",\"pass\":\"" << jsonEscape(a.pass)
       << "\",\"finding\":";
    LintReport one;
    one.diagnostics.push_back(a.diagnostic);
    const std::string arr = one.toJson();
    // toJson renders an array; embed the single element.
    os << arr.substr(1, arr.size() - 2) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace posetrl
