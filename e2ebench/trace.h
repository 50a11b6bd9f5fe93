#pragma once

/// \file trace.h
/// In-memory span recorder for traced benchmark runs. Spans are recorded
/// from the benchmark's own files around calls into the program's public
/// functions; each span carries a name ("<layer>.<what>"), start, end,
/// parent span and request id (inherited from the parent when not given).
/// Per-name totals are kept as spans close, so per-layer metrics read them
/// directly; the spans themselves are written once, at exit, as Chrome
/// trace-event JSON (chrome://tracing, Perfetto), one track per request id
/// (track 0: spans of no request).
///
/// Single-threaded: every span is recorded on the thread that drives the
/// traced phase.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace e2e {

class Tracer {
 public:
  using Id = std::uint32_t;  ///< 0 = no span.

  Tracer();

  /// Makes room for \p spans spans and creates the totals of \p names, so
  /// recording them allocates nothing.
  void reserve(std::size_t spans, std::initializer_list<const char*> names);

  /// Opens a span; spans opened before it closes become its children.
  Id begin(const char* name, std::uint64_t request = 0);
  /// Closes \p id and returns its duration in microseconds.
  double end(Id id);
  /// Records an already finished span (e.g. a queue wait reconstructed from
  /// a ServeResult) under \p parent.
  Id add(const char* name, Clock::time_point start, Clock::time_point stop,
         Id parent, std::uint64_t request = 0);

  /// Summed duration (us) and count of the closed spans named \p name.
  double totalUs(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool writeChromeJson(const std::string& path) const;

  /// Measured cost of recording one span (begin + end), in microseconds —
  /// the basis of trace.overhead_pct on workloads whose measured phase only
  /// adds spans.
  static double spanCostUs();

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point stop;
    Id parent;
    std::uint64_t request;
  };
  struct Total {
    double us = 0.0;
    std::size_t count = 0;
  };
  /// Adds a closed span to the per-name totals; returns its duration (us).
  double close(const Span& s);

  Clock::time_point origin_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
  std::vector<Id> open_;
  /// Keyed by the span names, which are string literals.
  std::unordered_map<std::string_view, Total> totals_;
};

/// RAII span; a null tracer records nothing.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

}  // namespace e2e
