#include "trace.h"

#include <cstdio>
#include <cstring>

namespace e2e {

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::reserve(std::size_t spans,
                     std::initializer_list<const char*> names) {
  spans_.reserve(spans_.size() + spans);
  open_.reserve(open_.size() + 16);
  for (const char* name : names) totals_.try_emplace(name);
}

Tracer::Id Tracer::begin(const char* name, std::uint64_t request) {
  const Id parent = open_.empty() ? 0 : open_.back();
  if (request == 0 && parent != 0) request = spans_[parent - 1].request;
  const auto now = Clock::now();
  spans_.push_back({name, now, now, parent, request});
  const Id id = static_cast<Id>(spans_.size());
  open_.push_back(id);
  return id;
}

double Tracer::end(Id id) {
  if (id == 0 || id > spans_.size()) return 0.0;
  Span& s = spans_[id - 1];
  s.stop = Clock::now();
  // Spans close innermost-first; anything still open above \p id was left
  // open by a non-local exit and closes with it.
  while (!open_.empty()) {
    const Id top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
  return close(s);
}

Tracer::Id Tracer::add(const char* name, Clock::time_point start,
                       Clock::time_point stop, Id parent,
                       std::uint64_t request) {
  if (request == 0 && parent != 0) request = spans_[parent - 1].request;
  spans_.push_back({name, start, stop, parent, request});
  close(spans_.back());
  return static_cast<Id>(spans_.size());
}

double Tracer::close(const Span& s) {
  const double us =
      std::chrono::duration<double, std::micro>(s.stop - s.start).count();
  Total& t = totals_[s.name];
  t.us += us;
  ++t.count;
  return us;
}

double Tracer::totalUs(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.us;
}

std::size_t Tracer::count(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

bool Tracer::writeChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const int layer_len =
        dot != nullptr ? static_cast<int>(dot - s.name)
                       : static_cast<int>(std::strlen(s.name));
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.stop - s.start).count();
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"id\":%zu,\"parent\":%u,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, layer_len, s.name, ts, dur,
                 static_cast<unsigned long long>(s.request), i + 1, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

double Tracer::spanCostUs() {
  Tracer t;
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) t.end(t.begin("trace.calibrate"));
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
         kSpans;
}

}  // namespace e2e
