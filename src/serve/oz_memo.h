#pragma once

/// \file oz_memo.h
/// Memo of the serve path's -Oz rung (DESIGN.md "Serving and graceful
/// degradation"). Stock -Oz is deterministic and the rung runs it on a copy
/// whose naming counters are re-derived from the names, so its output is a
/// function of the input's printed text. A repeated input can therefore
/// reuse an earlier run's output instead of re-running the 90-pass pipeline.
///
/// Soundness rules:
///  - The key is moduleContentHash(input), but a hit also needs the
///    request's printed text to equal the stored input text byte for byte.
///    A 64-bit collision misses; it never returns another program's output.
///  - Text identifies a module only when it is unambiguous, so an input is
///    admitted only if its text parses. Duplicate names make the parser
///    refuse it, so such a module is never admitted and never hits.
///  - Only completed runs are stored; faulted or deadline-cut runs never
///    are. The output must round-trip: print(parse(out)) == out, and the
///    re-parsed module's modeled size must equal the run's.
///
/// Cost rules: an entry is admitted on the second sighting of its key,
/// tracked by a fixed direct-mapped table of recent keys, so single-use
/// traffic prints and stores nothing. Stored text (input + output) is held
/// in an LRU capped at a fixed byte budget.
///
/// No configuration fingerprint is part of the key: a memo belongs to one
/// CompileService, whose EnvConfig is fixed and whose pass registry is
/// read-only while serving.
///
/// Thread-safe. Entries are immutable and shared, so text comparison and
/// parsing run outside the lock.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace posetrl {

class Module;
class SizeModel;

class OzMemo {
 public:
  /// Budget of stored input + output text.
  static constexpr std::size_t kByteCap = std::size_t{1} << 20;
  /// Slots of the recent-key table (8 bytes each).
  static constexpr std::size_t kSightingSlots = 4096;

  /// \p byte_cap exists for tests; the service always uses kByteCap.
  explicit OzMemo(std::size_t byte_cap = kByteCap);

  struct Entry {
    std::string input_text;
    std::string output_text;  ///< Printed -Oz output of input_text.
    double size_bytes = 0.0;  ///< Modeled size of the output.
  };

  struct Probe {
    std::shared_ptr<const Entry> hit;  ///< Null on a miss.
    /// A miss on a key sighted before: admit() may store this run.
    bool admissible = false;
  };

  /// One rung lookup for \p input under \p key. Records the sighting and
  /// counts a hit or a miss.
  Probe lookup(std::uint64_t key, const Module& input);

  /// Stores the completed -Oz run \p output of \p input (modeled size
  /// \p size_bytes under \p size_model) if it passes the admission checks
  /// above. Returns whether it was stored.
  bool admit(std::uint64_t key, const Module& input, const Module& output,
             double size_bytes, const SizeModel& size_model);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t bytes = 0;  ///< Stored text, input + output.
  };
  Stats stats() const;

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const Entry> entry;
  };

  const std::size_t byte_cap_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};

  mutable std::mutex mu_;
  std::array<std::uint64_t, kSightingSlots> sightings_{};
  std::list<Slot> lru_;  ///< Most recently used first.
  std::unordered_map<std::uint64_t, std::list<Slot>::iterator> index_;
  std::size_t bytes_ = 0;
};

}  // namespace posetrl
