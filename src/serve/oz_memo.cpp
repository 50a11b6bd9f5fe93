#include "serve/oz_memo.h"

#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "target/size_model.h"

namespace posetrl {

static_assert((OzMemo::kSightingSlots & (OzMemo::kSightingSlots - 1)) == 0,
              "sighting table size must be a power of two");

OzMemo::OzMemo(std::size_t byte_cap) : byte_cap_(byte_cap) {}

OzMemo::Probe OzMemo::lookup(std::uint64_t key, const Module& input) {
  Probe probe;
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Direct-mapped: a slot remembers the last key that landed in it. A
    // clash between two keys only delays an admission.
    std::uint64_t& slot =
        sightings_[(key ^ (key >> 32)) & (kSightingSlots - 1)];
    probe.admissible = slot == key;
    slot = key;
    if (auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      entry = it->second->entry;
    }
  }
  // The hash only nominates an entry; equal text is what makes it a hit.
  if (entry != nullptr && entry->input_text == printModule(input)) {
    probe.hit = std::move(entry);
    probe.admissible = false;
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return probe;
}

bool OzMemo::admit(std::uint64_t key, const Module& input,
                   const Module& output, double size_bytes,
                   const SizeModel& size_model) {
  auto entry = std::make_shared<Entry>();
  entry->input_text = printModule(input);
  // Text that does not parse (e.g. duplicate names) may print the same for
  // different modules, so it cannot stand for its module.
  if (parseModule(entry->input_text) == nullptr) return false;
  entry->output_text = printModule(output);
  const std::unique_ptr<Module> reparsed = parseModule(entry->output_text);
  if (reparsed == nullptr || printModule(*reparsed) != entry->output_text ||
      size_model.objectBytes(*reparsed) != size_bytes) {
    return false;
  }
  entry->size_bytes = size_bytes;
  const std::size_t bytes =
      entry->input_text.size() + entry->output_text.size();
  if (bytes > byte_cap_) return false;

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Slot{key, bytes, std::move(entry)});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  while (bytes_ > byte_cap_) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return true;
}

OzMemo::Stats OzMemo::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.bytes = bytes_;
  return s;
}

}  // namespace posetrl
