#include "online/snapshot.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/error.h"
#include "support/hashing.h"
#include "support/io.h"

namespace posetrl {

std::size_t maskedArgmax(const std::vector<double>& q,
                         const std::vector<bool>* blocked) {
  POSETRL_CHECK(!q.empty(), "argmax of empty Q-vector");
  bool any_blocked = false;
  if (blocked != nullptr) {
    POSETRL_CHECK(blocked->size() == q.size(),
                  "mask width must match the Q-vector");
    for (bool b : *blocked) any_blocked |= b;
  }
  if (!any_blocked) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < q.size(); ++i) {
      if (q[i] > q[best]) best = i;
    }
    return best;
  }
  std::size_t best = q.size();
  for (std::size_t i = 0; i < q.size(); ++i) {
    if ((*blocked)[i]) continue;
    if (best == q.size() || q[i] > q[best]) best = i;
  }
  POSETRL_CHECK(best < q.size(), "all actions blocked");
  return best;
}

std::uint64_t hashMlpWeights(const Mlp& net) {
  std::ostringstream os;
  net.save(os);
  return fnv1a(os.str());
}

PolicySnapshot::PolicySnapshot(std::uint64_t version,
                               std::uint64_t parent_hash, Mlp net,
                               bool rollback)
    : version(version),
      hash(hashMlpWeights(net)),
      parent_hash(parent_hash),
      rollback(rollback),
      net(std::move(net)) {}

std::size_t PolicySnapshot::actGreedy(const std::vector<double>& state,
                                      const std::vector<bool>* blocked) const {
  return maskedArgmax(net.forward(state), blocked);
}

// --- SnapshotRegistry ------------------------------------------------------

SnapshotRegistry::SnapshotRegistry(std::size_t reader_slots)
    : slots_(reader_slots) {
  POSETRL_CHECK(reader_slots > 0, "registry needs at least one reader slot");
}

SnapshotRegistry::~SnapshotRegistry() {
  for (const Slot& slot : slots_) {
    POSETRL_CHECK(slot.state.load() == 0,
                  "SnapshotRegistry destroyed with an active pin");
  }
  delete current_.load();
  for (auto& [snap, epoch] : retired_) delete snap;
}

SnapshotRegistry::Pin& SnapshotRegistry::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = other.owner_;
    slot_ = other.slot_;
    snap_ = other.snap_;
    other.owner_ = nullptr;
    other.snap_ = nullptr;
  }
  return *this;
}

void SnapshotRegistry::Pin::release() {
  if (owner_ != nullptr) owner_->unpin(slot_);
  owner_ = nullptr;
  snap_ = nullptr;
}

SnapshotRegistry::Pin SnapshotRegistry::pin() const {
  for (;;) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      std::uint64_t expected = 0;
      std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
      if (!slots_[i].state.compare_exchange_strong(
              expected, e + 1, std::memory_order_seq_cst)) {
        continue;  // slot busy, try the next one
      }
      // We own slot i, stamped with epoch e. A publish may have advanced the
      // epoch between the load and the stamp; restamp until the stamp is
      // provably current — then any pointer loaded below is either the
      // snapshot current at our stamped epoch or newer, and the reclaimer
      // (which only frees snapshots retired at epochs <= every active
      // stamp) cannot free it while we hold the slot.
      for (;;) {
        const std::uint64_t e2 = epoch_.load(std::memory_order_seq_cst);
        if (e2 == e) break;
        e = e2;
        slots_[i].state.store(e + 1, std::memory_order_seq_cst);
      }
      const PolicySnapshot* snap = current_.load(std::memory_order_seq_cst);
      if (snap == nullptr) {
        unpin(i);
        return Pin();
      }
      return Pin(this, i, snap);
    }
    // Every slot simultaneously held — rare (slots >> workers); yield and
    // retry rather than blocking on a lock.
    std::this_thread::yield();
  }
}

void SnapshotRegistry::unpin(std::size_t slot) const {
  slots_[slot].state.store(0, std::memory_order_seq_cst);
}

std::uint64_t SnapshotRegistry::publish(std::unique_ptr<PolicySnapshot> snap) {
  POSETRL_CHECK(snap != nullptr, "publish of a null snapshot");
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(retire_mu_);
  // Validate before taking ownership: a rejected snapshot must die with
  // the caller's unique_ptr, not leak out of the raw-pointer hand-off.
  POSETRL_CHECK(snap->version > currentVersion(),
                "snapshot versions must be strictly increasing");
  const PolicySnapshot* incoming = snap.release();
  // Swap first, then bump the epoch: a reader stamped at or past the new
  // epoch provably loaded the new pointer (or a successor), which is what
  // makes the reclamation rule below safe.
  const PolicySnapshot* outgoing =
      current_.exchange(incoming, std::memory_order_seq_cst);
  const std::uint64_t retire_epoch =
      epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (outgoing != nullptr) retired_.emplace_back(outgoing, retire_epoch);
  reclaimLocked();
  ++stats_.published;
  stats_.retired_pending = retired_.size();
  stats_.last_publish_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return incoming->version;
}

void SnapshotRegistry::reclaimLocked() {
  // A retired snapshot is freed once every *active* reader slot carries an
  // epoch >= its retirement epoch: such readers pinned after the successor
  // was already published, so they cannot hold the retiree.
  std::uint64_t min_active = UINT64_MAX;
  for (const Slot& slot : slots_) {
    const std::uint64_t s = slot.state.load(std::memory_order_seq_cst);
    if (s != 0) min_active = std::min(min_active, s - 1);
  }
  auto keep = retired_.begin();
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    if (it->second <= min_active) {
      delete it->first;
      ++stats_.reclaimed;
    } else {
      *keep++ = *it;
    }
  }
  retired_.erase(keep, retired_.end());
}

std::uint64_t SnapshotRegistry::currentVersion() const {
  // Read through a pin: a concurrent publish may retire and free an
  // unpinned current_ between the load and the dereference.
  const Pin p = pin();
  return p ? p->version : 0;
}

SnapshotRegistry::Stats SnapshotRegistry::stats() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return stats_;
}

// --- persistence -----------------------------------------------------------

namespace {

const char* kSnapshotFile = "snapshot-current.txt";
const char* kSnapshotPrevFile = "snapshot-prev.txt";

enum class ParseResult { Missing, Ok, Corrupt };

/// Parses one snapshot file, verifying every integrity field the format
/// version carries. Never raises — a corrupt generation must not prevent
/// the caller from trying the other one.
ParseResult parseSnapshotFile(const std::string& path, PersistedSnapshot* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return ParseResult::Missing;
  std::string header;
  if (!std::getline(is, header)) return ParseResult::Corrupt;
  std::istringstream hs(header);
  std::string tag, fmt;
  hs >> tag >> fmt;
  if (tag != "policy-snapshot") return ParseResult::Corrupt;
  int rollback = 0;
  if (fmt == "v1") {
    // Legacy: no checksums. Parse best-effort for upgrade compatibility.
    if (!(hs >> out->version >> out->hash >> out->parent_hash >> rollback)) {
      return ParseResult::Corrupt;
    }
    out->rollback = rollback != 0;
    std::ostringstream blob;
    blob << is.rdbuf();
    out->net_blob = blob.str();
    return out->net_blob.empty() ? ParseResult::Corrupt : ParseResult::Ok;
  }
  if (fmt != "v2") return ParseResult::Corrupt;
  std::uint64_t blob_len = 0, blob_fnv = 0, header_crc = 0;
  if (!(hs >> out->version >> out->hash >> out->parent_hash >> rollback >>
        blob_len >> blob_fnv >> header_crc)) {
    return ParseResult::Corrupt;
  }
  // The crc covers everything before itself: a flipped bit in any metadata
  // field is caught before that field is trusted.
  const std::size_t crc_start = header.rfind(' ');
  if (crc_start == std::string::npos ||
      fnv1a(std::string_view(header).substr(0, crc_start)) != header_crc) {
    return ParseResult::Corrupt;
  }
  out->rollback = rollback != 0;
  std::ostringstream blob;
  blob << is.rdbuf();
  out->net_blob = blob.str();
  if (out->net_blob.size() != blob_len || fnv1a(out->net_blob) != blob_fnv) {
    return ParseResult::Corrupt;
  }
  return ParseResult::Ok;
}

}  // namespace

void savePolicySnapshotFile(const std::string& dir,
                            const PolicySnapshot& snap) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) raiseError("cannot create snapshot directory " + dir);
  std::ostringstream body;
  snap.net.save(body);
  const std::string blob = body.str();
  std::ostringstream header;
  header << "policy-snapshot v2 " << snap.version << " " << snap.hash << " "
         << snap.parent_hash << " " << (snap.rollback ? 1 : 0) << " "
         << blob.size() << " " << fnv1a(blob);
  const std::uint64_t crc = fnv1a(header.str());
  const std::string current = dir + "/" + kSnapshotFile;
  const std::string prev = dir + "/" + kSnapshotPrevFile;
  // Rotate current → prev before publishing, so a crash at ANY point leaves
  // at least one loadable generation: before the rotation both files are the
  // old pair; between rotation and publish `prev` holds the old current
  // (the loader's fallback); after publish both generations are fresh.
  if (std::filesystem::exists(current)) io::renameFile(current, prev);
  io::writeFileAtomicDurable(current,
                             header.str() + " " + std::to_string(crc) + "\n" +
                                 blob);
}

bool loadPolicySnapshotFile(const std::string& dir, PersistedSnapshot* out) {
  const std::string current = dir + "/" + kSnapshotFile;
  const std::string prev = dir + "/" + kSnapshotPrevFile;
  const ParseResult cur = parseSnapshotFile(current, out);
  if (cur == ParseResult::Ok) {
    out->from_fallback = false;
    return true;
  }
  PersistedSnapshot fallback;
  const ParseResult prv = parseSnapshotFile(prev, &fallback);
  if (prv == ParseResult::Ok) {
    *out = std::move(fallback);
    out->from_fallback = true;
    return true;
  }
  if (cur == ParseResult::Missing && prv == ParseResult::Missing) return false;
  raiseError("no loadable policy snapshot generation in " + dir +
             " (current: " +
             (cur == ParseResult::Missing ? "missing" : "corrupt") +
             ", prev: " +
             (prv == ParseResult::Missing ? "missing" : "corrupt") + ")");
}

std::size_t gcSnapshotDir(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      if (io::removeIfExists(entry.path().string())) ++removed;
    }
  }
  if (removed > 0) io::fsyncDir(dir);
  return removed;
}

}  // namespace posetrl
