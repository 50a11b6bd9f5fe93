#include "online/snapshot.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "rl/dqn.h"
#include "support/error.h"
#include "support/hashing.h"
#include "support/io.h"

namespace posetrl {

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

SnapshotRegistry::Pin SnapshotRegistry::pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::uint64_t SnapshotRegistry::publish(std::unique_ptr<PolicySnapshot> snap) {
  POSETRL_CHECK(snap != nullptr, "publish of a null snapshot");
  const std::uint64_t version = snap->version;
  Pin outgoing;  // Declared before the lock: freed after it is released.
  std::lock_guard<std::mutex> lock(mu_);
  const auto t0 = std::chrono::steady_clock::now();
  POSETRL_CHECK(version > (current_ != nullptr ? current_->version : 0),
                "snapshot versions must be strictly increasing");
  outgoing = std::exchange(current_, Pin(std::move(snap)));
  ++stats_.published;
  stats_.last_publish_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  return version;
}

std::uint64_t SnapshotRegistry::currentVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->version : 0;
}

SnapshotRegistry::Stats SnapshotRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
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
