/// \file io_fault_test.cpp
/// Robustness suite for the durability layer (DESIGN.md "Failure model"):
///
///   - unit tests of the support/io fault-injection shim itself,
///   - a crash-consistency model checker that enumerates EVERY syscall
///     boundary of a WAL-append / segment-rotation / snapshot-publish
///     sequence (plus mid-write torn variants) and asserts the documented
///     recovery invariants at each crash point,
///   - snapshot corruption tests: truncation at every byte offset and
///     single-bit flips must fall back to the previous generation,
///   - startup garbage collection of every orphan kind (empty WAL
///     segments, torn tails, snapshot tmp files, checkpoint tmp files),
///   - durability degradation: disk faults on the ingest path degrade to
///     counted no-durability mode and re-arm when the fault clears, and
///     CompileService keeps serving through an EIO/ENOSPC window.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "core/trainer.h"
#include "faults/checkpoint.h"
#include "ir/module.h"
#include "online/online_learner.h"
#include "online/snapshot.h"
#include "online/wal.h"
#include "rl/dqn.h"
#include "serve/service.h"
#include "support/error.h"
#include "support/io.h"
#include "support/rng.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

// --- helpers ---------------------------------------------------------------

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<Transition> makeEpisode(Rng& rng, std::size_t steps,
                                    std::size_t dim, std::size_t actions) {
  std::vector<Transition> ep;
  for (std::size_t i = 0; i < steps; ++i) {
    Transition t;
    for (std::size_t d = 0; d < dim; ++d) {
      t.state.push_back(rng.nextDouble(-1.0, 1.0));
      t.next_state.push_back(rng.nextDouble(-1.0, 1.0));
    }
    t.action = rng.nextBelow(actions);
    t.reward = rng.nextDouble(-2.0, 2.0);
    t.done = i + 1 == steps;
    ep.push_back(std::move(t));
  }
  annotateMonteCarloReturns(ep, 0.9);
  return ep;
}

EpisodeRecord makeRecord(Rng& rng, std::uint64_t request_id,
                         std::uint32_t shards) {
  EpisodeRecord rec;
  rec.shard = static_cast<std::uint32_t>(request_id % shards);
  rec.request_id = request_id;
  rec.policy_version = 1 + request_id % 3;
  rec.faults = static_cast<std::uint32_t>(request_id % 2);
  rec.steps = makeEpisode(rng, 2 + request_id % 3, 3, 4);
  return rec;
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void writeFileRaw(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  ASSERT_TRUE(os.good()) << path;
}

/// Overwrites one byte of an existing file in place. Loops that corrupt a
/// file thousands of times use this (and std::filesystem::resize_file)
/// rather than writeFileRaw: on ext4, closing a file that was truncated
/// and rewritten flushes it (auto_da_alloc), tens of milliseconds a time.
void writeByteAt(const std::string& path, std::size_t offset, char byte) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekp(static_cast<std::streamoff>(offset));
  fs.put(byte);
  ASSERT_TRUE(fs.good()) << path;
}

DqnConfig tinyDqnConfig() {
  DqnConfig cfg;
  cfg.state_dim = 6;
  cfg.num_actions = 4;
  cfg.hidden = {8};
  cfg.seed = 3;
  return cfg;
}

std::vector<std::uint64_t> replayedIds(const WalReplay& replay) {
  std::vector<std::uint64_t> ids;
  for (const EpisodeRecord& rec : replay.episodes) {
    ids.push_back(rec.request_id);
  }
  return ids;
}

/// Fails every operation of the listed kinds (optionally only for paths
/// containing \p path_substr) with one errno — a disk that is broken in one
/// specific way.
class FailOpsPolicy : public io::IoPolicy {
 public:
  FailOpsPolicy(std::vector<io::Op> ops, int errnum,
                std::string path_substr = "")
      : ops_(std::move(ops)), errnum_(errnum),
        path_substr_(std::move(path_substr)) {}

  int beforeOp(io::Op op, const std::string& path) override {
    for (io::Op target : ops_) {
      if (op != target) continue;
      if (!path_substr_.empty() &&
          path.find(path_substr_) == std::string::npos) {
        continue;
      }
      return errnum_;
    }
    return 0;
  }

 private:
  const std::vector<io::Op> ops_;
  const int errnum_;
  const std::string path_substr_;
};

/// Clamps every write to \p limit bytes (pure short-write disk, no errors).
class ShortWritePolicy : public io::IoPolicy {
 public:
  explicit ShortWritePolicy(std::size_t limit) : limit_(limit) {}
  std::size_t writeLimit(const std::string&, std::size_t nbytes) override {
    return nbytes < limit_ ? nbytes : limit_;
  }

 private:
  const std::size_t limit_;
};

// --- shim unit tests -------------------------------------------------------

TEST(IoShimTest, PassThroughWritesAndCountsOps) {
  const std::string dir = freshDir("io_passthrough");
  std::filesystem::create_directories(dir);
  io::resetStats();
  // Ops are only accounted while a policy is installed (the production
  // fast path skips the counters); TracePolicy injects nothing.
  io::TracePolicy trace;
  io::ScopedIoPolicy guard(&trace);
  io::IoFile f = io::IoFile::createTruncate(dir + "/a.bin");
  f.writeAll("hello");
  f.dataSync();
  f.close();
  EXPECT_EQ(readFile(dir + "/a.bin"), "hello");
  const io::Stats s = io::statsSnapshot();
  EXPECT_EQ(s.ops[static_cast<std::size_t>(io::Op::CreateFile)], 1u);
  EXPECT_EQ(s.ops[static_cast<std::size_t>(io::Op::Write)], 1u);
  EXPECT_EQ(s.ops[static_cast<std::size_t>(io::Op::DataSync)], 1u);
  EXPECT_EQ(s.ops[static_cast<std::size_t>(io::Op::CloseFile)], 1u);
  EXPECT_EQ(s.injected_failures, 0u);
}

TEST(IoShimTest, InjectedErrnoSurfacesAsIoErrorWithoutTouchingDisk) {
  const std::string dir = freshDir("io_inject");
  std::filesystem::create_directories(dir);
  io::IoFile f = io::IoFile::createTruncate(dir + "/a.bin");
  f.writeAll("keep");
  FailOpsPolicy policy({io::Op::Write}, ENOSPC);
  {
    io::ScopedIoPolicy guard(&policy);
    try {
      f.writeAll("lost");
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.errnum(), ENOSPC);
    }
  }
  f.close();
  // The injected failure fired BEFORE the syscall: nothing reached the file.
  EXPECT_EQ(readFile(dir + "/a.bin"), "keep");
}

TEST(IoShimTest, ShortWritesLoopToCompletion) {
  const std::string dir = freshDir("io_short");
  std::filesystem::create_directories(dir);
  io::resetStats();
  ShortWritePolicy policy(3);
  io::ScopedIoPolicy guard(&policy);
  io::IoFile f = io::IoFile::createTruncate(dir + "/a.bin");
  const std::string content = "0123456789abcdef";
  f.writeAll(content);
  f.close();
  EXPECT_EQ(readFile(dir + "/a.bin"), content);
  // 16 bytes at <=3 per write: at least 6 physical writes, 5+ short.
  const io::Stats s = io::statsSnapshot();
  EXPECT_GE(s.ops[static_cast<std::size_t>(io::Op::Write)], 6u);
  EXPECT_GE(s.short_writes, 5u);
}

TEST(IoShimTest, FaultWindowInjectsThenHeals) {
  const std::string dir = freshDir("io_window");
  std::filesystem::create_directories(dir);
  io::FaultWindowPolicy policy(/*fail_from=*/2, /*fail_count=*/3, EIO);
  io::ScopedIoPolicy guard(&policy);
  io::IoFile f = io::IoFile::createTruncate(dir + "/a.bin");  // op 0
  f.writeAll("a");                                            // op 1
  EXPECT_THROW(f.writeAll("b"), IoError);                     // ops 2..4 fail
  EXPECT_THROW(f.dataSync(), IoError);
  EXPECT_THROW(f.writeAll("c"), IoError);
  EXPECT_TRUE(policy.healed());
  f.writeAll("d");  // past the window: the disk works again
  f.close();
  EXPECT_EQ(readFile(dir + "/a.bin"), "ad");
  EXPECT_EQ(policy.injected(), 3u);
}

TEST(IoShimTest, AtomicDurableWriteUnlinksTmpOnFailure) {
  const std::string dir = freshDir("io_atomic");
  std::filesystem::create_directories(dir);
  const std::string target = dir + "/file.txt";
  io::writeFileAtomicDurable(target, "old");
  for (const io::Op failing :
       {io::Op::Write, io::Op::DataSync, io::Op::CloseFile, io::Op::Rename}) {
    FailOpsPolicy policy({failing}, EIO, "file.txt");
    io::ScopedIoPolicy guard(&policy);
    EXPECT_THROW(io::writeFileAtomicDurable(target, "new"), IoError)
        << io::opName(failing);
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp"))
        << "orphan tmp after failed " << io::opName(failing);
  }
  // Every failure mode left the previous content untouched.
  EXPECT_EQ(readFile(target), "old");
}

TEST(IoShimTest, CrashPointFreezesAllLaterOperations) {
  const std::string dir = freshDir("io_crashpoint");
  std::filesystem::create_directories(dir);
  io::CrashPointPolicy policy(/*crash_at=*/2);
  io::ScopedIoPolicy guard(&policy);
  io::IoFile f = io::IoFile::createTruncate(dir + "/a.bin");  // op 0
  f.writeAll("x");                                            // op 1
  EXPECT_THROW(f.writeAll("y"), IoError);                     // op 2: crash
  EXPECT_THROW(f.dataSync(), IoError);  // dead forever after
  EXPECT_TRUE(policy.crashed());
  EXPECT_THROW(f.close(), IoError);  // fd released; the failure reported
  EXPECT_FALSE(f.isOpen());
  EXPECT_EQ(readFile(dir + "/a.bin"), "x");
}

// --- WAL startup repair ----------------------------------------------------

TEST(WalRepairTest, StartupRemovesEmptySegmentsAndTruncatesTornTail) {
  const std::string dir = freshDir("wal_repair");
  Rng rng(31);
  std::vector<EpisodeRecord> written;
  {
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 3; ++i) {
      written.push_back(makeRecord(rng, i, 4));
      wal.append(written.back());
    }
  }
  // Simulate a crash: torn frame on the live segment, then two segments a
  // dying writer created but never filled.
  const std::vector<std::string> files = walSegmentFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream os(files[0], std::ios::binary | std::ios::app);
    os << "torn-frame-garbage";
  }
  writeFileRaw(dir + "/wal-000002.log", "");
  writeFileRaw(dir + "/wal-000003.log", "");

  WalConfig cfg;
  cfg.dir = dir;
  TrajectoryWal wal(cfg);
  EXPECT_EQ(wal.stats().gc_removed_segments, 2u);
  EXPECT_EQ(wal.stats().repaired_torn_bytes, std::strlen("torn-frame-garbage"));
  wal.append(makeRecord(rng, 99, 4));
  wal.sync();

  const WalReplay replay = replayWal(dir);
  EXPECT_FALSE(replay.torn_tail);  // the repair removed it for good
  ASSERT_EQ(replay.records_read, 4u);
  EXPECT_EQ(replay.episodes.back().request_id, 99u);
}

TEST(WalRepairTest, ReplayToleratesTornTailFollowedByEmptySegments) {
  // Crash during rotation: the outgoing segment keeps a torn tail and the
  // incoming segment was created but never written. Replay must treat the
  // torn frame as the logical end of the log, not as mid-log corruption.
  const std::string dir = freshDir("wal_rotation_crash");
  Rng rng(32);
  {
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 2; ++i) wal.append(makeRecord(rng, i, 4));
  }
  {
    std::ofstream os(walSegmentFiles(dir)[0], std::ios::binary | std::ios::app);
    os << "torn";
  }
  writeFileRaw(dir + "/wal-000002.log", "");
  const WalReplay replay = replayWal(dir);
  EXPECT_EQ(replay.records_read, 2u);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.torn_bytes, 4u);
}

TEST(WalRepairTest, ReplayStillRejectsCorruptionMidLog) {
  // Intact records AFTER a torn frame mean corruption, never a crash
  // signature — replaying past it would silently drop the damaged records.
  const std::string dir = freshDir("wal_midlog_corrupt");
  Rng rng(33);
  {
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);
    wal.append(makeRecord(rng, 0, 4));
  }
  {
    std::ofstream os(walSegmentFiles(dir)[0], std::ios::binary | std::ios::app);
    os << "torn";
  }
  {
    WalConfig cfg;
    cfg.dir = dir;
    // Opening a writer would repair the tail; craft the follow-up segment by
    // hand instead to freeze the corrupt state.
  }
  const std::string intact = readFile(walSegmentFiles(dir)[0]);
  writeFileRaw(dir + "/wal-000002.log", intact.substr(0, intact.size() - 4));
  EXPECT_THROW(replayWal(dir), FatalError);
}

TEST(WalRepairTest, DoubleCrashStaysRecoverableThroughWriterRepair) {
  // Crash #1 leaves a torn tail; the restarted writer repairs it, appends,
  // and crash #2 leaves a second torn tail — at every stage the log replays.
  const std::string dir = freshDir("wal_double_crash");
  Rng rng(34);
  {
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 2; ++i) wal.append(makeRecord(rng, i, 4));
  }
  auto tear = [&](const std::string& garbage) {
    const std::vector<std::string> files = walSegmentFiles(dir);
    std::ofstream os(files.back(), std::ios::binary | std::ios::app);
    os << garbage;
  };
  tear("first-crash");
  {
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);  // repairs segment 1, opens segment 2
    EXPECT_EQ(wal.stats().repaired_torn_bytes, std::strlen("first-crash"));
    wal.append(makeRecord(rng, 2, 4));
    wal.sync();
  }
  tear("second-crash");
  const WalReplay replay = replayWal(dir);  // must not raise
  EXPECT_EQ(replay.records_read, 3u);
  EXPECT_TRUE(replay.torn_tail);
  // And a third writer heals the log completely.
  WalConfig cfg;
  cfg.dir = dir;
  TrajectoryWal wal(cfg);
  EXPECT_EQ(wal.stats().repaired_torn_bytes, std::strlen("second-crash"));
  EXPECT_FALSE(replayWal(dir).torn_tail);
}

// --- crash-consistency model checker ---------------------------------------
//
// One scripted durability scenario — WAL appends across a forced segment
// rotation, then a snapshot publish — executed once per syscall boundary
// under a CrashPointPolicy that freezes the disk exactly as a process
// killed at that syscall would leave it. After each simulated crash, the
// recovery invariants are asserted:
//
//   I1  replay never raises (no crash point corrupts the log),
//   I2  every acknowledged record is replayed, in append order,
//   I3  replayed records are exactly a prefix of the attempted sequence
//       (no torn non-final record is accepted, nothing is reordered),
//   I4  the snapshot pointer never references a half-written file: loading
//       yields a fully verified generation — the new version when its save
//       was acknowledged, otherwise the new or previous version,
//   I5  a fresh writer over the crashed state repairs it: one more append
//       and a second replay succeed with no torn tail.

struct CrashScenarioResult {
  std::size_t attempted = 0;  ///< Appends invoked (ids 0..attempted-1).
  std::size_t acked = 0;      ///< Appends that returned without raising.
  bool snapshot_acked = false;
};

constexpr std::uint64_t kScenarioSeed = 91;

CrashScenarioResult runCrashScenario(const std::string& dir) {
  CrashScenarioResult result;
  Rng rng(kScenarioSeed);
  WalConfig cfg;
  cfg.dir = dir + "/wal";
  cfg.segment_bytes = 256;     // rotate every couple of records
  cfg.sync_every_records = 1;  // every append crosses a sync boundary
  std::unique_ptr<TrajectoryWal> wal;
  try {
    wal = std::make_unique<TrajectoryWal>(cfg);
  } catch (const FatalError&) {
    return result;  // crashed before the log even opened
  }
  for (std::uint64_t i = 0; i < 6; ++i) {
    const EpisodeRecord rec = makeRecord(rng, i, 3);
    ++result.attempted;
    try {
      wal->append(rec);
      ++result.acked;
    } catch (const FatalError&) {
      // First failure degrades ingestion (mirrors OnlineLearner) — no
      // further appends reach this writer.
      break;
    }
  }
  DoubleDqn agent(tinyDqnConfig());
  const PolicySnapshot snap(2, 0, agent.onlineNet());
  try {
    savePolicySnapshotFile(dir, snap);
    result.snapshot_acked = true;
  } catch (const FatalError&) {
  }
  return result;
}

void checkCrashPoint(std::size_t crash_at, double partial_write,
                     const std::string& dir) {
  SCOPED_TRACE("crash_at=" + std::to_string(crash_at) +
               " partial=" + std::to_string(partial_write));
  // Phase 1 (before the crash window): a durable incumbent snapshot.
  DoubleDqn agent(tinyDqnConfig());
  const PolicySnapshot incumbent(1, 0, agent.onlineNet());
  savePolicySnapshotFile(dir, incumbent);

  // Phase 2: the scenario, dying at syscall `crash_at`.
  CrashScenarioResult result;
  io::CrashPointPolicy policy(crash_at, partial_write);
  {
    io::ScopedIoPolicy guard(&policy);
    result = runCrashScenario(dir);
  }

  // --- recovery (the disk works again; the process restarted) ---
  WalReplay replay;
  ASSERT_NO_THROW(replay = replayWal(dir + "/wal"));  // I1
  const std::vector<std::uint64_t> ids = replayedIds(replay);
  ASSERT_GE(ids.size(), result.acked) << "acknowledged record lost";  // I2
  ASSERT_LE(ids.size(), result.attempted);                            // I3
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i) << "replay is not an ordered prefix";  // I2+I3
  }

  PersistedSnapshot persisted;
  ASSERT_TRUE(loadPolicySnapshotFile(dir, &persisted));  // I4
  EXPECT_TRUE(persisted.version == 1 || persisted.version == 2)
      << persisted.version;
  if (result.snapshot_acked) {
    EXPECT_EQ(persisted.version, 2u);
  }
  {
    // The loaded generation must be whole: its blob parses as a network.
    ScopedFaultTrap trap;
    Mlp net = agent.onlineNet();
    std::istringstream blob(persisted.net_blob);
    ASSERT_NO_THROW(net.load(blob));
    EXPECT_EQ(hashMlpWeights(net), persisted.hash);
  }

  // I5: the crashed state is fully writable again after writer repair.
  {
    WalConfig cfg;
    cfg.dir = dir + "/wal";
    TrajectoryWal wal(cfg);
    Rng rng(7);
    wal.append(makeRecord(rng, 1000, 3));
    wal.sync();
  }
  WalReplay after;
  ASSERT_NO_THROW(after = replayWal(dir + "/wal"));
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.episodes.size(), ids.size() + 1);
  EXPECT_EQ(after.episodes.back().request_id, 1000u);
}

/// Counts the syscalls the un-faulted scenario issues, so the enumeration
/// below provably covers every boundary (plus one control point past the
/// end where nothing fails). \p dir_name must be private to the calling
/// test: ctest runs the tests as concurrent processes, and two of them
/// sharing one directory delete it under each other.
std::size_t scenarioOpCount(const std::string& dir_name) {
  const std::string dir = freshDir(dir_name);
  DoubleDqn agent(tinyDqnConfig());
  const PolicySnapshot incumbent(1, 0, agent.onlineNet());
  savePolicySnapshotFile(dir, incumbent);
  io::TracePolicy trace;
  io::ScopedIoPolicy guard(&trace);
  const CrashScenarioResult result = runCrashScenario(dir);
  EXPECT_EQ(result.acked, 6u);
  EXPECT_TRUE(result.snapshot_acked);
  return trace.trace().size();
}

TEST(CrashConsistencyTest, EveryCrashPointRecovers) {
  const std::size_t total_ops = scenarioOpCount("crash_pt_trace");
  ASSERT_GT(total_ops, 20u) << "scenario lost its syscall coverage";
  for (std::size_t crash_at = 0; crash_at <= total_ops; ++crash_at) {
    checkCrashPoint(crash_at, /*partial_write=*/0.0,
                    freshDir("crash_pt_" + std::to_string(crash_at)));
  }
}

TEST(CrashConsistencyTest, EveryCrashPointRecoversWithTornWrite) {
  // Same enumeration, but a Write landing on the crash point goes through
  // half-finished first — the power-loss-mid-write variant. Every write
  // boundary in the scenario is thereby exercised as a torn frame.
  const std::size_t total_ops = scenarioOpCount("crash_torn_trace");
  for (std::size_t crash_at = 0; crash_at <= total_ops; ++crash_at) {
    checkCrashPoint(crash_at, /*partial_write=*/0.5,
                    freshDir("crash_torn_" + std::to_string(crash_at)));
  }
}

// --- snapshot corruption ---------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  /// Publishes versions 1 then 2, so `current` is v2 and `prev` is v1.
  void publishTwoGenerations(const std::string& dir) {
    DoubleDqn agent(tinyDqnConfig());
    const PolicySnapshot v1(1, 0, agent.onlineNet());
    savePolicySnapshotFile(dir, v1);
    Mlp net2 = agent.onlineNet();
    // Nudge one weight so v2's content genuinely differs from v1's.
    std::ostringstream os;
    net2.save(os);
    const PolicySnapshot v2(2, v1.hash, std::move(net2));
    savePolicySnapshotFile(dir, v2);
    current_path_ = dir + "/snapshot-current.txt";
    current_bytes_ = readFile(current_path_);
    PersistedSnapshot check;
    ASSERT_TRUE(loadPolicySnapshotFile(dir, &check));
    ASSERT_EQ(check.version, 2u);
    ASSERT_FALSE(check.from_fallback);
  }

  std::string current_path_;
  std::string current_bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncationAtEveryOffsetFallsBackToPrev) {
  const std::string dir = freshDir("snap_truncate");
  publishTwoGenerations(dir);
  // Shrinking in place visits every length without rewriting the file.
  for (std::size_t len = current_bytes_.size(); len-- > 0;) {
    std::filesystem::resize_file(current_path_, len);
    PersistedSnapshot out;
    ASSERT_TRUE(loadPolicySnapshotFile(dir, &out)) << "truncated at " << len;
    EXPECT_EQ(out.version, 1u) << "truncated at " << len;
    EXPECT_TRUE(out.from_fallback) << "truncated at " << len;
  }
  // Restored in full, the current generation loads again.
  writeFileRaw(current_path_, current_bytes_);
  PersistedSnapshot out;
  ASSERT_TRUE(loadPolicySnapshotFile(dir, &out));
  EXPECT_EQ(out.version, 2u);
}

TEST_F(SnapshotCorruptionTest, SingleBitFlipsFallBackToPrev) {
  const std::string dir = freshDir("snap_bitflip");
  publishTwoGenerations(dir);
  // Every bit of the header and the blob edges, plus a stride through the
  // middle, keeps the test fast while covering each field and region.
  const std::size_t size = current_bytes_.size();
  const std::size_t header_end = current_bytes_.find('\n') + 1;
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < header_end; ++i) offsets.push_back(i);
  for (std::size_t i = header_end; i < size; i += 7) offsets.push_back(i);
  offsets.push_back(size - 1);
  for (const std::size_t offset : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      const char original = current_bytes_[offset];
      writeByteAt(current_path_, offset,
                  static_cast<char>(original ^ (1 << bit)));
      PersistedSnapshot out;
      ASSERT_TRUE(loadPolicySnapshotFile(dir, &out))
          << "bit " << bit << " at offset " << offset;
      EXPECT_EQ(out.version, 1u) << "bit " << bit << " at offset " << offset;
      EXPECT_TRUE(out.from_fallback);
      writeByteAt(current_path_, offset, original);
    }
  }
}

TEST_F(SnapshotCorruptionTest, BothGenerationsCorruptRaisesRecoverably) {
  const std::string dir = freshDir("snap_both_corrupt");
  publishTwoGenerations(dir);
  writeFileRaw(current_path_, "garbage");
  writeFileRaw(dir + "/snapshot-prev.txt", "more garbage");
  PersistedSnapshot out;
  EXPECT_THROW(loadPolicySnapshotFile(dir, &out), FatalError);
}

TEST_F(SnapshotCorruptionTest, MissingCurrentFallsBackToPrev) {
  // The crash window of savePolicySnapshotFile between the current->prev
  // rotation and the publish of the new file.
  const std::string dir = freshDir("snap_missing_current");
  publishTwoGenerations(dir);
  std::filesystem::remove(current_path_);
  PersistedSnapshot out;
  ASSERT_TRUE(loadPolicySnapshotFile(dir, &out));
  EXPECT_EQ(out.version, 1u);
  EXPECT_TRUE(out.from_fallback);
}

TEST_F(SnapshotCorruptionTest, LearnerReseedsOnTotalSnapshotLoss) {
  const std::string dir = freshDir("snap_reseed");
  publishTwoGenerations(dir);
  writeFileRaw(current_path_, "garbage");
  writeFileRaw(dir + "/snapshot-prev.txt", "more garbage");
  // The learner must come up serving a fresh version 1 instead of aborting.
  DoubleDqn seed(tinyDqnConfig());
  OnlineLearnerConfig cfg;
  cfg.dir = dir;
  cfg.num_shards = 2;
  cfg.promote_every = 0;
  cfg.env.embedding.dim = 6;
  cfg.env.episode_length = 3;
  OnlineLearner learner(seed, manualSubSequences(), cfg);
  EXPECT_TRUE(learner.stats().snapshot_reseeded);
  EXPECT_EQ(learner.currentVersion(), 1u);
}

TEST_F(SnapshotCorruptionTest, LearnerServesFallbackGeneration) {
  const std::string dir = freshDir("snap_learner_fallback");
  publishTwoGenerations(dir);
  writeFileRaw(current_path_, "garbage");
  DoubleDqn seed(tinyDqnConfig());
  OnlineLearnerConfig cfg;
  cfg.dir = dir;
  cfg.num_shards = 2;
  cfg.promote_every = 0;
  cfg.env.embedding.dim = 6;
  cfg.env.episode_length = 3;
  OnlineLearner learner(seed, manualSubSequences(), cfg);
  EXPECT_TRUE(learner.stats().snapshot_from_fallback);
  EXPECT_FALSE(learner.stats().snapshot_reseeded);
  EXPECT_EQ(learner.currentVersion(), 1u);
}

// --- startup garbage collection --------------------------------------------

TEST(OrphanGcTest, SnapshotDirTmpFilesAreSwept) {
  const std::string dir = freshDir("gc_snapshot");
  std::filesystem::create_directories(dir);
  writeFileRaw(dir + "/snapshot-current.txt.tmp", "half-written");
  writeFileRaw(dir + "/other.tmp", "junk");
  writeFileRaw(dir + "/keep.txt", "not a tmp");
  EXPECT_EQ(gcSnapshotDir(dir), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-current.txt.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/other.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/keep.txt"));
  EXPECT_EQ(gcSnapshotDir(dir), 0u);          // idempotent
  EXPECT_EQ(gcSnapshotDir(dir + "/nope"), 0u);  // missing dir is fine
}

TEST(OrphanGcTest, LearnerStartupSweepsSnapshotTmp) {
  const std::string dir = freshDir("gc_learner");
  std::filesystem::create_directories(dir);
  writeFileRaw(dir + "/snapshot-current.txt.tmp", "half-written");
  DoubleDqn seed(tinyDqnConfig());
  OnlineLearnerConfig cfg;
  cfg.dir = dir;
  cfg.num_shards = 2;
  cfg.promote_every = 0;
  cfg.env.embedding.dim = 6;
  cfg.env.episode_length = 3;
  OnlineLearner learner(seed, manualSubSequences(), cfg);
  EXPECT_EQ(learner.stats().startup_gc_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-current.txt.tmp"));
}

TEST(OrphanGcTest, CheckpointTmpIsSwept) {
  const std::string dir = freshDir("gc_checkpoint");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/train.ckpt";
  writeFileRaw(path + ".tmp", "half-written");
  EXPECT_EQ(gcCheckpointTmp(path), 1u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(gcCheckpointTmp(path), 0u);
}

TEST(OrphanGcTest, FailedCheckpointRenameUnlinksTmp) {
  const std::string dir = freshDir("gc_ckpt_rename");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/train.ckpt";
  TrainerCheckpoint ckpt;
  ckpt.steps = 3;
  ckpt.agent_blob = "blob";
  saveCheckpointFile(path, ckpt);
  const std::string before = readFile(path);
  FailOpsPolicy policy({io::Op::Rename}, EIO);
  {
    io::ScopedIoPolicy guard(&policy);
    ckpt.steps = 4;
    EXPECT_THROW(saveCheckpointFile(path, ckpt), IoError);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(readFile(path), before);  // previous checkpoint intact
  EXPECT_EQ(loadCheckpointFile(path).steps, 3u);
}

// WAL empty-segment and torn-tail GC is covered by WalRepairTest above.

// --- durability degradation ------------------------------------------------

class DegradationTest : public ::testing::Test {
 protected:
  OnlineLearnerConfig learnerConfig(const std::string& dir) {
    OnlineLearnerConfig cfg;
    cfg.dir = dir;
    cfg.num_shards = 2;
    cfg.shard_capacity = 64;
    cfg.promote_every = 0;
    cfg.env.embedding.dim = 6;
    cfg.env.episode_length = 3;
    cfg.durability_retry_initial_ms = 0;  // probe on the next ingest
    return cfg;
  }
};

TEST_F(DegradationTest, WalFailureDegradesInsteadOfThrowing) {
  const std::string dir = freshDir("degrade_basic");
  DoubleDqn seed(tinyDqnConfig());
  OnlineLearnerConfig cfg = learnerConfig(dir);
  cfg.durability_retry_initial_ms = 60000;  // no re-arm within this test
  OnlineLearner learner(seed, manualSubSequences(), cfg);
  learner.start();
  Rng rng(41);
  FailOpsPolicy policy({io::Op::Write}, ENOSPC, "wal-");
  {
    io::ScopedIoPolicy guard(&policy);
    EXPECT_NO_THROW(learner.ingest(makeRecord(rng, 0, 2)));
    EXPECT_NO_THROW(learner.ingest(makeRecord(rng, 1, 2)));
  }
  // Still degraded after the fault cleared: the backoff deadline gates.
  learner.ingest(makeRecord(rng, 2, 2));
  const OnlineStats stats = learner.stats();
  EXPECT_TRUE(stats.durability_degraded);
  EXPECT_EQ(stats.wal_failures, 1u);
  EXPECT_EQ(stats.ingest_dropped, 3u);
  EXPECT_EQ(stats.ingested_episodes, 0u);
  EXPECT_EQ(stats.durability_rearms, 0u);
  learner.stop();
}

TEST_F(DegradationTest, ReArmsAfterFaultClearsAndRecoversDurably) {
  const std::string dir = freshDir("degrade_rearm");
  DoubleDqn seed(tinyDqnConfig());
  Rng rng(42);
  std::vector<EpisodeRecord> kept;
  {
    OnlineLearner learner(seed, manualSubSequences(), learnerConfig(dir));
    learner.start();
    kept.push_back(makeRecord(rng, 0, 2));
    learner.ingest(kept.back());  // durable, before the fault
    FailOpsPolicy policy({io::Op::Write}, EIO, "wal-");
    {
      io::ScopedIoPolicy guard(&policy);
      learner.ingest(makeRecord(rng, 1, 2));  // degrades, dropped
      learner.ingest(makeRecord(rng, 2, 2));  // probe re-arms the writer
      // (create succeeds) but the append still hits the dead disk: dropped.
    }
    kept.push_back(makeRecord(rng, 3, 2));
    learner.ingest(kept.back());  // fault cleared: probes, re-arms, durable
    const OnlineStats stats = learner.stats();
    EXPECT_FALSE(stats.durability_degraded);
    EXPECT_GE(stats.durability_rearms, 1u);
    EXPECT_EQ(stats.ingest_dropped, 2u);
    EXPECT_EQ(stats.ingested_episodes, 2u);
    learner.drain();
    learner.stop();
  }
  // The WAL holds exactly the durable episodes: a restart recovers both.
  OnlineLearner recovered(seed, manualSubSequences(), learnerConfig(dir));
  EXPECT_EQ(recovered.stats().recovered_records, kept.size());
}

TEST_F(DegradationTest, SnapshotPersistFailureDoesNotBlockPromotion) {
  const std::string dir = freshDir("degrade_snapshot");
  DoubleDqn seed(tinyDqnConfig());
  OnlineLearner learner(seed, manualSubSequences(), learnerConfig(dir));
  FailOpsPolicy policy({io::Op::CreateFile}, ENOSPC, "snapshot-");
  std::uint64_t version = 0;
  {
    io::ScopedIoPolicy guard(&policy);
    version = learner.forcePromote(seed.onlineNet());
  }
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(learner.currentVersion(), 2u);  // served in memory regardless
  EXPECT_EQ(learner.stats().snapshot_persist_failures, 1u);
  // A restart resumes from the last snapshot that reached the disk (v1).
  OnlineLearner recovered(seed, manualSubSequences(), learnerConfig(dir));
  EXPECT_EQ(recovered.currentVersion(), 1u);
}

TEST_F(DegradationTest, ComesUpDegradedWhenDiskRefusesAtStartup) {
  const std::string dir = freshDir("degrade_startup");
  DoubleDqn seed(tinyDqnConfig());
  FailOpsPolicy policy({io::Op::CreateFile}, EIO, "wal-");
  std::unique_ptr<OnlineLearner> learner;
  {
    io::ScopedIoPolicy guard(&policy);
    // The WAL cannot open, but the service must still come up and serve.
    learner = std::make_unique<OnlineLearner>(seed, manualSubSequences(),
                                              learnerConfig(dir));
  }
  EXPECT_TRUE(learner->stats().durability_degraded);
  EXPECT_EQ(learner->currentVersion(), 1u);
  learner->start();
  // The disk healed: the next ingest re-arms and lands durably.
  Rng rng(43);
  learner->ingest(makeRecord(rng, 0, 2));
  EXPECT_FALSE(learner->stats().durability_degraded);
  EXPECT_EQ(learner->stats().durability_rearms, 1u);
  EXPECT_EQ(learner->stats().ingested_episodes, 1u);
  learner->drain();
  learner->stop();
}

// --- serve-path degradation (end to end) ------------------------------------

TEST(ServeDegradationTest, ServiceSurvivesDiskFaultWindow) {
  const std::string dir = freshDir("serve_degrade");

  ProgramSpec spec;
  spec.name = "serve_degrade_prog";
  spec.seed = 78;
  spec.kernels = 2;
  const std::unique_ptr<Module> program = generateProgram(spec);
  const std::vector<const Module*> corpus = {program.get()};

  std::vector<SubSequence> actions = manualSubSequences();
  TrainConfig tcfg;
  tcfg.total_steps = 20;
  tcfg.seed = 6;
  tcfg.actions = &actions;
  tcfg.agent.num_actions = actions.size();
  tcfg.env.embedding.dim = 24;
  tcfg.agent.state_dim = 24;
  tcfg.env.episode_length = 3;
  const TrainResult trained = trainAgent(corpus, tcfg);

  OnlineLearnerConfig ocfg;
  ocfg.dir = dir;
  ocfg.num_shards = 2;
  ocfg.promote_every = 0;
  ocfg.env = tcfg.env;
  ocfg.durability_retry_initial_ms = 0;
  OnlineLearner learner(*trained.agent, actions, ocfg);
  learner.start();

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.env = tcfg.env;
  scfg.online = &learner;
  CompileService service(*trained.agent, actions, scfg);

  // Phase 1: the WAL disk dies under live traffic.
  FailOpsPolicy policy({io::Op::Write, io::Op::DataSync, io::Op::CreateFile},
                       ENOSPC, "wal-");
  std::size_t ok = 0;
  {
    io::ScopedIoPolicy guard(&policy);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(service.submit(*program, Deadline::afterMillis(8000)));
    }
    for (auto& f : futures) {
      if (f.get().status == ServeStatus::Ok) ++ok;
    }
  }
  // Zero durability-attributable request failures.
  EXPECT_EQ(ok, 4u);
  EXPECT_TRUE(learner.stats().durability_degraded);
  EXPECT_GT(learner.stats().ingest_dropped, 0u);

  // Phase 2: the disk heals; ingestion re-arms and lands durably again.
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(*program, Deadline::afterMillis(8000)));
  }
  for (auto& f : futures) {
    if (f.get().status == ServeStatus::Ok) ++ok;
  }
  EXPECT_EQ(ok, 7u);
  service.shutdown();
  learner.drain();
  learner.stop();

  const OnlineStats stats = learner.stats();
  EXPECT_FALSE(stats.durability_degraded);
  EXPECT_GE(stats.durability_rearms, 1u);
  EXPECT_GT(stats.ingested_episodes, 0u);
  EXPECT_EQ(stats.ingested_episodes, learner.walStats().records);

  // Recovery only replays what was durably acked — and all of it.
  OnlineLearner recovered(*trained.agent, actions, ocfg);
  EXPECT_EQ(recovered.stats().recovered_records, stats.ingested_episodes);
}

}  // namespace
}  // namespace posetrl
