/// \file online_test.cpp
/// Tests for the online-learning subsystem (DESIGN.md "Online learning and
/// policy lifecycle"): WAL framing, segment rotation, torn-tail recovery at
/// every truncation offset, mid-log corruption detection; the snapshot
/// registry (pin semantics, lifetime of superseded snapshots, concurrent
/// swap churn); the canary gate; the promotion watchdog state machine; and
/// OnlineLearner crash recovery (bit-exact replay-shard reconstruction,
/// snapshot persistence, automatic rollback) plus the CompileService
/// end-to-end ingest loop and its per-request policy pinning under
/// hot-swaps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/oz_sequence.h"
#include "core/trainer.h"
#include "faults/injection.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "online/canary.h"
#include "online/online_learner.h"
#include "online/snapshot.h"
#include "online/wal.h"
#include "online/watchdog.h"
#include "passes/all_passes.h"
#include "passes/pass.h"
#include "rl/dqn.h"
#include "serve/service.h"
#include "support/error.h"
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

std::string saveShard(const ShardedReplayBuffer& buffer, std::size_t shard) {
  std::ostringstream os;
  buffer.shard(shard).save(os);
  return os.str();
}

/// Pushes \p episodes (in order) into a fresh sharded buffer and serializes
/// every shard — the reference for bit-exact recovery comparisons.
std::vector<std::string> shardImages(
    const std::vector<EpisodeRecord>& episodes, std::size_t num_shards,
    std::size_t capacity) {
  ShardedReplayBuffer buffer(num_shards, capacity);
  for (const EpisodeRecord& rec : episodes) {
    buffer.pushEpisode(rec.shard % num_shards, rec.steps);
  }
  std::vector<std::string> images;
  for (std::size_t s = 0; s < num_shards; ++s) {
    images.push_back(saveShard(buffer, s));
  }
  return images;
}

// --- WAL framing and replay ------------------------------------------------

TEST(WalTest, EpisodeRecordRoundtrip) {
  Rng rng(7);
  const EpisodeRecord rec = makeRecord(rng, 42, 4);
  const std::string payload = encodeEpisodeRecord(rec);
  const EpisodeRecord back = decodeEpisodeRecord(payload);
  EXPECT_EQ(back.shard, rec.shard);
  EXPECT_EQ(back.request_id, rec.request_id);
  EXPECT_EQ(back.policy_version, rec.policy_version);
  EXPECT_EQ(back.faults, rec.faults);
  ASSERT_EQ(back.steps.size(), rec.steps.size());
  for (std::size_t i = 0; i < rec.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].state, rec.steps[i].state);
    EXPECT_EQ(back.steps[i].action, rec.steps[i].action);
    EXPECT_EQ(back.steps[i].reward, rec.steps[i].reward);
    EXPECT_EQ(back.steps[i].next_state, rec.steps[i].next_state);
    EXPECT_EQ(back.steps[i].done, rec.steps[i].done);
    EXPECT_EQ(back.steps[i].mc_return, rec.steps[i].mc_return);
    EXPECT_EQ(back.steps[i].use_mc, rec.steps[i].use_mc);
  }
}

TEST(WalTest, DecodeRejectsMalformedPayload) {
  Rng rng(8);
  std::string payload = encodeEpisodeRecord(makeRecord(rng, 1, 4));
  EXPECT_THROW(decodeEpisodeRecord(payload.substr(0, payload.size() - 1)),
               FatalError);
  EXPECT_THROW(decodeEpisodeRecord(payload + "x"), FatalError);
}

TEST(WalTest, AppendReplayRoundtrip) {
  const std::string dir = freshDir("wal_roundtrip");
  Rng rng(11);
  std::vector<EpisodeRecord> written;
  {
    WalConfig cfg;
    cfg.dir = dir;
    cfg.sync_every_records = 2;
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 9; ++i) {
      written.push_back(makeRecord(rng, i, 4));
      wal.append(written.back());
    }
    EXPECT_EQ(wal.stats().records, 9u);
  }
  const WalReplay replay = replayWal(dir);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records_read, 9u);
  ASSERT_EQ(replay.episodes.size(), 9u);
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replay.episodes[i].request_id, written[i].request_id);
    EXPECT_EQ(encodeEpisodeRecord(replay.episodes[i]),
              encodeEpisodeRecord(written[i]));
  }
}

TEST(WalTest, RotatesSegmentsAndRestartsOnFreshSegment) {
  const std::string dir = freshDir("wal_rotate");
  Rng rng(12);
  {
    WalConfig cfg;
    cfg.dir = dir;
    cfg.segment_bytes = 256;  // force rotation every couple of records
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) wal.append(makeRecord(rng, i, 4));
    EXPECT_GT(wal.stats().segments_created, 1u);
  }
  // The first writer's final rotation may have left an empty tail segment;
  // a restarted writer garbage-collects those before opening its own.
  std::vector<std::string> before = walSegmentFiles(dir);
  std::size_t empty_tail = 0;
  while (empty_tail < before.size() &&
         std::filesystem::file_size(before[before.size() - 1 - empty_tail]) ==
             0) {
    ++empty_tail;
  }
  {
    // A restarted writer must never append to an existing segment (its tail
    // may be torn) — it GCs empty leftovers and opens a fresh segment even
    // when idle.
    WalConfig cfg;
    cfg.dir = dir;
    TrajectoryWal wal(cfg);
    EXPECT_EQ(wal.stats().gc_removed_segments, empty_tail);
    EXPECT_EQ(walSegmentFiles(dir).size(), before.size() - empty_tail + 1);
    wal.append(makeRecord(rng, 99, 4));
  }
  const WalReplay replay = replayWal(dir);
  EXPECT_EQ(replay.records_read, 9u);
  EXPECT_EQ(replay.episodes.back().request_id, 99u);
}

TEST(WalTest, TornTailToleratedAtEveryTruncationOffset) {
  const std::string dir = freshDir("wal_torn");
  Rng rng(13);
  std::vector<EpisodeRecord> written;
  {
    WalConfig cfg;
    cfg.dir = dir;
    cfg.sync_every_records = 1;
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 4; ++i) {
      written.push_back(makeRecord(rng, i, 2));
      wal.append(written.back());
    }
  }
  const std::vector<std::string> segments = walSegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string full;
  {
    std::ifstream is(segments[0], std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    full = os.str();
  }
  // Byte offset where the final record's frame starts.
  std::size_t final_frame_start = 0;
  for (std::size_t i = 0; i + 1 < written.size(); ++i) {
    final_frame_start += 16 + encodeEpisodeRecord(written[i]).size();
  }
  ASSERT_LT(final_frame_start, full.size());

  const std::vector<EpisodeRecord> prefix(written.begin(), written.end() - 1);
  const std::vector<std::string> want = shardImages(prefix, 2, 64);

  // kill -9 can truncate the final frame at any byte: every prefix must
  // replay to exactly the first N-1 records — never fewer, never garbage.
  for (std::size_t cut = final_frame_start; cut < full.size(); ++cut) {
    std::ofstream os(segments[0], std::ios::binary | std::ios::trunc);
    os.write(full.data(), static_cast<std::streamsize>(cut));
    os.close();
    const WalReplay replay = replayWal(dir);
    ASSERT_EQ(replay.records_read, written.size() - 1) << "cut=" << cut;
    EXPECT_EQ(replay.torn_tail, cut != final_frame_start) << "cut=" << cut;
    std::vector<std::string> got = shardImages(replay.episodes, 2, 64);
    EXPECT_EQ(got, want) << "cut=" << cut;
  }
}

TEST(WalTest, MidLogCorruptionRaises) {
  const std::string dir = freshDir("wal_midlog");
  Rng rng(14);
  {
    WalConfig cfg;
    cfg.dir = dir;
    cfg.segment_bytes = 256;  // several segments
    TrajectoryWal wal(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) wal.append(makeRecord(rng, i, 2));
  }
  const std::vector<std::string> segments = walSegmentFiles(dir);
  ASSERT_GT(segments.size(), 1u);
  // Flip one payload byte in the FIRST segment: that is not a torn tail,
  // it is corruption, and replay must refuse to silently drop records.
  {
    std::fstream f(segments[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    char c = 0;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  EXPECT_THROW(replayWal(dir), FatalError);
}

// --- snapshot registry -----------------------------------------------------

DqnConfig tinyDqnConfig() {
  DqnConfig cfg;
  cfg.state_dim = 6;
  cfg.num_actions = 4;
  cfg.hidden = {8};
  cfg.seed = 3;
  return cfg;
}

TEST(SnapshotTest, MaskedArgmaxMatchesAgentActGreedy) {
  const DqnConfig cfg = tinyDqnConfig();
  DoubleDqn agent(cfg);
  const PolicySnapshot snap(1, 0, agent.onlineNet());
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> state;
    for (std::size_t d = 0; d < cfg.state_dim; ++d) {
      state.push_back(rng.nextDouble(-2.0, 2.0));
    }
    EXPECT_EQ(snap.actGreedy(state), agent.actGreedy(state));
    std::vector<bool> mask(cfg.num_actions);
    for (std::size_t a = 0; a < cfg.num_actions; ++a) {
      mask[a] = rng.nextBool(0.4);
    }
    mask[rng.nextBelow(cfg.num_actions)] = false;  // keep one action open
    EXPECT_EQ(snap.actGreedy(state, &mask), agent.actGreedy(state, &mask));
  }
}

TEST(SnapshotTest, PinSurvivesHotSwapAndReclaimsAfterRelease) {
  DoubleDqn agent(tinyDqnConfig());
  SnapshotRegistry registry;
  EXPECT_EQ(registry.currentVersion(), 0u);
  EXPECT_FALSE(registry.pin());

  registry.publish(std::make_unique<PolicySnapshot>(1, 0, agent.onlineNet()));
  SnapshotRegistry::Pin pin = registry.pin();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->version, 1u);
  const std::uint64_t v1_hash = pin->hash;
  SnapshotRegistry::Pin second_pin = registry.pin();
  const std::weak_ptr<const PolicySnapshot> v1 = pin;

  registry.publish(
      std::make_unique<PolicySnapshot>(2, v1_hash, agent.onlineNet()));
  registry.publish(std::make_unique<PolicySnapshot>(3, 0, agent.onlineNet()));
  EXPECT_EQ(registry.currentVersion(), 3u);
  EXPECT_EQ(registry.stats().published, 3u);
  // Two publishes later the in-flight pins still read version 1, untouched.
  EXPECT_FALSE(v1.expired());
  EXPECT_EQ(pin->version, 1u);
  EXPECT_EQ(pin->hash, v1_hash);

  // v1 lives exactly as long as its last pin.
  pin.reset();
  EXPECT_FALSE(v1.expired());
  EXPECT_EQ(second_pin->version, 1u);
  second_pin.reset();
  EXPECT_TRUE(v1.expired());
  EXPECT_EQ(registry.pin()->version, 3u);
}

TEST(SnapshotTest, PublishRejectsNonIncreasingVersions) {
  DoubleDqn agent(tinyDqnConfig());
  SnapshotRegistry registry;
  registry.publish(std::make_unique<PolicySnapshot>(5, 0, agent.onlineNet()));
  ScopedFaultTrap trap;
  EXPECT_THROW(
      registry.publish(std::make_unique<PolicySnapshot>(5, 0,
                                                        agent.onlineNet())),
      FatalError);
}

TEST(SnapshotTest, ConcurrentSwapChurn) {
  // Readers continuously pin/use/unpin while a publisher hot-swaps
  // versions; under TSAN this is the data-race certification for the
  // registry and for freeing superseded snapshots off the lock.
  DoubleDqn agent(tinyDqnConfig());
  SnapshotRegistry registry;
  registry.publish(std::make_unique<PolicySnapshot>(1, 0, agent.onlineNet()));
  const std::weak_ptr<const PolicySnapshot> v1 = registry.pin();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::vector<double> state(6, 0.25 * (t + 1));
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotRegistry::Pin pin = registry.pin();
        ASSERT_TRUE(pin);
        // Versions are monotone per reader: a later pin never observes an
        // older snapshot.
        ASSERT_GE(pin->version, last_seen);
        last_seen = pin->version;
        (void)pin->actGreedy(state);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A reader that never pins: currentVersion() must not touch a snapshot
  // the publisher is freeing.
  readers.emplace_back([&] {
    std::uint64_t last_seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t v = registry.currentVersion();
      ASSERT_GE(v, last_seen);
      last_seen = v;
    }
  });
  for (std::uint64_t v = 2; v <= 40; ++v) {
    registry.publish(std::make_unique<PolicySnapshot>(v, 0,
                                                      agent.onlineNet()));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(registry.currentVersion(), 40u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.stats().published, 40u);
  // Once the readers stopped, nothing holds the first version any more.
  EXPECT_TRUE(v1.expired());
}

TEST(SnapshotTest, PersistRoundtrip) {
  const std::string dir = freshDir("snap_persist");
  DoubleDqn agent(tinyDqnConfig());
  PersistedSnapshot loaded;
  EXPECT_FALSE(loadPolicySnapshotFile(dir, &loaded));

  const PolicySnapshot snap(7, 0xabc, agent.onlineNet(), true);
  savePolicySnapshotFile(dir, snap);
  ASSERT_TRUE(loadPolicySnapshotFile(dir, &loaded));
  EXPECT_EQ(loaded.version, 7u);
  EXPECT_EQ(loaded.hash, snap.hash);
  EXPECT_EQ(loaded.parent_hash, 0xabcu);
  EXPECT_TRUE(loaded.rollback);
  Mlp net = agent.onlineNet();
  std::istringstream blob(loaded.net_blob);
  net.load(blob);
  EXPECT_EQ(hashMlpWeights(net), snap.hash);
}

// --- watchdog --------------------------------------------------------------

ServeObservation obsFor(std::uint64_t version, bool degraded,
                        std::size_t faults, bool oz_violation = false) {
  ServeObservation o;
  o.policy_version = version;
  o.degraded = degraded;
  o.faults = faults;
  o.oz_violation = oz_violation;
  return o;
}

TEST(WatchdogTest, NoVerdictBeforeMinObservationsAndIgnoresOtherVersions) {
  WatchdogConfig cfg;
  cfg.min_observations = 4;
  cfg.max_fault_rate = 0.5;
  PromotionWatchdog dog(cfg);
  EXPECT_EQ(dog.observe(obsFor(2, true, 9)), PromotionWatchdog::Verdict::None);

  dog.arm(2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dog.observe(obsFor(2, false, 9)),
              PromotionWatchdog::Verdict::None);
    // Other versions never count toward (or against) the armed window.
    EXPECT_EQ(dog.observe(obsFor(1, true, 99)),
              PromotionWatchdog::Verdict::None);
  }
  EXPECT_EQ(dog.observe(obsFor(2, false, 9)),
            PromotionWatchdog::Verdict::Breach);
  EXPECT_FALSE(dog.armed());
  // Disarmed: the same bad traffic yields no further verdicts.
  EXPECT_EQ(dog.observe(obsFor(2, false, 9)),
            PromotionWatchdog::Verdict::None);
  EXPECT_EQ(dog.stats().breaches, 1u);
}

TEST(WatchdogTest, BreachesOnDegradedFraction) {
  WatchdogConfig cfg;
  cfg.min_observations = 4;
  cfg.max_degraded_fraction = 0.5;
  cfg.max_fault_rate = 100.0;
  PromotionWatchdog dog(cfg);
  dog.arm(3);
  PromotionWatchdog::Verdict verdict = PromotionWatchdog::Verdict::None;
  for (int i = 0; i < 8 && verdict == PromotionWatchdog::Verdict::None; ++i) {
    verdict = dog.observe(obsFor(3, true, 0));
  }
  EXPECT_EQ(verdict, PromotionWatchdog::Verdict::Breach);
}

TEST(WatchdogTest, SingleOzViolationBreaches) {
  WatchdogConfig cfg;
  cfg.min_observations = 1;
  PromotionWatchdog dog(cfg);
  dog.arm(4);
  EXPECT_EQ(dog.observe(obsFor(4, false, 0, /*oz_violation=*/true)),
            PromotionWatchdog::Verdict::Breach);
}

TEST(WatchdogTest, GraduatesAfterHealthyWindow) {
  WatchdogConfig cfg;
  cfg.min_observations = 2;
  cfg.graduate_observations = 6;
  PromotionWatchdog dog(cfg);
  dog.arm(5);
  PromotionWatchdog::Verdict verdict = PromotionWatchdog::Verdict::None;
  std::size_t fed = 0;
  while (verdict == PromotionWatchdog::Verdict::None && fed < 20) {
    verdict = dog.observe(obsFor(5, false, 0));
    ++fed;
  }
  EXPECT_EQ(verdict, PromotionWatchdog::Verdict::Graduate);
  EXPECT_EQ(fed, 6u);
  EXPECT_FALSE(dog.armed());
  EXPECT_EQ(dog.stats().graduations, 1u);
}

// --- canary gate -----------------------------------------------------------

class CanaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProgramSpec spec;
    spec.name = "canary_prog";
    spec.seed = 91;
    spec.kernels = 2;
    program_ = generateProgram(spec);
    actions_ = manualSubSequences();
    env_.embedding.dim = 24;
    env_.episode_length = 4;
    cfg_.state_dim = 24;
    cfg_.num_actions = actions_.size();
    cfg_.hidden = {16};
  }

  std::unique_ptr<Module> program_;
  std::vector<SubSequence> actions_;
  EnvConfig env_;
  DqnConfig cfg_;
};

TEST_F(CanaryTest, AcceptsEqualCandidateUnderTolerance) {
  DoubleDqn agent(cfg_);
  CanaryConfig gate;
  gate.oz_tolerance = 10.0;  // an untrained net is far off the -Oz floor
  gate.incumbent_tolerance = 0.01;
  gate.max_faults = 100;
  const CanaryReport report =
      runCanary(agent.onlineNet(), agent.onlineNet(), {program_.get()}, {},
                actions_, env_, gate);
  EXPECT_TRUE(report.accepted) << report.reason;
  EXPECT_EQ(report.reason, "ok");
  EXPECT_EQ(report.holdout_modules, 1u);
  EXPECT_EQ(report.candidate_ratio, report.incumbent_ratio);
}

TEST_F(CanaryTest, RejectsWhenStrictImprovementRequired) {
  DoubleDqn agent(cfg_);
  CanaryConfig gate;
  gate.oz_tolerance = 10.0;
  gate.incumbent_tolerance = -0.5;  // must beat the incumbent by 2x: can't
  gate.max_faults = 100;
  const CanaryReport report =
      runCanary(agent.onlineNet(), agent.onlineNet(), {program_.get()}, {},
                actions_, env_, gate);
  EXPECT_FALSE(report.accepted);
  EXPECT_NE(report.reason.find("regresses the incumbent"), std::string::npos)
      << report.reason;
}

TEST_F(CanaryTest, RejectsWithNoEvaluationModules) {
  DoubleDqn agent(cfg_);
  const CanaryReport report = runCanary(agent.onlineNet(), agent.onlineNet(),
                                        {}, {}, actions_, env_, {});
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.reason, "no evaluation modules");
}

TEST_F(CanaryTest, RejectsFaultingCandidateOnFaultBudget) {
  registerFaultInjectionPasses();
  std::vector<SubSequence> actions = actions_;
  actions.push_back(
      {static_cast<int>(actions.size() + 1), {"fault-throw"}});
  DqnConfig cfg = cfg_;
  cfg.num_actions = actions.size();
  DoubleDqn agent(cfg);
  Mlp bad = agent.onlineNet();
  std::vector<double> q(actions.size(), 0.0);
  q.back() = 1e6;  // pin the candidate to the fault-injecting action
  bad.setConstantOutput(q);

  CanaryConfig gate;
  gate.oz_tolerance = 10.0;
  gate.incumbent_tolerance = 1.0;
  gate.max_faults = 0;
  const CanaryReport report = runCanary(bad, agent.onlineNet(),
                                        {program_.get()}, {}, actions, env_,
                                        gate);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.candidate_faults, 0u);
  EXPECT_NE(report.reason.find("fault budget"), std::string::npos)
      << report.reason;
}

namespace {

/// Same semantics, same x86 encoding size, more modeled cycles: rewrites
/// `shl %x, C` as `mul %x, 2^C`.
class ShlToMulPass : public Pass {
 public:
  std::string_view name() const override { return "test-shl-to-mul"; }
  bool run(Module& module) override {
    bool changed = false;
    for (const auto& f : module.functions()) {
      for (const auto& bb : f->blocks()) {
        std::vector<Instruction*> shifts;
        for (const auto& inst : bb->insts())
          if (inst->opcode() == Opcode::Shl &&
              isa<ConstantInt>(inst->operand(1)))
            shifts.push_back(inst.get());
        for (Instruction* shl : shifts) {
          const auto amount = cast<ConstantInt>(shl->operand(1))->value();
          Value* factor =
              module.constantInt(shl->type(), std::int64_t{1} << amount);
          Instruction* mul = bb->insertBefore(
              shl, std::make_unique<BinaryInst>(Opcode::Mul, shl->type(),
                                                shl->operand(0), factor,
                                                shl->name() + ".mul"));
          shl->replaceAllUsesWith(mul);
          shl->eraseFromParent();
          changed = true;
        }
      }
    }
    return changed;
  }
};

}  // namespace

TEST_F(CanaryTest, RejectsSmallerButSlowerCandidate) {
  registerPass("test-shl-to-mul",
               [] { return std::make_unique<ShlToMulPass>(); });
  // -Oz drops %dead and keeps the shift in the loop.
  auto program = parseModule(R"(
module "shl_loop"
declare @pr.sink : fn(i64) -> void intrinsic sink
define @main : fn(i64) -> i64 external {
block entry:
  %dead : i64 = add %arg0, i64 7
  br label loop
block loop:
  %i : i64 = phi [ i64 0, entry ], [ %inext, loop ]
  %acc : i64 = phi [ i64 0, entry ], [ %accnext, loop ]
  %x : i64 = xor %acc, %i
  %s : i64 = shl %x, i64 3
  %accnext : i64 = add %s, %arg0
  %inext : i64 = add %i, i64 1
  %done : i1 = icmp sge %inext, %arg0
  condbr %done, label exit, label loop
block exit:
  call @pr.sink(%accnext)
  ret %accnext
}
)");
  // Action 0 is the -Oz pipeline itself; action 1 is -Oz followed by the
  // shift-to-multiply rewrite: exactly -Oz's size, strictly slower.
  std::vector<SubSequence> actions = {{1, ozPassNames()},
                                      {2, ozPassNames()}};
  actions[1].passes.push_back("test-shl-to-mul");
  DqnConfig cfg = cfg_;
  cfg.num_actions = actions.size();
  DoubleDqn agent(cfg);
  const auto pinned = [&](std::size_t action) {
    Mlp net = agent.onlineNet();
    std::vector<double> q(actions.size(), 0.0);
    q[action] = 1e6;
    net.setConstantOutput(q);
    return net;
  };
  const Mlp as_oz = pinned(0);
  const Mlp slower = pinned(1);

  const CanaryRollout rollout = canaryRollout(slower, *program, actions, env_);
  ASSERT_LT(rollout.best_size, rollout.base_size);

  CanaryConfig gate;  // default tolerances
  gate.max_faults = 0;
  const CanaryReport same = runCanary(as_oz, as_oz, {program.get()}, {},
                                      actions, env_, gate);
  EXPECT_TRUE(same.accepted) << same.reason;
  EXPECT_EQ(same.slower_than_oz, 0u);

  const CanaryReport report = runCanary(slower, as_oz, {program.get()}, {},
                                        actions, env_, gate);
  EXPECT_FALSE(report.accepted);
  // It passes the size floor: only the cycles check stops it.
  EXPECT_LE(report.candidate_ratio, report.oz_ratio);
  EXPECT_EQ(report.slower_than_oz, 1u);
  EXPECT_GT(report.worst_oz_cycles_ratio, 1.0 + gate.oz_tolerance);
  EXPECT_NE(report.reason.find("slower than -Oz"), std::string::npos)
      << report.reason;
}

namespace {

/// Stand-in for the first -Oz pass (ee-instrument) whose fault only one
/// sandbox switch can see.
enum class OzFault { VerifyOnly, ContractsOnly, OracleOnly };

class OneSwitchFaultPass : public Pass {
 public:
  explicit OneSwitchFaultPass(OzFault fault) : fault_(fault) {}
  std::string_view name() const override { return "ee-instrument"; }
  bool run(Module& module) override {
    Function* main_fn = module.getFunction("main");
    BasicBlock* entry = main_fn->entry();
    Instruction* add = entry->front();
    // Rollouts may run this pass on an already folded module; -Oz runs it
    // first, on the pristine add.
    if (add->opcode() != Opcode::Add) return false;
    switch (fault_) {
      case OzFault::VerifyOnly:
        // Unnamed result: a verifier error, invisible to the fingerprint
        // (names are excluded) and to the interpreter.
        add->setName("");
        return true;
      case OzFault::ContractsOnly:
        // A dead add behind a changed=false report: verifier-clean and
        // behaviour-preserving, but the IR changed.
        entry->insertBefore(entry->terminator(),
                            std::make_unique<BinaryInst>(
                                Opcode::Add, module.types().i64(),
                                module.i64Const(1), module.i64Const(2),
                                "dead.lie"));
        return false;
      case OzFault::OracleOnly:
        // An honest report of a behaviour change: verifier-clean, and the
        // pass promises nothing, so only the oracle objects.
        add->setOperand(1, module.i64Const(23));
        return true;
    }
    return false;
  }

 private:
  OzFault fault_;
};

/// Re-registers ee-instrument for one scope, restoring the real pass after.
class ScopedEEInstrumentOverride {
 public:
  explicit ScopedEEInstrumentOverride(OzFault fault) {
    registerPass("ee-instrument", [fault] {
      return std::make_unique<OneSwitchFaultPass>(fault);
    });
  }
  ~ScopedEEInstrumentOverride() {
    registerPass("ee-instrument", createEEInstrumentPass);
  }
};

}  // namespace

TEST_F(CanaryTest, OzFloorFollowsAllThreeEnvSwitches) {
  // The -Oz floor runs under the same sandbox switches as the serving
  // ladder's rung (sandboxConfigFor): each injected fault excludes the
  // module from the floor exactly when its one switch is on, whatever the
  // raw env.sandbox switches say.
  auto program = parseModule(R"(
module "t"
define @main : fn() -> i64 external {
block e:
  %x : i64 = add i64 20, i64 22
  ret %x
}
)");
  ASSERT_NE(program, nullptr);
  DoubleDqn agent(cfg_);
  CanaryConfig gate;
  gate.oz_tolerance = 10.0;
  gate.incumbent_tolerance = 1.0;
  gate.max_faults = 100;
  const struct {
    OzFault fault;
    int bit;
  } cases[] = {{OzFault::VerifyOnly, 1},
               {OzFault::ContractsOnly, 2},
               {OzFault::OracleOnly, 4}};
  for (const auto& c : cases) {
    ScopedEEInstrumentOverride override_pass(c.fault);
    for (int bits = 0; bits < 8; ++bits) {
      EnvConfig env = env_;
      env.verify_actions = (bits & 1) != 0;
      env.check_contracts = (bits & 2) != 0;
      env.oracle_actions = (bits & 4) != 0;
      env.sandbox.verify = !env.verify_actions;
      env.sandbox.contracts = !env.check_contracts;
      env.sandbox.oracle = !env.oracle_actions;
      const CanaryReport report =
          runCanary(agent.onlineNet(), agent.onlineNet(), {program.get()}, {},
                    actions_, env, gate);
      const bool caught = (bits & c.bit) != 0;
      EXPECT_EQ(report.oz_completed, caught ? 0u : 1u)
          << "fault " << c.bit << " switches " << bits;
    }
  }
}

// --- online learner: recovery, persistence, rollback -----------------------

class OnlineLearnerTest : public ::testing::Test {
 protected:
  OnlineLearnerConfig learnerConfig(const std::string& dir) {
    OnlineLearnerConfig cfg;
    cfg.dir = dir;
    cfg.num_shards = 3;
    cfg.shard_capacity = 128;
    cfg.promote_every = 0;  // tests drive promotion explicitly
    cfg.env.embedding.dim = 6;
    cfg.env.episode_length = 3;
    return cfg;
  }

  DoubleDqn seedAgent() { return DoubleDqn(tinyDqnConfig()); }
};

TEST_F(OnlineLearnerTest, RecoversBitExactReplayStateAfterRestart) {
  const std::string dir = freshDir("learner_recover");
  const DoubleDqn seed = seedAgent();
  Rng rng(51);
  std::vector<EpisodeRecord> episodes;
  std::vector<std::string> images_before;
  {
    OnlineLearner learner(seed, manualSubSequences(), learnerConfig(dir));
    learner.start();
    for (std::uint64_t i = 0; i < 12; ++i) {
      episodes.push_back(makeRecord(rng, i, 3));
      learner.ingest(episodes.back());
    }
    learner.drain();
    for (std::size_t s = 0; s < learner.numShards(); ++s) {
      images_before.push_back(saveShard(learner.buffer(), s));
    }
    learner.stop();
  }
  // "Restart": a fresh learner over the same directory must rebuild the
  // shards bit-exactly from the WAL alone.
  OnlineLearner recovered(seed, manualSubSequences(), learnerConfig(dir));
  EXPECT_EQ(recovered.stats().recovered_records, 12u);
  EXPECT_FALSE(recovered.stats().recovered_torn_tail);
  for (std::size_t s = 0; s < recovered.numShards(); ++s) {
    EXPECT_EQ(saveShard(recovered.buffer(), s), images_before[s])
        << "shard " << s;
  }
  // And the recovered state must also equal a from-scratch reconstruction.
  EXPECT_EQ(images_before, shardImages(episodes, 3, 128));
}

TEST_F(OnlineLearnerTest, RecoveryToleratesTornFinalRecord) {
  const std::string dir = freshDir("learner_torn");
  const DoubleDqn seed = seedAgent();
  Rng rng(52);
  std::vector<EpisodeRecord> episodes;
  {
    OnlineLearnerConfig cfg = learnerConfig(dir);
    cfg.wal_sync_every = 1;
    OnlineLearner learner(seed, manualSubSequences(), cfg);
    learner.start();
    for (std::uint64_t i = 0; i < 6; ++i) {
      episodes.push_back(makeRecord(rng, i, 3));
      learner.ingest(episodes.back());
    }
    learner.drain();
    learner.stop();
  }
  // Tear the final record mid-frame (the kill -9 signature).
  const std::vector<std::string> segments = walSegmentFiles(dir + "/wal");
  ASSERT_FALSE(segments.empty());
  const auto size = std::filesystem::file_size(segments.back());
  std::filesystem::resize_file(segments.back(), size - 7);

  OnlineLearner recovered(seed, manualSubSequences(), learnerConfig(dir));
  EXPECT_EQ(recovered.stats().recovered_records, 5u);
  EXPECT_TRUE(recovered.stats().recovered_torn_tail);
  episodes.pop_back();
  const std::vector<std::string> want = shardImages(episodes, 3, 128);
  for (std::size_t s = 0; s < recovered.numShards(); ++s) {
    EXPECT_EQ(saveShard(recovered.buffer(), s), want[s]) << "shard " << s;
  }
}

TEST_F(OnlineLearnerTest, SnapshotPersistsAcrossRestart) {
  const std::string dir = freshDir("learner_snap");
  const DoubleDqn seed = seedAgent();
  std::uint64_t promoted_version = 0;
  std::uint64_t promoted_hash = 0;
  {
    OnlineLearner learner(seed, manualSubSequences(), learnerConfig(dir));
    EXPECT_EQ(learner.currentVersion(), 1u);
    Mlp net = seed.onlineNet();
    std::vector<double> q(seed.config().num_actions, 0.0);
    q[2] = 1.0;
    net.setConstantOutput(q);
    promoted_hash = hashMlpWeights(net);
    promoted_version = learner.forcePromote(std::move(net));
    EXPECT_EQ(promoted_version, 2u);
  }
  OnlineLearner restarted(seed, manualSubSequences(), learnerConfig(dir));
  EXPECT_EQ(restarted.currentVersion(), promoted_version);
  const SnapshotRegistry::Pin pin = restarted.registry().pin();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->version, promoted_version);
  EXPECT_EQ(pin->hash, promoted_hash);
}

TEST_F(OnlineLearnerTest, WatchdogBreachRollsBackToLastGood) {
  const std::string dir = freshDir("learner_rollback");
  const DoubleDqn seed = seedAgent();
  OnlineLearnerConfig cfg = learnerConfig(dir);
  cfg.watchdog.min_observations = 3;
  cfg.watchdog.max_fault_rate = 0.5;
  OnlineLearner learner(seed, manualSubSequences(), cfg);
  const std::uint64_t good_hash = hashMlpWeights(seed.onlineNet());

  Mlp bad = seed.onlineNet();
  std::vector<double> q(seed.config().num_actions, 0.0);
  q[0] = 1.0;
  bad.setConstantOutput(q);
  const std::uint64_t bad_version = learner.forcePromote(std::move(bad));
  EXPECT_EQ(bad_version, 2u);

  // Fault-heavy traffic on the bad version trips the watchdog; the learner
  // must publish a NEW version carrying the last-good weights.
  for (int i = 0; i < 3; ++i) {
    ServeObservation obs;
    obs.policy_version = bad_version;
    obs.faults = 5;
    learner.observe(obs);
  }
  EXPECT_EQ(learner.currentVersion(), 3u);
  EXPECT_EQ(learner.stats().rollbacks, 1u);
  const SnapshotRegistry::Pin pin = learner.registry().pin();
  ASSERT_TRUE(pin);
  EXPECT_TRUE(pin->rollback);
  EXPECT_EQ(pin->hash, good_hash);

  // Post-rollback traffic on the restored version must not re-breach.
  for (int i = 0; i < 10; ++i) {
    ServeObservation obs;
    obs.policy_version = 3;
    obs.faults = 5;
    learner.observe(obs);
  }
  EXPECT_EQ(learner.stats().rollbacks, 1u);
  EXPECT_EQ(learner.currentVersion(), 3u);
}

TEST_F(OnlineLearnerTest, GraduationMarksVersionLastGood) {
  const std::string dir = freshDir("learner_graduate");
  const DoubleDqn seed = seedAgent();
  OnlineLearnerConfig cfg = learnerConfig(dir);
  cfg.watchdog.min_observations = 2;
  cfg.watchdog.graduate_observations = 4;
  OnlineLearner learner(seed, manualSubSequences(), cfg);

  Mlp net = seed.onlineNet();
  std::vector<double> q(seed.config().num_actions, 0.0);
  q[1] = 1.0;
  net.setConstantOutput(q);
  const std::uint64_t candidate_hash = hashMlpWeights(net);
  const std::uint64_t version = learner.forcePromote(std::move(net));

  for (int i = 0; i < 4; ++i) {
    ServeObservation obs;
    obs.policy_version = version;
    learner.observe(obs);
  }
  EXPECT_EQ(learner.stats().graduations, 1u);
  EXPECT_EQ(learner.stats().last_good_version, version);

  // A later breach of a newer bad version now rolls back to the graduate.
  Mlp bad = seed.onlineNet();
  bad.setConstantOutput(std::vector<double>(seed.config().num_actions, 0.0));
  const std::uint64_t bad_version = learner.forcePromote(std::move(bad));
  for (int i = 0; i < 8; ++i) {
    ServeObservation obs;
    obs.policy_version = bad_version;
    obs.faults = 9;
    learner.observe(obs);
  }
  EXPECT_EQ(learner.stats().rollbacks, 1u);
  const SnapshotRegistry::Pin pin = learner.registry().pin();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->hash, candidate_hash);
}

// --- end to end through CompileService -------------------------------------

TEST(OnlineServeTest, ServiceIngestsEpisodesAndStampsPolicyVersions) {
  const std::string dir =
      testing::TempDir() + "online_serve_e2e";
  std::filesystem::remove_all(dir);

  ProgramSpec spec;
  spec.name = "online_serve_prog";
  spec.seed = 77;
  spec.kernels = 2;
  const std::unique_ptr<Module> program = generateProgram(spec);
  const std::vector<const Module*> corpus = {program.get()};

  std::vector<SubSequence> actions = manualSubSequences();
  TrainConfig tcfg;
  tcfg.total_steps = 20;
  tcfg.seed = 5;
  tcfg.actions = &actions;
  tcfg.agent.num_actions = actions.size();
  tcfg.env.embedding.dim = 24;
  tcfg.env.episode_length = 3;
  tcfg.agent.state_dim = 24;
  const TrainResult trained = trainAgent(corpus, tcfg);

  OnlineLearnerConfig ocfg;
  ocfg.dir = dir;
  ocfg.num_shards = 2;
  ocfg.promote_every = 0;
  ocfg.env = tcfg.env;
  OnlineLearner learner(*trained.agent, actions, ocfg);
  learner.start();

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.env = tcfg.env;
  scfg.online = &learner;
  CompileService service(*trained.agent, actions, scfg);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(*program, Deadline::afterMillis(8000)));
  }
  std::size_t ok = 0;
  for (auto& f : futures) {
    const ServeResult r = f.get();
    if (r.status != ServeStatus::Ok) continue;
    ++ok;
    EXPECT_GE(r.policy_version, 1u);
  }
  EXPECT_EQ(ok, 6u);
  service.shutdown();
  learner.drain();
  learner.stop();

  const OnlineStats ostats = learner.stats();
  EXPECT_EQ(ostats.ingested_episodes, learner.walStats().records);
  EXPECT_GT(ostats.ingested_episodes, 0u);
  EXPECT_GT(ostats.ingested_steps, 0u);

  // Every ingested byte must replay: a restart rebuilds the same shards.
  std::vector<std::string> images;
  for (std::size_t s = 0; s < learner.numShards(); ++s) {
    images.push_back(saveShard(learner.buffer(), s));
  }
  OnlineLearner recovered(*trained.agent, actions, ocfg);
  EXPECT_EQ(recovered.stats().recovered_records, ostats.ingested_episodes);
  for (std::size_t s = 0; s < recovered.numShards(); ++s) {
    EXPECT_EQ(saveShard(recovered.buffer(), s), images[s]) << "shard " << s;
  }
}

TEST(OnlineServeTest, HotSwapsNeverMixPoliciesWithinARequest) {
  // Two constant-output policies with different argmax actions are swapped
  // in alternately while requests are in flight. Each request pins one
  // snapshot for its whole rollout, so every step of an ingested episode
  // must carry the action of the version stamped on it.
  const std::string dir = freshDir("online_serve_swap");
  std::vector<std::unique_ptr<Module>> programs;
  for (std::uint64_t seed = 90; seed < 94; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2;
    programs.push_back(generateProgram(spec));
  }
  const std::vector<SubSequence> actions = manualSubSequences();
  DqnConfig acfg;
  acfg.state_dim = 24;
  acfg.num_actions = actions.size();
  acfg.hidden = {8};  // small snapshot files: promotions persist each one
  const DoubleDqn agent(acfg);

  OnlineLearnerConfig ocfg;
  ocfg.dir = dir;
  ocfg.num_shards = 2;
  ocfg.promote_every = 0;
  ocfg.env.embedding.dim = 24;
  ocfg.env.episode_length = 12;
  // Constant policies often lose to -Oz; the watchdog must not roll them
  // back, or the rollback version would serve a third policy.
  ocfg.watchdog.min_observations = 1u << 20;
  OnlineLearner learner(agent, actions, ocfg);
  learner.start();

  std::map<std::uint64_t, std::size_t> action_of;
  const std::size_t kActions[2] = {1, 3};
  const auto promote = [&] {
    const std::size_t action = kActions[action_of.size() % 2];
    Mlp net = agent.onlineNet();
    std::vector<double> q(actions.size(), 0.0);
    q[action] = 1.0;
    net.setConstantOutput(q);
    action_of[learner.forcePromote(std::move(net))] = action;
  };
  promote();  // no request ever runs on the unconstrained seed policy

  ServeConfig scfg;
  scfg.workers = 4;
  scfg.env = ocfg.env;
  scfg.online = &learner;
  CompileService service(agent, actions, scfg);
  std::atomic<bool> serving{true};
  std::thread swapper([&] {
    while (serving.load()) {
      promote();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::future<ServeResult>> futures;
  for (int round = 0; round < 6; ++round) {
    if (round == 1) {
      // Round 0 is served; once one more swap lands, every later request
      // pins a newer version than any round-0 request did.
      for (auto& f : futures) f.wait();
      const std::uint64_t served_on = learner.currentVersion();
      while (learner.currentVersion() == served_on) std::this_thread::yield();
    }
    for (const auto& program : programs) {
      futures.push_back(service.submit(*program, Deadline::never()));
    }
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ServeStatus::Ok);
  }
  serving.store(false);
  swapper.join();
  service.shutdown();
  learner.drain();
  learner.stop();

  const WalReplay replay = replayWal(dir + "/wal");
  EXPECT_EQ(replay.episodes.size(), futures.size());
  std::map<std::uint64_t, std::size_t> episodes_by_version;
  for (const EpisodeRecord& rec : replay.episodes) {
    ASSERT_EQ(action_of.count(rec.policy_version), 1u)
        << "request " << rec.request_id << " stamped v"
        << rec.policy_version;
    ++episodes_by_version[rec.policy_version];
    ASSERT_FALSE(rec.steps.empty());
    for (const Transition& t : rec.steps) {
      EXPECT_EQ(t.action, action_of.at(rec.policy_version))
          << "request " << rec.request_id << " v" << rec.policy_version;
    }
  }
  // Requests after round 0 ran on a newer version than round 0 did.
  EXPECT_GE(episodes_by_version.size(), 2u);
}

}  // namespace
}  // namespace posetrl
