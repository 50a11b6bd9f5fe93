// Tests for the arena-backed snapshot/rollback machinery: the bump arena
// (support/arena.h), flat module snapshots with in-place restore
// (ir/snapshot.h), the structural content hash that replaced print-based
// embedding-cache keys (ir/structural_hash.h), generation-stamped analysis
// rehydration after a rollback, and the environment-level guarantees that
// hot paths never print the module.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "core/environment.h"
#include "core/oz_sequence.h"
#include "embed/embed_cache.h"
#include "faults/injection.h"
#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/snapshot.h"
#include "ir/structural_hash.h"
#include "ir/verifier.h"
#include "passes/pass.h"
#include "support/arena.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

std::unique_ptr<Module> generated(std::uint64_t seed, int kernels = 2) {
  ProgramSpec spec;
  spec.seed = seed;
  spec.kernels = kernels;
  return generateProgram(spec);
}

// --- BumpArena ---

TEST(ArenaTest, FreeListReusesBlocksOfSameSizeClass) {
  BumpArena arena;
  ArenaScope scope(arena);
  void* a = arenaAllocate(48);
  ASSERT_NE(a, nullptr);
  arenaDeallocate(a);
  // Single freed block in the bucket: the next same-class request must get
  // it back instead of bumping fresh space.
  void* b = arenaAllocate(48);
  EXPECT_EQ(a, b);
  arenaDeallocate(b);
  EXPECT_GT(arena.bytesRecycled(), 0u);
}

TEST(ArenaTest, HeapFallbackForLargeAndUnscopedAllocations) {
  BumpArena arena;
  {
    ArenaScope scope(arena);
    // Above kMaxBlock: served from the heap even with a scope active.
    void* big = arenaAllocate(BumpArena::kMaxBlock + 64);
    ASSERT_NE(big, nullptr);
    arenaDeallocate(big);
  }
  // No scope active at all: plain heap round-trip.
  void* p = arenaAllocate(32);
  ASSERT_NE(p, nullptr);
  arenaDeallocate(p);
}

TEST(ArenaTest, HeaderDispatchesDeallocationAcrossScopes) {
  BumpArena arena;
  void* p = nullptr;
  {
    ArenaScope scope(arena);
    p = arenaAllocate(64);
  }
  // Freed with no scope active: the allocation header must route the block
  // back to its source arena, not the heap.
  arenaDeallocate(p);
  {
    ArenaScope scope(arena);
    EXPECT_EQ(arenaAllocate(64), p);  // recycled from the arena free list
  }
}

TEST(ArenaTest, ScopesNestInnermostWins) {
  BumpArena a1;
  BumpArena a2;
  EXPECT_EQ(ArenaScope::current(), nullptr);
  {
    ArenaScope s1(a1);
    EXPECT_EQ(ArenaScope::current(), &a1);
    {
      ArenaScope s2(a2);
      EXPECT_EQ(ArenaScope::current(), &a2);
    }
    EXPECT_EQ(ArenaScope::current(), &a1);
  }
  EXPECT_EQ(ArenaScope::current(), nullptr);
}

TEST(ArenaTest, MarkRewindReclaimsBumpSpace) {
  BumpArena arena;
  const BumpArena::Marker m = arena.mark();
  void* a = arena.allocate(64);
  arena.rewindTo(m);
  void* b = arena.allocate(64);
  EXPECT_EQ(a, b);
}

TEST(ArenaTest, ParsedModuleDrawsFromItsOwnArena) {
  std::string err;
  auto m = parseModule(R"(
module "arena"
define @f : fn() -> i64 external {
block entry:
  %a : i64 = add i64 1, i64 2
  ret %a
}
)",
                       &err);
  ASSERT_NE(m, nullptr) << err;
  EXPECT_GT(m->arena().bytesAllocated(), 0u);
}

// --- ModuleSnapshot ---

TEST(SnapshotTest, RestoreRoundTripsBytesAndSymbolObjects) {
  auto m = generated(21);
  const std::string before = printModule(*m);
  std::vector<const Function*> funcs;
  for (const auto& f : m->functions()) funcs.push_back(f.get());

  ModuleSnapshot snap;
  snap.capture(*m);
  runPassSequence(*m, parsePassSequence("-mem2reg -instcombine -dce"));
  ASSERT_NE(printModule(*m), before);  // the passes actually mutated it

  const ModuleSnapshot::RestoreResult res = snap.restoreInto(*m);
  EXPECT_TRUE(res.symbols_preserved);
  EXPECT_EQ(printModule(*m), before);
  // Same Function objects, same order: pointer-keyed caches stay valid.
  std::size_t i = 0;
  for (const auto& f : m->functions()) {
    ASSERT_LT(i, funcs.size());
    EXPECT_EQ(f.get(), funcs[i++]);
  }
  EXPECT_EQ(i, funcs.size());
}

TEST(SnapshotTest, RestoreReinstatesNamingCountersDeterministically) {
  auto pristine = generated(22);
  auto m = cloneModule(*pristine);
  ModuleSnapshot snap;
  snap.capture(*m);

  const std::string seq = "-mem2reg -instcombine";
  runPassSequence(*m, parsePassSequence(seq));
  const std::string first_run = printModule(*m);

  snap.restoreInto(*m);
  EXPECT_EQ(printModule(*m), printModule(*pristine));
  // Re-running the same passes after a restore must produce the same value
  // names (next_value_/next_block_ counters were restored, not reset).
  runPassSequence(*m, parsePassSequence(seq));
  EXPECT_EQ(printModule(*m), first_run);
}

TEST(SnapshotTest, RestoreErasesFunctionsCreatedAfterCapture) {
  auto m = generated(23);
  const std::string before = printModule(*m);
  ModuleSnapshot snap;
  snap.capture(*m);

  Type* fty = m->types().funcType(m->types().i64(), {});
  m->createFunction("snap_extra", fty, Function::Linkage::External);
  ASSERT_NE(m->getFunction("snap_extra"), nullptr);

  const ModuleSnapshot::RestoreResult res = snap.restoreInto(*m);
  EXPECT_FALSE(res.symbols_preserved);
  EXPECT_EQ(m->getFunction("snap_extra"), nullptr);
  EXPECT_EQ(printModule(*m), before);
}

TEST(SnapshotTest, ThrowingRestoreLeaksNothingAndStaysRestorable) {
  std::string err;
  auto m = parseModule(R"(
module "forward"

define @f : fn(i64) -> i64 external {
block entry.0:
  %t1 : i64 = add %arg0, i64 1
  %t2 : i64 = mul %t1, i64 3
  ret %t2
}

define @g : fn(i64) -> i64 external {
block entry.0:
  %t3 : i64 = sub %arg0, i64 2
  ret %t3
}
)",
                       &err);
  ASSERT_NE(m, nullptr) << err;
  const std::string before = printModule(*m);
  ModuleSnapshot good;
  good.capture(*m);

  // @f's mul now reads @g's %t3. Both copy paths build @f before @g, so
  // binding that slot fails with the instructions after it still unbound.
  Instruction* mul = std::next(m->getFunction("f")->entry()->insts().begin())
                         ->get();
  mul->setOperand(0, m->getFunction("g")->entry()->front());
  ModuleSnapshot bad;
  bad.capture(*m);
  {
    ScopedFaultTrap trap;
    // The half-built clone is destroyed during unwinding.
    EXPECT_THROW(cloneModule(*m), FatalError);
    EXPECT_THROW(bad.restoreInto(*m), FatalError);
  }

  // The half-restored module tears down cleanly under the next restore.
  good.restoreInto(*m);
  EXPECT_EQ(printModule(*m), before);
  EXPECT_TRUE(verifyModule(*m).ok()) << verifyModule(*m).message();
}

TEST(SnapshotTest, MatchesTracksContentStamp) {
  auto m = generated(24);
  ModuleSnapshot snap;
  EXPECT_FALSE(snap.matches(*m));  // nothing captured yet
  snap.capture(*m);
  EXPECT_TRUE(snap.matches(*m));
  m->bumpContentStamp();
  EXPECT_FALSE(snap.matches(*m));  // stamp moved: content may differ
  snap.restoreInto(*m);
  EXPECT_TRUE(snap.matches(*m));  // restore reverts content and stamp
}

TEST(SnapshotTest, ContentStampNeverReusedForNewContent) {
  auto m = generated(25);
  ModuleSnapshot snap;
  snap.capture(*m);
  const std::uint64_t captured = m->contentStamp();
  m->bumpContentStamp();
  const std::uint64_t bumped = m->contentStamp();
  EXPECT_NE(bumped, captured);
  snap.restoreInto(*m);
  EXPECT_EQ(m->contentStamp(), captured);
  // A bump after a restore must not collide with the in-between stamp.
  m->bumpContentStamp();
  EXPECT_NE(m->contentStamp(), bumped);
  EXPECT_NE(m->contentStamp(), captured);
}

// --- structural content hash ---

TEST(StructuralHashTest, AgreesAcrossModuleObjectsAndTracksEdits) {
  auto m1 = generated(26);
  auto m2 = cloneModule(*m1);
  // Distinct Module objects (distinct TypeContexts, distinct interned
  // constants) with identical content must hash identically — the hash is
  // the cross-episode embedding-cache key.
  EXPECT_EQ(moduleContentHash(*m1), moduleContentHash(*m2));
  // A guaranteed structural edit: a new symbol must move the hash.
  Type* fty = m1->types().funcType(m1->types().i64(), {});
  m1->createFunction("hash_probe", fty, Function::Linkage::External);
  ASSERT_NE(printModule(*m1), printModule(*m2));
  EXPECT_NE(moduleContentHash(*m1), moduleContentHash(*m2));
}

TEST(StructuralHashTest, SnapshotRestoreRevertsHash) {
  auto m = generated(27);
  const std::uint64_t before = moduleContentHash(*m);
  ModuleSnapshot snap;
  snap.capture(*m);
  runPassSequence(*m, parsePassSequence("-mem2reg -instcombine"));
  snap.restoreInto(*m);
  EXPECT_EQ(moduleContentHash(*m), before);
}

// --- analysis rehydration after in-place restore ---

TEST(SnapshotTest, RollbackRehydratesGenerationStampedAnalyses) {
  auto m = generated(28);
  ASSERT_FALSE(m->functions().empty());
  Function* f = nullptr;
  for (const auto& fn : m->functions()) {
    if (!fn->blocks().empty()) {
      f = fn.get();
      break;
    }
  }
  ASSERT_NE(f, nullptr);

  AnalysisManager am;
  (void)am.dominators(*f);  // populate the cache against the current blocks

  ModuleSnapshot snap;
  snap.capture(*m);
  runPassSequence(*m, parsePassSequence("-mem2reg -instcombine"));
  const ModuleSnapshot::RestoreResult res = snap.restoreInto(*m);
  ASSERT_TRUE(res.symbols_preserved);  // f itself survived in place

  // The restored content fingerprints identically to what the cache holds,
  // but every BasicBlock was recreated — a fingerprint-only cache would
  // serve a dominator tree keyed on destroyed blocks. The ir-generation
  // stamp must force a rebuild instead.
  const std::size_t invalidations_before = am.stats().invalidations;
  const DominatorTree& dom = am.dominators(*f);
  EXPECT_GT(am.stats().invalidations, invalidations_before);
  BasicBlock* entry = f->blocks().front().get();
  EXPECT_TRUE(dom.dominates(entry, entry));  // keyed on the fresh blocks
}

// --- sandbox rollback identity ---

TEST(SnapshotTest, SandboxRollbackPreservesModuleAndSymbolAddresses) {
  registerFaultInjectionPasses();
  auto m = generated(29);
  Module* module_before = m.get();
  const std::string text_before = printModule(*m);
  std::vector<const Function*> funcs;
  for (const auto& f : m->functions()) funcs.push_back(f.get());

  SandboxConfig cfg;
  const SandboxOutcome out =
      runActionSandboxed(m, {"mem2reg", "fault-throw"}, cfg);
  ASSERT_FALSE(out.ok);
  EXPECT_TRUE(out.symbols_preserved);
  EXPECT_EQ(m.get(), module_before);  // same Module object
  EXPECT_EQ(printModule(*m), text_before);
  std::size_t i = 0;
  for (const auto& f : m->functions()) {
    ASSERT_LT(i, funcs.size());
    EXPECT_EQ(f.get(), funcs[i++]);
  }
}

// --- hot paths never print ---

TEST(EnvHotPathTest, EmbedCacheKeysNeverCallPrintModule) {
  auto program = generated(30);
  EnvConfig cfg;
  cfg.episode_length = 5;
  PhaseOrderEnv env(*program, manualSubSequences(), cfg);
  env.reset();

  const std::uint64_t prints_before = printModuleCallCount();
  for (int episode = 0; episode < 2; ++episode) {
    for (int s = 0; s < cfg.episode_length; ++s) {
      env.step(static_cast<std::size_t>(s) % env.numActions());
    }
    env.reset();
  }
  // Embedding-cache keys come from the content stamp + structural hash;
  // nothing on the step/reset path may serialize the module.
  EXPECT_EQ(printModuleCallCount(), prints_before);
  // The second reset() re-embeds pristine content: a guaranteed cache hit.
  EXPECT_GT(env.embedCacheStats().hits, 0u);
}

TEST(EnvHotPathTest, ResetRestoresPristineContentInPlace) {
  auto program = generated(31);
  EnvConfig cfg;
  cfg.episode_length = 4;
  PhaseOrderEnv env(*program, manualSubSequences(), cfg);
  env.reset();
  Module* working = &env.workingModule();
  const std::string pristine_text = printModule(*working);
  for (int s = 0; s < cfg.episode_length; ++s) {
    env.step(static_cast<std::size_t>(s) % env.numActions());
  }
  env.reset();
  // Same Module object across episodes, content restored byte-for-byte.
  EXPECT_EQ(&env.workingModule(), working);
  EXPECT_EQ(printModule(env.workingModule()), pristine_text);
}

}  // namespace
}  // namespace posetrl
