// Snooping MOSI protocol tests: total-order semantics, owner/memory data
// supply, writeback-to-memory flow, and deferred snoop handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

constexpr Addr kBlk = 0x400000;

SystemConfig baseConfig(std::size_t nodes = 4) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kSnooping,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = nodes;
  cfg.berEnabled = false;
  cfg.maxCycles = 2'000'000;
  return cfg;
}

std::unique_ptr<System> makeSystem(
    SystemConfig cfg, std::map<NodeId, std::vector<Instr>> progs) {
  cfg.programFactory = [progs](NodeId n) -> std::unique_ptr<ThreadProgram> {
    auto it = progs.find(n);
    if (it == progs.end()) {
      return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
    }
    return std::make_unique<ScriptedProgram>(it->second);
  };
  return std::make_unique<System>(cfg);
}

TEST(SnoopingProtocol, MemorySuppliesUnownedBlock) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::load(kBlk, 1)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& prog = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_EQ(prog.results()[0].second,
            MemoryStorage::initialPattern(kBlk).read(0));
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->state, MosiState::kS);
}

TEST(SnoopingProtocol, StoreTakesOwnershipFromMemory) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::store(kBlk, 88)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->state, MosiState::kM);
  // The home's owner tracking follows the snoop stream.
  NodeId home = MemoryMap{4}.homeOf(kBlk);
  EXPECT_EQ(sys->snoopMem(home)->cacheOwnerOf(kBlk), 0u);
}

TEST(SnoopingProtocol, OwnerSuppliesDataOnGetS) {
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  progs[0] = {Instr::store(kBlk, 500)};
  progs[1] = {Instr::compute(2000), Instr::load(kBlk, 9)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& prog = static_cast<ScriptedProgram&>(sys->core(1).program());
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_EQ(prog.results()[0].second, 500u);
  // Writer downgraded M -> O (owner still supplies future readers).
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->state, MosiState::kO);
}

TEST(SnoopingProtocol, GetMInvalidatesAllOtherCopies) {
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  progs[1] = {Instr::load(kBlk)};
  progs[2] = {Instr::load(kBlk)};
  progs[0] = {Instr::compute(2500), Instr::store(kBlk, 3)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  for (NodeId n = 1; n <= 2; ++n) {
    EXPECT_EQ(sys->l2(n).array().find(kBlk), nullptr) << "node " << n;
  }
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->state, MosiState::kM);
}

TEST(SnoopingProtocol, EvictionWritesBackThroughPutM) {
  SystemConfig cfg = baseConfig();
  cfg.l2 = {2, 2};
  cfg.l1 = {1, 1};
  std::vector<Instr> prog = {Instr::store(kBlk, 7777)};
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  auto sys = makeSystem(cfg, {{0, prog}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  NodeId home = MemoryMap{4}.homeOf(kBlk);
  ErrorSink scratch;
  EXPECT_EQ(sys->snoopMem(home)->memory().read(kBlk, &scratch, 0, 0)
                .read(0),
            7777u);
  EXPECT_EQ(sys->snoopMem(home)->cacheOwnerOf(kBlk), kInvalidNode);
}

TEST(SnoopingProtocol, ReloadAfterWritebackFromMemory) {
  SystemConfig cfg = baseConfig();
  cfg.l2 = {2, 2};
  cfg.l1 = {1, 1};
  std::vector<Instr> prog = {Instr::store(kBlk, 999)};
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  prog.push_back(Instr::load(kBlk, 42));
  auto sys = makeSystem(cfg, {{0, prog}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  bool found = false;
  for (auto& [tok, val] : p.results()) {
    if (tok == 42) {
      EXPECT_EQ(val, 999u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnoopingProtocol, OUpgradeSelfSupplies) {
  // Writer -> reader (M->O at writer) -> writer stores again (O->M with
  // self-supplied data).
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  progs[0] = {Instr::store(kBlk, 1), Instr::compute(4000),
              Instr::store(kBlk + 8, 2)};
  progs[1] = {Instr::compute(1500), Instr::load(kBlk, 5)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  CacheLine* line = sys->l2(0).array().find(kBlk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, MosiState::kM);
  EXPECT_EQ(line->data.read(0), 1u);
  EXPECT_EQ(line->data.read(8), 2u);
}

TEST(SnoopingProtocol, ContendedWritersConverge) {
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  for (NodeId n = 0; n < 4; ++n) {
    for (int i = 0; i < 6; ++i) {
      progs[n].push_back(Instr::store(kBlk + n * 8, n * 10 + i));
    }
  }
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // Contention exercises the ordered-but-incomplete deferral path.
  std::uint64_t deferred = 0;
  for (NodeId n = 0; n < 4; ++n) {
    deferred += sys->l2(n).stats().get("l2.deferredSnoop");
  }
  EXPECT_GT(deferred, 0u) << "deferral path never exercised";
  // The final owner holds every node's last value.
  NodeId home = MemoryMap{4}.homeOf(kBlk);
  const NodeId owner = sys->snoopMem(home)->cacheOwnerOf(kBlk);
  const DataBlock* data = nullptr;
  ErrorSink scratch;
  if (owner != kInvalidNode) {
    CacheLine* line = sys->l2(owner).array().find(kBlk);
    ASSERT_NE(line, nullptr);
    data = &line->data;
  } else {
    data = &sys->snoopMem(home)->memory().read(kBlk, &scratch, 0, 0);
  }
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(data->read(n * 8), n * 10u + 5u) << "node " << n;
  }
}

TEST(SnoopingProtocol, AtomicSwapSerializesLockAcquisition) {
  // All nodes swap on the same word; exactly one observes 0 (the free
  // value) and every observed old value is distinct.
  SystemConfig cfg = baseConfig();
  constexpr Addr kLock = 0x10000;  // zero-initialized segment
  std::map<NodeId, std::vector<Instr>> progs;
  for (NodeId n = 0; n < 4; ++n) {
    progs[n] = {Instr::swap(kLock, 100 + n, 1)};
  }
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  std::vector<std::uint64_t> seen;
  for (NodeId n = 0; n < 4; ++n) {
    auto& p = static_cast<ScriptedProgram&>(sys->core(n).program());
    ASSERT_EQ(p.results().size(), 1u);
    seen.push_back(p.results()[0].second);
  }
  int zeros = 0;
  for (auto v : seen) {
    if (v == 0) ++zeros;
  }
  EXPECT_EQ(zeros, 1) << "exactly one node wins the free lock";
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end())
      << "swap chain must be a permutation (atomicity)";
}

TEST(SnoopingProtocol, TotalOrderGivesCoherentFinalValue) {
  // All four nodes write the same word; after the dust settles every copy
  // equals one of the written values and the owner's value is final.
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  for (NodeId n = 0; n < 4; ++n) {
    progs[n] = {Instr::store(kBlk, 1000 + n)};
  }
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  NodeId home = MemoryMap{4}.homeOf(kBlk);
  const NodeId owner = sys->snoopMem(home)->cacheOwnerOf(kBlk);
  ASSERT_NE(owner, kInvalidNode);
  const std::uint64_t v =
      sys->l2(owner).array().find(kBlk)->data.read(0);
  EXPECT_GE(v, 1000u);
  EXPECT_LE(v, 1003u);
}

}  // namespace
}  // namespace dvmc
