// Directory MOSI protocol tests: targeted coherence scenarios driven by
// scripted per-node programs, checking both values (end-to-end data flow)
// and directory/cache states.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

constexpr Addr kBlk = 0x400000;  // shared test block (non-zero-init region)
constexpr Addr kBlk2 = 0x400040;

SystemConfig baseConfig(std::size_t nodes = 4) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = nodes;
  cfg.berEnabled = false;  // pure protocol tests
  cfg.maxCycles = 2'000'000;
  return cfg;
}

/// Builds a system where node n runs `progs[n]` (missing = empty program).
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

TEST(DirectoryProtocol, LoadBringsBlockShared) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::load(kBlk, 1)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  CacheLine* line = sys->l2(0).array().find(kBlk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, MosiState::kS);
  // Home directory: node 0 is a sharer, no owner.
  DirectoryHome* home = sys->home(MemoryMap{4}.homeOf(kBlk));
  EXPECT_EQ(home->ownerOf(kBlk), kInvalidNode);
  EXPECT_EQ(home->sharersOf(kBlk).count(0), 1u);
  EXPECT_FALSE(home->isBusy(kBlk));
  EXPECT_EQ(r.detections, 0u);
}

TEST(DirectoryProtocol, LoadReturnsMemoryPattern) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::load(kBlk, 1)}}});
  sys->run();
  auto& prog = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_EQ(prog.results()[0].second,
            MemoryStorage::initialPattern(kBlk).read(0));
}

TEST(DirectoryProtocol, StoreAcquiresM) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::store(kBlk, 77)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  CacheLine* line = sys->l2(0).array().find(kBlk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, MosiState::kM);
  EXPECT_EQ(line->data.read(0), 77u);
  EXPECT_EQ(sys->home(MemoryMap{4}.homeOf(kBlk))->ownerOf(kBlk), 0u);
  EXPECT_EQ(r.detections, 0u);
}

TEST(DirectoryProtocol, ProducerConsumerTransfersData) {
  // Node 0 writes; node 1 spins until it observes the value (real
  // communication through the protocol, not luck).
  std::vector<Instr> producer = {Instr::store(kBlk, 4242)};
  // Consumer: spin-load until 4242 observed (token-driven).
  class Spin final : public ThreadProgram {
   public:
    std::optional<Instr> next() override {
      if (done_ || waiting_) return std::nullopt;
      waiting_ = true;
      return Instr::load(kBlk, 1);
    }
    void onResult(std::uint64_t, std::uint64_t v) override {
      waiting_ = false;
      if (v == 4242) done_ = true;
    }
    bool finished() const override { return done_; }
    std::uint64_t transactionsCompleted() const override { return done_; }
    std::unique_ptr<ThreadProgram> clone() const override {
      return std::make_unique<Spin>(*this);
    }

   private:
    bool waiting_ = false;
    bool done_ = false;
  };

  SystemConfig cfg = baseConfig();
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      return std::make_unique<ScriptedProgram>(
          std::vector<Instr>{Instr::store(kBlk, 4242)});
    }
    if (n == 1) return std::make_unique<Spin>();
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // Writer was downgraded M -> O by the reader's GetS.
  CacheLine* w = sys.l2(0).array().find(kBlk);
  if (w != nullptr) {
    EXPECT_EQ(w->state, MosiState::kO);
  }
  CacheLine* rd = sys.l2(1).array().find(kBlk);
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->state, MosiState::kS);
  EXPECT_EQ(rd->data.read(0), 4242u);
}

TEST(DirectoryProtocol, WriterInvalidatesSharers) {
  // Nodes 1..3 read the block; node 0 then writes; sharers must lose it.
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  progs[1] = {Instr::load(kBlk)};
  progs[2] = {Instr::load(kBlk)};
  progs[3] = {Instr::load(kBlk)};
  // Give the readers a head start with compute padding on the writer.
  progs[0] = {Instr::compute(2000), Instr::store(kBlk, 5)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_EQ(sys->l2(n).array().find(kBlk), nullptr) << "node " << n;
  }
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->state, MosiState::kM);
  EXPECT_EQ(sys->home(MemoryMap{4}.homeOf(kBlk))->ownerOf(kBlk), 0u);
}

TEST(DirectoryProtocol, UpgradeFromSharedToModified) {
  auto sys = makeSystem(baseConfig(),
                        {{0, {Instr::load(kBlk, 1), Instr::store(kBlk, 9)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  CacheLine* line = sys->l2(0).array().find(kBlk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, MosiState::kM);
  EXPECT_EQ(line->data.read(0), 9u);
}

TEST(DirectoryProtocol, AtomicSwapReturnsOldValue) {
  auto sys = makeSystem(baseConfig(), {{0, {Instr::swap(kBlk, 123, 7)}}});
  sys->run();
  auto& prog = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_EQ(prog.results()[0].first, 7u);
  EXPECT_EQ(prog.results()[0].second,
            MemoryStorage::initialPattern(kBlk).read(0));
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->data.read(0), 123u);
}

TEST(DirectoryProtocol, EvictionWritesBackDirtyData) {
  // Write a block, then touch enough conflicting blocks to evict it; the
  // home memory must hold the written value afterwards.
  SystemConfig cfg = baseConfig();
  cfg.l2 = {2, 2};  // tiny L2: 4 lines
  cfg.l1 = {1, 1};
  std::vector<Instr> prog = {Instr::store(kBlk, 31415)};
  // kBlk maps to set (kBlk/64) % 2; touch 8 more blocks in the same set.
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  auto sys = makeSystem(cfg, {{0, prog}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // Block must be gone from node 0 and its data must be in home memory.
  EXPECT_EQ(sys->l2(0).array().find(kBlk), nullptr);
  DirectoryHome* home = sys->home(MemoryMap{4}.homeOf(kBlk));
  ErrorSink scratch;
  EXPECT_EQ(home->memory().read(kBlk, &scratch, 0, 0).read(0), 31415u);
  EXPECT_EQ(home->ownerOf(kBlk), kInvalidNode);
}

TEST(DirectoryProtocol, ReloadAfterEvictionSeesWrittenValue) {
  SystemConfig cfg = baseConfig();
  cfg.l2 = {2, 2};
  cfg.l1 = {1, 1};
  std::vector<Instr> prog = {Instr::store(kBlk, 2718)};
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  prog.push_back(Instr::load(kBlk, 55));
  auto sys = makeSystem(cfg, {{0, prog}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  bool found = false;
  for (auto& [tok, val] : p.results()) {
    if (tok == 55) {
      EXPECT_EQ(val, 2718u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DirectoryProtocol, TwoWritersSerializeOnSameBlock) {
  // Both nodes store different words of the same block; final block holds
  // both values (no lost updates).
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  progs[0] = {Instr::store(kBlk, 1)};
  progs[1] = {Instr::store(kBlk + 8, 2)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // The final owner (whichever wrote last) must have both words.
  DirectoryHome* home = sys->home(MemoryMap{4}.homeOf(kBlk));
  const NodeId owner = home->ownerOf(kBlk);
  ASSERT_NE(owner, kInvalidNode);
  CacheLine* line = sys->l2(owner).array().find(kBlk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->data.read(0), 1u);
  EXPECT_EQ(line->data.read(8), 2u);
}

TEST(DirectoryProtocol, ManyBlocksManyNodesConverge) {
  // Every node writes its own word in every block; afterwards each block
  // holds all four values (heavy MSHR/forward/inv traffic).
  SystemConfig cfg = baseConfig();
  std::map<NodeId, std::vector<Instr>> progs;
  for (NodeId n = 0; n < 4; ++n) {
    for (int b = 0; b < 8; ++b) {
      progs[n].push_back(
          Instr::store(kBlk + b * kBlockSizeBytes + n * 8, 100 + n));
    }
  }
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // Read back via any node's L2 or home memory (drain first).
  for (int b = 0; b < 8; ++b) {
    const Addr blk = kBlk + b * kBlockSizeBytes;
    // Locate the authoritative copy: owner cache or home memory.
    DirectoryHome* home = sys->home(MemoryMap{4}.homeOf(blk));
    const NodeId owner = home->ownerOf(blk);
    const DataBlock* data = nullptr;
    ErrorSink scratch;
    if (owner != kInvalidNode) {
      CacheLine* line = sys->l2(owner).array().find(blk);
      ASSERT_NE(line, nullptr) << "owner without line, block " << b;
      data = &line->data;
    } else {
      data = &home->memory().read(blk, &scratch, 0, 0);
    }
    for (NodeId n = 0; n < 4; ++n) {
      EXPECT_EQ(data->read(n * 8), 100u + n) << "block " << b;
    }
  }
}

TEST(DirectoryProtocol, PrefetchWarmsWritePermission) {
  // A store after compute delay should hit M thanks to the prefetch issued
  // at execute; verify via stats that the L2 saw a hit for the store.
  SystemConfig cfg = baseConfig();
  auto sys = makeSystem(
      cfg, {{0, {Instr::store(kBlk2, 1), Instr::compute(500),
                 Instr::store(kBlk2 + 8, 2)}}});
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys->l2(0).array().find(kBlk2)->state, MosiState::kM);
}

TEST(DirectoryProtocol, SilentSharerEvictionStillAcksInv) {
  // Reader loads a block, evicts it silently, then the writer's GetM sends
  // an Inv to the stale sharer, which must ack for the writer to proceed.
  SystemConfig cfg = baseConfig(2);
  cfg.l2 = {2, 1};  // 2 lines: trivial to evict
  cfg.l1 = {1, 1};
  std::map<NodeId, std::vector<Instr>> progs;
  progs[1] = {Instr::load(kBlk), Instr::load(kBlk + 2 * kBlockSizeBytes),
              Instr::load(kBlk + 4 * kBlockSizeBytes)};
  progs[0] = {Instr::compute(3000), Instr::store(kBlk, 6)};
  auto sys = makeSystem(cfg, progs);
  RunResult r = sys->run();
  ASSERT_TRUE(r.completed) << "writer deadlocked waiting for InvAck";
  EXPECT_EQ(r.detections, 0u);
  EXPECT_EQ(sys->l2(0).array().find(kBlk)->data.read(0), 6u);
}

}  // namespace
}  // namespace dvmc
