// Litmus tests on the live machine: the classic two-thread shapes whose
// forbidden/allowed outcomes DEFINE the consistency models. Forbidden
// outcomes must never appear (many seeds, adversarial address placement);
// allowed outcomes must actually appear (the relaxation is real, not an
// artifact of a secretly-too-strong implementation).
//
//   SB (store buffering / Dekker):   T0: X=1; r0=Y   T1: Y=1; r1=X
//       (0,0) forbidden under SC, allowed under TSO/PSO/RMO.
//   MP (message passing):            T0: D=1; F=1    T1: r0=F; r1=D
//       (F=1, D=0) forbidden under SC/TSO, allowed under PSO/RMO
//       (store-store reordering); re-forbidden by an Stbar between the
//       stores and an Membar #LoadLoad between the loads.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

// Adversarial placement: each thread's stores are homed at the *other*
// node (slow perform) while its loads are local (fast).
constexpr Addr kX = 0x400040;  // home: node 1
constexpr Addr kY = 0x480000;  // home: node 0
// MP: the data is homed remotely (slow store perform) while the flag is a
// block the writer already owns (instant drain). With the write buffer
// backed up behind remote misses, the owned-first issue policy lets the
// flag overtake the data — the real-hardware PSO reordering shape.
constexpr Addr kD = 0x400040;  // home: node 1 (remote for the writer)
constexpr Addr kF = 0x400080;  // home: node 0 (writer-local)

std::uint64_t init(Addr a) {
  return MemoryStorage::initialPattern(blockAddr(a)).read(blockOffset(a));
}

struct LitmusResult {
  std::uint64_t r0;
  std::uint64_t r1;
  bool operator<(const LitmusResult& o) const {
    return r0 != o.r0 ? r0 < o.r0 : r1 < o.r1;
  }
};

LitmusResult runLitmus(ConsistencyModel model, int jitter,
                       std::vector<Instr> t0, std::vector<Instr> t1,
                       Addr t0LoadAddr, Addr t1LoadAddr) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory, model);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 2'000'000;
  cfg.programFactory = [=](NodeId n) -> std::unique_ptr<ThreadProgram> {
    std::vector<Instr> p;
    // Pre-warm both variables into both caches, settle, jitter.
    p.push_back(Instr::load(kX));
    p.push_back(Instr::load(kY));
    p.push_back(Instr::load(kF));
    p.push_back(Instr::compute(800));
    p.push_back(Instr::compute(
        static_cast<std::uint16_t>(1 + (jitter * (n + 3)) % 41)));
    const auto& body = n == 0 ? t0 : t1;
    p.insert(p.end(), body.begin(), body.end());
    return std::make_unique<ScriptedProgram>(p);
  };
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u) << sys.sink().first().what;
  auto& p0 = static_cast<ScriptedProgram&>(sys.core(0).program());
  auto& p1 = static_cast<ScriptedProgram&>(sys.core(1).program());
  LitmusResult out{0, 0};
  // Normalize: 1 = saw the written value, 0 = saw the initial pattern.
  out.r0 = p0.results().empty()
               ? 0
               : (p0.results()[0].second == init(t0LoadAddr) ? 0 : 1);
  out.r1 = p1.results().empty()
               ? 0
               : (p1.results()[0].second == init(t1LoadAddr) ? 0 : 1);
  return out;
}

// ---------------------------------------------------------------------------
// Store buffering (SB)
// ---------------------------------------------------------------------------

std::set<LitmusResult> sweepSB(ConsistencyModel m, int trials) {
  std::set<LitmusResult> seen;
  for (int t = 0; t < trials; ++t) {
    seen.insert(runLitmus(
        m, t, {Instr::store(kX, 1), Instr::load(kY, 1)},
        {Instr::store(kY, 1), Instr::load(kX, 1)}, kY, kX));
  }
  return seen;
}

TEST(LitmusSB, ScForbidsBothZero) {
  auto seen = sweepSB(ConsistencyModel::kSC, 25);
  EXPECT_EQ(seen.count(LitmusResult{0, 0}), 0u)
      << "SC must not exhibit store buffering";
}

TEST(LitmusSB, TsoExhibitsStoreBuffering) {
  auto seen = sweepSB(ConsistencyModel::kTSO, 25);
  EXPECT_EQ(seen.count(LitmusResult{0, 0}), 1u)
      << "TSO's write buffer must be visible";
}

TEST(LitmusSB, TsoMembarStoreLoadRestoresSC) {
  std::set<LitmusResult> seen;
  for (int t = 0; t < 25; ++t) {
    seen.insert(runLitmus(
        ConsistencyModel::kTSO, t,
        {Instr::store(kX, 1), Instr::membar(membar::kStoreLoad),
         Instr::load(kY, 1)},
        {Instr::store(kY, 1), Instr::membar(membar::kStoreLoad),
         Instr::load(kX, 1)},
        kY, kX));
  }
  EXPECT_EQ(seen.count(LitmusResult{0, 0}), 0u)
      << "Membar #StoreLoad must forbid the SB outcome";
}

// ---------------------------------------------------------------------------
// Message passing (MP)
// ---------------------------------------------------------------------------

/// T1: prewarm the data, wait a swept delay, probe the flag ONCE (a
/// polling loop would cache the flag and steal the writer's ownership,
/// destroying the owned-block fast drain that creates the reordering),
/// and if the flag was up, read the data.
class MpReader final : public ThreadProgram {
 public:
  MpReader(std::uint8_t loadMembarMask, std::uint16_t delay)
      : mask_(loadMembarMask), delay_(delay) {}
  std::optional<Instr> next() override {
    if (waiting_) return std::nullopt;
    switch (state_) {
      case 0:  // prewarm the stale data copy
        waiting_ = true;
        state_ = 1;
        return Instr::load(kD, 3);
      case 2:
        state_ = 9;
        return Instr::compute(delay_);
      case 9:  // dispatch gate: the probe must not execute speculatively
                // before the delay elapses (it would fetch the flag early
                // and steal the writer's ownership); a token-carrying dummy
                // load on a private word stalls dispatch until the delay
                // has fully retired.
        waiting_ = true;
        state_ = 3;
        return Instr::load(0x70000000, 4);
      case 3:  // single timed probe of the flag
        waiting_ = true;
        state_ = 4;
        return Instr::load(kF, 1);
      case 5:
        if (mask_ != 0) {
          state_ = 6;
          return Instr::membar(mask_);
        }
        [[fallthrough]];
      case 6:
        waiting_ = true;
        state_ = 7;
        return Instr::load(kD, 2);
      default:
        return std::nullopt;
    }
  }
  void onResult(std::uint64_t token, std::uint64_t v) override {
    waiting_ = false;
    if (token == 3) {
      state_ = 2;
    } else if (token == 4) {
      state_ = 3;  // delay retired: probe now
    } else if (token == 1) {
      sawFlag_ = (v == 1);
      state_ = sawFlag_ ? 5 : 8;  // flag down: inconclusive trial
    } else {
      sawData_ = (v == 1);
      state_ = 8;
    }
  }
  bool finished() const override { return state_ == 8; }
  std::uint64_t transactionsCompleted() const override {
    return state_ == 8;
  }
  std::unique_ptr<ThreadProgram> clone() const override {
    return std::make_unique<MpReader>(*this);
  }
  bool sawFlag() const { return sawFlag_; }
  bool sawData() const { return sawData_; }

 private:
  std::uint8_t mask_;
  std::uint16_t delay_;
  int state_ = 0;
  bool waiting_ = false;
  bool sawFlag_ = false;
  bool sawData_ = false;
};

/// Runs MP once with the given probe delay. Returns {flagSeen, staleData}.
std::pair<bool, bool> runMP(ConsistencyModel model, std::uint16_t probeDelay,
                            bool writerBarrier, std::uint8_t readerMask) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory, model);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 4'000'000;
  cfg.cpu.storePrefetch = false;  // let the padding misses really queue
  cfg.programFactory = [=](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      std::vector<Instr> p;
      // Own the flag up front (a reused flag in a real MP loop): the
      // flag store later drains as an owned-block hit while the data
      // store's GetM is still in flight — the PSO reordering window.
      p.push_back(Instr::store(kF, 0));
      // Give the reader time to prewarm its stale data copy.
      p.push_back(Instr::compute(600));
      // Back the write buffer up with remote misses, then the data store.
      for (int b = 0; b < 12; ++b) {
        p.push_back(Instr::store(0x500040 + b * 2 * kBlockSizeBytes, 7));
      }
      p.push_back(Instr::store(kD, 1));
      if (writerBarrier) p.push_back(Instr::stbar());
      p.push_back(Instr::store(kF, 1));
      return std::make_unique<ScriptedProgram>(p);
    }
    return std::make_unique<MpReader>(readerMask, probeDelay);
  };
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u) << sys.sink().first().what;
  auto& reader = static_cast<MpReader&>(sys.core(1).program());
  return {reader.sawFlag(), reader.sawFlag() && !reader.sawData()};
}

TEST(LitmusMP, TsoNeverShowsStaleData) {
  // TSO drains the 12 padding misses strictly in order (~5-7k cycles):
  // probe across the whole range, before and after the flag flips.
  int flagSeen = 0;
  for (int t = 0; t < 30; ++t) {
    const auto delay = static_cast<std::uint16_t>(800 + t * 300);
    auto [flag, stale] = runMP(ConsistencyModel::kTSO, delay, false, 0);
    flagSeen += flag;
    EXPECT_FALSE(stale) << "TSO must not pass stale data, delay " << delay;
  }
  EXPECT_GT(flagSeen, 0) << "probe delays never saw the flag: test inert";
}

TEST(LitmusMP, ScNeverShowsStaleData) {
  for (int t = 0; t < 12; ++t) {
    const auto delay = static_cast<std::uint16_t>(800 + t * 700);
    auto [flag, stale] = runMP(ConsistencyModel::kSC, delay, false, 0);
    EXPECT_FALSE(stale) << delay;
  }
}

TEST(LitmusMP, PsoCanShowStaleDataWithoutStbar) {
  // The flag performs as an owned-block hit right after commit (~650);
  // the data's GetM still sits behind the padding queue. Fine probe sweep
  // over the window.
  bool stale = false;
  int flagSeen = 0;
  for (int t = 0; t < 60 && !stale; ++t) {
    const auto delay = static_cast<std::uint16_t>(300 + t * 29);
    auto [flag, s] = runMP(ConsistencyModel::kPSO, delay, false, 0);
    flagSeen += flag;
    stale = s;
  }
  EXPECT_GT(flagSeen, 0);
  EXPECT_TRUE(stale) << "PSO store-store reordering must be observable";
}

TEST(LitmusMP, PsoStbarRestoresMessagePassing) {
  int flagSeen = 0;
  for (int t = 0; t < 40; ++t) {
    const auto delay = static_cast<std::uint16_t>(300 + t * 150);
    auto [flag, stale] =
        runMP(ConsistencyModel::kPSO, delay, /*writerBarrier=*/true, 0);
    flagSeen += flag;
    EXPECT_FALSE(stale) << "Stbar must forbid stale data, delay " << delay;
  }
  EXPECT_GT(flagSeen, 0);
}

TEST(LitmusMP, RmoNeedsBothBarriers) {
  for (int t = 0; t < 30; ++t) {
    const auto delay = static_cast<std::uint16_t>(300 + t * 150);
    auto [flag, stale] = runMP(ConsistencyModel::kRMO, delay,
                               /*writerBarrier=*/true, membar::kLoadLoad);
    EXPECT_FALSE(stale) << delay;
  }
}


// ---------------------------------------------------------------------------
// CoRR (coherence read-read): two program-order loads of the same location
// must not observe values out of coherence order — under EVERY model
// (coherence underpins all of them; Section 3's third invariant).
// ---------------------------------------------------------------------------

class CoRRReader final : public ThreadProgram {
 public:
  std::optional<Instr> next() override {
    if (waiting_ || state_ >= 2) return std::nullopt;
    waiting_ = true;
    return Instr::load(kX, 1 + state_);
  }
  void onResult(std::uint64_t token, std::uint64_t v) override {
    waiting_ = false;
    r_[token - 1] = v;
    ++state_;
  }
  bool finished() const override { return state_ >= 2; }
  std::uint64_t transactionsCompleted() const override {
    return state_ >= 2;
  }
  std::unique_ptr<ThreadProgram> clone() const override {
    return std::make_unique<CoRRReader>(*this);
  }
  std::uint64_t r_[2] = {0, 0};

 private:
  int state_ = 0;
  bool waiting_ = false;
};

class LitmusCoRR : public ::testing::TestWithParam<ConsistencyModel> {};

TEST_P(LitmusCoRR, SecondReadNeverOlderThanFirst) {
  const std::uint64_t initX = init(kX);
  for (int trial = 0; trial < 20; ++trial) {
    SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                              GetParam());
    cfg.numNodes = 2;
    cfg.berEnabled = false;
    cfg.maxCycles = 2'000'000;
    cfg.programFactory = [trial](NodeId n)
        -> std::unique_ptr<ThreadProgram> {
      if (n == 0) {
        return std::make_unique<ScriptedProgram>(std::vector<Instr>{
            Instr::compute(static_cast<std::uint16_t>(50 + trial * 23)),
            Instr::store(kX, 1)});
      }
      return std::make_unique<CoRRReader>();
    };
    System sys(cfg);
    RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.detections, 0u);
    auto& rd = static_cast<CoRRReader&>(sys.core(1).program());
    const bool first = rd.r_[0] != initX;
    const bool second = rd.r_[1] != initX;
    EXPECT_FALSE(first && !second)
        << "coherence violated: new value then old, trial " << trial
        << " under " << modelName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, LitmusCoRR,
                         ::testing::Values(ConsistencyModel::kSC,
                                           ConsistencyModel::kTSO,
                                           ConsistencyModel::kPSO,
                                           ConsistencyModel::kRMO),
                         [](const auto& info) {
                           return std::string(modelName(info.param));
                         });

// ---------------------------------------------------------------------------
// IRIW (independent reads of independent writes): invalidation-based MOSI
// makes stores multi-copy atomic, so the readers can never disagree about
// the write order — certainly required under SC and TSO.
// ---------------------------------------------------------------------------

class IriwReader final : public ThreadProgram {
 public:
  IriwReader(Addr first, Addr second) : a_{first, second} {}
  std::optional<Instr> next() override {
    if (waiting_ || state_ >= 2) return std::nullopt;
    waiting_ = true;
    return Instr::load(a_[state_], 1 + state_);
  }
  void onResult(std::uint64_t token, std::uint64_t v) override {
    waiting_ = false;
    r_[token - 1] = v;
    ++state_;
  }
  bool finished() const override { return state_ >= 2; }
  std::uint64_t transactionsCompleted() const override {
    return state_ >= 2;
  }
  std::unique_ptr<ThreadProgram> clone() const override {
    return std::make_unique<IriwReader>(*this);
  }
  std::uint64_t r_[2] = {0, 0};

 private:
  Addr a_[2];
  int state_ = 0;
  bool waiting_ = false;
};

TEST(LitmusIRIW, ReadersNeverDisagreeOnWriteOrder) {
  const std::uint64_t initX = init(kX);
  const std::uint64_t initY = init(kY);
  for (ConsistencyModel m :
       {ConsistencyModel::kSC, ConsistencyModel::kTSO}) {
    for (int trial = 0; trial < 15; ++trial) {
      SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory, m);
      cfg.numNodes = 4;
      cfg.berEnabled = false;
      cfg.maxCycles = 2'000'000;
      cfg.programFactory = [trial](NodeId n)
          -> std::unique_ptr<ThreadProgram> {
        switch (n) {
          case 0:
            return std::make_unique<ScriptedProgram>(std::vector<Instr>{
                Instr::compute(static_cast<std::uint16_t>(1 + trial * 31)),
                Instr::store(kX, 1)});
          case 1:
            return std::make_unique<ScriptedProgram>(std::vector<Instr>{
                Instr::compute(static_cast<std::uint16_t>(1 + trial * 17)),
                Instr::store(kY, 1)});
          case 2:
            return std::make_unique<IriwReader>(kX, kY);
          default:
            return std::make_unique<IriwReader>(kY, kX);
        }
      };
      System sys(cfg);
      RunResult res = sys.run();
      ASSERT_TRUE(res.completed);
      EXPECT_EQ(res.detections, 0u);
      auto& r2 = static_cast<IriwReader&>(sys.core(2).program());
      auto& r3 = static_cast<IriwReader&>(sys.core(3).program());
      // Forbidden: r2 saw X then not-yet-Y while r3 saw Y then not-yet-X.
      const bool t2Order = r2.r_[0] != initX && r2.r_[1] == initY;
      const bool t3Order = r3.r_[0] != initY && r3.r_[1] == initX;
      EXPECT_FALSE(t2Order && t3Order)
          << "IRIW violation under " << modelName(m) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace dvmc
