#include "cpu/core.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/assert.hpp"
#include "verify/trace.hpp"

namespace dvmc {

namespace {
constexpr std::uint8_t kLoadFirstBits = membar::kLoadLoad | membar::kLoadStore;
constexpr std::uint8_t kStoreFirstBits =
    membar::kStoreLoad | membar::kStoreStore;
constexpr std::uint8_t kLoadAfterBits = membar::kLoadLoad | membar::kStoreLoad;

bool isAtomic(const Instr& i) {
  return i.kind == Instr::Kind::kSwap || i.kind == Instr::Kind::kCas;
}
}  // namespace

Core::Core(Simulator& sim, NodeId node, ConsistencyModel model, CpuConfig cfg,
           CacheHierarchy& mem, std::unique_ptr<ThreadProgram> program,
           ErrorSink* sink, VerificationCache* vc, ReorderChecker* ar,
           const DvmcConfig& dvmc)
    : sim_(sim),
      tickerId_(sim.addTicker(*this)),
      node_(node),
      model_(model),
      cfg_(cfg),
      mem_(mem),
      program_(std::move(program)),
      sink_(sink),
      vc_(vc),
      ar_(ar),
      dvmc_(dvmc),
      lastDispatchModel_(model) {
  DVMC_ASSERT(cfg_.robSize <= 64, "the ROB state masks hold 64 entries");
  // Steady-state ring capacity: the window depths are configuration
  // bounds, so neither queue reallocates on the per-cycle path.
  rob_.reserve(cfg_.robSize);
  wb_.reserve(cfg_.wbCapacity);
  for (int m = 0; m < 4; ++m) {
    tables_[m] = OrderingTable::forModel(static_cast<ConsistencyModel>(m));
  }
  mem_.setCpuNotifier(this);
  mem_.setClient(this);
}

const OrderingTable& Core::tableFor(ConsistencyModel m) const {
  return tables_[static_cast<int>(m)];
}

void Core::start() {
  if (started_) return;
  started_ = true;
  wakeIn(1);
  if (ar_ != nullptr) {
    // Artificial membar injection for lost-operation detection (§4.2).
    sim_.schedule(dvmc_.membarInjectionPeriod, [this] { injectTick(); });
  }
}

void Core::injectTick() {
  if (ar_ == nullptr) return;
  ar_->injectCheckpointMembar();
  // Pipeline-hang watchdog: a core that retires nothing across a whole
  // injection period while holding instructions has lost an operation
  // pre-commit (e.g., a dropped data response stranded a load).
  if (retiredCount_ == lastRetiredAtInject_ && !rob_.empty()) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kLostOperation, sim_.now(), node_,
                     rob_.front().seq, "pipeline made no progress"});
    }
    cHangDetections_.inc();
  }
  lastRetiredAtInject_ = retiredCount_;
  if (!done()) {
    sim_.schedule(dvmc_.membarInjectionPeriod, [this] { injectTick(); });
  }
}

bool Core::injectWbValueFault(std::uint64_t rand) {
  std::vector<WbEntry*> candidates;
  for (WbEntry& w : wb_) {
    if (!w.inFlight) candidates.push_back(&w);
  }
  if (candidates.empty()) return false;
  WbEntry& w = *candidates[rand % candidates.size()];
  w.value ^= (1ull << ((rand / candidates.size()) % 64));
  return true;
}

bool Core::done() const {
  return program_->finished() && rob_.empty() && wb_.empty() &&
         replayQueue_.empty() && outstandingStores_ == 0;
}

void Core::setProgressHook(ProgressHook h) {
  progressHook_ = std::move(h);
  reportedTxns_ = transactions();
  reportedDone_ = done();
  if (progressHook_) {
    progressHook_(static_cast<std::int64_t>(reportedTxns_),
                  reportedDone_ ? 1 : 0);
  }
}

void Core::reportProgress() {
  const std::uint64_t txns = transactions();
  const bool isDone = done();
  if (txns == reportedTxns_ && isDone == reportedDone_) return;
  if (progressHook_) {
    progressHook_(static_cast<std::int64_t>(txns - reportedTxns_),
                  static_cast<int>(isDone) - static_cast<int>(reportedDone_));
  }
  reportedTxns_ = txns;
  reportedDone_ = isDone;
}

void Core::setState(RobEntry& e, St s) {
  moved_ = true;
  const std::uint64_t bit = robBit(e);
  stMask_[static_cast<int>(e.st)] &= ~bit;
  stMask_[static_cast<int>(s)] |= bit;
  e.st = s;
}

void Core::startLatency(RobEntry& e, Cycle latency) {
  setState(e, St::kIssued);
  e.readyAt = sim_.now() + latency;
  timedMask_ |= robBit(e);
  nextReadyAt_ = std::min(nextReadyAt_, e.readyAt);
  wakeIn(latency);
}

void Core::checkBookkeeping() const {
  std::array<std::uint64_t, kNumStates> masks{};
  std::uint64_t atomics = 0;
  std::uint64_t switches = 0;
  std::uint64_t timed = 0;
  Cycle nextReadyAt = kNoReadyAt;
  bool gateStore = false;
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const RobEntry& e = rob_[i];
    masks[static_cast<int>(e.st)] |= std::uint64_t{1} << i;
    if (isAtomic(e.inst)) atomics |= std::uint64_t{1} << i;
    if (e.modeSwitch) switches |= std::uint64_t{1} << i;
    if (e.st == St::kIssued && e.readyAt != 0) {
      timed |= std::uint64_t{1} << i;
      nextReadyAt = std::min(nextReadyAt, e.readyAt);
    }
    gateStore = gateStore || (e.st == St::kGateIssued &&
                              e.inst.kind == Instr::Kind::kStore);
  }
  DVMC_ASSERT(masks == stMask_, "ROB state masks disagree with the ROB");
  const std::uint64_t verified = inState(St::kVerified);
  DVMC_ASSERT((verified & (verified + 1)) == 0,
              "verified entries do not form a ROB prefix");
  DVMC_ASSERT(atomics == atomicMask_ && switches == switchMask_,
              "atomic or model-switch mask disagrees with the ROB");
  DVMC_ASSERT(timed == timedMask_, "timed-entry mask disagrees with the ROB");
  DVMC_ASSERT(nextReadyAt == nextReadyAt_,
              "earliest readyAt disagrees with the ROB");
  DVMC_ASSERT(gateStore == gateStoreInFlight_,
              "gate store flag disagrees with the ROB");
  const auto inFlight = static_cast<std::size_t>(std::count_if(
      wb_.begin(), wb_.end(), [](const WbEntry& w) { return w.inFlight; }));
  DVMC_ASSERT(inFlight == wbInFlight_,
              "write-buffer in-flight count disagrees with the buffer");
  DVMC_ASSERT(wbHeadHolds_ == (!wb_.empty() && wb_.front().inFlight &&
                               wb_.front().ordered),
              "write-buffer head flag disagrees with the buffer");
}

void Core::wake() {
#ifndef NDEBUG
  asleep_ = false;
#endif
  sim_.armTick(tickerId_, sim_.now());
}

void Core::wakeIn(Cycle d) { sim_.armTick(tickerId_, sim_.now() + d); }

void Core::updateStalls() {
  const Cycle now = sim_.now();
  for (int s = 0; s < kNumStalls; ++s) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << s);
    if ((stalledNow_ & bit) != 0 && (stallOpen_ & bit) == 0) {
      stallSince_[s] = now;
    } else if ((stalledNow_ & bit) == 0 && (stallOpen_ & bit) != 0) {
      cStalls_[s].inc(now - stallSince_[s]);
    }
  }
  stallOpen_ = stalledNow_;
}

Core::RobEntry* Core::entryBySeq(SeqNum seq) {
  if (rob_.empty()) return nullptr;
  const SeqNum head = rob_.front().seq;
  if (seq < head || seq >= head + rob_.size()) return nullptr;
  return &rob_[static_cast<std::size_t>(seq - head)];
}

bool Core::restartIfSquashed(RobEntry& e) {
  if (!e.squashPending) return false;
  e.squashPending = false;
  ++e.gen;
  setState(e, St::kDispatched);
  cLoadSquashRestart_.inc();
  return true;
}

bool Core::pollable() const {
  return (inState(St::kDispatched) | inState(St::kExecuted) |
          inState(St::kGateDone) | inState(St::kVerified)) != 0 ||
         wb_.size() > wbInFlight_ ||
         (rob_.size() < cfg_.robSize &&
          (!replayQueue_.empty() ||
           (!program_->finished() && !dispatchBlocked_)));
}

void Core::tick() {
#ifndef NDEBUG
  // An expiring latency armed this cycle when it started.
  if (sim_.now() >= nextReadyAt_) asleep_ = false;
  const bool mustIdle = asleep_;
#endif
  moved_ = false;
  phaseRetire();
  phaseGate();
  drainWriteBuffer();
  phaseExecute();
  phaseDispatch();
  if (stalledNow_ != stallOpen_) updateStalls();
  stalledNow_ = 0;

  // Only a tick that moved something can enable another move without an
  // input, so only such a tick re-arms, and only while cycle-driven work is
  // left; callback-driven work (cache ops in flight) wakes the core itself.
#ifdef NDEBUG
  if (moved_ && pollable()) wakeIn(1);
#else
  // The self-check: keep polling, and require every tick a sleeping core
  // would have skipped to move nothing.
  DVMC_ASSERT(!(mustIdle && moved_),
              "a tick the core would sleep through moved");
  const bool poll = pollable();
  asleep_ = !(moved_ && poll);
  if (poll) wakeIn(1);
#endif
  reportProgress();
#ifndef NDEBUG
  checkBookkeeping();
#endif
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void Core::phaseDispatch() {
  for (std::size_t n = 0; n < cfg_.width; ++n) {
    if (rob_.size() >= cfg_.robSize) {
      stall(kRobFull);
      return;
    }
    std::optional<Instr> inst;
    if (!replayQueue_.empty()) {
      // Post-recovery: re-execute the work that was in flight at the
      // checkpoint before pulling new instructions from the program.
      inst = replayQueue_.front();
      replayQueue_.pop_front();
    } else {
      inst = program_->next();
    }
    if (!inst) {
      dispatchBlocked_ = pendingTokens_ > 0;
      return;
    }
    RobEntry e;
    e.inst = *inst;
    e.seq = nextSeq_++;
    e.model = effectiveModel(model_, inst->is32Bit);
    e.modeSwitch = (e.model != lastDispatchModel_);
    lastDispatchModel_ = e.model;
    if (inst->token != 0) ++pendingTokens_;
    rob_.push_back(e);
    moved_ = true;
    const std::uint64_t bit = robBit(rob_.back());
    stMask_[static_cast<int>(St::kDispatched)] |= bit;
    if (isAtomic(e.inst)) atomicMask_ |= bit;
    if (e.modeSwitch) switchMask_ |= bit;
    cDispatched_.inc();
  }
}

// --------------------------------------------------------------------------
// Execute
// --------------------------------------------------------------------------

bool Core::allOlderVerified(const RobEntry& e) const {
  return e.seq - rob_.front().seq <= verifiedPrefix();
}

bool Core::atomicMayExecute(const RobEntry& e) const {
  return allOlderVerified(e) && outstandingStores_ == 0 && wb_.empty();
}

std::optional<std::uint64_t> Core::forwardFromPipeline(
    const RobEntry& e) const {
  const Addr word = e.inst.addr & ~Addr{7};
  // Youngest older store in the ROB wins over anything in the write buffer.
  for (auto it = rob_.rbegin(); it != rob_.rend(); ++it) {
    if (it->seq >= e.seq) continue;
    if ((it->inst.kind == Instr::Kind::kStore ||
         it->inst.kind == Instr::Kind::kSwap) &&
        (it->inst.addr & ~Addr{7}) == word) {
      return it->inst.value;
    }
    if (it->inst.kind == Instr::Kind::kCas &&
        (it->inst.addr & ~Addr{7}) == word && !it->performedAtExec) {
      // An unresolved CAS to the same word: its effect is unknowable, so
      // the load cannot execute yet (handled by the caller as a stall).
      // A performed CAS's effect is already in the cache.
      return std::nullopt;
    }
  }
  for (auto it = wb_.rbegin(); it != wb_.rend(); ++it) {
    if ((it->addr & ~Addr{7}) == word) return it->value;
  }
  return std::nullopt;
}

void Core::phaseExecute() {
  // Promote finished latency-based executions first. Only a cycle in which
  // a latency expires visits the timed entries; the visit also finds the
  // next expiry. Promoting one changes no other entry.
  if (sim_.now() >= nextReadyAt_) {
    nextReadyAt_ = kNoReadyAt;
    for (std::uint64_t ts = timedMask_; ts != 0; ts &= ts - 1) {
      RobEntry& e = rob_[static_cast<std::size_t>(std::countr_zero(ts))];
      if (sim_.now() < e.readyAt) {
        nextReadyAt_ = std::min(nextReadyAt_, e.readyAt);
        continue;
      }
      e.readyAt = 0;
      timedMask_ &= ~robBit(e);
      // A remote write invalidated the block this (forwarded) load read
      // from while its execute latency elapsed: re-execute.
      if (restartIfSquashed(e)) continue;
      setState(e, St::kExecuted);
      if (e.performedAtExec) {
        // Forwarded RMO load: it performs now.
        e.performedAt = sim_.now();
        if (vc_ != nullptr) vc_->parkLoadValue(e.inst.addr, 8, e.execValue);
        performEvent(e);
      }
    }
  }

  // Issue, oldest first, visiting only dispatched entries. Issuing one
  // changes no other entry, so the mask read up front stays exact. Atomics
  // and model switches issue only into a drained pipeline, as the oldest
  // unverified entry (mayGo), and a switch that cannot go holds back
  // everything younger. So nothing issues when the oldest dispatched entry
  // is a switch that cannot go, or when every one is an atomic that cannot.
  const std::uint64_t dispatched = inState(St::kDispatched);
  const std::uint64_t mayGo =
      outstandingStores_ == 0 && wb_.empty() ? frontierBit() : 0;
  const std::uint64_t oldest = dispatched & (~dispatched + 1);
  if ((oldest & switchMask_ & ~mayGo) != 0 ||
      (dispatched & ~(atomicMask_ & ~mayGo)) == 0) {
    return;
  }
  std::size_t issued = 0;
  for (std::uint64_t ds = dispatched; ds != 0 && issued < cfg_.width;
       ds &= ds - 1) {
    RobEntry& e = rob_[static_cast<std::size_t>(std::countr_zero(ds))];
    // A pending consistency-model switch drains the pipeline: nothing
    // younger executes until the switch instruction itself may run.
    if (e.modeSwitch &&
        !(allOlderVerified(e) && outstandingStores_ == 0 && wb_.empty())) {
      return;
    }
    issueExecute(e);
    if (e.st != St::kDispatched) ++issued;
  }
}

void Core::issueExecute(RobEntry& e) {
  switch (e.inst.kind) {
    case Instr::Kind::kCompute:
      startLatency(e, e.inst.latency);
      return;
    case Instr::Kind::kMembar:
      setState(e, St::kExecuted);
      return;
    case Instr::Kind::kStore:
      startLatency(e, 1);
      if (cfg_.storePrefetch && !e.prefetched) {
        e.prefetched = true;
        mem_.access(cacheOp(e, CacheOp::Kind::kPrefetchM));
        cStorePrefetch_.inc();
      }
      return;
    case Instr::Kind::kLoad:
      executeLoad(e);
      return;
    case Instr::Kind::kSwap:
    case Instr::Kind::kCas:
      if (atomicMayExecute(e)) executeAtomic(e);
      return;
  }
}

void Core::executeLoad(RobEntry& e) {
  const bool rmoLoad = (e.model == ConsistencyModel::kRMO);
  if (rmoLoad) {
    // RMO loads perform at execute: they must wait for older unverified
    // membars that order loads after themselves (#LL / #SL).
    for (const RobEntry& o : rob_) {
      if (o.seq >= e.seq) break;
      if (o.st == St::kVerified) continue;
      if (o.inst.kind == Instr::Kind::kMembar &&
          (o.inst.membarMask & kLoadAfterBits) != 0) {
        return;  // stall; retried next tick
      }
    }
  }

  // Stall behind an unresolved older CAS on the same word: neither
  // forwarding nor the cache can supply the post-CAS value yet. (Atomics
  // execute only when all older work is verified, so this resolves fast.)
  for (const RobEntry& o : rob_) {
    if (o.seq >= e.seq) break;
    if (o.inst.kind == Instr::Kind::kCas && !o.performedAtExec &&
        (o.inst.addr & ~Addr{7}) == (e.inst.addr & ~Addr{7})) {
      return;
    }
  }
  if (auto fwd = forwardFromPipeline(e)) {
    e.execValue = *fwd;
    if (loadFaultArmed_) {
      loadFaultArmed_ = false;
      e.execValue ^= 0x80;  // injected LSQ forwarding corruption
      cInjectedLoadFaults_.inc();
    }
    e.performedAtExec = rmoLoad;
    cLoadForwarded_.inc();
    startLatency(e, 1);
    return;
  }

  setState(e, St::kIssued);
  e.readyAt = 0;
  CacheOp op = cacheOp(e, CacheOp::Kind::kLoad);
  // Ordered-load models perform loads at the verification stage; RMO loads
  // perform here. Without DVUO there is no replay, so the CET rule-1 check
  // fires on the execution access.
  op.countsAsPerform = rmoLoad || vc_ == nullptr;
  cLoadIssued_.inc();
  mem_.access(op);
}

void Core::onLoadExecuted(RobEntry& e, std::uint64_t value) {
  if (restartIfSquashed(e)) return;
  e.execValue = value;
  if (loadFaultArmed_) {
    loadFaultArmed_ = false;
    e.execValue ^= 0x80;  // injected LSQ/forwarding corruption
    cInjectedLoadFaults_.inc();
  }
  setState(e, St::kExecuted);
  const bool rmoLoad = e.model == ConsistencyModel::kRMO;
  if (rmoLoad || vc_ == nullptr) {
    // The cache access just performed this load (countsAsPerform above);
    // ordered-load models with DVUO perform at the verification replay.
    e.performedAt = sim_.now();
  }
  if (rmoLoad) {
    e.performedAtExec = true;
    if (vc_ != nullptr) vc_->parkLoadValue(e.inst.addr, 8, value);
    performEvent(e);
  }
}

void Core::executeAtomic(RobEntry& e) {
  setState(e, St::kIssued);
  CacheOp op = cacheOp(e, e.inst.kind == Instr::Kind::kCas
                              ? CacheOp::Kind::kAtomicCas
                              : CacheOp::Kind::kAtomicSwap);
  op.value = e.inst.value;
  op.compare = e.inst.compare;
  op.countsAsPerform = true;
  cAtomics_.inc();
  mem_.access(op);
}

// --------------------------------------------------------------------------
// In-order gate (commit + verification stage)
// --------------------------------------------------------------------------

void Core::phaseGate() {
  // Pass 1: promote in program order everything whose gate work finished,
  // starting right past the verified prefix; each promotion extends it.
  while ((inState(St::kGateDone) & frontierBit()) != 0) {
    finishGate(rob_[verifiedPrefix()]);
  }

  // Pass 2: admit executed entries into the gate, in order, allowing
  // parallel replays (different instructions verify concurrently as long
  // as serializing operations wait for all older work). While an SC store
  // performs at the gate (right past the verified prefix), nothing younger
  // may enter (Store -> Load ordering — a younger replay reading the cache
  // before the store performs would observe the pre-store value).
  if (gateStoreInFlight_) return;
  // The walk ends at the oldest entry that has not executed, so it has
  // work only when an executed entry comes before that one.
  const std::uint64_t notExecuted =
      inState(St::kDispatched) | inState(St::kIssued);
  const std::uint64_t beforeNotExecuted =
      (notExecuted & (~notExecuted + 1)) - 1;  // all ones when none
  if ((inState(St::kExecuted) & beforeNotExecuted) == 0) return;
  std::size_t inGate = 0;
  for (std::size_t i = verifiedPrefix(); i < rob_.size(); ++i) {
    if (inGate >= cfg_.width) break;
    RobEntry& e = rob_[i];
    switch (e.st) {
      case St::kGateDone:
        continue;
      case St::kGateIssued:
        ++inGate;
        continue;
      case St::kExecuted:
        gateEntry(e);
        if (e.st == St::kGateIssued) {
          if (e.inst.kind == Instr::Kind::kStore) return;  // SC store
          ++inGate;
        }
        if (e.st == St::kExecuted) return;  // stalled: keep order
        continue;
      default:
        return;  // not yet executed: in-order gate stops here
    }
  }
}

void Core::gateEntry(RobEntry& e) {
  switch (e.inst.kind) {
    case Instr::Kind::kCompute:
      setState(e, St::kGateDone);
      return;

    case Instr::Kind::kMembar: {
      // A membar ordering stores before itself cannot pass until all older
      // stores performed (this is what makes Membar #StoreLoad / Stbar
      // expensive); it is also a serializing AR perform event.
      if ((e.inst.membarMask & kStoreFirstBits) != 0 &&
          outstandingStores_ != 0) {
        stall(kMembar);
        return;  // stall
      }
      if (!allOlderVerified(e)) return;
      setState(e, St::kGateDone);
      return;
    }

    case Instr::Kind::kStore: {
      if (e.model == ConsistencyModel::kSC) {
        // SC: no write buffer — the store performs right here, stalling
        // the gate until the write is globally visible.
        if (!allOlderVerified(e)) return;
        setState(e, St::kGateIssued);
        gateStoreInFlight_ = true;
        ++outstandingStores_;
        CacheOp op = cacheOp(e, CacheOp::Kind::kStore);
        op.value = e.inst.value;
        op.countsAsPerform = true;
        cScStores_.inc();
        mem_.access(op);
        return;
      }
      // Buffered store: replay writes the Verification Cache; the entry
      // lives until the store performs out of the write buffer.
      if (vc_ != nullptr) {
        if (!vc_->canAllocate(e.inst.addr, 8)) {
          stall(kVcFull);
          return;  // stall until a VC entry frees up
        }
        vc_->storeCommit(e.inst.addr, 8, e.inst.value, e.seq);
      }
      if (ar_ != nullptr) ar_->onCommit(OpType::kStore, e.seq);
      ++outstandingStores_;
      setState(e, St::kGateDone);
      return;
    }

    case Instr::Kind::kLoad: {
      if (e.model == ConsistencyModel::kRMO) {
        // RMO replay happens right here, at the load's in-order admission:
        // every older store has committed into the VC, and no younger store
        // has — so a store-backed VC entry for this word is the value the
        // sequential replay would produce (genuine LSQ-forwarding
        // coverage); otherwise the parked execute-time value is consumed.
        if (vc_ != nullptr) {
          auto pending = vc_->lookupStoreOlderThan(e.inst.addr, 8, e.seq);
          auto parked = vc_->consumeParked(e.inst.addr, 8);
          if (pending) {
            if (*pending != e.execValue) {
              cUoFlushes_.inc();
              ++e.gen;
              setState(e, St::kDispatched);
              return;
            }
          } else if (parked && *parked != e.execValue) {
            // Same-word value churn between two unordered loads — legal
            // under RMO; resolved by a silent flush, not an error.
            ++e.gen;
            setState(e, St::kDispatched);
            cRmoReplayFlushes_.inc();
            return;
          } else if (!parked) {
            cRmoReplayNoPark_.inc();
          }
        }
        setState(e, St::kGateDone);
        return;
      }
      if (vc_ == nullptr) {
        setState(e, St::kGateDone);  // no replay; load performs at promotion
        return;
      }
      if (ar_ != nullptr) ar_->onCommit(OpType::kLoad, e.seq);
      replayLoad(e);
      return;
    }

    case Instr::Kind::kSwap:
    case Instr::Kind::kCas:
      setState(e, St::kGateDone);  // performed (serialized) at execute
      return;
  }
}

void Core::replayLoad(RobEntry& e) {
  // Verification-stage replay: VC first, then the cache hierarchy,
  // bypassing the write buffer (§4.1).
  if (auto vcHit = vc_->lookupStoreOlderThan(e.inst.addr, 8, e.seq)) {
    cReplayVcHit_.inc();
    setState(e, St::kGateIssued);
    onReplayDone(e, *vcHit);
    return;
  }
  setState(e, St::kGateIssued);
  CacheOp op = cacheOp(e, CacheOp::Kind::kReplayLoad);
  op.countsAsPerform = true;  // ordered loads perform at verification
  cReplayIssued_.inc();
  mem_.access(op);
}

void Core::onReplayDone(RobEntry& e, std::uint64_t replayValue) {
  // A remote write raced with this load between execution and
  // verification: load-order mis-speculation, not an error.
  if (restartIfSquashed(e)) return;
  if (replayValue != e.execValue) {
    // A Uniprocessor Ordering violation signal: the speculative execution
    // value is stale relative to the (performing) replay. All operations
    // are still speculative prior to verification, so the violation is
    // resolved by a pipeline flush and re-execution (§4.1) — it is a
    // mis-speculation repair, not an error detection. Injected errors in
    // the load path surface here as a flush; the §6.1 experiments count
    // the uoFlushes delta as the detection signal for those faults.
    ++e.gen;
    setState(e, St::kDispatched);
    cUoFlushes_.inc();
    return;
  }
  // The verification replay performed this ordered load at its own access
  // instant. A remote write landing between here and in-order promotion
  // squashes the entry (onReadPermissionLost treats kGateDone as still
  // speculative), so the observed value is stable through promotion.
  e.performedAt = sim_.now();
  setState(e, St::kGateDone);
}

void Core::finishGate(RobEntry& e) {
  switch (e.inst.kind) {
    case Instr::Kind::kLoad:
      if (e.model != ConsistencyModel::kRMO && ar_ != nullptr) {
        // Ordered loads perform here, in program order.
        ar_->onPerform(OpType::kLoad, 0, e.seq, tableFor(e.model));
      }
      if (e.inst.token != 0) deliverToken(e);
      break;

    case Instr::Kind::kSwap:
    case Instr::Kind::kCas:
      if (vc_ != nullptr) {
        auto parked = vc_->consumeParked(e.inst.addr, 8);
        if (parked && *parked != e.execValue) {
          reportUoViolation(e, "atomic replay mismatch");
        }
      }
      if (e.inst.token != 0) deliverToken(e);
      break;

    case Instr::Kind::kMembar:
      if (ar_ != nullptr) {
        ar_->onPerform(OpType::kMembar, e.inst.membarMask, e.seq,
                       tableFor(e.model));
      }
      break;

    case Instr::Kind::kStore:
    case Instr::Kind::kCompute:
      break;
  }
  recordCommit(e);
  setState(e, St::kVerified);
}

void Core::recordCommit(const RobEntry& e) {
  if (rec_ == nullptr) return;
  verify::TraceRecord r;
  switch (e.inst.kind) {
    case Instr::Kind::kCompute:
      return;
    case Instr::Kind::kLoad:
      r.op = verify::TraceOp::kLoad;
      r.value = r.readValue = e.execValue;
      break;
    case Instr::Kind::kStore:
      r.op = verify::TraceOp::kStore;
      r.value = e.inst.value;
      break;
    case Instr::Kind::kSwap:
      r.op = verify::TraceOp::kSwap;
      r.value = e.inst.value;
      r.readValue = e.execValue;
      break;
    case Instr::Kind::kCas:
      r.op = verify::TraceOp::kCas;
      r.value = e.inst.value;
      r.readValue = e.execValue;
      if (e.execValue != e.inst.compare) r.flags |= verify::kFlagCasFailed;
      break;
    case Instr::Kind::kMembar:
      r.op = verify::TraceOp::kMembar;
      r.membarMask = e.inst.membarMask;
      break;
  }
  r.node = static_cast<std::uint8_t>(node_);
  r.model = static_cast<std::uint8_t>(e.model);
  r.seq = e.seq;
  r.addr = e.inst.addr & ~Addr{7};
  if (e.inst.is32Bit) r.flags |= verify::kFlag32Bit;
  // Everything except a buffered store has performed by the time it passes
  // the gate; a buffered store's cycle is patched at write-buffer drain.
  const bool buffered = e.inst.kind == Instr::Kind::kStore &&
                        e.model != ConsistencyModel::kSC;
  if (!buffered) {
    r.flags |= verify::kFlagPerformed;
    r.performCycle = e.performedAt != 0 ? e.performedAt : sim_.now();
  }
  rec_->onCommit(r);
}

void Core::deliverToken(RobEntry& e) {
  DVMC_ASSERT(pendingTokens_ > 0, "token bookkeeping underflow");
  --pendingTokens_;
  dispatchBlocked_ = false;
  program_->onResult(e.inst.token, e.execValue);
  e.inst.token = 0;
}

void Core::reportUoViolation(const RobEntry& e, const char* what) {
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kUniprocessorOrdering, sim_.now(), node_,
                   e.inst.addr, what});
  }
}

// --------------------------------------------------------------------------
// Retire + write buffer
// --------------------------------------------------------------------------

void Core::phaseRetire() {
  for (std::size_t n = 0;
       n < cfg_.width && (inState(St::kVerified) & 1) != 0; ++n) {
    RobEntry& e = rob_.front();
    if (e.inst.kind == Instr::Kind::kStore &&
        e.model != ConsistencyModel::kSC) {
      const bool ordered = (e.model == ConsistencyModel::kTSO ||
                            e.model == ConsistencyModel::kSC);
      bool coalesced = false;
      if (cfg_.wbCoalescing && !ordered) {
        // Relaxed-mode same-word coalescing: overwrite a not-yet-issued
        // relaxed entry in place. The superseded store is reported to the
        // VC as performing with its own committed value (it logically
        // performs at the same instant the coalesced write does; the
        // merged entry keeps the youngest seq so replay rank filtering
        // stays exact).
        for (auto it = wb_.rbegin(); it != wb_.rend(); ++it) {
          if (it->inFlight || it->ordered) continue;
          if ((it->addr & ~Addr{7}) != (e.inst.addr & ~Addr{7})) continue;
          if (vc_ != nullptr) {
            vc_->storeSuperseded(it->addr, 8, it->seq, it->value,
                                 sim_.now());
          }
          if (rec_ != nullptr) {
            rec_->storeSuperseded(node_, it->seq, sim_.now());
          }
          if (ar_ != nullptr) {
            ar_->onPerform(OpType::kStore, 0, it->seq, tableFor(model_));
          }
          DVMC_ASSERT(outstandingStores_ > 0, "coalesce underflow");
          --outstandingStores_;
          it->addr = e.inst.addr;
          it->value = e.inst.value;
          it->seq = e.seq;
          coalesced = true;
          cWbCoalesced_.inc();
          break;
        }
      }
      if (!coalesced) {
        if (wb_.size() >= cfg_.wbCapacity) {
          stall(kWbFull);
          return;
        }
        WbEntry w;
        w.addr = e.inst.addr;
        w.value = e.inst.value;
        w.seq = e.seq;
        w.ordered = ordered;
        wb_.push_back(w);
      }
    }
    moved_ = true;
    ++retiredCount_;
    cRetired_.inc();
    for (std::uint64_t& m : stMask_) m >>= 1;
    atomicMask_ >>= 1;
    switchMask_ >>= 1;
    timedMask_ >>= 1;
    rob_.pop_front();
  }
}

void Core::drainWriteBuffer() {
  // Nothing can issue when every entry already has, or when an ordered
  // store in flight at the head holds back everything behind it.
  if (wbInFlight_ == wb_.size() || wbHeadHolds_) return;
  std::size_t startIdx = 0;
  if (wbReorderArmed_ && wb_.size() >= 2 && !wb_[0].inFlight &&
      !wb_[1].inFlight) {
    // Injected drain-arbiter fault: the second entry issues while the head
    // is skipped this round, so the younger store performs first.
    wbReorderArmed_ = false;
    startIdx = 1;
    cInjectedWbReorders_.inc();
  }
  // Relaxed "optimized store issue policy" (Table 5): among drainable
  // relaxed-mode entries, ones whose block is already owned (M) issue
  // first — they complete without a coherence transaction. Two passes:
  // owned blocks, then the rest; ordered (TSO/SC-mode) entries always obey
  // strict order and act as barriers in both passes.
  for (int pass = 0; pass < 2; ++pass) {
  bool olderOrderedPending = false;
  std::size_t ownedIssued = 0;
  for (std::size_t i = startIdx; i < wb_.size(); ++i) {
    // Owned-block stores use the dedicated write port and need no miss
    // resources: they are not subject to the outstanding-miss limit
    // (bounded per round by the pipeline width instead).
    if (pass == 0) {
      if (ownedIssued >= cfg_.width) break;
    } else if (wbInFlight_ >= cfg_.wbConcurrency) {
      break;
    }
    WbEntry& w = wb_[i];
    if (w.inFlight) {
      if (w.ordered) olderOrderedPending = true;
      continue;
    }
    // TSO/SC-mode entries drain strictly in order and act as barriers for
    // everything younger; relaxed-mode entries drain concurrently.
    if (startIdx == 0) {
      if (w.ordered && i != 0) break;
      if (olderOrderedPending) break;
    }
    if (pass == 0) {
      if (w.ordered || !mem_.l2().peekWritable(blockAddr(w.addr))) {
        continue;  // not an owned relaxed store: second pass
      }
      ++ownedIssued;
    }
    moved_ = true;
    w.inFlight = true;
    ++wbInFlight_;
    if (i == 0 && w.ordered) wbHeadHolds_ = true;
    if (w.ordered) olderOrderedPending = true;

    CacheOp op;
    op.kind = CacheOp::Kind::kStore;
    op.addr = w.addr;
    op.value = w.value;
    op.countsAsPerform = true;
    op.tag = w.seq;
    op.restartGen = restartGen_;
    cWbDrains_.inc();
    const bool faulted = (startIdx == 1 && i == 1);
    mem_.access(op);
    if (faulted) return;  // only the reordered entry issues this round
  }
  }  // pass
}

// --------------------------------------------------------------------------
// Cache-op completion
// --------------------------------------------------------------------------

CacheOp Core::cacheOp(const RobEntry& e, CacheOp::Kind kind) const {
  CacheOp op;
  op.kind = kind;
  op.addr = e.inst.addr;
  op.tag = e.seq;
  op.gen = e.gen;
  op.restartGen = restartGen_;
  return op;
}

void Core::onCacheOpDone(const CacheOp& op, std::uint64_t value) {
  // An op issued before a BER restart finds nothing of its own.
  if (op.restartGen != restartGen_) return;
  // A retired store left the ROB: a store older than the ROB head drained
  // from the write buffer, a younger one performed at the SC gate.
  if (op.kind == CacheOp::Kind::kStore &&
      (rob_.empty() || op.tag < rob_.front().seq)) {
    onStoreDrained(op.tag);
    return;
  }
  // An entry squashed since its op issued re-executes under a new gen.
  RobEntry* e = entryBySeq(op.tag);
  if (e == nullptr || e->gen != op.gen) return;
  switch (op.kind) {
    case CacheOp::Kind::kLoad:
      onLoadExecuted(*e, value);
      break;
    case CacheOp::Kind::kAtomicSwap:
    case CacheOp::Kind::kAtomicCas:
      e->execValue = value;
      setState(*e, St::kExecuted);
      e->performedAtExec = true;
      e->performedAt = sim_.now();
      if (vc_ != nullptr) vc_->parkLoadValue(e->inst.addr, 8, value);
      performEvent(*e);
      break;
    case CacheOp::Kind::kStore:  // SC: the gate waited for this perform
      --outstandingStores_;
      gateStoreInFlight_ = false;
      if (ar_ != nullptr) {
        ar_->onPerform(OpType::kStore, 0, e->seq, tableFor(e->model));
      }
      e->performedAt = sim_.now();
      setState(*e, St::kGateDone);
      break;
    case CacheOp::Kind::kReplayLoad:
      onReplayDone(*e, value);
      break;
    case CacheOp::Kind::kPrefetchM:
      return;  // never completes
  }
  wake();
}

void Core::onStoreDrained(SeqNum seq) {
  auto it = std::find_if(wb_.begin(), wb_.end(),
                         [seq](const WbEntry& w) { return w.seq == seq; });
  if (it != wb_.end()) {
    if (vc_ != nullptr) vc_->storePerformed(it->addr, 8, it->value, sim_.now());
    if (rec_ != nullptr) rec_->storePerformed(node_, it->seq, sim_.now());
    if (ar_ != nullptr) {
      // Mixed-mode note: the drain rules guarantee per-model order; the
      // perform event uses the store's own model table.
      ar_->onPerform(OpType::kStore, 0, it->seq,
                     tableFor(it->ordered ? ConsistencyModel::kTSO : model_));
    }
    DVMC_ASSERT(it->inFlight && wbInFlight_ > 0,
                "write-buffer in-flight bookkeeping underflow");
    --wbInFlight_;
    wb_.erase(it);
    wbHeadHolds_ = !wb_.empty() && wb_.front().inFlight && wb_.front().ordered;
    DVMC_ASSERT(outstandingStores_ > 0, "store bookkeeping underflow");
    --outstandingStores_;
  }
  reportProgress();
  wake();
}

// --------------------------------------------------------------------------
// Speculation tracking + recovery
// --------------------------------------------------------------------------

void Core::onReadPermissionLost(Addr blk, bool remoteWrite) {
  // Ordered-load models: a remote writer may change speculatively loaded
  // values before the load performs at verification; squash those loads.
  // Local evictions leave values intact — the verification replay catches
  // any later remote write to the untracked block with a flush (squashing
  // here would livelock a thrashing cache set).
  if (!remoteWrite) return;
  // Tracks, walking in program order, whether some older operation's
  // perform point is still pending. Only then is a replayed (kGateDone)
  // load's perform not yet anchored in program order; squashing exactly
  // those keeps the oldest pending load always able to drain, which is
  // what prevents a hot contended block from livelocking the gate.
  bool olderUnperformed = false;
  bool squashed = false;  // an entry went back to dispatch
  for (RobEntry& e : rob_) {
    if (e.inst.kind == Instr::Kind::kLoad &&
        e.model != ConsistencyModel::kRMO && blockAddr(e.inst.addr) == blk) {
      switch (e.st) {
        case St::kIssued:
        case St::kGateIssued:
          e.squashPending = true;  // discard on callback
          cSquashes_.inc();
          break;
        case St::kExecuted:
          ++e.gen;
          setState(e, St::kDispatched);
          cSquashes_.inc();
          squashed = true;
          break;
        case St::kGateDone:
          // Replayed but not yet promoted. If an older load is still
          // replaying, this entry's perform point is not yet in program
          // order: keeping the pre-write value while the older load later
          // observes a post-write one would be a load-load reordering the
          // ordered models forbid. With no older pending perform the
          // replay-time value is already correctly ordered — leave it.
          if (olderUnperformed) {
            ++e.gen;
            setState(e, St::kDispatched);
            cSquashes_.inc();
            squashed = true;
          }
          break;
        default:
          break;
      }
    }
    const bool ordersPerforms = e.inst.kind == Instr::Kind::kLoad ||
                                e.inst.kind == Instr::Kind::kSwap ||
                                e.inst.kind == Instr::Kind::kCas ||
                                e.inst.kind == Instr::Kind::kMembar;
    if (ordersPerforms && e.st != St::kGateDone && e.st != St::kVerified) {
      olderUnperformed = true;
    }
  }
  // A load marked squashPending restarts when its op or latency finishes,
  // which wakes the core anyway.
  if (squashed) wake();
}

void Core::onWritePermission(Addr blk) {
  if (wb_.size() == wbInFlight_) return;
  for (const WbEntry& w : wb_) {
    if (!w.inFlight && !w.ordered && blockAddr(w.addr) == blk) {
      wake();
      return;
    }
  }
}

Core::ArchSnapshot Core::snapshotState() const {
  ArchSnapshot s;
  s.program = program_->clone();
  // Oldest work first: write-buffer stores predate everything in the ROB.
  for (const WbEntry& w : wb_) {
    s.replay.push_back(Instr::store(w.addr, w.value));
    // Mixed-mode fidelity: keep the entry's model via the 32-bit flag.
    s.replay.back().is32Bit =
        w.ordered && model_ != ConsistencyModel::kTSO &&
        model_ != ConsistencyModel::kSC;
  }
  for (const RobEntry& e : rob_) {
    s.replay.push_back(e.inst);
  }
  return s;
}

void Core::restoreState(const ArchSnapshot& snap) {
  stalledNow_ = 0;
  updateStalls();  // the restore ends every stall
  ++restartGen_;
  rob_.clear();
  stMask_ = {};
  atomicMask_ = 0;
  switchMask_ = 0;
  timedMask_ = 0;
  nextReadyAt_ = kNoReadyAt;
  gateStoreInFlight_ = false;
  wb_.clear();
  wbInFlight_ = 0;
  wbHeadHolds_ = false;
  outstandingStores_ = 0;
  pendingTokens_ = 0;
  dispatchBlocked_ = false;
  if (vc_ != nullptr) vc_->clear();
  if (ar_ != nullptr) ar_->reset();
  program_ = snap.program->clone();
  // Tokens inside the replay list re-deliver when the replayed instruction
  // verifies, matching the cloned program's waiting state.
  replayQueue_.assign(snap.replay.begin(), snap.replay.end());
  lastDispatchModel_ = model_;
  cRestarts_.inc();
  reportProgress();
  wake();
}

void Core::debugDump() const {
  std::fprintf(stderr, "Core n%u: rob=%zu wb=%zu outStores=%llu pendTok=%llu"
               " blocked=%d retired=%llu\n",
               node_, rob_.size(), wb_.size(),
               (unsigned long long)outstandingStores_,
               (unsigned long long)pendingTokens_, (int)dispatchBlocked_,
               (unsigned long long)retiredCount_);
  std::size_t shown = 0;
  for (const RobEntry& e : rob_) {
    if (shown++ >= 6) break;
    std::fprintf(stderr,
                 "  rob seq=%llu kind=%d st=%d addr=%llx model=%d mask=%x\n",
                 (unsigned long long)e.seq, (int)e.inst.kind, (int)e.st,
                 (unsigned long long)e.inst.addr, (int)e.model,
                 e.inst.membarMask);
  }
  for (const WbEntry& w : wb_) {
    std::fprintf(stderr, "  wb seq=%llu addr=%llx inFlight=%d ordered=%d\n",
                 (unsigned long long)w.seq, (unsigned long long)w.addr,
                 (int)w.inFlight, (int)w.ordered);
  }
}

void Core::performEvent(const RobEntry& e) {
  if (ar_ == nullptr) return;
  ar_->onPerform(e.inst.opType(), e.inst.membarMask, e.seq,
                 tableFor(e.model));
}

}  // namespace dvmc
