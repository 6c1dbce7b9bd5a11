// Out-of-order processor core with a DVMC verification stage.
//
// Pipeline (Figure 2): dispatch (in order, assigns sequence numbers) ->
// execute (out of order: loads access the memory system speculatively,
// computes burn latency) -> verify (in order; with DVUO enabled all memory
// operations are replayed: loads against VC-then-cache, stores into the VC)
// -> retire (stores enter the write buffer) -> write-buffer drain (stores
// perform at the cache).
//
// Consistency enforcement per model:
//  * SC  — no write buffer: a store stalls the in-order gate until it has
//    performed. Loads execute speculatively and perform in order at the
//    gate; remote writes to speculatively loaded blocks squash.
//  * TSO — FIFO write buffer, one store outstanding at a time; loads as SC.
//  * PSO — write buffer drains up to wbConcurrency stores concurrently;
//    Stbar (Membar #SS) stalls the gate until older stores performed.
//  * RMO — loads perform at execute (no speculation tracking needed); they
//    only stall behind older unverified membars carrying #LL/#SL.
// 32-bit (v8) instructions run under TSO even on PSO/RMO systems; a model
// switch drains the pipeline, as writing PSTATE.MM does on real SPARC.
//
// The core is a kernel ticker: it runs in the tick phase at the end of each
// cycle it is armed for. A tick that moved something (a ROB or write-buffer
// state change, a retire, a dispatch or a drain issue) re-arms the next
// cycle while work is pollable; a tick that moved nothing does not, and the
// core sleeps until an input arms it: a cache-op completion, a store
// drain, a remote write that squashed a load, write permission gained for
// a buffered relaxed store, a BER restore, a fault injection that changes
// what a tick can do, or an execute latency expiring. In builds without
// NDEBUG the core never sleeps: it keeps polling and asserts that every
// tick it would have slept through moves nothing.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>

#include "coherence/hierarchy.hpp"
#include "common/error_sink.hpp"
#include "common/ring_queue.hpp"
#include "obs/metrics.hpp"
#include "consistency/model.hpp"
#include "consistency/ordering_table.hpp"
#include "cpu/instr.hpp"
#include "dvmc/dvmc_config.hpp"
#include "dvmc/reorder_checker.hpp"
#include "dvmc/verification_cache.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

namespace verify {
class TraceRecorder;
}

/// Dispatch, gate and retire width: instructions per cycle.
inline constexpr std::size_t kCoreWidth = 4;

/// A counting filter over the addresses of a set of pipeline entries: one
/// counter per hashed slot, equal to the number of entries whose address
/// hashes there. A slot that counts zero proves that no entry holds the
/// address, so a walk looking for one can be skipped; a slot that two
/// addresses share only costs the walk.
template <class Count>
class AddrFilter {
 public:
  static constexpr unsigned kSlotBits = 10;

  /// Fibonacci hashing: the top bits of the product mix every address bit.
  static std::size_t slot(Addr a) {
    return static_cast<std::size_t>((a * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - kSlotBits));
  }
  void add(Addr a) { ++counts_[slot(a)]; }
  void remove(Addr a) { --counts_[slot(a)]; }
  bool mayHold(Addr a) const { return counts_[slot(a)] != 0; }
  void clear() { counts_ = {}; }
  bool operator==(const AddrFilter&) const = default;

 private:
  std::array<Count, std::size_t{1} << kSlotBits> counts_{};
};

struct CpuConfig {
  std::size_t robSize = 64;
  std::size_t wbCapacity = 64;
  std::size_t wbConcurrency = 4;  // PSO/RMO concurrent store drains
  bool storePrefetch = true;      // prefetch write permission at execute
  // PSO/RMO "optimized store issue policy" (Table 5): a store entering the
  // write buffer coalesces with a resident same-word relaxed-mode entry,
  // reducing write-buffer pressure and coherence traffic. Never applied to
  // ordered (TSO/SC-mode) entries — it would merge across the store order.
  bool wbCoalescing = true;
};

class Core final : public CpuNotifier,
                   public CacheClient,
                   public Simulator::Ticker {
 public:
  Core(Simulator& sim, NodeId node, ConsistencyModel model, CpuConfig cfg,
       CacheHierarchy& mem, std::unique_ptr<ThreadProgram> program,
       ErrorSink* sink, VerificationCache* vc, ReorderChecker* ar,
       const DvmcConfig& dvmc);

  /// Arms the first tick. Idempotent.
  void start();

  /// All instructions retired and all stores performed.
  bool done() const;

  /// Receives each change of transactions() (signed) and of done() (+1
  /// when it becomes true, -1 when a BER restore makes it false again).
  using ProgressHook =
      std::function<void(std::int64_t txnDelta, int doneDelta)>;
  /// System sums the changes into run()'s stop condition. The hook runs in
  /// the event that made the change; the current state is reported at
  /// once, as a change from zero.
  void setProgressHook(ProgressHook h);

  // --- CpuNotifier (invalidation hints for load-order speculation) ---
  void onReadPermissionLost(Addr blk, bool remoteWrite) override;

  // --- CacheClient: every cache op this core issued finishes here ---
  void onCacheOpDone(const CacheOp& op, std::uint64_t value) override;
  /// Wakes the core when a resident relaxed store to `blk` may now issue
  /// through the write buffer's owned-blocks-first pass.
  void onWritePermission(Addr blk) override;

  const MetricSet& stats() const { return stats_; }
  void debugDump() const;
  std::uint64_t retired() const { return cRetired_.value(); }
  std::uint64_t transactions() const {
    return program_ ? program_->transactionsCompleted() : 0;
  }
  ThreadProgram& program() { return *program_; }
  NodeId node() const { return node_; }

  /// Arms commit-point trace capture for the offline consistency oracle
  /// (verify/oracle.hpp). Not owned; null disables capture.
  void setTraceRecorder(verify::TraceRecorder* rec) { rec_ = rec; }

  // --- fault injection hooks (error-detection experiments, §6.1) ---
  /// Corrupts the value of the next executed load (models an LSQ
  /// forwarding/transmission error). Detected by replay (DVUO).
  void armLoadValueFault() { loadFaultArmed_ = true; }
  /// Flips a bit in a resident write-buffer entry's value (models
  /// write-buffer datapath corruption). Detected at VC deallocation.
  bool injectWbValueFault(std::uint64_t rand);
  /// Forces the next write-buffer drain round to issue the second entry
  /// ahead of the head (models a drain-arbiter error). Detected by the AR
  /// checker under SC/TSO; legal (undetected) under PSO/RMO. Returns false
  /// when the write buffer has too few resident entries to reorder.
  bool armWbReorderFault() {
    if (wb_.size() < 2) return false;
    wbReorderArmed_ = true;  // consumed at the next eligible drain round
    wake();
    return true;
  }

  // --- BER support ---
  /// Architectural snapshot: the program state plus the instructions that
  /// were in flight (ROB + write buffer) when the snapshot was taken. A
  /// rolled-back memory image is consistent with re-executing exactly this
  /// replay list before pulling from the program again; all memory-mutating
  /// instructions in the stream are idempotent re-executed (stores rewrite
  /// the same value; lock swaps write owner-id values, so re-acquiring a
  /// lock we already hold is recognized by the workload).
  struct ArchSnapshot {
    std::unique_ptr<ThreadProgram> program;
    std::vector<Instr> replay;  // oldest first: write buffer, then ROB
  };

  ArchSnapshot snapshotState() const;

  /// Recovery: discard all in-flight work and resume from a snapshot. The
  /// caller has already restored memory/cache/checker state.
  void restoreState(const ArchSnapshot& snap);

 private:
  enum class St : std::uint8_t {
    kDispatched,   // in ROB, not yet issued
    kIssued,       // executing (cache op in flight or latency running)
    kExecuted,     // execution complete, waiting for the in-order gate
    kGateIssued,   // replay / store-perform in flight at the gate
    kGateDone,     // gate work finished, awaiting in-order promotion
    kVerified,     // passed the gate, ready to retire
  };
  static constexpr std::size_t kNumStates =
      static_cast<std::size_t>(St::kVerified) + 1;
  static constexpr Cycle kNoReadyAt = ~Cycle{0};

  struct RobEntry {
    Instr inst;
    SeqNum seq = 0;
    ConsistencyModel model = ConsistencyModel::kTSO;
    St st = St::kDispatched;
    Cycle readyAt = 0;
    Cycle performedAt = 0;  // true perform instant (0: performs at promotion)
    std::uint64_t execValue = 0;
    bool prefetched = false;
    bool performedAtExec = false;  // RMO loads / atomics
    bool squashPending = false;
    bool modeSwitch = false;  // drains the pipeline before executing
    std::uint32_t gen = 0;    // invalidates in-flight cache ops on squash
  };

  struct WbEntry {
    Addr addr = 0;
    std::uint64_t value = 0;
    SeqNum seq = 0;
    bool ordered = false;  // TSO/SC-mode store: drains strictly in order
    bool inFlight = false;
  };

  /// Stalls whose cpu.*Stalls counter adds up stalled cycles.
  enum Stall : std::uint8_t { kWbFull, kRobFull, kMembar, kVcFull, kNumStalls };

  void tick() override;
  /// Arms this cycle's tick phase (the next cycle's once it has begun).
  void wake();
  /// Arms the tick phase of cycle now + d.
  void wakeIn(Cycle d);
  /// Cycle-driven work is left: a ROB entry dispatched, executed, done at
  /// the gate or verified; an unissued write-buffer entry; or room in the
  /// ROB with something to dispatch.
  bool pollable() const;
  void stall(Stall s) { stalledNow_ |= static_cast<std::uint8_t>(1u << s); }
  /// Opens an interval for each stall this tick saw start and adds the
  /// length of each one that ended to its counter.
  void updateStalls();
  std::uint64_t robBit(const RobEntry& e) const {
    return std::uint64_t{1} << (e.seq - rob_.front().seq);
  }
  void setState(RobEntry& e, St s);
  std::uint64_t inState(St s) const { return stMask_[static_cast<int>(s)]; }
  std::size_t verifiedPrefix() const {
    return static_cast<std::size_t>(std::popcount(inState(St::kVerified)));
  }
  /// Bit of the oldest unverified entry; 0 when every entry is verified.
  std::uint64_t frontierBit() const { return inState(St::kVerified) + 1; }
  /// Issues `e` into a fixed execute latency (compute, a store's address
  /// phase, a forwarded load); phaseExecute promotes it when that expires.
  void startLatency(RobEntry& e, Cycle latency);
  /// Calls the progress hook if transactions() or done() changed since the
  /// last report.
  void reportProgress();
  /// Asserts the readiness bookkeeping against a full scan.
  void checkBookkeeping() const;
  /// Schedules the next injectTick, one period out.
  void armInjectTick();
  void injectTick();
  void phaseRetire();
  void phaseGate();
  void phaseExecute();
  void phaseDispatch();
  void drainWriteBuffer();
  void deliverToken(RobEntry& e);

  void issueExecute(RobEntry& e);
  void executeLoad(RobEntry& e);
  void executeAtomic(RobEntry& e);
  bool atomicMayExecute(const RobEntry& e) const;
  bool allOlderVerified(const RobEntry& e) const;
  void gateEntry(RobEntry& e);
  void finishGate(RobEntry& e);
  void replayLoad(RobEntry& e);
  /// The op for `e`, carrying the token onCacheOpDone matches it by.
  CacheOp cacheOp(const RobEntry& e, CacheOp::Kind kind) const;
  void onLoadExecuted(RobEntry& e, std::uint64_t value);
  void onReplayDone(RobEntry& e, std::uint64_t replayValue);
  void onStoreDrained(SeqNum seq);
  /// When a remote write squashed load `e` while it executed or replayed,
  /// sends it back to dispatch and returns true.
  bool restartIfSquashed(RobEntry& e);
  std::optional<std::uint64_t> forwardFromPipeline(const RobEntry& e) const;
  /// A load that a remote write to its block squashes (loadFilter_).
  static bool squashableLoad(const RobEntry& e) {
    return e.inst.kind == Instr::Kind::kLoad &&
           e.model != ConsistencyModel::kRMO;
  }
  RobEntry* entryBySeq(SeqNum seq);
  const OrderingTable& tableFor(ConsistencyModel m) const;
  void performEvent(const RobEntry& e);
  void reportUoViolation(const RobEntry& e, const char* what);
  void recordCommit(const RobEntry& e);

  Simulator& sim_;
  Simulator::TickerId tickerId_;
  NodeId node_;
  ConsistencyModel model_;
  CpuConfig cfg_;
  CacheHierarchy& mem_;
  std::unique_ptr<ThreadProgram> program_;
  ErrorSink* sink_;
  VerificationCache* vc_;   // null when DVUO disabled
  ReorderChecker* ar_;      // null when DVAR disabled
  verify::TraceRecorder* rec_ = nullptr;  // null when capture disabled
  DvmcConfig dvmc_;

  OrderingTable tables_[4];  // indexed by ConsistencyModel

  RingQueue<RobEntry> rob_;
  RingQueue<WbEntry> wb_;
  RingQueue<Instr> replayQueue_;  // re-injected in-flight work (recovery)

  // Address filters in front of the ROB walks that usually find nothing.
  // loadFilter_ counts the ordered-model loads in the ROB by block (the
  // entries a remote write can squash), so onReadPermissionLost skips its
  // walk for a block none of them reads; a slot counts at most robSize
  // (<= 64) entries. storeFilter_ counts the stores and atomics in the ROB
  // and the stores in the write buffer by word, so a load's CAS-stall check
  // and forwardFromPipeline skip their walks for a word none of them
  // writes; a slot counts at most robSize + wbCapacity entries. Dispatch
  // and retirement update both, the write buffer's push and drain update
  // storeFilter_, and a BER restore clears them; checkBookkeeping recounts
  // them in builds without NDEBUG.
  AddrFilter<std::uint8_t> loadFilter_;
  AddrFilter<std::uint16_t> storeFilter_;

  // Readiness bookkeeping, so a tick visits only entries that can move.
  // Bit i of each mask stands for rob_[i], counting from the head:
  // retirement shifts every mask right by one, and the ROB holds at most
  // 64 entries. stMask_[s] holds the entries in state s; every state
  // change goes through setState(). Verified entries always form a ROB
  // prefix (the gate promotes in program order and nothing leaves
  // kVerified but retirement), so verifiedPrefix() is the index of the
  // oldest unverified entry. In builds without NDEBUG each tick ends by
  // checking all of it against a full scan (checkBookkeeping).
  std::array<std::uint64_t, kNumStates> stMask_{};
  std::uint64_t atomicMask_ = 0;    // swaps and CASes
  std::uint64_t switchMask_ = 0;    // consistency-model switches
  std::uint64_t timedMask_ = 0;     // kIssued entries whose latency runs
  Cycle nextReadyAt_ = kNoReadyAt;  // earliest readyAt among them
  std::size_t wbInFlight_ = 0;      // write-buffer entries issued to L2
  bool wbHeadHolds_ = false;        // the head is an ordered store in flight
  bool gateStoreInFlight_ = false;  // an SC store performs at the gate

  // What the progress hook last reported.
  ProgressHook progressHook_;
  std::uint64_t reportedTxns_ = 0;
  bool reportedDone_ = false;

  SeqNum nextSeq_ = 1;
  ConsistencyModel lastDispatchModel_;
  std::uint64_t outstandingStores_ = 0;  // in WB or performing (SC)
  std::uint64_t pendingTokens_ = 0;
  bool dispatchBlocked_ = false;  // program awaits feedback
  bool started_ = false;
  bool moved_ = false;  // the running tick moved something
#ifndef NDEBUG
  // Set where a sleeping core would skip the re-arm; cleared by an input or
  // by reaching nextReadyAt_. A tick while it is set must move nothing.
  bool asleep_ = false;
#endif
  std::uint32_t restartGen_ = 0;  // bumped on BER restart
  bool loadFaultArmed_ = false;
  bool wbReorderArmed_ = false;
  std::uint64_t lastRetiredAtInject_ = 0;  // pipeline-hang watchdog
  bool injectArmed_ = false;  // an injectTick is scheduled
  // Stall intervals, one bit per Stall: seen by the running tick, and open
  // since stallSince_.
  std::uint8_t stalledNow_ = 0;
  std::uint8_t stallOpen_ = 0;
  std::array<Cycle, kNumStalls> stallSince_{};

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cDispatched_ = stats_.counter("cpu.dispatched");
  Counter cRetired_ = stats_.counter("cpu.retired");
  Counter cLoadIssued_ = stats_.counter("cpu.loadIssued");
  Counter cLoadForwarded_ = stats_.counter("cpu.loadForwarded");
  Counter cAtomics_ = stats_.counter("cpu.atomics");
  Counter cScStores_ = stats_.counter("cpu.scStores");
  Counter cReplayIssued_ = stats_.counter("cpu.replayIssued");
  Counter cReplayVcHit_ = stats_.counter("cpu.replayVcHit");
  Counter cSquashes_ = stats_.counter("cpu.squashes");
  Counter cRestarts_ = stats_.counter("cpu.restarts");
  Counter cUoFlushes_ = stats_.counter("cpu.uoFlushes");
  Counter cRmoReplayFlushes_ = stats_.counter("cpu.rmoReplayFlushes");
  Counter cRmoReplayNoPark_ = stats_.counter("cpu.rmoReplayNoPark");
  Counter cLoadSquashRestart_ = stats_.counter("cpu.loadSquashRestart");
  Counter cStorePrefetch_ = stats_.counter("cpu.storePrefetch");
  Counter cWbCoalesced_ = stats_.counter("cpu.wbCoalesced");
  Counter cWbDrains_ = stats_.counter("cpu.wbDrains");
  // Cycles spent stalled, indexed by Stall. A stall still open when the
  // counters are read is not counted yet.
  std::array<Counter, kNumStalls> cStalls_{
      stats_.counter("cpu.wbFullStalls"), stats_.counter("cpu.robFullStalls"),
      stats_.counter("cpu.membarStalls"), stats_.counter("cpu.vcFullStalls")};
  Counter cHangDetections_ = stats_.counter("cpu.hangDetections");
  Counter cInjectedLoadFaults_ = stats_.counter("cpu.injectedLoadFaults");
  Counter cInjectedWbReorders_ = stats_.counter("cpu.injectedWbReorders");
};

}  // namespace dvmc
