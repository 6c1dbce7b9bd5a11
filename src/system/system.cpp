#include "system/system.hpp"

#include <algorithm>

#include "coherence/directory_cache.hpp"
#include "coherence/snoop_cache.hpp"
#include "common/assert.hpp"
#include "obs/trace.hpp"
#include "verify/trace_sink.hpp"

namespace dvmc {

namespace {

/// Directory-system per-node endpoint: dispatches torus messages to the
/// home controller, the cache controller, or the MET checker.
class DirNodeRouter final : public NetworkEndpoint {
 public:
  DirNodeRouter(DirectoryHome* home, DirectoryCacheController* cache,
                MemoryEpochChecker* met, SafetyNet* ber)
      : home_(home), cache_(cache), met_(met), ber_(ber) {}

  void onMessage(const Message& msg) override {
    switch (msg.type) {
      case MsgType::kGetS:
      case MsgType::kGetM:
      case MsgType::kPutM:
      case MsgType::kUnblock:
        home_->onMessage(msg);
        return;
      case MsgType::kInformEpoch:
      case MsgType::kInformOpenEpoch:
      case MsgType::kInformClosedEpoch:
        if (met_ != nullptr) met_->onInform(msg);
        return;
      case MsgType::kCkptSync:
      case MsgType::kCkptLog:
        if (ber_ != nullptr) ber_->onCheckpointMessage();
        return;
      default:
        cache_->onMessage(msg);
        return;
    }
  }

 private:
  DirectoryHome* home_;
  DirectoryCacheController* cache_;
  MemoryEpochChecker* met_;
  SafetyNet* ber_;
};

/// Snooping address-network endpoint: every broadcast reaches both the
/// cache controller and the memory controller (in that fixed order, which
/// is deterministic and identical at every node).
class SnoopAddrRouter final : public NetworkEndpoint {
 public:
  SnoopAddrRouter(SnoopCacheController* cache, SnoopMemoryController* mem)
      : cache_(cache), mem_(mem) {}
  void onMessage(const Message& msg) override {
    cache_->onSnoop(msg);
    mem_->onSnoop(msg);
  }

 private:
  SnoopCacheController* cache_;
  SnoopMemoryController* mem_;
};

/// Snooping data-network endpoint.
class SnoopDataRouter final : public NetworkEndpoint {
 public:
  SnoopDataRouter(SnoopCacheController* cache, SnoopMemoryController* mem,
                  MemoryEpochChecker* met, SafetyNet* ber)
      : cache_(cache), mem_(mem), met_(met), ber_(ber) {}
  void onMessage(const Message& msg) override {
    switch (msg.type) {
      case MsgType::kSnpWbData:
        mem_->onMessage(msg);
        return;
      case MsgType::kInformEpoch:
      case MsgType::kInformOpenEpoch:
      case MsgType::kInformClosedEpoch:
        if (met_ != nullptr) met_->onInform(msg);
        return;
      case MsgType::kCkptSync:
      case MsgType::kCkptLog:
        if (ber_ != nullptr) ber_->onCheckpointMessage();
        return;
      default:
        cache_->onMessage(msg);
        return;
    }
  }

 private:
  SnoopCacheController* cache_;
  SnoopMemoryController* mem_;
  MemoryEpochChecker* met_;
  SafetyNet* ber_;
};

}  // namespace

System::System(SystemConfig cfg) : cfg_(std::move(cfg)) {
  if (const char* why = cfg_.trace.validate(); why != nullptr) {
    DVMC_FATAL(why);
  }
  map_.numNodes = cfg_.numNodes;
  torus_ = std::make_unique<TorusNetwork>(sim_, cfg_.numNodes, cfg_.torus);
  if (cfg_.protocol == Protocol::kSnooping) {
    tree_ = std::make_unique<BroadcastTree>(sim_, cfg_.numNodes,
                                            cfg_.torus.bytesPerCycle);
  }
  // Event tracing: hand the run's tracer to the simulator kernel so every
  // component reaches it through sim_.tracer() (one null check per site
  // when tracing is off), and mirror checker detections into the trace
  // through the sink's observer API.
  sim_.setTracer(cfg_.tracer);
  if (cfg_.forensics != nullptr && sim_.tracer() == nullptr) {
    // Forensics needs the last-K event window even when no --trace tracer
    // was configured: arm a private one sized to the recorder's window.
    ownedTracer_ =
        std::make_unique<EventTracer>(cfg_.forensics->config().windowEvents);
    sim_.setTracer(ownedTracer_.get());
  }
  if (sim_.tracer() != nullptr) {
    sink_.addObserver([this](const Detection& d) {
      if (auto* t = sim_.tracer()) {
        t->instant(d.cycle, TraceKind::kDetection, checkerKindName(d.kind),
                   d.node, d.addr, 0);
      }
    });
  }
  if (cfg_.forensics != nullptr) {
    // Registered after the trace mirror so the detection instant itself is
    // part of the captured window. Building a bundle only reads component
    // state (no report() re-entry); skip the work once the recorder is
    // full — a fault burst raises many downstream detections and only the
    // first few bundles carry diagnostic value.
    sink_.addObserver([this](const Detection& d) {
      if (cfg_.forensics->bundleCount() <
          cfg_.forensics->config().maxBundles) {
        cfg_.forensics->addBundle(buildForensicsBundle(d));
      } else {
        cfg_.forensics->addBundle(Json::object());  // counted, then dropped
      }
    });
  }

  // Barrier workloads (barnes) run every thread's phases to completion;
  // the transaction target never stops them.
  const WorkloadParams wp = cfg_.workloadOverride
                                ? *cfg_.workloadOverride
                                : workloadPreset(cfg_.workload);
  targetStops_ = wp.barrierEveryTx == 0;
  if (cfg_.berEnabled) {
    ber_ = std::make_unique<SafetyNet>(
        sim_, *torus_, cfg_.ber, [this] { return snapshotCores(); },
        [this](const SafetyNet::MemoryImage& image,
               const SafetyNet::CoreSnapshots& cores) {
          rollback(image, cores);
        });
  }
  nodes_.resize(cfg_.numNodes);
  for (NodeId n = 0; n < cfg_.numNodes; ++n) buildNode(n);
  installStoreHooks();

  if (cfg_.trace.capture) {
    // BER rollback re-executes in-flight work under fresh sequence
    // numbers, which would duplicate already-recorded history; there is no
    // sound way to splice a rollback into a linear commit trace.
    DVMC_ASSERT(!cfg_.autoRecover,
                "trace.capture is incompatible with autoRecover");
    traceRecorder_ = std::make_unique<verify::TraceRecorder>(
        static_cast<std::uint32_t>(cfg_.numNodes), cfg_.model,
        static_cast<std::uint8_t>(cfg_.protocol), cfg_.seed,
        cfg_.trace.captureLimit);
    for (Node& n : nodes_) n.core->setTraceRecorder(traceRecorder_.get());
  }
}

// Members die in reverse declaration order, so sim_ would outlive the
// networks and homes whose message pools its pending events hold handles
// into; drop those events while the pools still exist.
System::~System() { sim_.clear(); }

std::unique_ptr<ThreadProgram> System::makeProgram(NodeId n) const {
  if (cfg_.programFactory) return cfg_.programFactory(n);
  WorkloadParams p = cfg_.workloadOverride ? *cfg_.workloadOverride
                                           : workloadPreset(cfg_.workload);
  if (p.barrierEveryTx != 0) {
    // Barrier workloads (barnes): every thread runs the same number of
    // phases to completion; targetTransactions is per-thread phases.
    p.maxTransactions = cfg_.targetTransactions;
  }
  return std::make_unique<SyntheticWorkload>(p, cfg_.model, n, cfg_.numNodes,
                                             cfg_.seed);
}

void System::buildNode(NodeId n) {
  Node& node = nodes_[n];
  // The protocol's controllers; their message routers are the only code
  // outside the coherence layer that sees the protocol-specific types.
  DirectoryCacheController* dirCache = nullptr;
  DirectoryHome* dirHome = nullptr;
  SnoopCacheController* snpCache = nullptr;
  SnoopMemoryController* snpMem = nullptr;
  if (cfg_.protocol == Protocol::kDirectory) {
    const Cycle skew = n % 4;  // below the minimum cross-node latency
    auto home =
        std::make_unique<DirectoryHome>(sim_, *torus_, n, map_, &sink_);
    auto ctrl = std::make_unique<DirectoryCacheController>(
        sim_, *torus_, n, map_, cfg_.l2, &sink_,
        std::make_unique<PhysicalLogicalClock>(sim_, skew));
    dirHome = home.get();
    dirCache = ctrl.get();
    node.home = std::move(home);
    node.l2 = std::move(ctrl);
  } else {
    auto home = std::make_unique<SnoopMemoryController>(sim_, *torus_, n,
                                                        map_, &sink_);
    auto ctrl = std::make_unique<SnoopCacheController>(
        sim_, *tree_, *torus_, n, map_, cfg_.l2, &sink_);
    snpMem = home.get();
    snpCache = ctrl.get();
    node.home = std::move(home);
    node.l2 = std::move(ctrl);
  }

  node.hierarchy =
      std::make_unique<CacheHierarchy>(sim_, *node.l2, cfg_.l1, &sink_, n);

  if (cfg_.dvmc.cacheCoherence &&
      cfg_.coherenceChecker == SystemConfig::CoherenceCheckerKind::kEpoch) {
    node.cet = std::make_unique<CacheEpochChecker>(
        sim_, n, cfg_.dvmc, &sink_, [this, n](Message m) {
          m.src = n;
          m.dest = map_.homeOf(m.addr);
          torus_->send(std::move(m));
        });
    node.l2->setEpochObserver(node.cet.get());
    // The home shares its node's logical time base: the directory's
    // loosely synchronized clock, or the snooping request count (every
    // controller counts the same totally ordered broadcast stream).
    node.met = std::make_unique<MemoryEpochChecker>(sim_, n, cfg_.dvmc,
                                                    &sink_, node.l2->clock());
    node.home->setHomeObserver(node.met.get());
  } else if (cfg_.dvmc.cacheCoherence) {
    // Cantin-style shadow-replay coherence checker: no inform traffic.
    node.shadowCache = std::make_unique<ShadowCacheChecker>(sim_, n, &sink_);
    node.l2->setEpochObserver(node.shadowCache.get());
    node.shadowHome = std::make_unique<ShadowHomeChecker>(sim_, n, &sink_);
    node.home->setHomeObserver(node.shadowHome.get());
  }

  if (cfg_.dvmc.uniprocOrdering) {
    node.vc = std::make_unique<VerificationCache>(n, kVcWordCapacity, &sink_);
  }
  if (cfg_.dvmc.allowableReordering) {
    node.ar = std::make_unique<ReorderChecker>(sim_, n, &sink_);
  }

  node.core = std::make_unique<Core>(sim_, n, cfg_.model, cfg_.cpu,
                                     *node.hierarchy, makeProgram(n), &sink_,
                                     node.vc.get(), node.ar.get(), cfg_.dvmc);
  node.hierarchy->setCpuNotifier(node.core.get());
  node.core->setProgressHook([this](std::int64_t txnDelta, int doneDelta) {
    // Unsigned sums wrap, so negative deltas (BER restore) subtract.
    transactions_ += static_cast<std::uint64_t>(txnDelta);
    coresDone_ += static_cast<std::size_t>(doneDelta);
    stop_ = coresDone_ == cfg_.numNodes ||
            (targetStops_ && transactions_ >= cfg_.targetTransactions);
  });

  if (dirCache != nullptr) {
    node.dataRouter = std::make_unique<DirNodeRouter>(
        dirHome, dirCache, node.met.get(), ber_.get());
    torus_->attach(n, node.dataRouter.get());
  } else {
    node.dataRouter = std::make_unique<SnoopDataRouter>(
        snpCache, snpMem, node.met.get(), ber_.get());
    torus_->attach(n, node.dataRouter.get());
    node.addrRouter = std::make_unique<SnoopAddrRouter>(snpCache, snpMem);
    tree_->attach(n, node.addrRouter.get());
  }
}

std::uint64_t System::totalTransactions() const {
#ifndef NDEBUG
  std::uint64_t total = 0;
  for (const Node& n : nodes_) total += n.core->transactions();
  DVMC_ASSERT(total == transactions_, "transaction count missed a core");
#endif
  return transactions_;
}

bool System::allCoresDone() const {
#ifndef NDEBUG
  std::size_t done = 0;
  for (const Node& n : nodes_) done += n.core->done() ? 1 : 0;
  DVMC_ASSERT(done == coresDone_, "done-core count missed a core");
#endif
  return coresDone_ == nodes_.size();
}

RunResult System::run() {
  RunResult r = runUntil({});
  // run() is the whole-run entry point: the capture is complete, so hand
  // it to any attached sink. Callers driving runUntil/collectResult by
  // hand own this call.
  finishTraceCapture();
  return r;
}

void System::finishTraceCapture() {
  if (!traceRecorder_ || cfg_.trace.sink == nullptr || traceSinkFed_) return;
  traceSinkFed_ = true;
  verify::streamCapturedTrace(*traceRecorder_->trace(), *cfg_.trace.sink);
}

RunResult System::runUntil(const std::function<bool()>& extraPred) {
  return runTo(~Cycle{0}, extraPred);
}

RunResult System::runTo(Cycle until, const std::function<bool()>& extraPred) {
  if (!started_) {
    started_ = true;
    for (Node& n : nodes_) n.core->start();
    if (ber_) ber_->start();
    if (cfg_.autoRecover && ber_) armAutoRecovery();
    if (cfg_.sampleEvery > 0) {
      series_ = std::make_shared<TimeSeries>(defaultSampleColumns(),
                                             cfg_.sampleCapacity);
      buildSamplePlan();
      scheduleSampleTick();
    }
  }
  const Cycle startCycle = sim_.now();
  const Cycle limit = std::min(until, startCycle + cfg_.maxCycles);
  const bool reached =
      extraPred ? sim_.runUntil([&] { return extraPred() || stop_; }, limit)
                : sim_.runUntilFlag(stop_, limit);
  return collectResult(reached, sim_.now() - startCycle);
}

void System::drainCheckers() {
  for (Node& n : nodes_) {
    if (n.cet) n.cet->flush(n.l2->clock().now());
  }
  // Let the flushed informs reach the homes before draining the MET
  // processing queues.
  sim_.runUntil([] { return false; }, sim_.now() + 5'000);
  for (Node& n : nodes_) {
    if (n.met) n.met->drain();
  }
}

RunResult System::collectResult(bool completed, Cycle cycles) const {
  RunResult r;
  r.completed = completed;
  r.cycles = cycles;
  r.transactions = totalTransactions();
  r.peakLinkBytesPerCycle = torus_->peakLinkUtilization();
  r.detections = sink_.count();
  r.unrecoverable = unrecoverable_;
  for (const Node& n : nodes_) {
    const auto* wl = dynamic_cast<const SyntheticWorkload*>(
        &const_cast<Core&>(*n.core).program());
    if (wl != nullptr) {
      r.memOps += wl->memOpsEmitted();
      r.memOps32 += wl->memOps32Emitted();
    }
  }
  r.metrics = metricsSnapshot();
  r.retiredInstructions = r.metrics.value("cpu.retired");
  r.squashes = r.metrics.value("cpu.squashes");
  r.series = series_;
  if (traceRecorder_ && cfg_.trace.keepInMemory) {
    r.trace = traceRecorder_->trace();
  }
  return r;
}

template <typename Fn>
void System::forEachMetricSet(Fn&& fn) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    fn(n.core->stats(), i);
    fn(n.hierarchy->stats(), i);
    fn(n.l2->stats(), i);
    fn(n.home->stats(), i);
    if (n.cet) fn(n.cet->stats(), i);
    if (n.met) fn(n.met->stats(), i);
    if (n.shadowCache) fn(n.shadowCache->stats(), i);
    if (n.shadowHome) fn(n.shadowHome->stats(), i);
    if (n.vc) fn(n.vc->stats(), i);
    if (n.ar) fn(n.ar->stats(), i);
  }
  if (ber_) fn(ber_->stats(), kInvalidNode);
  fn(torus_->stats(), kInvalidNode);
}

void System::buildSamplePlan() {
  // Every metric is registered at component construction (the MetricSet
  // contract), so resolving names once at run start sees the full
  // registry; slot addresses stay stable afterwards.
  const std::vector<std::string>& columns = series_->columns();
  samplePlan_.assign(columns.size(), {});
  for (std::size_t i = 0; i < columns.size(); ++i) {
    forEachMetricSet([&](const MetricSet& s, NodeId) {
      if (const std::uint64_t* p = s.findScalar(columns[i])) {
        samplePlan_[i].push_back(p);
      }
    });
  }
}

void System::scheduleSampleTick() {
  sim_.schedule(cfg_.sampleEvery, [this] {
    std::vector<std::uint64_t> row;
    row.reserve(samplePlan_.size());
    for (const SampleColumn& col : samplePlan_) {
      std::uint64_t v = 0;
      for (const std::uint64_t* p : col) v += *p;
      row.push_back(v);
    }
    series_->sample(sim_.now(), row);
    scheduleSampleTick();
  });
}

Json System::buildForensicsBundle(const Detection& d) {
  Json b = Json::object();
  b.set("seed", Json::num(cfg_.seed));

  Json det = Json::object();
  det.set("checker", Json::str(checkerKindName(d.kind)))
      .set("cycle", Json::num(d.cycle))
      .set("node", Json::num(std::uint64_t{d.node}))
      .set("addr", Json::num(d.addr))
      .set("what", Json::str(d.what));
  b.set("detection", std::move(det));

  // Last-K event window leading up to the detection, plus the violating
  // address's slice of it (its recent operation history).
  if (const EventTracer* t = sim_.tracer()) {
    const Addr blk = blockAddr(d.addr);
    Json window = Json::array();
    Json history = Json::array();
    for (std::size_t i = 0; i < t->size(); ++i) {
      const TraceEvent& e = t->at(i);
      Json ev = Json::object();
      ev.set("ts", Json::num(e.ts));
      if (e.dur != 0) ev.set("dur", Json::num(e.dur));
      ev.set("kind", Json::str(traceKindName(e.kind)))
          .set("name", Json::str(e.name))
          .set("node", Json::num(std::uint64_t{e.node}))
          .set("addr", Json::num(e.addr));
      if (e.arg != 0) ev.set("arg", Json::num(e.arg));
      if (e.addr != 0 && blockAddr(e.addr) == blk) history.push(ev);
      window.push(std::move(ev));
    }
    Json tw = Json::object();
    tw.set("droppedEvents", Json::num(t->dropped()))
        .set("events", std::move(window));
    b.set("traceWindow", std::move(tw));
    b.set("addrHistory", std::move(history));
  }

  // The firing node's checker state; the MET/home-side row lives at the
  // violating address's home node, which need not be the detecting one.
  Json checkers = Json::object();
  if (d.node < nodes_.size()) {
    const Node& fn = nodes_[d.node];
    if (fn.vc) {
      Json j = Json::object();
      fn.vc->dumpForensics(j, d.addr);
      checkers.set("verificationCache", std::move(j));
    }
    if (fn.ar) {
      Json j = Json::object();
      fn.ar->dumpForensics(j);
      checkers.set("reorderChecker", std::move(j));
    }
    if (fn.cet) {
      Json j = Json::object();
      fn.cet->dumpForensics(j, d.addr);
      checkers.set("cacheEpochTable", std::move(j));
    }
    if (fn.shadowCache) {
      Json j = Json::object();
      fn.shadowCache->dumpForensics(j, d.addr);
      checkers.set("shadowCache", std::move(j));
    }
  }
  const NodeId home = map_.homeOf(d.addr);
  if (home < nodes_.size()) {
    const Node& hn = nodes_[home];
    if (hn.met) {
      Json j = Json::object();
      j.set("homeNode", Json::num(std::uint64_t{home}));
      hn.met->dumpForensics(j, d.addr);
      checkers.set("memoryEpochTable", std::move(j));
    }
    if (hn.shadowHome) {
      Json j = Json::object();
      j.set("homeNode", Json::num(std::uint64_t{home}));
      hn.shadowHome->dumpForensics(j, d.addr);
      checkers.set("shadowHome", std::move(j));
    }
  }
  b.set("checkers", std::move(checkers));

  // The violating block's cache-line state at every node (L1 and L2):
  // which caches hold it, in what MOSI state, with what data hash.
  Json caches = Json::array();
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    Node& nd = nodes_[n];
    Json entry = Json::object();
    entry.set("node", Json::num(std::uint64_t{n}));
    Json l1 = Json::object();
    nd.hierarchy->l1().dumpForensics(l1, d.addr);
    entry.set("l1", std::move(l1));
    Json l2 = Json::object();
    nd.l2->array().dumpForensics(l2, d.addr);
    entry.set("l2", std::move(l2));
    caches.push(std::move(entry));
  }
  b.set("cacheLines", std::move(caches));

  // The recovery options available at detection time.
  if (ber_) {
    Json sn = Json::object();
    sn.set("checkpoints",
           Json::num(static_cast<std::uint64_t>(ber_->checkpointCount())))
        .set("oldestCheckpoint", Json::num(ber_->oldestCheckpoint()))
        .set("newestCheckpoint", Json::num(ber_->newestCheckpoint()))
        .set("recoveryWindow", Json::num(ber_->recoveryWindow()));
    b.set("safetyNet", std::move(sn));
  }
  return b;
}

MetricSnapshot System::metricsSnapshot(bool perNode) const {
  MetricSnapshot snap;
  forEachMetricSet([&](const MetricSet& s, NodeId node) {
    s.snapshotInto(snap);
    if (perNode && node != kInvalidNode) {
      s.snapshotInto(snap, "node" + std::to_string(node) + "/");
    }
  });
  return snap;
}

void System::setStoreAuditHook(StoreAuditHook h) {
  auditHook_ = std::move(h);
  installStoreHooks();
}

void System::installStoreHooks() {
  const bool listening = ber_ != nullptr || auditHook_ != nullptr;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    CoherentCache::StorePerformHook hook;
    if (listening) {
      hook = [this, n](Addr addr, std::uint64_t value) {
        if (ber_) ber_->onStorePerformed(addr, value);
        if (auditHook_) auditHook_(n, addr, value);
      };
    }
    nodes_[n].l2->setStorePerformHook(std::move(hook));
  }
}

SafetyNet::CoreSnapshots System::snapshotCores() const {
  SafetyNet::CoreSnapshots cores;
  cores.reserve(nodes_.size());
  for (const Node& n : nodes_) cores.push_back(n.core->snapshotState());
  return cores;
}

void System::rollback(const SafetyNet::MemoryImage& image,
                      const SafetyNet::CoreSnapshots& cores) {
  // 1. Squash every in-flight message and pending controller event.
  torus_->bumpEpoch();
  if (tree_) tree_->bumpEpoch();

  // 2. Memory at every home takes its slice of the image; caches,
  //    directories and checkers start over empty.
  std::vector<FlatMap<Addr, DataBlock>> perHome(cfg_.numNodes);
  for (const auto& [blk, data] : image) {
    perHome[map_.homeOf(blk)].emplace(blk, data);
  }
  for (NodeId n = 0; n < cfg_.numNodes; ++n) {
    Node& node = nodes_[n];
    node.home->memory().restore(perHome[n]);
    node.home->reset();
    node.l2->invalidateAll();
    node.hierarchy->invalidateL1();
    if (node.cet) node.cet->reset();
    if (node.met) node.met->reset();
    if (node.shadowCache) node.shadowCache->reset();
    if (node.shadowHome) node.shadowHome->reset();
  }

  // 3. Restore the cores in the same step, so nothing of the squashed
  //    timeline executes against the rolled-back image. Its in-flight
  //    messages and events are dropped where they land (step 1 and the
  //    generations bumped in step 2); the cores' own stale completions
  //    fail their restart-generation check.
  for (NodeId n = 0; n < cfg_.numNodes; ++n) {
    nodes_[n].core->restoreState(cores[n]);
  }
}

bool System::recover(Cycle errorCycle) {
  DVMC_ASSERT(ber_ != nullptr, "recover without BER");
  return ber_->recoverBefore(errorCycle);
}

void System::armAutoRecovery() {
  // Reacts to detections through the ErrorSink observer API (this used to
  // be a 64-cycle polling loop that ran for the whole simulation). The
  // first detection of a burst schedules one recovery event a short drain
  // gap later; that event consumes the entire burst — detections raised by
  // the squashed timeline included — so one error does not cause recovery
  // loops. The observer itself only schedules: reacting inline would
  // re-enter component code mid-report.
  sink_.addObserver([this](const Detection&) {
    if (recoveryPending_) return;
    recoveryPending_ = true;
    sim_.schedule(64, [this] {
      recoveryPending_ = false;
      if (sink_.count() > handledDetections_) {
        const Detection& d = sink_.detections()[handledDetections_];
        handledDetections_ = sink_.count();
        if (!ber_->recoverBefore(d.cycle)) {
          ++unrecoverable_;
        }
      }
    });
  });
}

}  // namespace dvmc
