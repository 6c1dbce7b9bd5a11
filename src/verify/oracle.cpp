#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdio>

#include "coherence/memory_storage.hpp"
#include "common/flat_map.hpp"
#include "consistency/op.hpp"
#include "consistency/ordering_table.hpp"

namespace dvmc::verify {
namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

enum class EdgeKind : std::uint8_t {
  kPo,      // program order mandated by the op's effective model
  kAddr,    // same-core same-word coherence (CoWW / CoRW / CoRR)
  kMembar,  // through a membar's per-bit virtual barrier
  kDrain,   // pipeline drain on an effective-model switch
  kRf,      // reads-from a globally performed writer
  kWs,      // per-word write serialization
  kFr,      // from-read into the writer's ws successor
};

const char* edgeKindName(EdgeKind k) {
  switch (k) {
    case EdgeKind::kPo: return "po";
    case EdgeKind::kAddr: return "addr";
    case EdgeKind::kMembar: return "membar";
    case EdgeKind::kDrain: return "drain";
    case EdgeKind::kRf: return "rf";
    case EdgeKind::kWs: return "ws";
    case EdgeKind::kFr: return "fr";
  }
  return "?";
}

bool isLoadClass(TraceOp op) {
  return op == TraceOp::kLoad || op == TraceOp::kSwap || op == TraceOp::kCas;
}
bool isStoreClass(TraceOp op) {
  return op == TraceOp::kStore || op == TraceOp::kSwap ||
         op == TraceOp::kCas;
}

// The bits under which an earlier op of this type waits for a barrier, and
// the bits whose barrier a later op of this type waits on (paper Table 4).
std::uint8_t pendBits(const TraceRecord& r) {
  std::uint8_t m = 0;
  if (isLoadClass(r.op)) m |= membar::kLoadLoad | membar::kLoadStore;
  if (isStoreClass(r.op)) m |= membar::kStoreLoad | membar::kStoreStore;
  return m;
}
std::uint8_t waitBits(const TraceRecord& r) {
  std::uint8_t m = 0;
  if (isLoadClass(r.op)) m |= membar::kLoadLoad | membar::kStoreLoad;
  if (isStoreClass(r.op)) m |= membar::kLoadStore | membar::kStoreStore;
  return m;
}

std::uint64_t observedValue(const TraceRecord& r) {
  return r.op == TraceOp::kLoad ? r.value : r.readValue;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", (unsigned long long)v);
  return buf;
}

struct Edge {
  std::uint32_t to;
  EdgeKind kind;
};

// Per-core per-word history used for the coherence edges and the store
// forwarding walk.
struct AddrState {
  std::uint32_t lastWrite = kNone;
  std::uint32_t lastOrderedRead = kNone;  // last read whose model orders loads
  std::vector<std::uint32_t> writes;      // all writes, program order
};

// Per-core graph-building state.
struct CoreState {
  std::uint32_t lastLoadLike = kNone;
  std::uint32_t lastStoreLike = kNone;
  std::uint8_t prevModel = 0xFF;
  std::vector<std::uint32_t> pend[4];  // ops awaiting a barrier, per bit
  std::uint32_t lastV[4] = {kNone, kNone, kNone, kNone};
  FlatMap<Addr, AddrState> byAddr;
};

struct GraphBuilder {
  const CapturedTrace& t;
  OracleStats& stats;
  std::vector<std::vector<Edge>> adj;
  std::vector<std::uint32_t> indeg;
  // Virtual nodes live past the record range; each maps back to the membar
  // (or model-switching op) it came from, for reporting.
  std::vector<std::uint32_t> virtualSource;

  explicit GraphBuilder(const CapturedTrace& trace, OracleStats& s)
      : t(trace), stats(s) {
    adj.resize(t.records.size());
    indeg.resize(t.records.size(), 0);
  }

  std::size_t numNodes() const { return adj.size(); }

  std::uint32_t recordOf(std::uint32_t node) const {
    return node < t.records.size()
               ? node
               : virtualSource[node - t.records.size()];
  }

  void addEdge(std::uint32_t from, std::uint32_t to, EdgeKind kind) {
    if (from == kNone || from == to) return;
    adj[from].push_back({to, kind});
    ++indeg[to];
    ++stats.edges;
    if (kind == EdgeKind::kRf) ++stats.rfEdges;
    if (kind == EdgeKind::kWs) ++stats.wsEdges;
    if (kind == EdgeKind::kFr) ++stats.frEdges;
  }

  std::uint32_t addVirtual(std::uint32_t sourceRecord) {
    adj.emplace_back();
    indeg.push_back(0);
    virtualSource.push_back(sourceRecord);
    ++stats.virtualNodes;
    return std::uint32_t(adj.size() - 1);
  }
};

class Oracle {
 public:
  Oracle(const CapturedTrace& t, const OracleOptions& o) : t_(t), o_(o) {}

  OracleResult run() {
    res_.stats.records = t_.records.size();
    if (!wellFormed()) {
      res_.clean = res_.violations.empty();
      return res_;
    }
    buildWriteSerialization();
    buildGraphAndCheckValues();
    if (res_.violations.size() < o_.maxViolations) checkAcyclic();
    res_.clean = res_.violations.empty();
    return res_;
  }

 private:
  void addViolation(OracleViolation::Kind kind, std::size_t a, std::size_t b,
                    std::string msg,
                    std::vector<OracleViolation::CycleStep> cycle = {}) {
    if (res_.violations.size() >= o_.maxViolations) return;
    OracleViolation v;
    v.kind = kind;
    v.recordA = a;
    v.recordB = b;
    v.byteA = CapturedTrace::byteOffset(a);
    v.byteB = CapturedTrace::byteOffset(b);
    v.message = std::move(msg);
    v.cycle = std::move(cycle);
    res_.violations.push_back(std::move(v));
  }

  bool wellFormed() {
    if (t_.truncated) {
      addViolation(OracleViolation::Kind::kMalformed, 0, 0,
                   "trace hit the capture limit; a partial trace cannot be "
                   "checked (dropped stores would read as never-written "
                   "values) — raise --capture-trace-limit");
      return false;
    }
    if (t_.numCores == 0 ||
        t_.declaredModel > std::uint8_t(ConsistencyModel::kRMO)) {
      addViolation(OracleViolation::Kind::kMalformed, 0, 0,
                   "bad header (core count or declared model)");
      return false;
    }
    std::vector<SeqNum> lastSeq(t_.numCores, 0);
    std::vector<bool> seen(t_.numCores, false);
    for (std::size_t i = 0; i < t_.records.size(); ++i) {
      const TraceRecord& r = t_.records[i];
      if (r.node >= t_.numCores) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "record node out of range");
        return false;
      }
      if (r.model > std::uint8_t(ConsistencyModel::kRMO) ||
          r.op > TraceOp::kMembar) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "record model/op out of range");
        return false;
      }
      if (seen[r.node] && r.seq <= lastSeq[r.node]) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "per-core sequence numbers must be strictly "
                     "increasing (commit order is program order)");
        return false;
      }
      seen[r.node] = true;
      lastSeq[r.node] = r.seq;
      const bool mustPerform = r.op != TraceOp::kStore;
      if (mustPerform &&
          (!r.performed() || r.performCycle == kNotPerformed)) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "non-store record without a perform cycle");
        return false;
      }
      if (r.superseded() && r.op != TraceOp::kStore) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "only buffered stores can be superseded");
        return false;
      }
      if ((r.flags & kFlagCasFailed) != 0 && r.op != TraceOp::kCas) {
        addViolation(OracleViolation::Kind::kMalformed, i, i,
                     "cas-failed flag on a non-cas record");
        return false;
      }
      if (r.op == TraceOp::kMembar) {
        ++res_.stats.membars;
      } else {
        if (r.writes()) ++res_.stats.writes;
        if (r.reads()) ++res_.stats.reads;
      }
    }
    return true;
  }

  // Per-word serialization of globally performed writes, ordered by perform
  // cycle (exclusive ownership makes cross-node same-cycle ties physically
  // impossible; same-node ties resolve by program order).
  void buildWriteSerialization() {
    wsPos_.assign(t_.records.size(), kNone);
    for (std::size_t i = 0; i < t_.records.size(); ++i) {
      const TraceRecord& r = t_.records[i];
      if (r.writes() && r.performed() && !r.superseded()) {
        ws_[r.addr].push_back(std::uint32_t(i));
      }
    }
    for (auto& [addr, list] : ws_) {
      std::sort(list.begin(), list.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const TraceRecord& x = t_.records[a];
                  const TraceRecord& y = t_.records[b];
                  if (x.performCycle != y.performCycle) {
                    return x.performCycle < y.performCycle;
                  }
                  if (x.node != y.node) return x.node < y.node;
                  return x.seq < y.seq;
                });
      for (std::size_t k = 0; k < list.size(); ++k) wsPos_[list[k]] = k;
    }
  }

  // Resolves where read `i` got its value from (TSOtool-style: by VALUE,
  // not by timestamp). Perform cycles are recorded at completion callbacks
  // and lag true visibility by the protocol's propagation latency, so a
  // read may legally observe a write whose recorded cycle is later than
  // its own, or an old write whose invalidation had not yet arrived —
  // timestamp windows would flag both. Candidate writers are every write
  // of the observed value the read could physically have seen:
  //   (a) this core's program-order-earlier writes (store forwarding
  //       covers even never-performed / superseded buffer entries),
  //   (b) performed remote writes (from the word's serialization),
  //   (c) the initial fill pattern.
  // No candidate at all means the value came from nowhere — the
  // wrong-data verdict that mirrors a DVUO/DVCC detection. A unique
  // candidate yields ordering edges (rf from a remote writer; from-read
  // into the writer's ws successor). Multiple same-value candidates make
  // the true writer unobservable, so the value is accepted with no edges
  // — soundness over completeness.
  void resolveRead(std::uint32_t i, CoreState& cs, GraphBuilder& g) {
    const TraceRecord& r = t_.records[i];
    const std::uint64_t v = observedValue(r);
    const std::vector<std::uint32_t>* wlist = nullptr;
    if (auto it = ws_.find(r.addr); it != ws_.end()) wlist = &it->second;

    std::uint32_t own = kNone;     // po-earlier same-core match
    std::uint32_t remote = kNone;  // performed other-core match
    std::size_t matches = 0;
    if (auto it = cs.byAddr.find(r.addr); it != cs.byAddr.end()) {
      for (std::uint32_t wi : it->second.writes) {
        if (t_.records[wi].value == v) {
          own = wi;
          ++matches;
        }
      }
    }
    if (wlist != nullptr) {
      for (std::uint32_t wi : *wlist) {
        const TraceRecord& w = t_.records[wi];
        // Same-core entries were counted above; po-later ones are not
        // observable and pending/superseded remote ones only ever forward
        // locally on their own core.
        if (w.node == r.node) continue;
        if (w.value == v) {
          remote = wi;
          ++matches;
        }
      }
    }
    const bool initMatch = v == initialWordValue(r.addr);
    if (initMatch) ++matches;

    if (matches == 0) {
      std::uint32_t blame = i;
      Cycle best = 0;
      if (wlist != nullptr) {
        for (std::uint32_t wi : *wlist) {
          const TraceRecord& w = t_.records[wi];
          if (w.performCycle <= r.performCycle && w.performCycle >= best) {
            best = w.performCycle;
            blame = wi;
          }
        }
      }
      std::string msg = "read of " + hex(r.addr) + " observed " + hex(v) +
                        " at cycle " + std::to_string(r.performCycle) +
                        "; no write (or the initial value " +
                        hex(initialWordValue(r.addr)) +
                        ") ever produced it";
      if (blame != i) {
        msg += "; latest settled write is " + hex(t_.records[blame].value) +
               " (cycle " + std::to_string(t_.records[blame].performCycle) +
               ")";
      }
      addViolation(OracleViolation::Kind::kBadReadValue, i, blame,
                   std::move(msg));
      return;
    }
    if (matches > 1) {
      ++res_.stats.ambiguousReads;
      return;
    }
    if (own != kNone) {
      ++res_.stats.forwardedReads;
      // No rf edge: program order already relates the writer and the
      // read. The from-read constraint still holds once the writer is in
      // the serialization (a superseded / still-buffered writer is not).
      if (wsPos_[own] != kNone) addFrEdge(i, own, *wlist, g);
      return;
    }
    if (remote != kNone) {
      g.addEdge(remote, i, EdgeKind::kRf);
      addFrEdge(i, remote, *wlist, g);
      return;
    }
    ++res_.stats.initReads;  // read the initial pattern: before every write
    if (wlist != nullptr && !wlist->empty()) {
      g.addEdge(i, wlist->front(), EdgeKind::kFr);
    }
  }

  // from-read: the read saw writer `w`, so it precedes w's ws successor in
  // the word's coherence order (recorded cycles do not matter: a stale
  // read legally observes w after the successor's completion callback).
  void addFrEdge(std::uint32_t read, std::uint32_t w,
                 const std::vector<std::uint32_t>& wlist, GraphBuilder& g) {
    const std::uint32_t pos = wsPos_[w];
    if (pos == kNone || pos + 1 >= wlist.size()) return;
    g.addEdge(read, wlist[pos + 1], EdgeKind::kFr);
  }

  void buildGraphAndCheckValues() {
    GraphBuilder g(t_, res_.stats);
    std::vector<CoreState> cores(t_.numCores);
    const OrderingTable tables[4] = {
        OrderingTable::forModel(ConsistencyModel::kSC),
        OrderingTable::forModel(ConsistencyModel::kTSO),
        OrderingTable::forModel(ConsistencyModel::kPSO),
        OrderingTable::forModel(ConsistencyModel::kRMO),
    };

    // ws chains first: independent of program order.
    for (const auto& [addr, list] : ws_) {
      for (std::size_t k = 1; k < list.size(); ++k) {
        g.addEdge(list[k - 1], list[k], EdgeKind::kWs);
      }
    }

    for (std::size_t idx = 0; idx < t_.records.size(); ++idx) {
      const std::uint32_t i = std::uint32_t(idx);
      const TraceRecord& r = t_.records[i];
      CoreState& cs = cores[r.node];
      const OrderingTable& tab = tables[r.model];

      // An effective-model switch drains the pipeline: a full virtual
      // barrier orders everything earlier before everything later.
      if (cs.prevModel != 0xFF && cs.prevModel != r.model) {
        barrier(i, membar::kAll, EdgeKind::kDrain, cs, g);
      }
      cs.prevModel = r.model;

      if (r.op == TraceOp::kMembar) {
        if (r.membarMask != 0) {
          barrier(i, r.membarMask, EdgeKind::kMembar, cs, g);
        }
        continue;
      }

      // Program-order edges the op's effective model mandates, from the
      // closest earlier load-like / store-like op (transitivity covers the
      // rest: the tables are monotone in each class).
      const bool ld = isLoadClass(r.op);
      const bool st = isStoreClass(r.op);
      std::uint8_t fromLoad = 0;
      std::uint8_t fromStore = 0;
      if (ld) {
        fromLoad |= tab.entry(OpClass::kLoad, OpClass::kLoad);
        fromStore |= tab.entry(OpClass::kStore, OpClass::kLoad);
      }
      if (st) {
        fromLoad |= tab.entry(OpClass::kLoad, OpClass::kStore);
        fromStore |= tab.entry(OpClass::kStore, OpClass::kStore);
      }
      if (fromLoad != 0) g.addEdge(cs.lastLoadLike, i, EdgeKind::kPo);
      if (fromStore != 0) g.addEdge(cs.lastStoreLike, i, EdgeKind::kPo);

      // Barrier waits and pend registration.
      const std::uint8_t wait = waitBits(r);
      for (int b = 0; b < 4; ++b) {
        if ((wait & (1u << b)) != 0 && cs.lastV[b] != kNone) {
          g.addEdge(cs.lastV[b], i, EdgeKind::kMembar);
        }
      }
      const std::uint8_t pend = pendBits(r);
      for (int b = 0; b < 4; ++b) {
        if ((pend & (1u << b)) != 0) cs.pend[b].push_back(i);
      }

      // Same-core same-word coherence. No write->read edge: store
      // forwarding legally lets a read perform before its po-earlier
      // writer settles.
      AddrState& as = cs.byAddr[r.addr];
      if (st) {
        g.addEdge(as.lastWrite, i, EdgeKind::kAddr);        // CoWW
        g.addEdge(as.lastOrderedRead, i, EdgeKind::kAddr);  // CoRW
      }
      if (ld && modelOrdersLoads(ConsistencyModel(r.model))) {
        g.addEdge(as.lastOrderedRead, i, EdgeKind::kAddr);  // CoRR
        as.lastOrderedRead = i;
      }

      // Value check + rf/fr, before this op's own write becomes part of
      // the core's history.
      if (r.reads() && r.performed()) resolveRead(i, cs, g);

      if (st) {
        as.lastWrite = i;
        as.writes.push_back(i);
      }
      if (ld) cs.lastLoadLike = i;
      if (st) cs.lastStoreLike = i;
    }

    graph_ = std::move(g.adj);
    indeg_ = std::move(g.indeg);
    virtualSource_ = std::move(g.virtualSource);
  }

  // Creates the per-bit virtual barrier nodes for a membar mask (or a
  // drain) at record `src`: every op pending on bit b happens before V_b,
  // and V_b before every later op waiting on b. Same-bit barriers chain,
  // which transitively orders across consecutive barriers.
  void barrier(std::uint32_t src, std::uint8_t mask, EdgeKind kind,
               CoreState& cs, GraphBuilder& g) {
    for (int b = 0; b < 4; ++b) {
      if ((mask & (1u << b)) == 0) continue;
      const std::uint32_t v = g.addVirtual(src);
      for (std::uint32_t p : cs.pend[b]) g.addEdge(p, v, kind);
      cs.pend[b].clear();
      if (cs.lastV[b] != kNone) g.addEdge(cs.lastV[b], v, kind);
      cs.lastV[b] = v;
    }
  }

  void checkAcyclic() {
    const std::size_t n = graph_.size();
    std::vector<std::uint32_t> indeg = indeg_;
    std::vector<std::uint32_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) ready.push_back(std::uint32_t(i));
    }
    std::size_t processed = 0;
    while (!ready.empty()) {
      const std::uint32_t u = ready.back();
      ready.pop_back();
      ++processed;
      for (const Edge& e : graph_[u]) {
        if (--indeg[e.to] == 0) ready.push_back(e.to);
      }
    }
    if (processed == n) return;

    // Every node Kahn left unprocessed has residual indegree > 0, i.e. at
    // least one unprocessed predecessor — so a backwards walk through the
    // unprocessed subgraph cannot get stuck and must revisit a node; the
    // revisited suffix is a cycle (in reverse).
    std::vector<std::uint32_t> predOf(n, kNone);
    std::vector<EdgeKind> predKind(n, EdgeKind::kPo);
    for (std::size_t uu = 0; uu < n; ++uu) {
      if (indeg[uu] == 0) continue;
      for (const Edge& e : graph_[uu]) {
        if (indeg[e.to] != 0 && predOf[e.to] == kNone) {
          predOf[e.to] = std::uint32_t(uu);
          predKind[e.to] = e.kind;
        }
      }
    }
    std::uint32_t start = kNone;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] != 0) {
        start = std::uint32_t(i);
        break;
      }
    }
    std::vector<std::uint32_t> back;
    std::vector<std::uint32_t> posInPath(n, kNone);
    std::uint32_t u = start;
    while (posInPath[u] == kNone) {
      posInPath[u] = std::uint32_t(back.size());
      back.push_back(u);
      u = predOf[u];
    }
    // back[first..] walked predecessors from u; reversed, it is a forward
    // cycle starting and ending at u.
    const std::uint32_t first = posInPath[u];
    std::vector<std::uint32_t> path(back.begin() + first, back.end());
    std::reverse(path.begin(), path.end());
    std::vector<EdgeKind> viaKind;
    viaKind.reserve(path.size());
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      viaKind.push_back(predKind[path[k + 1]]);
    }
    viaKind.push_back(predKind[path.front()]);

    // Report the edge of the cycle whose endpoints map to distinct real
    // records and whose source appears latest in the trace: the newest
    // constraint that closed the cycle.
    auto realOf = [&](std::uint32_t node) {
      return node < t_.records.size()
                 ? node
                 : virtualSource_[node - t_.records.size()];
    };
    std::uint32_t bestA = kNone, bestB = kNone;
    EdgeKind bestKind = EdgeKind::kPo;
    for (std::uint32_t k = 0; k < path.size(); ++k) {
      const std::uint32_t a = realOf(path[k]);
      const std::uint32_t b = realOf(path[(k + 1) % path.size()]);
      if (a == b) continue;
      if (bestA == kNone || a > bestA) {
        bestA = a;
        bestB = b;
        bestKind = viaKind[k];
      }
    }
    std::vector<OracleViolation::CycleStep> steps;
    steps.reserve(path.size());
    for (std::uint32_t k = 0; k < path.size(); ++k) {
      steps.push_back({realOf(path[k]), path[k] >= t_.records.size(),
                       edgeKindName(viaKind[k])});
    }
    const std::size_t len = path.size();
    std::string msg =
        "ordering cycle of " + std::to_string(len) + " node(s) under " +
        modelName(ConsistencyModel(t_.declaredModel)) + "; " +
        edgeKindName(bestKind) + " edge " + describeRecord(t_, bestA) +
        " -> " + describeRecord(t_, bestB) + " closes it";
    addViolation(OracleViolation::Kind::kCycle, bestA, bestB,
                 std::move(msg), std::move(steps));
  }

  const CapturedTrace& t_;
  const OracleOptions& o_;
  OracleResult res_;
  FlatMap<Addr, std::vector<std::uint32_t>> ws_;
  std::vector<std::uint32_t> wsPos_;
  std::vector<std::vector<Edge>> graph_;
  std::vector<std::uint32_t> indeg_;
  std::vector<std::uint32_t> virtualSource_;
};

}  // namespace

const char* violationKindName(OracleViolation::Kind k) {
  switch (k) {
    case OracleViolation::Kind::kMalformed: return "malformed";
    case OracleViolation::Kind::kBadReadValue: return "bad-read-value";
    case OracleViolation::Kind::kCycle: return "cycle";
  }
  return "?";
}

std::uint64_t initialWordValue(Addr addr) {
  const Addr word = wordAddr(addr);
  return MemoryStorage::initialPattern(blockAddr(word))
      .read(blockOffset(word));
}

std::string describeRecord(const CapturedTrace& t, std::size_t i) {
  if (i >= t.records.size()) return "[out-of-range]";
  const TraceRecord& r = t.records[i];
  char buf[192];
  if (r.op == TraceOp::kMembar) {
    std::snprintf(buf, sizeof buf, "[%zu] n%u membar #%x seq=%llu cycle=%llu",
                  i, unsigned(r.node), unsigned(r.membarMask),
                  (unsigned long long)r.seq,
                  (unsigned long long)r.performCycle);
    return buf;
  }
  const char* cyc = r.performed() ? "" : (r.superseded() ? " (superseded)"
                                                         : " (pending)");
  std::snprintf(buf, sizeof buf,
                "[%zu] n%u %s%s @0x%llx val=0x%llx seq=%llu %s=%llu%s", i,
                unsigned(r.node), traceOpName(r.op),
                (r.flags & kFlagCasFailed) ? "(miss)" : "",
                (unsigned long long)r.addr, (unsigned long long)r.value,
                (unsigned long long)r.seq, "cycle",
                (unsigned long long)(r.performed() ? r.performCycle : 0),
                cyc);
  return buf;
}

OracleResult checkTrace(const CapturedTrace& t, const OracleOptions& o) {
  Oracle oracle(t, o);
  return oracle.run();
}

}  // namespace dvmc::verify
