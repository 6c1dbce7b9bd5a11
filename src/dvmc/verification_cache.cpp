#include "dvmc/verification_cache.hpp"

namespace dvmc {

// Every memory operation accesses one aligned word (common/types.hpp), so
// each VC entry is an exact word image.

bool VerificationCache::canAllocate(Addr addr) const {
  const Addr w = wordAddr(addr);
  if (words_.count(w) != 0) return true;  // merges into the existing entry
  return words_.size() < capacity_;
}

void VerificationCache::storeCommit(Addr addr, std::uint64_t value,
                                    SeqNum seq) {
  WordEntry& e = words_[wordAddr(addr)];
  e.stores.push_back(PendingStore{seq, value});
  cStoreCommit_.inc();
  gEntries_.set(words_.size());
}

void VerificationCache::storePerformed(Addr addr,
                                       std::uint64_t performedValue,
                                       Cycle now) {
  const Addr w = wordAddr(addr);
  auto it = words_.find(w);
  if (it == words_.end() || it->second.stores.empty()) {
    // The write buffer performed a store the VC never saw committed —
    // a fabricated or duplicated store (fault).
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                     "store performed without VC entry"});
    }
    cPerformWithoutEntry_.inc();
    return;
  }
  WordEntry& e = it->second;
  // Same-word stores drain in commit order, so the performing store is the
  // oldest pending one. Deallocation check (Appendix A.1.1): the value
  // that reached the cache must equal the committed value.
  if (performedValue != e.stores.front().value) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                     "write-buffer value mismatch at VC deallocation"});
    }
    cDeallocMismatch_.inc();
  }
  e.stores.erase(e.stores.begin());
  if (e.stores.empty() && !e.parkedLoad) words_.erase(it);
  gEntries_.set(words_.size());
  cStorePerformed_.inc();
}

void VerificationCache::storeSuperseded(Addr addr, SeqNum seq,
                                        std::uint64_t bufferedValue,
                                        Cycle now) {
  const Addr w = wordAddr(addr);
  auto it = words_.find(w);
  if (it == words_.end()) {
    cPerformWithoutEntry_.inc();
    return;
  }
  auto& stores = it->second.stores;
  for (auto sit = stores.begin(); sit != stores.end(); ++sit) {
    if (sit->seq != seq) continue;
    if (sit->value != bufferedValue) {
      if (sink_ != nullptr) {
        sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                       "write-buffer value mismatch at coalesce"});
      }
      cDeallocMismatch_.inc();
    }
    stores.erase(sit);
    if (stores.empty() && !it->second.parkedLoad) words_.erase(it);
    gEntries_.set(words_.size());
    cStoreSuperseded_.inc();
    return;
  }
  cPerformWithoutEntry_.inc();
}

std::optional<std::uint64_t> VerificationCache::lookupStoreOlderThan(
    Addr addr, SeqNum seq) const {
  auto it = words_.find(wordAddr(addr));
  if (it == words_.end()) return std::nullopt;
  const auto& stores = it->second.stores;
  for (auto rit = stores.rbegin(); rit != stores.rend(); ++rit) {
    if (rit->seq < seq) return rit->value;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> VerificationCache::lookupStore(
    Addr addr) const {
  auto it = words_.find(wordAddr(addr));
  if (it == words_.end() || it->second.stores.empty()) return std::nullopt;
  return it->second.stores.back().value;
}

std::optional<std::uint64_t> VerificationCache::lookup(Addr addr) const {
  auto it = words_.find(wordAddr(addr));
  if (it == words_.end()) return std::nullopt;
  if (!it->second.stores.empty()) return it->second.stores.back().value;
  if (it->second.parkedLoad) return it->second.parkedValue;
  return std::nullopt;
}

void VerificationCache::parkLoadValue(Addr addr, std::uint64_t value) {
  WordEntry& e = words_[wordAddr(addr)];
  e.parkedValue = value;
  e.parkedLoad = true;
  cParkLoad_.inc();
  gEntries_.set(words_.size());
}

std::optional<std::uint64_t> VerificationCache::consumeParked(Addr addr) {
  const Addr w = wordAddr(addr);
  auto it = words_.find(w);
  if (it == words_.end() || !it->second.parkedLoad) return std::nullopt;
  const std::uint64_t v = it->second.parkedValue;
  it->second.parkedLoad = false;
  if (it->second.stores.empty()) words_.erase(it);
  gEntries_.set(words_.size());
  cConsumeParked_.inc();
  return v;
}

void VerificationCache::dumpForensics(Json& out, Addr focus) const {
  out.set("entries", Json::num(static_cast<std::uint64_t>(words_.size())))
      .set("capacityWords", Json::num(static_cast<std::uint64_t>(capacity_)));
  const Addr w = wordAddr(focus);
  out.set("focusWord", Json::num(w));
  auto it = words_.find(w);
  out.set("focusResident", Json::boolean(it != words_.end()));
  if (it == words_.end()) return;
  const WordEntry& e = it->second;
  Json chain = Json::array();
  for (const PendingStore& s : e.stores) {
    Json rec = Json::object();
    rec.set("seq", Json::num(s.seq)).set("value", Json::num(s.value));
    chain.push(std::move(rec));
  }
  out.set("pendingStores", std::move(chain))
      .set("parkedLoad", Json::boolean(e.parkedLoad));
  if (e.parkedLoad) out.set("parkedValue", Json::num(e.parkedValue));
}

}  // namespace dvmc
