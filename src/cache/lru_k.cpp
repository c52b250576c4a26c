#include "cache/lru_k.h"

#include <cassert>
#include <utility>

#include "util/contracts.h"

namespace jaws::cache {

LruKPolicy::LruKPolicy(unsigned k, std::size_t retained_history)
    : k_(k == 0 ? 1 : k), retained_cap_(retained_history) {}

void LruKPolicy::touch(History& h) {
    h.refs.push_front(++tick_);
    while (h.refs.size() > k_) h.refs.pop_back();
}

std::uint64_t LruKPolicy::kth_ref(const History& h) const noexcept {
    return h.refs.size() < k_ ? 0 : h.refs.back();
}

void LruKPolicy::on_insert(const storage::AtomId& atom) {
    History& h = history_[atom];
    assert(!h.resident);
    h.resident = true;
    touch(h);
    index_.insert(key(atom, h));
}

void LruKPolicy::on_access(const storage::AtomId& atom) {
    History& h = history_.at(atom);
    assert(h.resident);
    // Re-key the resident's index node in place (no reallocation).
    auto node = index_.extract(key(atom, h));
    assert(!node.empty());
    touch(h);
    node.value() = key(atom, h);
    index_.insert(std::move(node));
}

storage::AtomId LruKPolicy::pick_victim() {
    assert(!index_.empty());
    // The oldest (smallest) K-th reference; atoms with fewer than K
    // references (kth_ref == 0) first, the least recent reference breaking
    // ties, then the atom id.
    return std::get<storage::AtomId>(*index_.begin());
}

void LruKPolicy::on_evict(const storage::AtomId& atom) {
    History& h = history_.at(atom);
    assert(h.resident);
    const auto erased = index_.erase(key(atom, h));
    assert(erased == 1);
    (void)erased;
    h.resident = false;
    // Retain the history per LRU-K so a quick re-admission keeps its rank,
    // but bound the table.
    retained_fifo_.push_back(atom);
    while (retained_fifo_.size() > retained_cap_) {
        const auto old = history_.find(retained_fifo_.front());
        retained_fifo_.pop_front();
        if (old != history_.end() && !old->second.resident) history_.erase(old);
    }
}

bool LruKPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = true;
    const auto check = [&](bool cond, const char* expr, const char* msg) {
        if (!cond) {
            ok = false;
            util::contract_violation(__FILE__, __LINE__, expr, msg);
        }
        return cond;
    };
    // Equal sizes plus one current-key entry per resident make the index a
    // bijection onto the resident set.
    check(index_.size() == resident.size(),
          "LRU-K indexes exactly the resident set",
          "LruKPolicy: index size diverged from the cache's resident set");
    for (const storage::AtomId& atom : resident) {
        const auto h = history_.find(atom);
        if (!check(h != history_.end(), "resident atom has history",
                   "LruKPolicy: resident atom without a reference history"))
            continue;
        check(h->second.resident, "resident atom tracked",
              "LruKPolicy: resident atom not marked resident");
        const auto& refs = h->second.refs;
        if (!check(!refs.empty() && refs.size() <= k_, "1 <= |refs| <= k",
                   "LruKPolicy: reference history out of bounds"))
            continue;
        bool decreasing = true;
        for (std::size_t i = 1; i < refs.size(); ++i)
            decreasing = decreasing && refs[i - 1] > refs[i];
        check(decreasing && refs.front() <= tick_,
              "refs strictly decreasing and <= tick",
              "LruKPolicy: reference history out of order");
        check(index_.contains(key(atom, h->second)), "index holds the current key",
              "LruKPolicy: resident atom's index entry is missing or stale");
    }
    check(retained_fifo_.size() <= retained_cap_ + resident.size(),
          "retained history bounded",
          "LruKPolicy: retained-history FIFO exceeds its bound");
    return ok;
}

}  // namespace jaws::cache
