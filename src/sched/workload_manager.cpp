#include "sched/workload_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/contracts.h"

namespace jaws::sched {

WorkloadManager::WorkloadManager(const CostConstants& cost, const ResidencyProbe* probe,
                                 double alpha, bool two_level)
    : cost_(cost), probe_(probe), alpha_(alpha), two_level_(two_level) {
    if (cost_.atoms_per_step == 0) cost_.atoms_per_step = 1;
}

double WorkloadManager::compute_utility(const storage::AtomId& atom,
                                        const AtomQueue& q) const {
    if (q.positions == 0) return 0.0;
    const double w = static_cast<double>(q.positions);
    const double phi = (probe_ != nullptr && probe_->resident(atom)) ? 0.0 : 1.0;
    return w / (cost_.t_b_ms * phi + cost_.t_m_ms * w);
}

double WorkloadManager::compute_key(const AtomQueue& q) const {
    // Static part of U_e: U_t*(1-alpha) + (now - oldest)*alpha ranks the same
    // as U_t*(1-alpha) - oldest*alpha at any fixed `now`.
    return q.utility * (1.0 - alpha_) - q.oldest.millis() * alpha_;
}

WorkloadManager::RankEntry WorkloadManager::rank_entry(const storage::AtomId& atom,
                                                       const AtomQueue& q) const {
    if (two_level_) return {atom.timestep, -q.utility, atom.key()};
    return {0, -q.key, atom.key()};
}

void WorkloadManager::index_insert(const storage::AtomId& atom, AtomQueue& q) {
    q.utility = compute_utility(atom, q);
    q.key = compute_key(q);
    ranking_.insert(rank_entry(atom, q));
    StepAgg& agg = steps_[atom.timestep];
    agg.utility_sum += q.utility;
    agg.key_sum += q.key;
    ++agg.atoms;
}

void WorkloadManager::index_erase(const storage::AtomId& atom, const AtomQueue& q) {
    ranking_.erase(rank_entry(atom, q));
    const auto it = steps_.find(atom.timestep);
    assert(it != steps_.end());
    it->second.utility_sum -= q.utility;
    it->second.key_sum -= q.key;
    --it->second.atoms;
    if (it->second.atoms == 0) steps_.erase(it);
}

void WorkloadManager::enqueue(const SubQuery& sub) {
    AtomQueue& q = queues_[sub.atom];
    if (!q.items.empty()) index_erase(sub.atom, q);
    if (q.items.empty()) q.oldest = sub.enqueue_time;
    if (sub.deadline < q.min_deadline) {
        if (q.min_deadline != util::SimTime::max())
            deadlines_.erase({q.min_deadline, sub.atom.key()});
        q.min_deadline = sub.deadline;
        deadlines_.emplace(q.min_deadline, sub.atom.key());
    }
    q.items.push_back(sub);
    q.positions += sub.positions;
    total_positions_ += sub.positions;
    ++total_subqueries_;
    index_insert(sub.atom, q);
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
}

std::vector<SubQuery> WorkloadManager::drain_atom(const storage::AtomId& atom) {
    const auto it = queues_.find(atom);
    if (it == queues_.end()) return {};
    index_erase(atom, it->second);
    if (it->second.min_deadline != util::SimTime::max())
        deadlines_.erase({it->second.min_deadline, atom.key()});
    std::vector<SubQuery> items = std::move(it->second.items);
    total_positions_ -= it->second.positions;
    total_subqueries_ -= items.size();
    queues_.erase(it);
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
    return items;
}

void WorkloadManager::on_residency_changed(const storage::AtomId& atom) {
    const auto it = queues_.find(atom);
    if (it == queues_.end()) return;
    index_erase(atom, it->second);
    index_insert(atom, it->second);
}

std::vector<storage::AtomId> WorkloadManager::pick(std::size_t k, util::SimTime now) const {
    if (ranking_.empty()) return {};
    // Single-atom mode: the ranking's first entry has the highest static key.
    if (!two_level_) return {storage::AtomId::from_key(std::get<2>(*ranking_.begin()))};
    // Coarse level: the time step with the highest mean aged throughput,
    // where the mean is over *all* atoms of the step (atoms without pending
    // work contribute zero), i.e. total contention mass / atoms_per_step.
    // Each pending atom's U_e is its static key plus now*alpha, so the exact
    // step sum is key_sum + pending_count * now * alpha.
    auto best = steps_.end();
    double best_sum = 0.0;
    const double now_term = now.millis() * alpha_;
    for (auto it = steps_.begin(); it != steps_.end(); ++it) {
        const double sum = it->second.key_sum + static_cast<double>(it->second.atoms) * now_term;
        if (best == steps_.end() || sum > best_sum) {
            best_sum = sum;
            best = it;
        }
    }
    // Fine level: up to k atoms of that step with U_t above the step's mean
    // U_t over all atoms — a deliberately low bar (paper Sec. V: "the impact
    // beyond 50 is marginal because only atoms with workload throughput
    // greater than the mean value are considered") — in Morton order.
    const auto& [best_step, agg] = *best;
    const double mean_ut = agg.utility_sum / static_cast<double>(cost_.atoms_per_step);
    std::vector<storage::AtomId> batch;
    const double lowest = -std::numeric_limits<double>::infinity();
    for (auto it = ranking_.lower_bound({best_step, lowest, storage::AtomKey{}});
         it != ranking_.end() && std::get<0>(*it) == best_step; ++it) {
        const auto& [step, neg_ut, atom_key] = *it;
        if (batch.size() >= k) break;
        if (-neg_ut < mean_ut && !batch.empty()) break;  // below mean: stop
        batch.push_back(storage::AtomId::from_key(atom_key));
    }
    std::sort(batch.begin(), batch.end(), [](const storage::AtomId& a,
                                             const storage::AtomId& b) {
        return a.morton < b.morton;
    });
    return batch;
}

std::optional<std::pair<storage::AtomId, util::SimTime>>
WorkloadManager::earliest_deadline_atom() const {
    if (deadlines_.empty()) return std::nullopt;
    const auto& [deadline, atom_key] = *deadlines_.begin();
    return std::make_pair(storage::AtomId::from_key(atom_key), deadline);
}

double WorkloadManager::atom_utility(const storage::AtomId& atom) const {
    const auto it = queues_.find(atom);
    return it == queues_.end() ? 0.0 : it->second.utility;
}

double WorkloadManager::timestep_mean_utility(std::uint32_t t) const {
    const auto it = steps_.find(t);
    if (it == steps_.end()) return 0.0;
    return it->second.utility_sum / static_cast<double>(it->second.atoms);
}

void WorkloadManager::set_alpha(double alpha) {
    assert(alpha >= 0.0 && alpha <= 1.0);
    // jaws-lint: allow(float-equality) -- exact-identity fast path only: a
    // missed match merely rebuilds the index (correct either way).
    if (alpha == alpha_) return;
    alpha_ = alpha;
    rebuild_index();
}

void WorkloadManager::rebuild_index() {
    ranking_.clear();
    steps_.clear();
    // Rebuild in atom-key order: StepAgg sums doubles, and floating-point
    // accumulation order must not depend on the hash table's layout for the
    // aggregates to be bit-reproducible across platforms.
    std::vector<storage::AtomId> atoms;
    atoms.reserve(queues_.size());
    // jaws-lint: allow(unordered-iteration) -- order normalised by the sort below.
    for (auto& [atom, q] : queues_) atoms.push_back(atom);
    std::sort(atoms.begin(), atoms.end());
    for (const storage::AtomId& atom : atoms) index_insert(atom, queues_.at(atom));
    JAWS_AUDIT(audit());
}

bool WorkloadManager::audit() const {
    bool ok = true;
    const auto check = [&](bool cond, const char* expr, const char* msg) {
        if (!cond) {
            ok = false;
            util::contract_violation(__FILE__, __LINE__, expr, msg);
        }
    };
    // The incremental step aggregates accumulate floating-point sums in
    // insertion order; re-deriving them in sorted order is only equal up to
    // rounding, so aggregate comparisons use a relative tolerance.
    const auto close = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
    };

    std::uint64_t positions = 0;
    std::size_t subqueries = 0;
    std::map<std::uint32_t, std::pair<double, std::size_t>> step_sums;  // (U_t sum, atoms)
    std::map<std::uint32_t, double> step_key_sums;
    std::size_t deadlined = 0;
    // jaws-lint: allow(unordered-iteration) -- read-only validation; every
    // per-queue check is independent and the re-derived sums are compared
    // with a tolerance, so hash order cannot change the audit verdict.
    for (const auto& [atom, q] : queues_) {
        check(!q.items.empty(), "no empty atom queue is retained",
              "WorkloadManager: empty workload queue left in the map");
        std::uint64_t queue_positions = 0;
        util::SimTime oldest = q.items.empty() ? util::SimTime::zero()
                                               : q.items.front().enqueue_time;
        util::SimTime min_deadline = util::SimTime::max();
        for (const SubQuery& sub : q.items) {
            queue_positions += sub.positions;
            oldest = std::min(oldest, sub.enqueue_time);
            min_deadline = std::min(min_deadline, sub.deadline);
        }
        check(q.positions == queue_positions, "cached positions re-derive",
              "WorkloadManager: per-atom position count out of sync");
        check(q.oldest == oldest, "cached oldest re-derives",
              "WorkloadManager: per-atom oldest enqueue time out of sync");
        check(q.min_deadline == min_deadline, "cached min deadline re-derives",
              "WorkloadManager: per-atom deadline cache out of sync");
        check(close(q.utility, compute_utility(atom, q)), "cached U_t re-derives",
              "WorkloadManager: cached utility out of sync with Eq. 1");
        check(ranking_.count(rank_entry(atom, q)) == 1, "ranking entry present",
              "WorkloadManager: atom missing from the ranking");
        positions += queue_positions;
        subqueries += q.items.size();
        auto& sums = step_sums[atom.timestep];
        sums.first += q.utility;
        ++sums.second;
        step_key_sums[atom.timestep] += q.key;
        if (min_deadline != util::SimTime::max()) {
            ++deadlined;
            check(deadlines_.count({min_deadline, atom.key()}) == 1,
                  "deadline index entry present",
                  "WorkloadManager: deadlined atom missing from the index");
        }
    }
    check(positions == total_positions_, "total positions re-derive",
          "WorkloadManager: global position total out of sync");
    check(subqueries == total_subqueries_, "total sub-queries re-derive",
          "WorkloadManager: global sub-query total out of sync");
    check(ranking_.size() == queues_.size(), "one ranking entry per atom",
          "WorkloadManager: ranking size out of sync");
    check(deadlines_.size() == deadlined, "one deadline entry per deadlined atom",
          "WorkloadManager: deadline index size out of sync");
    check(steps_.size() == step_sums.size(), "one aggregate per pending step",
          "WorkloadManager: stale per-step aggregate retained");
    for (const auto& [t, agg] : steps_) {
        const auto sums = step_sums.find(t);
        if (sums == step_sums.end()) continue;  // size mismatch reported above
        check(agg.atoms == sums->second.second, "step atom count re-derives",
              "WorkloadManager: per-step atom count out of sync");
        check(close(agg.utility_sum, sums->second.first),
              "step utility sum re-derives",
              "WorkloadManager: per-step utility aggregate out of sync");
        check(close(agg.key_sum, step_key_sums[t]), "step key sum re-derives",
              "WorkloadManager: per-step key aggregate out of sync");
    }
    return ok;
}

}  // namespace jaws::sched
