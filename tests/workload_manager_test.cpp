// Tests for the workload manager: Eq. 1/2 metrics, ordering, two-level
// selection and the URC oracle view (sched/workload_manager.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "proptest.h"
#include "sched/workload_manager.h"
#include "util/morton.h"

namespace jaws::sched {
namespace {

storage::AtomId atom(std::uint32_t t, std::uint64_t m) { return storage::AtomId{t, m}; }

SubQuery sub(workload::QueryId q, storage::AtomId a, std::uint64_t positions,
             double enqueue_ms = 0.0) {
    SubQuery s;
    s.query = q;
    s.atom = a;
    s.positions = positions;
    s.enqueue_time = util::SimTime::from_millis(enqueue_ms);
    return s;
}

/// Scripted residency probe.
class FakeProbe final : public ResidencyProbe {
  public:
    bool resident(const storage::AtomId& a) const override { return cached.contains(a); }
    std::unordered_set<storage::AtomId, storage::AtomIdHash> cached;
};

/// The single-atom (LifeRaft) pick; nullopt when nothing is pending.
std::optional<storage::AtomId> best(const WorkloadManager& m) {
    const auto picked = m.pick(1, util::SimTime::zero());
    if (picked.empty()) return std::nullopt;
    return picked.front();
}

CostConstants cost() {
    CostConstants c;
    c.t_b_ms = 25.0;
    c.t_m_ms = 0.005;
    c.atoms_per_step = 64;
    return c;
}

TEST(WorkloadManager, EmptyInitially) {
    for (const bool two_level : {false, true}) {
        WorkloadManager m(cost(), nullptr, 0.0, two_level);
        EXPECT_TRUE(m.empty());
        EXPECT_TRUE(m.pick(5, util::SimTime::zero()).empty());
    }
}

TEST(WorkloadManager, UtilityMatchesEquationOne) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(0, 3), 1000));
    // U_t = W / (T_b * phi + T_m * W) = 1000 / (25 + 5) with phi = 1.
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 1000.0 / 30.0, 1e-9);
}

TEST(WorkloadManager, UtilityAggregatesQueue) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(0, 3), 600));
    m.enqueue(sub(2, atom(0, 3), 400));
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 1000.0 / 30.0, 1e-9);
    EXPECT_EQ(m.pending_positions(), 1000u);
    EXPECT_EQ(m.pending_subqueries(), 2u);
    EXPECT_EQ(m.pending_atoms(), 1u);
}

TEST(WorkloadManager, CachedAtomHasPhiZero) {
    FakeProbe probe;
    probe.cached.insert(atom(0, 3));
    WorkloadManager m(cost(), &probe, 0.0, false);
    m.enqueue(sub(1, atom(0, 3), 1000));
    // phi = 0 => U_t = W / (T_m W) = 1/T_m = 200.
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 200.0, 1e-9);
}

TEST(WorkloadManager, ResidencyChangeReordersPicks) {
    FakeProbe probe;
    WorkloadManager m(cost(), &probe, 0.0, false);
    m.enqueue(sub(1, atom(0, 1), 5000));  // hot but uncached
    m.enqueue(sub(2, atom(0, 2), 100));   // cold
    EXPECT_EQ(best(m)->morton, 1u);
    // Atom 2 becomes cached: its U_t jumps to 200, beating atom 1's ~90.9.
    probe.cached.insert(atom(0, 2));
    m.on_residency_changed(atom(0, 2));
    EXPECT_EQ(best(m)->morton, 2u);
}

TEST(WorkloadManager, ContentionOrderAtAlphaZero) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(0, 2), 5000, 1e6));  // newer but far more contended
    EXPECT_EQ(best(m)->morton, 2u);
}

TEST(WorkloadManager, ArrivalOrderAtAlphaOne) {
    WorkloadManager m(cost(), nullptr, 1.0, false);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));    // older
    m.enqueue(sub(2, atom(0, 2), 5000, 10.0));  // hotter but newer
    EXPECT_EQ(best(m)->morton, 1u);
}

TEST(WorkloadManager, SetAlphaRebuildsOrdering) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(0, 2), 5000, 100000.0));
    EXPECT_EQ(best(m)->morton, 2u);
    m.set_alpha(1.0);
    EXPECT_EQ(best(m)->morton, 1u);
    EXPECT_DOUBLE_EQ(m.alpha(), 1.0);
}

TEST(WorkloadManager, DrainRemovesQueue) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(0, 1), 100));
    m.enqueue(sub(2, atom(0, 1), 200));
    const auto items = m.drain_atom(atom(0, 1));
    ASSERT_EQ(items.size(), 2u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.atom_utility(atom(0, 1)), 0.0);
    EXPECT_TRUE(m.drain_atom(atom(0, 1)).empty());
}

TEST(WorkloadManager, DrainPreservesEnqueueOrder) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    for (workload::QueryId q = 1; q <= 5; ++q) m.enqueue(sub(q, atom(0, 1), 10));
    const auto items = m.drain_atom(atom(0, 1));
    for (std::size_t i = 0; i < items.size(); ++i) ASSERT_EQ(items[i].query, i + 1);
}

TEST(WorkloadManager, TimestepMeanUtility) {
    WorkloadManager m(cost(), nullptr, 0.0, false);
    m.enqueue(sub(1, atom(3, 1), 1000));
    m.enqueue(sub(2, atom(3, 2), 1000));
    const double single = 1000.0 / 30.0;
    EXPECT_NEAR(m.timestep_mean_utility(3), single, 1e-9);
    EXPECT_EQ(m.timestep_mean_utility(4), 0.0);
}

TEST(WorkloadManager, TwoLevelPicksBusiestStep) {
    WorkloadManager m(cost(), nullptr, 0.0, true);
    // Step 1: one hot atom; step 2: three moderately hot atoms — more total
    // contention mass, so the mean over all 64 atoms of the step is higher.
    m.enqueue(sub(1, atom(1, 1), 2000));
    m.enqueue(sub(2, atom(2, 1), 1500));
    m.enqueue(sub(3, atom(2, 2), 1500));
    m.enqueue(sub(4, atom(2, 3), 1500));
    const auto batch = m.pick(10, util::SimTime::zero());
    ASSERT_FALSE(batch.empty());
    for (const auto& a : batch) EXPECT_EQ(a.timestep, 2u);
}

TEST(WorkloadManager, TwoLevelCapsAtK) {
    WorkloadManager m(cost(), nullptr, 0.0, true);
    for (std::uint64_t i = 0; i < 20; ++i) m.enqueue(sub(i + 1, atom(0, i), 1000));
    EXPECT_EQ(m.pick(5, util::SimTime::zero()).size(), 5u);
}

TEST(WorkloadManager, TwoLevelMortonSorted) {
    WorkloadManager m(cost(), nullptr, 0.0, true);
    m.enqueue(sub(1, atom(0, 9), 1000));
    m.enqueue(sub(2, atom(0, 2), 1000));
    m.enqueue(sub(3, atom(0, 5), 1000));
    const auto batch = m.pick(10, util::SimTime::zero());
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].morton, 2u);
    EXPECT_EQ(batch[1].morton, 5u);
    EXPECT_EQ(batch[2].morton, 9u);
}

TEST(WorkloadManager, TwoLevelExcludesBelowMeanAtoms) {
    WorkloadManager m(cost(), nullptr, 0.0, true);
    // One very hot atom and one barely-pending atom in the same step. The
    // step mean over 64 atoms is small but positive; an atom whose U_t is
    // below it (impossible here) would be excluded — instead verify that all
    // returned atoms meet the bar and the hot atom is present.
    m.enqueue(sub(1, atom(0, 1), 20000));
    m.enqueue(sub(2, atom(0, 2), 16));
    const auto batch = m.pick(10, util::SimTime::zero());
    const double mean = m.timestep_mean_utility(0) * 2 / 64.0;
    for (const auto& a : batch) EXPECT_GE(m.atom_utility(a), mean - 1e-9);
    EXPECT_NE(std::find_if(batch.begin(), batch.end(),
                           [](const storage::AtomId& a) { return a.morton == 1; }),
              batch.end());
}

TEST(WorkloadManager, AgedStepSelectionPrefersOldWorkAtHighAlpha) {
    WorkloadManager m(cost(), nullptr, 1.0, true);
    // Step 0 has old work, step 1 newer but hotter.
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(1, 1), 9000, 500000.0));
    const auto batch = m.pick(5, util::SimTime::from_millis(600000.0));
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.front().timestep, 0u);
}

TEST(WorkloadManager, OldestTimeTracksFirstEnqueue) {
    WorkloadManager m(cost(), nullptr, 1.0, false);
    m.enqueue(sub(1, atom(0, 1), 10, 100.0));
    m.enqueue(sub(2, atom(0, 1), 10, 50.0));  // later enqueue, but queue's
                                              // oldest stays at 100 (arrival
                                              // order within an atom is FIFO)
    m.enqueue(sub(3, atom(0, 2), 10, 80.0));
    // At alpha 1, atom 2 (age key -80) beats atom 1 (age key -100)? No:
    // older = smaller oldest => larger key. Atom 2 enqueued at 80 is older
    // than atom 1's first enqueue at 100.
    EXPECT_EQ(best(m)->morton, 2u);
}

// ---------------------------------------------------------------------------
// pick() against a brute-force reference. Random programs of enqueue,
// drain_atom, on_residency_changed and set_alpha run on a single-atom and a
// two-level manager side by side, over 3 steps x 4 atoms with positions in
// {0, 1, 2, 4} and a clock that often stands still, so U_t ties (every
// resident atom with work has U_t = 1/T_m), key ties and step ties are
// common. After every operation both picks are re-derived from a shadow copy
// of the queues.
// ---------------------------------------------------------------------------

/// Shadow of the managers' queues; every metric is re-derived from scratch.
struct Reference {
    const FakeProbe& probe;
    CostConstants cost;
    double alpha = 0.0;
    std::map<storage::AtomId, std::vector<SubQuery>> queues;

    double utility(const storage::AtomId& a) const {
        std::uint64_t positions = 0;
        for (const SubQuery& s : queues.at(a)) positions += s.positions;
        if (positions == 0) return 0.0;
        const double w = static_cast<double>(positions);
        const double phi = probe.resident(a) ? 0.0 : 1.0;
        return w / (cost.t_b_ms * phi + cost.t_m_ms * w);
    }

    double key(const storage::AtomId& a) const {
        return utility(a) * (1.0 - alpha) - queues.at(a).front().enqueue_time.millis() * alpha;
    }
};

/// audit()'s relative tolerance for sums accumulated in another order.
bool close(double a, double b) {
    return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
}

/// "" when `picked` is the single-atom pick: the highest key, ties to the
/// lowest atom key.
std::string check_single(const Reference& ref, const std::vector<storage::AtomId>& picked) {
    std::optional<storage::AtomId> best;
    for (const auto& [a, q] : ref.queues)
        if (!best || ref.key(a) > ref.key(*best)) best = a;
    if (!best) return picked.empty() ? "" : "single: picked with nothing pending";
    if (picked.size() != 1 || picked.front() != *best)
        return "single: expected atom (" + std::to_string(best->timestep) + "," +
               std::to_string(best->morton) + ")";
    return "";
}

/// "" when `picked` is a two-level pick of at most `k` atoms at `now`: a step
/// whose aged sum is within tolerance of the best, then the leading atoms of
/// that step by (U_t desc, atom key) while U_t reaches the step mean, in
/// Morton order.
std::string check_two_level(const Reference& ref, const std::vector<storage::AtomId>& picked,
                            std::size_t k, util::SimTime now) {
    if (ref.queues.empty()) return picked.empty() ? "" : "two-level: picked with nothing pending";
    if (picked.empty()) return "two-level: nothing picked with work pending";
    std::map<std::uint32_t, double> aged;  // step -> sum of U_e at `now`
    for (const auto& [a, q] : ref.queues) aged[a.timestep] += ref.key(a) + now.millis() * ref.alpha;
    double best = aged.begin()->second;
    for (const auto& [t, sum] : aged) best = std::max(best, sum);
    const std::uint32_t step = picked.front().timestep;
    if (!aged.contains(step) || !close(aged.at(step), best))
        return "two-level: step " + std::to_string(step) + " is not a best step";

    std::vector<storage::AtomId> order;
    double utility_sum = 0.0;
    for (const auto& [a, q] : ref.queues) {
        if (a.timestep != step) continue;
        order.push_back(a);
        utility_sum += ref.utility(a);
    }
    std::stable_sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
        return ref.utility(x) > ref.utility(y);
    });
    const double per_step = static_cast<double>(ref.cost.atoms_per_step);
    const double mean = utility_sum / per_step;
    const double slack = 1e-9 * (1.0 + 2.0 * std::abs(utility_sum)) / per_step;
    const auto prefix = [&](double bar) {
        std::size_t n = 0;
        while (n < order.size() && n < k && (n == 0 || ref.utility(order[n]) >= bar)) ++n;
        return n;
    };
    if (picked.size() < prefix(mean + slack) || picked.size() > prefix(mean - slack))
        return "two-level: " + std::to_string(picked.size()) + " atoms picked";
    std::vector<storage::AtomId> expected(order.begin(), order.begin() + picked.size());
    std::sort(expected.begin(), expected.end());
    if (picked != expected) return "two-level: wrong atoms or not in Morton order";
    return "";
}

TEST(WorkloadManagerPick, BothModesMatchBruteForceReference) {
    const auto program = [](proptest::Gen& gen) -> std::string {
        FakeProbe probe;
        CostConstants c = cost();
        c.atoms_per_step = 4;
        Reference ref{probe, c, 0.5, {}};
        WorkloadManager single(c, &probe, ref.alpha, false);
        WorkloadManager two_level(c, &probe, ref.alpha, true);
        double clock_ms = 0.0;
        const std::size_t ops = 20 + gen.below(60);
        for (std::size_t op = 0; op < ops; ++op) {
            const storage::AtomId a = atom(static_cast<std::uint32_t>(gen.below(3)), gen.below(4));
            clock_ms += static_cast<double>(gen.below(3));
            switch (gen.below(6)) {
                case 0:
                case 1:
                case 2: {  // enqueue
                    const std::uint64_t positions = std::uint64_t{1} << gen.below(4) >> 1;
                    const SubQuery s = sub(op + 1, a, positions, clock_ms);
                    single.enqueue(s);
                    two_level.enqueue(s);
                    ref.queues[a].push_back(s);
                    break;
                }
                case 3:  // drain
                    if (single.drain_atom(a).size() != two_level.drain_atom(a).size())
                        return "drained queues differ";
                    ref.queues.erase(a);
                    break;
                case 4:  // residency flip
                    if (!probe.cached.erase(a)) probe.cached.insert(a);
                    single.on_residency_changed(a);
                    two_level.on_residency_changed(a);
                    break;
                default: {  // alpha change
                    ref.alpha = static_cast<double>(gen.below(5)) * 0.25;
                    single.set_alpha(ref.alpha);
                    two_level.set_alpha(ref.alpha);
                    break;
                }
            }
            if (!single.audit() || !two_level.audit()) return "audit failed";
            const util::SimTime now = util::SimTime::from_millis(clock_ms);
            const std::size_t k = 1 + gen.below(5);
            std::string failure = check_single(ref, single.pick(k, now));
            if (failure.empty()) failure = check_two_level(ref, two_level.pick(k, now), k, now);
            if (!failure.empty()) return "after op " + std::to_string(op) + ": " + failure;
        }
        return "";
    };
    const proptest::Outcome o = proptest::check(proptest::Config{}, program);
    ASSERT_TRUE(o.ok) << o.message;
}

}  // namespace
}  // namespace jaws::sched
