// Tests for the precedence/gating graph (sched/precedence_graph.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "proptest.h"
#include "sched/precedence_graph.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace jaws::sched {
namespace {

workload::Query query_on(workload::JobId job, std::uint32_t seq, std::uint32_t step,
                         std::initializer_list<std::uint64_t> mortons) {
    workload::Query q;
    q.id = job * 1000 + seq;
    q.job = job;
    q.seq_in_job = seq;
    q.timestep = step;
    for (const std::uint64_t m : mortons)
        q.footprint.push_back(workload::AtomRequest{{step, m}, 10});
    std::sort(q.footprint.begin(), q.footprint.end(),
              [](const workload::AtomRequest& a, const workload::AtomRequest& b) {
                  return a.atom.morton < b.atom.morton;
              });
    return q;
}

/// Ordered job visiting the given atom per query (single shared step).
workload::Job chain(workload::JobId id, std::initializer_list<std::uint64_t> regions,
                    std::uint32_t step = 0) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    std::uint32_t seq = 0;
    for (const std::uint64_t r : regions) j.queries.push_back(query_on(id, seq++, step, {r}));
    return j;
}

TEST(PrecedenceGraph, BatchedQueriesPromoteImmediately) {
    PrecedenceGraph g(true);
    workload::Job j;
    j.id = 1;
    j.type = workload::JobType::kBatched;
    j.queries.push_back(query_on(1, 0, 0, {1}));
    j.queries.push_back(query_on(1, 1, 0, {2}));
    g.add_job(j);
    EXPECT_EQ(g.state(1000), QueryState::kWait);
    const auto p0 = g.on_query_visible(1000);
    ASSERT_EQ(p0.size(), 1u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    const auto p1 = g.on_query_visible(1001);
    ASSERT_EQ(p1.size(), 1u);
}

TEST(PrecedenceGraph, OrderedChainStateMachine) {
    PrecedenceGraph g(true);
    const workload::Job j = chain(1, {10, 20, 30});
    g.add_job(j);
    for (const auto& q : j.queries) EXPECT_EQ(g.state(q.id), QueryState::kWait);

    auto promoted = g.on_query_visible(1000);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.state(1001), QueryState::kWait);

    g.on_query_done(1000);
    EXPECT_EQ(g.state(1000), QueryState::kDone);  // pruned => reports done
    promoted = g.on_query_visible(1001);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, GatingAlignsTwoIdenticalChains) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20, 30});
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(a);
    g.add_job(b);
    EXPECT_EQ(g.stats().edges_admitted, 3u);
    EXPECT_EQ(g.partner_count(1000), 1u);
    EXPECT_EQ(g.partner_count(2000), 1u);

    // Job 1's head becomes visible: gated on job 2's head (still WAIT).
    auto promoted = g.on_query_visible(1000);
    EXPECT_TRUE(promoted.empty());
    EXPECT_EQ(g.state(1000), QueryState::kReady);
    EXPECT_TRUE(g.has_ready());

    // Job 2's head becomes visible: both promote together (co-scheduled).
    promoted = g.on_query_visible(2000);
    ASSERT_EQ(promoted.size(), 2u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.state(2000), QueryState::kQueue);
    EXPECT_FALSE(g.has_ready());
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, DonePartnerSatisfiesGate) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.on_query_visible(1000);
    g.on_query_visible(2000);  // both queue
    g.on_query_done(2000);     // job 2's head finishes first
    // Job 2's second query promotes alone if job 1's q2 is not yet ready...
    auto promoted = g.on_query_visible(2001);
    EXPECT_TRUE(promoted.empty());  // gated on job 1's q1 (WAIT)
    g.on_query_done(1000);
    promoted = g.on_query_visible(1001);
    ASSERT_EQ(promoted.size(), 2u);  // both seconds co-scheduled
}

TEST(PrecedenceGraph, OffsetAlignmentGatesMatchingRegions) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {1, 2, 3, 4});
    const workload::Job b = chain(2, {3, 4, 5});
    g.add_job(a);
    g.add_job(b);
    // Alignment (Fig. 2): a[2]~b[0], a[3]~b[1].
    EXPECT_EQ(g.stats().edges_admitted, 2u);
    EXPECT_EQ(g.partner_count(1002), 1u);
    EXPECT_EQ(g.partner_count(1003), 1u);
    EXPECT_EQ(g.partner_count(1000), 0u);
}

TEST(PrecedenceGraph, NoGatingWhenDisabled) {
    PrecedenceGraph g(false);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    EXPECT_EQ(g.stats().edges_admitted, 0u);
    EXPECT_EQ(g.stats().alignments_run, 0u);
    const auto promoted = g.on_query_visible(1000);
    ASSERT_EQ(promoted.size(), 1u);  // no gate, promotes alone
}

TEST(PrecedenceGraph, NoEdgesToCompletedQueries) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20, 30});
    g.add_job(a);
    g.on_query_visible(1000);
    g.on_query_done(1000);  // a's first query already finished
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(b);
    // b's head cannot gate with a's pruned head; only 20/30 align.
    EXPECT_EQ(g.partner_count(2000), 0u);
    EXPECT_EQ(g.partner_count(2001), 1u);
    EXPECT_EQ(g.partner_count(2002), 1u);
}

TEST(PrecedenceGraph, TransitiveInheritanceBuildsGroups) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    const workload::Job c = chain(3, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.add_job(c);
    // Job 3's head inherits job 2's edge to job 1: a triangle.
    EXPECT_EQ(g.partner_count(3000), 2u);
    EXPECT_EQ(g.partner_count(1000), 2u);
    EXPECT_EQ(g.partner_count(2000), 2u);
    // The whole group promotes only when all three are visible.
    EXPECT_TRUE(g.on_query_visible(1000).empty());
    EXPECT_TRUE(g.on_query_visible(2000).empty());
    EXPECT_EQ(g.on_query_visible(3000).size(), 3u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, OneEdgePerQueryPerJobPair) {
    PrecedenceGraph g(true);
    // Both queries of job 2 share data with job 1's single query region.
    const workload::Job a = chain(1, {10, 10});
    const workload::Job b = chain(2, {10, 10});
    g.add_job(a);
    g.add_job(b);
    // Each query has at most one edge to the other job.
    EXPECT_LE(g.partner_count(2000), 2u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, ForcePromoteReleasesOldestReady) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.on_query_visible(1000);  // READY, gated forever if job 2 never starts
    ASSERT_TRUE(g.has_ready());
    const auto released = g.force_promote_oldest_ready();
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 1000u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.stats().forced_promotions, 1u);
}

TEST(PrecedenceGraph, ForcePromoteNoReadyReturnsEmpty) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10});
    g.add_job(a);
    EXPECT_TRUE(g.force_promote_oldest_ready().empty());
}

TEST(PrecedenceGraph, GatingNumbersCountEdgedPrefix) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 99, 20, 30});
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(a);
    g.add_job(b);
    // a: edges at seq 0 (R10), 2 (R20), 3 (R30); seq 1 (R99) unshared.
    EXPECT_EQ(g.gating_number(1000), 1);
    EXPECT_EQ(g.gating_number(1001), 1);
    EXPECT_EQ(g.gating_number(1002), 2);
    EXPECT_EQ(g.gating_number(1003), 3);
}

TEST(PrecedenceGraph, RejectsDeadlockCycleAcrossThreeJobs) {
    // Construct the rock-paper-scissors hazard: j1=[A,B], j2=[B,C], j3=[C,A].
    // Pairwise alignments: j1.B~j2.B, j2.C~j3.C, j3.A~j1.A. Admitting all
    // three would create the wait cycle j1.A<j1.B~j2.B<j2.C~j3.C... admission
    // must reject at least the closing edge; the graph must stay acyclic.
    PrecedenceGraph g(true);
    const workload::Job j1 = chain(1, {100, 200});
    const workload::Job j2 = chain(2, {200, 300});
    const workload::Job j3 = chain(3, {300, 100});
    g.add_job(j1);
    g.add_job(j2);
    g.add_job(j3);
    EXPECT_TRUE(g.check_invariants());
    // Drive everything to completion to prove no deadlock at runtime.
    std::vector<workload::QueryId> queue;
    const auto visible = [&](workload::QueryId id) {
        for (const auto q : g.on_query_visible(id)) queue.push_back(q);
    };
    visible(1000);
    visible(2000);
    visible(3000);
    std::size_t executed = 0;
    std::size_t guard = 0;
    while (executed < 6 && guard++ < 100) {
        if (queue.empty()) {
            const auto released = g.force_promote_oldest_ready();
            ASSERT_FALSE(released.empty()) << "graph stalled";
            for (const auto q : released) queue.push_back(q);
        }
        const workload::QueryId id = queue.back();
        queue.pop_back();
        g.on_query_done(id);
        ++executed;
        // Successor becomes visible.
        const workload::QueryId succ = id + 1;
        if (succ % 1000 == 1) visible(succ);
    }
    EXPECT_EQ(executed, 6u);
    // The admission rules should have prevented the cycle outright, so no
    // forced promotions were necessary.
    EXPECT_EQ(g.stats().forced_promotions, 0u);
}

TEST(PrecedenceGraph, RandomCampaignDrainsWithoutForcedPromotions) {
    // Property test: many random overlapping chains must always drain through
    // the normal promotion path (gating never deadlocks the schedule).
    util::Rng rng(1234);
    for (int trial = 0; trial < 10; ++trial) {
        PrecedenceGraph g(true);
        std::vector<workload::Job> jobs;
        const std::size_t n = 4 + rng.uniform_u64(4);
        for (std::size_t j = 0; j < n; ++j) {
            std::vector<std::uint64_t> regions;
            const std::size_t m = 2 + rng.uniform_u64(5);
            for (std::size_t i = 0; i < m; ++i) regions.push_back(rng.uniform_u64(6));
            workload::Job job;
            job.id = j + 1;
            job.type = workload::JobType::kOrdered;
            for (std::size_t i = 0; i < regions.size(); ++i)
                job.queries.push_back(query_on(job.id, static_cast<std::uint32_t>(i), 0,
                                               {regions[i]}));
            jobs.push_back(job);
        }
        for (const auto& job : jobs) g.add_job(job);
        ASSERT_TRUE(g.check_invariants());

        std::vector<workload::QueryId> runnable;
        for (const auto& job : jobs)
            for (const auto id : g.on_query_visible(job.queries.front().id))
                runnable.push_back(id);
        std::size_t total = 0;
        for (const auto& job : jobs) total += job.queries.size();
        std::size_t executed = 0;
        std::size_t guard = 0;
        while (executed < total && guard++ < 1000) {
            ASSERT_FALSE(runnable.empty()) << "stall in trial " << trial;
            const workload::QueryId id = runnable.back();
            runnable.pop_back();
            g.on_query_done(id);
            ++executed;
            const workload::JobId job_id = id / 1000;
            const std::uint32_t seq = static_cast<std::uint32_t>(id % 1000);
            if (seq + 1 < jobs[job_id - 1].queries.size())
                for (const auto next : g.on_query_visible(id + 1)) runnable.push_back(next);
        }
        ASSERT_EQ(executed, total);
        ASSERT_EQ(g.stats().forced_promotions, 0u);
    }
}

TEST(PrecedenceGraph, PartnerPointersSurviveTableGrowth) {
    // Gating partners are linked by pointer into the node table. Ordered jobs
    // arrive (one completion per arrival) until about a thousand queries are
    // live, so the table rehashes several times (libstdc++ grows through 13,
    // 29, 59, 127, 257, 541 and 1,109 buckets) while gating edges are live,
    // then everything drains. After every step check_invariants() reads
    // through every partner pointer, and each query's state and partner
    // count must match a shadow model; under ASan a dangling partner fails
    // outright.
    util::Rng rng(77);
    std::vector<workload::Job> jobs(120);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        workload::Job& job = jobs[j];
        job.id = j + 1;
        job.type = workload::JobType::kOrdered;
        const std::size_t m = 6 + rng.uniform_u64(7);
        for (std::size_t i = 0; i < m; ++i)
            job.queries.push_back(
                query_on(job.id, static_cast<std::uint32_t>(i), 0, {rng.uniform_u64(6)}));
    }
    PrecedenceGraph g(true);
    std::map<workload::QueryId, QueryState> expected;
    std::vector<workload::QueryId> runnable;
    std::size_t detached = 0;  // edges removed by completions
    std::size_t peak_live = 0, edges_at_peak = 0;

    const auto visible = [&](workload::QueryId id) {
        expected[id] = QueryState::kReady;
        for (const workload::QueryId p : g.on_query_visible(id)) {
            expected[p] = QueryState::kQueue;
            runnable.push_back(p);
        }
    };
    const auto complete = [&] {
        const workload::QueryId id = runnable.front();
        runnable.erase(runnable.begin());
        detached += g.partner_count(id);
        g.on_query_done(id);
        expected[id] = QueryState::kDone;
        const workload::Job& job = jobs[id / 1000 - 1];
        if (id % 1000 + 1 < job.queries.size()) visible(id + 1);
    };
    const auto consistent = [&]() -> std::string {
        if (!g.check_invariants()) return "invariants broken";
        std::size_t live = 0, endpoints = 0;
        for (const auto& [id, state] : expected) {
            if (g.state(id) != state) return "state of query " + std::to_string(id);
            if (state == QueryState::kDone) {
                if (g.partner_count(id) != 0) return "partners of done query";
                continue;
            }
            ++live;
            endpoints += g.partner_count(id);
        }
        const std::size_t edges = g.stats().edges_admitted - detached;
        if (endpoints != 2 * edges) return "partner counts do not add up to the live edges";
        if (live > peak_live) {
            peak_live = live;
            edges_at_peak = edges;
        }
        return "";
    };

    for (const workload::Job& job : jobs) {
        g.add_job(job);
        for (const auto& q : job.queries) expected[q.id] = QueryState::kWait;
        visible(job.queries.front().id);
        ASSERT_EQ(consistent(), "") << "after add_job(" << job.id << ")";
        if (runnable.empty()) continue;
        complete();
        ASSERT_EQ(consistent(), "") << "after a completion";
    }
    while (!runnable.empty()) {
        complete();
        ASSERT_EQ(consistent(), "") << "while draining";
    }
    for (const auto& [id, state] : expected) ASSERT_EQ(state, QueryState::kDone) << id;
    EXPECT_GT(peak_live, 600u);  // past the 541-bucket table
    EXPECT_GT(edges_at_peak, 0u);
    EXPECT_EQ(g.stats().forced_promotions, 0u);
}

// ---------------------------------------------------------------------------
// Gating-decision goldens. The counters below were recorded with the
// original full-rebuild deadlock check (union-find over every live query,
// condensed adjacency, DFS); the local search must reproduce every admission
// decision, so the counts may never move.
// ---------------------------------------------------------------------------

/// Drive `jobs` through `g` the way the engine exposes them: an ordered job
/// shows its head at arrival and each successor when its predecessor is done;
/// a batched job shows every query at arrival. `next(runnable, can_add)`
/// returns runnable.size() to add the next job, or the index of the runnable
/// query to complete. Invariants are checked after every add_job and
/// on_query_done. Returns a failure description, or "" when everything
/// drained with the invariants intact and no forced promotion.
template <typename Next>
std::string drive(PrecedenceGraph& g, const std::vector<workload::Job>& jobs, Next next) {
    std::unordered_map<workload::QueryId, std::pair<const workload::Job*, std::size_t>> where;
    std::size_t total = 0;
    for (const auto& job : jobs) {
        for (std::size_t i = 0; i < job.queries.size(); ++i)
            where.emplace(job.queries[i].id, std::make_pair(&job, i));
        total += job.queries.size();
    }
    std::vector<workload::QueryId> runnable;
    const auto visible = [&](workload::QueryId id) {
        for (const workload::QueryId q : g.on_query_visible(id)) runnable.push_back(q);
    };
    std::size_t added = 0, done = 0;
    while (done < total) {
        const bool can_add = added < jobs.size();
        const std::size_t pick =
            runnable.empty() ? runnable.size() : next(runnable, can_add);
        if (pick >= runnable.size()) {
            if (!can_add)
                return "stalled with " + std::to_string(total - done) + " queries left";
            const workload::Job& job = jobs[added++];
            g.add_job(job);
            if (!g.check_invariants())
                return "invariants broken after add_job(" + std::to_string(job.id) + ")";
            if (job.type == workload::JobType::kOrdered) {
                visible(job.queries.front().id);
            } else {
                for (const auto& q : job.queries) visible(q.id);
            }
            continue;
        }
        const workload::QueryId id = runnable[pick];
        runnable.erase(runnable.begin() + static_cast<std::ptrdiff_t>(pick));
        g.on_query_done(id);
        ++done;
        if (!g.check_invariants())
            return "invariants broken after on_query_done(" + std::to_string(id) + ")";
        const auto& [job, index] = where.at(id);
        if (job->type == workload::JobType::kOrdered && index + 1 < job->queries.size())
            visible(job->queries[index + 1].id);
    }
    if (g.stats().forced_promotions != 0) return "forced promotions";
    return "";
}

TEST(GatingGolden, ReferenceTraceCampaign) {
    // The ordered jobs of the generator's reference trace (seed 7, every
    // bench's seed) at 200 jobs: 99 jobs, 2,157 queries. Batched jobs are
    // never aligned or gated, so they are left out. Each arrival follows 12
    // FIFO completions, so dozens of chains are live at once and the
    // deadlock check both admits and rejects.
    workload::WorkloadSpec spec;
    spec.jobs = 200;
    const field::GridSpec grid;
    const field::SyntheticField field;
    std::vector<workload::Job> jobs;
    for (workload::Job& job : workload::generate_workload(spec, grid, field).jobs)
        if (job.type == workload::JobType::kOrdered) jobs.push_back(std::move(job));
    ASSERT_EQ(jobs.size(), 99u);
    PrecedenceGraph g(true);
    std::size_t since_arrival = 0;
    const std::string failure =
        drive(g, jobs, [&](const std::vector<workload::QueryId>& runnable, bool can_add) {
            if (can_add && since_arrival >= 12) {
                since_arrival = 0;
                return runnable.size();
            }
            ++since_arrival;
            return std::size_t{0};
        });
    ASSERT_EQ(failure, "");
    const GatingStats& s = g.stats();
    EXPECT_EQ(s.alignments_run, 2672u);
    EXPECT_EQ(s.edges_admitted, 1469u);
    EXPECT_EQ(s.edges_rejected_deadlock, 87u);
    EXPECT_EQ(s.edges_rejected_crossing, 738u);
}

TEST(GatingGolden, RandomCampaigns) {
    // proptest campaigns: 4-12 jobs of 2-8 queries over four shared regions
    // and two steps, arrivals and completions interleaved at random. The
    // counters are summed over every case.
    GatingStats sum;
    const auto campaign = [&](proptest::Gen& gen) -> std::string {
        std::vector<workload::Job> jobs(4 + gen.below(9));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            workload::Job& job = jobs[j];
            job.id = j + 1;
            job.type = gen.below(4) == 0 ? workload::JobType::kBatched
                                         : workload::JobType::kOrdered;
            const std::uint32_t step = static_cast<std::uint32_t>(gen.below(2));
            const std::size_t m = 2 + gen.below(7);
            for (std::size_t i = 0; i < m; ++i)
                job.queries.push_back(query_on(job.id, static_cast<std::uint32_t>(i), step,
                                               {gen.below(4)}));
        }
        PrecedenceGraph g(true);
        const std::string failure =
            drive(g, jobs, [&](const std::vector<workload::QueryId>& runnable, bool can_add) {
                return static_cast<std::size_t>(gen.below(runnable.size() + (can_add ? 1 : 0)));
            });
        const GatingStats& s = g.stats();
        sum.alignments_run += s.alignments_run;
        sum.edges_admitted += s.edges_admitted;
        sum.edges_rejected_deadlock += s.edges_rejected_deadlock;
        sum.edges_rejected_crossing += s.edges_rejected_crossing;
        return failure;
    };
    const proptest::Outcome o = proptest::check(proptest::Config{}, campaign);
    ASSERT_TRUE(o.ok) << o.message;
    EXPECT_EQ(sum.alignments_run, 3118u);
    EXPECT_EQ(sum.edges_admitted, 2098u);
    EXPECT_EQ(sum.edges_rejected_deadlock, 48u);
    EXPECT_EQ(sum.edges_rejected_crossing, 344u);
}

}  // namespace
}  // namespace jaws::sched
