// Tests of the replay benchmark's own replay code, on shrunken copies of its
// workloads.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "replay.h"
#include "workloads.h"

namespace {

perfbench::WorkloadDef small(const std::string& name, std::size_t jobs) {
    perfbench::WorkloadDef def = perfbench::make_workload(name);
    def.spec.jobs = jobs;
    return def;
}

std::uint64_t subqueries(const jaws::workload::Workload& w) {
    std::uint64_t n = 0;
    for (const auto& job : w.jobs)
        for (const auto& q : job.queries) n += q.footprint.size();
    return n;
}

class ReplayTest : public ::testing::TestWithParam<const char*> {
  protected:
    perfbench::WorkloadDef def() const {
        const std::string name = GetParam();
        return small(name, name == std::string("materialized_eval") ? 2 : 40);
    }
};

TEST_P(ReplayTest, SharedKernelLoopReproducesEngineRun) {
    const perfbench::WorkloadDef d = def();
    const perfbench::Inputs in = perfbench::generate_inputs(d, 11);
    jaws::core::Engine engine(d.config.node);
    const jaws::core::RunReport want = engine.run(in.workload);
    ASSERT_GT(want.queries, 0u);

    perfbench::KernelTrace trace;
    const jaws::core::RunReport got = perfbench::run_shared_kernel(d.config.node, in.workload, trace);
    EXPECT_EQ(perfbench::fingerprint(got), perfbench::fingerprint(want));
    EXPECT_EQ(got.queries, want.queries);
    EXPECT_EQ(got.samples_evaluated, want.samples_evaluated);
    EXPECT_EQ(got.busy_throughput_qps, want.busy_throughput_qps);
    EXPECT_EQ(got.response_ms, want.response_ms);
    EXPECT_GT(trace.events, 0u);
    EXPECT_GT(trace.event_ns, 0u);
}

TEST_P(ReplayTest, LayerReplayDrainsEverySubqueryExactlyOnce) {
    const perfbench::WorkloadDef d = def();
    const perfbench::Inputs in = perfbench::generate_inputs(d, 12);
    jaws::core::Engine engine(d.config.node);
    engine.run(in.workload);
    // Instant service, and paced by the run's own outcomes.
    for (const auto* timeline : {static_cast<const std::vector<jaws::core::QueryOutcome>*>(nullptr),
                                 &engine.outcomes()}) {
        const perfbench::LayerReplay r =
            perfbench::replay_layers(d.config.node, in.workload, timeline);
        EXPECT_TRUE(r.drained_exactly_once);
        EXPECT_EQ(r.subqueries_drained, subqueries(in.workload));
        EXPECT_EQ(r.completions, in.workload.total_queries());
        EXPECT_EQ(r.visibles, in.workload.total_queries());
        EXPECT_EQ(r.submits, in.workload.jobs.size());
        EXPECT_EQ(r.preprocessed, in.workload.total_queries());
    }
}

TEST_P(ReplayTest, CacheReplayHitsPlusMissesEqualLookups) {
    const perfbench::WorkloadDef d = def();
    const perfbench::Inputs in = perfbench::generate_inputs(d, 13);
    const perfbench::LayerReplay r =
        perfbench::replay_layers(d.config.node, in.workload, nullptr);
    EXPECT_GT(r.lookups, 0u);
    EXPECT_EQ(r.hits + r.misses, r.lookups);
    EXPECT_EQ(r.inserts, r.misses);
    EXPECT_EQ(r.reads, r.misses);
    EXPECT_LE(r.evictions, r.inserts);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReplayTest,
                         ::testing::Values("trace_jaws2", "trace_noshare",
                                           "materialized_eval", "cluster_failover"));

TEST(Fingerprint, DistinguishesModeledAnswers) {
    jaws::core::RunReport a;
    a.makespan = jaws::util::SimTime::from_micros(5);
    a.atom_reads = 3;
    jaws::core::RunReport b = a;
    EXPECT_EQ(perfbench::fingerprint(a), perfbench::fingerprint(b));
    b.sample_digest ^= 1;
    EXPECT_NE(perfbench::fingerprint(a), perfbench::fingerprint(b));
}

TEST(Workloads, UnknownNameThrows) {
    EXPECT_THROW(perfbench::make_workload("no_such_workload"), std::invalid_argument);
}

}  // namespace
