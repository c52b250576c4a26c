// Cluster kernel vs isolated per-node engines (core/cluster.h).
//
// The contract under test: at replication = 1 with no node deaths, the
// cluster kernel (one shared EventQueue, route-time arrivals, replica-aware
// reads) produces per-query outcomes and sample digests bit-identical to N
// isolated engines, each running its node's share of the workload (project()
// folded over the jobs) — the cross-node tie-break (time, priority, node,
// insertion) degenerates to each node's private order, and self-routing is
// the identity. The golden row pins the shared trace so a silent divergence
// fails loudly. Beyond the pinned regime, the suite covers what only a shared
// kernel can do: replica-served reads, in-kernel failover into survivors'
// resources, and the merged cluster timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

// --- materialised fixture: real payloads, real digests --------------------

ClusterConfig fixture_cluster(std::size_t nodes) {
    ClusterConfig c;
    c.nodes = nodes;
    c.node.grid.voxels_per_side = 128;
    c.node.grid.atom_side = 32;
    c.node.grid.ghost = 4;
    c.node.grid.timesteps = 4;
    c.node.field.modes = 4;
    c.node.cache.capacity_atoms = 16;
    c.node.run_length = 25;
    c.node.io_depth = 2;
    c.node.compute_workers = 2;
    c.node.materialize_data = true;
    c.node.scheduler.kind = SchedulerKind::kJaws;
    return c;
}

workload::Workload fixture_workload(const ClusterConfig& c, std::size_t jobs = 8) {
    workload::WorkloadSpec spec;
    spec.jobs = jobs;
    spec.seed = 11;
    spec.max_positions = 600;  // bound the real interpolation work per query
    const field::SyntheticField field(c.node.field);
    workload::Workload w = workload::generate_workload(spec, c.node.grid, field);
    workload::materialize_positions(w, c.node.grid, /*seed=*/23);
    return w;
}

/// Each node's share of `w`: project() folded over the jobs (queries keep
/// their IDs, jobs that miss the node are dropped).
std::vector<workload::Workload> node_shares(const ClusterConfig& config,
                                            const workload::Workload& w) {
    const TurbulenceCluster cluster(config);
    std::vector<workload::Workload> shares(config.nodes);
    for (const workload::Job& job : w.jobs) {
        std::vector<workload::Job> projected = cluster.project(job);
        for (std::size_t n = 0; n < config.nodes; ++n)
            if (!projected[n].queries.empty())
                shares[n].jobs.push_back(std::move(projected[n]));
    }
    return shares;
}

/// The reference the kernel must match: every node's share run on its own
/// standalone engine, with the cluster-level figures derived from those
/// reports in node order (makespan of the slowest node, part-weighted mean
/// response, pooled tail percentiles).
ClusterReport isolated_engines(const ClusterConfig& config, const workload::Workload& w) {
    ClusterReport ref;
    std::size_t parts = 0;
    double weighted_rt = 0.0;
    std::uint64_t hits = 0, misses = 0;
    std::vector<double> pooled_ms;
    for (const workload::Workload& share : node_shares(config, w)) {
        RunReport r;
        if (!share.jobs.empty()) r = Engine(config.node).run(share);
        ref.makespan = std::max(ref.makespan, r.makespan);
        parts += r.queries;
        weighted_rt += r.mean_response_ms * static_cast<double>(r.queries);
        hits += r.cache.hits;
        misses += r.cache.misses;
        pooled_ms.insert(pooled_ms.end(), r.response_ms.begin(), r.response_ms.end());
        ref.per_node.push_back(std::move(r));
    }
    ref.total_throughput_qps =
        static_cast<double>(parts) / std::max(1e-9, ref.makespan.seconds());
    ref.mean_response_ms = parts ? weighted_rt / static_cast<double>(parts) : 0.0;
    ref.cache_hit_rate =
        (hits + misses) ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
    ref.p999_response_ms = util::percentile(pooled_ms, 99.9);
    ref.p99_response_ms = util::percentile(std::move(pooled_ms), 99.0);
    return ref;
}

void expect_node_reports_identical(const RunReport& u, const RunReport& l) {
    EXPECT_EQ(u.queries, l.queries);
    EXPECT_EQ(u.jobs, l.jobs);
    EXPECT_EQ(u.makespan.micros, l.makespan.micros);
    EXPECT_EQ(u.idle_time.micros, l.idle_time.micros);
    EXPECT_EQ(u.sample_digest, l.sample_digest);
    EXPECT_EQ(u.samples_evaluated, l.samples_evaluated);
    EXPECT_EQ(u.cache.hits, l.cache.hits);
    EXPECT_EQ(u.cache.misses, l.cache.misses);
    EXPECT_EQ(u.atom_reads, l.atom_reads);
    EXPECT_EQ(u.replica_reads, l.replica_reads);
    EXPECT_EQ(u.support_reads, l.support_reads);
    EXPECT_EQ(u.subqueries, l.subqueries);
    EXPECT_EQ(u.positions, l.positions);
    EXPECT_EQ(u.mean_response_ms, l.mean_response_ms);
    EXPECT_EQ(u.peak_cpu_busy, l.peak_cpu_busy);
    EXPECT_EQ(u.peak_disk_busy, l.peak_disk_busy);
    ASSERT_EQ(u.response_ms.size(), l.response_ms.size());
    for (std::size_t i = 0; i < u.response_ms.size(); ++i)
        EXPECT_EQ(u.response_ms[i], l.response_ms[i]);
}

// "Legacy" names the reference: N isolated per-node engines, which is how the
// cluster ran before the shared kernel existed.
TEST(ClusterEquivalence, UnifiedMatchesLegacyBitExactlyAtReplicationOne) {
    for (const std::size_t nodes : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("nodes=" + std::to_string(nodes));
        const ClusterConfig config = fixture_cluster(nodes);
        const workload::Workload w = fixture_workload(config);

        const ClusterReport ru = TurbulenceCluster(config).run(w);
        const ClusterReport rl = isolated_engines(config, w);

        ASSERT_EQ(ru.per_node.size(), nodes);
        ASSERT_EQ(rl.per_node.size(), nodes);
        for (std::size_t n = 0; n < nodes; ++n) {
            SCOPED_TRACE("node=" + std::to_string(n));
            expect_node_reports_identical(ru.per_node[n], rl.per_node[n]);
        }
        EXPECT_EQ(ru.makespan.micros, rl.makespan.micros);
        EXPECT_EQ(ru.total_throughput_qps, rl.total_throughput_qps);
        EXPECT_EQ(ru.mean_response_ms, rl.mean_response_ms);
        EXPECT_EQ(ru.cache_hit_rate, rl.cache_hit_rate);
        EXPECT_EQ(ru.p99_response_ms, rl.p99_response_ms);
        EXPECT_EQ(ru.p999_response_ms, rl.p999_response_ms);

        // Routing accounting: everything routed to its owner, nothing moved
        // or lost, no cross-node reads at replication 1.
        std::size_t projected = 0;
        for (const auto& share : node_shares(config, w)) projected += share.total_queries();
        EXPECT_EQ(ru.routed_queries, projected);
        EXPECT_EQ(ru.rerouted_arrivals, 0u);
        EXPECT_EQ(ru.replica_reads, 0u);
        EXPECT_EQ(ru.lost_queries, 0u);
    }
}

// Golden-pinned trace of the 3-node fixture, captured when the shared kernel
// was introduced and its materialised evaluation still ran the scalar
// interpolation loop (the kernel matched isolated engines bit-for-bit at
// capture time, and the test above keeps proving it does). If this row
// breaks, the virtual schedule, the projection split, the interpolation
// values or the reduction order changed.
TEST(ClusterEquivalence, GoldenPinnedThreeNodeTrace) {
    const ClusterConfig config = fixture_cluster(3);
    const workload::Workload w = fixture_workload(config);
    const ClusterReport r = TurbulenceCluster(config).run(w);

    std::uint64_t samples = 0;
    std::uint64_t digest = kFnvOffset;
    for (const RunReport& n : r.per_node) {
        samples += n.samples_evaluated;
        digest = fnv1a64(digest, &n.sample_digest, sizeof(n.sample_digest));
    }
    EXPECT_EQ(r.makespan.micros, INT64_C(916033023));
    EXPECT_EQ(samples, UINT64_C(307798));
    EXPECT_EQ(digest, UINT64_C(0x6d1c2f7bf5529d87));
}

// --- descriptor-only fixtures: routing, failover, timeline ----------------

ClusterConfig tiny_cluster(std::size_t nodes, std::size_t replication) {
    ClusterConfig c;
    c.nodes = nodes;
    c.replication = replication;
    c.node.grid.voxels_per_side = 64;
    c.node.grid.atom_side = 32;  // 2 atoms per side -> 8 atoms per step
    c.node.grid.ghost = 2;
    c.node.grid.timesteps = 2;
    c.node.field.modes = 4;
    c.node.cache.capacity_atoms = 2;
    return c;
}

workload::Job single_query_job(workload::QueryId qid, std::uint64_t morton,
                               util::SimTime arrival, std::uint32_t step = 0) {
    workload::Job job;
    job.id = qid;
    job.type = workload::JobType::kBatched;
    job.arrival = arrival;
    workload::Query q;
    q.id = qid;
    q.job = job.id;
    q.timestep = step;
    q.footprint.push_back(workload::AtomRequest{{step, morton}, 5});
    job.queries.push_back(q);
    return job;
}

std::size_t completed_parts(const ClusterReport& r) {
    std::size_t total = 0;
    for (const auto& n : r.per_node) total += n.queries;
    return total;
}

TEST(ClusterReplicaReads, ReplicatedReadsSpreadOntoTheChain) {
    // Two nodes, replication 2: every atom is readable on both. Jobs hammer
    // node 0's range (morton 0..3) in quick succession, so node 0's modeled
    // disk queue is deeper than node 1's when reads are routed — the kernel
    // serves part of them from the replica. io_depth 4 keeps several reads in flight per node — with
    // a pipeline window of 1 the owner's disk is idle at every route instant
    // and the chain never diverts; the 1 ms arrival spacing builds the
    // owner-side backlog the divert margin requires.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.io_depth = 4;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 60; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 4, util::SimTime::from_millis(static_cast<double>(i) * 1.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    EXPECT_EQ(completed_parts(r), 60u);
    EXPECT_EQ(r.routed_queries, 60u);
    EXPECT_EQ(r.lost_queries, 0u);
    EXPECT_GT(r.replica_reads, 0u);  // replication acted as load balancing
    std::uint64_t per_node_replica = 0;
    for (const auto& n : r.per_node) per_node_replica += n.replica_reads;
    EXPECT_EQ(r.replica_reads, per_node_replica);
}

TEST(ClusterReplicaReads, UnifiedRunsAreBitIdenticalAcrossRepeats) {
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.io_depth = 4;  // keep replica routing active (see above)
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 40; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 2.0)));
    const ClusterReport a = TurbulenceCluster(config).run(w);
    const ClusterReport b = TurbulenceCluster(config).run(w);
    EXPECT_EQ(a.makespan.micros, b.makespan.micros);
    EXPECT_EQ(a.replica_reads, b.replica_reads);
    ASSERT_EQ(a.per_node.size(), b.per_node.size());
    for (std::size_t n = 0; n < a.per_node.size(); ++n) {
        EXPECT_EQ(a.per_node[n].queries, b.per_node[n].queries);
        EXPECT_EQ(a.per_node[n].makespan.micros, b.per_node[n].makespan.micros);
        EXPECT_EQ(a.per_node[n].atom_reads, b.per_node[n].atom_reads);
        EXPECT_EQ(a.per_node[n].replica_reads, b.per_node[n].replica_reads);
    }
}

TEST(ClusterFailover, InKernelFailoverAbsorbsTheDeadNodesWork) {
    // Node 0 dies a third of the way through the arrival schedule. Its
    // unfinished share is re-injected into node 1 *inside the kernel* (no
    // recovery re-run), where it contends with node 1's own queue.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(300.0)});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 24; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 40.0)));
    TurbulenceCluster cluster(config);
    const ClusterReport r = cluster.run(w);

    EXPECT_EQ(r.dead_nodes, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_EQ(r.lost_queries, 0u);
    EXPECT_GT(r.requeued_queries, 0u);
    EXPECT_TRUE(r.recovery.empty());  // absorbed in-kernel, not re-run after
    EXPECT_EQ(completed_parts(r), 24u);

    // The survivor completed strictly more than its own projected share.
    const auto shares = node_shares(config, w);
    EXPECT_GT(r.per_node[1].queries, shares[1].total_queries());
    // And the dead node stopped short.
    EXPECT_LT(r.per_node[0].queries, shares[0].total_queries());
}

TEST(ClusterFailover, NoSurvivingReplicaLosesTheTailInKernel) {
    ClusterConfig config = tiny_cluster(2, 1);  // no redundancy
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(300.0)});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 24; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 40.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    EXPECT_EQ(r.dead_nodes, 1u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_GT(r.lost_queries, 0u);
    EXPECT_EQ(completed_parts(r) + r.lost_queries, 24u);
}

TEST(ClusterFailover, SurvivorsDiskUtilizationRisesAfterTheDeath) {
    // The acceptance check on in-kernel failover: the survivor's *own*
    // timeline shows its disk working harder after the death than before —
    // the dead node's reads really run on the survivor's modeled channels,
    // not in a post-hoc summed report.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.timeline_window_s = 0.1;
    const util::SimTime death = util::SimTime::from_millis(300.0);
    config.node.faults.node_down.push_back(storage::NodeDownEvent{util::NodeIndex{0}, death});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 48; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 4, util::SimTime::from_millis(static_cast<double>(i) * 20.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    ASSERT_EQ(r.lost_queries, 0u);
    ASSERT_GT(r.requeued_queries, 0u);

    double before = 0.0, after = 0.0;
    std::size_t n_before = 0, n_after = 0;
    for (const TimelinePoint& tp : r.per_node[1].timeline) {
        if (tp.window_end <= death) {
            before += tp.disk_utilization;
            ++n_before;
        } else {
            after += tp.disk_utilization;
            ++n_after;
        }
    }
    ASSERT_GT(n_before, 0u);
    ASSERT_GT(n_after, 0u);
    EXPECT_GT(after / static_cast<double>(n_after),
              before / static_cast<double>(n_before));
}

TEST(ClusterTimeline, MergedClusterTimelineCoversEveryNodeCompletion) {
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.timeline_window_s = 0.1;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 30; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 20.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    ASSERT_FALSE(r.timeline.empty());

    std::uint64_t merged = 0;
    for (const TimelinePoint& tp : r.timeline) merged += tp.completions;
    std::uint64_t per_node = 0;
    for (const RunReport& n : r.per_node)
        for (const TimelinePoint& tp : n.timeline) per_node += tp.completions;
    EXPECT_EQ(merged, per_node);
    for (std::size_t i = 1; i < r.timeline.size(); ++i)
        EXPECT_LT(r.timeline[i - 1].window_end.micros, r.timeline[i].window_end.micros);
}

TEST(ClusterEquivalence, MaterializedRunRejectsKernelsWiderThanGhost) {
    // With real data an interpolation kernel must fit inside the atom's
    // ghost region (descriptor-only runs model the spill as support reads;
    // the data path cannot). An order-8 kernel against ghost=2 must throw
    // from workload intake instead of reading out of bounds inside the
    // interpolation kernel.
    {
        ClusterConfig config = tiny_cluster(2, 1);
        config.node.materialize_data = true;
        workload::Workload w;
        w.jobs.push_back(single_query_job(1, 0, util::SimTime::zero()));
        w.jobs.back().queries.front().order = field::InterpOrder::kLag8;
        workload::materialize_positions(w, config.node.grid, /*seed=*/23);
        EXPECT_THROW(TurbulenceCluster(config).run(w), std::invalid_argument);
    }
    // The same workload passes once the grid carries enough ghost voxels.
    ClusterConfig ok = tiny_cluster(2, 1);
    ok.node.grid.ghost = 4;
    ok.node.materialize_data = true;
    workload::Workload w;
    w.jobs.push_back(single_query_job(1, 0, util::SimTime::zero()));
    w.jobs.back().queries.front().order = field::InterpOrder::kLag8;
    workload::materialize_positions(w, ok.node.grid, /*seed=*/23);
    const ClusterReport r = TurbulenceCluster(ok).run(w);
    EXPECT_EQ(completed_parts(r), 1u);
}

}  // namespace
}  // namespace jaws::core
