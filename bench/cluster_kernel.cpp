// Cluster-kernel sweep — what one shared event kernel buys the cluster.
//
// The cluster kernel routes arrivals at event time, serves replicated atom
// reads from the chain member with the shallowest modeled disk queue, and
// absorbs node deaths in-line: the dead node's unfinished work contends for
// the survivors' modeled disks instead of being re-run after the fact.
// Without a node death, replication 1 is the baseline (it runs exactly like
// N isolated per-node engines); the paired table sets each replication's
// makespan against it.
//
// This harness sweeps workload skew x replication x node death at equal
// seeds and reports, per cell: cluster makespan, the share of demand
// reads served by a replica, failover accounting, and — for the death rows —
// the survivors' disk utilisation before vs after the death (from the
// per-node timeline, so a rise is visible in-kernel, not a post-hoc sum).
//
// Everything runs on the virtual clock (wall_clock_overhead off), so
// repeated runs are bit-identical — including BENCH_cluster_kernel.json,
// which carries no wall-clock or timestamp fields by design.
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/cluster.h"

namespace {

struct SkewLevel {
    const char* name;
    bool hot_node;  ///< Concentrate every footprint atom onto one node's range.
};

struct Row {
    std::string skew;
    std::size_t replication = 1;
    bool death = false;
    jaws::core::ClusterReport r;
    double survivor_util_before = 0.0;
    double survivor_util_after = 0.0;
};

constexpr std::size_t kNodes = 4;
constexpr std::size_t kDeadNode = 1;
constexpr double kDeathSeconds = 30.0;
/// Fig. 11's saturation knob: compress arrival gaps so queues actually form —
/// replica routing only matters when the owner's disk has a backlog to dodge.
constexpr double kSpeedup = 16.0;

jaws::core::ClusterConfig sweep_config(std::size_t replication, bool death) {
    jaws::core::ClusterConfig config;
    config.node = jaws::bench::base_config();
    // Bit-identical repeats: keep every measurement on the virtual clock.
    config.node.cache.wall_clock_overhead = false;
    config.node.scheduler = jaws::bench::jaws2_spec();
    config.node.io_depth = 4;       // several reads in flight per node, so a
    config.node.compute_workers = 4;  // backlogged owner is visible at route time
    config.node.timeline_window_s = 5.0;
    config.nodes = kNodes;
    config.replication = replication;
    if (death)
        config.node.faults.node_down.push_back(jaws::storage::NodeDownEvent{
            jaws::util::NodeIndex{static_cast<std::uint32_t>(kDeadNode)}, jaws::util::SimTime::from_seconds(kDeathSeconds)});
    return config;
}

std::uint64_t total_atom_reads(const jaws::core::ClusterReport& r) {
    std::uint64_t reads = 0;
    for (const auto& n : r.per_node) reads += n.atom_reads;
    return reads;
}

double replica_share(const jaws::core::ClusterReport& r) {
    const std::uint64_t reads = total_atom_reads(r);
    return reads > 0 ? static_cast<double>(r.replica_reads) /
                           static_cast<double>(reads)
                     : 0.0;
}

/// Fold every footprint atom into `node`'s Morton range, spreading over the
/// whole range so the hot node's working set dwarfs its cache: the node's
/// *disk* becomes the cluster bottleneck (a hot cached region would not be),
/// which is the regime replica-aware routing exists for. Duplicate atoms
/// created by the fold are merged and footprints stay Morton-sorted.
void concentrate_on_node(jaws::workload::Workload& w, std::uint64_t atoms_per_step,
                         std::size_t node) {
    const std::uint64_t per = (atoms_per_step + kNodes - 1) / kNodes;
    const std::uint64_t lo = per * static_cast<std::uint64_t>(node);
    for (auto& job : w.jobs)
        for (auto& q : job.queries) {
            std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> folded;
            for (const auto& req : q.footprint)
                folded[{req.atom.timestep, lo + req.atom.morton % per}] +=
                    req.positions;
            q.footprint.clear();
            for (const auto& [key, positions] : folded)
                q.footprint.push_back(
                    {jaws::storage::AtomId{key.first, key.second}, positions});
        }
}

/// Mean disk utilisation of the surviving nodes' timeline windows ending
/// before (`after = false`) or after (`after = true`) the death instant.
double survivor_util(const jaws::core::ClusterReport& r, bool after) {
    const jaws::util::SimTime death =
        jaws::util::SimTime::from_seconds(kDeathSeconds);
    double sum = 0.0;
    std::size_t windows = 0;
    for (std::size_t n = 0; n < r.per_node.size(); ++n) {
        if (n == kDeadNode) continue;
        for (const auto& tp : r.per_node[n].timeline) {
            if ((tp.window_end > death) != after) continue;
            sum += tp.disk_utilization;
            ++windows;
        }
    }
    return windows > 0 ? sum / static_cast<double>(windows) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 120);

    const core::ClusterConfig probe = sweep_config(1, false);
    const field::SyntheticField field(probe.node.field);

    const SkewLevel skews[] = {
        {"uniform", false},    // the generator's calibrated spatial mix
        {"hot-node", true},    // every atom folded onto one node's range
    };

    std::printf("# Cluster kernel sweep: %zu nodes, %zu jobs, "
                "skew x replication x death\n\n",
                kNodes, jobs);
    std::printf("%-8s %-4s %-6s %12s %10s %9s %6s %6s %7s %7s %6s\n", "skew",
                "rep", "death", "makespan(s)", "tp(q/s)", "replica%",
                "disk%", "cpu%", "failov", "requeue", "lost");

    std::vector<Row> rows;
    for (const SkewLevel& skew : skews) {
        workload::WorkloadSpec wspec = bench::base_workload_spec();
        wspec.jobs = jobs;
        workload::Workload workload =
            workload::generate_workload(wspec, probe.node.grid, field);
        workload::apply_speedup(workload, kSpeedup);
        if (skew.hot_node)
            concentrate_on_node(workload, probe.node.grid.atoms_per_step(),
                                kDeadNode);

        for (const std::size_t rep : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
            for (const bool death : {false, true}) {
                Row row;
                row.skew = skew.name;
                row.replication = rep;
                row.death = death;
                row.r = core::TurbulenceCluster(sweep_config(rep, death)).run(workload);
                if (death) {
                    row.survivor_util_before = survivor_util(row.r, false);
                    row.survivor_util_after = survivor_util(row.r, true);
                }
                std::printf("%-8s %-4zu %-6s %12.1f %10.3f %8.2f%% "
                            "%5.1f%% %5.1f%% %7zu %7zu %6zu\n",
                            row.skew.c_str(), rep, death ? "yes" : "no",
                            row.r.makespan.seconds(), row.r.total_throughput_qps,
                            100.0 * replica_share(row.r),
                            100.0 * row.r.mean_disk_utilization,
                            100.0 * row.r.mean_cpu_utilization, row.r.failovers,
                            row.r.requeued_queries, row.r.lost_queries);
                std::fflush(stdout);
                rows.push_back(std::move(row));
            }
        }
    }

    // Paired makespans: each no-death row against the replication-1 row of
    // the same skew (same workload) — the replica-aware-routing win.
    std::printf("\n%-8s %-4s %14s %14s %9s\n", "skew", "rep", "rep1(s)",
                "repN(s)", "delta");
    const Row* base = nullptr;
    for (const Row& row : rows) {
        if (row.death) continue;
        if (row.replication == 1) base = &row;
        const double rep1 = base->r.makespan.seconds();
        const double repn = row.r.makespan.seconds();
        std::printf("%-8s %-4zu %14.1f %14.1f %8.1f%%\n", row.skew.c_str(),
                    row.replication, rep1, repn, 100.0 * (repn - rep1) / rep1);
    }
    std::printf("\n(replication >= 2 lets the kernel serve the hot node's "
                "reads from\n replicas; on the death rows the survivors' disk "
                "utilisation rises in-kernel)\n");

    std::ofstream json("BENCH_cluster_kernel.json");
    json << "{\n"
         << "  \"bench\": \"cluster_kernel\",\n"
         << "  \"nodes\": " << kNodes << ",\n"
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"death_node\": " << kDeadNode << ",\n"
         << "  \"death_s\": " << kDeathSeconds << ",\n"
         << "  \"note\": \"virtual-clock only: repeated runs at the same job "
            "count produce a byte-identical file; replica_share is replica-"
            "served demand reads over all demand reads; survivor_util_* are "
            "mean timeline disk utilisation of surviving nodes before/after "
            "the death\",\n"
         << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        const core::ClusterReport& r = row.r;
        char buf[640];
        std::snprintf(
            buf, sizeof buf,
            "    {\"skew\": \"%s\", \"replication\": %zu, \"death\": %s, "
            "\"makespan_s\": %.3f, \"throughput_qps\": %.3f, "
            "\"replica_reads\": %llu, \"replica_share\": %.6f, "
            "\"rerouted_arrivals\": %llu, \"failovers\": %zu, "
            "\"requeued\": %zu, \"lost\": %zu, \"mean_disk_util\": %.6f, "
            "\"survivor_util_before\": %.6f, \"survivor_util_after\": %.6f}%s\n",
            row.skew.c_str(), row.replication, row.death ? "true" : "false",
            r.makespan.seconds(),
            r.total_throughput_qps,
            static_cast<unsigned long long>(r.replica_reads), replica_share(r),
            static_cast<unsigned long long>(r.rerouted_arrivals), r.failovers,
            r.requeued_queries, r.lost_queries, r.mean_disk_utilization,
            row.survivor_util_before, row.survivor_util_after,
            i + 1 < rows.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_cluster_kernel.json\n");
    return 0;
}
