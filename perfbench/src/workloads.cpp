#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "field/synthetic_field.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using jaws::core::CachePolicy;
using jaws::core::SchedulerKind;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

jaws::core::SchedulerSpec jaws2() {
    jaws::core::SchedulerSpec s;
    s.kind = SchedulerKind::kJaws;
    s.jaws.batch_size_k = 15;
    s.jaws.job_aware = true;
    return s;
}

// The paper's headline configuration at paper scale (1024^3 grid, 31 steps,
// 256-atom cache), descriptor-only. 400 jobs is past the point where the
// scheduler's host cost grows faster than the trace (the 100-job fig10 size
// is not).
WorkloadDef trace_jaws2() {
    WorkloadDef d;
    d.config.node.scheduler = jaws2();
    d.config.node.cache.policy = CachePolicy::kLruK;
    d.spec.jobs = 400;
    return d;
}

// Same generator and seed under the paper's baseline scheduler with the
// cheapest policy: no gating, no ranking, no victim scan.
WorkloadDef trace_noshare() {
    WorkloadDef d = trace_jaws2();
    d.config.node.scheduler.kind = SchedulerKind::kNoShare;
    d.config.node.cache.policy = CachePolicy::kSlru;
    return d;
}

// The compute-bound materialised fixture of bench/ablation_overlap (small
// grid, explicit positions): interpolation and atom synthesis dominate, the
// scheduler and cache see a few dozen atoms. Evaluation runs inline, on the
// one host thread.
//
// One item in flight (io_depth 1), unlike bench/ablation_overlap's io_depth 2:
// Engine::begin_compute takes the atom's payload from the cache when the
// item's reads finish, and with two items in flight the other item's insert
// can evict it from this 16-atom cache first. The engine then skips that
// item's interpolation without reporting it (about 2% of the samples at
// io_depth 2), which the samples_equal_positions check rejects. At io_depth 1
// no insert falls between an item's read and its compute.
WorkloadDef materialized_eval() {
    WorkloadDef d;
    jaws::core::EngineConfig& n = d.config.node;
    n.scheduler = jaws2();
    n.grid.voxels_per_side = 128;
    n.grid.atom_side = 32;
    n.grid.ghost = 4;
    n.grid.timesteps = 4;
    n.field.modes = 4;
    n.cache.capacity_atoms = 16;
    n.run_length = 25;
    n.io_depth = 1;
    n.compute_workers = 1;
    n.materialize_data = true;
    n.eval.parallel = false;
    d.spec.jobs = 60;
    d.spec.positions_mu = 6.9;
    d.spec.min_positions = 500;
    d.spec.max_positions = 10000;
    d.materialize = true;
    return d;
}

// A saturated 4-node unified cluster with chained replication, one node
// death, heavy-tailed disk draws and adaptive hedging: the only workload
// through the shared multi-node kernel, replica routing, in-kernel failover
// and the hedge/cancel path. 200 jobs keep one replay near two seconds of host
// time, so a run's median spans about a dozen replays and a few seconds of
// host contention move it little (fewer jobs make the modeled p50 swing
// more from seed to seed).
WorkloadDef cluster_failover() {
    WorkloadDef d;
    d.cluster = true;
    d.config.nodes = 4;
    d.config.replication = 2;
    jaws::core::EngineConfig& n = d.config.node;
    n.scheduler = jaws2();
    n.io_depth = 4;
    n.compute_workers = 4;
    n.disk.heavy_tail.rate = 0.05;
    n.disk.heavy_tail.lognormal_mu = 2.0;
    n.disk.heavy_tail.lognormal_sigma = 0.75;
    n.hedge.enabled = true;
    n.hedge.trigger_ewma_multiplier = 3.0;
    n.hedge.max_outstanding = 4;
    n.hedge.budget_per_query = 2;
    n.faults.node_down.push_back(jaws::storage::NodeDownEvent{
        jaws::util::NodeIndex{1}, jaws::util::SimTime::from_seconds(30.0)});
    d.spec.jobs = 200;
    d.speedup = 16.0;
    return d;
}

/// Dither every job's arrival by up to 20 ms, drawn from `seed`. Which jobs
/// arrive, and what their queries read, stays the reference trace's: runs
/// with different seeds replay the same work in slightly different
/// interleavings. (Redrawing the whole trace moves host time per query by
/// ~20% and modeled response times by up to 2x from seed to seed at these
/// sizes; redrawing think times moves modeled p99 on materialized_eval by
/// ~30%. Either swamps the regressions the benchmark exists to catch.)
void dither_arrivals(jaws::workload::Workload& w, std::uint64_t seed) {
    jaws::util::Rng rng(seed);
    for (jaws::workload::Job& job : w.jobs)
        job.arrival += jaws::util::SimTime::from_seconds(rng.uniform(0.0, 0.020));
    std::stable_sort(w.jobs.begin(), w.jobs.end(),
                     [](const jaws::workload::Job& a, const jaws::workload::Job& b) {
                         return a.arrival < b.arrival;
                     });
}

}  // namespace

WorkloadDef make_workload(const std::string& name) {
    if (name == "trace_jaws2") return trace_jaws2();
    if (name == "trace_noshare") return trace_noshare();
    if (name == "materialized_eval") return materialized_eval();
    if (name == "cluster_failover") return cluster_failover();
    throw std::invalid_argument("unknown workload: " + name);
}

Inputs generate_inputs(const WorkloadDef& def, std::uint64_t seed) {
    Inputs in;
    const auto t0 = std::chrono::steady_clock::now();
    const jaws::field::SyntheticField field(def.config.node.field);
    in.workload = jaws::workload::generate_workload(def.spec, def.config.node.grid, field);
    dither_arrivals(in.workload, seed);
    if (def.speedup != 1.0) jaws::workload::apply_speedup(in.workload, def.speedup);
    in.generate_s = seconds_since(t0);
    if (def.materialize) {
        const auto t1 = std::chrono::steady_clock::now();
        jaws::workload::materialize_positions(in.workload, def.config.node.grid,
                                              seed ^ 0x5EEDULL);
        in.materialize_s = seconds_since(t1);
    }
    return in;
}

void enable_wall_clock_hooks(jaws::core::EngineConfig& config) {
    config.cache.wall_clock_overhead = true;
    config.eval.wall_clock_timing = true;
}

}  // namespace perfbench
