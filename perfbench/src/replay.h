// The replay benchmark's building blocks: the modeled-result fingerprint, a
// benchmark-owned event loop over the engine's shared-kernel lifecycle, and
// a standalone replay of the scheduler, cache and storage layers.
//
// Everything here calls the simulator's public API only; per-layer host time
// is measured around those calls, so no tracing lives inside src/.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics.h"
#include "workload/job.h"

namespace perfbench {

/// The modeled answer of one replay. Host-only changes must leave it
/// bit-identical.
struct Fingerprint {
    std::int64_t makespan_us = 0;
    std::uint64_t atom_reads = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t sample_digest = 0;

    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const jaws::core::RunReport& r);
/// Per-node figures summed; per-node sample digests folded in node order.
Fingerprint fingerprint(const jaws::core::ClusterReport& r);

/// Event-kernel counters of a benchmark-driven replay.
struct KernelTrace {
    std::uint64_t events = 0;   ///< EventQueue::run_one calls that fired an event.
    std::uint64_t event_ns = 0; ///< Host ns inside run_one calls.
};

/// Replay `workload` on a fresh Engine built over a benchmark-owned
/// EventQueue, through begin_shared()/inject_job()/finish(): one arrival
/// event per job, unstick on a drained queue, exactly as Engine::run does.
/// Every run_one call is timed into `trace`.
jaws::core::RunReport run_shared_kernel(const jaws::core::EngineConfig& config,
                                        const jaws::workload::Workload& workload,
                                        KernelTrace& trace);

/// Host cost of the scheduler, cache and storage layers, measured by feeding
/// a workload to standalone instances of each with instant service: every
/// drained atom is looked up in a BufferCache of the configured policy and
/// capacity, every miss is read from an AtomStore of the configured
/// geometry, and a query completes once all its sub-queries are drained.
/// Given the run's outcomes, queries become visible and complete no earlier
/// than they did in the run, so jobs stay active in the scheduler as long as
/// they did there; without them, virtual time advances only with arrivals
/// and think times.
struct LayerReplay {
    // Scheduler interface calls and host ns inside them.
    std::uint64_t submits = 0, submit_ns = 0;
    std::uint64_t visibles = 0, visible_ns = 0;
    std::uint64_t next_batches = 0, next_batch_ns = 0;
    std::uint64_t completions = 0, completed_ns = 0;
    /// Host ns in on_residency_changed and unstick (part of the sched total).
    std::uint64_t other_ns = 0;
    std::uint64_t subqueries_drained = 0;
    std::uint64_t alignments = 0;  ///< GatingStats::alignments_run of the replay.
    /// Every sub-query was drained exactly once and every query completed.
    bool drained_exactly_once = false;
    // sched::preprocess, once per query.
    std::uint64_t preprocessed = 0, preprocess_ns = 0;
    // BufferCache calls on the drained-atom stream.
    std::uint64_t lookups = 0, hits = 0, misses = 0, lookup_ns = 0;
    std::uint64_t inserts = 0, insert_ns = 0, evictions = 0;
    // AtomStore::read on the misses.
    std::uint64_t reads = 0, read_ns = 0;

    std::uint64_t sched_ns() const noexcept {
        return submit_ns + visible_ns + next_batch_ns + completed_ns + other_ns;
    }
};

/// Run the layer replay of `workload` under `config` (the single-node
/// configuration; a cluster workload passes its node template), optionally
/// paced by the run's per-query outcomes.
LayerReplay replay_layers(const jaws::core::EngineConfig& config,
                          const jaws::workload::Workload& workload,
                          const std::vector<jaws::core::QueryOutcome>* timeline);

}  // namespace perfbench
