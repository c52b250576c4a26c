// Engine configuration: one place to assemble a full JAWS deployment.
//
// An EngineConfig describes everything Fig. 7's per-node stack needs: the
// dataset geometry, the simulated disk, the cost constants of Eq. 1, the
// buffer cache (capacity + replacement policy), and which scheduler to run
// (NoShare / LifeRaft with fixed alpha / JAWS with feature switches).
// Defaults mirror the paper's experimental setup scaled to the 800 GB sample:
// 31 time steps, 4096 atoms per step, a 2 GB (256-atom) cache, k = 15 and an
// initial alpha of 0.5.
#pragma once

#include <cstdint>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "sched/jaws.h"
#include "sched/prefetcher.h"
#include "sched/workload_manager.h"
#include "storage/atom_store.h"
#include "storage/database_node.h"
#include "util/event_queue.h"

namespace jaws::util {
class ThreadPool;
}  // namespace jaws::util

namespace jaws::core {

/// Which replacement policy the buffer cache runs (Table I's rows).
enum class CachePolicy : std::uint8_t { kLru, kLruK, kSlru, kUrc, kTwoQ };

/// Which scheduler drives the node (Fig. 10's columns).
enum class SchedulerKind : std::uint8_t { kNoShare, kLifeRaft, kJaws };

/// Buffer-cache settings.
struct CacheSpec {
    CachePolicy policy = CachePolicy::kLruK;
    std::size_t capacity_atoms = 256;  ///< 2 GB of 8 MB atoms.
    double slru_protected_fraction = 0.05;
    unsigned lru_k = 2;
    double twoq_in_fraction = 0.25;  ///< A1in share for the 2Q policy.

    /// Measure policy overhead in real wall-clock nanoseconds
    /// (util::wall_clock_ns) instead of deterministic virtual ticks.
    /// Benches reporting Table I's "Overhead/Qry" column turn this on;
    /// reproducible runs (tests, golden fixtures) keep it off.
    bool wall_clock_overhead = false;
};

/// Scheduler selection and parameters.
struct SchedulerSpec {
    SchedulerKind kind = SchedulerKind::kJaws;
    double liferaft_alpha = 0.0;  ///< Fixed alpha for kLifeRaft.
    sched::JawsConfig jaws;       ///< Parameters for kJaws.
};

/// Real-thread evaluation of sub-query interpolation.
///
/// The modeled CPU pool (`compute_workers` SimResource channels) stays
/// authoritative for *virtual* time; this spec only controls where the real
/// interpolation work runs. With `parallel` on and materialised data, the
/// engine dispatches each sub-query's interpolation onto a util::ThreadPool
/// when its modeled service starts and joins the result at the modeled
/// completion event — so real work overlaps exactly as the modeled channels
/// do, and results merge in deterministic virtual-event order.
struct EvalSpec {
    /// Evaluate on a thread pool instead of inline in the event handler.
    /// Only takes effect when the run materialises data; descriptor-only
    /// runs never spawn threads.
    bool parallel = true;

    /// Worker threads for an engine-owned pool; 0 means `compute_workers`
    /// (matching real threads to modeled channels).
    std::size_t threads = 0;

    /// Externally owned pool to share across engines (the cluster facade
    /// points every node engine here). Non-null wins over `threads`; the
    /// caller keeps it alive for the engine's lifetime.
    util::ThreadPool* pool = nullptr;

    /// Measure real evaluation wall time (util::wall_clock_ns) into
    /// RunReport::eval_wall_ns. Bench-only, like CacheSpec's equivalent:
    /// deterministic runs keep it off.
    bool wall_clock_timing = false;
};

/// Recovery policy for injected transient read errors: failed demand reads
/// retry with bounded exponential backoff, every delay charged to the
/// virtual clock (so QoS deadline math sees the real degraded timeline).
/// An atom whose demand read exhausts all attempts marks the affected
/// sub-queries failed; their queries complete *degraded* instead of
/// crashing the run.
struct RetrySpec {
    std::size_t max_attempts = 4;     ///< Total read attempts per demand miss.
    double backoff_base_ms = 5.0;     ///< Virtual delay before the first retry.
    double backoff_multiplier = 2.0;  ///< Growth factor per further retry.
    double backoff_cap_ms = 1000.0;   ///< Upper bound on any single delay.

    /// Circuit breaker: total retries the whole run may spend (0 = unlimited).
    /// Once cumulative retries reach the budget the circuit opens and further
    /// transient failures fail fast (their sub-queries abandoned, queries
    /// completing degraded) instead of piling onto the backoff queue — the
    /// retry-storm guard a production cluster runs with.
    std::size_t total_retry_budget = 0;
};

/// Hedged demand reads (tail-latency robustness, following the
/// hedged-request pattern of Dean & Barroso's "The Tail at Scale"): when a
/// primary demand read sits past a trigger delay, the engine issues a
/// duplicate read for the same atom on another disk channel (a replica
/// spindle of the RAID set) and the first completion wins — the loser is
/// cancelled mid-service and its unrendered tail refunded. Disabled by
/// default; a disabled spec schedules *no* events and is bit-identical to a
/// build without the feature (the golden-equivalence harness pins this).
struct HedgeSpec {
    bool enabled = false;

    /// Fixed trigger delay in virtual ms before the duplicate is issued.
    /// 0 = adaptive: trigger at `trigger_ewma_multiplier` times the EWMA of
    /// recent successful demand-read service times (falling back to the
    /// T_b estimate until the EWMA is primed).
    double trigger_ms = 0.0;
    double trigger_ewma_multiplier = 3.0;  ///< Trigger = mult * EWMA(read ms).
    double ewma_alpha = 0.2;               ///< Weight on the newest observation.

    /// Engine-wide cap on simultaneously outstanding hedge reads (a hedge
    /// storm must never displace primary demand traffic).
    std::size_t max_outstanding = 4;

    /// Hedges any single query may consume over its lifetime.
    std::size_t budget_per_query = 2;
};

/// Full per-node configuration.
struct EngineConfig {
    field::GridSpec grid;
    field::FieldSpec field;
    storage::DiskSpec disk;

    /// Concurrent disk service channels (the RAID stripe set's command
    /// parallelism). The event kernel pipelines up to `io_depth` batch items
    /// through the disk at once, so demand reads overlap batch evaluation and
    /// each other. 1 reproduces the historical strictly-serial engine
    /// bit-for-bit (read, then evaluate, then next read).
    std::size_t io_depth = 1;

    /// Parallel batch-evaluation workers (modeled CPU pool). Sub-query
    /// evaluation of distinct batch items proceeds concurrently on up to this
    /// many servers. 1 reproduces the historical serial semantics.
    std::size_t compute_workers = 1;

    /// Real-thread dispatch of sub-query evaluation (see EvalSpec).
    EvalSpec eval;
    storage::CostModel compute;        ///< Actual per-position cost charged (T_m).
    sched::CostConstants estimates;    ///< T_b/T_m estimates used by Eq. 1.
    CacheSpec cache;
    SchedulerSpec scheduler;
    std::size_t run_length = 200;      ///< Queries per run (alpha controller + SLRU).
    bool materialize_data = false;     ///< Synthesize voxel payloads (examples only).
    sched::PrefetchConfig prefetch;    ///< Trajectory prefetching (Sec. VII).

    /// Virtual seconds per timeline sample in RunReport::timeline; 0 disables
    /// time-series collection.
    double timeline_window_s = 0.0;

    /// Cost of fetching one kernel-support ghost region from disk, as a
    /// fraction of T_b. Charged whenever a sub-query's interpolation kernel
    /// spills into a neighbour atom that is neither cache-resident nor
    /// co-scheduled in the same batch (see Engine::execute_one_batch).
    double support_read_fraction = 0.10;

    /// Virtual cost of one scheduler->database dispatch round trip (batch
    /// submission, plan setup, clustered-index descent). Charged once per
    /// non-empty batch: single-atom scheduling pays it per atom, the
    /// two-level framework amortises it over k atoms, NoShare over a whole
    /// query.
    double dispatch_overhead_ms = 5.0;

    /// Deterministic fault injection (default: fault-free; zero-cost when
    /// disabled). Node-down events inside are consumed by TurbulenceCluster.
    storage::FaultSpec faults;

    /// Retry/backoff policy for transiently failed demand reads.
    RetrySpec retry;

    /// Hedged duplicate demand reads against stragglers (default: off).
    HedgeSpec hedge;

    /// Per-query deadline budget in virtual ms, measured from the query
    /// becoming visible (0 = unlimited). A query over budget stops retrying:
    /// at the next retry boundary its remaining sub-queries on the failed
    /// atom are abandoned and it completes *degraded* with the samples
    /// evaluated so far — graceful degradation instead of an unbounded
    /// backoff loop (RunReport::deadline_misses counts these).
    double deadline_budget_ms = 0.0;

    /// Same-tick tie-break perturbation for the schedule-perturbation
    /// determinism checker (tests/perturbation_test.cpp). The default is the
    /// identity; any perturbation of the commutative priority classes must
    /// leave every report digest bit-identical. Applied to the engine-owned
    /// queue in standalone runs and to the cluster's shared queue in unified
    /// runs.
    util::TiePerturbation tie_perturbation;

    /// Virtual time at which this node dies mid-run (SimTime::max() = never).
    /// Set by TurbulenceCluster from FaultSpec::node_down; a halted run
    /// reports partial completion instead of throwing.
    util::SimTime halt_at = util::SimTime::max();

    /// Reject nonsensical configurations (zero-sized grid or cache,
    /// atom_side not dividing voxels_per_side, negative costs, out-of-range
    /// probabilities) with a descriptive std::invalid_argument. Called at
    /// Engine construction.
    void validate() const;
};

}  // namespace jaws::core
