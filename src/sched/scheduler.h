// Scheduler interface.
//
// The engine (core module) drives a scheduler through notifications — job
// submitted, query visible (its inputs exist), query completed — and asks it
// for the next batch of atoms to process. Each returned batch item is one
// atom together with the *entire* workload queue drained from it, which the
// engine evaluates in a single pass over the atom's data. Two classes
// implement it: NoShareScheduler, and JawsScheduler, whose JawsConfig
// switches select the other three paper systems — LifeRaft (all off, see
// liferaft_config()), JAWS_1 and JAWS_2.
#pragma once

#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "sched/precedence_graph.h"
#include "sched/qos.h"
#include "sched/subquery.h"
#include "sched/workload_manager.h"
#include "workload/job.h"

namespace jaws::sched {

/// One atom scheduled for processing with its drained sub-queries.
struct BatchItem {
    storage::AtomId atom;
    std::vector<SubQuery> subqueries;
};

/// Scheduling policy driven by the engine.
class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /// Policy name for reports ("NoShare", "LifeRaft(a=0.00)", "JAWS(...)").
    virtual std::string name() const = 0;

    /// A job's declared workflow was submitted (called before any of its
    /// queries become visible). Default: ignore (only JAWS_2 is job-aware).
    virtual void on_job_submitted(const workload::Job& job) { (void)job; }

    /// `query`'s inputs now exist and it may be scheduled (subject to the
    /// scheduler's own gating). The reference stays valid until completion.
    virtual void on_query_visible(const workload::Query& query, util::SimTime now) = 0;

    /// All of `query`'s sub-queries finished at `now` with the given
    /// response time (completion - visible).
    virtual void on_query_completed(workload::QueryId query, util::SimTime response,
                                    util::SimTime now) {
        (void)query;
        (void)response;
        (void)now;
    }

    /// An atom entered or left the buffer cache (phi(i) flipped).
    virtual void on_residency_changed(const storage::AtomId& atom) { (void)atom; }

    /// `atom` became permanently unreadable (bad range / retries exhausted):
    /// remove and return any sub-queries still queued against it so the
    /// engine can fail them instead of re-dispatching a dead atom forever.
    /// Default: nothing queued per atom, nothing to purge.
    virtual std::vector<SubQuery> purge_atom(const storage::AtomId& atom) {
        (void)atom;
        return {};
    }

    /// Next batch of atoms to evaluate, in execution order; empty when no
    /// work is currently schedulable.
    virtual std::vector<BatchItem> next_batch(util::SimTime now) = 0;

    /// Whether any sub-query is currently schedulable.
    virtual bool has_pending() const = 0;

    /// Number of schedulable sub-queries (backlog depth, for telemetry).
    virtual std::size_t pending_count() const = 0;

    /// Escape hatch when the engine would stall with visible-but-gated
    /// queries only: release at least one. Returns true if anything was
    /// released. Default: no gating, nothing to do.
    virtual bool unstick(util::SimTime now) {
        (void)now;
        return false;
    }

    /// Current age bias (for reports); NaN-free default for ungated policies.
    virtual double current_alpha() const { return 0.0; }

    /// Gating statistics, when the policy is job-aware; null otherwise.
    virtual const GatingStats* gating_stats() const { return nullptr; }

    /// QoS statistics, when the policy issues completion guarantees.
    virtual const QosStats* qos_stats() const { return nullptr; }
};

/// Adapter exposing BufferCache residency as the WorkloadManager's phi probe.
class CacheResidencyProbe final : public ResidencyProbe {
  public:
    explicit CacheResidencyProbe(const cache::BufferCache& cache) : cache_(cache) {}
    bool resident(const storage::AtomId& atom) const override {
        return cache_.contains(atom);
    }

  private:
    const cache::BufferCache& cache_;
};

}  // namespace jaws::sched
