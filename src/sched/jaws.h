// The JAWS scheduler (paper Secs. IV-V).
//
// Extends LifeRaft with, independently switchable:
//   * two-level scheduling — pick the time step with the highest mean
//     workload throughput, then a batch of up to k above-mean atoms of that
//     step, Morton-ordered (Sec. V, Fig. 6);
//   * adaptive starvation resistance — the run-based alpha controller
//     (Sec. V-A);
//   * job-awareness — the precedence/gating graph that delays queries so
//     that cross-job queries touching the same atoms enter the workload
//     queues together (Sec. IV).
// The paper's JAWS_1 is {two-level, adaptive} and JAWS_2 adds job-awareness.
// With every switch off (and QoS off) it is LifeRaft (paper Sec. III): one
// atom per dispatch, greedily in decreasing aged workload throughput U_e
// (Eq. 2) under a fixed alpha — see liferaft_config().
#pragma once

#include <unordered_map>

#include "sched/adaptive_alpha.h"
#include "sched/precedence_graph.h"
#include "sched/qos.h"
#include "sched/scheduler.h"

namespace jaws::sched {

/// Feature switches and parameters of a JAWS instance.
struct JawsConfig {
    std::size_t batch_size_k = 15;    ///< Atoms per two-level batch.
    bool two_level = true;            ///< Use the two-level framework.
    bool job_aware = true;            ///< Build gating edges (JAWS_2).
    bool adaptive_alpha = true;       ///< Run the alpha controller.
    AdaptiveAlphaConfig alpha;        ///< Controller settings (initial alpha etc.).
    QosConfig qos;                    ///< Optional completion-time guarantees.
};

/// LifeRaft as a JAWS configuration: single-atom contention ordering with a
/// fixed age bias. alpha = 0 is the paper's contention-maximising LifeRaft_2;
/// alpha = 1 is the arrival-order LifeRaft_1 (which still co-schedules
/// queries that reference the same data as the oldest request).
inline JawsConfig liferaft_config(double alpha) {
    JawsConfig c;
    c.two_level = false;
    c.job_aware = false;
    c.adaptive_alpha = false;
    c.alpha.initial_alpha = alpha;
    return c;
}

/// LifeRaft, JAWS_1 and JAWS_2, selected by JawsConfig.
class JawsScheduler final : public Scheduler {
  public:
    JawsScheduler(const CostConstants& cost, const cache::BufferCache* cache,
                  const JawsConfig& config);

    std::string name() const override;
    void on_job_submitted(const workload::Job& job) override;
    void on_query_visible(const workload::Query& query, util::SimTime now) override;
    void on_query_completed(workload::QueryId query, util::SimTime response,
                            util::SimTime now) override;
    void on_residency_changed(const storage::AtomId& atom) override;
    std::vector<SubQuery> purge_atom(const storage::AtomId& atom) override {
        return manager_.drain_atom(atom);
    }
    std::vector<BatchItem> next_batch(util::SimTime now) override;
    bool has_pending() const override { return !manager_.empty(); }
    std::size_t pending_count() const override { return manager_.pending_subqueries(); }
    bool unstick(util::SimTime now) override;
    double current_alpha() const override { return manager_.alpha(); }
    const GatingStats* gating_stats() const override { return &graph_.stats(); }

    /// QoS accounting (meaningful only when config.qos.enabled).
    const QosStats* qos_stats() const override { return &qos_stats_; }

    /// Oracle/tests access.
    WorkloadManager& manager() noexcept { return manager_; }
    /// Gating graph introspection (tests, benches).
    const PrecedenceGraph& graph() const noexcept { return graph_; }
    /// Alpha controller introspection.
    const AdaptiveAlphaController& controller() const noexcept { return controller_; }

  private:
    void enqueue_query(workload::QueryId id, util::SimTime now);

    JawsConfig config_;
    std::unique_ptr<CacheResidencyProbe> probe_;
    WorkloadManager manager_;
    PrecedenceGraph graph_;
    AdaptiveAlphaController controller_;
    std::unordered_map<workload::QueryId, const workload::Query*> queries_;
    std::unordered_map<workload::QueryId, util::SimTime> deadlines_;
    QosStats qos_stats_;
};

}  // namespace jaws::sched
