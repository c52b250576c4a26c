#include "core/cluster.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/engine.h"
#include "storage/replica_router.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace jaws::core {

void ClusterConfig::validate() const {
    if (nodes == 0)
        throw std::invalid_argument("ClusterConfig::validate: nodes must be positive");
    if (nodes > std::numeric_limits<util::NodeIndex::rep>::max())
        throw std::invalid_argument(
            "ClusterConfig::validate: nodes must fit util::NodeIndex (32-bit), got " +
            std::to_string(nodes));
    if (replication == 0 || replication > nodes)
        throw std::invalid_argument(
            "ClusterConfig::validate: replication must lie in [1, nodes], got " +
            std::to_string(replication) + " with " + std::to_string(nodes) + " nodes");
    std::vector<bool> downed(nodes, false);
    for (const storage::NodeDownEvent& ev : node.faults.node_down) {
        if (ev.node.value() >= nodes)
            throw std::invalid_argument(
                "ClusterConfig::validate: node.faults.node_down names node " +
                std::to_string(ev.node.value()) + " but the cluster has only " +
                std::to_string(nodes) + " nodes");
        if (ev.at <= util::SimTime::zero())
            throw std::invalid_argument(
                "ClusterConfig::validate: node.faults.node_down for node " +
                std::to_string(ev.node.value()) +
                " fires at tick 0 — a node that was never up cannot die");
        if (downed[ev.node.value()])
            throw std::invalid_argument(
                "ClusterConfig::validate: duplicate node.faults.node_down events for "
                "node " +
                std::to_string(ev.node.value()) + " — a node dies at most once per run");
        downed[ev.node.value()] = true;
    }
    node.validate();
}

TurbulenceCluster::TurbulenceCluster(const ClusterConfig& config) : config_(config) {
    config_.validate();
}

util::NodeIndex TurbulenceCluster::node_of(std::uint64_t morton,
                                           std::uint64_t atoms_per_step,
                                           std::size_t nodes) {
    if (nodes <= 1) return util::NodeIndex{0};
    const std::uint64_t per_node = (atoms_per_step + nodes - 1) / nodes;
    const std::uint64_t idx = std::min<std::uint64_t>(morton / per_node, nodes - 1);
    // validate() caps cluster node counts at the NodeIndex range; direct
    // static callers with a wider count would truncate here, so trap in
    // audit builds rather than wrap silently.
    JAWS_INVARIANT(idx <= std::numeric_limits<util::NodeIndex::rep>::max(),
                   "node_of: node index exceeds NodeIndex's 32-bit range");
    return util::NodeIndex{static_cast<std::uint32_t>(idx)};
}

std::vector<workload::Job> TurbulenceCluster::project(const workload::Job& job) const {
    const std::uint64_t aps = config_.node.grid.atoms_per_step();
    std::vector<workload::Job> projected(config_.nodes);
    for (std::size_t n = 0; n < config_.nodes; ++n) {
        projected[n].id = job.id;
        projected[n].user = job.user;
        projected[n].type = job.type;
        projected[n].arrival = job.arrival;
    }
    for (const auto& q : job.queries) {
        // Split the footprint by owning node.
        std::vector<std::vector<workload::AtomRequest>> split(config_.nodes);
        for (const auto& req : q.footprint)
            split[node_of(req.atom.morton, aps, config_.nodes).value()].push_back(req);
        for (std::size_t n = 0; n < config_.nodes; ++n) {
            if (split[n].empty()) continue;
            workload::Query part = q;
            part.footprint = std::move(split[n]);
            // Positions follow their owning node (materialised runs
            // evaluate them there); descriptor-only queries carry none.
            part.positions.clear();
            for (const auto& p : q.positions)
                if (node_of(config_.node.grid.atom_morton_of(p), aps,
                            config_.nodes).value() == n)
                    part.positions.push_back(p);
            part.seq_in_job = static_cast<std::uint32_t>(projected[n].queries.size());
            projected[n].queries.push_back(std::move(part));
        }
    }
    return projected;
}

namespace {

/// The portion of `jobs` that `outcomes` did not complete (a dead node's
/// unfinished share), with jobs re-sequenced for a replica re-run.
workload::Workload unfinished_part(const std::deque<workload::Job>& jobs,
                                   const std::vector<QueryOutcome>& outcomes) {
    std::unordered_set<workload::QueryId> done;
    done.reserve(outcomes.size());
    for (const QueryOutcome& o : outcomes) done.insert(o.query);
    workload::Workload left;
    for (const workload::Job& job : jobs) {
        workload::Job projected;
        projected.id = job.id;
        projected.user = job.user;
        projected.type = job.type;
        projected.arrival = job.arrival;
        for (const workload::Query& q : job.queries) {
            if (done.contains(q.id)) continue;
            workload::Query copy = q;
            copy.seq_in_job = static_cast<std::uint32_t>(projected.queries.size());
            projected.queries.push_back(std::move(copy));
        }
        if (!projected.queries.empty()) left.jobs.push_back(std::move(projected));
    }
    return left;
}

/// Streaming aggregation of per-node reports into a ClusterReport (weighted
/// means, pooled tail percentiles and straight fault/hedge sums).
class Aggregator {
  public:
    explicit Aggregator(ClusterReport& report) : report_(report) {}

    void accumulate(const RunReport& r) {
        total_parts_ += r.queries;
        weighted_rt_ += r.mean_response_ms * static_cast<double>(r.queries);
        hits_ += r.cache.hits;
        misses_ += r.cache.misses;
        run_seconds_ += r.makespan.seconds();
        weighted_disk_util_ += r.disk_utilization * r.makespan.seconds();
        weighted_cpu_util_ += r.cpu_utilization * r.makespan.seconds();
        report_.degraded_queries += r.degraded_queries;
        report_.read_retries += r.read_retries;
        report_.read_failures += r.read_failures;
        report_.hedges_issued += r.hedges_issued;
        report_.hedges_won += r.hedges_won;
        report_.hedges_lost += r.hedges_lost;
        report_.cancellations += r.cancellations;
        report_.wasted_service += r.wasted_service;
        report_.deadline_misses += r.deadline_misses;
        report_.retries_suppressed += r.retries_suppressed;
        pooled_response_ms_.insert(pooled_response_ms_.end(), r.response_ms.begin(),
                                   r.response_ms.end());
    }

    /// Derive the cluster-level ratios. report_.makespan must be final.
    void finalize() {
        const double seconds = std::max(1e-9, report_.makespan.seconds());
        report_.total_throughput_qps = static_cast<double>(total_parts_) / seconds;
        report_.mean_response_ms =
            total_parts_ ? weighted_rt_ / static_cast<double>(total_parts_) : 0.0;
        report_.cache_hit_rate =
            (hits_ + misses_) ? static_cast<double>(hits_) /
                                    static_cast<double>(hits_ + misses_)
                              : 0.0;
        if (run_seconds_ > 0.0) {
            report_.mean_disk_utilization = weighted_disk_util_ / run_seconds_;
            report_.mean_cpu_utilization = weighted_cpu_util_ / run_seconds_;
        }
        // Exact cluster-wide tail over the pooled samples (percentile() moves
        // the vector; NaN — "n/a" — when nothing completed anywhere).
        report_.p999_response_ms = util::percentile(pooled_response_ms_, 99.9);
        report_.p99_response_ms =
            util::percentile(std::move(pooled_response_ms_), 99.0);
    }

  private:
    ClusterReport& report_;
    std::size_t total_parts_ = 0;
    double weighted_rt_ = 0.0;
    std::uint64_t hits_ = 0, misses_ = 0;
    double run_seconds_ = 0.0;
    double weighted_disk_util_ = 0.0, weighted_cpu_util_ = 0.0;
    std::vector<double> pooled_response_ms_;
};

/// Earliest death per node (cluster-level faults ride in the node template's
/// FaultSpec; SimTime::max() = the node survives the run).
std::vector<util::SimTime> death_schedule(const ClusterConfig& config) {
    std::vector<util::SimTime> death(config.nodes, util::SimTime::max());
    for (const storage::NodeDownEvent& ev : config.node.faults.node_down)
        if (ev.at < death[ev.node.value()]) death[ev.node.value()] = ev.at;
    return death;
}

/// One evaluation pool shared across every node engine: real interpolation
/// from all nodes multiplexes onto a single set of worker threads instead of
/// each engine spawning nodes × workers of its own. Returns null (and leaves
/// the template untouched) on descriptor-only runs or when the caller
/// supplied a pool.
std::unique_ptr<util::ThreadPool> make_shared_eval(EngineConfig& node_template) {
    if (node_template.eval.pool != nullptr || !node_template.eval.parallel ||
        !node_template.materialize_data)
        return nullptr;
    auto pool = std::make_unique<util::ThreadPool>(
        node_template.eval.threads != 0 ? node_template.eval.threads
                                        : node_template.compute_workers);
    node_template.eval.pool = pool.get();
    return pool;
}

/// The unified cluster kernel: N node engines sharing one EventQueue, with
/// arrivals routed to owning nodes at event time, replica-aware demand/hedge
/// read routing (this class is the engines' storage::ReplicaRouter) and
/// in-kernel failover — a dead node's unfinished share is re-injected into a
/// surviving replica the instant the dead node drains its final batch, where
/// it contends for the survivor's modeled disk and CPU.
class UnifiedKernel final : public storage::ReplicaRouter {
  public:
    UnifiedKernel(const TurbulenceCluster& cluster, const ClusterConfig& config,
                  const EngineConfig& node_template, std::vector<util::SimTime> death)
        : cluster_(cluster),
          config_(config),
          node_template_(node_template),
          death_(std::move(death)),
          aps_(config.node.grid.atoms_per_step()),
          cluster_src_(static_cast<std::uint32_t>(config.nodes)) {}

    ClusterReport run(const workload::Workload& workload) {
        origin_ = workload.jobs.empty() ? util::SimTime::zero()
                                        : workload.jobs.front().arrival;
        events_.set_perturbation(node_template_.tie_perturbation);
        events_.reset_to(origin_);

        routed_.resize(config_.nodes);
        arrivals_remaining_.assign(config_.nodes, 0);
        first_injection_.assign(config_.nodes, util::SimTime::max());
        failed_over_.assign(config_.nodes, false);
        engines_.reserve(config_.nodes);
        for (std::size_t n = 0; n < config_.nodes; ++n) {
            EngineConfig cfg = node_template_;
            cfg.halt_at = death_[n];
            engines_.push_back(std::make_unique<Engine>(
                cfg, events_, util::NodeIndex{static_cast<std::uint32_t>(n)}));
            engines_.back()->set_replica_router(this);
        }
        for (std::size_t n = 0; n < config_.nodes; ++n) {
            engines_[n]->begin_shared(origin_);
            engines_[n]->set_halt_drained([this, n] { fail_over(n); });
        }

        // Failover re-injections become new work on the survivor, so they
        // need job/query ids no live runtime entry is using.
        for (const workload::Job& job : workload.jobs) {
            next_job_id_ = std::max(next_job_id_, job.id + 1);
            for (const workload::Query& q : job.queries)
                next_query_id_ = std::max(next_query_id_, q.id + 1);
        }

        plan_arrivals(workload);
        pump();
        return harvest();
    }

    // --- storage::ReplicaRouter -----------------------------------------
    storage::ReadRoute route_read(util::NodeIndex self,
                                  const storage::AtomId& atom) override {
        const std::size_t owner =
            TurbulenceCluster::node_of(atom.morton, aps_, config_.nodes).value();
        if (death_[owner] > events_.now()) {
            // Owner alive: keep the read local unless a chain member is
            // meaningfully shallower. Morton-adjacent reads on the owner's
            // own head are nearly free (DiskSpec's seek model), so a
            // diversion must buy at least kDivertMargin queue slots to pay
            // for the full seek it forces on the replica's head.
            const std::size_t best = pick_replica(owner, owner);
            if (best != config_.nodes &&
                engines_[best]->disk_load() + kDivertMargin <=
                    engines_[owner]->disk_load())
                return route_to(best);
            return route_to(owner);
        }
        const std::size_t best = pick_replica(owner, config_.nodes);
        return route_to(best != config_.nodes ? best : self.value());
    }

    storage::ReadRoute route_hedge(util::NodeIndex self, const storage::AtomId& atom,
                                   util::NodeIndex primary) override {
        (void)self;
        const std::size_t owner =
            TurbulenceCluster::node_of(atom.morton, aps_, config_.nodes).value();
        // Prefer independent hardware: any surviving replica that is not the
        // primary; with none, the hedge rides another channel of the
        // primary's own disk (single-node hedging, PR 6).
        const std::size_t best = pick_replica(owner, primary.value());
        return route_to(best != config_.nodes ? best : primary.value());
    }

    std::size_t read_concurrency(util::NodeIndex self) const override {
        // Surviving members of self's own range's chain — the disks a read
        // for an atom this node owns may land on right now.
        const util::SimTime now = events_.now();
        std::size_t alive = 0;
        for (std::size_t r = 0; r < config_.replication; ++r)
            if (death_[(self.value() + r) % config_.nodes] > now) ++alive;
        return alive > 0 ? alive : 1;
    }

  private:
    /// Queue-depth advantage a replica must offer before a demand read is
    /// diverted off a live owner: diverting breaks the sequential run the
    /// Morton layout exists to create, so near-balanced chains stay local.
    static constexpr std::size_t kDivertMargin = 2;

    /// Surviving member of `owner`'s replica chain with the shallowest
    /// modeled disk queue (ties break in chain order, so a balanced chain
    /// keeps reads owner-local). `exclude` skips one node (the hedge's
    /// primary, or the owner itself for the live-owner divert check); pass
    /// config_.nodes to consider the whole chain. Returns config_.nodes when
    /// no eligible replica survives.
    std::size_t pick_replica(std::size_t owner, std::size_t exclude) const {
        const util::SimTime now = events_.now();
        std::size_t best = config_.nodes;
        for (std::size_t r = 0; r < config_.replication; ++r) {
            const std::size_t cand = (owner + r) % config_.nodes;
            if (cand == exclude) continue;
            if (death_[cand] <= now) continue;  // dead (halt fires first)
            if (best == config_.nodes ||
                engines_[cand]->disk_load() < engines_[best]->disk_load())
                best = cand;
        }
        return best;
    }

    storage::ReadRoute route_to(std::size_t node) {
        Engine& e = *engines_[node];
        return storage::ReadRoute{&e.store(), &e.disk_resource(),
                                  util::NodeIndex{static_cast<std::uint32_t>(node)}};
    }

    /// Give a re-routed job part fresh job/query ids: the survivor may hold
    /// (or have completed) its own part of the same original job, and engine
    /// bookkeeping is keyed by those ids.
    void remap_ids(workload::Job& job) {
        job.id = next_job_id_++;
        for (workload::Query& q : job.queries) {
            q.id = next_query_id_++;
            q.job = job.id;
        }
    }

    /// Route every job part to its arrival-time target and schedule one
    /// cluster arrival event per part. The death schedule is static, so the
    /// target is known now: the owner if it is still alive at the arrival,
    /// else the first replica alive at the arrival, else the part is lost.
    void plan_arrivals(const workload::Workload& workload) {
        for (const workload::Job& job : workload.jobs) {
            std::vector<workload::Job> parts = cluster_.project(job);
            for (std::size_t n = 0; n < parts.size(); ++n) {
                if (parts[n].queries.empty()) continue;
                const std::size_t target = arrival_target(n, job.arrival);
                if (target == config_.nodes) {
                    report_.lost_queries += parts[n].queries.size();
                    continue;
                }
                workload::Job& stored = routed_[target].emplace_back(std::move(parts[n]));
                if (target != n) {
                    ++report_.rerouted_arrivals;
                    report_.requeued_queries += stored.queries.size();
                    failed_over_[n] = true;  // a replica picked up dead n's work
                    remap_ids(stored);
                }
                report_.routed_queries += stored.queries.size();
                ++arrivals_remaining_[target];
                const std::uint32_t tgt = static_cast<std::uint32_t>(target);
                workload::Job* part = &stored;
                events_.schedule(job.arrival, Engine::kPriArrival, cluster_src_,
                                 [this, tgt, part] {
                                     --arrivals_remaining_[tgt];
                                     if (first_injection_[tgt] == util::SimTime::max())
                                         first_injection_[tgt] = events_.now();
                                     engines_[tgt]->inject_job(*part);
                                 });
            }
        }
    }

    std::size_t arrival_target(std::size_t owner, util::SimTime arrival) const {
        // At arrival == death the halt has already fired (kPriHalt orders
        // before kPriArrival), so "alive" is strict.
        if (death_[owner] > arrival) return owner;
        for (std::size_t r = 1; r < config_.replication; ++r) {
            const std::size_t cand = (owner + r) % config_.nodes;
            if (death_[cand] > arrival) return cand;
        }
        return config_.nodes;
    }

    /// Halt-drained hook of node `d` (its in-flight batch at the death
    /// instant has completed): re-inject its unfinished share into the
    /// surviving replica with the shallowest disk queue, in-line at the
    /// current virtual instant.
    void fail_over(std::size_t d) {
        workload::Workload left = unfinished_part(routed_[d], engines_[d]->outcomes());
        if (left.jobs.empty()) return;
        const std::size_t target = pick_replica(d, d);
        if (target == config_.nodes) {
            report_.lost_queries += left.total_queries();
            return;
        }
        failed_over_[d] = true;
        report_.requeued_queries += left.total_queries();
        const util::SimTime now = events_.now();
        for (workload::Job& job : left.jobs) {
            job.arrival = now;
            remap_ids(job);
            workload::Job& stored = routed_[target].emplace_back(std::move(job));
            engines_[target]->inject_job(stored);
        }
    }

    /// Drive the shared queue. After each event, the node it belonged to may
    /// have gone quiescent with only scheduler-gated queries left — the
    /// exact state where a standalone engine's drained queue triggers an
    /// unstick — which here is visible as "no pending events of this source
    /// and no arrivals still headed its way".
    void pump() {
        for (;;) {
            if (events_.run_one()) {
                const std::uint32_t src = events_.last_source();
                if (src < engines_.size()) maybe_unstick(src);
                continue;
            }
            // Queue drained: force-release any gated stragglers (failover
            // injections can leave several nodes stuck at the same instant).
            bool progressed = false;
            for (auto& e : engines_)
                if (e->idle_stuck() && e->try_unstick()) progressed = true;
            if (!progressed) break;
        }
        for (std::size_t n = 0; n < engines_.size(); ++n) {
            const Engine& e = *engines_[n];
            if (e.started() && !e.halted() && !e.done())
                throw std::runtime_error(
                    "TurbulenceCluster: unified kernel stalled on node " +
                    std::to_string(n) + " with " + std::to_string(e.completed()) +
                    "/" + std::to_string(e.expected()) + " query parts complete");
        }
    }

    void maybe_unstick(std::uint32_t src) {
        Engine& e = *engines_[src];
        if (!e.idle_stuck()) return;
        if (arrivals_remaining_[src] != 0) return;
        if (events_.pending_for(src) != 0) return;
        // A failed unstick is not yet a stall: another node's failover may
        // still inject work that wakes this one; pump() has the final word.
        e.try_unstick();
    }

    ClusterReport harvest() {
        for (std::size_t d = 0; d < config_.nodes; ++d) {
            if (death_[d] != util::SimTime::max()) ++report_.dead_nodes;
            if (failed_over_[d]) ++report_.failovers;
        }
        Aggregator agg(report_);
        for (std::size_t n = 0; n < config_.nodes; ++n) {
            RunReport r = engines_[n]->finish();
            report_.makespan = std::max(report_.makespan, r.makespan);
            report_.replica_reads += r.replica_reads;
            agg.accumulate(r);
            report_.per_node.push_back(std::move(r));
        }
        // Re-routed work extends the cluster span measured from the global
        // origin (a survivor that started late can end past every per-node
        // makespan); without failover the slowest node's own makespan is the
        // cluster's, exactly as for isolated per-node engines.
        if (report_.failovers > 0 || report_.rerouted_arrivals > 0)
            for (std::size_t n = 0; n < config_.nodes; ++n)
                if (first_injection_[n] != util::SimTime::max())
                    report_.makespan =
                        std::max(report_.makespan, first_injection_[n] +
                                                       report_.per_node[n].makespan -
                                                       origin_);
        merge_timeline();
        agg.finalize();
        return std::move(report_);
    }

    /// Merge the per-node timelines (their windows are aligned: begin_shared
    /// pinned every node's window origin to the cluster origin): completions
    /// and backlog sum, response is completion-weighted, the remaining
    /// signals average over the nodes that reported the window.
    void merge_timeline() {
        if (config_.node.timeline_window_s <= 0.0) return;
        std::map<std::int64_t, TimelinePoint> merged;
        std::map<std::int64_t, std::size_t> contributors;
        for (const RunReport& r : report_.per_node)
            for (const TimelinePoint& tp : r.timeline) {
                TimelinePoint& m = merged[tp.window_end.raw_micros()];
                m.window_end = tp.window_end;
                m.completions += tp.completions;
                m.mean_response_ms +=
                    tp.mean_response_ms * static_cast<double>(tp.completions);
                m.backlog_subqueries += tp.backlog_subqueries;
                m.alpha += tp.alpha;
                m.cache_hit_rate += tp.cache_hit_rate;
                m.disk_utilization += tp.disk_utilization;
                m.cpu_utilization += tp.cpu_utilization;
                m.overlap_fraction += tp.overlap_fraction;
                ++contributors[tp.window_end.raw_micros()];
            }
        report_.timeline.reserve(merged.size());
        for (auto& [micros, m] : merged) {
            const double reporting = static_cast<double>(contributors[micros]);
            m.mean_response_ms = m.completions > 0
                                     ? m.mean_response_ms /
                                           static_cast<double>(m.completions)
                                     : 0.0;
            m.alpha /= reporting;
            m.cache_hit_rate /= reporting;
            m.disk_utilization /= reporting;
            m.cpu_utilization /= reporting;
            m.overlap_fraction /= reporting;
            report_.timeline.push_back(m);
        }
    }

    const TurbulenceCluster& cluster_;
    const ClusterConfig& config_;
    EngineConfig node_template_;
    std::vector<util::SimTime> death_;
    const std::uint64_t aps_;
    const std::uint32_t cluster_src_;  ///< Event source id of routing events.

    util::SimTime origin_;
    util::EventQueue events_;
    /// Stable storage of every injected job (engines keep pointers into
    /// these for the whole run; deque never relocates on push_back).
    std::vector<std::deque<workload::Job>> routed_;
    std::vector<std::unique_ptr<Engine>> engines_;
    std::vector<std::size_t> arrivals_remaining_;  ///< Unfired arrivals per node.
    std::vector<util::SimTime> first_injection_;   ///< Node makespan origins.
    std::vector<bool> failed_over_;  ///< A replica picked up this node's work.
    workload::JobId next_job_id_ = 0;
    workload::QueryId next_query_id_ = 0;
    ClusterReport report_;
};

}  // namespace

ClusterReport TurbulenceCluster::run(const workload::Workload& workload) const {
    EngineConfig node_template = config_.node;
    const std::unique_ptr<util::ThreadPool> shared_eval =
        make_shared_eval(node_template);
    UnifiedKernel kernel(*this, config_, node_template, death_schedule(config_));
    return kernel.run(workload);
}

}  // namespace jaws::core
