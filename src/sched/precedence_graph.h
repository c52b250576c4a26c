// Precedence graph with gating edges (paper Sec. IV-B, Figs. 4-5).
//
// Vertices are queries; directed precedence edges chain each ordered job's
// queries; undirected *gating edges* mark cross-job query pairs that JAWS
// wants co-scheduled because they access the same atoms. Query states follow
// the paper:
//   WAIT  - predecessor not finished (inputs don't exist yet);
//   READY - precedence satisfied, but a gating partner is not yet READY;
//   QUEUE - all constraints satisfied, sub-queries may enter workload queues;
//   DONE  - completed (and pruned from the graph).
// A READY query is promoted to QUEUE once every gating partner is at least
// READY, so gated groups enter the workload queues together and the
// contention metric naturally co-schedules their shared atoms.
//
// Gating edges are admitted per the paper's AdmitGatingEdge (Fig. 4):
// transitive inheritance of the partner's existing edges, a gating-number
// monotonicity check, at most one edge per query per job pair, no crossing
// edges between a job pair — plus an exact deadlock check (cycle detection
// over the constraint graph with gating components contracted), which makes
// the "does not cause a deadlock in scheduling" condition precise. The check
// is a local search from the proposed merged component; it is exact because
// the graph is acyclic before every proposal, which check_invariants()
// verifies with a full rebuild.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "workload/job.h"

namespace jaws::sched {

/// Scheduling state of one query (paper Sec. IV-B).
enum class QueryState : std::uint8_t { kWait, kReady, kQueue, kDone };

/// Counters exposed for tests, benches and reports.
struct GatingStats {
    std::size_t alignments_run = 0;        ///< Pairwise dynamic programs computed.
    std::size_t edges_admitted = 0;
    /// Edges the paper's gating-number proxy would have rejected; we admit
    /// them when the exact cycle check passes (tracked for comparison).
    std::size_t edges_rejected_gating_number = 0;
    std::size_t edges_rejected_crossing = 0;
    std::size_t edges_rejected_deadlock = 0;
    std::size_t forced_promotions = 0;     ///< Anti-stall interventions (should be 0).
};

/// The job-aware precedence/gating graph.
class PrecedenceGraph {
  public:
    /// `gating_enabled` = false degrades to pure precedence tracking (JAWS_1).
    explicit PrecedenceGraph(bool gating_enabled = true)
        : gating_enabled_(gating_enabled) {}
    /// A copy's partner pointers would name the source's nodes.
    PrecedenceGraph(const PrecedenceGraph&) = delete;
    PrecedenceGraph& operator=(const PrecedenceGraph&) = delete;

    /// Register a job's declared workflow. The Job must outlive the graph (the
    /// engine owns jobs in stable storage). Ordered jobs are aligned against
    /// every active ordered job, in descending alignment-score order, and
    /// feasible gating edges are admitted.
    void add_job(const workload::Job& job);
    /// Temporaries would dangle — the graph keeps a pointer to the job.
    void add_job(workload::Job&&) = delete;

    /// The query's inputs now exist (first query: job arrival; later queries:
    /// predecessor DONE + think time elapsed). Moves WAIT -> READY and runs
    /// gating promotion. Returns every query promoted to QUEUE by this event.
    std::vector<workload::QueryId> on_query_visible(workload::QueryId id);

    /// The query finished executing: QUEUE -> DONE, gating edges pruned.
    /// Returns queries promoted to QUEUE as a result (partners whose last
    /// un-READY partner was this query never exist — DONE also satisfies
    /// gating — so promotions here come from pruning).
    std::vector<workload::QueryId> on_query_done(workload::QueryId id);

    /// Anti-stall escape hatch: promote the READY query that has been visible
    /// longest, ignoring its gates. The engine calls this only when it would
    /// otherwise idle forever; with correct admission it never fires.
    std::vector<workload::QueryId> force_promote_oldest_ready();

    /// Current state of a query (kDone for unknown/pruned ids).
    QueryState state(workload::QueryId id) const;
    /// Gating number G(q): gating-edged queries in the job prefix up to and
    /// including q (paper Fig. 3's annotation). 0 for unknown ids.
    int gating_number(workload::QueryId id) const;
    /// Number of gating partners currently attached to `id`.
    std::size_t partner_count(workload::QueryId id) const;
    /// True if any query is in the READY state.
    bool has_ready() const noexcept { return ready_count_ > 0; }
    /// Counters.
    const GatingStats& stats() const noexcept { return stats_; }

    /// Exhaustive invariant check for tests: state machine consistency,
    /// symmetric partner lists, one-edge-per-job-pair, no crossing edges, and
    /// deadlock freedom of the active graph.
    bool check_invariants() const;

    /// check_invariants() reported through util::contract_violation (audit
    /// builds run it automatically after every add_job / on_query_done and
    /// promotion pass). Returns true when clean.
    bool audit() const;

  private:
    /// One live query. Nodes are linked by pointer: `nodes_` is an
    /// unordered_map, whose elements never move on rehash, and
    /// on_query_done() detaches a node from every partner before pruning
    /// it, so a partner pointer always names a live node.
    struct Node {
        workload::QueryId id = 0;
        workload::JobId job = 0;
        std::uint32_t seq = 0;
        QueryState state = QueryState::kWait;
        std::uint64_t visible_tick = 0;  ///< Order in which queries became READY.
        std::vector<Node*> partners;     ///< Gating partners, in admission order.
        int gating_number = 0;
        const workload::Query* query = nullptr;
        const workload::Job* owner = nullptr;
        /// Epoch stamp of the last deadlock search that reached this node.
        std::uint64_t mark = 0;
    };

    struct JobEntry {
        const workload::Job* job = nullptr;
        std::size_t remaining = 0;  ///< Queries not yet DONE.
    };

    Node* find(workload::QueryId id);
    const Node* find(workload::QueryId id) const;
    bool gating_satisfied(const Node& node) const;
    std::vector<workload::QueryId> promote_from(const std::vector<Node*>& seeds);
    bool try_admit_edge(Node& nl, Node& nk);
    /// Next live query of `node`'s ordered job (null for batched jobs and
    /// chain tails): the node's one precedence successor.
    Node* chain_successor(const Node& node);
    /// Would gating `a`, `b` and the `extra` nodes together close a cycle?
    /// Exact only on an acyclic graph (see acyclic()).
    bool would_deadlock(Node& a, Node& b, const std::vector<Node*>& extra);
    /// Full rebuild: no cycle in the precedence graph with every gating
    /// component contracted. The invariant behind would_deadlock().
    bool acyclic() const;
    void recompute_gating_numbers(workload::JobId job_id);
    bool edge_allowed_between(const Node& a, const Node& b, std::size_t* crossing,
                              std::size_t* duplicate) const;

    bool gating_enabled_;
    std::unordered_map<workload::QueryId, Node> nodes_;
    std::map<workload::JobId, JobEntry> jobs_;
    GatingStats stats_;
    std::size_t ready_count_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t epoch_ = 0;  ///< Last stamp handed to Node::mark.
};

}  // namespace jaws::sched
