#include "replay.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/lru.h"
#include "cache/lru_k.h"
#include "cache/slru.h"
#include "cache/two_q.h"
#include "core/engine.h"
#include "sched/jaws.h"
#include "sched/noshare.h"
#include "sched/subquery.h"
#include "storage/atom_store.h"
#include "util/event_queue.h"

namespace perfbench {

namespace {

using jaws::util::SimTime;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Adds the host time of its scope to `acc`.
class Span {
  public:
    explicit Span(std::uint64_t& acc) : acc_(acc), start_(now_ns()) {}
    ~Span() { acc_ += now_ns() - start_; }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::uint64_t& acc_;
    std::uint64_t start_;
};

std::unique_ptr<jaws::cache::ReplacementPolicy> make_policy(const jaws::core::CacheSpec& c) {
    using jaws::core::CachePolicy;
    switch (c.policy) {
        case CachePolicy::kLru:
            return std::make_unique<jaws::cache::LruPolicy>();
        case CachePolicy::kLruK:
            return std::make_unique<jaws::cache::LruKPolicy>(c.lru_k);
        case CachePolicy::kSlru:
            return std::make_unique<jaws::cache::SlruPolicy>(c.capacity_atoms,
                                                             c.slru_protected_fraction);
        case CachePolicy::kTwoQ:
            return std::make_unique<jaws::cache::TwoQPolicy>(c.capacity_atoms,
                                                             c.twoq_in_fraction);
        case CachePolicy::kUrc:
            break;
    }
    throw std::invalid_argument("layer replay: URC needs the engine's utility oracle");
}

std::unique_ptr<jaws::sched::Scheduler> make_scheduler(const jaws::core::EngineConfig& config,
                                                       const jaws::cache::BufferCache& cache) {
    using jaws::core::SchedulerKind;
    switch (config.scheduler.kind) {
        case SchedulerKind::kNoShare:
            return std::make_unique<jaws::sched::NoShareScheduler>();
        case SchedulerKind::kJaws: {
            jaws::sched::CostConstants est = config.estimates;
            est.atoms_per_step = config.grid.atoms_per_step();
            jaws::sched::JawsConfig jc = config.scheduler.jaws;
            jc.alpha.run_length = config.run_length;
            return std::make_unique<jaws::sched::JawsScheduler>(est, &cache, jc);
        }
        case SchedulerKind::kLifeRaft:
            break;
    }
    throw std::invalid_argument("layer replay: unsupported scheduler kind");
}

}  // namespace

Fingerprint fingerprint(const jaws::core::RunReport& r) {
    return Fingerprint{r.makespan.raw_micros(), r.atom_reads, r.cache.hits, r.sample_digest};
}

Fingerprint fingerprint(const jaws::core::ClusterReport& r) {
    Fingerprint f;
    f.makespan_us = r.makespan.raw_micros();
    f.sample_digest = jaws::core::kFnvOffset;
    for (const jaws::core::RunReport& n : r.per_node) {
        f.atom_reads += n.atom_reads;
        f.cache_hits += n.cache.hits;
        f.sample_digest = jaws::core::fnv1a64(f.sample_digest, &n.sample_digest,
                                              sizeof n.sample_digest);
    }
    return f;
}

jaws::core::RunReport run_shared_kernel(const jaws::core::EngineConfig& config,
                                        const jaws::workload::Workload& workload,
                                        KernelTrace& trace) {
    jaws::util::EventQueue events;
    events.set_perturbation(config.tie_perturbation);
    jaws::core::Engine engine(config, events, jaws::util::NodeIndex{0});
    const SimTime start =
        workload.jobs.empty() ? SimTime::zero() : workload.jobs.front().arrival;
    events.reset_to(start);
    // Arrivals are scheduled before the engine arms anything, matching the
    // event-id order of Engine::run.
    std::size_t arrived = 0;
    for (const jaws::workload::Job& job : workload.jobs)
        events.schedule(job.arrival, jaws::core::Engine::kPriArrival, 0,
                        [&engine, &job, &arrived] {
                            ++arrived;
                            engine.inject_job(job);
                        });
    engine.begin_shared(start);

    while (arrived < workload.jobs.size() || !engine.done()) {
        bool ran = false;
        {
            Span span(trace.event_ns);
            ran = events.run_one();
        }
        if (ran) {
            ++trace.events;
            continue;
        }
        // Drained with queries incomplete: only gated queries remain.
        if (engine.try_unstick()) continue;
        throw std::runtime_error("run_shared_kernel: scheduler stalled");
    }
    return engine.finish();
}

LayerReplay replay_layers(const jaws::core::EngineConfig& config,
                          const jaws::workload::Workload& workload,
                          const std::vector<jaws::core::QueryOutcome>* timeline) {
    LayerReplay out;
    jaws::cache::BufferCache cache(config.cache.capacity_atoms, make_policy(config.cache));
    const std::unique_ptr<jaws::sched::Scheduler> sched = make_scheduler(config, cache);
    jaws::storage::AtomStore store(jaws::storage::AtomStoreSpec{
        config.grid, config.field, config.disk, config.io_depth, config.materialize_data,
        config.faults});

    bool exact = true;
    for (const jaws::workload::Job& job : workload.jobs)
        for (const jaws::workload::Query& q : job.queries) {
            std::size_t subs = 0;
            {
                Span span(out.preprocess_ns);
                subs = jaws::sched::preprocess(q, SimTime::zero()).size();
            }
            ++out.preprocessed;
            if (subs != q.footprint.size()) exact = false;
        }

    std::unordered_map<jaws::workload::QueryId, const jaws::core::QueryOutcome*> recorded;
    if (timeline != nullptr)
        for (const jaws::core::QueryOutcome& o : *timeline) recorded[o.query] = &o;
    // The recorded instant, but never before the replay's own causal bound.
    const auto at_or_recorded = [&](jaws::workload::QueryId id, SimTime bound,
                                    bool completion) {
        const auto it = recorded.find(id);
        if (it == recorded.end()) return bound;
        return std::max(bound, completion ? it->second->completed : it->second->visible);
    };

    struct QueryState {
        const jaws::workload::Query* query = nullptr;
        const jaws::workload::Job* job = nullptr;
        std::size_t outstanding = 0;
        SimTime visible_at;
        std::vector<jaws::storage::AtomId> drained;
    };
    std::unordered_map<jaws::workload::QueryId, QueryState> state;
    for (const jaws::workload::Job& job : workload.jobs)
        for (const jaws::workload::Query& q : job.queries)
            state[q.id] = QueryState{&q, &job, q.footprint.size(), SimTime::zero(), {}};

    // Same-instant order of the engine: completions, then arrivals, then
    // visibility; dispatch once the instant's events are all handled.
    enum Kind { kCompletion = 0, kArrival = 1, kVisible = 2 };
    struct Event {
        SimTime at;
        int kind = 0;
        std::uint64_t id = 0;  ///< Job index for arrivals, else query id.
        bool operator>(const Event& o) const {
            return std::tie(at, kind, id) > std::tie(o.at, o.kind, o.id);
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
    for (std::size_t j = 0; j < workload.jobs.size(); ++j)
        events.push(Event{workload.jobs[j].arrival, kArrival, j});

    std::size_t completed = 0;
    const auto residency = [&](const jaws::storage::AtomId& atom) {
        Span span(out.other_ns);
        sched->on_residency_changed(atom);
    };
    const auto complete = [&](QueryState& st, SimTime now) {
        std::vector<jaws::storage::AtomId> expected;
        for (const jaws::workload::AtomRequest& r : st.query->footprint)
            expected.push_back(r.atom);
        std::sort(expected.begin(), expected.end());
        std::sort(st.drained.begin(), st.drained.end());
        if (expected != st.drained) exact = false;
        st.drained = {};
        {
            Span span(out.completed_ns);
            sched->on_query_completed(st.query->id, now - st.visible_at, now);
        }
        ++out.completions;
        ++completed;
        if (config.run_length > 0 && completed % config.run_length == 0)
            cache.run_boundary();
        const jaws::workload::Job& job = *st.job;
        if (job.type == jaws::workload::JobType::kOrdered &&
            st.query->seq_in_job + 1 < job.queries.size()) {
            const jaws::workload::Query& next = job.queries[st.query->seq_in_job + 1];
            events.push(Event{at_or_recorded(next.id, now + next.think_time, false),
                              kVisible, next.id});
        }
    };
    const auto handle = [&](const Event& ev) {
        if (ev.kind == kCompletion) {
            complete(state.at(ev.id), ev.at);
        } else if (ev.kind == kVisible) {
            QueryState& st = state.at(ev.id);
            st.visible_at = ev.at;
            Span span(out.visible_ns);
            sched->on_query_visible(*st.query, ev.at);
            ++out.visibles;
        } else {
            const jaws::workload::Job& job = workload.jobs[ev.id];
            {
                Span span(out.submit_ns);
                sched->on_job_submitted(job);
            }
            ++out.submits;
            if (job.queries.empty()) return;
            if (job.type == jaws::workload::JobType::kOrdered) {
                const jaws::workload::QueryId head = job.queries.front().id;
                events.push(Event{at_or_recorded(head, job.arrival, false), kVisible, head});
            } else {
                for (const jaws::workload::Query& q : job.queries)
                    events.push(Event{at_or_recorded(q.id, job.arrival + q.think_time, false),
                                      kVisible, q.id});
            }
        }
    };
    const auto serve = [&](const jaws::sched::BatchItem& item, SimTime now) {
        bool hit = false;
        {
            Span span(out.lookup_ns);
            hit = cache.lookup(item.atom);
        }
        ++out.lookups;
        if (hit) {
            ++out.hits;
        } else {
            ++out.misses;
            jaws::storage::ReadResult read;
            {
                Span span(out.read_ns);
                read = store.read(item.atom);
            }
            ++out.reads;
            std::optional<jaws::storage::AtomId> victim;
            {
                Span span(out.insert_ns);
                victim = cache.insert(item.atom, std::move(read.data));
            }
            ++out.inserts;
            residency(item.atom);
            if (victim) residency(*victim);
        }
        for (const jaws::sched::SubQuery& sub : item.subqueries) {
            ++out.subqueries_drained;
            QueryState& st = state.at(sub.query);
            st.drained.push_back(sub.atom);
            if (st.outstanding == 0) {
                exact = false;
                continue;
            }
            if (--st.outstanding == 0)
                events.push(Event{at_or_recorded(sub.query, now, true), kCompletion, sub.query});
        }
    };

    const std::size_t total = workload.total_queries();
    SimTime now = workload.jobs.empty() ? SimTime::zero() : workload.jobs.front().arrival;
    while (completed < total) {
        if (!events.empty() && events.top().at <= now) {
            const Event ev = events.top();
            events.pop();
            handle(ev);
            continue;
        }
        if (sched->has_pending()) {
            std::vector<jaws::sched::BatchItem> items;
            {
                Span span(out.next_batch_ns);
                items = sched->next_batch(now);
            }
            ++out.next_batches;
            if (!items.empty()) {
                for (const jaws::sched::BatchItem& item : items) serve(item, now);
                continue;
            }
        }
        if (!events.empty()) {
            now = events.top().at;
            continue;
        }
        bool released = false;
        {
            Span span(out.other_ns);
            released = sched->unstick(now);
        }
        if (!released) throw std::runtime_error("replay_layers: scheduler stalled");
    }
    out.evictions = cache.stats().evictions;
    if (cache.stats().hits != out.hits || cache.stats().misses != out.misses) exact = false;
    if (const jaws::sched::GatingStats* g = sched->gating_stats()) out.alignments = g->alignments_run;
    out.drained_exactly_once = exact && completed == total && sched->pending_count() == 0;
    return out;
}

}  // namespace perfbench
