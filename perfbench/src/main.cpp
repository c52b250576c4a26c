// Replay benchmark: end-to-end and per-layer host and modeled metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 replays the workload through the public API (core::Engine::run
// or core::TurbulenceCluster::run) for about --seconds, with both wall-clock
// hooks off, and reports the end-to-end metrics as medians over replays.
// --trace 1 replays it once untraced and once with the hooks on and every
// event timed, then replays the scheduler, cache and storage layers on their
// own, and reports per-layer metrics and each layer's share of the host time.
// The last line of output is one JSON object; perfbench/run.py reads it.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/cluster.h"
#include "core/engine.h"
#include "replay.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using perfbench::Fingerprint;
using perfbench::WorkloadDef;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `s` as a JSON string literal.
std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

#if defined(__clang__)
constexpr const char* kCompiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

/// Why numbers from this build must not be recorded, or empty when they may.
std::string build_refusal() {
    const std::string type = PERFBENCH_BUILD_TYPE;
    const std::string flags = PERFBENCH_CXX_FLAGS;
#if !defined(__OPTIMIZE__)
    return "unoptimised build (build type '" + type + "')";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if defined(JAWS_AUDIT_BUILD)
    return "audit build";
#endif
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' is not Release or RelWithDebInfo";
    if (flags.find("-fsanitize") != std::string::npos) return "sanitizer flags: " + flags;
    if (flags.find("-O0") != std::string::npos) return "-O0 in flags: " + flags;
    return "";
}

/// The modeled results of one replay: deterministic, compared bit for bit.
struct Modeled {
    Fingerprint fp;
    double throughput_qps = 0.0;
    double p50_s = 0.0;
    double p99_s = 0.0;
    double makespan_s = 0.0;
    std::uint64_t submitted = 0;  ///< Queries (cluster: query parts) submitted.
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;     ///< Degraded plus lost.

    bool same_as(const Modeled& o) const {
        const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
        return fp == o.fp && bits(throughput_qps) == bits(o.throughput_qps) &&
               bits(p50_s) == bits(o.p50_s) && bits(p99_s) == bits(o.p99_s) &&
               bits(makespan_s) == bits(o.makespan_s) && submitted == o.submitted &&
               completed == o.completed && failed == o.failed;
    }
};

Modeled modeled(const jaws::core::RunReport& r, const jaws::workload::Workload& w) {
    Modeled m;
    m.fp = perfbench::fingerprint(r);
    m.throughput_qps = r.busy_throughput_qps;
    m.p50_s = r.median_response_ms * 1e-3;
    m.p99_s = r.p99_response_ms * 1e-3;
    m.makespan_s = r.makespan.seconds();
    m.submitted = w.total_queries();
    m.completed = r.queries;
    m.failed = r.degraded_queries;
    return m;
}

Modeled modeled(const jaws::core::ClusterReport& r, std::uint64_t parts) {
    Modeled m;
    m.fp = perfbench::fingerprint(r);
    m.throughput_qps = r.total_throughput_qps;
    std::vector<double> pooled;
    for (const jaws::core::RunReport& n : r.per_node) {
        pooled.insert(pooled.end(), n.response_ms.begin(), n.response_ms.end());
        m.completed += n.queries;
    }
    for (const jaws::core::RunReport& n : r.recovery) {
        pooled.insert(pooled.end(), n.response_ms.begin(), n.response_ms.end());
        m.completed += n.queries;
    }
    m.p50_s = jaws::util::percentile(pooled, 50.0) * 1e-3;
    m.p99_s = jaws::util::percentile(std::move(pooled), 99.0) * 1e-3;
    m.makespan_s = r.makespan.seconds();
    m.submitted = parts;
    m.failed = r.degraded_queries + r.lost_queries;
    return m;
}

/// Query parts a workload splits into on the cluster (every part must
/// complete or be reported lost).
std::uint64_t cluster_parts(const WorkloadDef& def, const jaws::workload::Workload& w) {
    const jaws::core::TurbulenceCluster cluster(def.config);
    std::uint64_t parts = 0;
    for (const jaws::workload::Job& job : w.jobs)
        for (const jaws::workload::Job& part : cluster.project(job)) parts += part.queries.size();
    return parts;
}

std::uint64_t materialized_positions(const jaws::workload::Workload& w) {
    std::uint64_t n = 0;
    for (const jaws::workload::Job& job : w.jobs)
        for (const jaws::workload::Query& q : job.queries) n += q.positions.size();
    return n;
}

/// One replay through the public API. Engine/cluster construction is part
/// of set-up; the run alone is the timed replay.
struct Replay {
    double construct_s = 0.0;
    double run_s = 0.0;
    Modeled m;
    jaws::core::RunReport node;        ///< Single-node workloads.
    std::vector<jaws::core::QueryOutcome> outcomes;  ///< Single-node workloads.
    jaws::core::ClusterReport cluster; ///< Cluster workloads.
};

Replay replay(const WorkloadDef& def, const jaws::core::ClusterConfig& config,
              const jaws::workload::Workload& w, std::uint64_t parts) {
    Replay out;
    auto t0 = Clock::now();
    if (def.cluster) {
        const jaws::core::TurbulenceCluster cluster(config);
        out.construct_s = seconds_since(t0);
        t0 = Clock::now();
        out.cluster = cluster.run(w);
        out.run_s = seconds_since(t0);
        out.m = modeled(out.cluster, parts);
    } else {
        jaws::core::Engine engine(config.node);
        out.construct_s = seconds_since(t0);
        t0 = Clock::now();
        out.node = engine.run(w);
        out.run_s = seconds_since(t0);
        out.m = modeled(out.node, w);
        out.outcomes = engine.outcomes();
    }
    return out;
}

/// Set-up alone: generate the inputs and construct the engine or cluster,
/// then drop all of it. Returns the host seconds.
double setup_only(const WorkloadDef& def, std::uint64_t seed) {
    const perfbench::Inputs in = perfbench::generate_inputs(def, seed);
    const auto t0 = Clock::now();
    if (def.cluster) {
        const jaws::core::TurbulenceCluster cluster(def.config);
    } else {
        const jaws::core::Engine engine(def.config.node);
    }
    return in.generate_s + in.materialize_s + seconds_since(t0);
}

class Result {
  public:
    void metric(const std::string& name, double value, const char* unit) {
        if (!std::isfinite(value)) {
            check("finite:" + name, false);
            value = 0.0;
        }
        metrics_[name] = {value, unit};
    }
    void check(const std::string& name, bool ok) {
        bool& passed = checks_.try_emplace(name, true).first->second;
        passed = passed && ok;
        if (!ok) std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
    }
    /// Records that a check could not run in this run, and why.
    void not_run(const std::string& name, const std::string& why) { not_run_[name] = why; }
    bool correct() const {
        for (const auto& [name, ok] : checks_)
            if (!ok) return false;
        return true;
    }
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t replays = 0;
    Fingerprint fp;

    void print(const std::string& workload, std::uint64_t seed, int trace) const {
        std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, ",
                    workload.c_str(), seed, trace);
        std::printf("\"env\": {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
                    "\"cxx_flags\": %s}, ",
                    std::thread::hardware_concurrency(), json_string(kCompiler).c_str(),
                    json_string(PERFBENCH_BUILD_TYPE).c_str(),
                    json_string(PERFBENCH_CXX_FLAGS).c_str());
        std::printf("\"fingerprint\": {\"makespan_us\": %" PRId64 ", \"atom_reads\": %" PRIu64
                    ", \"cache_hits\": %" PRIu64 ", \"sample_digest\": \"0x%016" PRIx64 "\"}, ",
                    fp.makespan_us, fp.atom_reads, fp.cache_hits, fp.sample_digest);
        std::printf("\"checks\": {");
        const char* sep = "";
        for (const auto& [name, ok] : checks_) {
            std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
            sep = ", ";
        }
        std::printf("}, \"checks_not_run\": {");
        sep = "";
        for (const auto& [name, why] : not_run_) {
            std::printf("%s\"%s\": %s", sep, name.c_str(), json_string(why).c_str());
            sep = ", ";
        }
        std::printf("}, \"replays\": %zu, \"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    replays, correct() ? "true" : "false", attempted, failed);
        sep = "";
        for (const auto& [name, mv] : metrics_) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                        mv.first, mv.second.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
    }

  private:
    std::map<std::string, bool> checks_;
    std::map<std::string, std::string> not_run_;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Checks every replay must pass.
void check_replay(Result& res, const WorkloadDef& def, const Replay& r,
                  const jaws::workload::Workload& w) {
    res.check("every_query_completed_or_failed",
              r.m.completed + (def.cluster ? r.cluster.lost_queries : 0) == r.m.submitted);
    if (def.materialize)
        res.check("samples_equal_positions",
                  r.node.samples_evaluated == materialized_positions(w));
    if (def.cluster)
        res.check("cluster_exercises_failover_replicas_hedges",
                  r.cluster.failovers > 0 && r.cluster.replica_reads > 0 &&
                      r.cluster.hedges_issued > 0);
}

constexpr int kSetupSamples = 5;

Result run_untraced(const WorkloadDef& def, std::uint64_t seed, double seconds) {
    Result res;
    // Only the replay in flight holds inputs, so peak_rss_mb is that of one
    // replay of the workload.
    std::vector<double> setups;
    for (int i = 0; i < kSetupSamples; ++i) setups.push_back(setup_only(def, seed));
    const std::uint64_t parts =
        def.cluster ? cluster_parts(def, perfbench::generate_inputs(def, seed).workload) : 0;

    std::vector<double> qps;
    Modeled first;
    const auto t0 = Clock::now();
    do {
        perfbench::Inputs fresh = perfbench::generate_inputs(def, seed);
        const Replay r = replay(def, def.config, fresh.workload, parts);
        setups.push_back(fresh.generate_s + fresh.materialize_s + r.construct_s);
        qps.push_back(static_cast<double>(r.m.completed) / r.run_s);
        check_replay(res, def, r, fresh.workload);
        if (res.replays == 0)
            first = r.m;
        else
            res.check("repeat_replays_bit_identical", r.m.same_as(first));
        ++res.replays;
        res.attempted += r.m.submitted;
        res.failed += r.m.failed;
        // Stop when one more replay of average length would overrun.
    } while (seconds_since(t0) * (1.0 + 1.0 / static_cast<double>(res.replays)) <= seconds);
    if (res.replays == 1)
        res.not_run("repeat_replays_bit_identical",
                    "one replay fits in --seconds; the traced run repeats it");
    // Set-up samples at both ends of the run, so that one slow phase of the
    // host does not decide the median.
    for (int i = 0; i < kSetupSamples; ++i) setups.push_back(setup_only(def, seed));

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    res.fp = first.fp;
    res.metric("setup_s", median(setups), "s");
    res.metric("sim_qps", median(qps), "1/s");
    res.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    res.metric("sim_throughput_qps", first.throughput_qps, "1/s");
    res.metric("sim_response_p50_s", first.p50_s, "s");
    res.metric("sim_response_p99_s", first.p99_s, "s");
    res.metric("sim_makespan_s", first.makespan_s, "s");
    return res;
}

Result run_traced(const WorkloadDef& def, std::uint64_t seed) {
    Result res;
    std::vector<double> generate, materialize;
    perfbench::Inputs in;
    for (int i = 0; i < 3; ++i) {
        in = perfbench::generate_inputs(def, seed);
        generate.push_back(in.generate_s);
        materialize.push_back(in.materialize_s);
    }
    const jaws::workload::Workload& w = in.workload;
    const std::uint64_t parts = def.cluster ? cluster_parts(def, w) : 0;

    // Untraced reference replay through the public API, and a repeat of it.
    const Replay base = replay(def, def.config, w, parts);
    check_replay(res, def, base, w);
    res.check("repeat_replays_bit_identical",
              replay(def, def.config, w, parts).m.same_as(base.m));

    // Traced replay: both wall-clock hooks on; single-node workloads run on
    // the benchmark-owned event loop with every run_one timed.
    jaws::core::ClusterConfig traced_config = def.config;
    perfbench::enable_wall_clock_hooks(traced_config.node);
    perfbench::KernelTrace kernel;
    Replay traced;
    if (def.cluster) {
        traced = replay(def, traced_config, w, parts);
    } else {
        const auto t0 = Clock::now();
        traced.node = perfbench::run_shared_kernel(traced_config.node, w, kernel);
        traced.run_s = seconds_since(t0);
        traced.m = modeled(traced.node, w);
    }
    check_replay(res, def, traced, w);
    res.check("traced_equals_untraced_bit_for_bit", traced.m.same_as(base.m));
    res.replays = 3;
    res.attempted = base.m.submitted;
    res.failed = base.m.failed;
    res.fp = base.m.fp;

    // The cluster's per-query outcomes are not public, so its layer replay
    // runs with instant service.
    const perfbench::LayerReplay layers = perfbench::replay_layers(
        def.config.node, w, def.cluster ? nullptr : &base.outcomes);
    res.check("layer_replay_drains_each_subquery_once", layers.drained_exactly_once);
    res.check("cache_replay_hits_plus_misses_equal_lookups",
              layers.hits + layers.misses == layers.lookups);

    // Figures of the traced run (identical to the untraced one but for the
    // two wall-clock hooks).
    std::vector<const jaws::core::RunReport*> nodes;
    if (def.cluster)
        for (const jaws::core::RunReport& n : traced.cluster.per_node) nodes.push_back(&n);
    else
        nodes.push_back(&traced.node);
    jaws::sched::GatingStats gating;
    std::uint64_t hits = 0, misses = 0, evictions = 0, policy_ns = 0, atom_reads = 0,
                  support_reads = 0, samples = 0, eval_ns = 0, queries = 0;
    double disk_service_s = 0.0, overlap_weighted = 0.0, makespan_sum = 0.0;
    for (const jaws::core::RunReport* n : nodes) {
        gating.alignments_run += n->gating.alignments_run;
        gating.edges_admitted += n->gating.edges_admitted;
        gating.edges_rejected_deadlock += n->gating.edges_rejected_deadlock;
        hits += n->cache.hits;
        misses += n->cache.misses;
        evictions += n->cache.evictions;
        policy_ns += n->cache.policy_overhead_ns;
        atom_reads += n->atom_reads;
        support_reads += n->support_reads;
        samples += n->samples_evaluated;
        eval_ns += n->eval_wall_ns;
        queries += n->queries;
        disk_service_s += n->disk.service_time.seconds();
        overlap_weighted += n->overlap_fraction * n->makespan.seconds();
        makespan_sum += n->makespan.seconds();
    }

    const double per_us = 1e-3;
    res.metric("util.events", static_cast<double>(kernel.events), "count");
    res.metric("util.event_ns", ratio(static_cast<double>(kernel.event_ns),
                                      static_cast<double>(kernel.events)), "ns");
    res.metric("sched.submit_us", per_us * ratio(layers.submit_ns, layers.submits), "us");
    res.metric("sched.visible_us", per_us * ratio(layers.visible_ns, layers.visibles), "us");
    res.metric("sched.next_batch_us",
               per_us * ratio(layers.next_batch_ns, layers.next_batches), "us");
    res.metric("sched.completed_us",
               per_us * ratio(layers.completed_ns, layers.completions), "us");
    res.metric("sched.preprocess_us",
               per_us * ratio(layers.preprocess_ns, layers.preprocessed), "us");
    res.metric("sched.alignments", static_cast<double>(gating.alignments_run), "count");
    res.metric("sched.replay_alignments", static_cast<double>(layers.alignments), "count");
    res.metric("sched.edges_admitted", static_cast<double>(gating.edges_admitted), "count");
    res.metric("sched.edges_rejected_deadlock",
               static_cast<double>(gating.edges_rejected_deadlock), "count");
    res.metric("cache.policy_ns_per_query", ratio(policy_ns, queries), "ns");
    const double lookup_ns = ratio(layers.lookup_ns, layers.lookups);
    const double insert_ns = ratio(layers.insert_ns, layers.inserts);
    const double read_ns = ratio(layers.read_ns, layers.reads);
    res.metric("cache.lookup_ns", lookup_ns, "ns");
    res.metric("cache.insert_ns", insert_ns, "ns");
    res.metric("cache.hit_rate", ratio(hits, hits + misses), "ratio");
    res.metric("cache.evictions", static_cast<double>(evictions), "count");
    res.metric("storage.read_ns", read_ns, "ns");
    res.metric("storage.atom_reads", static_cast<double>(atom_reads), "count");
    res.metric("storage.support_reads", static_cast<double>(support_reads), "count");
    res.metric("storage.disk_service_s", disk_service_s, "s");
    res.metric("field.eval_ns_per_sample", ratio(eval_ns, samples), "ns");
    res.metric("field.samples", static_cast<double>(samples), "count");
    if (def.cluster) {
        const jaws::core::ClusterReport& c = traced.cluster;
        res.metric("core.disk_utilization", c.mean_disk_utilization, "ratio");
        res.metric("core.cpu_utilization", c.mean_cpu_utilization, "ratio");
        res.metric("core.replica_read_share", ratio(c.replica_reads, atom_reads), "ratio");
        res.metric("core.failovers", static_cast<double>(c.failovers), "count");
        res.metric("core.requeued_queries", static_cast<double>(c.requeued_queries), "count");
        res.metric("core.hedge_win_ratio", ratio(c.hedges_won, c.hedges_issued), "ratio");
        res.metric("core.wasted_service_s", c.wasted_service.seconds(), "s");
    } else {
        const jaws::core::RunReport& r = traced.node;
        res.metric("core.disk_utilization", r.disk_utilization, "ratio");
        res.metric("core.cpu_utilization", r.cpu_utilization, "ratio");
        res.metric("core.replica_read_share", ratio(r.replica_reads, atom_reads), "ratio");
        res.metric("core.failovers", 0.0, "count");
        res.metric("core.requeued_queries", 0.0, "count");
        res.metric("core.hedge_win_ratio", ratio(r.hedges_won, r.hedges_issued), "ratio");
        res.metric("core.wasted_service_s", r.wasted_service.seconds(), "s");
    }
    res.metric("core.overlap_fraction", ratio(overlap_weighted, makespan_sum), "ratio");
    res.metric("workload.generate_s", median(generate), "s");
    res.metric("workload.materialize_s", median(materialize), "s");

    // Host self time per layer as a share of the traced replay. Evaluation
    // is timed in situ; scheduler, cache and storage take the standalone
    // replay's per-call cost times the run's call count (the scheduler's
    // calls are the replay's own: same jobs and queries). The remainder is
    // the engine pipeline and the event kernel.
    const double run_ns = traced.run_s * 1e9;
    const double field_share = ratio(eval_ns, run_ns);
    const double sched_share = ratio(layers.sched_ns(), run_ns);
    const double cache_share =
        ratio(lookup_ns * static_cast<double>(hits + misses) +
                  insert_ns * static_cast<double>(atom_reads),
              run_ns);
    const double storage_share = ratio(read_ns * static_cast<double>(atom_reads), run_ns);
    res.metric("field.host_share", field_share, "ratio");
    res.metric("sched.host_share", sched_share, "ratio");
    res.metric("cache.host_share", cache_share, "ratio");
    res.metric("storage.host_share", storage_share, "ratio");
    res.metric("core.host_share",
               1.0 - field_share - sched_share - cache_share - storage_share, "ratio");
    const double qps_untraced = static_cast<double>(base.m.completed) / base.run_s;
    const double qps_traced = static_cast<double>(traced.m.completed) / traced.run_s;
    res.metric("trace.sim_qps_untraced", qps_untraced, "1/s");
    res.metric("trace.sim_qps_traced", qps_traced, "1/s");
    res.metric("trace.overhead", 1.0 - ratio(qps_traced, qps_untraced), "ratio");
    return res;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "workloads: see BENCHMARK.json\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            workload = val;
            continue;
        }
        if (key == "--seed") {
            seed = std::strtoull(val, &end, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            trace = static_cast<int>(std::strtol(val, &end, 10));
        } else {
            return usage();
        }
        if (end == val || *end != '\0') return usage();
    }
    if (argc % 2 != 1 || workload.empty() || !have_seed || (trace != 0 && trace != 1) ||
        !(seconds > 0.0))
        return usage();

    if (const std::string why = build_refusal(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to record numbers from this build: %s\n",
                     why.c_str());
        return 3;
    }
    try {
        const WorkloadDef def = perfbench::make_workload(workload);
        const Result res = trace == 1 ? run_traced(def, seed) : run_untraced(def, seed, seconds);
        res.print(workload, seed, trace);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
