// Multithreaded stress cases for the annotated concurrency layer.
//
// These tests exist primarily as ThreadSanitizer targets (the `tsan` preset
// runs the full suite): they force real contention on every mutex-protected
// structure this repository owns — the thread pool's queue and the logger's
// sink — and run whole cluster simulations concurrently, so data races
// surface as TSan reports instead of flaky goldens. They also pin the determinism
// contract that motivates the whole layer: concurrent runs of the same
// configuration must produce bit-identical reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace jaws {
namespace {

/// Mutex-guarded counter exercising util::Mutex/MutexLock under contention.
class GuardedCounter {
  public:
    void add(std::uint64_t v) {
        util::MutexLock lock(mu_);
        value_ += v;
    }
    std::uint64_t get() {
        util::MutexLock lock(mu_);
        return value_;
    }

  private:
    util::Mutex mu_;
    std::uint64_t value_ GUARDED_BY(mu_) = 0;
};

TEST(ThreadStress, OversubscribedPoolHammersOneGuardedCounter) {
    // Far more workers than cores, all incrementing the same guarded
    // counter: maximal lock contention plus constant queue churn.
    util::ThreadPool pool(32);
    GuardedCounter counter;
    constexpr int kTasks = 4000;
    for (int i = 0; i < kTasks; ++i) pool.submit([&counter] { counter.add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.get(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadStress, ConcurrentProducersAgainstDrainingDestructor) {
    // N producer threads race submissions into the pool; the pool is then
    // destroyed while much of the queue is still outstanding. The destructor
    // contract: every task submitted before ~ThreadPool begins still runs.
    std::atomic<int> ran{0};
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 200;
    {
        util::ThreadPool pool(4);
        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&pool, &ran] {
                for (int i = 0; i < kPerProducer; ++i)
                    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
            });
        }
        for (auto& t : producers) t.join();
        // Pool destructor runs here, with tasks still queued on 4 workers.
    }
    EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(ThreadStress, WaitIdleRacesActiveWorkers) {
    util::ThreadPool pool(8);
    std::atomic<int> done{0};
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 64; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait_idle();
        EXPECT_EQ(done.load(), (round + 1) * 64);
    }
}

std::atomic<std::uint64_t> g_sink_records{0};

void counting_sink(util::LogLevel, std::string_view, std::string_view) {
    g_sink_records.fetch_add(1, std::memory_order_relaxed);
}

TEST(ThreadStress, ConcurrentLoggingThroughGuardedSink) {
    g_sink_records.store(0);
    util::set_log_sink(&counting_sink);
    util::set_log_level(util::LogLevel::kWarn);
    constexpr int kThreads = 8;
    constexpr int kLines = 250;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kLines; ++i)
                JAWS_LOG_WARN("stress", "thread %d line %d", t, i);
        });
    }
    for (auto& t : threads) t.join();
    util::set_log_sink(nullptr);
    util::set_log_level(util::LogLevel::kWarn);
    EXPECT_EQ(g_sink_records.load(), static_cast<std::uint64_t>(kThreads * kLines));
}

core::ClusterConfig stress_cluster_config() {
    core::ClusterConfig config;
    config.nodes = 4;
    config.replication = 2;
    config.node.grid.voxels_per_side = 128;
    config.node.grid.atom_side = 32;
    config.node.grid.timesteps = 4;
    config.node.field.modes = 4;
    config.node.cache.capacity_atoms = 16;
    config.node.run_length = 25;
    // Kill a node mid-run so in-kernel failover runs concurrently with the
    // other threads' cluster runs.
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{1}, util::SimTime::from_seconds(30.0)});
    return config;
}

workload::Workload stress_cluster_workload(const core::ClusterConfig& config) {
    workload::WorkloadSpec spec;
    spec.jobs = 16;
    spec.seed = 21;
    const field::SyntheticField field(config.node.field);
    return workload::generate_workload(spec, config.node.grid, field);
}

TEST(ThreadStress, ParallelClusterRunsAreRaceFreeAndIdentical) {
    // Two whole cluster runs execute concurrently on their own threads, each
    // driving its own shared event kernel, while this thread runs a third.
    // Determinism contract: all three reports are bit-identical even though
    // their thread interleavings differ completely.
    const core::ClusterConfig config = stress_cluster_config();
    const workload::Workload workload = stress_cluster_workload(config);

    core::ClusterReport a, b;
    std::thread ta([&] {
        const core::TurbulenceCluster cluster(config);
        a = cluster.run(workload);
    });
    std::thread tb([&] {
        const core::TurbulenceCluster cluster(config);
        b = cluster.run(workload);
    });
    const core::TurbulenceCluster cluster(config);
    const core::ClusterReport c = cluster.run(workload);
    ta.join();
    tb.join();

    ASSERT_GT(c.makespan.micros, 0);
    EXPECT_EQ(a.makespan.micros, c.makespan.micros);
    EXPECT_EQ(b.makespan.micros, c.makespan.micros);
    EXPECT_EQ(a.dead_nodes, c.dead_nodes);
    EXPECT_EQ(b.failovers, c.failovers);
    EXPECT_EQ(a.requeued_queries, c.requeued_queries);
    EXPECT_DOUBLE_EQ(a.total_throughput_qps, c.total_throughput_qps);
    EXPECT_DOUBLE_EQ(b.mean_response_ms, c.mean_response_ms);
    ASSERT_EQ(a.per_node.size(), c.per_node.size());
    for (std::size_t n = 0; n < c.per_node.size(); ++n) {
        EXPECT_EQ(a.per_node[n].makespan.micros, c.per_node[n].makespan.micros);
        EXPECT_EQ(b.per_node[n].cache.hits, c.per_node[n].cache.hits);
        EXPECT_EQ(a.per_node[n].cache.policy_overhead_ns,
                  c.per_node[n].cache.policy_overhead_ns)
            << "virtual-tick overhead accounting must be reproducible";
    }
}

core::EngineConfig eval_stress_config() {
    core::EngineConfig c;
    c.grid.voxels_per_side = 128;
    c.grid.atom_side = 32;
    c.grid.timesteps = 4;
    c.field.modes = 4;
    c.cache.capacity_atoms = 16;
    c.run_length = 25;
    c.io_depth = 2;
    c.compute_workers = 4;
    c.materialize_data = true;  // real payloads so evaluation hits the pool
    return c;
}

workload::Workload eval_stress_workload(const core::EngineConfig& c) {
    workload::WorkloadSpec spec;
    spec.jobs = 6;
    spec.seed = 9;
    spec.max_positions = 400;
    const field::SyntheticField field(c.field);
    workload::Workload w = workload::generate_workload(spec, c.grid, field);
    workload::materialize_positions(w, c.grid, /*seed=*/13);
    return w;
}

TEST(ThreadStress, ConcurrentEnginesSharingOneEvalPoolStayBitIdentical) {
    // Three engines run concurrently, all dispatching real sub-query
    // interpolation onto ONE shared evaluation pool, while a fourth engine
    // evaluates everything inline on this thread as the reference. The
    // shared queue interleaves tasks from unrelated engines arbitrarily;
    // the deterministic reduction (join at the modeled completion event)
    // must make every report bit-identical to the inline reference anyway.
    core::EngineConfig cfg = eval_stress_config();
    const workload::Workload work = eval_stress_workload(cfg);

    core::EngineConfig inline_cfg = cfg;
    inline_cfg.eval.parallel = false;
    core::Engine reference(inline_cfg);
    const core::RunReport ref = reference.run(work);
    ASSERT_GT(ref.samples_evaluated, 0u);

    util::ThreadPool shared(4);
    cfg.eval.pool = &shared;
    constexpr int kEngines = 3;
    std::vector<core::RunReport> reports(kEngines);
    std::vector<std::thread> runners;
    runners.reserve(kEngines);
    for (int e = 0; e < kEngines; ++e)
        runners.emplace_back([&cfg, &work, &reports, e] {
            core::Engine engine(cfg);
            reports[static_cast<std::size_t>(e)] = engine.run(work);
        });
    for (auto& t : runners) t.join();

    for (int e = 0; e < kEngines; ++e) {
        const core::RunReport& r = reports[static_cast<std::size_t>(e)];
        EXPECT_GT(r.eval_tasks, 0u) << "engine " << e << " never used the pool";
        EXPECT_EQ(r.makespan.micros, ref.makespan.micros);
        EXPECT_EQ(r.samples_evaluated, ref.samples_evaluated);
        EXPECT_EQ(r.sample_digest, ref.sample_digest);
        EXPECT_EQ(r.cache.hits, ref.cache.hits);
        EXPECT_EQ(r.atom_reads, ref.atom_reads);
        EXPECT_EQ(r.subqueries, ref.subqueries);
    }
}

TEST(ThreadStress, RepeatedPooledEngineRunsAreBitIdentical) {
    // Back-to-back pooled runs of the same configuration: real-thread
    // interleaving differs every time, the reports must not. Two rounds
    // rather than many keeps the tsan run inside its time budget.
    const core::EngineConfig cfg = eval_stress_config();
    const workload::Workload work = eval_stress_workload(cfg);
    core::Engine first(cfg);
    const core::RunReport r1 = first.run(work);
    core::Engine second(cfg);
    const core::RunReport r2 = second.run(work);
    ASSERT_GT(r1.eval_tasks, 0u);
    ASSERT_GT(r1.samples_evaluated, 0u);
    EXPECT_EQ(r1.makespan.micros, r2.makespan.micros);
    EXPECT_EQ(r1.samples_evaluated, r2.samples_evaluated);
    EXPECT_EQ(r1.sample_digest, r2.sample_digest);
    EXPECT_EQ(r1.eval_tasks, r2.eval_tasks);
    EXPECT_EQ(r1.idle_time.micros, r2.idle_time.micros);
}

TEST(ThreadStress, CondVarPingPong) {
    // Direct Mutex/CondVar exercise: two threads alternate strictly via a
    // guarded turn flag, 500 rounds each way.
    struct Court {
        util::Mutex mu;
        util::CondVar cv;
        int turn GUARDED_BY(mu) = 0;
        int rallies GUARDED_BY(mu) = 0;
    } court;
    constexpr int kRallies = 1000;

    auto player = [&court](int me) {
        for (;;) {
            util::MutexLock lock(court.mu);
            while (court.turn != me && court.rallies < kRallies) court.cv.wait(court.mu);
            if (court.rallies >= kRallies) return;
            ++court.rallies;
            court.turn = 1 - me;
            court.cv.notify_all();
        }
    };
    std::thread a(player, 0), b(player, 1);
    a.join();
    b.join();
    util::MutexLock lock(court.mu);
    EXPECT_EQ(court.rallies, kRallies);
}

}  // namespace
}  // namespace jaws
