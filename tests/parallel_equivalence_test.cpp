// Parallel-evaluation equivalence harness (core/engine.h + EvalSpec).
//
// The engine dispatches real sub-query interpolation onto util::ThreadPool
// while the modeled T_m service on SimResource stays authoritative for
// virtual time, and reduces worker results strictly in virtual
// completion-event order. The contract under test: for every worker count,
// a pooled run is bit-identical to the inline (serial-evaluation) engine —
// same virtual trace, same samples, same digests — and repeat runs are
// bit-identical to each other, including under seeded fault injection. The
// golden rows below pin the per-worker-count traces so a silent divergence
// in either the virtual schedule or the reduction order fails loudly.
//
// Note the modeled trace *does* legitimately differ across worker counts
// (more CPU channels change the schedule); what must never differ is
// pooled-vs-inline at the same count, or run-vs-run at the same config.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

EngineConfig fixture_config(std::size_t workers, bool parallel) {
    EngineConfig c;
    c.grid.voxels_per_side = 128;
    c.grid.atom_side = 32;
    c.grid.ghost = 4;  // kLag8 kernels need 4 ghost voxels at atom edges
    c.grid.timesteps = 4;
    c.field.modes = 4;
    c.cache.capacity_atoms = 16;
    c.run_length = 25;
    c.io_depth = 2;
    c.compute_workers = workers;
    c.materialize_data = true;  // real voxel payloads -> real interpolation
    c.eval.parallel = parallel;
    return c;
}

workload::Workload fixture_workload(const EngineConfig& c) {
    workload::WorkloadSpec spec;
    spec.jobs = 8;
    spec.seed = 5;
    spec.max_positions = 800;  // bound the real interpolation work per query
    const field::SyntheticField field(c.field);
    workload::Workload w = workload::generate_workload(spec, c.grid, field);
    workload::materialize_positions(w, c.grid, /*seed=*/17);
    return w;
}

void expect_reports_identical(const RunReport& pooled, const RunReport& inline_r) {
    EXPECT_EQ(pooled.makespan.micros, inline_r.makespan.micros);
    EXPECT_EQ(pooled.idle_time.micros, inline_r.idle_time.micros);
    EXPECT_EQ(pooled.sample_digest, inline_r.sample_digest);
    EXPECT_EQ(pooled.samples_evaluated, inline_r.samples_evaluated);
    EXPECT_EQ(pooled.cache.hits, inline_r.cache.hits);
    EXPECT_EQ(pooled.cache.misses, inline_r.cache.misses);
    EXPECT_EQ(pooled.atom_reads, inline_r.atom_reads);
    EXPECT_EQ(pooled.support_reads, inline_r.support_reads);
    EXPECT_EQ(pooled.subqueries, inline_r.subqueries);
    EXPECT_EQ(pooled.positions, inline_r.positions);
    EXPECT_EQ(pooled.queries, inline_r.queries);
    EXPECT_EQ(pooled.read_retries, inline_r.read_retries);
    EXPECT_EQ(pooled.read_failures, inline_r.read_failures);
    EXPECT_EQ(pooled.failed_subqueries, inline_r.failed_subqueries);
    EXPECT_EQ(pooled.degraded_queries, inline_r.degraded_queries);
    EXPECT_EQ(pooled.retry_backoff_time.micros, inline_r.retry_backoff_time.micros);
    EXPECT_EQ(pooled.peak_cpu_busy, inline_r.peak_cpu_busy);
    EXPECT_EQ(pooled.peak_disk_busy, inline_r.peak_disk_busy);
}

void expect_outcomes_identical(const std::vector<QueryOutcome>& a,
                               const std::vector<QueryOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].query, b[i].query);
        EXPECT_EQ(a[i].completed.micros, b[i].completed.micros);
        EXPECT_EQ(a[i].samples_evaluated, b[i].samples_evaluated);
        EXPECT_EQ(a[i].sample_digest, b[i].sample_digest);
        EXPECT_EQ(a[i].failed_subqueries, b[i].failed_subqueries);
    }
}

constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

TEST(ParallelEquivalence, PooledEvalIsBitIdenticalToInlineAtEveryWorkerCount) {
    for (const std::size_t w : kWorkerCounts) {
        SCOPED_TRACE("compute_workers=" + std::to_string(w));
        const EngineConfig pooled_cfg = fixture_config(w, /*parallel=*/true);
        const workload::Workload work = fixture_workload(pooled_cfg);

        Engine pooled(pooled_cfg);
        const RunReport rp = pooled.run(work);
        Engine inline_e(fixture_config(w, /*parallel=*/false));
        const RunReport ri = inline_e.run(work);

        // The pooled run really ran on the pool; the inline run never did.
        EXPECT_EQ(rp.eval_threads, w);
        EXPECT_GT(rp.eval_tasks, 0u);
        EXPECT_EQ(ri.eval_threads, 0u);
        EXPECT_EQ(ri.eval_tasks, 0u);
        EXPECT_GT(rp.samples_evaluated, 0u);

        expect_reports_identical(rp, ri);
        expect_outcomes_identical(pooled.outcomes(), inline_e.outcomes());
    }
}

TEST(ParallelEquivalence, RepeatedPooledRunsAreBitIdentical) {
    for (const std::size_t w : kWorkerCounts) {
        SCOPED_TRACE("compute_workers=" + std::to_string(w));
        const EngineConfig cfg = fixture_config(w, /*parallel=*/true);
        const workload::Workload work = fixture_workload(cfg);
        Engine first(cfg);
        const RunReport r1 = first.run(work);
        Engine second(cfg);
        const RunReport r2 = second.run(work);
        expect_reports_identical(r1, r2);
        expect_outcomes_identical(first.outcomes(), second.outcomes());
    }
}

TEST(ParallelEquivalence, ExternalSharedPoolMatchesEngineOwnedPool) {
    // A pool shared across engines (the cluster facade's arrangement) must
    // not change anything: the reduction order is fixed by virtual events,
    // not by which pool ran the work.
    util::ThreadPool shared(3);  // deliberately != compute_workers
    for (const std::size_t w : {2, 4}) {
        SCOPED_TRACE("compute_workers=" + std::to_string(w));
        EngineConfig ext_cfg = fixture_config(w, /*parallel=*/true);
        ext_cfg.eval.pool = &shared;
        const workload::Workload work = fixture_workload(ext_cfg);
        Engine ext(ext_cfg);
        const RunReport re = ext.run(work);
        EXPECT_EQ(re.eval_threads, shared.size());
        Engine owned(fixture_config(w, /*parallel=*/true));
        const RunReport ro = owned.run(work);
        expect_reports_identical(re, ro);
        expect_outcomes_identical(ext.outcomes(), owned.outcomes());
    }
}

// ---------------------------------------------------------------------------
// Golden-pinned traces. Captured from this fixture at the introduction of
// the parallel-evaluation path (pooled and inline agreed bit-for-bit at
// capture time, and the suite above keeps proving they agree). If a row
// breaks, the virtual schedule or the deterministic reduction order changed.
// ---------------------------------------------------------------------------

struct Golden {
    std::size_t workers;
    std::int64_t makespan_us;
    std::uint64_t samples;
    std::uint64_t digest;
};

constexpr Golden kGoldens[] = {
    {1, 447461354, 321333, 0x328d815406c1a72ull},
    {2, 447194614, 321332, 0x75d8134506426ad0ull},
    {4, 447194614, 321332, 0x75d8134506426ad0ull},
    {8, 447194614, 321332, 0x75d8134506426ad0ull},
};

TEST(ParallelEquivalence, GoldenPinnedTracePerWorkerCount) {
    for (const Golden& g : kGoldens) {
        SCOPED_TRACE("compute_workers=" + std::to_string(g.workers));
        const EngineConfig cfg = fixture_config(g.workers, /*parallel=*/true);
        Engine engine(cfg);
        const RunReport r = engine.run(fixture_workload(cfg));
        EXPECT_EQ(r.makespan.micros, g.makespan_us);
        EXPECT_EQ(r.samples_evaluated, g.samples);
        EXPECT_EQ(r.sample_digest, g.digest);
    }
}

// --- seeded fault injection: retries and failures must not disturb the
// reduction, and the recovery counters must match the inline engine exactly.

EngineConfig faulted_config(std::size_t workers, bool parallel) {
    EngineConfig c = fixture_config(workers, parallel);
    c.faults.seed = 1234;
    c.faults.transient_error_rate = 0.25;
    c.faults.latency_spike_rate = 0.25;
    c.faults.latency_spike_mean_ms = 40.0;
    return c;
}

TEST(ParallelEquivalence, FaultedPooledRunMatchesInlineRecoveryExactly) {
    for (const std::size_t w : kWorkerCounts) {
        SCOPED_TRACE("compute_workers=" + std::to_string(w));
        const EngineConfig pooled_cfg = faulted_config(w, /*parallel=*/true);
        const workload::Workload work = fixture_workload(pooled_cfg);
        Engine pooled(pooled_cfg);
        const RunReport rp = pooled.run(work);
        Engine inline_e(faulted_config(w, /*parallel=*/false));
        const RunReport ri = inline_e.run(work);
        EXPECT_GT(rp.read_retries, 0u);  // the faults actually fired
        expect_reports_identical(rp, ri);
        expect_outcomes_identical(pooled.outcomes(), inline_e.outcomes());
    }
}

struct FaultGolden {
    std::size_t workers;
    std::int64_t makespan_us;
    std::uint64_t retries;
    std::uint64_t digest;
};

constexpr FaultGolden kFaultGoldens[] = {
    {1, 447533482, 26, 0xe8fbc78f3d3a1050ull},
    {2, 447194614, 26, 0x415b0b2f5b5f07a8ull},
    {4, 447194614, 26, 0x415b0b2f5b5f07a8ull},
    {8, 447194614, 26, 0x415b0b2f5b5f07a8ull},
};

TEST(ParallelEquivalence, GoldenPinnedFaultedTracePerWorkerCount) {
    for (const FaultGolden& g : kFaultGoldens) {
        SCOPED_TRACE("compute_workers=" + std::to_string(g.workers));
        const EngineConfig cfg = faulted_config(g.workers, /*parallel=*/true);
        Engine engine(cfg);
        const RunReport r = engine.run(fixture_workload(cfg));
        EXPECT_EQ(r.makespan.micros, g.makespan_us);
        EXPECT_EQ(r.read_retries, g.retries);
        EXPECT_EQ(r.sample_digest, g.digest);
    }
}

}  // namespace
}  // namespace jaws::core
