// Overlapped-I/O ablation — what the event kernel's pipeline buys.
//
// The engine models a disk with `io_depth` service channels and a CPU pool
// with `compute_workers` workers; batch items flow read -> evaluate with up
// to io_depth items in flight, so deeper pipelines hide read latency behind
// evaluation of earlier items. This harness sweeps io_depth x compute_workers
// on a dense, cold-cache workload (the I/O-bound regime) and reports the
// makespan alongside the kernel's resource accounting: disk/CPU utilization
// and the fraction of the run where I/O and compute proceeded
// simultaneously. io_depth = 1, compute_workers = 1 is bit-identical to the
// pre-kernel serial engine and anchors the comparison.
//
// The second section measures the *real* parallel-evaluation path: a
// compute-bound materialized fixture where sub-query interpolation runs on
// util::ThreadPool, timed with util::wall_clock_ns (bench-only; tests stay on
// virtual time). Results land in BENCH_parallel_eval.json next to stdout;
// the binary exits non-zero when a pooled digest diverges from its inline
// twin or a row's sample count differs from the workload's positions.
//
// Also emits a machine-readable CSV block (prefixed `csv,`) for plotting.
#include <fstream>
#include <thread>

#include "bench_common.h"
#include "util/wallclock.h"

namespace {

jaws::core::EngineConfig overlap_config(std::size_t io_depth, std::size_t workers) {
    jaws::core::EngineConfig config = jaws::bench::base_config();
    config.scheduler = jaws::bench::jaws2_spec();
    config.io_depth = io_depth;
    config.compute_workers = workers;
    return config;
}

// Compute-bound materialized fixture: small grid, every query carries
// explicit positions, so real Lagrange interpolation dominates the run's
// wall time and the evaluation pool is the binding resource.
jaws::core::EngineConfig parallel_eval_config(std::size_t workers, bool pooled) {
    jaws::core::EngineConfig config;
    config.scheduler = jaws::bench::jaws2_spec();
    config.grid.voxels_per_side = 128;
    config.grid.atom_side = 32;
    config.grid.ghost = 4;
    config.grid.timesteps = 4;
    config.field.modes = 4;
    config.cache.capacity_atoms = 16;
    config.run_length = 25;
    config.io_depth = 2;
    config.compute_workers = workers;
    config.materialize_data = true;
    config.eval.parallel = pooled;
    config.eval.wall_clock_timing = true;
    return config;
}

struct EvalRow {
    std::size_t workers;
    bool pooled;
    double wall_ms;
    double wall_speedup;
    double eval_ms;
    double modeled_s;
    double modeled_speedup;
    std::uint64_t eval_tasks;
    std::uint64_t samples;
    std::uint64_t digest;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 200);

    core::EngineConfig base = overlap_config(1, 1);
    const field::SyntheticField field(base.field);
    // Dense arrivals keep a backlog of due queries, so the disk rarely waits
    // on the workload and the pipeline depth is the binding constraint.
    workload::WorkloadSpec wspec = bench::base_workload_spec();
    wspec.jobs = jobs;
    wspec.mean_burst_gap_s = 0.05;
    wspec.mean_intra_burst_gap_s = 0.05;
    wspec.mean_think_time_s = 0.01;
    wspec.frac_single_step = 1.0;
    wspec.frac_ordered_single_step = 0.0;
    const workload::Workload workload = workload::generate_workload(wspec, base.grid, field);
    std::printf("# Overlap ablation: JAWS_2, %zu queries, dense unordered arrivals\n\n",
                workload.total_queries());

    const std::size_t depths[] = {1, 2, 4, 8};
    const std::size_t worker_counts[] = {1, 2};
    std::printf("%-8s %-8s %12s %10s %10s %10s %10s %10s\n", "depth", "workers",
                "makespan(s)", "tp(q/s)", "disk_util", "cpu_util", "overlap", "speedup");
    std::vector<std::string> csv;
    csv.push_back("csv,io_depth,compute_workers,makespan_s,throughput_qps,disk_util,"
                  "cpu_util,overlap_fraction,prefetch_aborted");
    double serial_makespan = 0.0;
    for (const std::size_t workers : worker_counts) {
        for (const std::size_t depth : depths) {
            const core::RunReport r =
                bench::run_one(overlap_config(depth, workers), workload);
            if (depth == 1 && workers == 1) serial_makespan = r.makespan.seconds();
            std::printf("%-8zu %-8zu %12.1f %10.3f %9.1f%% %9.1f%% %9.1f%% %9.2fx\n",
                        depth, workers, r.makespan.seconds(), r.throughput_qps,
                        100.0 * r.disk_utilization, 100.0 * r.cpu_utilization,
                        100.0 * r.overlap_fraction,
                        serial_makespan / r.makespan.seconds());
            std::fflush(stdout);
            char row[256];
            std::snprintf(row, sizeof row, "csv,%zu,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%llu",
                          depth, workers, r.makespan.seconds(), r.throughput_qps,
                          r.disk_utilization, r.cpu_utilization, r.overlap_fraction,
                          static_cast<unsigned long long>(r.prefetch_aborted));
            csv.push_back(row);
        }
    }
    std::printf("\n");
    for (const std::string& row : csv) std::printf("%s\n", row.c_str());
    std::printf("\n(depth 1 / 1 worker reproduces the serial engine exactly; speedup\n"
                " saturates once the slower resource is the bottleneck)\n");

    // ------------------------------------------------------------------
    // Parallel real evaluation: wall-clock sweep over compute_workers.
    // ------------------------------------------------------------------
    const std::size_t eval_jobs = jobs >= 200 ? 8 : (jobs > 0 ? jobs : 8);
    core::EngineConfig eval_base = parallel_eval_config(1, /*pooled=*/false);
    workload::WorkloadSpec espec;
    espec.jobs = eval_jobs;
    espec.seed = 5;
    // Heavy per-query interpolation (median ~8100 positions instead of the
    // trace's ~490) so the real Lagrange kernels dominate the wall time
    // (~80% of the run) and the pool is the binding resource.
    espec.positions_mu = 9.0;
    espec.min_positions = 4000;
    espec.max_positions = 60000;
    const field::SyntheticField efield(eval_base.field);
    workload::Workload ework = workload::generate_workload(espec, eval_base.grid, efield);
    workload::materialize_positions(ework, eval_base.grid, /*seed=*/17);
    std::uint64_t eval_positions = 0;
    for (const workload::Job& job : ework.jobs) eval_positions += job.total_positions();

    std::printf("\n# Parallel evaluation: %zu jobs, materialized positions, "
                "%u hardware threads\n\n",
                eval_jobs, std::thread::hardware_concurrency());
    std::printf("%-8s %-8s %12s %10s %12s %12s %10s %12s\n", "workers", "pooled",
                "wall(ms)", "speedup", "eval(ms)", "modeled(s)", "m.speedup",
                "samples");

    std::vector<EvalRow> rows;
    const auto timed_run = [&](std::size_t workers, bool pooled) {
        const core::EngineConfig cfg = parallel_eval_config(workers, pooled);
        core::Engine engine(cfg);
        const std::uint64_t t0 = util::wall_clock_ns();
        const core::RunReport r = engine.run(ework);
        const std::uint64_t t1 = util::wall_clock_ns();
        EvalRow row;
        row.workers = workers;
        row.pooled = pooled;
        row.wall_ms = static_cast<double>(t1 - t0) / 1e6;
        row.eval_ms = static_cast<double>(r.eval_wall_ns) / 1e6;
        row.modeled_s = r.makespan.seconds();
        row.eval_tasks = r.eval_tasks;
        row.samples = r.samples_evaluated;
        row.digest = r.sample_digest;
        return row;
    };

    // The trace legitimately differs across worker counts (more modeled CPU
    // channels change the schedule), so digests are compared pooled vs
    // inline at the SAME count; the sample count is schedule-independent and
    // must equal the workload's positions in every row.
    double base_wall = 0.0, base_modeled = 0.0;
    bool digests_agree = true;
    bool samples_agree = true;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
        EvalRow inline_row = timed_run(workers, /*pooled=*/false);
        EvalRow pooled_row = timed_run(workers, /*pooled=*/true);
        if (workers == 1) {
            base_wall = inline_row.wall_ms;
            base_modeled = inline_row.modeled_s;
        }
        if (pooled_row.digest != inline_row.digest) digests_agree = false;
        if (inline_row.samples != eval_positions || pooled_row.samples != eval_positions)
            samples_agree = false;
        rows.push_back(inline_row);
        rows.push_back(pooled_row);
    }
    for (EvalRow& row : rows) {
        row.wall_speedup = base_wall / row.wall_ms;
        row.modeled_speedup = base_modeled / row.modeled_s;
        std::printf("%-8zu %-8s %12.1f %9.2fx %12.1f %12.3f %9.2fx %12llu\n",
                    row.workers, row.pooled ? "yes" : "no", row.wall_ms,
                    row.wall_speedup, row.eval_ms, row.modeled_s,
                    row.modeled_speedup, static_cast<unsigned long long>(row.samples));
    }
    std::printf("\n(each pooled row must reproduce its inline twin's digest and every row\n"
                " must evaluate all %llu positions; wall speedup is bounded by the\n"
                " machine's hardware threads)\n",
                static_cast<unsigned long long>(eval_positions));
    if (!digests_agree) std::printf("FAIL: a pooled digest diverged from its inline twin\n");
    if (!samples_agree)
        std::printf("FAIL: a row evaluated a sample count other than the workload's "
                    "positions\n");

    std::ofstream json("BENCH_parallel_eval.json");
    json << "{\n"
         << "  \"bench\": \"parallel_eval\",\n"
         << "  \"jobs\": " << eval_jobs << ",\n"
         << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
         << "  \"positions\": " << eval_positions << ",\n"
         << "  \"digests_agree\": " << (digests_agree ? "true" : "false") << ",\n"
         << "  \"samples_agree\": " << (samples_agree ? "true" : "false") << ",\n"
         << "  \"note\": \"digests_agree compares each pooled run to the inline run "
            "at the same worker count; samples_agree requires every row to evaluate "
            "all of the workload's positions; wall speedup is capped by hardware_threads — "
            "on machines with fewer cores than workers the modeled speedup shows "
            "the schedule-level scaling\",\n"
         << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const EvalRow& row = rows[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "    {\"compute_workers\": %zu, \"pooled\": %s, "
                      "\"wall_ms\": %.3f, \"wall_speedup\": %.3f, "
                      "\"eval_wall_ms\": %.3f, "
                      "\"modeled_makespan_s\": %.6f, \"modeled_speedup\": %.3f, "
                      "\"eval_tasks\": %llu, \"samples\": %llu, "
                      "\"digest\": \"0x%llx\"}%s\n",
                      row.workers, row.pooled ? "true" : "false", row.wall_ms,
                      row.wall_speedup, row.eval_ms, row.modeled_s, row.modeled_speedup,
                      static_cast<unsigned long long>(row.eval_tasks),
                      static_cast<unsigned long long>(row.samples),
                      static_cast<unsigned long long>(row.digest),
                      i + 1 < rows.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_parallel_eval.json\n");
    return digests_agree && samples_agree ? 0 : 1;
}
