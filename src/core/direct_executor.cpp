#include "core/direct_executor.h"

#include <cassert>
#include <cmath>
#include <map>

#include "cache/lru.h"
#include "util/wallclock.h"

namespace jaws::core {

DirectExecutor::DirectExecutor(const EngineConfig& config)
    : store_(storage::AtomStoreSpec{config.grid, config.field, config.disk,
                                    /*io_channels=*/1,
                                    /*materialize_data=*/true, config.faults}),
      cache_(config.cache.capacity_atoms, std::make_unique<cache::LruPolicy>()),
      db_(config.grid, config.compute) {
    if (config.cache.wall_clock_overhead) cache_.set_tick_source(util::wall_clock_ns);
    const std::size_t eval_threads =
        config.eval.threads != 0 ? config.eval.threads : config.compute_workers;
    if (config.eval.pool != nullptr) {
        eval_pool_ = config.eval.pool;
    } else if (config.eval.parallel && eval_threads > 1) {
        owned_pool_ = std::make_unique<util::ThreadPool>(eval_threads);
        eval_pool_ = owned_pool_.get();
    }
}

DirectResult DirectExecutor::evaluate(std::uint32_t timestep,
                                      const std::vector<field::Vec3>& positions,
                                      field::InterpOrder order) {
    DirectResult result;
    result.samples.resize(positions.size());

    // Group positions by atom (Morton-sorted map) so each atom is read once
    // and positions are evaluated in Morton order, as the production system
    // does (paper Sec. III-A).
    std::map<std::uint64_t, std::vector<std::size_t>> by_atom;
    for (std::size_t i = 0; i < positions.size(); ++i)
        by_atom[store_.grid().atom_morton_of(positions[i])].push_back(i);

    // Phase 1 — serial I/O: read and cache each atom (Morton-ordered map
    // walk) and build its sub-query. All cost accounting happens here, in
    // deterministic order, before any parallel work starts.
    struct AtomTask {
        storage::SubQueryExec exec;
        std::shared_ptr<const field::VoxelBlock> payload;
        const std::vector<std::size_t>* indices = nullptr;
    };
    std::vector<AtomTask> tasks;
    tasks.reserve(by_atom.size());
    for (const auto& [morton, indices] : by_atom) {
        const storage::AtomId atom{timestep, morton};
        if (cache_.lookup(atom)) {
            ++result.cache_hits;
        } else {
            ++result.cache_misses;
            storage::ReadResult rr = store_.read(atom);
            result.virtual_cost += rr.io_cost;
            cache_.insert(atom, std::move(rr.data));
        }
        AtomTask task;
        task.exec.atom = atom;
        task.exec.order = order;
        task.exec.kind = storage::ComputeKind::kVelocity;
        task.exec.positions.reserve(indices.size());
        for (const std::size_t i : indices) task.exec.positions.push_back(positions[i]);
        result.virtual_cost += db_.modeled_cost(task.exec);
        task.payload = cache_.payload(atom);
        task.indices = &indices;
        tasks.push_back(std::move(task));
    }

    // Phase 2 — evaluation, pooled when configured. Each atom's samples land
    // in disjoint output slots and futures are joined in Morton order, so the
    // result is bit-identical to the inline loop for any worker count.
    if (eval_pool_ != nullptr) {
        std::vector<std::future<storage::ExecOutcome>> pending;
        pending.reserve(tasks.size());
        for (const AtomTask& task : tasks)
            pending.push_back(eval_pool_->submit([this, &task] {
                return db_.execute(task.exec, task.payload.get());
            }));
        for (std::size_t k = 0; k < tasks.size(); ++k) {
            const storage::ExecOutcome out = pending[k].get();
            const std::vector<std::size_t>& indices = *tasks[k].indices;
            for (std::size_t j = 0; j < indices.size(); ++j)
                result.samples[indices[j]] = out.samples[j];
        }
    } else {
        for (const AtomTask& task : tasks) {
            const storage::ExecOutcome out = db_.execute(task.exec, task.payload.get());
            const std::vector<std::size_t>& indices = *task.indices;
            for (std::size_t j = 0; j < indices.size(); ++j)
                result.samples[indices[j]] = out.samples[j];
        }
    }
    return result;
}

VolumeStats DirectExecutor::evaluate_box(std::uint32_t timestep, const field::Vec3& lo,
                                         const field::Vec3& hi,
                                         std::uint32_t samples_per_axis,
                                         field::InterpOrder order) {
    assert(samples_per_axis >= 1);
    assert(lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z);
    // Regular sampling lattice over the box (cell-centred so a 1-sample axis
    // lands in the middle of the box rather than on its face).
    std::vector<field::Vec3> lattice;
    lattice.reserve(static_cast<std::size_t>(samples_per_axis) * samples_per_axis *
                    samples_per_axis);
    const auto coord = [&](double a, double b, std::uint32_t i) {
        return field::wrap01(a + (b - a) * (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(samples_per_axis));
    };
    for (std::uint32_t iz = 0; iz < samples_per_axis; ++iz)
        for (std::uint32_t iy = 0; iy < samples_per_axis; ++iy)
            for (std::uint32_t ix = 0; ix < samples_per_axis; ++ix)
                lattice.push_back(field::Vec3{coord(lo.x, hi.x, ix), coord(lo.y, hi.y, iy),
                                              coord(lo.z, hi.z, iz)});

    const DirectResult result = evaluate(timestep, lattice, order);

    VolumeStats stats;
    stats.samples = result.samples.size();
    stats.virtual_cost = result.virtual_cost;
    stats.atoms_touched = result.cache_hits + result.cache_misses;
    double sum_p = 0.0, sum_p2 = 0.0, sum_speed2 = 0.0;
    for (const auto& s : result.samples) {
        stats.mean_velocity = stats.mean_velocity + s.velocity;
        sum_speed2 += s.velocity.norm2();
        sum_p += s.pressure;
        sum_p2 += s.pressure * s.pressure;
    }
    const auto n = static_cast<double>(stats.samples);
    stats.mean_velocity = (1.0 / n) * stats.mean_velocity;
    stats.rms_velocity = std::sqrt(sum_speed2 / n);
    stats.mean_pressure = sum_p / n;
    stats.pressure_variance =
        std::max(0.0, sum_p2 / n - stats.mean_pressure * stats.mean_pressure);
    stats.kinetic_energy = 0.5 * sum_speed2 / n;
    return stats;
}

}  // namespace jaws::core
