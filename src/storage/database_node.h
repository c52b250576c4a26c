// Database node executor.
//
// In the Turbulence cluster each node evaluates "sub-queries": lists of
// positions that all fall within one atom, executed in a single pass over
// that atom's data (paper Sec. III-B). This executor performs that evaluation:
// it charges the per-position computation cost T_m on the virtual clock and —
// when the atom's voxel payload is materialised — actually interpolates
// velocity/pressure at each position, so example programs obtain real values.
#pragma once

#include <cstdint>
#include <vector>

#include "field/grid.h"
#include "field/interpolation.h"
#include "storage/atom.h"
#include "util/sim_time.h"

namespace jaws::storage {

/// What a sub-query computes at each position.
enum class ComputeKind : std::uint8_t {
    kVelocity,  ///< Interpolated velocity vector.
    kPressure,  ///< Interpolated pressure.
    kFlowStats, ///< Aggregate statistics of velocity magnitude over positions.
};

/// Virtual-time cost constants of computation (T_m in Eq. 1).
struct CostModel {
    double t_m_us = 40.0;  ///< Virtual microseconds of compute per position.
};

/// One unit of executable work: positions of a single query falling inside a
/// single atom. `positions` may be empty for descriptor-only workloads, in
/// which case `position_count` carries the cardinality.
struct SubQueryExec {
    AtomId atom;
    std::uint64_t position_count = 0;
    std::vector<field::Vec3> positions;  ///< Optional explicit positions.
    field::InterpOrder order = field::InterpOrder::kLag4;
    ComputeKind kind = ComputeKind::kVelocity;

    /// Effective number of positions (explicit list wins when present).
    std::uint64_t count() const noexcept {
        return positions.empty() ? position_count : positions.size();
    }
};

/// Result of executing one sub-query.
struct ExecOutcome {
    util::SimTime compute_cost;                ///< Virtual compute time charged.
    std::vector<field::FlowSample> samples;    ///< Per-position results (if data given).
};

/// Stateless executor bound to a grid geometry and cost model.
///
/// Materialised sub-queries evaluate through the batched SIMD-friendly
/// field::BatchInterpolator, which is bit-identical to the scalar
/// field::interpolate() oracle (tests/batch_interpolation_test.cpp).
class DatabaseNode {
  public:
    DatabaseNode(const field::GridSpec& grid, const CostModel& cost)
        : grid_(grid), cost_(cost) {}

    /// Execute `work` against `data` (the atom's voxel payload, or null for
    /// descriptor-only execution). Cost is charged either way; samples are
    /// produced only when both data and explicit positions are present.
    ExecOutcome execute(const SubQueryExec& work, const field::VoxelBlock* data) const;

    /// Virtual compute time `work` will be charged (T_m per position, Eq. 1),
    /// without evaluating anything. The engine charges this on SimResource as
    /// the authoritative service duration while the real interpolation runs
    /// on the evaluation pool; execute() charges exactly the same amount, so
    /// the virtual trace is identical whether evaluation is inline or pooled.
    util::SimTime modeled_cost(const SubQueryExec& work) const noexcept;

    /// The cost model in effect.
    const CostModel& cost_model() const noexcept { return cost_; }

  private:
    field::GridSpec grid_;
    CostModel cost_;
};

}  // namespace jaws::storage
