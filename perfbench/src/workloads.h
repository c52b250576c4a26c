// The replay benchmark's four fixed workloads.
//
// Each workload is a configuration of the public simulator API plus a
// generator spec. The job mix is the generator's reference trace (the spec's
// own seed, 7, as in every bench); the run seed dithers its arrival times
// and draws the materialised positions. The seed never changes the
// configuration, and a given seed always replays the same inputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/cluster.h"
#include "core/config.h"
#include "workload/generator.h"

namespace perfbench {

struct WorkloadDef {
    /// Replayed on a TurbulenceCluster (config.node is the node template);
    /// otherwise on a single core::Engine with config.node.
    bool cluster = false;
    jaws::core::ClusterConfig config;
    jaws::workload::WorkloadSpec spec;
    /// Give every query explicit positions (real interpolation).
    bool materialize = false;
    /// Fig. 11's arrival compression (1 = the calibrated trace's gaps).
    double speedup = 1.0;
};

/// The named workload with tracing hooks off. Throws std::invalid_argument
/// for an unknown name.
WorkloadDef make_workload(const std::string& name);

/// Generated inputs of one run, with the host seconds each step took.
struct Inputs {
    jaws::workload::Workload workload;
    double generate_s = 0.0;
    double materialize_s = 0.0;
};

/// Generate `def`'s trace with arrivals dithered by `seed` (and its
/// positions, when materialised, drawn from `seed`).
Inputs generate_inputs(const WorkloadDef& def, std::uint64_t seed);

/// Turn on the two wall-clock hooks the simulator already has
/// (CacheSpec::wall_clock_overhead, EvalSpec::wall_clock_timing).
void enable_wall_clock_hooks(jaws::core::EngineConfig& config);

}  // namespace perfbench
