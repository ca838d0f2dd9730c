// The four workloads and the metric catalogue they report against.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace rbench {

/// Route-and-check rounds per assessment (§4.1's X).
[[nodiscard]] std::size_t assessment_rounds(const run_options& options);

/// Seed of the i-th fixed plan of assess_paper (engine_socket reuses the
/// medium ones). Plans are inputs like the topology: the same for every
/// --seed, which drives the failure streams, so a seed changes the rounds
/// and not which plans are measured.
[[nodiscard]] inline std::uint64_t fixed_plan_seed(std::size_t i) {
    return derive_seed(0x9e1a2017, i);
}

/// How often a workload repeats its set-up; setup_s is the median.
[[nodiscard]] inline int setup_repetitions(const run_options& options) {
    return options.reduced ? 1 : 15;
}

outcome run_assess_paper(const run_options& options);
outcome run_engine_socket(const run_options& options);
outcome run_search_realistic(const run_options& options);
outcome run_service_mixed(const run_options& options);

/// Numbers a workload measured, by metric name.
using measured = std::map<std::string, double>;

/// Appends every end-to-end metric of the catalogue to `result`, in
/// catalogue order, taking values from `values` (a missing one is a bug and
/// fails the run).
void emit_end_to_end(outcome& result, const measured& values);

/// Appends every per-layer metric of the catalogue. A layer a workload does
/// not cross has no entry in `values` and reads 0.
void emit_per_layer(outcome& result, const measured& values);

/// Where the traced run writes its Chrome trace.
[[nodiscard]] std::string trace_path(const run_options& options);

}  // namespace rbench
