// Reference estimator for k-of-n plans, kept apart from the library's
// assessment path: plain Monte-Carlo with every component failing
// independently with its registry probability, its own fault-tree
// evaluation and its own breadth-first search from the external node over
// the topology graph. It shares no code with the sampler, round_state, the
// routing oracles or the requirement evaluator; it reads only the topology,
// the registry's probabilities and the fault trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/component_registry.hpp"
#include "faults/fault_tree.hpp"
#include "topology/graph.hpp"

namespace rbench {

struct reference_estimate {
    std::uint64_t reliable = 0;
    std::uint64_t rounds = 0;
    [[nodiscard]] double reliability() const noexcept {
        return rounds == 0 ? 0.0
                           : static_cast<double>(reliable) /
                                 static_cast<double>(rounds);
    }
};

class reference_estimator {
public:
    /// `forest` may be null. All three must outlive the estimator.
    reference_estimator(const recloud::built_topology& topology,
                        const recloud::component_registry& registry,
                        const recloud::fault_tree_forest* forest);

    /// R of "at least k of `hosts` are alive and reachable from the
    /// external node" over `rounds` independent rounds.
    [[nodiscard]] reference_estimate k_of_n(std::span<const recloud::node_id> hosts,
                                            std::uint32_t k, std::uint64_t rounds,
                                            std::uint64_t seed);

private:
    struct gate {
        recloud::gate_kind kind = recloud::gate_kind::leaf;
        std::uint32_t k = 0;
        recloud::component_id leaf = 0;
        std::vector<std::uint32_t> children;
    };

    void sample_round();
    [[nodiscard]] bool raw_failed(recloud::component_id id) const noexcept {
        return failed_stamp_[id] == round_;
    }
    [[nodiscard]] bool gate_failed(std::uint32_t g) const;
    [[nodiscard]] bool alive(recloud::node_id node);
    [[nodiscard]] std::uint64_t next_random() noexcept;

    const recloud::built_topology* topology_;
    std::vector<double> probability_;
    double max_probability_ = 0.0;
    std::vector<gate> gates_;            ///< copy of the fault trees
    std::vector<std::uint32_t> root_;    ///< per component, or none
    std::uint64_t state_ = 0;            ///< splitmix64
    std::uint32_t round_ = 0;
    std::vector<std::uint32_t> failed_stamp_;
    std::vector<std::uint32_t> visited_stamp_;
    std::vector<std::uint32_t> alive_stamp_;  ///< memo of alive() this round
    std::vector<std::uint8_t> alive_value_;
    std::vector<recloud::node_id> queue_;
    std::vector<std::uint32_t> wanted_stamp_;
    /// Degree-1 hosts: no path can pass through them, so the search skips
    /// every one that is not a plan host.
    std::vector<std::uint8_t> leaf_;
};

}  // namespace rbench
