#include "reference.hpp"

#include <algorithm>
#include <cmath>

namespace rbench {

using namespace recloud;

namespace {
constexpr std::uint32_t no_tree = static_cast<std::uint32_t>(-1);
}

reference_estimator::reference_estimator(const built_topology& topology,
                                         const component_registry& registry,
                                         const fault_tree_forest* forest)
    : topology_(&topology),
      probability_(registry.probabilities().begin(),
                   registry.probabilities().end()),
      root_(registry.size(), no_tree),
      failed_stamp_(registry.size(), 0),
      visited_stamp_(topology.graph.node_count(), 0),
      alive_stamp_(topology.graph.node_count(), 0),
      alive_value_(topology.graph.node_count(), 0),
      wanted_stamp_(topology.graph.node_count(), 0),
      leaf_(topology.graph.node_count(), 0) {
    for (const node_id host : topology.hosts) {
        leaf_[host] = topology.graph.degree(host) == 1 ? 1 : 0;
    }
    for (const double p : probability_) {
        max_probability_ = std::max(max_probability_, p);
    }
    if (forest == nullptr) {
        return;
    }
    gates_.resize(forest->tree_node_count());
    for (std::uint32_t id = 0; id < gates_.size(); ++id) {
        const fault_tree_forest::node_view view = forest->node(id);
        gates_[id].kind = view.kind;
        gates_[id].k = view.k;
        gates_[id].leaf = view.leaf;
        gates_[id].children.assign(view.children.begin(), view.children.end());
    }
    for (component_id c = 0; c < root_.size(); ++c) {
        if (c < forest->component_count() && forest->has_tree(c)) {
            root_[c] = forest->root_of(c);
        }
    }
}

std::uint64_t reference_estimator::next_random() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void reference_estimator::sample_round() {
    ++round_;
    if (max_probability_ <= 0.0) {
        return;
    }
    // Independent Bernoulli(p_i) for every component, by thinning: walk the
    // components with geometric gaps at the largest probability and keep a
    // candidate with probability p_i / p_max.
    const double log_q = std::log1p(-max_probability_);
    const std::size_t count = probability_.size();
    std::size_t i = 0;
    for (;;) {
        const double u = static_cast<double>((next_random() >> 11) + 1) * 0x1.0p-53;
        const double gap = max_probability_ >= 1.0 ? 0.0 : std::floor(std::log(u) / log_q);
        if (gap >= static_cast<double>(count - i)) {
            return;
        }
        i += static_cast<std::size_t>(gap);
        const double v = static_cast<double>(next_random() >> 11) * 0x1.0p-53;
        if (v * max_probability_ < probability_[i]) {
            failed_stamp_[i] = round_;
        }
        if (++i >= count) {
            return;
        }
    }
}

bool reference_estimator::gate_failed(std::uint32_t g) const {
    const gate& node = gates_[g];
    switch (node.kind) {
        case gate_kind::leaf:
            return raw_failed(node.leaf);
        case gate_kind::or_gate:
            return std::any_of(node.children.begin(), node.children.end(),
                               [this](std::uint32_t c) { return gate_failed(c); });
        case gate_kind::and_gate:
            return std::all_of(node.children.begin(), node.children.end(),
                               [this](std::uint32_t c) { return gate_failed(c); });
        case gate_kind::k_of_n_gate: {
            std::uint32_t failed = 0;
            for (const std::uint32_t c : node.children) {
                failed += gate_failed(c) ? 1 : 0;
            }
            return failed >= node.k;
        }
    }
    return false;
}

bool reference_estimator::alive(node_id node) {
    if (alive_stamp_[node] != round_) {
        alive_stamp_[node] = round_;
        const bool failed = raw_failed(node) ||
                            (root_[node] != no_tree && gate_failed(root_[node]));
        alive_value_[node] = failed ? 0 : 1;
    }
    return alive_value_[node] != 0;
}

reference_estimate reference_estimator::k_of_n(std::span<const node_id> hosts,
                                               std::uint32_t k,
                                               std::uint64_t rounds,
                                               std::uint64_t seed) {
    state_ = seed;
    reference_estimate estimate;
    const network_graph& graph = topology_->graph;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        sample_round();
        std::size_t wanted = 0;
        for (const node_id host : hosts) {
            if (wanted_stamp_[host] != round_) {
                wanted_stamp_[host] = round_;
                ++wanted;
            }
        }
        std::size_t reached = 0;
        queue_.clear();
        const node_id external = topology_->external;
        if (alive(external)) {
            visited_stamp_[external] = round_;
            queue_.push_back(external);
        }
        for (std::size_t head = 0; head < queue_.size() && reached < wanted; ++head) {
            for (const node_id next : graph.neighbors(queue_[head])) {
                if (visited_stamp_[next] == round_ ||
                    (leaf_[next] != 0 && wanted_stamp_[next] != round_) ||
                    !alive(next)) {
                    continue;
                }
                visited_stamp_[next] = round_;
                if (wanted_stamp_[next] == round_ && ++reached == wanted) {
                    break;
                }
                queue_.push_back(next);
            }
        }
        ++estimate.rounds;
        if (reached >= k) {
            ++estimate.reliable;
        }
    }
    return estimate;
}

}  // namespace rbench
