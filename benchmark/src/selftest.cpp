// Self-tests of the benchmark's own machinery: statistics, the percentile
// rule, the CIW-versus-spread check, open-loop timing, the reference
// estimator against closed forms, and every workload in reduced-size mode
// (untraced and traced), so each of their output checks runs in seconds.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "reference.hpp"
#include "topology/graph.hpp"
#include "workloads.hpp"

namespace rbench {

using namespace recloud;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "  ok  " : "  FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

bool near(double a, double b, double tolerance = 1e-9) {
    return std::fabs(a - b) <= tolerance;
}

void test_quantiles() {
    std::printf("statistics: median and quartiles\n");
    const std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    const std::vector<double> q = quantiles(ten, 4);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
           "quartiles of 1..10 match Python");
    const std::vector<double> five = quantiles({1, 2, 3, 4, 5}, 4);
    expect(near(five[0], 1.5) && near(five[1], 3.0) && near(five[2], 4.5),
           "quartiles of 1..5 match Python");
    expect(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 3, 2}), 2.5),
           "median of odd and even counts");
    expect(near(quantiles({7.0}, 4)[1], 7.0), "a single value is its own quartile");
}

void test_percentile_rule() {
    std::printf("statistics: percentile rule\n");
    std::vector<double> samples;
    for (int i = 1; i <= 99; ++i) {
        samples.push_back(i);
    }
    const timing_summary few = summarize(samples);
    expect(!few.p90.has_value() && near(few.p50, 50.0),
           "99 samples: median only, no p90");
    samples.push_back(100);
    const timing_summary enough = summarize(samples);
    // statistics.quantiles(range(1, 101), n=10)[8] == 90.9
    expect(enough.p90.has_value() && near(*enough.p90, 90.9) && near(enough.p50, 50.5),
           "100 samples: p90 = 90.9 as Python computes it");
}

void test_ciw_spread() {
    std::printf("statistics: CIW95 versus observed spread\n");
    std::mt19937_64 random{42};
    const std::size_t n = 10'000;
    const auto estimates = [&](double jitter, double* mean_variance) {
        std::vector<double> r;
        double v = 0.0;
        std::uniform_real_distribution<double> shift{-1.0, 1.0};
        for (int m = 0; m < 40; ++m) {
            std::bernoulli_distribution trial{0.97 + jitter * shift(random)};
            std::size_t reliable = 0;
            for (std::size_t i = 0; i < n; ++i) {
                reliable += trial(random) ? 1 : 0;
            }
            const double p = static_cast<double>(reliable) / static_cast<double>(n);
            r.push_back(p);
            v += p * (1 - p) / static_cast<double>(n);  // CIW95 = 4 sqrt(V)
        }
        *mean_variance = v / 40.0;
        return r;
    };
    double v = 0.0;
    double ratio = 0.0;
    const std::vector<double> honest = estimates(0.0, &v);
    const bool honest_ok = spread_within_variance(honest, v, 1e-4, &ratio);
    expect(honest_ok && ratio > 0.5 && ratio < 1.6,
           "iid Bernoulli streams: spread matches V (s^2/V=" + std::to_string(ratio) + ")");
    const std::vector<double> wide = estimates(0.01, &v);
    const bool wide_ok = spread_within_variance(wide, v, 1e-4, &ratio);
    expect(!wide_ok,
           "overdispersed streams: the check fires (s^2/V=" + std::to_string(ratio) + ")");
    expect(near(chi_square_upper(30, 0.05), 43.77, 0.15),
           "chi-square 95% quantile at 30 dof");
    expect(proportion_z(9700, 1e4, 9700, 1e4) == 0.0 &&
               proportion_z(1e4, 1e4, 1e5, 1e5) == 0.0,
           "equal proportions, all-reliable included, give z = 0");
}

void test_open_loop() {
    std::printf("open-loop timing from the due time\n");
    // Request 0 stalls the generator for 30 ms: requests 1 and 2, due at 5
    // and 10 ms, must be charged the wait.
    const std::vector<double> due{0.0, 0.005, 0.010, 0.060};
    const std::vector<double> late =
        drive_open_loop(due, steady::now(), [](std::size_t i) {
            if (i == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds{30});
            }
        });
    expect(late[1] >= 24.0 && late[2] >= 19.0, "stalled requests carry the stall (" +
                                                   std::to_string(late[1]) + ", " +
                                                   std::to_string(late[2]) + " ms)");
    expect(late[3] < 20.0, "a request due after the stall is on time");
}

void test_reference() {
    std::printf("reference estimator: closed forms\n");
    const std::uint64_t rounds = 200'000;
    const auto agree = [&](reference_estimate e, double exact, const char* what) {
        const double se = std::sqrt(exact * (1 - exact) / static_cast<double>(rounds));
        expect(std::fabs(e.reliability() - exact) <= 4.5 * se,
               std::string{what} + ": " + std::to_string(e.reliability()) + " vs " +
                   std::to_string(exact));
    };
    {
        // external - B - {H1, H2}
        network_graph g;
        const node_id ext = g.add_node(node_kind::external);
        const node_id b = g.add_node(node_kind::border_switch);
        const node_id h1 = g.add_node(node_kind::host);
        const node_id h2 = g.add_node(node_kind::host);
        g.add_edge(ext, b);
        g.add_edge(b, h1);
        g.add_edge(b, h2);
        g.freeze();
        built_topology topo{std::move(g), {h1, h2}, {b}, ext, "star"};
        component_registry registry{topo.graph};
        registry.set_probability(b, 0.1);
        registry.set_probability(h1, 0.2);
        registry.set_probability(h2, 0.2);
        reference_estimator ref{topo, registry, nullptr};
        const node_id hosts[] = {h1, h2};
        agree(ref.k_of_n(hosts, 1, rounds, 1), 0.9 * (1 - 0.2 * 0.2), "1-of-2 star");
        agree(ref.k_of_n(hosts, 2, rounds, 2), 0.9 * 0.8 * 0.8, "2-of-2 star");

        // H1 also depends on two redundant supplies (AND gate) and one
        // single supply (OR with the pair).
        const component_id p1 = registry.add(component_kind::power_supply, "p1", 0.3);
        const component_id p2 = registry.add(component_kind::power_supply, "p2", 0.3);
        const component_id p3 = registry.add(component_kind::power_supply, "p3", 0.05);
        fault_tree_forest forest{registry.size()};
        const tree_node_id pair =
            forest.add_and({forest.add_leaf(p1), forest.add_leaf(p2)});
        forest.attach(h1, forest.add_or({pair, forest.add_leaf(p3)}));
        reference_estimator with_power{topo, registry, &forest};
        const node_id only_h1[] = {h1};
        agree(with_power.k_of_n(only_h1, 1, rounds, 3),
              0.9 * 0.8 * (1 - 0.3 * 0.3) * 0.95, "1-of-1 behind a fault tree");
    }
    {
        // external - {B1, B2} - E - H: two border paths into one edge.
        network_graph g;
        const node_id ext = g.add_node(node_kind::external);
        const node_id b1 = g.add_node(node_kind::border_switch);
        const node_id b2 = g.add_node(node_kind::border_switch);
        const node_id e = g.add_node(node_kind::edge_switch);
        const node_id h = g.add_node(node_kind::host);
        g.add_edge(ext, b1);
        g.add_edge(ext, b2);
        g.add_edge(b1, e);
        g.add_edge(b2, e);
        g.add_edge(e, h);
        g.freeze();
        built_topology topo{std::move(g), {h}, {b1, b2}, ext, "diamond"};
        component_registry registry{topo.graph};
        registry.set_probability(b1, 0.25);
        registry.set_probability(b2, 0.4);
        registry.set_probability(e, 0.05);
        registry.set_probability(h, 0.1);
        reference_estimator ref{topo, registry, nullptr};
        const node_id hosts[] = {h};
        agree(ref.k_of_n(hosts, 1, rounds, 4), 0.95 * 0.9 * (1 - 0.25 * 0.4),
              "1-of-1 over redundant borders");
    }
}

void test_reduced_workloads(const std::string& trace_dir) {
    std::printf("every workload, reduced size, untraced and traced\n");
    const char* names[] = {"assess_paper", "engine_socket", "search_realistic",
                           "service_mixed"};
    outcome (*runs[])(const run_options&) = {run_assess_paper, run_engine_socket,
                                             run_search_realistic, run_service_mixed};
    for (int w = 0; w < 4; ++w) {
        for (const bool trace : {false, true}) {
            run_options options;
            options.workload = names[w];
            options.seed = 7;
            options.seconds = 0.3;
            options.trace = trace;
            options.reduced = true;
            options.trace_dir = trace_dir;
            const outcome result = runs[w](options);
            expect(result.correct && result.failed == 0 && result.attempted > 0 &&
                       !result.metrics.empty(),
                   std::string{names[w]} + (trace ? " traced" : " untraced") + ": " +
                       std::to_string(result.attempted) + " operations, " +
                       std::to_string(result.metrics.size()) + " metrics");
        }
    }
}

}  // namespace

int run_self_tests(const std::string& trace_dir) {
    test_quantiles();
    test_percentile_rule();
    test_ciw_spread();
    test_open_loop();
    test_reference();
    test_reduced_workloads(trace_dir);
    std::printf("self-test: %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
}

}  // namespace rbench
