// assess_paper: one closed-loop caller runs fixed-X assessments on the
// serial backend at the paper's ~1% failure probabilities. Every assessment
// continues its backend's stream (fresh randomness, no CRN journal), over a
// plan mix of 4-of-5 on the medium and large data centers plus a layered
// 3-tier app and microservices 2-4 and 5-10 on the medium one.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "reference.hpp"
#include "replica.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace rbench {

using namespace recloud;

std::size_t assessment_rounds(const run_options& options) {
    return options.reduced ? 2'000 : 10'000;
}

namespace {

/// One data center with its serial assessment stack. Member order is the
/// lifetime order: the backend points at the oracle, sampler and support.
struct dc_stack {
    fixture fx;
    std::uint64_t sampler_seed = 0;
    std::unique_ptr<reachability_oracle> oracle;
    std::unique_ptr<extended_dagger_sampler> sampler;
    std::unique_ptr<verdict_support> support;
    std::unique_ptr<serial_backend> backend;
};

std::unique_ptr<dc_stack> make_dc_stack(int k, std::uint64_t sampler_seed) {
    auto dc = std::make_unique<dc_stack>();
    dc->fx = make_fixture(k, regime::paper);
    const scenario& s = *dc->fx.scenario;
    dc->sampler_seed = sampler_seed;
    dc->oracle = s.make_oracle();
    dc->sampler = std::make_unique<extended_dagger_sampler>(
        s.registry().probabilities(), sampler_seed);
    dc->support = std::make_unique<verdict_support>(
        s.topology(), s.registry().size(), s.forest(), s.links());
    dc->backend = std::make_unique<serial_backend>(
        s.registry().size(), s.forest(), *dc->oracle, *dc->sampler,
        default_cache_options(*dc->support));
    return dc;
}

struct plan_case {
    const char* name = "";
    application app;
    std::size_t dc = 0;  ///< 0 = medium, 1 = large
    std::uint32_t k_of_n = 0;  ///< K of a K-of-5 app, 0 otherwise
    deployment_plan plan;
    std::vector<double> ms;
    std::vector<double> reliability;
    std::uint64_t replica_sample_ns = 0;  ///< traced runs: the replica's
    std::uint64_t replica_total_ns = 0;   ///< sampling and whole-round time
    double variance_sum = 0.0;
    std::uint64_t reliable = 0;
    std::uint64_t rounds = 0;
};

struct setup {
    std::vector<std::unique_ptr<dc_stack>> dcs;
    std::vector<plan_case> cases;
    double topology_ms = 0.0;
    double scenario_ms = 0.0;
};

setup make_setup(const run_options& options) {
    setup out;
    out.dcs.push_back(make_dc_stack(medium_k(options), derive_seed(options.seed, 1)));
    out.dcs.push_back(make_dc_stack(large_k(options), derive_seed(options.seed, 2)));
    for (const auto& dc : out.dcs) {
        out.topology_ms += dc->fx.topology_ms;
        out.scenario_ms += dc->fx.scenario_ms;
    }
    const auto add = [&](const char* name, application app, std::size_t dc,
                         std::uint32_t k) {
        plan_case c;
        c.name = name;
        c.dc = dc;
        c.k_of_n = k;
        neighbor_generator plans{out.dcs[dc]->fx.scenario->topology(),
                                 anti_affinity::none, fixed_plan_seed(out.cases.size())};
        c.plan = plans.initial_plan(app.total_instances());
        c.app = std::move(app);
        out.cases.push_back(std::move(c));
    };
    add("4-of-5/medium", application::k_of_n(4, 5), 0, 4);
    add("4-of-5/large", application::k_of_n(4, 5), 1, 4);
    add("layered-3/medium", application::layered(3, 4, 5), 0, 0);
    add("micro-2-4/medium", application::microservice(2, 4, 4, 5), 0, 0);
    add("micro-5-10/medium", application::microservice(5, 10, 4, 5), 0, 0);
    return out;
}

/// Lockstep copy of one data center's stream, judged through the replica.
struct dc_replica {
    std::uint64_t sample_ns = 0;
    std::uint64_t rounds = 0;
    std::uint64_t failed = 0;  ///< raw failed components over all rounds
    std::unique_ptr<extended_dagger_sampler> sampler;
    std::unique_ptr<round_state> rs;
    std::unique_ptr<timed_oracle> oracle;
    std::unique_ptr<verdict_cache> cache;
};

void check_stats(outcome& result, const assessment_stats& stats,
                 std::size_t rounds, const char* name) {
    const std::string where = std::string{" ("} + name + ")";
    result.check(stats.rounds == rounds, "rounds != X" + where);
    result.check(stats.reliable <= stats.rounds, "reliable > rounds" + where);
    result.check(stats.reliability == static_cast<double>(stats.reliable) /
                                          static_cast<double>(stats.rounds),
                 "R != reliable/rounds" + where);
    result.check(std::fabs(stats.ciw95 - 4.0 * std::sqrt(stats.variance)) <=
                     1e-12 * std::max(1.0, stats.ciw95),
                 "CIW95 != 4 sqrt(V)" + where);
}

}  // namespace

outcome run_assess_paper(const run_options& options) {
    const std::size_t rounds = assessment_rounds(options);
    outcome result;
    measured values;

    // Set-up, several times; the last one is measured on.
    std::vector<double> setup_s;
    std::vector<double> topology_ms;
    std::vector<double> scenario_ms;
    setup state;
    for (int rep = 0; rep < setup_repetitions(options); ++rep) {
        state = setup{};
        const steady::time_point start = steady::now();
        state = make_setup(options);
        setup_s.push_back(seconds_since(start));
        topology_ms.push_back(state.topology_ms);
        scenario_ms.push_back(state.scenario_ms);
    }

    span_recorder spans;
    std::vector<dc_replica> replicas;
    if (options.trace) {
        spans.name_lane(1, "replica");
        spans.name_lane(3, "setup");
        for (const auto& dc : state.dcs) {
            spans.record_setup(dc->fx, 3);
        }
        for (const auto& dc : state.dcs) {
            const scenario& s = *dc->fx.scenario;
            dc_replica r;
            r.sampler = std::make_unique<extended_dagger_sampler>(
                s.registry().probabilities(), dc->sampler_seed);
            r.rs = std::make_unique<round_state>(s.registry().size(), s.forest());
            r.oracle = std::make_unique<timed_oracle>(s.make_oracle(), nullptr);
            const verdict_cache_options cache = default_cache_options(*dc->support);
            r.cache = std::make_unique<verdict_cache>(*dc->support, cache.max_entries,
                                                      cache.cross_plan);
            replicas.push_back(std::move(r));
        }
    }
    layer_clock clock;
    double backend_ms_total = 0.0;
    double replica_ms_total = 0.0;
    std::vector<component_id> failed;

    // Timed loop: whole passes over the plan mix.
    std::vector<double> op_ms;
    double ciw_sum = 0.0;
    const steady::time_point loop_start = steady::now();
    while (op_ms.empty() || seconds_since(loop_start) < options.seconds) {
        for (plan_case& c : state.cases) {
            serial_backend& backend = *state.dcs[c.dc]->backend;
            const steady::time_point start = steady::now();
            const assessment_stats stats = backend.assess(c.app, c.plan, rounds);
            const double ms = ms_since(start);
            ++result.attempted;
            op_ms.push_back(ms);
            c.ms.push_back(ms);
            c.reliability.push_back(stats.reliability);
            c.variance_sum += stats.variance;
            c.reliable += stats.reliable;
            c.rounds += stats.rounds;
            ciw_sum += stats.ciw95;
            check_stats(result, stats, rounds, c.name);

            if (options.trace) {
                // Same stream, same calls, each one timed.
                dc_replica& r = replicas[c.dc];
                requirement_evaluator evaluator{c.app, c.plan};
                r.cache->bind(c.app, c.plan);
                const std::uint64_t before = clock.reliable;
                const std::uint64_t sample_before = clock.sample_ns;
                const std::uint64_t replica_start = now_ns();
                for (std::size_t round = 0; round < rounds; ++round) {
                    const std::uint64_t t0 = now_ns();
                    r.sampler->next_round(failed);
                    const std::uint64_t t1 = now_ns();
                    clock.sample_ns += t1 - t0;
                    r.sample_ns += t1 - t0;
                    r.failed += failed.size();
                    ++r.rounds;
                    span_recorder* lane = spans.detail_room() ? &spans : nullptr;
                    if (lane != nullptr) {
                        lane->record("sampling.next_round", 1, t0, t1);
                    }
                    (void)replica_round(r.cache.get(), failed, *r.rs, *r.oracle,
                                        c.plan, evaluator, clock, lane, 1);
                }
                const std::uint64_t replica_end = now_ns();
                c.replica_sample_ns += clock.sample_ns - sample_before;
                c.replica_total_ns += replica_end - replica_start;
                spans.record("assess.assessment", 2, replica_start, replica_end);
                replica_ms_total += static_cast<double>(replica_end - replica_start) / 1e6;
                backend_ms_total += ms;
                result.check(clock.reliable - before == stats.reliable,
                             std::string{"replica reliable count differs from the "
                                         "backend's ("} + c.name + ")");
            }
        }
    }

    // Output checks outside the timed window.
    // (1) Under one reset_stream seed, (K+1)-of-N never beats K-of-N.
    for (std::size_t dc = 0; dc < state.dcs.size(); ++dc) {
        const plan_case& c = state.cases[dc];  // the 4-of-5 case of this DC
        const scenario& s = *state.dcs[dc]->fx.scenario;
        auto oracle = s.make_oracle();
        extended_dagger_sampler sampler{s.registry().probabilities(),
                                        derive_seed(options.seed, 10 + dc)};
        serial_backend check{s.registry().size(), s.forest(), *oracle, sampler,
                             default_cache_options(*state.dcs[dc]->support)};
        // The property holds round by round, so a fifth of X shows it.
        const std::size_t check_rounds = rounds / 5;
        std::size_t previous = check_rounds + 1;
        for (std::uint32_t k = 3; k <= 5; ++k) {
            check.reset_stream(derive_seed(options.seed, 20 + dc));
            const assessment_stats stats =
                check.assess(application::k_of_n(k, 5), c.plan, check_rounds);
            result.check(stats.reliable <= previous,
                         "K-of-N monotonicity violated at K=" + std::to_string(k));
            previous = stats.reliable;
        }
    }
    // (2) The spread of R across assessments of one plan agrees with the
    // reported CIW95; (3) k-of-n R agrees with the reference estimator.
    double nines_sum = 0.0;
    for (const plan_case& c : state.cases) {
        const double mean_variance =
            c.variance_sum / static_cast<double>(c.reliability.size());
        double ratio = 0.0;
        result.check(spread_within_variance(c.reliability, mean_variance, 1e-4, &ratio),
                     std::string{"R spread exceeds the reported CIW95 ("} + c.name +
                         ", s^2/V=" + std::to_string(ratio) + ")");
        const double pooled =
            static_cast<double>(c.reliable) / static_cast<double>(c.rounds);
        nines_sum += nines(pooled, static_cast<double>(c.rounds));
        std::printf("plan %-18s n=%3zu p50=%8.2f ms  R=%.5f  s^2/V=%.2f\n", c.name,
                    c.ms.size(), median(c.ms), pooled, ratio);
        if (options.trace) {
            const double replica_rounds = static_cast<double>(c.ms.size() * rounds);
            std::printf("  replica: sampling %.0f ns/round, the rest of the round %.0f "
                        "ns/round\n",
                        static_cast<double>(c.replica_sample_ns) / replica_rounds,
                        static_cast<double>(c.replica_total_ns - c.replica_sample_ns) /
                            replica_rounds);
        }
        if (c.k_of_n != 0) {
            const scenario& s = *state.dcs[c.dc]->fx.scenario;
            result.check(s.links() == nullptr,
                         "reference estimator assumes infallible links");
            reference_estimator reference{s.topology(), s.registry(), s.forest()};
            const std::uint64_t ref_rounds =
                options.reduced ? 20'000 : (c.dc == 0 ? 15'000 : 2'500);
            const steady::time_point ref_start = steady::now();
            const reference_estimate ref = reference.k_of_n(
                c.plan.hosts, c.k_of_n, ref_rounds, derive_seed(options.seed, 30 + c.dc));
            const double z = proportion_z(static_cast<double>(c.reliable),
                                          static_cast<double>(c.rounds),
                                          static_cast<double>(ref.reliable),
                                          static_cast<double>(ref.rounds));
            std::printf("  reference R=%.5f over %llu rounds (%.2f s), z=%.2f\n",
                        ref.reliability(),
                        static_cast<unsigned long long>(ref.rounds),
                        seconds_since(ref_start), z);
            result.check(z <= 4.0, std::string{"R disagrees with the reference "
                                               "estimator ("} +
                                       c.name + ", z=" + std::to_string(z) + ")");
        }
    }

    if (!options.trace) {
        const timing_summary t = summarize(op_ms);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mb();
        values["op_p50_ms"] = t.p50;
        values["op_p90_ms"] = t.p90.value_or(quantiles(op_ms, 10)[8]);
        values["rounds_per_s"] = median_pass_throughput(
            op_ms, std::vector<double>(op_ms.size(), static_cast<double>(rounds)),
            state.cases.size());
        values["plan_nines"] = nines_sum / static_cast<double>(state.cases.size());
        values["ciw95"] = ciw_sum / static_cast<double>(op_ms.size());
        std::printf("assessments=%zu p90 samples=%s\n", op_ms.size(),
                    t.p90 ? "enough" : "fewer than 100");
        emit_end_to_end(result, values);
        return result;
    }

    std::uint64_t query_ns = 0;
    for (std::size_t dc = 0; dc < replicas.size(); ++dc) {
        const dc_replica& r = replicas[dc];
        query_ns += r.oracle->times().query_ns;
        std::printf("sampling on %s: %.0f ns/round, %.1f failed components/round\n",
                    dc == 0 ? "medium" : "large",
                    static_cast<double>(r.sample_ns) / static_cast<double>(r.rounds),
                    static_cast<double>(r.failed) / static_cast<double>(r.rounds));
    }
    std::vector<self_time_row> rows{
        {"sampling.next_round", static_cast<double>(clock.sample_ns) / 1e6}};
    replica_metrics(clock, query_ns, values, rows);
    values["sampling.round_ns"] =
        static_cast<double>(clock.sample_ns) / static_cast<double>(clock.rounds);
    std::uint64_t cross_plan_hits = 0;
    for (const auto& dc : state.dcs) {
        cross_plan_hits += dc->backend->cache_stats()->cross_plan_hits;
    }
    values["assess.cross_plan_hits"] =
        static_cast<double>(cross_plan_hits) / static_cast<double>(op_ms.size());
    values["setup.topology_ms"] = median(topology_ms);
    values["setup.scenario_ms"] = median(scenario_ms);
    values["obs.trace_overhead"] = replica_ms_total / backend_ms_total - 1.0;
    print_self_times("assess_paper replica", rows, replica_ms_total);
    std::filesystem::create_directories(options.trace_dir);
    spans.name_lane(2, "assessments");
    spans.write_chrome(trace_path(options));
    emit_per_layer(result, values);
    return result;
}

}  // namespace rbench
