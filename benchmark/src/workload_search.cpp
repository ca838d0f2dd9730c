// search_realistic: one closed-loop caller runs find_deployment calls in
// sequence on the medium data center at 5e-4 failure probabilities, each
// with its own seed, a deterministic schedule and a fixed iteration count;
// CRN and incremental assessment are on (the library defaults). Every pass
// runs two 4-of-5 searches and one microservice 2-4 search.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sampling/extended_dagger.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace rbench {

using namespace recloud;

namespace {

/// R_desired just above 1: no plan can reach it, so every search runs its
/// full iteration budget and the work per search is fixed.
const double unreachable = std::nextafter(1.0, 2.0);

struct request_kind {
    const char* name;
    application app;
};

std::vector<request_kind> pass_kinds() {
    return {{"4-of-5", application::k_of_n(4, 5)},
            {"4-of-5", application::k_of_n(4, 5)},
            {"micro-2-4", application::microservice(2, 4, 4, 5)}};
}

recloud_options search_options(const run_options& options, std::uint64_t seed) {
    recloud_options o;
    o.assessment_rounds = assessment_rounds(options);
    o.deterministic_schedule = true;
    o.max_iterations = options.reduced ? 20 : 100;
    o.seed = seed;
    return o;
}

struct search_record {
    std::size_t pass = 0;
    std::size_t kind = 0;
    double ms = 0.0;
    deployment_response response;
    verdict_cache_stats cache;
};

/// Times one search, re_cloud construction included: the service pays it
/// per request.
search_record run_search(const scenario_ptr& s, const recloud_options& o,
                         const application& app, std::size_t kind) {
    search_record record;
    record.kind = kind;
    const steady::time_point start = steady::now();
    re_cloud system{s, o};
    record.response =
        system.find_deployment(deployment_request{app, unreachable, std::chrono::hours{1}});
    record.ms = ms_since(start);
    record.cache = *system.cache_stats();
    return record;
}

bool same_result(const deployment_response& a, const deployment_response& b) {
    return a.plan == b.plan && a.stats.reliable == b.stats.reliable &&
           a.stats.rounds == b.stats.rounds &&
           a.search.plans_evaluated == b.search.plans_evaluated &&
           a.search.symmetric_skips == b.search.symmetric_skips;
}

}  // namespace

outcome run_search_realistic(const run_options& options) {
    outcome result;
    measured values;
    const std::vector<request_kind> kinds = pass_kinds();

    std::vector<double> setup_s;
    std::vector<double> topology_ms;
    std::vector<double> scenario_ms;
    fixture fx;
    fixture traced_fx;
    auto sink = std::make_shared<oracle_time_sink>();
    for (int rep = 0; rep < setup_repetitions(options); ++rep) {
        fx = fixture{};
        const steady::time_point start = steady::now();
        fx = make_fixture(medium_k(options), regime::realistic);
        setup_s.push_back(seconds_since(start));
        topology_ms.push_back(fx.topology_ms);
        scenario_ms.push_back(fx.scenario_ms);
    }
    if (options.trace) {
        traced_fx = make_fixture(medium_k(options), regime::realistic, sink);
    }

    span_recorder spans;
    spans.name_lane(1, "searches");
    spans.name_lane(2, "sa steps");
    spans.name_lane(3, "setup");
    spans.record_setup(fx, 3);
    std::mutex events_mutex;
    std::vector<std::uint64_t> event_ns;  // observer stamps of the current search

    std::vector<search_record> records;
    std::vector<double> op_ms;
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    double step_us_sum = 0.0;
    std::uint64_t traced_judged_before = 0;
    std::uint64_t index = 0;
    const steady::time_point loop_start = steady::now();
    while (records.empty() || seconds_since(loop_start) < options.seconds) {
        for (std::size_t k = 0; k < kinds.size(); ++k, ++index) {
            const recloud_options o =
                search_options(options, derive_seed(options.seed, 1000 + index));
            const std::uint64_t t0 = now_ns();
            search_record record = run_search(fx.scenario, o, kinds[k].app, k);
            record.pass = index / kinds.size();
            ++result.attempted;
            op_ms.push_back(record.ms);
            if (options.trace) {
                // The same search again, timed at every SA step and every
                // oracle call; it must return the same result.
                spans.record("search.find_deployment", 1, t0, now_ns());
                recloud_options traced = o;
                event_ns.clear();
                traced.observer = [&](const obs::search_iteration_event&) {
                    const std::lock_guard<std::mutex> lock{events_mutex};
                    event_ns.push_back(now_ns());
                };
                const std::uint64_t t1 = now_ns();
                const search_record again =
                    run_search(traced_fx.scenario, traced, kinds[k].app, k);
                spans.record("search.find_deployment.traced", 1, t1, now_ns());
                for (std::size_t e = 1; e < event_ns.size(); ++e) {
                    spans.record("search.step", 2, event_ns[e - 1], event_ns[e]);
                }
                if (event_ns.size() > 1) {
                    step_us_sum += static_cast<double>(event_ns.back() - event_ns.front()) /
                                   1e3 / static_cast<double>(event_ns.size() - 1);
                }
                untraced_ms += record.ms;
                traced_ms += again.ms;
                result.check(same_result(record.response, again.response),
                             "traced search returned another result");
                const oracle_times now = sink->total();
                result.check(now.begin_calls - traced_judged_before == again.cache.misses,
                             "oracle rounds differ from the cache's misses");
                traced_judged_before = now.begin_calls;
            }
            records.push_back(std::move(record));
        }
    }

    // Output checks outside the timed window.
    const scenario& s = *fx.scenario;
    const std::size_t rounds = assessment_rounds(options);
    const std::size_t iterations = search_options(options, 0).max_iterations;
    const std::size_t reassess_rounds = 10 * rounds;
    auto oracle = s.make_oracle();
    extended_dagger_sampler sampler{s.registry().probabilities(), 1};
    verdict_support support{s.topology(), s.registry().size(), s.forest(), s.links()};
    verdict_cache_options cache = default_cache_options(support);
    cache.cross_plan = false;  // no journal: every re-assessment samples afresh
    serial_backend reassess{s.registry().size(), s.forest(), *oracle, sampler, cache};
    const std::uint64_t reassess_seed = derive_seed(options.seed, 7);
    // Every plan of every eighth pass is re-assessed: plan_nines averages
    // over them.
    const std::size_t reassess_every = 8;
    std::size_t reassessed = 0;
    double nines_sum = 0.0;
    double ciw_sum = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t skips = 0;
    std::uint64_t cache_rounds = 0;
    std::uint64_t cache_saved = 0;
    std::uint64_t judged = 0;
    std::uint64_t requested = 0;
    std::uint64_t cross_plan_hits = 0;
    for (const search_record& r : records) {
        const deployment_response& resp = r.response;
        const application& app = kinds[r.kind].app;
        bool valid = true;
        try {
            validate_plan(resp.plan, app, s.topology());
        } catch (const std::exception&) {
            valid = false;
        }
        result.check(valid, "search returned an invalid plan");
        result.check(resp.fulfilled == (resp.stats.reliability >= unreachable),
                     "fulfilled disagrees with R >= R_desired");
        result.check(resp.search.plans_generated == iterations,
                     "search did not run its fixed iteration count");
        generated += resp.search.plans_generated;
        skips += resp.search.symmetric_skips;
        cache_rounds += r.cache.rounds;
        cache_saved += r.cache.saved_rounds();
        judged += r.cache.misses;
        requested += rounds * (resp.search.plans_evaluated + 1);
        cross_plan_hits += r.cache.cross_plan_hits;
        ciw_sum += resp.stats.ciw95;
        if (r.pass % reassess_every != 0) {
            continue;
        }
        ++reassessed;
        reassess.reset_stream(reassess_seed);
        const std::uint64_t t0 = now_ns();
        const assessment_stats check = reassess.assess(app, resp.plan, reassess_rounds);
        spans.record("assess.reassess", 1, t0, now_ns());
        const double z = proportion_z(static_cast<double>(resp.stats.reliable),
                                      static_cast<double>(resp.stats.rounds),
                                      static_cast<double>(check.reliable),
                                      static_cast<double>(check.rounds));
        result.check(z <= 5.0, "response R disagrees with the re-assessment (z=" +
                                   std::to_string(z) + ")");
        nines_sum += nines(check.reliability, static_cast<double>(check.rounds));
    }
    // R_desired within reach: fulfilled must then follow R >= R_desired.
    {
        recloud_options o = search_options(options, derive_seed(options.seed, 9));
        re_cloud system{fx.scenario, o};
        const double desired = 0.99;
        const deployment_response resp = system.find_deployment(
            deployment_request{kinds[0].app, desired, std::chrono::hours{1}});
        result.check(resp.fulfilled == (resp.stats.reliability >= desired),
                     "reachable R_desired: fulfilled disagrees with R >= R_desired");
    }

    std::vector<double> per_kind[2];
    for (const search_record& r : records) {
        per_kind[r.kind == 2 ? 1 : 0].push_back(r.ms);
    }
    std::printf("searches=%zu: 4-of-5 p50 %.1f ms, micro-2-4 p50 %.1f ms\n",
                records.size(), median(per_kind[0]), median(per_kind[1]));
    const double n = static_cast<double>(records.size());
    if (!options.trace) {
        const timing_summary t = summarize(op_ms);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mb();
        values["op_p50_ms"] = t.p50;
        values["op_p90_ms"] = t.p90.value_or(quantiles(op_ms, 10)[8]);
        // Rounds each search requested, pass by pass.
        std::vector<double> op_rounds;
        for (const search_record& r : records) {
            op_rounds.push_back(
                static_cast<double>(rounds * (r.response.search.plans_evaluated + 1)));
        }
        values["rounds_per_s"] = median_pass_throughput(op_ms, op_rounds, kinds.size());
        values["plan_nines"] = nines_sum / static_cast<double>(reassessed);
        values["ciw95"] = ciw_sum / n;
        emit_end_to_end(result, values);
        return result;
    }

    const oracle_times routing = sink->total();
    const auto per = [](std::uint64_t ns, std::uint64_t count) {
        return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
    };
    values["routing.begin_round_ns"] = per(routing.begin_ns, routing.begin_calls);
    values["routing.query_ns"] = per(routing.query_ns, routing.begin_calls);
    values["routing.classify_ns"] = per(routing.classify_ns, routing.classify_calls);
    values["assess.cache_hit_rate"] =
        static_cast<double>(cache_saved) / static_cast<double>(cache_rounds);
    values["assess.judged_per_requested"] =
        static_cast<double>(judged) / static_cast<double>(requested);
    values["assess.cross_plan_hits"] = static_cast<double>(cross_plan_hits) / n;
    values["search.step_us"] = step_us_sum / n;
    values["search.symmetric_skip_rate"] =
        static_cast<double>(skips) / static_cast<double>(generated);
    values["setup.topology_ms"] = median(topology_ms);
    values["setup.scenario_ms"] = median(scenario_ms);
    values["obs.trace_overhead"] = traced_ms / untraced_ms - 1.0;
    print_self_times(
        "search_realistic, traced searches",
        {{"routing.begin_round", static_cast<double>(routing.begin_ns) / 1e6},
         {"routing.query", static_cast<double>(routing.query_ns) / 1e6},
         {"routing.classify", static_cast<double>(routing.classify_ns) / 1e6}},
        traced_ms);
    std::filesystem::create_directories(options.trace_dir);
    spans.write_chrome(trace_path(options));
    emit_per_layer(result, values);
    return result;
}

}  // namespace rbench
