// service_mixed: one generator thread drives the deployment service open
// loop, from a seeded Poisson schedule built before the run, at a fixed
// rate. The service runs EDF with nproc - 1 search workers (one search
// thread per request) and a queue no request overflows. Requests mix
// 4-of-5, layered 3-tier and microservice 2-4 apps over a paper-regime and
// a 5e-4 scenario; half carry a loose SLO deadline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "service/deployment_service.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace rbench {

using namespace recloud;

namespace {

const double unreachable = std::nextafter(1.0, 2.0);

/// Arrivals per second; with the request mix below it keeps three search
/// workers about a third busy on a 4-core host.
constexpr double arrival_rate = 9.0;
constexpr std::chrono::seconds slo_deadline{10};

struct request_kind {
    const char* scenario;
    const char* name;
    application app;
    bool deadline;
};

/// One whole round of the request mix, in submission order.
std::vector<request_kind> round_kinds() {
    const application k45 = application::k_of_n(4, 5);
    const application layered = application::layered(3, 4, 5);
    const application micro = application::microservice(2, 4, 4, 5);
    // Per round: paper 4-of-5 x4, layered x2, micro x2; realistic 4-of-5
    // x2, layered x1, micro x1. Sorted by search time the fast realistic
    // kinds fill the lowest third, so the median falls mid paper 4-of-5 and
    // the p90 inside paper micro-2-4, away from the kinds' boundaries.
    return {{"paper", "4-of-5", k45, true},       {"realistic", "4-of-5", k45, false},
            {"paper", "layered", layered, false}, {"realistic", "layered", layered, true},
            {"paper", "micro-2-4", micro, true},  {"paper", "4-of-5", k45, false},
            {"realistic", "micro-2-4", micro, true}, {"paper", "layered", layered, true},
            {"paper", "4-of-5", k45, false},      {"realistic", "4-of-5", k45, true},
            {"paper", "4-of-5", k45, false},      {"paper", "micro-2-4", micro, false}};
}

recloud_options service_defaults(const run_options& options) {
    recloud_options o;
    o.assessment_rounds = assessment_rounds(options);
    o.deterministic_schedule = true;
    o.max_iterations = options.reduced ? 4 : 8;
    return o;
}

struct observed_events {
    std::mutex mutex;
    std::map<std::uint64_t, std::vector<std::uint64_t>> stamps;  ///< by request id
    std::map<std::uint64_t, double> hit_rate;                    ///< last seen
};

bool same_result(const deployment_response& a, const deployment_response& b) {
    return a.plan == b.plan && a.stats.reliable == b.stats.reliable &&
           a.stats.rounds == b.stats.rounds && a.fulfilled == b.fulfilled &&
           a.search.plans_evaluated == b.search.plans_evaluated &&
           a.search.symmetric_skips == b.search.symmetric_skips;
}

}  // namespace

outcome run_service_mixed(const run_options& options) {
    outcome result;
    measured values;
    const std::vector<request_kind> kinds = round_kinds();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::max(1u, nproc - 1);
    auto sink = std::make_shared<oracle_time_sink>();
    observed_events events;

    // The schedule first: arrival offsets and seeds depend on --seed only.
    std::mt19937_64 random{derive_seed(options.seed, 1)};
    std::exponential_distribution<double> gap{arrival_rate};
    std::vector<double> due_s;
    for (double t = 0.0; t < options.seconds || due_s.size() % kinds.size() != 0;) {
        due_s.push_back(t);
        t += gap(random);
    }

    std::vector<double> setup_s;
    std::vector<double> topology_ms;
    std::vector<double> scenario_ms;
    fixture paper;
    fixture realistic;
    std::unique_ptr<deployment_service> service;
    for (int rep = 0; rep < setup_repetitions(options); ++rep) {
        service.reset();
        const steady::time_point start = steady::now();
        const std::shared_ptr<oracle_time_sink> timed = options.trace ? sink : nullptr;
        paper = make_fixture(medium_k(options), regime::paper, timed);
        realistic = make_fixture(medium_k(options), regime::realistic, timed);
        service_options so;
        so.workers = workers;
        so.queue_capacity = due_s.size() + 1;
        so.scheduling = scheduling_policy::edf;
        so.defaults = service_defaults(options);
        if (options.trace) {
            so.defaults.observer = [&events](const obs::search_iteration_event& e) {
                const std::uint64_t stamp = now_ns();
                const std::lock_guard<std::mutex> lock{events.mutex};
                events.stamps[e.request_id].push_back(stamp);
                events.hit_rate[e.request_id] = e.cache_hit_rate;
            };
        }
        service = std::make_unique<deployment_service>(so);
        service->add_scenario("paper", paper.scenario);
        service->add_scenario("realistic", realistic.scenario);
        setup_s.push_back(seconds_since(start));
        topology_ms.push_back(paper.topology_ms + realistic.topology_ms);
        scenario_ms.push_back(paper.scenario_ms + realistic.scenario_ms);
    }

    std::vector<service_request> requests;
    for (std::size_t i = 0; i < due_s.size(); ++i) {
        const request_kind& kind = kinds[i % kinds.size()];
        service_request request;
        request.scenario = kind.scenario;
        request.app = kind.app;
        request.desired_reliability = unreachable;
        request.max_search_time = std::chrono::hours{1};
        request.seed = derive_seed(options.seed, 1000 + i);
        if (kind.deadline) {
            request.slo_deadline = slo_deadline;
        }
        requests.push_back(std::move(request));
    }

    // Open loop: submit each request at its due time, whatever the backlog.
    std::vector<std::future<service_response>> futures;
    futures.reserve(requests.size());
    const steady::time_point start = steady::now();
    const std::uint64_t origin = now_ns();
    const std::vector<double> late_ms = drive_open_loop(
        due_s, start, [&](std::size_t i) { futures.push_back(service->submit(requests[i])); });
    std::vector<service_response> responses;
    for (std::future<service_response>& f : futures) {
        responses.push_back(f.get());
    }
    const double run_s = seconds_since(start);
    const service_stats stats = service->stats();
    service->shutdown();
    const oracle_times routing = sink->total();

    span_recorder spans;
    spans.name_lane(1, "setup");
    spans.record_setup(paper, 1);
    spans.record_setup(realistic, 1);
    std::vector<double> latency_ms;
    std::vector<double> queue_ms;
    std::vector<double> search_ms;
    double ciw_sum = 0.0;
    double nines_sum = 0.0;
    std::uint64_t requested = 0;
    std::uint64_t generated = 0;
    std::uint64_t skips = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const service_response& r = responses[i];
        const request_kind& kind = kinds[i % kinds.size()];
        ++result.attempted;
        const double queue = static_cast<double>(r.queue_wait_ns.count()) / 1e6;
        const double search = static_cast<double>(r.search_ns.count()) / 1e6;
        // Due time -> resolution: generator lateness, queue wait, search.
        const double latency = late_ms[i] + queue + search;
        const bool on_time =
            !kind.deadline ||
            (r.deadline_met && latency <= std::chrono::duration<double, std::milli>(
                                              slo_deadline).count());
        const bool ok = r.status == request_status::completed && on_time &&
                        r.result.outcome != search_outcome::deadline_exceeded;
        if (!ok) {
            ++result.failed;
            std::fprintf(stderr, "request %zu failed: status=%s on_time=%d error=%s\n", i,
                         to_string(r.status), on_time ? 1 : 0, r.error.c_str());
            continue;
        }
        latency_ms.push_back(latency);
        queue_ms.push_back(queue);
        search_ms.push_back(search);
        ciw_sum += r.result.stats.ciw95;
        nines_sum += nines(r.result.stats.reliability,
                           static_cast<double>(r.result.stats.rounds));
        requested += service_defaults(options).assessment_rounds *
                     (r.result.search.plans_evaluated + 1);
        generated += r.result.search.plans_generated;
        skips += r.result.search.symmetric_skips;
        result.check(r.result.fulfilled ==
                         (r.result.stats.reliability >= unreachable),
                     "fulfilled disagrees with R >= R_desired");
        const std::uint64_t due = origin + static_cast<std::uint64_t>(due_s[i] * 1e9);
        const std::uint64_t dequeued =
            due + static_cast<std::uint64_t>((late_ms[i] + queue) * 1e6);
        const auto lane = static_cast<std::uint32_t>(100 + i);
        spans.name_lane(lane, "request " + std::to_string(i));
        spans.record("service.queue_wait", lane, due, dequeued);
        spans.record("search.find_deployment", lane, dequeued,
                     dequeued + static_cast<std::uint64_t>(search * 1e6));
    }
    const std::size_t served = latency_ms.size();
    {
        std::map<std::string, std::vector<double>> by_kind;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const request_kind& kind = kinds[i % kinds.size()];
            by_kind[std::string{kind.scenario} + " " + kind.name].push_back(
                static_cast<double>(responses[i].search_ns.count()) / 1e6);
        }
        for (const auto& [name, ms] : by_kind) {
            std::printf("kind %-20s n=%3zu search p50=%8.2f ms\n", name.c_str(), ms.size(),
                        median(ms));
        }
    }
    std::printf("requests=%zu served=%zu rate=%.2f/s run=%.1f s utilization=%.2f "
                "peak queue=%zu\n",
                responses.size(), served, arrival_rate, run_s,
                sum(search_ms) / 1e3 / (run_s * static_cast<double>(workers)),
                stats.peak_queue_depth);
    std::printf("generator lateness: p50 %.3f ms, max %.3f ms\n", median(late_ms),
                *std::max_element(late_ms.begin(), late_ms.end()));
    result.check(stats.rejected == 0 && stats.deadline_missed == 0 && stats.preempted == 0,
                 "service shed, missed or preempted requests");

    // A sample of responses must equal solo re_cloud runs of the same
    // requests: the first request of every kind. The traced run times each
    // solo run untraced and traced, which sizes the trace overhead.
    double solo_plain_ms = 0.0;
    double solo_traced_ms = 0.0;
    fixture plain_paper;
    fixture plain_realistic;
    if (options.trace) {  // the service ran on timed oracles
        plain_paper = make_fixture(medium_k(options), regime::paper);
        plain_realistic = make_fixture(medium_k(options), regime::realistic);
    }
    for (std::size_t i = 0; i < std::min(kinds.size(), responses.size()); ++i) {
        if (responses[i].status != request_status::completed) {
            continue;
        }
        recloud_options o = service_defaults(options);
        o.seed = requests[i].seed;
        const bool is_paper = kinds[i].scenario == std::string{"paper"};
        const fixture& fx = is_paper ? paper : realistic;
        const fixture& plain = !options.trace ? fx : is_paper ? plain_paper : plain_realistic;
        const deployment_request request{requests[i].app, unreachable,
                                         std::chrono::hours{1}};
        const auto solo = [&](const scenario_ptr& scenario, const recloud_options& ro) {
            re_cloud system{scenario, ro};
            return system.find_deployment(request);
        };
        steady::time_point t0 = steady::now();
        const deployment_response alone = solo(plain.scenario, o);
        solo_plain_ms += ms_since(t0);
        result.check(same_result(alone, responses[i].result),
                     std::string{"service response differs from a solo run ("} +
                         kinds[i].scenario + " " + kinds[i].name + ")");
        if (options.trace) {
            recloud_options traced = o;
            traced.observer = [](const obs::search_iteration_event&) { (void)now_ns(); };
            t0 = steady::now();
            (void)solo(fx.scenario, traced);
            solo_traced_ms += ms_since(t0);
        }
    }

    if (!options.trace) {
        const timing_summary t = summarize(latency_ms);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mb();
        values["op_p50_ms"] = t.p50;
        values["op_p90_ms"] = t.p90.value_or(quantiles(latency_ms, 10)[8]);
        // Per second a search worker is busy: the offered load varies with
        // the seed's schedule, the work per request does not.
        values["rounds_per_s"] = static_cast<double>(requested) / (sum(search_ms) / 1e3);
        values["plan_nines"] = nines_sum / static_cast<double>(served);
        values["ciw95"] = ciw_sum / static_cast<double>(served);
        std::printf("latency p50 %.1f ms, p90 %s %.1f ms over %zu requests\n", t.p50,
                    t.p90 ? "" : "(fewer than 100 samples)", values["op_p90_ms"], served);
        emit_end_to_end(result, values);
        return result;
    }

    double step_us_sum = 0.0;
    double hit_sum = 0.0;
    for (const auto& [id, stamps] : events.stamps) {
        if (stamps.size() > 1) {
            step_us_sum += static_cast<double>(stamps.back() - stamps.front()) / 1e3 /
                           static_cast<double>(stamps.size() - 1);
        }
        hit_sum += std::max(0.0, events.hit_rate[id]);
    }
    const double searches = static_cast<double>(events.stamps.size());
    const auto per = [](std::uint64_t ns, std::uint64_t count) {
        return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
    };
    values["routing.begin_round_ns"] = per(routing.begin_ns, routing.begin_calls);
    values["routing.query_ns"] = per(routing.query_ns, routing.begin_calls);
    values["routing.classify_ns"] = per(routing.classify_ns, routing.classify_calls);
    values["assess.cache_hit_rate"] = hit_sum / searches;
    values["assess.judged_per_requested"] =
        static_cast<double>(routing.begin_calls) / static_cast<double>(requested);
    values["search.step_us"] = step_us_sum / searches;
    values["search.symmetric_skip_rate"] =
        static_cast<double>(skips) / static_cast<double>(generated);
    const std::vector<double> queue_cuts = quantiles(queue_ms, 10);
    values["service.queue_wait_p50_ms"] = median(queue_ms);
    values["service.queue_wait_p90_ms"] = queue_cuts[8];
    values["service.search_p50_ms"] = median(search_ms);
    values["service.peak_queue_depth"] = static_cast<double>(stats.peak_queue_depth);
    values["setup.topology_ms"] = median(topology_ms);
    values["setup.scenario_ms"] = median(scenario_ms);
    values["obs.trace_overhead"] = solo_traced_ms / solo_plain_ms - 1.0;
    print_self_times("service_mixed, summed over requests",
                     {{"service.queue_wait", sum(queue_ms)},
                      {"routing.begin_round", static_cast<double>(routing.begin_ns) / 1e6},
                      {"routing.query", static_cast<double>(routing.query_ns) / 1e6},
                      {"routing.classify", static_cast<double>(routing.classify_ns) / 1e6},
                      {"search (rest of find_deployment)",
                       sum(search_ms) - static_cast<double>(routing.begin_ns +
                                                            routing.query_ns +
                                                            routing.classify_ns) /
                                            1e6}},
                     sum(latency_ms));
    std::filesystem::create_directories(options.trace_dir);
    spans.write_chrome(trace_path(options));
    emit_per_layer(result, values);
    return result;
}

}  // namespace rbench
