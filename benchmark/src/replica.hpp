// Replays one round through the library's public calls in the order
// cached_reliable_in_round makes them, timing each call into a layer:
//   verdict_cache::lookup -> round_state::begin_round -> oracle begin_round
//   (with the plan-host hint) -> requirement_evaluator::reliable_in_round ->
//   classify_round -> verdict_cache::store.
// Oracle queries made inside the judge are timed by the timed_oracle.
#pragma once

#include <cstdint>
#include <span>

#include "assess/verdict_cache.hpp"
#include "harness.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace rbench {

struct layer_clock {
    std::uint64_t rounds = 0;  ///< rounds looked up
    std::uint64_t judged = 0;  ///< rounds that reached route-and-check
    std::uint64_t reliable = 0;
    std::uint64_t sample_ns = 0;
    std::uint64_t lookup_ns = 0;
    std::uint64_t store_ns = 0;
    std::uint64_t faults_ns = 0;
    std::uint64_t route_begin_ns = 0;
    std::uint64_t judge_ns = 0;  ///< includes the oracle queries it makes
    std::uint64_t classify_ns = 0;
};

inline bool replica_round(recloud::verdict_cache* cache,
                          std::span<const recloud::component_id> failed,
                          recloud::round_state& rs, timed_oracle& oracle,
                          const recloud::deployment_plan& plan,
                          recloud::requirement_evaluator& evaluator,
                          layer_clock& clock, span_recorder* spans,
                          std::uint32_t lane) {
    const auto mark = [&](const char* name, std::uint64_t start,
                          std::uint64_t end) {
        if (spans != nullptr) {
            spans->record(name, lane, start, end);
        }
    };
    ++clock.rounds;
    std::uint64_t t0 = now_ns();
    if (cache != nullptr) {
        const recloud::verdict_cache::lookup_result cached = cache->lookup(failed);
        const std::uint64_t t1 = now_ns();
        clock.lookup_ns += t1 - t0;
        mark("assess.cache_lookup", t0, t1);
        if (cached.hit) {
            clock.reliable += cached.verdict ? 1 : 0;
            return cached.verdict;
        }
        t0 = t1;
    }
    rs.begin_round(failed);
    const std::uint64_t t1 = now_ns();
    oracle.begin_round(rs, std::span<const recloud::node_id>{plan.hosts});
    const std::uint64_t t2 = now_ns();
    const bool verdict = evaluator.reliable_in_round(oracle, rs);
    const std::uint64_t t3 = now_ns();
    clock.faults_ns += t1 - t0;
    clock.route_begin_ns += t2 - t1;
    clock.judge_ns += t3 - t2;
    mark("faults.begin_round", t0, t1);
    mark("routing.begin_round", t1, t2);
    mark("app.judge", t2, t3);
    if (cache != nullptr) {
        const recloud::round_class cls = cache->cross_plan()
                                             ? oracle.classify_round(failed)
                                             : recloud::round_class::unclean;
        const std::uint64_t t4 = now_ns();
        cache->store(verdict, cls);
        const std::uint64_t t5 = now_ns();
        clock.classify_ns += t4 - t3;
        clock.store_ns += t5 - t4;
        mark("routing.classify", t3, t4);
        mark("assess.cache_store", t4, t5);
    }
    ++clock.judged;
    clock.reliable += verdict ? 1 : 0;
    return verdict;
}

/// Fills the per-layer metrics a replica measures and the matching rows of
/// the self-time table (`query_ns` comes from the timed_oracle).
inline void replica_metrics(const layer_clock& clock, std::uint64_t query_ns,
                            measured& values, std::vector<self_time_row>& rows) {
    const auto per = [](std::uint64_t ns, std::uint64_t count) {
        return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
    };
    const std::uint64_t judge_self =
        clock.judge_ns > query_ns ? clock.judge_ns - query_ns : 0;
    values["faults.begin_round_ns"] = per(clock.faults_ns, clock.judged);
    values["routing.begin_round_ns"] = per(clock.route_begin_ns, clock.judged);
    values["routing.query_ns"] = per(query_ns, clock.judged);
    values["routing.classify_ns"] = per(clock.classify_ns, clock.judged);
    values["app.judge_ns"] = per(judge_self, clock.judged);
    values["assess.cache_lookup_ns"] = per(clock.lookup_ns, clock.rounds);
    values["assess.cache_hit_rate"] =
        clock.rounds == 0 ? 0.0
                          : 1.0 - static_cast<double>(clock.judged) /
                                      static_cast<double>(clock.rounds);
    values["assess.judged_per_requested"] =
        clock.rounds == 0 ? 0.0
                          : static_cast<double>(clock.judged) /
                                static_cast<double>(clock.rounds);
    const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
    rows.push_back({"assess.cache_lookup", ms(clock.lookup_ns)});
    rows.push_back({"faults.begin_round", ms(clock.faults_ns)});
    rows.push_back({"routing.begin_round", ms(clock.route_begin_ns)});
    rows.push_back({"routing.query", ms(query_ns)});
    rows.push_back({"app.judge (self)", ms(judge_self)});
    rows.push_back({"routing.classify", ms(clock.classify_ns)});
    rows.push_back({"assess.cache_store", ms(clock.store_ns)});
}

}  // namespace rbench
