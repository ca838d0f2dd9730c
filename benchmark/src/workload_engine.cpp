// engine_socket: one closed-loop caller runs the paper-regime medium plans of
// assess_paper (4-of-5, layered 3-tier, microservice 2-4) through the engine
// backend over the socket transport, with nproc - 1 recloud_worker processes
// judging while the master samples on the remaining core.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "replica.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"
#include "util/serialize.hpp"
#include "workloads.hpp"

namespace rbench {

using namespace recloud;

namespace {

/// The worker executable: $RECLOUD_WORKER_BIN, else the one the benchmark's
/// build puts beside recloud_bench.
std::string worker_binary() {
    if (const char* env = std::getenv("RECLOUD_WORKER_BIN"); env != nullptr && *env) {
        return env;
    }
    std::error_code error;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", error);
    return (self.parent_path() / "recloud" / "recloud_worker").string();
}

struct plan_case {
    const char* name = "";
    application app;
    deployment_plan plan;
    std::vector<double> ms;
};

/// Master-side engine stack plus the serial backend it must agree with.
/// Member order is the lifetime order (backends point at samplers, support
/// and oracle).
struct setup {
    fixture fx;
    std::unique_ptr<extended_dagger_sampler> engine_sampler;
    std::unique_ptr<extended_dagger_sampler> serial_sampler;
    std::unique_ptr<verdict_support> support;
    std::unique_ptr<reachability_oracle> serial_oracle;
    std::unique_ptr<engine_backend> engine;
    std::unique_ptr<serial_backend> serial;
    std::vector<plan_case> cases;
    assessment_stats warm_stats;
    double fleet_ms = 0.0;
    std::uint64_t fleet_start_ns = 0;
    std::uint64_t fleet_end_ns = 0;
};

bool identical(const assessment_stats& a, const assessment_stats& b) {
    return a.rounds == b.rounds && a.reliable == b.reliable &&
           a.reliability == b.reliability && a.variance == b.variance &&
           a.ciw95 == b.ciw95;
}

std::unique_ptr<setup> make_setup(const run_options& options, std::size_t workers) {
    auto out = std::make_unique<setup>();
    out->fx = make_fixture(medium_k(options), regime::paper);
    const scenario_ptr& s = out->fx.scenario;
    const std::uint64_t seed = derive_seed(options.seed, 1);
    out->engine_sampler = std::make_unique<extended_dagger_sampler>(
        s->registry().probabilities(), seed);
    out->serial_sampler = std::make_unique<extended_dagger_sampler>(
        s->registry().probabilities(), seed);
    out->support = std::make_unique<verdict_support>(
        s->topology(), s->registry().size(), s->forest(), s->links());
    out->serial_oracle = s->make_oracle();
    out->serial = std::make_unique<serial_backend>(
        s->registry().size(), s->forest(), *out->serial_oracle,
        *out->serial_sampler, default_cache_options(*out->support));

    const char* names[] = {"4-of-5/medium", "layered-3/medium", "micro-2-4/medium"};
    application apps[] = {application::k_of_n(4, 5), application::layered(3, 4, 5),
                          application::microservice(2, 4, 4, 5)};
    for (std::size_t i = 0; i < 3; ++i) {
        // The same plans as assess_paper's medium ones.
        const std::size_t assess_case[] = {0, 2, 3};
        neighbor_generator plans{s->topology(), anti_affinity::none,
                                 fixed_plan_seed(assess_case[i])};
        out->cases.push_back({names[i], apps[i],
                              plans.initial_plan(apps[i].total_instances())});
    }

    // The fleet: spawn plus one warm-up assessment (its stream is mirrored
    // on the serial backend so the two stay in step).
    out->fleet_start_ns = now_ns();
    engine_options engine;
    engine.workers = workers;
    engine.batch_rounds = recloud_options{}.assessment_batch_rounds;
    engine.max_attempts = recloud_options{}.engine_max_attempts;
    engine.verdict_cache = default_cache_options(*out->support);
    engine.transport = transport_kind::socket;
    engine.socket.worker_binary = worker_binary();
    engine.topology = &s->topology();
    engine.links = s->links();
    out->engine = std::make_unique<engine_backend>(
        s->registry().size(), s->forest(),
        [s] { return s->make_oracle(); }, *out->engine_sampler, engine);
    const plan_case& warm = out->cases.front();
    out->warm_stats = out->engine->assess(warm.app, warm.plan, assessment_rounds(options));
    out->fleet_end_ns = now_ns();
    out->fleet_ms = static_cast<double>(out->fleet_end_ns - out->fleet_start_ns) / 1e6;
    return out;
}

/// Outside the set-up time: the serial backend takes the warm-up's stream
/// too, and must agree with it.
void check_warm_up(setup& state, std::size_t rounds, outcome& result) {
    const plan_case& warm = state.cases.front();
    result.check(identical(state.warm_stats, state.serial->assess(warm.app, warm.plan, rounds)),
                 "warm-up: engine stats differ from the serial backend's");
}

/// Worker-side replica of one batch: the same wire decode and the same
/// route-and-check a recloud_worker runs (BFS oracle, private cache).
struct worker_replica {
    std::unique_ptr<round_state> rs;
    std::unique_ptr<timed_oracle> oracle;
    std::unique_ptr<verdict_cache> cache;
};

}  // namespace

outcome run_engine_socket(const run_options& options) {
    const std::size_t rounds = assessment_rounds(options);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::max(1u, nproc - 1);
    outcome result;
    measured values;

    std::vector<double> setup_s;
    std::vector<double> topology_ms;
    std::vector<double> scenario_ms;
    std::vector<double> fleet_ms;
    std::unique_ptr<setup> state;
    for (int rep = 0; rep < (options.reduced ? 1 : 3); ++rep) {
        state.reset();  // the previous fleet shuts down first
        const steady::time_point start = steady::now();
        state = make_setup(options, workers);
        setup_s.push_back(seconds_since(start));
        check_warm_up(*state, rounds, result);
        topology_ms.push_back(state->fx.topology_ms);
        scenario_ms.push_back(state->fx.scenario_ms);
        fleet_ms.push_back(state->fleet_ms);
    }
    const scenario_ptr& s = state->fx.scenario;
    std::printf("engine: %zu socket workers, batch %zu rounds\n",
                state->engine->workers(), recloud_options{}.assessment_batch_rounds);

    span_recorder spans;
    std::unique_ptr<extended_dagger_sampler> replica_sampler;
    worker_replica worker;
    if (options.trace) {
        spans.name_lane(1, "master replica");
        spans.name_lane(2, "worker replica");
        spans.name_lane(3, "setup");
        spans.name_lane(4, "assessments");
        spans.record_setup(state->fx, 3);
        spans.record("setup.fleet", 3, state->fleet_start_ns, state->fleet_end_ns);
        // The engine has consumed the warm-up assessment's rounds.
        replica_sampler = std::make_unique<extended_dagger_sampler>(
            s->registry().probabilities(), derive_seed(options.seed, 1));
        std::vector<component_id> skip;
        for (std::size_t r = 0; r < rounds; ++r) {
            replica_sampler->next_round(skip);
        }
        worker.rs = std::make_unique<round_state>(s->registry().size(), s->forest());
        worker.oracle = std::make_unique<timed_oracle>(
            std::make_unique<bfs_reachability>(s->topology(), s->links()), nullptr);
        const verdict_cache_options cache = default_cache_options(*state->support);
        worker.cache = std::make_unique<verdict_cache>(
            *state->support, cache.max_entries, cache.cross_plan);
    }
    layer_clock clock;
    std::uint64_t encode_ns = 0;
    std::uint64_t decode_ns = 0;
    std::vector<double> transport_wait_ms;
    double op_ms_total = 0.0;
    double trace_ms_total = 0.0;
    const std::uint64_t bytes_before =
        state->engine->stats().bytes_sent + state->engine->stats().bytes_received;
    const std::uint64_t retries_before = state->engine->stats().retries;

    std::vector<double> op_ms;
    double ciw_sum = 0.0;
    double nines_sum = 0.0;
    const std::size_t batch_rounds = recloud_options{}.assessment_batch_rounds;
    const steady::time_point loop_start = steady::now();
    while (op_ms.empty() || seconds_since(loop_start) < options.seconds) {
        for (plan_case& c : state->cases) {
            const std::uint64_t op_start = now_ns();
            const assessment_stats stats = state->engine->assess(c.app, c.plan, rounds);
            const std::uint64_t op_end = now_ns();
            const double ms = static_cast<double>(op_end - op_start) / 1e6;
            ++result.attempted;
            op_ms.push_back(ms);
            c.ms.push_back(ms);
            ciw_sum += stats.ciw95;
            nines_sum += nines(stats.reliability, static_cast<double>(stats.rounds));
            // DESIGN.md §6: bit-identical to the serial backend on the same
            // stream and plan.
            result.check(identical(stats, state->serial->assess(c.app, c.plan, rounds)),
                         std::string{"engine stats differ from the serial backend's ("} +
                             c.name + ")");
            if (!options.trace) {
                continue;
            }
            spans.record("exec.assessment", 4, op_start, op_end);
            // Master side: sample and encode every batch; worker side:
            // decode and judge it; master again: decode the result.
            const std::uint64_t trace_start = now_ns();
            std::uint64_t master_ns = 0;
            std::uint64_t reliable = 0;
            requirement_evaluator evaluator{c.app, c.plan};
            worker.cache->bind(c.app, c.plan);
            std::vector<std::vector<component_id>> batch;
            for (std::size_t done = 0; done < rounds; done += batch_rounds) {
                const std::size_t n = std::min(batch_rounds, rounds - done);
                const std::uint64_t t0 = now_ns();
                batch.resize(n);
                for (std::vector<component_id>& round : batch) {
                    replica_sampler->next_round(round);
                }
                const std::uint64_t t1 = now_ns();
                byte_writer out;
                wire::encode_round_batch(out, batch);
                const std::uint64_t t2 = now_ns();
                byte_reader in{out.bytes()};
                const std::vector<std::vector<component_id>> decoded =
                    wire::decode_round_batch(in);
                const std::uint64_t t3 = now_ns();
                clock.sample_ns += t1 - t0;
                encode_ns += t2 - t1;
                decode_ns += t3 - t2;
                master_ns += t2 - t0;
                spans.record("sampling.batch", 1, t0, t1);
                spans.record("exec.encode_batch", 1, t1, t2);
                spans.record("exec.decode_batch", 2, t2, t3);
                const std::uint64_t before = clock.reliable;
                for (const std::vector<component_id>& round : decoded) {
                    (void)replica_round(worker.cache.get(), round, *worker.rs,
                                        *worker.oracle, c.plan, evaluator, clock,
                                        spans.detail_room() ? &spans : nullptr, 2);
                }
                wire::batch_result partial{n, clock.reliable - before};
                const std::uint64_t t4 = now_ns();
                byte_writer result_out;
                wire::encode_batch_result(result_out, partial);
                byte_reader result_in{result_out.bytes()};
                reliable += wire::decode_batch_result(result_in).reliable;
                const std::uint64_t t5 = now_ns();
                encode_ns += t5 - t4;  // result encode (worker) + decode (master)
                master_ns += t5 - t4;
                spans.record("exec.result_codec", 1, t4, t5);
            }
            trace_ms_total += static_cast<double>(now_ns() - trace_start) / 1e6;
            op_ms_total += ms;
            transport_wait_ms.push_back(ms - static_cast<double>(master_ns) / 1e6);
            result.check(reliable == stats.reliable,
                         std::string{"worker replica reliable count differs from the "
                                     "engine's ("} + c.name + ")");
        }
    }
    const engine_stats& engine = state->engine->stats();
    result.check(engine.retries == retries_before,
                 "engine retried batches: " + std::to_string(engine.retries));
    result.check(engine.failures() == 0 && engine.degraded == 0,
                 "engine saw worker failures or degraded batches");

    for (const plan_case& c : state->cases) {
        std::printf("plan %-18s n=%3zu p50=%8.2f ms\n", c.name, c.ms.size(), median(c.ms));
    }
    if (!options.trace) {
        const timing_summary t = summarize(op_ms);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mb();
        values["op_p50_ms"] = t.p50;
        values["op_p90_ms"] = t.p90.value_or(quantiles(op_ms, 10)[8]);
        values["rounds_per_s"] = median_pass_throughput(
            op_ms, std::vector<double>(op_ms.size(), static_cast<double>(rounds)),
            state->cases.size());
        values["plan_nines"] = nines_sum / static_cast<double>(op_ms.size());
        values["ciw95"] = ciw_sum / static_cast<double>(op_ms.size());
        std::printf("assessments=%zu p50=%.1f ms p90 samples=%s\n", op_ms.size(), t.p50,
                    t.p90 ? "enough" : "fewer than 100");
        emit_end_to_end(result, values);
        return result;
    }

    const double requested = static_cast<double>(clock.rounds);
    std::vector<self_time_row> rows{
        {"sampling.next_round (master)", static_cast<double>(clock.sample_ns) / 1e6},
        {"exec.encode", static_cast<double>(encode_ns) / 1e6},
        {"exec.decode", static_cast<double>(decode_ns) / 1e6}};
    replica_metrics(clock, worker.oracle->times().query_ns, values, rows);
    values["sampling.round_ns"] = static_cast<double>(clock.sample_ns) / requested;
    values["exec.encode_ns"] = static_cast<double>(encode_ns) / requested;
    values["exec.decode_ns"] = static_cast<double>(decode_ns) / requested;
    values["exec.bytes_per_round"] =
        static_cast<double>(engine.bytes_sent + engine.bytes_received - bytes_before) /
        static_cast<double>(rounds * op_ms.size());
    values["exec.transport_wait_ms"] = median(transport_wait_ms);
    values["exec.retries"] = static_cast<double>(engine.retries - retries_before);
    values["setup.topology_ms"] = median(topology_ms);
    values["setup.scenario_ms"] = median(scenario_ms);
    values["setup.fleet_ms"] = median(fleet_ms);
    values["obs.trace_overhead"] = trace_ms_total / op_ms_total;
    print_self_times("engine_socket replica (master + one worker, serial)", rows,
                     trace_ms_total);
    std::printf("engine wall %.1f ms over %zu assessments; transport wait p50 %.1f ms\n",
                op_ms_total, op_ms.size(), median(transport_wait_ms));
    std::filesystem::create_directories(options.trace_dir);
    spans.write_chrome(trace_path(options));
    emit_per_layer(result, values);
    return result;
}

}  // namespace rbench
