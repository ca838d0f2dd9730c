// recloud_bench: one command for every workload of the reCloud benchmark.
//
//   recloud_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--reduced] [--trace-dir DIR]
//   recloud_bench --self-test [--trace-dir DIR]
//
// Prints a host and build preamble, the workload's own report, and as its
// last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer ones traced.
// Exits 2 on bad arguments and 3 on an unoptimized or sanitizer build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.hpp"
#include "workloads.hpp"

namespace rbench {

int run_self_tests(const std::string& trace_dir);

namespace {

struct catalogue_entry {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr catalogue_entry end_to_end[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"rounds_per_s", "rounds/s"},
    {"plan_nines", "nines"},
    {"ciw95", "1"},
};

constexpr catalogue_entry per_layer[] = {
    {"sampling.round_ns", "ns/round"},
    {"faults.begin_round_ns", "ns/judged"},
    {"routing.begin_round_ns", "ns/judged"},
    {"routing.query_ns", "ns/judged"},
    {"routing.classify_ns", "ns/judged"},
    {"app.judge_ns", "ns/judged"},
    {"assess.cache_lookup_ns", "ns/round"},
    {"assess.cache_hit_rate", "1"},
    {"assess.judged_per_requested", "1"},
    {"assess.cross_plan_hits", "hits/op"},
    {"exec.encode_ns", "ns/round"},
    {"exec.decode_ns", "ns/round"},
    {"exec.bytes_per_round", "B/round"},
    {"exec.transport_wait_ms", "ms/op"},
    {"exec.retries", "count"},
    {"search.step_us", "us/iter"},
    {"search.symmetric_skip_rate", "1"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p90_ms", "ms"},
    {"service.search_p50_ms", "ms"},
    {"service.peak_queue_depth", "requests"},
    {"setup.topology_ms", "ms"},
    {"setup.scenario_ms", "ms"},
    {"setup.fleet_ms", "ms"},
    {"obs.trace_overhead", "1"},
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "recloud_bench: %s\nusage: recloud_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--reduced] [--trace-dir DIR]\n"
                 "       recloud_bench --self-test [--trace-dir DIR]\n"
                 "workloads: assess_paper engine_socket search_realistic "
                 "service_mixed\n",
                 why);
    std::exit(2);
}

}  // namespace

void emit_end_to_end(outcome& result, const measured& values) {
    for (const catalogue_entry& entry : end_to_end) {
        const auto it = values.find(entry.name);
        result.check(it != values.end(),
                     std::string{"workload did not measure "} + entry.name);
        result.add(entry.name, it != values.end() ? it->second : 0.0, entry.unit);
    }
}

void emit_per_layer(outcome& result, const measured& values) {
    for (const catalogue_entry& entry : per_layer) {
        const auto it = values.find(entry.name);
        result.add(entry.name, it != values.end() ? it->second : 0.0, entry.unit);
    }
    for (const auto& [name, value] : values) {
        bool known = false;
        for (const catalogue_entry& entry : per_layer) {
            known = known || name == entry.name;
        }
        result.check(known, "per-layer metric outside the catalogue: " + name);
    }
}

std::string trace_path(const run_options& options) {
    return options.trace_dir + "/" + options.workload + "-seed" +
           std::to_string(options.seed) + ".json";
}

}  // namespace rbench

int main(int argc, char** argv) {
    using namespace rbench;
    run_options options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        if (arg == "--self-test") {
            self_test = true;
            continue;
        }
        try {
            if (arg == "--workload") {
                options.workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                have_seconds = options.seconds > 0.0;
            } else if (arg == "--trace") {
                const std::string trace = value();
                if (trace != "0" && trace != "1") {
                    usage("--trace takes 0 or 1");
                }
                options.trace = trace == "1";
                have_trace = true;
            } else if (arg == "--reduced") {
                options.reduced = true;
            } else if (arg == "--trace-dir") {
                options.trace_dir = value();
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (self_test) {
        return run_self_tests(options.trace_dir);
    }
    if (!have_seed || !have_seconds || !have_trace) {
        usage("--seed, --seconds (> 0) and --trace are required");
    }
    const std::function<outcome(const run_options&)> workloads[] = {
        run_assess_paper, run_engine_socket, run_search_realistic,
        run_service_mixed};
    const char* names[] = {"assess_paper", "engine_socket", "search_realistic",
                           "service_mixed"};
    int chosen = -1;
    for (int w = 0; w < 4; ++w) {
        if (options.workload == names[w]) {
            chosen = w;
        }
    }
    if (chosen < 0) {
        usage(("unknown workload '" + options.workload + "'").c_str());
    }

    // The library's environment overrides would silently change what is
    // measured; the benchmark measures the configured defaults.
    ::unsetenv("RECLOUD_VERDICT_CACHE");
    ::unsetenv("RECLOUD_INCREMENTAL");

    const std::string unoptimized = unoptimized_build_reason();
    if (!unoptimized.empty() && !options.reduced) {
        std::fprintf(stderr, "recloud_bench: refusing to measure: %s\n",
                     unoptimized.c_str());
        return 3;
    }
    const host_info host = probe_host(std::max(1u, std::thread::hardware_concurrency()));
    std::printf("# host: nproc=%u effective_parallelism=%.2f loadavg=%.2f/%.2f/%.2f\n",
                host.nproc, host.effective_parallelism, host.load[0], host.load[1],
                host.load[2]);
    std::printf("# build: %s\n", recloud::build_info_json().c_str());
    std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d reduced=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, options.reduced ? 1 : 0);
    std::fflush(stdout);

    outcome result;
    const cpu_ticks before = read_cpu_ticks();
    try {
        result = workloads[chosen](options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "recloud_bench: %s failed: %s\n",
                     options.workload.c_str(), error.what());
        return 1;
    }
    const cpu_ticks after = read_cpu_ticks();
    if (after.total > before.total) {
        std::printf("# host steal during the run: %.1f%% of all CPU time\n",
                    100.0 * (after.steal - before.steal) / (after.total - before.total));
    }
    std::printf("%s\n", result_json(result).c_str());
    std::fflush(stdout);
    return 0;
}
