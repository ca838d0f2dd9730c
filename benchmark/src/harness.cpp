#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/build_info.hpp"
#include "routing/fat_tree_routing.hpp"

namespace rbench {

using namespace recloud;

void outcome::check(bool ok, const std::string& what) {
    if (!ok) {
        correct = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
}

std::string result_json(const outcome& result) {
    std::string out = "{\"correct\": ";
    out += result.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    char buffer[64];
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const metric& m = result.metrics[i];
        // Every digit the double carries: no two runs round to one value.
        std::snprintf(buffer, sizeof buffer, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               buffer + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
    return substream_seed(seed, tag);
}

// ---- statistics ----------------------------------------------------------

std::vector<double> quantiles(std::vector<double> values, int n) {
    if (values.empty() || n < 2) {
        throw std::invalid_argument{"quantiles: need data and n >= 2"};
    }
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    std::vector<double> cuts;
    if (ld == 1) {
        cuts.assign(static_cast<std::size_t>(n - 1), values.front());
        return cuts;
    }
    // statistics.quantiles(method="exclusive"), exact integer positions.
    const long m = ld + 1;
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        cuts.push_back((values[static_cast<std::size_t>(j - 1)] * (n - delta) +
                        values[static_cast<std::size_t>(j)] * delta) /
                       n);
    }
    return cuts;
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) {
        total += v;
    }
    return total;
}

timing_summary summarize(const std::vector<double>& samples) {
    timing_summary summary;
    summary.p50 = median(samples);
    if (samples.size() >= min_tail_samples) {
        summary.p90 = quantiles(samples, 10)[8];
    }
    return summary;
}

namespace {

/// Standard normal quantile (Acklam's rational approximation, |error| <
/// 1.2e-9).
double normal_quantile(double p) {
    static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00, 2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
    const double low = 0.02425;
    if (p < low) {
        const double q = std::sqrt(-2 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    }
    if (p > 1 - low) {
        return -normal_quantile(1 - p);
    }
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

double chi_square_upper(double dof, double alpha) {
    const double z = normal_quantile(1.0 - alpha);
    const double h = 2.0 / (9.0 * dof);
    const double base = 1.0 - h + z * std::sqrt(h);
    return dof * base * base * base;
}

bool spread_within_variance(const std::vector<double>& values, double variance,
                            double alpha, double* ratio) {
    const std::size_t m = values.size();
    if (m < 3 || variance <= 0.0) {
        if (ratio != nullptr) {
            *ratio = 0.0;
        }
        return true;  // nothing to compare
    }
    double mean = 0.0;
    for (const double v : values) {
        mean += v;
    }
    mean /= static_cast<double>(m);
    double ss = 0.0;
    for (const double v : values) {
        ss += (v - mean) * (v - mean);
    }
    const double sample_variance = ss / static_cast<double>(m - 1);
    if (ratio != nullptr) {
        *ratio = sample_variance / variance;
    }
    const double dof = static_cast<double>(m - 1);
    return dof * sample_variance / variance <= chi_square_upper(dof, alpha);
}

double proportion_z(double successes_a, double n_a, double successes_b,
                    double n_b) {
    const double pa = successes_a / n_a;
    const double pb = successes_b / n_b;
    const double pooled = (successes_a + successes_b) / (n_a + n_b);
    const double spread =
        std::max(pooled * (1.0 - pooled), 1.0 / (n_a + n_b));
    return std::fabs(pa - pb) / std::sqrt(spread * (1.0 / n_a + 1.0 / n_b));
}

double nines(double reliability, double rounds) {
    return -std::log10(std::max(1.0 - reliability, 1.0 / rounds));
}

// ---- host ----------------------------------------------------------------

namespace {

/// A fixed amount of integer work the compiler cannot fold away.
std::uint64_t spin_work(std::uint64_t iterations) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    return state;
}

}  // namespace

host_info probe_host(unsigned threads) {
    host_info info;
    info.nproc = std::max(1u, std::thread::hardware_concurrency());
    threads = std::max(1u, threads);
    if (getloadavg(info.load, 3) != 3) {
        info.load[0] = info.load[1] = info.load[2] = -1.0;
    }
    // Calibrate ~30 ms of single-thread work, then run it on every thread
    // at once: wall time grows by the oversubscription factor.
    std::atomic<std::uint64_t> sink{0};
    std::uint64_t iterations = 1 << 20;
    double single = 0.0;
    for (;;) {
        const steady::time_point start = steady::now();
        sink += spin_work(iterations);
        single = seconds_since(start);
        if (single >= 0.03) {
            break;
        }
        iterations *= 2;
    }
    const steady::time_point start = steady::now();
    std::vector<std::thread> spinners;
    for (unsigned t = 1; t < threads; ++t) {
        spinners.emplace_back([&] { sink += spin_work(iterations); });
    }
    sink += spin_work(iterations);
    for (std::thread& spinner : spinners) {
        spinner.join();
    }
    const double parallel = seconds_since(start);
    info.effective_parallelism =
        std::min<double>(threads, threads * single / parallel);
    return info;
}

std::string unoptimized_build_reason() {
    const build_info_t& info = build_info();
    const std::string type = info.build_type;
    if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
        return "library build type is '" + type + "', not an optimized one";
    }
    if (info.sanitizer != nullptr && info.sanitizer[0] != '\0') {
        return std::string{"library built with sanitizer '"} + info.sanitizer +
               "'";
    }
#if !defined(__OPTIMIZE__)
    return "benchmark binary built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "benchmark binary built with a sanitizer";
#else
    return {};
#endif
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

cpu_ticks read_cpu_ticks() {
    cpu_ticks ticks;
    std::FILE* stat = std::fopen("/proc/stat", "r");
    if (stat == nullptr) {
        return ticks;
    }
    double field[8] = {};
    if (std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &field[0], &field[1],
                    &field[2], &field[3], &field[4], &field[5], &field[6],
                    &field[7]) == 8) {
        for (const double f : field) {
            ticks.total += f;
        }
        ticks.steal = field[7];
    }
    std::fclose(stat);
    return ticks;
}

double median_pass_throughput(const std::vector<double>& op_ms,
                              const std::vector<double>& op_rounds, std::size_t pass) {
    std::vector<double> per_pass;
    for (std::size_t begin = 0; begin + pass <= op_ms.size(); begin += pass) {
        double ms = 0.0;
        double work = 0.0;
        for (std::size_t i = begin; i < begin + pass; ++i) {
            ms += op_ms[i];
            work += op_rounds[i];
        }
        per_pass.push_back(work / (ms / 1e3));
    }
    return median(per_pass);
}

// ---- fixtures ------------------------------------------------------------

infrastructure_options infra_options(regime r) {
    infrastructure_options options;
    if (r == regime::realistic) {
        options.probabilities.switch_mean = 5e-4;
        options.probabilities.switch_stddev = 5e-4 / 8.0;
        options.probabilities.other_mean = 5e-4;
        options.probabilities.other_stddev = 5e-4 / 8.0;
    }
    return options;
}

void oracle_times::add(const oracle_times& other) noexcept {
    begin_ns += other.begin_ns;
    begin_calls += other.begin_calls;
    query_ns += other.query_ns;
    classify_ns += other.classify_ns;
    classify_calls += other.classify_calls;
}

void oracle_time_sink::merge(const oracle_times& times) {
    const std::lock_guard<std::mutex> lock{mutex_};
    total_.add(times);
}

oracle_times oracle_time_sink::total() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return total_;
}

timed_oracle::timed_oracle(std::unique_ptr<reachability_oracle> inner,
                           std::shared_ptr<oracle_time_sink> sink)
    : inner_(std::move(inner)), sink_(std::move(sink)) {
    if (inner_ == nullptr) {
        throw std::invalid_argument{"timed_oracle: no inner oracle"};
    }
}

timed_oracle::~timed_oracle() {
    if (sink_ != nullptr) {
        sink_->merge(times_);
    }
}

void timed_oracle::begin_round(round_state& rs) {
    const std::uint64_t start = now_ns();
    inner_->begin_round(rs);
    times_.begin_ns += now_ns() - start;
    ++times_.begin_calls;
}

void timed_oracle::begin_round(round_state& rs,
                               std::span<const node_id> query_hosts) {
    const std::uint64_t start = now_ns();
    inner_->begin_round(rs, query_hosts);
    times_.begin_ns += now_ns() - start;
    ++times_.begin_calls;
}

bool timed_oracle::border_reachable(node_id host) {
    const std::uint64_t start = now_ns();
    const bool reachable = inner_->border_reachable(host);
    times_.query_ns += now_ns() - start;
    return reachable;
}

bool timed_oracle::host_to_host(node_id a, node_id b) {
    const std::uint64_t start = now_ns();
    const bool reachable = inner_->host_to_host(a, b);
    times_.query_ns += now_ns() - start;
    return reachable;
}

bool timed_oracle::round_fully_connected(
    std::span<const component_id> raw_failed) {
    const std::uint64_t start = now_ns();
    const bool connected = inner_->round_fully_connected(raw_failed);
    times_.classify_ns += now_ns() - start;
    ++times_.classify_calls;
    return connected;
}

round_class timed_oracle::classify_round(
    std::span<const component_id> raw_failed) {
    const std::uint64_t start = now_ns();
    const round_class cls = inner_->classify_round(raw_failed);
    times_.classify_ns += now_ns() - start;
    ++times_.classify_calls;
    return cls;
}

std::unique_ptr<reachability_oracle> timed_oracle::clone() const {
    std::unique_ptr<reachability_oracle> inner = inner_->clone();
    if (inner == nullptr) {
        return nullptr;
    }
    return std::make_unique<timed_oracle>(std::move(inner), sink_);
}

const link_attachment* timed_oracle::consulted_links() const noexcept {
    return inner_->consulted_links();
}

fixture make_fixture(int k, regime r, std::shared_ptr<oracle_time_sink> sink) {
    fixture out;
    out.start_ns = now_ns();
    out.infra = fat_tree_infrastructure::build_shared(k, infra_options(r));
    out.built_ns = now_ns();
    const fat_tree_infrastructure& infra = *out.infra;
    std::shared_ptr<const reachability_oracle> prototype =
        std::make_shared<const fat_tree_routing>(infra.tree(), infra.links(),
                                                 &infra.forest());
    if (sink != nullptr) {
        prototype = std::make_shared<const timed_oracle>(prototype->clone(),
                                                         std::move(sink));
    }
    scenario_builder builder;
    builder.name(infra.topology().name)
        .topology(infra.topology())
        .registry(infra.registry())
        .forest(infra.forest())
        .workloads(infra.workloads())
        .own_oracle(std::move(prototype));
    if (infra.links() != nullptr) {
        builder.links(*infra.links());
    }
    builder.keep_alive(out.infra);
    out.scenario = builder.freeze();
    out.frozen_ns = now_ns();
    out.topology_ms = static_cast<double>(out.built_ns - out.start_ns) / 1e6;
    out.scenario_ms = static_cast<double>(out.frozen_ns - out.built_ns) / 1e6;
    return out;
}

verdict_cache_options default_cache_options(const verdict_support& support) {
    const recloud_options defaults;
    verdict_cache_options options;
    options.enabled = defaults.verdict_cache;
    options.max_entries = defaults.verdict_cache_entries;
    options.support = &support;
    options.cross_plan = defaults.incremental;
    return options;
}

int medium_k(const run_options& options) {
    return options.reduced ? 12 : fat_tree_k_for(data_center_scale::medium);
}

int large_k(const run_options& options) {
    return options.reduced ? 16 : fat_tree_k_for(data_center_scale::large);
}

}  // namespace rbench
