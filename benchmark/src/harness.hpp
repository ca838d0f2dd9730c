// Shared pieces of the reCloud benchmark: command line, result record,
// statistics, host preamble, scenario fixtures and the timing decorator that
// attributes routing-oracle time without touching the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/recloud.hpp"

namespace rbench {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(steady::time_point start) {
    return std::chrono::duration<double>(steady::now() - start).count();
}
[[nodiscard]] inline double ms_since(steady::time_point start) {
    return std::chrono::duration<double, std::milli>(steady::now() - start)
        .count();
}
[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            steady::now().time_since_epoch())
            .count());
}

// ---- command line and result ---------------------------------------------

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Reduced-size mode: small inputs and rounds so every check of a
    /// workload runs in seconds (the self-tests drive it).
    bool reduced = false;
    std::string trace_dir = ".bench_build/traces";
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload hands back: operation counts, correctness and metrics
/// (end-to-end ones untraced, per-layer ones traced).
struct outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;

    /// Records a failed output check (prints it to stderr).
    void check(bool ok, const std::string& what);
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(const outcome& result);

/// Deterministic sub-seed of the run seed for one purpose (`tag`).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// ---- statistics ----------------------------------------------------------

/// Python's statistics.quantiles(values, n=n) (exclusive method); one value
/// returns itself for every cut point.
[[nodiscard]] std::vector<double> quantiles(std::vector<double> values, int n);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Timing summary under the percentile rule: the p90 exists only when at
/// least `min_tail_samples` samples back it.
inline constexpr std::size_t min_tail_samples = 100;
struct timing_summary {
    double p50 = 0.0;
    std::optional<double> p90;
};
[[nodiscard]] timing_summary summarize(const std::vector<double>& samples);

/// Upper (1 - alpha) quantile of a chi-square distribution with `dof`
/// degrees of freedom (Wilson-Hilferty; accurate to a few percent for
/// dof >= 3, which is all the spread check uses).
[[nodiscard]] double chi_square_upper(double dof, double alpha);

/// Is the spread of independent estimates `values` no wider than an
/// estimator whose variance is `variance` allows? One-sided: the reported
/// CIW95 must not understate the observed spread ((m-1)s^2/V within the
/// chi-square bound). Returns the statistic through `ratio` (s^2 / V).
[[nodiscard]] bool spread_within_variance(const std::vector<double>& values,
                                          double variance, double alpha,
                                          double* ratio = nullptr);

/// |z| of the difference between two binomial proportions, with the pooled
/// variance floored at one event so two all-reliable estimates compare.
[[nodiscard]] double proportion_z(double successes_a, double n_a,
                                  double successes_b, double n_b);

/// -log10(max(1 - R, 1 / rounds)).
[[nodiscard]] double nines(double reliability, double rounds);

/// Open-loop generator: calls submit(i) at start + due_s[i] (sleeping until
/// then, never waiting on a reply) and returns how late each call began, in
/// ms. A request's latency is measured from its due time, so a stall of the
/// generator or of submit() shows up in every request it delays.
template <typename Submit>
std::vector<double> drive_open_loop(const std::vector<double>& due_s,
                                    steady::time_point start, Submit&& submit) {
    std::vector<double> late_ms;
    late_ms.reserve(due_s.size());
    for (std::size_t i = 0; i < due_s.size(); ++i) {
        const steady::time_point due =
            start + std::chrono::duration_cast<steady::duration>(
                        std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        late_ms.push_back(
            std::chrono::duration<double, std::milli>(steady::now() - due).count());
        submit(i);
    }
    return late_ms;
}

// ---- host ----------------------------------------------------------------

struct host_info {
    unsigned nproc = 1;
    double effective_parallelism = 1.0;
    double load[3] = {0, 0, 0};
};

/// Measures how many of `threads` spinning threads actually run at once
/// (the calling thread spins too, so at most `threads` threads exist).
[[nodiscard]] host_info probe_host(unsigned threads);

/// Empty when the library and this binary are optimized, sanitizer-free
/// builds; otherwise the reason they are not.
[[nodiscard]] std::string unoptimized_build_reason();

[[nodiscard]] double peak_rss_mb();

/// Cumulative CPU ticks of the whole host from /proc/stat: {all, steal}.
/// Zeros where unavailable.
struct cpu_ticks {
    double total = 0.0;
    double steal = 0.0;
};
[[nodiscard]] cpu_ticks read_cpu_ticks();

/// Median over passes of rounds / pass time: each pass is one whole round
/// of the workload's operation mix, so a burst of host noise moves one pass,
/// not the figure. Operation i took op_ms[i] for op_rounds[i] rounds; a pass
/// is `pass` consecutive operations.
[[nodiscard]] double median_pass_throughput(const std::vector<double>& op_ms,
                                            const std::vector<double>& op_rounds,
                                            std::size_t pass);

// ---- fixtures ------------------------------------------------------------

/// Per-component failure-probability regimes.
enum class regime : std::uint8_t {
    paper,      ///< §4.1: switches ~N(0.008, 0.001), others ~N(0.01, 0.001)
    realistic,  ///< 5e-4 everywhere
};
[[nodiscard]] recloud::infrastructure_options infra_options(regime r);

/// Routing-oracle time, accumulated per oracle and merged into a shared
/// sink when the oracle dies (each clone is used by one thread at a time).
struct oracle_times {
    std::uint64_t begin_ns = 0;
    std::uint64_t begin_calls = 0;
    std::uint64_t query_ns = 0;
    std::uint64_t classify_ns = 0;
    std::uint64_t classify_calls = 0;

    void add(const oracle_times& other) noexcept;
};

class oracle_time_sink {
public:
    void merge(const oracle_times& times);
    [[nodiscard]] oracle_times total() const;

private:
    mutable std::mutex mutex_;
    oracle_times total_;
};

/// Timing decorator over any routing oracle. Clones wrap clones of the
/// inner oracle and report into the same sink, so a scenario whose
/// prototype is a timed_oracle times every oracle the library makes from it.
class timed_oracle final : public recloud::reachability_oracle {
public:
    timed_oracle(std::unique_ptr<recloud::reachability_oracle> inner,
                 std::shared_ptr<oracle_time_sink> sink);
    ~timed_oracle() override;
    timed_oracle(const timed_oracle&) = delete;
    timed_oracle& operator=(const timed_oracle&) = delete;

    void begin_round(recloud::round_state& rs) override;
    void begin_round(recloud::round_state& rs,
                     std::span<const recloud::node_id> query_hosts) override;
    [[nodiscard]] bool border_reachable(recloud::node_id host) override;
    [[nodiscard]] bool host_to_host(recloud::node_id a,
                                    recloud::node_id b) override;
    [[nodiscard]] bool round_fully_connected(
        std::span<const recloud::component_id> raw_failed) override;
    [[nodiscard]] recloud::round_class classify_round(
        std::span<const recloud::component_id> raw_failed) override;
    [[nodiscard]] std::unique_ptr<recloud::reachability_oracle> clone()
        const override;
    [[nodiscard]] const recloud::link_attachment* consulted_links()
        const noexcept override;

    /// Times of this oracle so far (not yet merged into the sink).
    [[nodiscard]] const oracle_times& times() const noexcept { return times_; }

private:
    std::unique_ptr<recloud::reachability_oracle> inner_;
    std::shared_ptr<oracle_time_sink> sink_;
    oracle_times times_;
};

/// A fat-tree data center frozen into a scenario. With `sink`, the routing
/// prototype is a timed_oracle reporting there.
struct fixture {
    std::shared_ptr<recloud::fat_tree_infrastructure> infra;
    recloud::scenario_ptr scenario;
    double topology_ms = 0.0;  ///< infrastructure build (topology, registry, trees)
    double scenario_ms = 0.0;  ///< oracle prototype + freeze
    std::uint64_t start_ns = 0;  ///< steady-clock stamps of the two phases
    std::uint64_t built_ns = 0;
    std::uint64_t frozen_ns = 0;
};
[[nodiscard]] fixture make_fixture(
    int k, regime r, std::shared_ptr<oracle_time_sink> sink = nullptr);

/// Verdict-cache configuration the library's defaults use (cache and
/// cross-plan retention on), over a support the caller keeps alive.
[[nodiscard]] recloud::verdict_cache_options default_cache_options(
    const recloud::verdict_support& support);

/// The fat-tree k of the medium and large data centers, or the small
/// stand-ins of reduced-size mode.
[[nodiscard]] int medium_k(const run_options& options);
[[nodiscard]] int large_k(const run_options& options);

}  // namespace rbench
