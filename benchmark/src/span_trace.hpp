// In-memory spans recorded around calls into each layer, written out as a
// Chrome trace (chrome://tracing, ui.perfetto.dev) when the run ends, plus
// the per-layer self-time table printed beside it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rbench {

class span_recorder {
public:
    /// Spans beyond `capacity` are counted as dropped, never stored.
    explicit span_recorder(std::size_t capacity = 300'000);

    /// Names a trace lane; `name` is copied.
    void name_lane(std::uint32_t tid, std::string name);

    /// `name` must be a string literal. Times are steady-clock nanoseconds.
    void record(const char* name, std::uint32_t tid, std::uint64_t start_ns,
                std::uint64_t end_ns);

    [[nodiscard]] bool full() const noexcept { return spans_.size() >= capacity_; }
    /// Whether per-round detail spans still fit: the last tenth of the
    /// capacity is kept for the coarse spans recorded later in a run.
    [[nodiscard]] bool detail_room() const noexcept {
        return spans_.size() < capacity_ - capacity_ / 10;
    }

    /// Records the set-up spans of a fixture (see harness.hpp).
    template <typename Fixture>
    void record_setup(const Fixture& fx, std::uint32_t tid) {
        record("setup.topology", tid, fx.start_ns, fx.built_ns);
        record("setup.scenario", tid, fx.built_ns, fx.frozen_ns);
    }

    /// Writes the Chrome trace; throws std::runtime_error when unwritable.
    void write_chrome(const std::string& path) const;

private:
    struct span {
        const char* name;
        std::uint32_t tid;
        std::uint64_t start_ns;
        std::uint64_t dur_ns;
    };
    std::size_t capacity_;
    std::vector<span> spans_;
    std::vector<std::pair<std::uint32_t, std::string>> lanes_;
    std::uint64_t dropped_ = 0;
};

/// One row of the per-layer self-time table.
struct self_time_row {
    std::string layer;
    double self_ms = 0.0;
};

/// Prints the rows, an "unattributed" row holding `total_ms` minus their
/// sum, and the total, to stdout.
void print_self_times(const char* title, const std::vector<self_time_row>& rows,
                      double total_ms);

}  // namespace rbench
