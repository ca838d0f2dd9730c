#include "span_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/build_info.hpp"

namespace rbench {

span_recorder::span_recorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(std::min<std::size_t>(capacity_, 1 << 16));
}

void span_recorder::name_lane(std::uint32_t tid, std::string name) {
    for (const auto& lane : lanes_) {
        if (lane.first == tid) {
            return;
        }
    }
    lanes_.emplace_back(tid, std::move(name));
}

void span_recorder::record(const char* name, std::uint32_t tid,
                           std::uint64_t start_ns, std::uint64_t end_ns) {
    if (full()) {
        ++dropped_;
        return;
    }
    spans_.push_back({name, tid, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0});
}

namespace {

/// Lane names are benchmark-chosen, but escape them anyway.
std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace

void span_recorder::write_chrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        throw std::runtime_error{"cannot write trace " + path};
    }
    std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
    for (const span& s : spans_) {
        origin = std::min(origin, s.start_ns);
    }
    std::fprintf(out, "{\"traceEvents\":[\n");
    std::fprintf(out,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
                 "\"args\":{\"name\":\"recloud_bench\"}}");
    for (const auto& [tid, name] : lanes_) {
        std::fprintf(out,
                     ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                     tid, json_escape(name).c_str());
    }
    for (const span& s : spans_) {
        std::fprintf(out,
                     ",\n{\"ph\":\"X\",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"pid\":1,\"tid\":%u}",
                     s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.dur_ns) / 1e3, s.tid);
    }
    std::fprintf(out, "\n],\"otherData\":{\"build\":%s,\"dropped_events\":%llu}}\n",
                 recloud::build_info_json().c_str(),
                 static_cast<unsigned long long>(dropped_));
    if (std::fclose(out) != 0) {
        throw std::runtime_error{"cannot finish trace " + path};
    }
}

void print_self_times(const char* title, const std::vector<self_time_row>& rows,
                      double total_ms) {
    std::printf("per-layer self time: %s\n", title);
    std::printf("  %-28s %12s %8s\n", "layer", "self ms", "share");
    double attributed = 0.0;
    for (const self_time_row& row : rows) {
        attributed += row.self_ms;
        std::printf("  %-28s %12.3f %7.1f%%\n", row.layer.c_str(), row.self_ms,
                    total_ms > 0 ? 100.0 * row.self_ms / total_ms : 0.0);
    }
    const double rest = total_ms - attributed;
    std::printf("  %-28s %12.3f %7.1f%%\n", "unattributed", rest,
                total_ms > 0 ? 100.0 * rest / total_ms : 0.0);
    std::printf("  %-28s %12.3f\n", "total (wall)", total_ms);
}

}  // namespace rbench
