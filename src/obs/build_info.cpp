#include "obs/build_info.hpp"

#include "util/json.hpp"

#ifndef RECLOUD_GIT_HASH
#define RECLOUD_GIT_HASH "unknown"
#endif
#ifndef RECLOUD_BUILD_TYPE
#define RECLOUD_BUILD_TYPE "unknown"
#endif
#ifndef RECLOUD_SANITIZER
#define RECLOUD_SANITIZER ""
#endif

namespace recloud {
namespace {

constexpr build_info_t info{
    RECLOUD_GIT_HASH,
#if defined(__clang__)
    "clang " __VERSION__,
#elif defined(__GNUC__)
    "g++ " __VERSION__,
#else
    __VERSION__,
#endif
    RECLOUD_BUILD_TYPE,
    RECLOUD_SANITIZER,
};

}  // namespace

const build_info_t& build_info() noexcept { return info; }

std::string build_info_json() {
    std::string out = "{\"git\":";
    append_json_string(out, info.git_hash);
    out += ",\"compiler\":";
    append_json_string(out, info.compiler);
    out += ",\"build_type\":";
    append_json_string(out, info.build_type);
    out += ",\"sanitizer\":";
    append_json_string(out, info.sanitizer);
    out += "}";
    return out;
}

std::string build_info_banner() {
    std::string out = "recloud ";
    out += info.git_hash;
    out += " (";
    out += info.compiler;
    out += ", ";
    out += info.build_type;
    if (info.sanitizer[0] != '\0') {
        out += ", ";
        out += info.sanitizer;
    }
    out += ")";
    return out;
}

}  // namespace recloud
