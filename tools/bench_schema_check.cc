/**
 * @file
 * Validator for the BENCH_<name>.json telemetry artifacts (schema v3,
 * documented in EXPERIMENTS.md and obs/export.h; v2 added the "run"
 * context object and the "artifacts" path map, v3 dropped the
 * "metrics" registry snapshot). CI runs it over every
 * file the bench-smoke step produces, so a bench that drifts from the
 * schema fails the build rather than silently shipping malformed
 * telemetry.
 *
 *     bench_schema_check FILE...
 *     bench_schema_check --dir DIR     # every BENCH_*.json under DIR
 *
 * Exit status: 0 when every file validates, 1 otherwise (per-file
 * diagnostics on stderr).
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"

using laser::obs::Json;

namespace {

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Accumulates "field: problem" diagnostics for one file. */
struct Checker
{
    std::vector<std::string> problems;

    void
    flag(const std::string &what)
    {
        problems.push_back(what);
    }

    const Json *
    requireMember(const Json &doc, const char *key)
    {
        const Json *v = doc.find(key);
        if (!v)
            flag(std::string("missing required member \"") + key + "\"");
        return v;
    }

    void
    requireNonNegativeInteger(const Json *v, const char *key)
    {
        if (!v)
            return;
        const double d = v->asNumber(-1.0);
        if (!v->isNumber() || d < 0 || d != std::floor(d))
            flag(std::string("\"") + key +
                 "\" must be a non-negative integer");
    }
};

bool
validate(const std::string &path)
{
    std::string text;
    if (!readFile(path, &text)) {
        std::fprintf(stderr, "%s: cannot read\n", path.c_str());
        return false;
    }
    Json doc;
    std::string err;
    if (!Json::parse(text, &doc, &err)) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }

    Checker ck;
    if (!doc.isObject()) {
        ck.flag("root must be an object");
    } else {
        const Json *ver = ck.requireMember(doc, "schema_version");
        if (ver && ver->asNumber(-1.0) !=
                       double(laser::obs::kBenchSchemaVersion))
            ck.flag("\"schema_version\" must be " +
                    std::to_string(laser::obs::kBenchSchemaVersion));

        const Json *bench = ck.requireMember(doc, "bench");
        if (bench && (!bench->isString() || bench->asString().empty()))
            ck.flag("\"bench\" must be a non-empty string");

        const Json *wall = ck.requireMember(doc, "wall_seconds");
        if (wall && (!wall->isNumber() || wall->asNumber(-1.0) < 0))
            ck.flag("\"wall_seconds\" must be a number >= 0");

        const Json *run = ck.requireMember(doc, "run");
        if (run) {
            if (!run->isObject()) {
                ck.flag("\"run\" must be an object");
            } else {
                for (const char *key :
                     {"git_sha", "config_hash", "hostname"}) {
                    const Json *v = ck.requireMember(*run, key);
                    if (v && (!v->isString() || v->asString().empty()))
                        ck.flag(std::string("\"run.") + key +
                                "\" must be a non-empty string");
                }
                ck.requireNonNegativeInteger(
                    ck.requireMember(*run, "unix_time"), "run.unix_time");
                const Json *cpu = ck.requireMember(*run, "cpu_seconds");
                if (cpu && (!cpu->isNumber() || cpu->asNumber(-1.0) < 0))
                    ck.flag("\"run.cpu_seconds\" must be a number >= 0");
            }
        }

        // "artifacts" maps each artifact the run wrote to its non-empty
        // path.
        if (const Json *artifacts = ck.requireMember(doc, "artifacts")) {
            if (!artifacts->isObject()) {
                ck.flag("\"artifacts\" must be an object");
            } else {
                for (const auto &[key, v] : artifacts->members())
                    if (!v.isString() || v.asString().empty())
                        ck.flag("\"artifacts." + key +
                                "\" must be a non-empty path string");
            }
        }

        const Json *sweep = ck.requireMember(doc, "sweep");
        if (sweep) {
            if (!sweep->isObject()) {
                ck.flag("\"sweep\" must be an object");
            } else {
                for (const char *key :
                     {"machine_runs", "memory_cache_hits",
                      "disk_cache_hits"})
                    ck.requireNonNegativeInteger(
                        ck.requireMember(*sweep, key), key);
            }
        }

        const Json *results = ck.requireMember(doc, "results");
        if (results && !results->isObject())
            ck.flag("\"results\" must be an object");
    }

    for (const std::string &p : ck.problems)
        std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
    return ck.problems.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            const std::filesystem::path dir = argv[++i];
            std::error_code ec;
            for (const auto &entry :
                 std::filesystem::directory_iterator(dir, ec)) {
                const std::string name = entry.path().filename().string();
                if (name.rfind("BENCH_", 0) == 0 &&
                    entry.path().extension() == ".json")
                    files.push_back(entry.path().string());
            }
            if (ec) {
                std::fprintf(stderr, "%s: %s\n", dir.string().c_str(),
                             ec.message().c_str());
                return 1;
            }
        } else {
            files.emplace_back(argv[i]);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: bench_schema_check FILE... | --dir DIR\n"
                     "(no BENCH_*.json files found)\n");
        return 1;
    }

    int bad = 0;
    for (const std::string &f : files) {
        if (validate(f))
            std::printf("%s: ok\n", f.c_str());
        else
            ++bad;
    }
    if (bad)
        std::fprintf(stderr, "%d of %zu file(s) failed validation\n",
                     bad, files.size());
    return bad ? 1 : 0;
}
