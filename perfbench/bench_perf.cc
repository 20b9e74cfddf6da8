/**
 * @file
 * bench_perf: host-time benchmark of vmsim's figure sweeps.
 *
 * Four workloads (see README.md) each run a 108-cell sweep grid
 * through CellRunner::run, single-threaded and closed-loop: passes over
 * the grid repeat until --seconds have elapsed (at least three), and
 * each cell keeps its fastest pass. The plain run reports the
 * end-to-end metrics; --traced reports host time by layer. Every cell
 * is audited after the timed region and its Results digest is checked
 * against expected_digests.json when the seed has committed digests.
 *
 * Usage: bench_perf [--workload=NAME|all] [--seed=N] [--seconds=S]
 *                   [--plain | --traced] [--smoke] [--digests=PATH]
 *                   [--bless] [--trace-out=PATH]
 *
 * Without --plain or --traced both runs are made. Each run prints one
 * JSON line on stdout and a readable report on stderr. The exit code
 * is 0 when every check passed, 1 when one failed, 2 on bad usage.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness.hh"

namespace
{

using namespace perf;

/** The seed whose digests are committed. */
constexpr std::uint64_t kBlessSeed = 12345;

/** Committed per-cell digests: grid key -> cell label -> hex. */
using DigestBook = std::map<std::string, std::map<std::string, std::string>>;

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = kBlessSeed;
    double seconds = 20;
    bool plain = true;
    bool traced = true;
    bool smoke = false;
    bool bless = false;
    std::string digests;
    std::string traceOut;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool plainOnly = false, tracedOnly = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [a](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
        };
        if (const char *v = val("--workload="))
            o.workload = v;
        else if (const char *v = val("--seed="))
            o.seed = parseU64(v, "--seed").orThrow();
        else if (const char *v = val("--seconds="))
            o.seconds = parseF64(v, "--seconds").orThrow();
        else if (const char *v = val("--digests="))
            o.digests = v;
        else if (const char *v = val("--trace-out="))
            o.traceOut = v;
        else if (std::strcmp(a, "--plain") == 0)
            plainOnly = true;
        else if (std::strcmp(a, "--traced") == 0)
            tracedOnly = true;
        else if (std::strcmp(a, "--smoke") == 0)
            o.smoke = true;
        else if (std::strcmp(a, "--bless") == 0)
            o.bless = true;
        else
            fatal("unknown argument '", a,
                  "' (expected --workload=NAME|all, --seed=N, "
                  "--seconds=S, --plain, --traced, --smoke, "
                  "--digests=PATH, --bless, --trace-out=PATH)");
    }
    fatalIf(plainOnly && tracedOnly, "--plain and --traced exclude each other");
    fatalIf(o.seconds < 0, "--seconds must be >= 0");
    fatalIf(o.bless && o.digests.empty(), "--bless needs --digests=PATH");
    fatalIf(o.bless && o.seed != kBlessSeed, "--bless records seed ",
            kBlessSeed, " only");
    if (plainOnly)
        o.traced = false;
    if (tracedOnly)
        o.plain = false;
    return o;
}

/** Load @p path; an absent file is an empty book. */
DigestBook
loadDigests(const std::string &path, std::uint64_t &seed)
{
    DigestBook book;
    seed = 0;
    std::ifstream is(path);
    if (!is.is_open())
        return book;
    std::stringstream ss;
    ss << is.rdbuf();
    const Json doc = Json::parse(ss.str()).orThrow();
    const Json *s = doc.find("seed");
    const Json *grids = doc.find("grids");
    fatalIf(!s || !grids || !grids->isObject(), path,
            ": expected {\"seed\": N, \"grids\": {...}}");
    seed = s->asUint();
    for (const auto &[key, cells] : grids->members())
        for (const auto &[label, hex] : cells.members())
            book[key][label] = hex.asString();
    return book;
}

void
saveDigests(const std::string &path, const DigestBook &book)
{
    Json grids = Json::object();
    for (const auto &[key, cells] : book) {
        Json g = Json::object();
        for (const auto &[label, hex] : cells)
            g.set(label, hex);
        grids.set(key, std::move(g));
    }
    Json doc = Json::object();
    doc.set("seed", kBlessSeed);
    doc.set("grids", std::move(grids));
    atomicWriteFile(path, doc.dump(2) + "\n").orThrow();
}

/** Print one run's JSON line (stdout) and report (stderr). */
bool
report(const PerfWorkload &w, const char *mode, std::uint64_t seed,
       const RunReport &r)
{
    const bool correct = r.failed == 0 && r.problems.empty();
    std::fprintf(stderr, "== %s %s: %s, %zu/%zu cell runs failed ==\n",
                 w.name.c_str(), mode, correct ? "correct" : "INCORRECT",
                 r.failed, r.attempted);
    for (std::size_t i = 0; i < r.problems.size() && i < 10; ++i)
        std::fprintf(stderr, "  ! %s\n", r.problems[i].c_str());
    if (r.problems.size() > 10)
        std::fprintf(stderr, "  ! ... %zu more\n", r.problems.size() - 10);
    std::fprintf(stderr, "  %-32s %16.6g %s\n", "fail_ratio",
                 r.attempted ? double(r.failed) / double(r.attempted) : 0.0,
                 "ratio");

    Json ms = Json::object();
    for (const Metric &m : r.metrics) {
        std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        ms.set(m.name, std::move(v));
    }
    Json line = Json::object();
    line.set("workload", w.name);
    line.set("mode", mode);
    line.set("seed", seed);
    line.set("digest", hex64(gridDigest(r.digests)));
    line.set("correct", correct);
    line.set("attempted", static_cast<std::uint64_t>(r.attempted));
    line.set("failed", static_cast<std::uint64_t>(r.failed));
    line.set("metrics", std::move(ms));
    std::cout << line.dump() << std::endl;
    return correct;
}

int
run(const Options &o)
{
    std::uint64_t bookSeed = 0;
    DigestBook book;
    if (!o.digests.empty())
        book = loadDigests(o.digests, bookSeed);

    std::vector<std::string> names = {o.workload};
    if (o.workload == "all")
        names = perfWorkloadNames();

    bool ok = true;
    for (const std::string &name : names) {
        const PerfWorkload w = makePerfWorkload(name, o.seed, o.smoke);
        const std::string key = o.smoke ? "smoke/" + name : name;

        if (o.bless) {
            const RunReport r = runEndToEnd(w, RunLength{}, nullptr);
            fatalIf(!r.problems.empty(), "not blessing ", name, ": ",
                    r.problems.empty() ? "" : r.problems.front());
            auto &cells = book[key];
            cells.clear();
            for (std::size_t i = 0; i < r.digests.size(); ++i)
                cells[cellLabel(w.spec, i)] = hex64(r.digests[i]);
            std::fprintf(stderr, "blessed %zu digests for %s\n",
                         r.digests.size(), key.c_str());
            continue;
        }

        const auto *expected = bookSeed == o.seed && book.count(key)
                                   ? &book.at(key)
                                   : nullptr;
        if (!expected)
            std::fprintf(stderr,
                         "note: no committed digests for %s at seed %llu; "
                         "checking by audit and determinism only\n",
                         key.c_str(),
                         static_cast<unsigned long long>(o.seed));
        // Setups repeat for 0.15 s before each pass, so the cheap ones
        // (one generate_cold setup is a 30 ms cell) are sampled often.
        if (o.plain)
            ok &= report(w, "plain", o.seed,
                         runEndToEnd(w, RunLength{o.seconds, 3, 0.15},
                                     expected));
        if (o.traced) {
            std::string tracePath = o.traceOut;
            if (!tracePath.empty() && names.size() > 1)
                tracePath += "." + name;
            ok &= report(w, "traced", o.seed,
                         runTraced(w, o.seconds, expected, tracePath));
        }
    }
    if (o.bless)
        saveDigests(o.digests, book);
    return ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_perf: %s\n", e.what());
        return 2;
    }
}
