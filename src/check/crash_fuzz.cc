#include "check/crash_fuzz.hh"

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/subprocess.hh"
#include "base/units.hh"
#include "core/shard.hh"
#include "core/sweep.hh"
#include "fault/fault.hh"

namespace vmsim
{

namespace
{

/** The tiny grid every campaign executes: @p cells seed replicas of
 *  one deterministic configuration. */
SweepSpec
fuzzSpec(const CrashFuzzOptions &opts)
{
    SimConfig base;
    base.l1 = CacheParams{16_KiB, 32};
    base.l2 = CacheParams{256_KiB, 64};
    SweepSpec spec;
    spec.base(base)
        .instructions(opts.instructions)
        .seeds(std::max(1u, opts.cells));
    return spec;
}

std::string
csvOf(const SweepResults &res)
{
    std::ostringstream os;
    res.writeCsv(os);
    return os.str();
}

/**
 * Worker identity "<prefix><n>", built by append: GCC 12 misreports a
 * "w" + std::string temporary under -Wrestrict (GCC bug 105651).
 */
std::string
ownerName(char prefix, unsigned n)
{
    std::string name(1, prefix);
    name += std::to_string(n);
    return name;
}

ShardOptions
workerOptions(const std::string &dir, const std::string &owner)
{
    ShardOptions sopts;
    sopts.dir = dir;
    sopts.owner = owner;
    // Short leases keep the fuzzer fast: a killed worker's claims are
    // reclaimable a quarter second later. Cells are milliseconds, so
    // live work is still never duplicated.
    sopts.leaseSeconds = 0.25;
    sopts.traceCacheMb = 16;
    sopts.graceful = false; // children die by plan, not by signal
    return sopts;
}

} // anonymous namespace

std::string
CrashFuzzReport::toString() const
{
    std::ostringstream os;
    os << "crash-fuzz: " << campaigns << " campaigns, " << workers
       << " workers, " << kills << " kills (" << tornTails
       << " torn tails), " << recoveries << " recovery workers, "
       << violations.size() << " violations";
    for (const std::string &v : violations)
        os << "\n  VIOLATION: " << v;
    return os.str();
}

Json
CrashFuzzReport::toJson() const
{
    Json j = Json::object();
    j.set("campaigns", static_cast<std::uint64_t>(campaigns));
    j.set("workers", static_cast<std::uint64_t>(workers));
    j.set("kills", static_cast<std::uint64_t>(kills));
    j.set("torn_tails", static_cast<std::uint64_t>(tornTails));
    j.set("recoveries", static_cast<std::uint64_t>(recoveries));
    Json list = Json::array();
    for (const std::string &v : violations)
        list.push(v);
    j.set("violations", std::move(list));
    return j;
}

CrashFuzzReport
runCrashFuzz(const CrashFuzzOptions &opts)
{
    namespace fs = std::filesystem;
    CrashFuzzReport report;
    const SweepSpec spec = fuzzSpec(opts);

    // The oracle: what any merge must reproduce byte for byte.
    const std::string baseline = csvOf(SweepRunner(1).run(spec));

    const std::string root =
        opts.dir.empty()
            ? "/tmp/vmsim-crash-fuzz-" + std::to_string(::getpid())
            : opts.dir;
    fs::create_directories(root);

    for (std::size_t c = 0; c < opts.campaigns; ++c) {
        const std::string dir =
            root + "/campaign-" + std::to_string(c);
        fs::remove_all(dir);
        Random rng(opts.seed * 0x9e3779b97f4a7c15ULL + c + 1);

        bool violated = false;
        auto violation = [&](const std::string &what) {
            report.violations.push_back(
                "campaign " + std::to_string(c) + ": " + what +
                " (scratch kept at " + dir + ")");
            violated = true;
        };
        auto checkExit = [&](const ExitStatus &st, bool mayBeKilled,
                             bool torn) {
            if (st.signaled && st.signal == SIGKILL && mayBeKilled) {
                ++report.kills;
                if (torn)
                    ++report.tornTails;
                return;
            }
            if (st.exited && st.exitCode == 0)
                return;
            violation("worker died unexpectedly: " + st.toString());
        };

        struct Spawn
        {
            pid_t pid;
            bool torn;
        };
        const unsigned nWorkers =
            1 + static_cast<unsigned>(
                    rng.uniform(std::max(1u, opts.maxWorkers)));
        std::vector<Spawn> spawned;
        std::vector<std::string> owners;
        for (unsigned w = 0; w < nWorkers; ++w) {
            ShardOptions sopts =
                workerOptions(dir, ownerName('w', w));
            if (rng.chance(0.8)) {
                sopts.crash.afterAppends =
                    static_cast<std::int64_t>(rng.uniform(8));
                sopts.crash.tornTail = rng.chance(0.5);
            }
            Expected<pid_t> pid = spawnFunction([&spec, sopts] {
                runShardWorker(spec, sopts);
                return 0;
            });
            if (!pid.ok()) {
                violation("cannot fork worker: " +
                          pid.error().toString());
                break;
            }
            spawned.push_back({pid.value(), sopts.crash.tornTail});
            owners.push_back(sopts.owner);
            ++report.workers;
        }
        for (const Spawn &s : spawned) {
            Expected<ExitStatus> st = waitProcess(s.pid);
            if (!st.ok())
                violation("wait failed: " + st.error().toString());
            else
                checkExit(st.value(), /*mayBeKilled=*/true, s.torn);
        }

        // Recovery: clean workers finish whatever the kills left open.
        // Reusing a dead worker's identity half the time exercises the
        // owner-side torn-tail truncation; a fresh identity exercises
        // the scanner-side skip.
        bool complete = false;
        for (int attempt = 0; attempt < 10 && !violated; ++attempt) {
            Expected<ShardScan> scan = scanShardDir(dir, spec);
            if (!scan.ok()) {
                violation("journal integrity: " +
                          scan.error().toString());
                break;
            }
            if (scan.value().complete()) {
                complete = true;
                break;
            }
            const std::string owner =
                (!owners.empty() && rng.chance(0.5))
                    ? owners[rng.uniform(owners.size())]
                    : ownerName('r', attempt);
            ShardOptions ropts = workerOptions(dir, owner);
            Expected<pid_t> pid = spawnFunction([&spec, ropts] {
                runShardWorker(spec, ropts);
                return 0;
            });
            if (!pid.ok()) {
                violation("cannot fork recovery worker: " +
                          pid.error().toString());
                break;
            }
            ++report.recoveries;
            Expected<ExitStatus> st = waitProcess(pid.value());
            if (!st.ok())
                violation("wait failed: " + st.error().toString());
            else
                checkExit(st.value(), /*mayBeKilled=*/false, false);
        }

        if (!violated && !complete)
            violation("grid still incomplete after 10 recovery "
                      "workers");
        if (!violated) {
            Expected<ShardMerge> merged = mergeShardDir(dir, spec);
            if (!merged.ok())
                violation("merge failed: " + merged.error().toString());
            else if (merged.value().missing != 0)
                violation("merge reports " +
                          std::to_string(merged.value().missing) +
                          " never-executed cells in a complete grid");
            else if (csvOf(merged.value().results) != baseline)
                violation("merged CSV differs from the single-process "
                          "baseline");
        }

        if (!violated && !opts.keep)
            fs::remove_all(dir);
        ++report.campaigns;
    }

    std::error_code ec;
    if (!opts.keep && fs::exists(root, ec) && fs::is_empty(root, ec))
        fs::remove_all(root, ec);
    return report;
}

} // namespace vmsim
