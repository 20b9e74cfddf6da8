#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.hh"

namespace perf
{

namespace
{

const std::vector<SystemKind> kAllOrgs = {
    SystemKind::Ultrix,     SystemKind::Mach,   SystemKind::Intel,
    SystemKind::Parisc,     SystemKind::Notlb,  SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

const std::vector<SystemKind> kTlbOrgs = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::HwInverted, SystemKind::HwMips,
};

/** Smoke grids: one software-refilled, one hardware-walked, one hashed. */
const std::vector<SystemKind> kSmokeOrgs = {
    SystemKind::Ultrix, SystemKind::Intel, SystemKind::Parisc,
};

constexpr Counter kSmokeInstrs = 20'000;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** The figure-sweep grid: orgs x 3 workloads x L1 size x line sizes. */
SweepSpec
figureGrid(std::uint64_t seed, bool smoke, Counter instrs)
{
    SimConfig base;
    base.seed = seed;
    SweepSpec spec;
    spec.base(base)
        .systems(smoke ? kSmokeOrgs : kAllOrgs)
        .workloads(vmsim::workloadNames())
        .instructions(smoke ? kSmokeInstrs : instrs);
    if (smoke)
        spec.l1Sizes({16_KiB}).lineSizes({{32, 64}});
    else
        spec.l1Sizes({16_KiB, 64_KiB}).lineSizes({{32, 64}, {64, 128}});
    return spec;
}

/**
 * The pressure grid: TLB orgs x 3 workloads x frame budget x reclaim
 * policy on the 4-core machine with small private TLBs and a shared
 * L2 TLB, so evictions, shootdowns and TLB churn all run.
 */
SweepSpec
pressureGrid(std::uint64_t seed, bool smoke)
{
    SimConfig base;
    base.seed = seed;
    base.cores = kMcCores;
    base.coreQuantum = kMcQuantum;
    base.ctxSwitchInterval = kMcCtxSwitch;
    base.tlbEntries = kMcTlbEntries;
    base.tlbProtectedSlots = kMcTlbProtected;
    base.l2TlbEntries = kMcL2TlbEntries;
    base.sharedL2Tlb = true;

    std::vector<ConfigVariant> variants;
    const std::vector<std::uint64_t> budgets =
        smoke ? std::vector<std::uint64_t>{512_KiB}
              : std::vector<std::uint64_t>{256_KiB, 512_KiB, 1_MiB};
    const std::vector<ReclaimPolicy> policies =
        smoke ? std::vector<ReclaimPolicy>{ReclaimPolicy::Lru}
              : std::vector<ReclaimPolicy>{ReclaimPolicy::Lru,
                                           ReclaimPolicy::Clock};
    for (std::uint64_t bytes : budgets) {
        for (ReclaimPolicy p : policies) {
            variants.push_back(
                {std::to_string(bytes >> 10) + "K-" + reclaimPolicyName(p),
                 [bytes, p](SimConfig &c) {
                     c.physFrames = bytes >> c.pageBits;
                     c.reclaimPolicy = p;
                 }});
        }
    }

    SweepSpec spec;
    spec.base(base)
        .systems(smoke ? kSmokeOrgs : kTlbOrgs)
        .workloads(vmsim::workloadNames())
        .variants(std::move(variants))
        .instructions(smoke ? kSmokeInstrs : 700'000);
    return spec;
}

} // anonymous namespace

const std::vector<std::string> &
perfWorkloadNames()
{
    static const std::vector<std::string> names = {
        "sweep_replay", "generate_cold", "mc_pressure", "observed_check"};
    return names;
}

PerfWorkload
makePerfWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    PerfWorkload w;
    w.name = name;
    if (name == "sweep_replay") {
        w.spec = figureGrid(seed, smoke, 1'000'000);
    } else if (name == "generate_cold") {
        w.spec = figureGrid(seed, smoke, 400'000);
        w.traceCache = false;
    } else if (name == "mc_pressure") {
        w.spec = pressureGrid(seed, smoke);
    } else if (name == "observed_check") {
        w.spec = figureGrid(seed, smoke, 300'000);
        w.observed = true;
    } else {
        fatal("unknown workload '", name,
              "' (expected sweep_replay, generate_cold, mc_pressure, "
              "observed_check or all)");
    }
    return w;
}

Counter
executedPerCell(const SweepSpec &spec)
{
    const Counter n = spec.instructionCount();
    return n + spec.warmupCount().value_or(defaultWarmup(n));
}

std::string
cellLabel(const SweepSpec &spec, std::size_t flat)
{
    const SweepCell cell = spec.cell(flat);
    const SimConfig &c = cell.config;
    std::string s = std::string(kindName(c.kind)) + "/" + cell.workload +
                    "/" + std::to_string(c.l1.sizeBytes >> 10) + "K/" +
                    std::to_string(c.l1.lineSize) + "-" +
                    std::to_string(c.l2.lineSize);
    if (!spec.variantAxis().empty())
        s += "/" + spec.variantAxis()[cell.index.variant].label;
    return s;
}

std::uint64_t
resultsDigest(const Results &r)
{
    std::uint64_t h = kFnvOffset;
    for (unsigned char c : r.serialize().dump() + r.toJson().dump()) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
gridDigest(const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t d : digests) {
        for (int i = 0; i < 8; ++i) {
            h ^= (d >> (8 * i)) & 0xff;
            h *= kFnvPrime;
        }
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

} // namespace perf
