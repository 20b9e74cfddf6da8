/**
 * @file
 * Helpers several test suites share.
 */

#ifndef VMSIM_TESTS_COMMON_HH
#define VMSIM_TESTS_COMMON_HH

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "base/units.hh"
#include "core/sweep.hh"

namespace vmsim
{

/** All nine organizations. */
inline constexpr SystemKind kAllKinds[] = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::Notlb,      SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

/** A fresh temporary file, removed with the object. */
class TempFile
{
  public:
    TempFile()
    {
        char tmpl[] = "/tmp/vmsim_test_XXXXXX";
        if (const int fd = mkstemp(tmpl); fd >= 0)
            ::close(fd);
        path_ = tmpl;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** ULTRIX and INTEL on gcc at two L1 sizes, over @p seeds seeds. */
inline SweepSpec
smallSpec(unsigned seeds = 1)
{
    SimConfig base;
    base.l1 = CacheParams{4_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Intel})
        .workloads({"gcc"})
        .l1Sizes({4_KiB, 16_KiB})
        .seeds(seeds)
        .instructions(20'000)
        .warmup(2'000);
    return spec;
}

/** The CSV a sweep's results write. */
inline std::string
csvOf(const SweepResults &res)
{
    std::ostringstream os;
    res.writeCsv(os);
    return os.str();
}

} // namespace vmsim

#endif // VMSIM_TESTS_COMMON_HH
