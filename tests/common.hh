/**
 * @file
 * Helpers several test suites share.
 */

#ifndef VMSIM_TESTS_COMMON_HH
#define VMSIM_TESTS_COMMON_HH

#include <sstream>
#include <string>

#include "core/sweep.hh"

namespace vmsim
{

/** All nine organizations. */
inline constexpr SystemKind kAllKinds[] = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::Notlb,      SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

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
