#include "trace/synthetic/workloads.hh"

#include "base/units.hh"

namespace vmsim
{

namespace
{

constexpr Addr kTextBase = 0x00400000;
constexpr Addr kNodePool = 0x100c0000; ///< linked object store
constexpr Addr kIndexBase = 0x20480000; ///< index / directory region
constexpr Addr kStackBase = 0x7ff00000;

} // anonymous namespace

// ~120 KB of text: an OO database's dispatch-heavy code.
VortexLikeWorkload::VortexLikeWorkload(std::uint64_t seed)
    : SyntheticWorkload("vortex-like", seed,
                        CodeModel(kTextBase, 40, 200, 1000, 0.7, 0.4,
                                  seed ^ 0x333))
{
    // Data: a hot linked working set (frequently re-traversed recent
    // objects) plus a cold 2 MB object pool chased in a permutation
    // cycle — successive cold references share neither lines nor
    // pages — and weakly-skewed lookups over an index region. This is
    // the paper's "database application with data accesses that have
    // poor spatial locality": the cold chase and wide index give
    // vortex the largest D-TLB working set of the three workloads.
    addData(PointerChase(Region{kNodePool, 96_KiB}, 1536, 64,
                         seed ^ 0x777),
            0.29);
    addData(PointerChase(Region{kNodePool + 0x4240000, 1_MiB}, 256, 4096,
                         seed ^ 0x444),
            0.015);
    addData(PointerChase(Region{kNodePool + 0x5358000, 128_KiB}, 2048, 64,
                         seed ^ 0x666),
            0.035);
    addData(ZipfRegionAccess(Region{kIndexBase, 128_KiB}, 128, 0.8, 2,
                             seed ^ 0x555),
            0.42);
    addData(StackModel(Region{kStackBase, 32_KiB}), 0.22);

    setMemOpRate(0.40);
    setStoreFrac(0.30);
}

} // namespace vmsim
