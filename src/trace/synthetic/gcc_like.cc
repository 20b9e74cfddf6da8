#include "trace/synthetic/workloads.hh"

#include "base/units.hh"

namespace vmsim
{

namespace
{

// User-space layout (below the 2 GB boundary, MIPS-like).
constexpr Addr kTextBase = 0x00400000;
constexpr Addr kHeapBase = 0x10048000;
constexpr Addr kSweepBase = 0x18890000;
constexpr Addr kStackBase = 0x7ff00000;

} // anonymous namespace

// ~256 KB of text across 64 functions with skewed popularity and
// frequent short tail loops: a compiler's pass-structured code.
GccLikeWorkload::GccLikeWorkload(std::uint64_t seed)
    : SyntheticWorkload("gcc-like", seed, CodeModel(kTextBase, 64, 400, 1600,
                                                    0.8, 0.5, seed ^ 0x111))
{
    // Data: a hot call stack, a 1 MB heap of small records with
    // strong temporal skew and short spatial runs (symbol tables,
    // RTL), and an occasional sequential sweep (source buffers).
    // Calibrated so the D-TLB miss rate lands near real gcc's
    // (a few tenths of a percent of instructions) and the hot data
    // largely fits a 1 MB L2.
    addData(StackModel(Region{kStackBase, 64_KiB}), 0.52);
    addData(ZipfRegionAccess(Region{kHeapBase, 1_MiB}, 64, 1.2, 6,
                             seed ^ 0x222),
            0.38);
    addData(StreamWalker(Region{kSweepBase, 512_KiB}, 16), 0.10);

    setMemOpRate(0.35);
    setStoreFrac(0.35);
}

} // namespace vmsim
