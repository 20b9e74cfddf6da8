/**
 * @file
 * Diagnostic workloads: single-behavior traces for calibration and
 * controlled experiments, exposed through makeWorkload() alongside
 * the SPEC'95 stand-ins.
 *
 *  - "stream":  one tight loop streaming sequentially through a large
 *               buffer — pure spatial locality, the best case for
 *               caches and long lines, page-crossing TLB misses only.
 *  - "chase":   one tight loop pointer-chasing a pool sized well past
 *               the TLB reach — the worst case: almost every data
 *               reference is a TLB and cache miss.
 *  - "uniform": uniformly random word accesses over a region — the
 *               no-locality reference point between the two.
 *
 * These are deliberately degenerate; use them to bound a real trace's
 * behavior or to unit-test a new VM organization against known
 * extremes.
 */

#include "trace/synthetic/workloads.hh"

#include "base/units.hh"

namespace vmsim
{

namespace
{

constexpr Addr kTextBase = 0x00400000;
constexpr Addr kDataBase = 0x10048000;

/** One 64-instruction kernel looping forever. */
CodeModel
loopKernel(std::uint64_t seed)
{
    return CodeModel(kTextBase, 1, 64, 64, 0.0, 1.0, seed, 0.0);
}

} // anonymous namespace

StreamDiagnosticWorkload::StreamDiagnosticWorkload(std::uint64_t seed)
    : SyntheticWorkload("stream-diagnostic", seed, loopKernel(seed ^ 0x9a1))
{
    addData(StreamWalker(Region{kDataBase, 4_MiB}, 4), 1.0);
    setMemOpRate(0.5);
    setStoreFrac(0.25);
}

ChaseDiagnosticWorkload::ChaseDiagnosticWorkload(std::uint64_t seed)
    : SyntheticWorkload("chase-diagnostic", seed, loopKernel(seed ^ 0x9b2))
{
    // 64K nodes of 64 B over 4 MB: ~1024 pages against a 128-entry
    // TLB, no spatial locality whatsoever.
    addData(PointerChase(Region{kDataBase, 4_MiB}, 65536, 64, seed ^ 0x9c3),
            1.0);
    setMemOpRate(0.5);
    setStoreFrac(0.0);
}

UniformDiagnosticWorkload::UniformDiagnosticWorkload(std::uint64_t seed)
    : SyntheticWorkload("uniform-diagnostic", seed, loopKernel(seed ^ 0x9d4))
{
    addData(UniformAccess(Region{kDataBase, 4_MiB}), 1.0);
    setMemOpRate(0.5);
    setStoreFrac(0.25);
}

} // namespace vmsim
