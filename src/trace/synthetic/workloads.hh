/**
 * @file
 * The three synthetic stand-ins for the paper's SPEC'95 benchmarks.
 *
 * The paper focuses on "the benchmarks that have the worst virtual
 * memory performance: gcc and vortex, and one that provides
 * interesting counterexamples: ijpeg". Each workload here reproduces
 * the behavioral profile that drives those results rather than the
 * program itself (see DESIGN.md, substitution #1):
 *
 *  - GccLike:    large multi-function text footprint with skewed reuse;
 *                data split between a hot call stack and a 1 MB
 *                heap with short spatial runs. Moderate-to-poor TLB
 *                behavior on both I and D sides.
 *  - VortexLike: database-style access — pointer chasing over a large
 *                node pool plus wide, weakly-skewed index lookups.
 *                Poor spatial locality and a large data TLB working
 *                set (the paper's worst case).
 *  - IjpegLike:  small loop kernels streaming sequentially through
 *                image buffers: tiny code footprint, high spatial
 *                locality, small TLB working set (the counterexample).
 *
 * All three stay within the paper's 8 MB physical-memory budget.
 */

#ifndef VMSIM_TRACE_SYNTHETIC_WORKLOADS_HH
#define VMSIM_TRACE_SYNTHETIC_WORKLOADS_HH

#include <memory>

#include "trace/synthetic/components.hh"

namespace vmsim
{

/** gcc-like: big code footprint, stack + skewed heap data. */
class GccLikeWorkload : public SyntheticWorkload
{
  public:
    explicit GccLikeWorkload(std::uint64_t seed = 1);
};

/** vortex-like: pointer chasing, poor spatial locality, big D-TLB set. */
class VortexLikeWorkload : public SyntheticWorkload
{
  public:
    explicit VortexLikeWorkload(std::uint64_t seed = 1);
};

/** ijpeg-like: tight loops streaming image buffers. */
class IjpegLikeWorkload : public SyntheticWorkload
{
  public:
    explicit IjpegLikeWorkload(std::uint64_t seed = 1);
};

/**
 * Diagnostic workloads (see trace/synthetic/diagnostic.cc): single-
 * behavior extremes for calibration — pure sequential streaming,
 * pure pointer chasing, and uniform random access.
 */
class StreamDiagnosticWorkload : public SyntheticWorkload
{
  public:
    explicit StreamDiagnosticWorkload(std::uint64_t seed = 1);
};

class ChaseDiagnosticWorkload : public SyntheticWorkload
{
  public:
    explicit ChaseDiagnosticWorkload(std::uint64_t seed = 1);
};

class UniformDiagnosticWorkload : public SyntheticWorkload
{
  public:
    explicit UniformDiagnosticWorkload(std::uint64_t seed = 1);
};

/**
 * Factory by benchmark name: "gcc", "vortex" or "ijpeg" (also accepts
 * the "-like" suffixed forms), plus the diagnostics "stream", "chase"
 * and "uniform". fatal() on unknown names.
 */
std::unique_ptr<SyntheticWorkload>
makeWorkload(const std::string &name, std::uint64_t seed = 1);

/** The canonical benchmark names, in the paper's order. */
const std::vector<std::string> &workloadNames();

} // namespace vmsim

#endif // VMSIM_TRACE_SYNTHETIC_WORKLOADS_HH
