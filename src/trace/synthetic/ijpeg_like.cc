#include "trace/synthetic/workloads.hh"

#include "base/logging.hh"
#include "base/units.hh"

namespace vmsim
{

namespace
{

constexpr Addr kTextBase = 0x00400000;
constexpr Addr kSrcImage = 0x10008000;
constexpr Addr kDstImage = 0x10448000;
constexpr Addr kCoeffBuf = 0x10890000;
constexpr Addr kStackBase = 0x7ff00000;

} // anonymous namespace

// ~10 KB of text: a handful of tight DCT/quantization kernels that
// loop heavily — nearly all fetches hit a few I-cache pages.
IjpegLikeWorkload::IjpegLikeWorkload(std::uint64_t seed)
    : SyntheticWorkload("ijpeg-like", seed, CodeModel(kTextBase, 8, 100, 400,
                                                      0.5, 0.9, seed ^ 0x666))
{
    // Data: sequential sweeps over source/destination images and a
    // coefficient buffer (together well under the L2 size, so steady
    // state is compulsory-miss free at L2). High spatial locality,
    // small page working set — the paper's counterexample benchmark.
    addData(StreamWalker(Region{kSrcImage, 256_KiB}, 4), 0.40);
    addData(StreamWalker(Region{kDstImage, 256_KiB}, 8), 0.30);
    addData(StreamWalker(Region{kCoeffBuf, 128_KiB}, 4), 0.20);
    addData(StackModel(Region{kStackBase, 16_KiB}), 0.10);

    setMemOpRate(0.30);
    setStoreFrac(0.40);
}

std::unique_ptr<SyntheticWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "gcc" || name == "gcc-like")
        return std::make_unique<GccLikeWorkload>(seed);
    if (name == "vortex" || name == "vortex-like")
        return std::make_unique<VortexLikeWorkload>(seed);
    if (name == "ijpeg" || name == "ijpeg-like")
        return std::make_unique<IjpegLikeWorkload>(seed);
    if (name == "stream" || name == "stream-diagnostic")
        return std::make_unique<StreamDiagnosticWorkload>(seed);
    if (name == "chase" || name == "chase-diagnostic")
        return std::make_unique<ChaseDiagnosticWorkload>(seed);
    if (name == "uniform" || name == "uniform-diagnostic")
        return std::make_unique<UniformDiagnosticWorkload>(seed);
    fatal("unknown workload '", name,
          "' (expected gcc, vortex, ijpeg, stream, chase or uniform)");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"gcc", "vortex",
                                                   "ijpeg"};
    return names;
}

} // namespace vmsim
