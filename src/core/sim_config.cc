#include "core/sim_config.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace vmsim
{

const char *
kindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Ultrix:     return "ULTRIX";
      case SystemKind::Mach:       return "MACH";
      case SystemKind::Intel:      return "INTEL";
      case SystemKind::Parisc:     return "PA-RISC";
      case SystemKind::Notlb:      return "NOTLB";
      case SystemKind::Base:       return "BASE";
      case SystemKind::HwInverted: return "HW-INVERTED";
      case SystemKind::HwMips:     return "HW-MIPS";
      case SystemKind::Spur:       return "SPUR";
    }
    panic("unreachable SystemKind");
}

std::optional<SystemKind>
tryKindFromName(const std::string &name)
{
    std::string up = name;
    std::transform(up.begin(), up.end(), up.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
    });
    if (up == "ULTRIX")      return SystemKind::Ultrix;
    if (up == "MACH")        return SystemKind::Mach;
    if (up == "INTEL")       return SystemKind::Intel;
    if (up == "PA-RISC" || up == "PARISC") return SystemKind::Parisc;
    if (up == "NOTLB")       return SystemKind::Notlb;
    if (up == "BASE")        return SystemKind::Base;
    if (up == "HW-INVERTED" || up == "HWINVERTED")
        return SystemKind::HwInverted;
    if (up == "HW-MIPS" || up == "HWMIPS") return SystemKind::HwMips;
    if (up == "SPUR")        return SystemKind::Spur;
    return std::nullopt;
}

SystemKind
kindFromName(const std::string &name)
{
    if (std::optional<SystemKind> kind = tryKindFromName(name))
        return *kind;
    fatal("unknown system '", name, "'");
}

bool
kindHasTlb(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Notlb:
      case SystemKind::Base:
      case SystemKind::Spur:
        return false;
      default:
        return true;
    }
}

bool
kindUsesSoftwareRefill(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Ultrix:
      case SystemKind::Mach:
      case SystemKind::Parisc:
      case SystemKind::Notlb:
        return true;
      default:
        return false;
    }
}

Status
SimConfig::validate() const
{
    // Every rule names the offending field in both the message and the
    // Error context, so sweep failure reports and tests can pinpoint
    // the bad knob without parsing prose.
    auto bad = [](const char *field, auto &&...msg) {
        return Status(makeError(ErrorCode::InvalidConfig, field,
                                std::forward<decltype(msg)>(msg)...));
    };
    if (l1.sizeBytes == 0 || !isPowerOf2(l1.sizeBytes))
        return bad("l1.sizeBytes",
                   "l1.sizeBytes must be a nonzero power of two, got ",
                   l1.sizeBytes);
    if (l2.sizeBytes < l1.sizeBytes)
        return bad("l2.sizeBytes", "l2.sizeBytes (", l2.sizeBytes,
                   ") must be at least l1.sizeBytes (", l1.sizeBytes,
                   ")");
    if (l2.lineSize < l1.lineSize)
        return bad("l2.lineSize", "l2.lineSize (", l2.lineSize,
                   ") must be >= l1.lineSize (", l1.lineSize, ")");
    if (tlbEntries == 0 && kindHasTlb(kind))
        return bad("tlbEntries", "tlbEntries must be nonzero: ",
                   kindName(kind), " requires a TLB");
    if ((tlbEntries > SlotIndex::kMaxKeys ||
         l2TlbEntries > SlotIndex::kMaxKeys) && kindHasTlb(kind))
        return bad("tlbEntries", "TLBs are limited to ",
                   SlotIndex::kMaxKeys, " entries (tlbEntries ", tlbEntries,
                   ", l2TlbEntries ", l2TlbEntries, ")");
    if (tlbProtectedSlots >= tlbEntries && kindHasTlb(kind))
        return bad("tlbProtectedSlots", "tlbProtectedSlots (",
                   tlbProtectedSlots,
                   ") must leave normal TLB capacity (tlbEntries ",
                   tlbEntries, ")");
    if (pageBits < 10 || pageBits > 20)
        return bad("pageBits", "pageBits must be in [10, 20], got ",
                   pageBits);
    if (physMemBytes == 0 || !isPowerOf2(physMemBytes))
        return bad("physMemBytes",
                   "physMemBytes must be a nonzero power of two, got ",
                   physMemBytes);
    if (hptRatio == 0)
        return bad("hptRatio", "hptRatio must be >= 1");
    if (costs.l1MissCycles == 0)
        return bad("costs.l1MissCycles",
                   "costs.l1MissCycles must be nonzero");
    if (costs.l2MissCycles == 0)
        return bad("costs.l2MissCycles",
                   "costs.l2MissCycles must be nonzero");
    if (costs.hwWalkOverlap < 0.0 || costs.hwWalkOverlap > 1.0)
        return bad("costs.hwWalkOverlap",
                   "costs.hwWalkOverlap must be in [0, 1], got ",
                   costs.hwWalkOverlap);
    if (cores == 0)
        return bad("cores", "cores must be >= 1");
    if (cores > 1 && coreQuantum == 0)
        return bad("coreQuantum",
                   "coreQuantum must be nonzero when cores > 1");
    if (physFrames == 1)
        return bad("physFrames",
                   "physFrames must be 0 (unlimited) or >= 2 so an "
                   "eviction always has a victim besides the faulting "
                   "page");
    if (physFrames > FramePool::kMaxCapacity)
        return bad("physFrames", "physFrames (", physFrames,
                   ") exceeds the frame pool's index bound of ",
                   FramePool::kMaxCapacity, " frames");
    if (physFrames != 0 && faultReadCycles == 0)
        return bad("faultReadCycles",
                   "faultReadCycles must be nonzero under a frame "
                   "budget");
    return Status();
}

std::string
SimConfig::toString() const
{
    std::ostringstream oss;
    oss << kindName(kind) << " L1=" << l1.toString()
        << " L2=" << l2.toString();
    if (kindHasTlb(kind))
        oss << " TLB=" << tlbEntries << "x2";
    oss << " int=" << costs.interruptCycles;
    // Appended only for multicore runs so every single-core string (and
    // thus every existing CSV fingerprint) is byte-identical.
    if (cores > 1) {
        oss << " cores=" << cores << " quantum=" << coreQuantum;
        if (l2TlbEntries > 0)
            oss << (sharedL2Tlb ? " l2tlb=shared" : " l2tlb=private");
    }
    // Same byte-identity rule for the pressure knobs: silent with no
    // frame budget configured.
    if (physFrames != 0)
        oss << " frames=" << physFrames << " reclaim="
            << reclaimPolicyName(reclaimPolicy);
    return oss.str();
}

} // namespace vmsim
