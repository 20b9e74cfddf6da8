#include "mem/mem_system.hh"

#include "base/logging.hh"

namespace vmsim
{

CacheParams
MemSystem::doubled(CacheParams p, bool enable)
{
    if (enable)
        p.sizeBytes *= 2;
    return p;
}

MemSystem::MemSystem(const CacheParams &l1, const CacheParams &l2,
                     std::uint64_t seed, bool unified_l2)
    : unifiedL2_(unified_l2), l1i_(l1, seed ^ 0x11),
      l1d_(l1, seed ^ 0x22), l2i_(doubled(l2, unified_l2), seed ^ 0x33),
      l2dOwn_(l2, seed ^ 0x44),
      l2dPtr_(unified_l2 ? &l2i_ : &l2dOwn_)
{
    fatalIf(l2.sizeBytes < l1.sizeBytes,
            "L2 (", l2.sizeBytes, "B) smaller than L1 (", l1.sizeBytes,
            "B)");
    fatalIf(l2.lineSize < l1.lineSize,
            "L2 line (", l2.lineSize, "B) smaller than L1 line (",
            l1.lineSize, "B)");
}

MemLevel
MemSystem::dataSpan(Addr addr, Addr last, ClassCounters &ctrs)
{
    MemLevel worst = MemLevel::L1;
    for (Addr a = l1d_.lineAddr(addr); a <= l1d_.lineAddr(last);
         a += l1d_.params().lineSize) {
        MemLevel lvl = accessLine(l1d_, *l2dPtr_, a, ctrs);
        if (lvl > worst)
            worst = lvl;
    }
    return worst;
}

void
MemSystem::invalidateAll()
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2i_.invalidateAll();
    l2dOwn_.invalidateAll();
}

} // namespace vmsim
