/**
 * @file
 * Simulation configuration: the cross-product space of paper Table 1.
 *
 *   Benchmarks         SPEC'95 integer (synthetic stand-ins)
 *   Caches             split, direct-mapped, virtual, blocking,
 *                      write-allocate, write-through
 *   L1 size            1..128 KB per side
 *   L2 size            1..4 MB per side (figure captions; Table 1's OCR
 *                      lists 512KB..2MB — see DESIGN.md)
 *   Line sizes         16..128 B
 *   TLBs               fully associative, random replacement,
 *                      128-entry I-TLB + 128-entry D-TLB; ULTRIX and
 *                      MACH reserve 16 protected slots
 *   Page size          4 KB
 *   Interrupt cost     10, 50, 200 cycles
 *   Systems            ULTRIX, MACH, INTEL, PA-RISC, NOTLB, BASE
 *                      (+ the Section 4.2 interpolations)
 */

#ifndef VMSIM_CORE_SIM_CONFIG_HH
#define VMSIM_CORE_SIM_CONFIG_HH

#include <optional>
#include <string>

#include "base/error.hh"
#include "base/types.hh"
#include "base/units.hh"
#include "mem/cache.hh"
#include "mem/frame_pool.hh"
#include "os/vm_system.hh"
#include "tlb/tlb.hh"

namespace vmsim
{

/** The simulated memory-management organizations. */
enum class SystemKind
{
    Ultrix,
    Mach,
    Intel,
    Parisc,
    Notlb,
    Base,
    // Interpolated organizations (paper Section 4.2):
    HwInverted,
    HwMips,
    Spur,
};

/** The paper's five headline systems plus BASE. */
constexpr SystemKind kPaperSystems[] = {
    SystemKind::Ultrix, SystemKind::Mach,  SystemKind::Intel,
    SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
};

/** Canonical display name ("ULTRIX", "PA-RISC", ...). */
const char *kindName(SystemKind kind);

/**
 * Parse a system name (case-insensitive) without aborting: returns
 * nullopt for unknown names so tools can validate user input and
 * report their own errors.
 */
std::optional<SystemKind> tryKindFromName(const std::string &name);

/** Parse a system name (case-insensitive); fatal() on unknown names. */
SystemKind kindFromName(const std::string &name);

/** True for organizations that use a TLB. */
bool kindHasTlb(SystemKind kind);

/** True for organizations that refill via software handlers. */
bool kindUsesSoftwareRefill(SystemKind kind);

/** Cycle costs of the paper's Tables 2 and 3 plus the interrupt cost. */
struct CostModel
{
    Cycles l1MissCycles = 20;   ///< L1 miss serviced by L2 (Table 2)
    Cycles l2MissCycles = 500;  ///< L2 miss serviced by memory
    Cycles interruptCycles = 50; ///< per precise interrupt {10,50,200}

    /**
     * Fraction of hardware-FSM walk cycles hidden under independent
     * instruction execution, as in the Pentium Pro ("allows
     * instructions that are independent of the faulting instruction
     * to continue processing while the TLB miss is serviced"). The
     * paper's uhandler numbers are "a conservative measurement"
     * assuming 0; 1.0 hides the FSM's sequential work entirely.
     * Applies only to hardware-walked organizations.
     */
    double hwWalkOverlap = 0.0;

    bool operator==(const CostModel &) const = default;
};

/** Full configuration of one simulation run. */
struct SimConfig
{
    SystemKind kind = SystemKind::Ultrix;

    CacheParams l1{32_KiB, 32, 1, CacheRepl::LRU};
    CacheParams l2{1_MiB, 64, 1, CacheRepl::LRU};

    /**
     * TLB geometry. protectedSlots here applies only to systems that
     * partition their TLBs (ULTRIX, MACH, HW-MIPS); the factory forces
     * zero for the others, matching the paper.
     */
    unsigned tlbEntries = 128;
    unsigned tlbProtectedSlots = 16;
    TlbRepl tlbRepl = TlbRepl::Random;

    /** TLB associativity; 0 = fully associative (the paper). */
    unsigned tlbAssoc = 0;

    /**
     * ASID tag bits; 0 (the paper) = untagged, so context switches
     * flush the TLBs. Nonzero: entries are tagged, switches keep them
     * and instead model competitor pressure by randomly evicting
     * ctxSwitchEvictions entries per side.
     */
    unsigned tlbAsidBits = 0;

    /** Entries evicted per side per switch when ASID-tagged. */
    unsigned ctxSwitchEvictions = 16;

    /**
     * Unified second-level TLB entries; 0 (the paper) = none. When
     * nonzero, TLB-based organizations probe it (l2TlbHitCycles of
     * FSM work) before running their refill mechanism — the two-level
     * TLB design of later MMUs.
     */
    unsigned l2TlbEntries = 0;

    /** Probe/refill cycles on an L2 TLB hit. */
    Cycles l2TlbHitCycles = 2;

    unsigned pageBits = 12;               ///< 4 KB pages
    std::uint64_t physMemBytes = 8_MiB;   ///< paper's PA-RISC assumption
    unsigned hptRatio = 2;                ///< HPT entries per frame

    /**
     * Memory-pressure frame budget (docs/pressure.md): the maximum
     * number of simultaneously-resident pageable pages. 0 (the paper's
     * assumption, and the default) = unlimited — no pool, no evictions,
     * byte-identical to the historical behavior. Nonzero caps
     * residency: a page touch past the budget evicts a victim chosen
     * by reclaimPolicy, invalidates its translations, and charges the
     * fault costs below. Independent of physMemBytes, which continues
     * to govern table sizing.
     */
    std::uint64_t physFrames = 0;

    /** Victim selection under a nonzero physFrames budget. */
    ReclaimPolicy reclaimPolicy = ReclaimPolicy::Fifo;

    /** Cycles charged per major fault (victim selection + read). */
    Cycles faultReadCycles = 2000;

    /** Extra cycles when the evicted victim was dirty (writeback). */
    Cycles faultWritebackCycles = 1000;

    /** Handler lengths; defaulted per system by the factory. */
    bool overrideHandlerCosts = false;
    HandlerCosts handlerCosts{};

    /**
     * Share one L2 (of twice the per-side capacity) between the I and
     * D sides — the unified organization the paper notes "would give
     * better performance" but does not simulate.
     */
    bool unifiedL2 = false;

    /**
     * Simulate multiprogramming pressure: every this-many user
     * instructions the OS switches address spaces and the TLBs are
     * flushed (the simulated MMUs carry no ASIDs). The TLB-less
     * organizations flush their (virtual) caches instead, modeling
     * the virtual-cache flush problem of Section 2. Zero = never.
     */
    Counter ctxSwitchInterval = 0;

    /**
     * Simulated cores. 1 (the paper) = the classic uniprocessor runs;
     * >1 gives each core a private I/D TLB pair fed round-robin from
     * per-core trace cursors, with inter-core TLB shootdowns on
     * address-space switches.
     */
    unsigned cores = 1;

    /** User instructions a core runs before the scheduler rotates. */
    Counter coreQuantum = 50'000;

    /**
     * When an L2 TLB is configured (l2TlbEntries > 0) on a multicore
     * run: one L2 TLB shared by all cores (true) or a private slice
     * per core (false). Irrelevant at cores == 1.
     */
    bool sharedL2Tlb = true;

    /** Cycles to deliver one shootdown IPI to one core. */
    Cycles shootdownIpiCycles = 100;

    /** Cycles the receiving core spends in the invalidate handler. */
    Cycles shootdownHandlerCycles = 50;

    /** TLB entries dropped per side on the receiving core. */
    unsigned shootdownEvictions = 8;

    CostModel costs{};
    std::uint64_t seed = 12345;

    /**
     * Check the configuration for inconsistent combinations. Returns
     * an InvalidConfig Error naming the offending field instead of
     * aborting, so sweep cells with bad configs are isolated rather
     * than killing the campaign. Call validate().orThrow() where an
     * exception is the right propagation (System's constructor does).
     */
    Status validate() const;

    /** One-line description for table headers / logs. */
    std::string toString() const;

    bool operator==(const SimConfig &) const = default;
};

} // namespace vmsim

#endif // VMSIM_CORE_SIM_CONFIG_HH
