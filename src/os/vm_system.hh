/**
 * @file
 * VmSystem: the common interface of the simulated memory-management
 * organizations, plus the handler-layout constants and event counters
 * shared by all of them.
 *
 * A VmSystem receives the application's reference stream — an Access
 * per instruction fetch (instRef) and per load/store (dataRef) — and
 * performs whatever TLB lookups, page-table walks, handler executions
 * and cache accesses its organization requires, mirroring the paper's
 * fundamental simulator algorithm (Section 3.1):
 *
 *     while (i = get_next_instruction()) {
 *         if (itlb_miss(i->pc)) {
 *             walk_page_table(i->pc);
 *             insert_itlb(i->pc);
 *         }
 *         icache_lookup(i->pc);
 *         if (LOAD_OR_STORE(i)) {
 *             if (dtlb_miss(i->daddr)) {
 *                 walk_page_table(i->daddr);
 *                 insert_dtlb(i->daddr);
 *             }
 *             dcache_lookup(i->daddr);
 *         }
 *     }
 *
 * The six TLB organizations keep that loop's counters but run each
 * unobserved block as two passes (splitBlock()), because the VM never
 * reads a cache outcome (checkCacheIndependence()). The front end
 * walks the block's records in the order above through the TLBs,
 * walks, handlers and frame pool, and touches no cache: every access
 * the VM makes on its own behalf goes into a per-block ServiceLog. The
 * back end (ServiceReplay) then runs the block's user accesses merged
 * with that log through the caches, a D pass and then an I pass: with
 * a split L2 the two sides share no state, so each only needs its own
 * order. It runs inline, or on a worker thread while the front end
 * runs the next block (pipelineBackEnd()). An observer (events and
 * latency episodes carry the interleaving and the cache levels) or a
 * unified L2 keeps a block on the loop above, cache accesses inline.
 *
 * The access API is core-indexed: every Access carries the id of the
 * core issuing it, organizations keep one I/D TLB pair per core
 * (CoreTlbs), and an address-space switch on one core broadcasts TLB
 * shootdowns to the others (see docs/multicore.md). A single-core
 * system (the paper's configuration, and the default) reduces exactly
 * to the original model: one TLB pair, no shootdowns, identical
 * counters and replacement RNG streams.
 *
 * Handler code lives in unmapped cacheable space: executing it probes
 * the I-caches (displacing user code — the pollution the paper
 * measures) but can never itself cause an I-TLB miss. Each handler's
 * code is page-aligned, per the paper.
 */

#ifndef VMSIM_OS_VM_SYSTEM_HH
#define VMSIM_OS_VM_SYSTEM_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "obs/event.hh"
#include "obs/latency.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"

namespace vmsim
{

/**
 * Cache addresses of the page-aligned TLB/cache-miss handler code
 * segments (unmapped space; distinct pages so handlers displace
 * distinct I-cache lines). The bases sit at a non-round offset within
 * the unmapped window so that handler code does not systematically
 * alias the application's (typically megabyte-aligned) text segment
 * in the direct-mapped caches.
 */
constexpr Addr kUserHandlerBase = 0x80237000ULL;
constexpr Addr kKernelHandlerBase = 0x80238000ULL;
constexpr Addr kRootHandlerBase = 0x80239000ULL;

/** Bytes per simulated instruction (MIPS-style fixed 32-bit encoding). */
constexpr unsigned kInstrBytes = 4;

/** Bytes per simulated user-level load/store. */
constexpr unsigned kDataBytes = 4;

/** Index of one simulated core (0-based, dense). */
using CoreId = unsigned;

/**
 * One application memory reference, tagged with the core that issues
 * it. For an instruction fetch `addr` is the PC and `store` is unused;
 * for a data reference `addr` is the effective address.
 */
struct Access
{
    Addr addr = 0;
    CoreId core = 0;
    bool store = false;
};

/**
 * A block of consecutive instructions from one core's stream — the
 * unit of the devirtualized batched dispatch path. The records are
 * borrowed, not owned; the whole block belongs to a single core (the
 * simulator splits blocks at scheduling boundaries). Record i is
 * global instruction firstInstr + i: observed kernels stamp it as the
 * event timebase (setCurrentInstr) before processing the record.
 */
struct AccessBlock
{
    const TraceRecord *recs = nullptr;
    std::size_t n = 0;
    Counter firstInstr = 0;
    CoreId core = 0;
};

/**
 * Handler lengths and hardware-walk costs (paper Table 4).
 * All instruction counts double as base cycle counts on the 1-CPI core.
 */
struct HandlerCosts
{
    unsigned userInstrs = 10;   ///< user-level miss handler length
    unsigned kernelInstrs = 20; ///< kernel-level miss handler length
    unsigned rootInstrs = 20;   ///< root-level miss handler length
    unsigned adminLoads = 0;    ///< MACH root path administrative loads
    unsigned hwWalkCycles = 7;  ///< FSM sequential work per walk (INTEL)

    bool operator==(const HandlerCosts &) const = default;
};

/**
 * Per-core slice of the VM event counters. The sums across cores must
 * equal the matching aggregate VmStats fields — a conservation law the
 * InvariantChecker audits on every multicore run.
 */
struct CoreStats
{
    Counter instrs = 0;         ///< user instructions retired on this core
    Counter itlbMisses = 0;     ///< this core's I-TLB misses
    Counter dtlbMisses = 0;     ///< this core's D-TLB misses
    Counter ctxSwitches = 0;    ///< address-space switches on this core
    Counter shootdownsSent = 0; ///< shootdown broadcasts initiated here
    Counter shootdownsRecv = 0; ///< shootdown IPIs received here
    Counter majorFaults = 0;    ///< frame-budget major faults taken here
};

/**
 * Raw VM-mechanism event counts. Together with the per-class cache-miss
 * counters kept by MemSystem, these determine every VMCPI component of
 * the paper's Table 3 (plus the multicore shootdown extension).
 */
struct VmStats
{
    Counter uhandlerCalls = 0;  ///< user-level handler invocations
    Counter khandlerCalls = 0;  ///< kernel-level handler invocations
    Counter rhandlerCalls = 0;  ///< root-level handler invocations
    Counter uhandlerInstrs = 0; ///< instructions fetched by user handler
    Counter khandlerInstrs = 0; ///< instructions fetched by kernel handler
    Counter rhandlerInstrs = 0; ///< instructions fetched by root handler
    Counter hwWalks = 0;        ///< hardware state-machine walks
    Counter hwWalkCycles = 0;   ///< cycles of FSM sequential work
    Counter interrupts = 0;     ///< precise interrupts taken
    Counter pteLoads = 0;       ///< total PTE loads performed
    Counter ctxSwitches = 0;    ///< address-space switches taken
    Counter l2TlbHits = 0;      ///< walks satisfied by the L2 TLB
    Counter itlbMisses = 0;     ///< user instruction-fetch TLB misses
    Counter dtlbMisses = 0;     ///< user load/store TLB misses
                                ///  (nested PTE-reference misses are
                                ///  counted by the k/r handler calls,
                                ///  not here)
    Counter shootdownsSent = 0;   ///< inter-core invalidate broadcasts
    Counter shootdownsRecv = 0;   ///< shootdown IPIs delivered
    Counter shootdownCycles = 0;  ///< IPI + handler cycles they cost

    /** @name Memory-pressure counters (docs/pressure.md)
     *  All zero unless a frame budget is configured. By construction
     *  majorFaults + reusedFrames == pagesTouched — a conservation law
     *  the InvariantChecker audits. @{ */
    Counter pagesTouched = 0;  ///< page touches at refill completion
    Counter majorFaults = 0;   ///< touches that found the page evicted
    Counter reusedFrames = 0;  ///< touches that found the page resident
    Counter evictions = 0;     ///< victim pages reclaimed
    Counter writebacks = 0;    ///< evicted victims that were dirty
    Counter faultCycles = 0;   ///< fault service cycles charged
    /** @} */

    /**
     * Per-core counter slices; one entry per simulated core (always
     * one entry on single-core systems). Sums equal the aggregates.
     */
    std::vector<CoreStats> perCore;

    void reset() { *this = VmStats{}; }
};

/**
 * @name Counter field tables
 * Every raw counter of VmStats and CoreStats, in declaration order,
 * with the key Results::serialize() writes it under. Serialization,
 * journal decoding, diffResults() and the interval deltas all loop
 * over these tables, so a new counter is one member plus one entry;
 * the static_asserts below fail the build when an entry is missing.
 * @{ */
struct VmStatsField
{
    const char *key;
    Counter VmStats::*field;
};

inline constexpr VmStatsField kVmStatsFields[] = {
    {"uhandler_calls", &VmStats::uhandlerCalls},
    {"khandler_calls", &VmStats::khandlerCalls},
    {"rhandler_calls", &VmStats::rhandlerCalls},
    {"uhandler_instrs", &VmStats::uhandlerInstrs},
    {"khandler_instrs", &VmStats::khandlerInstrs},
    {"rhandler_instrs", &VmStats::rhandlerInstrs},
    {"hw_walks", &VmStats::hwWalks},
    {"hw_walk_cycles", &VmStats::hwWalkCycles},
    {"interrupts", &VmStats::interrupts},
    {"pte_loads", &VmStats::pteLoads},
    {"ctx_switches", &VmStats::ctxSwitches},
    {"l2tlb_hits", &VmStats::l2TlbHits},
    {"itlb_misses", &VmStats::itlbMisses},
    {"dtlb_misses", &VmStats::dtlbMisses},
    {"shootdowns_sent", &VmStats::shootdownsSent},
    {"shootdowns_recv", &VmStats::shootdownsRecv},
    {"shootdown_cycles", &VmStats::shootdownCycles},
    {"pages_touched", &VmStats::pagesTouched},
    {"major_faults", &VmStats::majorFaults},
    {"reused_frames", &VmStats::reusedFrames},
    {"evictions", &VmStats::evictions},
    {"writebacks", &VmStats::writebacks},
    {"fault_cycles", &VmStats::faultCycles},
};

/**
 * A CoreStats counter and the VmStats aggregate its per-core slices
 * sum to (the per-core conservation law). CoreStats::instrs has none:
 * single-core loops never credit it. Journals store a core's slice as
 * an array in this order.
 */
struct CoreStatsField
{
    const char *key;
    Counter CoreStats::*field;
    Counter VmStats::*aggregate; ///< nullptr: no aggregate
};

inline constexpr CoreStatsField kCoreStatsFields[] = {
    {"instrs", &CoreStats::instrs, nullptr},
    {"itlb_misses", &CoreStats::itlbMisses, &VmStats::itlbMisses},
    {"dtlb_misses", &CoreStats::dtlbMisses, &VmStats::dtlbMisses},
    {"ctx_switches", &CoreStats::ctxSwitches, &VmStats::ctxSwitches},
    {"shootdowns_sent", &CoreStats::shootdownsSent,
     &VmStats::shootdownsSent},
    {"shootdowns_recv", &CoreStats::shootdownsRecv,
     &VmStats::shootdownsRecv},
    {"major_faults", &CoreStats::majorFaults, &VmStats::majorFaults},
};

/** True when no two entries of @p table name the same member. */
template <class Entry, std::size_t N>
constexpr bool
distinctFields(const Entry (&table)[N])
{
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (table[i].field == table[j].field)
                return false;
    return true;
}

static_assert(distinctFields(kVmStatsFields) &&
                  sizeof(VmStats) ==
                      std::size(kVmStatsFields) * sizeof(Counter) +
                          sizeof(std::vector<CoreStats>),
              "every VmStats counter needs one kVmStatsFields entry");
static_assert(distinctFields(kCoreStatsFields) &&
                  sizeof(CoreStats) ==
                      std::size(kCoreStatsFields) * sizeof(Counter),
              "every CoreStats counter needs one kCoreStatsFields entry");
/** @} */

/**
 * One cache access a VM made on its own behalf: a PTE load, a MACH
 * administrative load or a handler's code fetch, as a front end logs
 * it. @c slot places it in its cache side's stream of user accesses:
 * 2r when it precedes record r's user access on that side, 2r + 1 when
 * it follows it (the handler fetches of r's D-TLB miss, which the I
 * caches see after r's fetch). In a block's log r counts from the
 * block's first record; in a recorded run (DESIGN.md §6, "Shared
 * front ends") it is the global instruction number.
 */
struct ServiceAccess
{
    Addr addr = 0;
    std::uint64_t slot : 40;
    std::uint64_t n : 21;  ///< bytes loaded, or handler instructions
    std::uint64_t cls : 3; ///< AccessClass

    bool operator==(const ServiceAccess &) const = default;
};

/**
 * Service accesses per cache side, in slot order: one block's, or a
 * whole recorded run's. Deques grow in small blocks: no doubling, no
 * copy, and a freed log's blocks go back to the heap for the next
 * recording to reuse.
 */
struct ServiceLog
{
    /** Entries past this many on one side (32 MiB) overflow the log. */
    static constexpr std::size_t kMaxPerSide = std::size_t{1} << 21;

    std::deque<ServiceAccess> inst; ///< handler code fetches
    std::deque<ServiceAccess> data; ///< PTE and administrative loads
    bool overflow = false; ///< an access did not fit: never replay it
};

/**
 * The back end: user accesses merged with a ServiceLog's service
 * accesses, run through one MemSystem. The one merge in the simulator:
 * a split front-end block replays its own log into its VM's caches,
 * and a shared front end's replay (core/simulator.hh, FrontEnd) feeds
 * a whole recorded run into a cache geometry of its own. With a split
 * L2 the I and D sides share no state, so each side only needs its own
 * order: a block runs as a D pass, then an I pass.
 */
class ServiceReplay
{
  public:
    explicit ServiceReplay(MemSystem &mem) : mem_(mem) {}

    /** Aim at the start of @p log (not owned), unchanged till replayed. */
    void
    start(const ServiceLog &log)
    {
        inst_ = log.inst.begin();
        instEnd_ = log.inst.end();
        data_ = log.data.begin();
        dataEnd_ = log.data.end();
        nextInst_ = slotOf(inst_, instEnd_);
        nextData_ = slotOf(data_, dataEnd_);
    }

    /**
     * Records [@p first, @p first + @p n) of the log's numbering, at
     * @p recs: every load/store after the D-side accesses logged at or
     * before its slot, then every fetch after the I-side ones.
     */
    void block(const TraceRecord *recs, std::size_t n, Counter first);

    /** Issue every logged access before record @p end on both sides. */
    void
    flush(Counter end)
    {
        if (end == 0)
            return;
        issueData(2 * end - 1);
        issueInst(2 * end - 1);
    }

  private:
    using Cursor = std::deque<ServiceAccess>::const_iterator;

    static Counter
    slotOf(Cursor a, Cursor end)
    {
        return a == end ? ~Counter{0} : Counter{a->slot};
    }

    /**
     * The first record of the block at @p first whose access slot
     * @p s precedes (s <= 2r), capped at the block's @p n records.
     */
    static std::size_t
    stopAt(Counter s, Counter first, std::size_t n)
    {
        const Counter r = s / 2 + (s & 1);
        return r <= first ? 0 : std::min<Counter>(r - first, n);
    }

    /** Issue the D-side accesses with slots up to @p slot. */
    void
    issueData(Counter slot)
    {
        for (; data_ != dataEnd_ && data_->slot <= slot; ++data_)
            mem_.dataAccess(data_->addr, static_cast<unsigned>(data_->n),
                            false, static_cast<AccessClass>(data_->cls));
        nextData_ = slotOf(data_, dataEnd_);
    }

    /** Issue the I-side handler fetches with slots up to @p slot. */
    void
    issueInst(Counter slot)
    {
        for (; inst_ != instEnd_ && inst_->slot <= slot; ++inst_)
            for (std::uint64_t k = 0; k < inst_->n; ++k)
                mem_.instFetch(inst_->addr + k * kInstrBytes,
                               AccessClass::HandlerFetch);
        nextInst_ = slotOf(inst_, instEnd_);
    }

    MemSystem &mem_;
    Cursor inst_;
    Cursor instEnd_;
    Cursor data_;
    Cursor dataEnd_;
    Counter nextInst_ = ~Counter{0};
    Counter nextData_ = ~Counter{0};
    std::vector<std::size_t> ops_; ///< block()'s memory-op records
};

/**
 * The per-core first-level TLBs of an organization: one I/D pair per
 * simulated core. Core 0's seeds are exactly the pre-multicore TLB
 * seeds, so a one-core system replays the original replacement RNG
 * streams byte for byte; further cores mix the core id in.
 */
class CoreTlbs
{
  public:
    CoreTlbs(unsigned cores, const TlbParams &iparams,
             const TlbParams &dparams, std::uint64_t iseed,
             std::uint64_t dseed)
    {
        itlbs_.reserve(cores);
        dtlbs_.reserve(cores);
        for (unsigned c = 0; c < cores; ++c) {
            itlbs_.emplace_back(iparams, coreSeed(iseed, c));
            dtlbs_.emplace_back(dparams, coreSeed(dseed, c));
        }
    }

    Tlb &itlb(CoreId c) { return itlbs_[c]; }
    Tlb &dtlb(CoreId c) { return dtlbs_[c]; }
    const Tlb &itlb(CoreId c) const { return itlbs_[c]; }
    const Tlb &dtlb(CoreId c) const { return dtlbs_[c]; }

    unsigned cores() const { return static_cast<unsigned>(itlbs_.size()); }

    /** Core 0 keeps @p seed verbatim; others mix the core id in. */
    static std::uint64_t
    coreSeed(std::uint64_t seed, unsigned core)
    {
        return core == 0 ? seed
                         : seed + 0x9E3779B97F4A7C15ull * core;
    }

  private:
    std::vector<Tlb> itlbs_;
    std::vector<Tlb> dtlbs_;
};

/**
 * Abstract memory-management organization. Concrete subclasses own
 * their per-core TLBs and one shared page table; the cache hierarchy
 * is shared (passed in) so that handler and PTE traffic pollutes the
 * same caches the application uses.
 *
 * The entry points take core-indexed Access records; single-core
 * callers construct them with core 0. Only the no-argument
 * contextSwitch()/itlb()/dtlb() conveniences remain as core-0
 * shorthands.
 */
class VmSystem
{
  public:
    VmSystem(std::string name, MemSystem &mem, unsigned cores = 1);
    virtual ~VmSystem();

    VmSystem(const VmSystem &) = delete;
    VmSystem &operator=(const VmSystem &) = delete;

    /** Process one application instruction fetch (a.addr is the PC). */
    virtual void instRef(const Access &a) = 0;

    /** Process one application load/store described by @p a. */
    virtual void dataRef(const Access &a) = 0;

    /**
     * Process one block of application instructions: for each record,
     * the fetch, then the data access for loads/stores — exactly the
     * sequence of scalar instRef()/dataRef() calls, so counters and
     * events are bit-identical. The default loops over the virtual
     * calls; concrete organizations override with refBlockFor() so the
     * batched simulator pays vtable dispatch once per block instead
     * of twice per instruction.
     */
    virtual void refBlock(const AccessBlock &blk);

    /** Core @p core's I-TLB, or nullptr for TLB-less organizations. */
    virtual const Tlb *
    itlb(CoreId core) const
    {
        (void)core;
        return nullptr;
    }

    /** Core @p core's D-TLB, or nullptr for TLB-less organizations. */
    virtual const Tlb *
    dtlb(CoreId core) const
    {
        (void)core;
        return nullptr;
    }

    /**
     * React to an address-space switch on @p core. The simulated MMUs
     * carry no ASIDs, so TLB-based organizations flush that core's
     * TLBs (and, on a multicore, broadcast shootdowns — the departing
     * process's mappings may be unmapped or its ASID reused, so every
     * other core must drop stale entries); the organizations built on
     * a flat global space (NOTLB, SPUR — whose disjunct segments are
     * process-independent) and BASE have no translation state and are
     * immune, which is one of the global virtual-address-space
     * design's selling points.
     */
    virtual void contextSwitch(CoreId core) { noteContextSwitch(core); }

    /** @name Core-0 conveniences
     *  Shorthands over the core-indexed accessors for single-core
     *  callers and the invariant checker. @{ */
    void contextSwitch() { contextSwitch(CoreId{0}); }
    const Tlb *itlb() const { return itlb(CoreId{0}); }
    const Tlb *dtlb() const { return dtlb(CoreId{0}); }
    /** @} */

    const std::string &name() const { return name_; }
    const VmStats &vmStats() const { return stats_; }
    MemSystem &mem() { return mem_; }
    const MemSystem &mem() const { return mem_; }

    /** Number of simulated cores sharing this organization. */
    unsigned cores() const { return cores_; }

    /**
     * Credit @p n retired user instructions to @p core's per-core
     * slice (the driving Simulator knows the schedule; the VM system
     * does not).
     */
    void
    addCoreInstrs(CoreId core, Counter n)
    {
        stats_.perCore[coreSlot(core)].instrs += n;
    }

    /**
     * Attach an event sink (not owned; nullptr detaches). While a sink
     * is attached every TLB miss, handler execution, PTE fetch,
     * interrupt, context switch, shootdown and user L2-cache miss is
     * reported to it; with none attached each potential emission costs
     * one predictable branch.
     */
    void attachEventSink(EventSink *sink) { sink_ = sink; }
    EventSink *eventSink() const { return sink_; }
    bool tracing() const { return sink_ != nullptr; }

    /**
     * True while any observer (event sink or latency collector) is
     * attached. The batched kernels instantiate twice per
     * organization: an observed body (kObs = true, all per-reference
     * observer tests live) and a body with them compiled out (kObs =
     * false) — legal because observers attach only between runs, never
     * mid-batch, so a false reading holds for the whole block.
     */
    bool observedRefs() const { return sink_ != nullptr || lat_ != nullptr; }

    /**
     * True while a block may run split (splitBlock()): no observer is
     * attached (events and latency episodes carry the I/D interleaving
     * and the cache levels) and the L2 is split (a unified L2 is state
     * both sides share).
     */
    bool
    splitLegal() const
    {
        return !observedRefs() && !mem_.unifiedL2();
    }

    /**
     * Attach a latency collector (not owned; nullptr detaches). While
     * one is attached the system accrues the simulated cycles of every
     * miss-service episode, hardware walk and shootdown receipt into
     * the collector's histograms, and wires each TLB's residency
     * histograms. The accounting reads the same MemLevel results the
     * cost model already implies, so simulation state and counters are
     * bit-identical with or without a collector.
     */
    void attachLatency(LatencyCollector *lat);
    LatencyCollector *latency() const { return lat_; }

    /**
     * Keep every split block's service log in @p log (not owned;
     * nullptr stops), numbered by global instruction, for a shared
     * front end's replays (core/simulator.hh, FrontEnd). The slots are
     * exact only for the runs frontEndShareable() admits, batched and
     * with no observer.
     */
    void recordService(ServiceLog *log) { record_ = log; }

    /**
     * Run each split block's back end on a worker thread (@p on) or
     * inline. Pipelined, the front end runs the next block while the
     * worker replays this one's log through the caches, at most a ring
     * of four blocks behind; the worker starts with the first block
     * handed to it and is joined when this VM is destroyed. Turning it
     * off drains the worker, then rethrows what a replay threw: until
     * then the caller keeps every handed-off block's records valid and
     * reads no cache state.
     */
    void pipelineBackEnd(bool on);

    /** Blocks handed to the back-end worker so far. */
    Counter pipelinedBlocks() const;

    /**
     * Timebase for emitted events: the current user-instruction
     * number. The driving Simulator stamps it at each batch head (and
     * before every instruction on the scalar path); observed block
     * kernels stamp each record from AccessBlock::firstInstr. On a
     * multicore this is the global instruction timebase, not any
     * core's local count.
     */
    void setCurrentInstr(Counter n) { curInstr_ = n; }

    /**
     * Clear the VM event counters (used after warmup). Cache, TLB and
     * page-table *state* is intentionally preserved — only statistics
     * reset. The per-core slices are re-sized to the core count.
     */
    void
    resetVmStats()
    {
        stats_.reset();
        stats_.perCore.assign(cores_, CoreStats{});
    }

    /** Competitor pressure per switch for ASID-tagged TLBs. */
    void setCtxSwitchEvictions(unsigned n) { ctxSwitchEvictions_ = n; }
    unsigned ctxSwitchEvictions() const { return ctxSwitchEvictions_; }

    /**
     * Shootdown cost model: one broadcast costs each *receiving* core
     * @p ipi_cycles of interrupt delivery plus @p handler_cycles of
     * invalidate-handler execution, and evicts @p evictions entries
     * from each of the receiver's TLB sides. No-ops on one core.
     */
    void
    setShootdownCosts(Cycles ipi_cycles, Cycles handler_cycles,
                      unsigned evictions)
    {
        shootdownIpiCycles_ = ipi_cycles;
        shootdownHandlerCycles_ = handler_cycles;
        shootdownEvictions_ = evictions;
    }

    /**
     * Attach a second-level TLB: a hardware structure probed (in
     * @p hit_cycles) before the organization's refill mechanism runs.
     * A hit refills the first-level TLB without an interrupt, handler,
     * or page-table reference — the two-level TLB design that followed
     * the paper's era (e.g. later x86 and Alpha parts). On a
     * multicore the L2 TLB is shared by default; pass @p shared =
     * false for one private L2 slice per core. Applies only to
     * TLB-based organizations; call before simulating.
     */
    void attachL2Tlb(const TlbParams &params, Cycles hit_cycles = 2,
                     std::uint64_t seed = 1, bool shared = true);

    /** The L2 TLB (shared, or core 0's), or nullptr if none. */
    const Tlb *
    l2tlb() const
    {
        return l2Tlbs_.empty() ? nullptr : l2Tlbs_.front().get();
    }

    /**
     * Enable memory-pressure accounting against @p pm's frame budget
     * (which must already be configured via PhysMem::setBudget). Every
     * refill path then reports its page touch through touchPage():
     * a touch of a resident page is a frame reuse; a touch of a
     * non-resident page is a major fault costing @p read_cycles (plus
     * @p writeback_cycles per dirty victim evicted to make room), with
     * the victim's TLB entries and PTE invalidated on every core —
     * broadcast as a shootdown when cores() > 1. Call before
     * simulating; with no call, every path below is byte-identical to
     * the budget-less simulator.
     */
    void enablePressure(PhysMem &pm, Cycles read_cycles,
                        Cycles writeback_cycles, unsigned page_bits);

    /** Core @p core's L2 TLB slice, or nullptr if none is attached. */
    const Tlb *l2tlb(CoreId core) const { return l2SlotFor(core); }

  protected:
    /**
     * Report @p kind to the attached sink, if any. The disabled path
     * is a single null test; the emit itself is out of line so the
     * hot loop stays small.
     */
    void
    emitEvent(EventKind kind, EventLevel level, Addr vaddr, Vpn vpn,
              Cycles cycles = 0)
    {
        if (sink_)
            doEmit(kind, level, vaddr, vpn, cycles);
    }

    /**
     * The per-core slice @p core accounts to. A TLB-less organization
     * is built single-instance even under a multicore schedule (a
     * "core" is purely a trace-scheduling notion there), so out-of-
     * range ids collapse onto slice 0 instead of indexing past the
     * vector.
     */
    CoreId coreSlot(CoreId core) const { return core < cores_ ? core : 0; }

    /** Record one address-space switch on @p core. */
    void
    noteContextSwitch(CoreId core)
    {
        ++stats_.ctxSwitches;
        ++stats_.perCore[coreSlot(core)].ctxSwitches;
        emitEvent(EventKind::CtxSwitch, EventLevel::User, 0, 0);
    }

    /**
     * Record a user instruction-fetch TLB miss on @p pc by record @p rec
     * of the block, whose slots a front end logs the refill under.
     */
    void
    noteItlbMiss(Addr pc, Vpn v, CoreId core, std::size_t rec)
    {
        ++stats_.itlbMisses;
        ++stats_.perCore[coreSlot(core)].itlbMisses;
        svcRec_ = rec;
        svcAfter_ = false;
        beginMissService(core);
        emitEvent(EventKind::ItlbMiss, EventLevel::User, pc, v);
    }

    /** Record a user load/store TLB miss on @p addr; see noteItlbMiss(). */
    void
    noteDtlbMiss(Addr addr, Vpn v, CoreId core, std::size_t rec)
    {
        ++stats_.dtlbMisses;
        ++stats_.perCore[coreSlot(core)].dtlbMisses;
        svcRec_ = rec;
        svcAfter_ = true;
        beginMissService(core);
        emitEvent(EventKind::DtlbMiss, EventLevel::User, addr, v);
    }

    /**
     * Open a miss-service latency episode on @p core (no-op without a
     * collector). note{I,D}tlbMiss call this; the organization closes
     * the episode with endMissService() once its refill completes.
     */
    void
    beginMissService(CoreId core)
    {
        if (!lat_)
            return;
        missOpen_ = true;
        missCore_ = coreSlot(core);
        missStart_ = svcAcc_;
    }

    /**
     * Close the current miss-service episode (and any hardware-walk
     * sub-episode still open inside it), sampling the accrued cycles.
     * Safe to call with no collector or no open episode. Out of line:
     * it sits on every kernel's miss path.
     */
    void endMissService();

    /**
     * Close the current hardware-walk episode, sampling its cycles.
     * Organizations whose walks run outside a miss episode (SPUR) call
     * this directly; endMissService() covers the in-episode walks.
     */
    void
    endHwWalk()
    {
        if (lat_ && walkOpen_) {
            lat_->hwWalk(walkCore_).sampleCount(svcAcc_ - walkStart_);
            walkOpen_ = false;
        }
    }

    /**
     * Fetch one user instruction through the I-side hierarchy,
     * reporting an L2Miss event if it goes all the way to memory.
     * The kObs = false instantiation compiles the sink test out of
     * the per-reference path; see observedRefs() for why that is
     * counter-identical.
     */
    template <bool kObs = true>
    MemLevel
    userInstFetchT(Addr pc)
    {
        MemLevel lvl = mem_.instFetch(pc, AccessClass::User);
        if constexpr (kObs) {
            if (sink_ && lvl == MemLevel::Memory)
                doEmit(EventKind::L2Miss, EventLevel::User, pc, 0, 0);
        }
        return lvl;
    }

    /** The data-side twin of userInstFetchT() (level field = 1). */
    template <bool kObs = true>
    MemLevel
    userDataAccessT(Addr addr, bool store)
    {
        MemLevel lvl =
            mem_.dataAccess(addr, kDataBytes, store, AccessClass::User);
        if constexpr (kObs) {
            if (sink_ && lvl == MemLevel::Memory)
                doEmit(EventKind::L2Miss, EventLevel::Kernel, addr, 0, 0);
        }
        return lvl;
    }

    /**
     * Load one page-table entry of @p size bytes at @p entry_addr on
     * behalf of translating @p v: performs the cache access under
     * @p cls, counts it in pteLoads, and emits a PteFetch event at the
     * page-table level implied by the access class.
     */
    MemLevel pteFetch(Addr entry_addr, unsigned size, AccessClass cls,
                      Vpn v);

    /**
     * Standard TLB reaction to an address-space switch on @p core:
     * untagged TLBs flush (no ASIDs — the paper's machines);
     * ASID-tagged TLBs keep their entries and instead lose
     * ctxSwitchEvictions() random entries per side to the competing
     * processes' usage. On a multicore the switch then broadcasts a
     * TLB shootdown to every other core (the outgoing address space's
     * mappings may be recycled), charging the configured IPI + handler
     * cycles per receiver and evicting entries from the receivers'
     * TLBs.
     */
    void switchTlbs(CoreId core, CoreTlbs &tlbs);

    /**
     * Simulate execution of the @p level miss handler: fetch @p n
     * instructions through the I-cache hierarchy starting at
     * page-aligned @p base (in a front end, log the fetch), account
     * them to the level's call/instr counters, and bracket the episode
     * with HandlerEnter/HandlerExit events (@p v is the page being
     * translated).
     */
    void fetchHandler(EventLevel level, Addr base, unsigned n, Vpn v);

    /** Record one precise interrupt (pipeline/ROB flush at handling). */
    void
    takeInterrupt()
    {
        ++stats_.interrupts;
        if (lat_)
            svcAcc_ += lat_->costs().interruptCycles;
        emitEvent(EventKind::Interrupt, EventLevel::User, 0, 0);
    }

    /**
     * Record the start of a hardware state-machine walk for @p v on
     * @p core, charging @p fsm_cycles of sequential FSM work.
     */
    void
    beginHwWalk(Vpn v, Cycles fsm_cycles, CoreId core = 0)
    {
        ++stats_.hwWalks;
        stats_.hwWalkCycles += fsm_cycles;
        if (lat_) {
            walkOpen_ = true;
            walkCore_ = coreSlot(core);
            walkStart_ = svcAcc_;
            svcAcc_ += fsm_cycles;
        }
        emitEvent(EventKind::HwWalk, EventLevel::User, 0, v, fsm_cycles);
    }

    /**
     * Charge @p n extra cycles of FSM sequential work to the current
     * walk (the nested root-table fallbacks of HW-MIPS and SPUR).
     */
    void
    noteExtraWalkCycles(Cycles n)
    {
        stats_.hwWalkCycles += n;
        if (lat_)
            svcAcc_ += n;
    }

    /**
     * A VM-service load of @p size bytes at @p addr under @p cls: the
     * D-side cache access and its latency accrual, or in a front end
     * its service-log entry (whose level reads as L1: the six
     * organizations never read it). pteFetch() loads through it;
     * MACH's administrative loads call it directly.
     */
    MemLevel serviceLoad(Addr addr, unsigned size, AccessClass cls);

    /**
     * Record the page touch behind a refill of @p v on @p core: the
     * organizations call this at the top of their refill mechanism
     * (after any L2-TLB early-out, whose hit proves residency — an
     * eviction invalidates every TLB level). A single predictable
     * branch with no budget configured.
     */
    void
    touchPage(Vpn v, CoreId core)
    {
        if (pressure_)
            touchPageSlow(v, core);
    }

    /**
     * Mark a store's page dirty under a frame budget so its eventual
     * eviction charges a writeback. Sits on the per-reference data
     * path: one predictable branch with no budget configured, and a
     * no-op for pages the pool is not tracking.
     */
    void
    notePressureStore(Addr addr, bool store)
    {
        if (pressure_ && store)
            pressure_->markPageDirty(addr >> pressurePageBits_);
    }

    /**
     * Drop every first-level TLB entry translating @p v, on every
     * core (an evicted page must not stay reachable through any TLB),
     * probing each TLB first so only the holders pay an invalidate.
     * Default no-op for the TLB-less organizations; the base eviction
     * driver clears the L2 TLB slices itself.
     */
    virtual void invalidateTranslation(Vpn v) { (void)v; }

    /**
     * Remove @p v's page-table entry on eviction. Default no-op: most
     * organizations compute PTE addresses from reserved regions and
     * keep no per-page state; the hashed/inverted tables override this
     * to unlink the entry from its collision chain.
     */
    virtual void invalidatePte(Vpn v) { (void)v; }

    /**
     * Probe the optional L2 TLB (core @p core's slice when private)
     * for @p v at the top of a walk. On a hit, charges the probe
     * cycles, installs @p v into @p target, and returns true — the
     * caller skips its refill entirely. On a miss (or with no L2 TLB
     * attached) returns false; the caller must call l2TlbFill() once
     * its walk completes.
     */
    bool l2TlbLookup(Vpn v, Tlb &target, CoreId core = 0);

    /** Install @p v into the L2 TLB after a completed walk. */
    void l2TlbFill(Vpn v, CoreId core = 0);

    /**
     * Run @p blk split: @p front_end() takes its records in scalar
     * order through the TLBs, walks, handlers and frame pool, touching
     * no cache (serviceLoad() and fetchHandler() log into blockLog_),
     * then backEnd(), or hands the back end to the worker while
     * pipelineBackEnd() is on. @pre splitLegal()
     */
    template <class Pass>
    void
    splitBlock(const AccessBlock &blk, Pass &&front_end)
    {
        inFrontEnd_ = true;
        front_end();
        inFrontEnd_ = false;
        if (pipelined_)
            publishBackEnd(blk);
        else
            backEnd(blk);
    }

    /**
     * A split block's user accesses merged with its service log (empty
     * for BASE, which has no VM) through mem_; a recording keeps the log.
     */
    void backEnd(const AccessBlock &blk);

    /**
     * A walk's probe of @p tlb for @p v: the observed lookup() only
     * while a latency collector (the one owner of TLB residency
     * histograms) is attached, else the bare lookupT<false>, with the
     * same effect when no histogram is attached.
     */
    bool
    walkLookup(Tlb &tlb, Vpn v)
    {
        return lat_ ? tlb.lookup(v) : tlb.lookupT<false>(v);
    }

    std::string name_;
    MemSystem &mem_;
    VmStats stats_;

  private:
    /** Out-of-line slow path of emitEvent(); sink_ is non-null here. */
    void doEmit(EventKind kind, EventLevel level, Addr vaddr, Vpn vpn,
                Cycles cycles);

    /**
     * Cycle penalty the cost model implies for a VM-service access
     * resolved at @p lvl (only called while a collector is attached).
     */
    Cycles
    memPenalty(MemLevel lvl) const
    {
        const LatencyCosts &c = lat_->costs();
        if (lvl == MemLevel::L1)
            return 0;
        if (lvl == MemLevel::L2)
            return c.l1MissCycles;
        return c.l1MissCycles + c.l2MissCycles;
    }

    /** The L2 slot core @p core probes (slot 0 when shared). */
    Tlb *
    l2SlotFor(CoreId core) const
    {
        if (l2Tlbs_.empty())
            return nullptr;
        return l2Tlbs_[l2Tlbs_.size() == 1 ? 0 : core].get();
    }

    /** Deliver one invalidate broadcast from @p from to every peer. */
    void shootdownBroadcast(CoreId from, CoreTlbs &tlbs);

    /** Out-of-line body of touchPage(); pressure_ is non-null here. */
    void touchPageSlow(Vpn v, CoreId core);

    /**
     * Append one service access to blockLog_ on the I side
     * (@p inst) or the D side, under the record the last TLB miss
     * stamped (svcRec_).
     */
    void logService(bool inst, AccessClass cls, Addr addr, unsigned n);

    /** Append blockLog_ to record_, for the block @p blk. */
    void keepBlockLog(const AccessBlock &blk);

    /** backEnd() on the worker: hand it @p blk and blockLog_. */
    void publishBackEnd(const AccessBlock &blk);

    /**
     * Evict one victim (never @p exclude) and apply the side effects:
     * invalidate its translations and PTE, broadcast the eviction
     * shootdown on a multicore. Returns the writeback cycles charged
     * (zero for a clean victim).
     */
    Cycles evictVictim(Vpn exclude, CoreId core);

    /**
     * Shootdown accounting for one eviction broadcast: same fanout,
     * cycle, event and latency bookkeeping as the context-switch
     * broadcast, but the receivers' invalidation work is the targeted
     * invalidateTranslation() the caller already performed, so no
     * random entries are evicted.
     */
    void evictionShootdown(CoreId from);

    unsigned cores_ = 1;
    unsigned ctxSwitchEvictions_ = 16;
    std::vector<std::unique_ptr<Tlb>> l2Tlbs_; ///< 1 slot, or 1/core
    Cycles l2TlbHitCycles_ = 2;
    Cycles shootdownIpiCycles_ = 100;
    Cycles shootdownHandlerCycles_ = 50;
    unsigned shootdownEvictions_ = 8;
    EventSink *sink_ = nullptr;
    Counter curInstr_ = 0;

    bool inFrontEnd_ = false; ///< serviceLoad()/fetchHandler() log
    std::size_t svcRec_ = 0; ///< the block record the open walk serves
    bool svcAfter_ = false;  ///< the open walk serves a D-TLB miss

    /** @name Memory-pressure state (inert while pressure_ is null). @{ */
    PhysMem *pressure_ = nullptr; ///< budgeted frame pool owner
    unsigned pressurePageBits_ = 12;
    Cycles faultReadCycles_ = 0;
    Cycles faultWritebackCycles_ = 0;
    /** @} */

    /** @name Latency-episode bookkeeping (inert while lat_ is null). @{ */
    LatencyCollector *lat_ = nullptr;
    Cycles svcAcc_ = 0;   ///< running VM-service cycle accumulator
    bool missOpen_ = false;
    bool walkOpen_ = false;
    CoreId missCore_ = 0;
    CoreId walkCore_ = 0;
    Cycles missStart_ = 0;
    Cycles walkStart_ = 0;
    /** @} */

    /** @name Split-block back end (splitBlock()). @{ */
    ServiceLog blockLog_; ///< the running block's service accesses
    ServiceReplay back_{mem_};
    ServiceLog *record_ = nullptr; ///< recordService() target
    bool pipelined_ = false;       ///< pipelineBackEnd() is on
    class BackEndWorker;
    std::unique_ptr<BackEndWorker> worker_; ///< started on first use
    /** @} */
};

/**
 * Devirtualized block-reference loop for organizations whose per-core
 * state needs no hoisting (BASE, NOTLB, SPUR — the TLB-per-core
 * organizations use TlbVm's batched loop instead, which additionally
 * hoists the core's TLB pair). @p VM is the concrete organization, so
 * the instRefK / dataRefK calls are non-virtual and inline into the
 * loop; @p kObs selects the observed or bare kernel body.
 *
 * The LINT-KERNEL markers fence the per-record dispatch region that
 * scripts/ci.sh greps: no virtual call, no raw instRef/dataRef
 * dispatch and no std::unordered_map probe may reappear inside it.
 */
// LINT-KERNEL-BEGIN (vm_system)
template <bool kObs, class VM>
inline void
refBlockKernel(VM &vm, const AccessBlock &blk)
{
    Access a;
    a.core = blk.core;
    for (std::size_t i = 0; i < blk.n; ++i) {
        const TraceRecord &r = blk.recs[i];
        if constexpr (kObs)
            vm.setCurrentInstr(blk.firstInstr + i);
        a.addr = r.pc;
        a.store = false;
        vm.template instRefK<kObs>(a);
        if (r.isMemOp()) {
            a.addr = r.daddr;
            a.store = r.isStore();
            vm.template dataRefK<kObs>(a);
        }
    }
}
// LINT-KERNEL-END (vm_system)

/**
 * Per-batch prologue: test the observers once, then run the whole
 * block through the matching monomorphized kernel. Each organization's
 * refBlock() override is a call to this helper from its own
 * translation unit, where the reference kernels are visible. NOTLB
 * and SPUR never split a block: they refill on user L2 misses, so a
 * cache outcome on one side feeds the VM.
 */
template <class VM>
inline void
refBlockFor(VM &vm, const AccessBlock &blk)
{
    if (vm.observedRefs())
        refBlockKernel<true>(vm, blk);
    else
        refBlockKernel<false>(vm, blk);
}

} // namespace vmsim

#endif // VMSIM_OS_VM_SYSTEM_HH
