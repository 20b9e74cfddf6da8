/**
 * @file
 * Tests for the memory-pressure subsystem: FramePool victim order
 * under FIFO/LRU/CLOCK, a differential test of FramePool against a
 * list-and-map reference pool, dirty-bit writeback accounting, PhysMem
 * frame recycling and wired-page capacity shrinkage, the zero-usable-frames
 * and frameAddrOf-allocation bugfix regressions, strict CLI numeric
 * parsing, and end-to-end budgeted runs: invariant audits for all nine
 * organizations, scalar/batched/cached/multicore equivalence under a
 * tight budget, and the no-budget identity guarantees.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/parse.hh"
#include "base/random.hh"
#include "base/units.hh"
#include "check/diff.hh"
#include "check/invariants.hh"
#include "common.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "mem/frame_pool.hh"
#include "mem/phys_mem.hh"

namespace vmsim
{
namespace
{

// -------------------------------------------------------------- FramePool

TEST(FramePool, FifoEvictsInArrivalOrder)
{
    FramePool pool(4, ReclaimPolicy::Fifo);
    for (Vpn v = 1; v <= 4; ++v)
        pool.insert(v);
    // Touches are irrelevant to FIFO: 1 still goes first.
    pool.touch(1);
    pool.touch(2);
    EXPECT_EQ(pool.evict(99).vpn, 1u);
    EXPECT_EQ(pool.evict(99).vpn, 2u);
    EXPECT_EQ(pool.evict(99).vpn, 3u);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(FramePool, LruEvictsLeastRecentlyTouched)
{
    FramePool pool(3, ReclaimPolicy::Lru);
    pool.insert(1);
    pool.insert(2);
    pool.insert(3);
    pool.touch(1); // order is now 2, 3, 1
    EXPECT_EQ(pool.evict(99).vpn, 2u);
    pool.touch(3); // order is now 1, 3
    EXPECT_EQ(pool.evict(99).vpn, 1u);
    EXPECT_EQ(pool.evict(99).vpn, 3u);
}

TEST(FramePool, ClockGivesTouchedPagesASecondChance)
{
    FramePool pool(3, ReclaimPolicy::Clock);
    pool.insert(1);
    pool.insert(2);
    pool.insert(3);
    // All three start referenced; the first sweep clears every bit and
    // the second finds 1 (oldest) unreferenced.
    EXPECT_EQ(pool.evict(99).vpn, 1u);
    // 3's reference bit is set again, so 2 goes before it.
    pool.touch(3);
    EXPECT_EQ(pool.evict(99).vpn, 2u);
    EXPECT_EQ(pool.evict(99).vpn, 3u);
}

TEST(FramePool, EvictNeverReturnsTheProtectedPage)
{
    for (ReclaimPolicy p : {ReclaimPolicy::Fifo, ReclaimPolicy::Lru,
                            ReclaimPolicy::Clock}) {
        FramePool pool(2, p);
        pool.insert(10);
        pool.insert(11);
        // 10 is the natural victim under every policy; excluding it
        // must pick 11 instead.
        EXPECT_EQ(pool.evict(10).vpn, 11u) << reclaimPolicyName(p);
    }
}

TEST(FramePool, DirtyBitTravelsWithTheVictim)
{
    FramePool pool(3, ReclaimPolicy::Fifo);
    pool.insert(1);
    pool.insert(2);
    pool.markDirty(1);
    pool.markDirty(42); // not resident: must be a no-op
    FramePool::Victim v1 = pool.evict(99);
    EXPECT_EQ(v1.vpn, 1u);
    EXPECT_TRUE(v1.dirty);
    FramePool::Victim v2 = pool.evict(99);
    EXPECT_EQ(v2.vpn, 2u);
    EXPECT_FALSE(v2.dirty);
    // Re-admission starts clean even though the slot is recycled.
    pool.insert(1);
    EXPECT_FALSE(pool.evict(99).dirty);
}

TEST(FramePool, TinyBudgetsAreRejected)
{
    setQuiet(true);
    EXPECT_THROW(FramePool(0, ReclaimPolicy::Fifo), FatalError);
    EXPECT_THROW(FramePool(1, ReclaimPolicy::Lru), FatalError);
    FramePool pool(2, ReclaimPolicy::Fifo);
    // Wired pages may never consume the whole budget.
    EXPECT_THROW(pool.shrinkCapacity(), FatalError);
    setQuiet(false);
}

TEST(FramePool, PolicyNamesRoundTrip)
{
    for (ReclaimPolicy p : {ReclaimPolicy::Fifo, ReclaimPolicy::Lru,
                            ReclaimPolicy::Clock})
        EXPECT_EQ(parseReclaimPolicy(reclaimPolicyName(p)).value(), p);
    EXPECT_FALSE(parseReclaimPolicy("mru").ok());
    EXPECT_FALSE(parseReclaimPolicy("").ok());
}

// ------------------------------------------- FramePool vs a reference pool

/**
 * Naive model of FramePool's documented semantics: a std::list ring
 * (front = eviction end, back = newest) and a std::map of per-page
 * dirty and reference bits, with the CLOCK hand an explicit list
 * iterator that an eviction leaves on the victim's successor.
 */
class RefPool
{
  public:
    RefPool(std::uint64_t capacity, ReclaimPolicy policy)
        : policy_(policy), capacity_(capacity)
    {
    }

    bool resident(Vpn v) const { return pages_.count(v) != 0; }
    std::uint64_t size() const { return pages_.size(); }
    std::uint64_t capacity() const { return capacity_; }
    void shrinkCapacity() { --capacity_; }

    /** The @p i-th resident page in ring order. */
    Vpn
    nth(std::uint64_t i) const
    {
        return *std::next(ring_.begin(), static_cast<long>(i));
    }

    bool
    touchIfResident(Vpn v)
    {
        auto it = pages_.find(v);
        if (it == pages_.end())
            return false;
        if (policy_ == ReclaimPolicy::Lru)
            ring_.splice(ring_.end(), ring_, it->second.pos);
        else if (policy_ == ReclaimPolicy::Clock)
            it->second.referenced = true;
        return true;
    }

    void
    markDirty(Vpn v)
    {
        auto it = pages_.find(v);
        if (it != pages_.end())
            it->second.dirty = true;
    }

    void
    insert(Vpn v)
    {
        ring_.push_back(v);
        pages_[v] = Page{false, true, std::prev(ring_.end())};
    }

    FramePool::Victim
    evict(Vpn exclude)
    {
        std::list<Vpn>::iterator victim;
        if (policy_ == ReclaimPolicy::Clock) {
            if (!handSet_)
                hand_ = ring_.begin();
            handSet_ = true;
            for (bool found = false; !found;) {
                Page &p = pages_.at(*hand_);
                if (p.referenced) {
                    p.referenced = false;
                } else if (*hand_ != exclude) {
                    victim = hand_;
                    found = true;
                }
                if (++hand_ == ring_.end())
                    hand_ = ring_.begin();
            }
            if (hand_ == victim)
                handSet_ = false; // the victim was the only page
        } else {
            victim = ring_.begin();
            if (*victim == exclude)
                ++victim;
        }
        FramePool::Victim out;
        out.vpn = *victim;
        out.dirty = pages_.at(out.vpn).dirty;
        pages_.erase(out.vpn);
        ring_.erase(victim);
        return out;
    }

  private:
    struct Page
    {
        bool dirty;
        bool referenced;
        std::list<Vpn>::iterator pos;
    };

    ReclaimPolicy policy_;
    std::uint64_t capacity_;
    std::list<Vpn> ring_;
    std::map<Vpn, Page> pages_;
    std::list<Vpn>::iterator hand_;
    bool handSet_ = false;
};

TEST(FramePoolDifferential, MatchesListAndMapReference)
{
    for (ReclaimPolicy policy : {ReclaimPolicy::Fifo, ReclaimPolicy::Lru,
                                 ReclaimPolicy::Clock}) {
        for (std::uint64_t seed : {3ull, 4ull}) {
            SCOPED_TRACE(std::string(reclaimPolicyName(policy)) + " seed " +
                         std::to_string(seed));
            const std::uint64_t budget = 48;
            FramePool pool(budget, policy);
            RefPool ref(budget, policy);
            Random rng(seed * 104729);
            // A universe 2.5x the budget keeps both reuse and faults
            // frequent.
            const Vpn universe = budget * 5 / 2;
            auto evictBoth = [&](Vpn exclude, unsigned op) {
                FramePool::Victim got = pool.evict(exclude);
                FramePool::Victim want = ref.evict(exclude);
                ASSERT_EQ(got.vpn, want.vpn) << "op " << op;
                ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
            };
            for (unsigned op = 0; op < 12000; ++op) {
                Vpn v = rng.uniform(universe);
                unsigned r = static_cast<unsigned>(rng.uniform(1000));
                if (r < 300) {
                    // A page touch as VmSystem drives it: reuse, or
                    // evict down to room and admit.
                    bool hit = pool.touchIfResident(v);
                    ASSERT_EQ(hit, ref.touchIfResident(v)) << "op " << op;
                    if (!hit) {
                        while (ref.size() + 1 > ref.capacity())
                            evictBoth(v, op);
                        pool.insert(v);
                        ref.insert(v);
                    }
                } else if (r < 450) {
                    ASSERT_EQ(pool.touchIfResident(v),
                              ref.touchIfResident(v))
                        << "op " << op;
                } else if (r < 550) {
                    if (ref.size() == 0)
                        continue;
                    Vpn u = ref.nth(rng.uniform(ref.size()));
                    pool.touch(u);
                    ref.touchIfResident(u);
                } else if (r < 800) {
                    pool.markDirty(v);
                    ref.markDirty(v);
                } else if (r < 995) {
                    // Half the time exclude a resident page.
                    Vpn exclude = v;
                    if (ref.size() > 0 && rng.uniform(2) == 0)
                        exclude = ref.nth(rng.uniform(ref.size()));
                    if (ref.size() == 0 ||
                        (ref.size() == 1 && ref.resident(exclude)))
                        continue;
                    evictBoth(exclude, op);
                } else {
                    if (ref.capacity() <= 8)
                        continue;
                    pool.shrinkCapacity();
                    ref.shrinkCapacity();
                    while (ref.size() > ref.capacity())
                        evictBoth(v, op);
                }
                ASSERT_EQ(pool.size(), ref.size()) << "op " << op;
                ASSERT_EQ(pool.capacity(), ref.capacity()) << "op " << op;
                for (Vpn u = 0; u < universe; ++u)
                    ASSERT_EQ(pool.resident(u), ref.resident(u))
                        << "op " << op << " vpn " << u;
            }
            EXPECT_LT(ref.capacity(), budget);
        }
    }
}

// ---------------------------------------------------- PhysMem under budget

TEST(PhysMemBudget, EvictedFramesAreRecycled)
{
    PhysMem pm(8_MiB, 12);
    pm.setBudget(4, ReclaimPolicy::Fifo);
    pm.admitPage(1);
    Pfn f1 = pm.frameOf(1);
    pm.admitPage(2);
    pm.frameOf(2);
    FramePool::Victim v = pm.evictPage(2);
    EXPECT_EQ(v.vpn, 1u);
    EXPECT_FALSE(pm.isMapped(1));
    // The next admitted page reuses the evicted page's frame.
    pm.admitPage(3);
    EXPECT_EQ(pm.frameOf(3), f1);
    EXPECT_EQ(pm.wiredFrames(), 0u);
}

TEST(PhysMemBudget, NonResidentAllocationIsWiredAndShrinksCapacity)
{
    PhysMem pm(8_MiB, 12);
    pm.setBudget(4, ReclaimPolicy::Lru);
    ASSERT_EQ(pm.framePool()->capacity(), 4u);
    pm.frameOf(1000); // a page-table page, never admitted to the pool
    EXPECT_EQ(pm.wiredFrames(), 1u);
    EXPECT_EQ(pm.framePool()->capacity(), 3u);
}

TEST(PhysMemBudget, SetBudgetIsOneShotAndPreAllocation)
{
    setQuiet(true);
    PhysMem pm(8_MiB, 12);
    pm.setBudget(8, ReclaimPolicy::Fifo);
    EXPECT_THROW(pm.setBudget(8, ReclaimPolicy::Fifo), PanicError);
    PhysMem late(8_MiB, 12);
    late.frameOf(1);
    EXPECT_THROW(late.setBudget(8, ReclaimPolicy::Fifo), PanicError);
    setQuiet(false);
}

TEST(PhysMemBudget, RecyclingAcrossAnIndexDoublingMatchesAModel)
{
    // PhysMem's vpn->frame index doubles when a miss finds it full,
    // so its bound is a power of two. A budget of 64, 128 or 256
    // frames churns with the index at exactly its bound; every 500th
    // operation wires a page-table page, and the first one doubles the
    // index mid-churn (the pool is full and no frame is free).
    // Throughout, each allocation must take the most recently evicted
    // frame while one is free and a fresh frame only when none is, as
    // the std::map model predicts.
    for (std::uint64_t budget : {64u, 128u, 256u}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        PhysMem pm(64_MiB, 12);
        pm.setBudget(budget, ReclaimPolicy::Lru);
        std::map<Vpn, Pfn> mapped;
        std::vector<Pfn> freeFrames;
        Pfn fresh = 0;
        auto allocate = [&](Vpn v) {
            Pfn want = fresh;
            if (freeFrames.empty()) {
                ++fresh;
            } else {
                want = freeFrames.back();
                freeFrames.pop_back();
            }
            ASSERT_EQ(pm.frameOf(v), want) << "vpn " << v;
            mapped.emplace(v, want);
        };
        auto evict = [&](Vpn exclude) {
            Vpn victim = pm.evictPage(exclude).vpn;
            auto it = mapped.find(victim);
            ASSERT_NE(it, mapped.end()) << "victim " << victim;
            freeFrames.push_back(it->second);
            mapped.erase(it);
            ASSERT_FALSE(pm.isMapped(victim));
        };
        Random rng(budget);
        Vpn wiredKey = Vpn{1} << 40;
        for (int op = 0; op < 4000; ++op) {
            if (op % 500 == 499) {
                allocate(wiredKey++);
            } else {
                Vpn v = rng.uniform(2 * budget);
                if (pm.touchResidentPage(v)) {
                    while (pm.overBudget())
                        evict(v);
                } else {
                    while (pm.mustEvictForAdmit())
                        evict(v);
                    pm.admitPage(v);
                    allocate(v);
                }
            }
            ASSERT_EQ(pm.framesUsed(), mapped.size()) << "op " << op;
        }
        for (const auto &[v, f] : mapped)
            EXPECT_EQ(pm.frameAddrOf(v), f << 12) << "vpn " << v;
        EXPECT_EQ(pm.wiredFrames(), 8u);
        EXPECT_EQ(fresh, budget + 1); // one frame past the full pool
    }
}

// ------------------------------------------------------ bugfix regressions

TEST(PhysMemRegression, FrameAddrOfIsAReadOnlyQuery)
{
    setQuiet(true);
    PhysMem pm(8_MiB, 12);
    // The old frameAddrOf allocated on query; now it must refuse.
    EXPECT_THROW(pm.frameAddrOf(42), PanicError);
    EXPECT_EQ(pm.framesUsed(), 0u);
    Addr a = pm.frameAddrAlloc(42);
    EXPECT_EQ(pm.frameAddrOf(42), a);
    EXPECT_EQ(pm.framesUsed(), 1u);
    setQuiet(false);
}

TEST(PhysMemRegression, ReservationConsumingAllFramesIsFatal)
{
    setQuiet(true);
    PhysMem pm(16_KiB, 12); // 4 frames
    // The old code left numFrames_ == 0 and then handed out frames
    // past sizeBytes_; now the reservation itself must be fatal.
    EXPECT_THROW(pm.reserveRegion(16_KiB, 4096), FatalError);
    PhysMem pm2(16_KiB, 12);
    EXPECT_THROW(pm2.reserveRegion(13_KiB, 4096), FatalError);
    // Leaving at least one usable frame is still fine.
    PhysMem pm3(16_KiB, 12);
    pm3.reserveRegion(12_KiB, 4096);
    EXPECT_EQ(pm3.numFrames(), 1u);
    setQuiet(false);
}

TEST(PhysMemRegression, UnbudgetedOvercommitStillWarnsAndContinues)
{
    setQuiet(true);
    PhysMem pm(1_MiB, 12); // 256 frames
    for (Vpn v = 0; v < 300; ++v)
        pm.frameOf(v);
    EXPECT_TRUE(pm.overcommitted());
    EXPECT_EQ(pm.framesUsed(), 300u);
    EXPECT_EQ(pm.frameOf(299), pm.frameOf(299));
    setQuiet(false);
}

TEST(SimConfigRegression, BudgetOfOneFrameIsRejected)
{
    SimConfig cfg;
    cfg.physFrames = 1;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.physFrames = 2;
    EXPECT_TRUE(cfg.validate().ok());
    cfg.faultReadCycles = 0;
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(SimConfigRegression, BudgetPastThePoolIndexIsInvalidConfig)
{
    // The pool sizes its SlotIndex once for the whole budget, so a
    // budget it cannot index must be refused by validate() (never a
    // bad_alloc, never narrowed to 32 bits: 2^32 + 64 would otherwise
    // build a 64-frame pool). Only validate() runs here; no pool of
    // that size is built.
    SimConfig cfg;
    cfg.physFrames = FramePool::kMaxCapacity;
    EXPECT_TRUE(cfg.validate().ok());
    for (std::uint64_t frames :
         {FramePool::kMaxCapacity + 1, std::uint64_t{1} << 32,
          (std::uint64_t{1} << 32) + 64, ~std::uint64_t{0}}) {
        cfg.physFrames = frames;
        Status st = cfg.validate();
        ASSERT_FALSE(st.ok()) << frames;
        EXPECT_EQ(st.error().code, ErrorCode::InvalidConfig) << frames;
        EXPECT_EQ(st.error().context, "physFrames") << frames;
    }
}

// ------------------------------------------------------ strict CLI parsing

TEST(StrictParse, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseU64("0", "--x").value(), 0u);
    EXPECT_EQ(parseU64("2000000", "--x").value(), 2000000u);
    EXPECT_EQ(parseU32("4096", "--x").value(), 4096u);
    EXPECT_DOUBLE_EQ(parseF64("2.5", "--x").value(), 2.5);
}

TEST(StrictParse, RejectsGarbageThatStrtoullAccepted)
{
    // Each of these used to silently become 0, 2, or a wrapped huge
    // value under the old strtoull(arg, nullptr, 10) parsing.
    for (const char *s : {"", "abc", "2e6", "1.5", "12x", " 7", "-1",
                          "+3", "0x10", "99999999999999999999999"}) {
        Expected<std::uint64_t> v = parseU64(s, "--flag");
        EXPECT_FALSE(v.ok()) << "'" << s << "'";
        if (!v.ok()) {
            EXPECT_EQ(v.error().code, ErrorCode::InvalidArgument);
        }
    }
    EXPECT_FALSE(parseU32("4294967296", "--x").ok()); // 2^32
    EXPECT_TRUE(parseU32("4294967295", "--x").ok());
    for (const char *s : {"", "fast", "1.5x", "nan", "inf"})
        EXPECT_FALSE(parseF64(s, "--x").ok()) << "'" << s << "'";
}

TEST(StrictParse, BenchOptionsRejectMalformedNumericFlags)
{
    setQuiet(true);
    auto parse = [](std::vector<std::string> words) {
        std::vector<char *> argv;
        static std::string prog = "bench";
        argv.push_back(prog.data());
        for (std::string &w : words)
            argv.push_back(w.data());
        return BenchOptions::parse(static_cast<int>(argv.size()),
                                   argv.data());
    };
    EXPECT_THROW(parse({"--instructions=2e6"}), VmsimError);
    EXPECT_THROW(parse({"--batch=abc"}), VmsimError);
    EXPECT_THROW(parse({"--seeds=-1"}), VmsimError);
    EXPECT_THROW(parse({"--phys-mb=0"}), FatalError);
    EXPECT_THROW(parse({"--phys-mb=four"}), VmsimError);
    EXPECT_THROW(parse({"--phys-mb-list=4,x"}), VmsimError);
    EXPECT_THROW(parse({"--reclaim=mru"}), VmsimError);
    // Past 2^44 - 1 MiB the budget in bytes wraps 64 bits: 2^44 + 1
    // used to run a 256-frame budget, the same as --phys-mb=1.
    EXPECT_THROW(parse({"--phys-mb=17592186044417"}), VmsimError);
    EXPECT_THROW(parse({"--cores=4294967297"}), VmsimError);
    EXPECT_THROW(parse({"--seeds=4294967297"}), VmsimError);
    EXPECT_THROW(parse({"--stats-json="}), FatalError);
    EXPECT_EQ(parse({"--phys-mb=17592186044415"}).physFramesFor(12),
              ((std::uint64_t{1} << 44) - 1) << 8);
    BenchOptions ok =
        parse({"--instructions=5000", "--phys-mb=8", "--reclaim=clock",
               "--phys-mb-list=4,8,16"});
    EXPECT_EQ(ok.instructions, 5000u);
    EXPECT_EQ(ok.physMb, 8u);
    EXPECT_EQ(ok.reclaim, ReclaimPolicy::Clock);
    EXPECT_EQ(ok.physMbList, (std::vector<std::uint64_t>{4, 8, 16}));
    EXPECT_EQ(ok.physFramesFor(12), (8u << 20) >> 12);
    setQuiet(false);
}

/**
 * The same limits through the shared flag table alone, which is all
 * vmsim_cli and the benches have in common: the checks hold for both
 * front ends.
 */
TEST(StrictParse, SharedFlagTableBoundsEveryValue)
{
    setQuiet(true);
    auto parse = [](std::vector<std::string> words) {
        std::vector<char *> argv;
        static std::string prog = "vmsim_cli";
        argv.push_back(prog.data());
        for (std::string &w : words)
            argv.push_back(w.data());
        RunOptions opts;
        parseFlags(static_cast<int>(argv.size()), argv.data(),
                   opts.flags());
        opts.refuseShardObservers();
        return opts;
    };
    for (const char *bad :
         {"--phys-mb=17592186044417", "--cores=4294967297",
          "--seeds=4294967297", "--fuzz=4294967296", "--seed=-1",
          "--instructions=2e6", "--progress=fast",
          "--lease-seconds=inf"})
        EXPECT_THROW(parse({bad}), VmsimError) << bad;
    // The last six: a sharded run refuses every observation flag.
    const std::string shard = "--shard-dir=d";
    for (const std::vector<std::string> &bad :
         std::vector<std::vector<std::string>>{
             {"--seeds=0"}, {"--phys-mb=0"}, {"--interval=0"}, {"--cores=0"},
             {"--instructions=0"}, {"--batch=0"}, {"--progress=0"},
             {"--trace-events="}, {"--stats-json="}, {"--shard-dir="},
             {"--check=1"}, {"--seed"}, {"--full"}, {"--tlb=64"},
             {shard, "--trace-events=e"}, {shard, "--chrome-trace=c"},
             {shard, "--stats-json=s"}, {shard, "--interval=100"},
             {shard, "--progress"}, {shard, "--progress-out=p"}})
        EXPECT_THROW(parse(bad), FatalError) << bad.back();

    RunOptions ok =
        parse({"--phys-mb=4", "--progress", "--cores=2", "--private-l2tlb"});
    SimConfig cfg;
    cfg.pageBits = 13;
    ok.applyTo(cfg);
    EXPECT_EQ(cfg.physFrames, (4u << 20) >> 13);
    EXPECT_EQ(cfg.cores, 2u);
    EXPECT_FALSE(cfg.sharedL2Tlb);
    EXPECT_DOUBLE_EQ(ok.obs.progressSeconds, 2.0);
    setQuiet(false);
}

// ------------------------------------------------------------- end to end

SimConfig
pressureCfg(SystemKind kind)
{
    SimConfig c;
    c.kind = kind;
    c.l1 = CacheParams{16_KiB, 32};
    c.l2 = CacheParams{1_MiB, 64};
    return c;
}

TEST(PressureRun, UnbudgetedRunsCarryNoPressureState)
{
    SimConfig c = pressureCfg(SystemKind::Ultrix);
    Results r = runOnce(c, "gcc", 20000, 5000);
    EXPECT_EQ(r.vmStats().pagesTouched, 0u);
    EXPECT_EQ(r.vmStats().majorFaults, 0u);
    EXPECT_EQ(r.vmStats().evictions, 0u);
    EXPECT_DOUBLE_EQ(r.faultCpi(), 0.0);
    // The no-budget JSON must not even mention the pressure keys —
    // that is what keeps the golden artifacts byte-identical.
    const std::string json = r.toJson().dump();
    EXPECT_EQ(json.find("major_faults"), std::string::npos);
    EXPECT_EQ(json.find("fault_cpi"), std::string::npos);
    const std::string summary = [&] {
        std::ostringstream os;
        r.printSummary(os);
        return os.str();
    }();
    EXPECT_EQ(summary.find("pfCPI"), std::string::npos);
}

TEST(PressureRun, AllNineOrganizationsPassTheAuditUnderBudget)
{
    const ReclaimPolicy policies[] = {
        ReclaimPolicy::Fifo, ReclaimPolicy::Lru, ReclaimPolicy::Clock};
    unsigned i = 0;
    for (SystemKind kind : kAllKinds) {
        SimConfig c = pressureCfg(kind);
        c.physFrames = 96;
        c.reclaimPolicy = policies[i++ % 3];
        Results r = runOnce(c, "gcc", 20000, 5000);
        CheckReport rep = InvariantChecker(c).check(r);
        EXPECT_TRUE(rep.ok()) << kindName(kind) << ": "
                              << rep.toString();
        const VmStats &vm = r.vmStats();
        EXPECT_EQ(vm.majorFaults + vm.reusedFrames, vm.pagesTouched)
            << kindName(kind);
        if (kind == SystemKind::Base) {
            // BASE models a machine with no VM at all; it stays
            // pressure-free so the total_overhead figure's MCPI_vm −
            // MCPI_base subtraction isolates VM cost, not paging.
            EXPECT_EQ(vm.pagesTouched, 0u);
            EXPECT_DOUBLE_EQ(r.faultCpi(), 0.0);
            continue;
        }
        EXPECT_GT(vm.pagesTouched, 0u) << kindName(kind);
        EXPECT_GT(vm.majorFaults, 0u) << kindName(kind);
        EXPECT_GT(r.faultCpi(), 0.0) << kindName(kind);
    }
}

TEST(PressureRun, TightBudgetForcesEvictionsAndWritebacks)
{
    SimConfig c = pressureCfg(SystemKind::Ultrix);
    c.physFrames = 96;
    Results r = runOnce(c, "gcc", 25000, 5000);
    const VmStats &vm = r.vmStats();
    EXPECT_GT(vm.evictions, 0u);
    EXPECT_GT(vm.writebacks, 0u);
    EXPECT_LE(vm.writebacks, vm.evictions);
    // Evicted pages fault back in: more major faults than distinct
    // pages would explain.
    EXPECT_GT(vm.majorFaults, 96u);
}

TEST(PressureRun, CountersSurviveTheJournalRoundTrip)
{
    SimConfig c = pressureCfg(SystemKind::Mach);
    c.physFrames = 96;
    c.cores = 2;
    c.ctxSwitchInterval = 997;
    Results r = runOnce(c, "gcc", 20000, 5000);
    ASSERT_GT(r.vmStats().majorFaults, 0u);
    Results back =
        Results::deserialize(r.serialize(), r.costs()).orThrow();
    EXPECT_EQ(r.serialize().dump(), back.serialize().dump());
    EXPECT_DOUBLE_EQ(r.totalCpi(), back.totalCpi());
}

TEST(PressureEquivalence, AllLegsAgreeUnderEveryPolicy)
{
    DiffRunner runner;
    unsigned index = 0;
    for (ReclaimPolicy p : {ReclaimPolicy::Fifo, ReclaimPolicy::Lru,
                            ReclaimPolicy::Clock}) {
        FuzzTuple t = runner.generate(index++);
        t.faults = false;
        t.cfg.physFrames = 96;
        t.cfg.reclaimPolicy = p;
        CheckReport rep = runner.runCase(t);
        EXPECT_TRUE(rep.ok())
            << t.toString() << ": " << rep.toString();
    }
}

TEST(PressureEquivalence, MulticoreLegsAgreeUnderBudget)
{
    DiffRunner runner;
    FuzzTuple t = runner.generate(7);
    t.faults = false;
    t.cfg.physFrames = 96;
    t.cfg.reclaimPolicy = ReclaimPolicy::Lru;
    t.cfg.cores = 2;
    CheckReport rep = runner.runCase(t);
    EXPECT_TRUE(rep.ok()) << t.toString() << ": " << rep.toString();
}

} // anonymous namespace
} // namespace vmsim
