/**
 * @file
 * custom_vm: extending vmsim with a user-defined memory-management
 * organization.
 *
 * The paper's conclusions advocate "a programmable finite state
 * machine that walks the page table in a user-defined manner". This
 * example shows how a downstream user builds exactly that against the
 * public API: a VmSystem subclass implementing a hardware-walked
 * *two-level hashed* design — an FSM that first probes a small
 * direct-mapped software cache of recent translations (a "level-2
 * TLB" in memory, as several later MMUs did) and falls back to the
 * full hashed-table chain walk only on a miss there.
 *
 * The custom system plugs into the same Simulator, Results and
 * workload machinery as the built-in organizations.
 *
 * Usage: custom_vm [workload] [instructions]
 */

#include <iostream>
#include <vector>

#include "vmsim.hh"

namespace
{

using namespace vmsim;

/**
 * A programmable-FSM organization: hardware-managed TLB backed by an
 * in-memory translation cache in front of a hashed page table.
 */
class TwoLevelHashedVm : public VmSystem
{
  public:
    TwoLevelHashedVm(MemSystem &mem, PhysMem &phys_mem,
                     unsigned page_bits = 12, std::uint64_t seed = 1)
        : VmSystem("CUSTOM-2LVL", mem),
          pt_(phys_mem, 2, page_bits),
          itlb_(TlbParams{128, 0}, seed ^ 0x91),
          dtlb_(TlbParams{128, 0}, seed ^ 0xA2),
          tcSlots_(1024, kInvalidAddr)
    {
        // The translation cache is a physically-contiguous array of
        // 8-byte entries, reserved like any other table.
        tcBase_ = phys_mem.reserveRegion(tcSlots_.size() * 8, 4096);
        walkBuf_.reserve(16);
    }

    void
    instRef(const Access &a) override
    {
        if (!itlb_.lookup(pt_.vpnOf(a.addr)))
            walk(a.addr, itlb_);
        mem_.instFetch(a.addr, AccessClass::User);
    }

    void
    dataRef(const Access &a) override
    {
        if (!dtlb_.lookup(pt_.vpnOf(a.addr)))
            walk(a.addr, dtlb_);
        mem_.dataAccess(a.addr, kDataBytes, a.store, AccessClass::User);
    }

    const Tlb *itlb(CoreId) const override { return &itlb_; }
    const Tlb *dtlb(CoreId) const override { return &dtlb_; }

    Counter tcHits() const { return tcHits_; }

  private:
    void
    walk(Addr vaddr, Tlb &target)
    {
        Vpn v = pt_.vpnOf(vaddr);
        ++stats_.hwWalks;
        stats_.hwWalkCycles += 4; // probe the translation cache

        // Level 1: the in-memory translation cache (one 8-byte entry,
        // physical cacheable — charged as a user-level PTE load).
        std::uint64_t slot = v & (tcSlots_.size() - 1);
        mem_.dataAccess(physToCacheAddr(tcBase_ + slot * 8), 8, false,
                        AccessClass::PteUser);
        ++stats_.pteLoads;
        if (tcSlots_[slot] == v) {
            ++tcHits_;
            target.insert(v);
            return;
        }

        // Level 2: full chain walk, 3 more FSM cycles + chain loads.
        stats_.hwWalkCycles += 3;
        walkBuf_.clear();
        unsigned depth = pt_.walk(v, walkBuf_);
        stats_.hwWalkCycles += depth - 1;
        for (Addr entry : walkBuf_) {
            mem_.dataAccess(entry, kHashedPteSize, false,
                            AccessClass::PteUser);
            ++stats_.pteLoads;
        }
        // Refill the translation cache (write-through, same line as
        // the probe: no extra tag state to model).
        tcSlots_[slot] = v;
        target.insert(v);
    }

    HashedPageTable pt_;
    Tlb itlb_;
    Tlb dtlb_;
    Addr tcBase_;
    std::vector<Vpn> tcSlots_; ///< direct-mapped VPN tags
    std::vector<Addr> walkBuf_;
    Counter tcHits_ = 0;
};

} // anonymous namespace

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    std::string workload = argc > 1 ? argv[1] : "vortex";
    Counter instrs =
        argc > 2 ? parseU64(argv[2], "instructions").orThrow() : 2'000'000;
    // Refuse an unknown workload here, before any output.
    makeWorkload(workload, 0);
    Counter warmup = instrs / 2;

    std::cout << "Custom VM organization vs built-ins on " << workload
              << " (" << instrs << " instructions)\n\n";

    TextTable table;
    table.setHeader({"system", "VMCPI", "intCPI", "MCPI", "CPI",
                     "notes"});

    // Built-in reference points, via the factory.
    for (SystemKind kind :
         {SystemKind::Parisc, SystemKind::HwInverted}) {
        SimConfig cfg;
        cfg.kind = kind;
        cfg.l1 = CacheParams{64_KiB, 64};
        cfg.l2 = CacheParams{1_MiB, 128};
        Results r = runOnce(cfg, workload, instrs, warmup);
        table.addRow({kindName(kind), TextTable::fmt(r.vmcpi(), 5),
                      TextTable::fmt(r.interruptCpi(), 5),
                      TextTable::fmt(r.mcpi(), 4),
                      TextTable::fmt(r.totalCpi(), 4),
                      kind == SystemKind::Parisc ? "software handler"
                                                 : "hardware FSM"});
    }

    // The custom organization, wired by hand against the public API.
    {
        SimConfig cfg;
        cfg.kind = SystemKind::Parisc; // unused; built by hand below
        PhysMem phys_mem(8_MiB, 12);
        MemSystem mem(CacheParams{64_KiB, 64}, CacheParams{1_MiB, 128});
        TwoLevelHashedVm vm(mem, phys_mem);

        auto trace = makeWorkload(workload, cfg.seed);
        Simulator sim(vm, *trace);
        sim.run(warmup);
        mem.resetStats();
        vm.resetVmStats();
        Counter warm_hits = vm.tcHits();
        Counter executed = sim.run(instrs);

        Results r(vm.name(), workload, executed, mem.stats(),
                  vm.vmStats(), cfg.costs);
        double hit_rate =
            vm.vmStats().hwWalks
                ? 100.0 *
                      static_cast<double>(vm.tcHits() - warm_hits) /
                      static_cast<double>(vm.vmStats().hwWalks)
                : 0.0;
        table.addRow({vm.name(), TextTable::fmt(r.vmcpi(), 5),
                      TextTable::fmt(r.interruptCpi(), 5),
                      TextTable::fmt(r.mcpi(), 4),
                      TextTable::fmt(r.totalCpi(), 4),
                      "FSM + transl. cache (" +
                          TextTable::fmt(hit_rate, 1) + "% hits)"});
    }

    table.print(std::cout);
    std::cout << "\nThe custom design is ~40 lines of subclass: "
                 "implement instRef/dataRef, drive\nthe shared caches "
                 "with AccessClass-tagged references, and the Results\n"
                 "machinery produces the paper's accounting "
                 "automatically.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
