/**
 * @file
 * Tables 2, 3 and 4 (paper): cost components and per-system
 * page-table events. Verifies the simulated handlers against the
 * paper's specification by driving one cold miss through each system
 * and reporting the observed handler lengths, PTE loads, and
 * interrupts next to Table 4's values. Also prints the page-table
 * layout facts behind Figures 1-5.
 *
 * Usage: bench_table4_events [--csv]
 */

#include "bench_common.hh"

namespace
{

using namespace vmsim;

struct Observed
{
    Counter uInstrs = 0, kInstrs = 0, rInstrs = 0;
    Counter pteLoads = 0, interrupts = 0, hwCycles = 0;
};

/** Drive one cold data reference through a freshly built system. */
Observed
coldMiss(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{32_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    System sys(cfg);
    sys.vm().dataRef(Access{0x10000000, 0, false});
    const VmStats &s = sys.vm().vmStats();
    return Observed{s.uhandlerInstrs, s.khandlerInstrs, s.rhandlerInstrs,
                    s.pteLoads,       s.interrupts,     s.hwWalkCycles};
}

} // anonymous namespace

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Table 2: components of MCPI");
    TextTable t2;
    t2.setHeader({"Tag", "Cost per"});
    t2.addRow({"L1i-miss", "20 cycles"});
    t2.addRow({"L1d-miss", "20 cycles"});
    t2.addRow({"L2i-miss", "500 cycles"});
    t2.addRow({"L2d-miss", "500 cycles"});
    emit(t2, opts);

    banner("Table 4: simulated page-table events (paper vs observed, "
           "one cold miss)");
    TextTable t4;
    t4.setHeader({"VM Sim", "paper user", "obs user", "paper kernel",
                  "obs kernel", "paper root", "obs root", "PTE loads",
                  "interrupts"});

    struct Expect
    {
        SystemKind kind;
        const char *user, *kernel, *root;
    };
    const Expect expects[] = {
        {SystemKind::Ultrix, "10 instrs", "n.a.", "20 instrs"},
        {SystemKind::Mach, "10 instrs", "20 instrs",
         "500 instrs + 10 admin"},
        {SystemKind::Intel, "7 cycles", "n.a.", "n.a."},
        {SystemKind::Parisc, "20 instrs", "n.a.", "n.a."},
        {SystemKind::Notlb, "10 instrs", "n.a.", "20 instrs"},
    };

    for (const Expect &e : expects) {
        Observed o = coldMiss(e.kind);
        std::string user_obs =
            e.kind == SystemKind::Intel
                ? std::to_string(o.hwCycles) + " cycles"
                : std::to_string(o.uInstrs) + " instrs";
        t4.addRow({kindName(e.kind), e.user, user_obs, e.kernel,
                   o.kInstrs ? std::to_string(o.kInstrs) + " instrs"
                             : "n.a.",
                   e.root,
                   o.rInstrs ? std::to_string(o.rInstrs) + " instrs"
                             : "n.a.",
                   std::to_string(o.pteLoads),
                   std::to_string(o.interrupts)});
    }
    emit(t4, opts);

    banner("Figures 1-5: page-table organizations (layout facts)");
    TextTable t5;
    t5.setHeader({"Organization", "levels", "walk", "table sizes",
                  "PTE size"});
    {
        PhysMem pm(8_MiB, 12);
        UltrixPageTable pt(pm);
        t5.addRow({"ULTRIX (Fig 1)", "2", "bottom-up",
                   sizeLabel(pt.uptBytes()) + "B UPT + " +
                       std::to_string(pt.rptBytes()) + "B RPT",
                   "4B"});
    }
    {
        PhysMem pm(8_MiB, 12);
        MachPageTable pt(pm);
        t5.addRow({"MACH (Fig 2)", "3", "bottom-up",
                   sizeLabel(pt.uptBytes()) + "B UPT + " +
                       sizeLabel(pt.kptBytes()) + "B KPT + " +
                       std::to_string(pt.rptBytes()) + "B RPT",
                   "4B"});
    }
    {
        PhysMem pm(8_MiB, 12);
        IntelPageTable pt(pm);
        t5.addRow({"INTEL (Fig 3)", "2", "top-down (hardware)",
                   std::to_string(pt.pdBytes()) +
                       "B directory + scattered 4KB PTE pages",
                   "4B"});
    }
    {
        PhysMem pm(8_MiB, 12);
        HashedPageTable pt(pm, 2);
        t5.addRow({"PA-RISC (Fig 4)", "1 (hashed)", "chain walk",
                   std::to_string(pt.numBuckets()) +
                       " buckets (2:1 ratio) + CRT",
                   "16B"});
    }
    {
        PhysMem pm(8_MiB, 12);
        DisjunctPageTable pt(pm);
        t5.addRow({"NOTLB (Fig 5)", "2", "bottom-up on L2 miss",
                   std::to_string(pt.numGroups()) +
                       " scattered page groups + " +
                       std::to_string(pt.rptBytes()) + "B RPT",
                   "4B"});
    }
    emit(t5, opts);
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
