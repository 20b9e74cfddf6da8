/**
 * @file
 * The table of figures (figures.hh) and its printers.
 *
 * Most entries are data: a system-rows table (one table per workload,
 * one row per system, one column per metric and variant) is a banner,
 * an intro, the grid's axes, a column list and the "Expected shape"
 * text that closes it. Figures 6/7 and the ijpeg companion share the
 * VMCPI-grid printer, Figures 8/9 the break-down printer; the rest
 * keep printers of their own.
 */

#include "figures.hh"

#include <algorithm>
#include <set>

#include "bench_common.hh"

namespace vmsim::bench
{

namespace
{

using Metric = double (*)(const Results &);

double
vmcpiOf(const Results &r)
{
    return r.vmcpi();
}

double
mcpiOf(const Results &r)
{
    return r.mcpi();
}

double
vmOverhead(const Results &r)
{
    return r.vmcpi() + r.interruptCpi();
}

/** User TLB misses (walks) per 1K user instructions. */
double
walksPerK(const Results &r)
{
    return 1000.0 *
           static_cast<double>(r.vmStats().itlbMisses +
                               r.vmStats().dtlbMisses) /
           static_cast<double>(r.userInstrs());
}

const std::vector<SystemKind> kTlbKinds = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::HwInverted, SystemKind::HwMips,
};

/** BASE first (the reference), then the paper's five VM systems. */
const std::vector<SystemKind> kWithBase = {
    SystemKind::Base,   SystemKind::Ultrix, SystemKind::Mach,
    SystemKind::Intel,  SystemKind::Parisc, SystemKind::Notlb,
};

/** The paper's fixed point (paperSweep) over these systems and
 *  workloads; callers add the cache axes they sweep. */
SweepSpec
paperGrid(const BenchOptions &opts, std::vector<SystemKind> systems,
          std::vector<std::string> workloads)
{
    SweepSpec spec = paperSweep(opts);
    spec.systems(std::move(systems)).workloads(std::move(workloads));
    return spec;
}

/** One variant per (label, value), each applying @p set with it. */
template <typename T>
std::vector<ConfigVariant>
variantsOf(std::vector<std::pair<std::string, T>> values,
           void (*set)(SimConfig &, T))
{
    std::vector<ConfigVariant> vs;
    for (const auto &[label, v] : values)
        vs.push_back({label, [set, v](SimConfig &cfg) { set(cfg, v); }});
    return vs;
}

/**
 * A system-rows column: the seed mean of its metric at one variant. A
 * '*' in the header makes it a template, repeated for every variant
 * with the '*' replaced by the variant's label.
 */
struct Column
{
    std::string header;
    Metric metric;
    int digits; ///< TextTable::fmt precision; -1 = truncated integer
    std::string suffix = "";
    std::size_t variant = 0;
};

/** One table per workload, one row per system, a cell per column. */
struct SystemRows
{
    std::string banner;
    std::string intro; ///< printed under the banner
    std::vector<SystemKind> systems;
    std::vector<std::string> workloads;
    std::vector<ConfigVariant> variants = {}; ///< none: one column set
    std::vector<Column> columns;
    std::string expected;     ///< the closing "Expected shape" text
    std::string caption = ""; ///< in each caption, before the count
};

void
printSystemRows(const SystemRows &t, const BenchOptions &opts,
                const SweepResults &res)
{
    const SweepSpec &spec = res.spec();
    std::vector<Column> cols;
    for (const Column &c : t.columns) {
        std::size_t star = c.header.find('*');
        if (star == std::string::npos)
            cols.push_back(c);
        for (std::size_t vi = 0;
             star != std::string::npos && vi < spec.variantAxis().size();
             ++vi) {
            cols.push_back(c);
            cols.back().header.replace(star, 1, spec.variantAxis()[vi].label);
            cols.back().variant = vi;
        }
    }
    std::vector<std::string> header = {"system"};
    for (const Column &c : cols)
        header.push_back(c.header);

    banner(t.banner);
    std::cout << t.intro;
    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader(header);
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            for (const Column &c : cols) {
                double v = res.meanMetric(
                    {.system = ki, .workload = wi, .variant = c.variant},
                    c.metric);
                row.push_back((c.digits < 0
                                   ? std::to_string(static_cast<Counter>(v))
                                   : TextTable::fmt(v, c.digits)) +
                              c.suffix);
            }
            table.addRow(row);
        }
        std::cout << spec.workloadAxis()[wi] << " (" << t.caption
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }
    std::cout << t.expected;
}

Figure
systemRows(std::string name, std::string id, SystemRows t)
{
    return {std::move(name), std::move(id),
            [t](const BenchOptions &opts) {
                return paperGrid(opts, t.systems, t.workloads)
                    .variants(t.variants);
            },
            [t](const BenchOptions &opts, const SweepResults &res) {
                printSystemRows(t, opts, res);
            }};
}

/** A table with one row per L1 size of @p res's grid at @p idx: the
 *  size, then @p cells of that row's cell index. */
TextTable
l1Rows(const SweepResults &res, const std::vector<std::string> &header,
       CellIndex idx,
       const std::function<std::vector<std::string>(CellIndex)> &cells)
{
    TextTable table;
    table.setHeader(header);
    const auto &l1_sizes = res.spec().l1Axis();
    for (idx.l1 = 0; idx.l1 < l1_sizes.size(); ++idx.l1) {
        std::vector<std::string> row = {sizeLabel(l1_sizes[idx.l1])};
        for (std::string &cell : cells(idx))
            row.push_back(std::move(cell));
        table.addRow(row);
    }
    return table;
}

/**
 * Figures 6-9: the paper's five VM systems on one workload over the
 * L1 x L2 (x linesize) grid, one table per (system, L2 size) with a
 * row per L1 size. The VMCPI grids add the linesize axis; the
 * break-downs stay at the base config's 64/128-byte lines and print
 * every Table-3 component.
 */
Figure
cacheGrid(std::string name, std::string id, std::string figure,
          std::string workload, bool breakdown)
{
    auto spec = [workload, breakdown](const BenchOptions &opts) {
        SweepSpec spec = paperGrid(opts, paperVmSystems(), {workload});
        spec.l1Sizes(paperL1Sizes(opts.full))
            .l2Sizes(paperL2Sizes(opts.full));
        if (!breakdown)
            spec.lineSizes(paperLineSizes(opts.full));
        return spec;
    };
    auto print = [figure, workload, breakdown](const BenchOptions &opts,
                                               const SweepResults &res) {
        const SweepSpec &spec = res.spec();
        std::vector<std::string> header = {"L1/side"};
        banner(figure +
               (breakdown ? ": VMCPI break-downs (64/128-byte L1/L2 "
                            "linesizes) - "
                          : ": VMCPI vs cache organization - ") +
               workload);
        std::cout << "instructions/point=" << opts.instructions
                  << " warmup=" << opts.resolvedWarmup();
        if (breakdown) {
            header.insert(header.end(),
                          {"uhandler", "upte-L2", "upte-MEM", "khandler",
                           "kpte-L2", "kpte-MEM", "rhandler", "rpte-L2",
                           "rpte-MEM", "handler-L2", "handler-MEM",
                           "total"});
        } else {
            std::cout << (opts.full ? " (full paper grid)"
                                    : " (reduced grid)");
            for (auto [l1, l2] : spec.lineAxis())
                header.push_back(std::to_string(l1) + "/" +
                                 std::to_string(l2) + "B");
        }
        std::cout << "\n\n";
        auto cells = [&](CellIndex idx) {
            std::vector<std::string> row;
            auto add = [&](const std::function<double(const Results &)> &m) {
                row.push_back(TextTable::fmt(res.meanMetric(idx, m), 5));
            };
            if (!breakdown) {
                for (idx.line = 0; idx.line < spec.lineAxis().size();
                     ++idx.line)
                    add(vmcpiOf);
                return row;
            }
            std::size_t ncomp =
                res.at(idx).vmcpiBreakdown().components().size();
            for (std::size_t c = 0; c < ncomp; ++c)
                add([c](const Results &r) {
                    return r.vmcpiBreakdown().components()[c].second;
                });
            add([](const Results &r) { return r.vmcpiBreakdown().total(); });
            return row;
        };
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            for (std::size_t l2i = 0; l2i < spec.l2Axis().size(); ++l2i) {
                std::cout << kindName(spec.systemAxis()[ki]) << " - "
                          << sizeLabel(spec.l2Axis()[l2i])
                          << "B L2 cache ("
                          << (breakdown ? "VMCPI components" : "VMCPI")
                          << ")\n";
                emit(l1Rows(res, header, {.system = ki, .l2 = l2i}, cells),
                     opts);
            }
        }
    };
    return {std::move(name), std::move(id), spec, print};
}

// ---- Entries with printers of their own --------------------------

/** Table 1's cross-product, each point only smoke-run. */
SweepSpec
table1Spec(const BenchOptions &opts)
{
    Counter instrs = std::min<Counter>(opts.instructions, 20000);
    SweepSpec spec = paperGrid(
        opts,
        {SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
         SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
         SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur},
        {"gcc"});
    spec.l1Sizes(paperL1Sizes(opts.full))
        .l2Sizes(paperL2Sizes(opts.full))
        .lineSizes(paperLineSizes(opts.full))
        .instructions(instrs)
        .warmup(instrs / 4);
    return spec;
}

void
printTable1(const BenchOptions &opts, const SweepResults &res)
{
    banner("Table 1: simulation details (parameter space)");
    TextTable space;
    space.setHeader({"Characteristic", "Range of values simulated"});
    space.addRow({"Benchmarks", "gcc-like, vortex-like, ijpeg-like "
                                "(SPEC'95 integer stand-ins)"});
    space.addRow({"Cache organizations",
                  "split, direct-mapped, virtually-addressed, blocking, "
                  "write-allocate, write-through"});
    space.addRow(
        {"L1 cache size", "1, 2, 4, 8, 16, 32, 64, 128KB (per side)"});
    space.addRow({"L2 cache size", "1MB, 2MB, 4MB (per side)"});
    space.addRow({"Cache linesizes", "16, 32, 64, 128 bytes"});
    space.addRow({"TLB organizations",
                  "fully associative, random replacement; ULTRIX/MACH "
                  "reserve 16 protected slots"});
    space.addRow({"TLB size", "128-entry I-TLB / 128-entry D-TLB"});
    space.addRow({"Page size", "4 KB"});
    space.addRow({"Cost of interrupt", "10, 50, 200 cycles"});
    space.addRow({"Systems", "ULTRIX, MACH, INTEL, PA-RISC, NOTLB, BASE "
                             "(+ HW-INVERTED, HW-MIPS, SPUR "
                             "interpolations)"});
    emit(space, opts);

    const SweepSpec &spec = res.spec();
    std::size_t per_system =
        spec.l1Axis().size() * spec.l2Axis().size() * spec.lineAxis().size();
    TextTable summary;
    summary.setHeader({"system", "points", "min CPI", "max CPI"});
    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        double min_cpi = 1e30, max_cpi = 0;
        for (std::size_t flat = 0; flat < res.size(); ++flat) {
            CellIndex idx = spec.unflatten(flat);
            if (idx.system != ki || idx.seed != 0)
                continue;
            double cpi = res.meanMetric(
                idx, [](const Results &r) { return r.totalCpi(); });
            min_cpi = std::min(min_cpi, cpi);
            max_cpi = std::max(max_cpi, cpi);
        }
        summary.addRow({kindName(spec.systemAxis()[ki]),
                        std::to_string(per_system),
                        TextTable::fmt(min_cpi, 3),
                        TextTable::fmt(max_cpi, 3)});
    }
    std::cout << "Cross-product smoke run ("
              << spec.systemAxis().size() * per_system
              << " configurations x " << spec.instructionCount()
              << " instructions):\n";
    emit(summary, opts);
}

/** The VM counters after one cold data miss on a fresh system. */
VmStats
coldMiss(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{32_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    System sys(cfg);
    sys.vm().dataRef(Access{0x10000000, 0, false});
    return sys.vm().vmStats();
}

/** Tables 2-4 and the layout facts behind Figures 1-5: no sweep. */
void
printTable4(const BenchOptions &opts, const SweepResults &)
{
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
    auto instrs = [](Counter n) {
        return n ? std::to_string(n) + " instrs" : "n.a.";
    };
    for (const Expect &e : expects) {
        VmStats s = coldMiss(e.kind);
        t4.addRow({kindName(e.kind), e.user,
                   e.kind == SystemKind::Intel
                       ? std::to_string(s.hwWalkCycles) + " cycles"
                       : std::to_string(s.uhandlerInstrs) + " instrs",
                   e.kernel, instrs(s.khandlerInstrs), e.root,
                   instrs(s.rhandlerInstrs), std::to_string(s.pteLoads),
                   std::to_string(s.interrupts)});
    }
    emit(t4, opts);

    banner("Figures 1-5: page-table organizations (layout facts)");
    TextTable t5;
    t5.setHeader({"Organization", "levels", "walk", "table sizes",
                  "PTE size"});
    // A fresh 8 MB physical memory per organization.
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
}

/** VMCPI plus interrupt CPI at each of the paper's three costs, per
 *  L1 size: one table per (workload, system), always as text. */
void
printFig10(const BenchOptions &opts, const SweepResults &res)
{
    banner("Figure 10-style (reconstructed): VMCPI + interrupt "
           "overhead vs L1 size");
    std::cout << "64/128-byte L1/L2 linesizes, 1MB L2; columns show "
                 "VMCPI and VMCPI+intCPI at 10/50/200-cycle "
                 "interrupts\n\n";
    const SweepSpec &spec = res.spec();
    auto cells = [&](CellIndex idx) {
        std::vector<std::string> row = {
            TextTable::fmt(res.meanMetric(idx, vmcpiOf), 5)};
        for (Cycles cost : {10, 50, 200})
            row.push_back(TextTable::fmt(
                res.meanMetric(idx,
                               [cost](const Results &r) {
                                   return r.vmcpi() +
                                          r.interruptCpiAt(cost);
                               }),
                5));
        double share = res.meanMetric(idx, [](const Results &r) {
            double total = r.vmcpi() + r.interruptCpiAt(200);
            return total > 0 ? 100.0 * r.interruptCpiAt(200) / total : 0.0;
        });
        row.push_back(TextTable::fmt(share, 1) + "%");
        return row;
    };
    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::cout << kindName(spec.systemAxis()[ki]) << " - "
                      << spec.workloadAxis()[wi] << '\n';
            emit(l1Rows(res,
                        {"L1/side", "VMCPI", "+int@10", "+int@50",
                         "+int@200", "int share@200"},
                        {.system = ki, .workload = wi}, cells),
                 opts);
        }
    }
    std::cout << "Expected shape: the interrupt columns stay constant "
                 "down each table while\nVMCPI shrinks with L1 size, "
                 "so the interrupt share grows toward the right-\n"
                 "hand percentages; INTEL's tables show zero interrupt "
                 "overhead throughout.\n";
}

/** Section 4.4: the three overhead accountings, as percentages of run
 *  time, against BASE's MCPI (system 0 of the grid). */
void
printTotalOverhead(const BenchOptions &opts, const SweepResults &res)
{
    banner("Total VM overhead vs BASE (paper Section 4.4, "
           "reconstructed)");
    std::cout << "caches: 64KB/1MB split direct-mapped, 64/128B lines\n"
              << "naive   = VMCPI only (prior studies' accounting)\n"
              << "+misses = VMCPI + (MCPI - MCPI_BASE)  [VM-inflicted "
                 "cache misses]\n"
              << "+ints   = the above + interrupt CPI\n\n";
    const SweepSpec &spec = res.spec();
    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        double base_mcpi =
            res.meanMetric({.system = 0, .workload = wi}, mcpiOf);
        TextTable table;
        table.setHeader({"system", "MCPI_base", "MCPI", "VMCPI", "naive%",
                         "+misses%", "+ints%@50", "+ints%@200"});
        for (std::size_t ki = 1; ki < spec.systemAxis().size(); ++ki) {
            CellIndex idx{.system = ki, .workload = wi};
            // A percent-of-runtime accounting, per run then averaged:
            // VMCPI, plus the VM-inflicted misses when @p misses, plus
            // interrupt CPI at @p int_cost.
            auto pct = [&](bool misses, Cycles int_cost) {
                double v = res.meanMetric(idx, [&](const Results &r) {
                    double int_cpi =
                        int_cost ? r.interruptCpiAt(int_cost) : 0.0;
                    double ov = r.vmcpi();
                    if (misses)
                        ov += std::max(0.0, r.mcpi() - base_mcpi);
                    ov += int_cpi;
                    return 100.0 * ov /
                           (1.0 + r.mcpi() + r.vmcpi() + int_cpi);
                });
                return TextTable::fmt(v, 1) + "%";
            };
            table.addRow({kindName(spec.systemAxis()[ki]),
                          TextTable::fmt(base_mcpi, 4),
                          TextTable::fmt(res.meanMetric(idx, mcpiOf), 4),
                          TextTable::fmt(res.meanMetric(idx, vmcpiOf), 4),
                          pct(false, 0), pct(true, 0), pct(true, 50),
                          pct(true, 200)});
        }
        std::cout << spec.workloadAxis()[wi] << " (" << opts.instructions
                  << " instructions)\n";
        emit(table, opts);
    }
    std::cout << "Expected shape: the +misses column roughly doubles the "
                 "naive column,\nand +ints raises it further - the "
                 "paper's 5-10% -> 10-20% -> 10-30% result.\n";
}

/** BASE's MCPI components over L1 sizes, then each VM system's MCPI
 *  excess over BASE: the VM-inflicted misses behind Section 4.4. */
void
printMcpiSweep(const BenchOptions &opts, const SweepResults &res)
{
    banner("MCPI components and VM-inflicted excess (64/128-byte "
           "linesizes)");
    std::cout << "instructions/point=" << opts.instructions
              << " warmup=" << opts.resolvedWarmup() << "\n\n";
    const SweepSpec &spec = res.spec();
    const auto &l1_sizes = spec.l1Axis();
    auto base_cells = [&](CellIndex idx) {
        std::vector<std::string> row;
        for (double McpiBreakdown::*part :
             {&McpiBreakdown::l1iMiss, &McpiBreakdown::l1dMiss,
              &McpiBreakdown::l2iMiss, &McpiBreakdown::l2dMiss})
            row.push_back(TextTable::fmt(
                res.meanMetric(idx,
                               [part](const Results &r) {
                                   return r.mcpiBreakdown().*part;
                               }),
                4));
        row.push_back(TextTable::fmt(res.meanMetric(idx, mcpiOf), 4));
        return row;
    };
    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        const std::string &workload = spec.workloadAxis()[wi];
        std::cout << workload << " - BASE (no VM) MCPI components, "
                  << "1MB L2\n";
        emit(l1Rows(res,
                    {"L1/side", "L1i-miss", "L1d-miss", "L2i-miss",
                     "L2d-miss", "MCPI"},
                    {.system = 0, .workload = wi}, base_cells),
             opts);

        TextTable excess;
        std::vector<std::string> header = {"system"};
        for (std::uint64_t l1 : l1_sizes)
            header.push_back(sizeLabel(l1));
        excess.setHeader(header);
        for (std::size_t ki = 1; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            for (std::size_t l1 = 0; l1 < l1_sizes.size(); ++l1) {
                auto mcpiAt = [&](std::size_t system) {
                    return res.meanMetric(
                        {.system = system, .workload = wi, .l1 = l1},
                        mcpiOf);
                };
                row.push_back(TextTable::fmt(mcpiAt(ki) - mcpiAt(0), 5));
            }
            excess.addRow(row);
        }
        std::cout << workload
                  << " - MCPI excess over BASE (VM-inflicted misses)\n";
        emit(excess, opts);
    }
    std::cout << "Expected shape: the excess is positive nearly "
                 "everywhere (handlers and\nPTEs displace user lines), "
                 "largest at small L1 caches for the software-\n"
                 "managed schemes, and near zero for INTEL (no handler "
                 "code to fetch).\n";
}

/**
 * PA-RISC hashed-table load factor: full-occupancy probes and live
 * runs, both over SweepRunner::map (the chain statistics live in the
 * page table, not in Results).
 */
void
printAblationHpt(const BenchOptions &opts, const SweepResults &)
{
    SweepRunner runner = makeRunner(opts);
    const unsigned ratios[] = {1u, 2u, 4u};
    const std::size_t nratios = std::size(ratios);
    using Row = std::vector<std::string>;

    banner("Ablation: PA-RISC hashed-page-table load factor");
    std::cout << "8MB physical memory = 2048 frames; table entries = "
                 "ratio x frames\n\n";

    // Full occupancy, directly comparable to the paper's expectation
    // (1:1 -> ~1.5 average chain, 2:1 -> ~1.25): a full physical
    // memory's worth of pages (2048) drawn from across the user space,
    // as the paper's 200M-instruction runs would touch.
    const char *paper_chain[] = {"~1.5", "~1.25", "~1.125"};
    TextTable full;
    full.setHeader({"ratio", "paper avg chain", "measured avg",
                    "avg search depth", "CRT entries"});
    for (const Row &row : runner.map(nratios, [&](std::size_t i) {
             PhysMem pm(8_MiB, 12);
             HashedPageTable pt(pm, ratios[i]);
             Random rng(opts.seed);
             std::vector<Addr> buf;
             std::set<Vpn> touched;
             while (touched.size() < 2048) {
                 Vpn v = rng.uniform(kUserSpan >> 12);
                 if (!touched.insert(v).second)
                     continue;
                 buf.clear();
                 pt.walk(v, buf);
             }
             return Row{std::to_string(ratios[i]) + ":1", paper_chain[i],
                        TextTable::fmt(pt.avgChainLength(), 3),
                        TextTable::fmt(pt.searchDepth().mean(), 3),
                        std::to_string(pt.crtEntries())};
         }))
        full.addRow(row);
    std::cout << "Full occupancy (2048 pages resident, the paper's "
                 "sizing assumption):\n";
    emit(full, opts);

    std::cout << "In-vivo (workload-driven) statistics - our synthetic "
                 "workloads touch fewer\npages than a full physical "
                 "memory, so chains are shorter than the paper's:\n\n";
    const std::vector<std::string> &workloads = workloadNames();
    std::vector<Row> rows =
        runner.map(workloads.size() * nratios, [&](std::size_t j) {
            const std::string &workload = workloads[j / nratios];
            SimConfig cfg;
            cfg.kind = SystemKind::Parisc;
            cfg.l1 = CacheParams{64_KiB, 64};
            cfg.l2 = CacheParams{1_MiB, 128};
            opts.applyTo(cfg);
            cfg.hptRatio = ratios[j % nratios];
            auto trace = makeWorkload(workload, cfg.seed);
            System sys(cfg);
            Results r = sys.run(*trace, opts.instructions, workload,
                                opts.resolvedWarmup());
            const auto &pt = static_cast<PariscVm &>(sys.vm()).pageTable();
            const VmStats &s = r.vmStats();
            double loads_per_walk =
                s.uhandlerCalls ? static_cast<double>(s.pteLoads) /
                                      static_cast<double>(s.uhandlerCalls)
                                : 0.0;
            return Row{std::to_string(cfg.hptRatio) + ":1",
                       std::to_string(pt.numBuckets()),
                       TextTable::fmt(pt.avgChainLength(), 3),
                       TextTable::fmt(pt.searchDepth().mean(), 3),
                       std::to_string(pt.crtEntries()),
                       TextTable::fmt(loads_per_walk, 3),
                       TextTable::fmt(r.vmcpi(), 5)};
        });
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        TextTable table;
        table.setHeader({"ratio", "buckets", "avg chain", "avg search",
                         "CRT entries", "pte loads/walk", "VMCPI"});
        for (std::size_t ri = 0; ri < nratios; ++ri)
            table.addRow(rows[wi * nratios + ri]);
        std::cout << workloads[wi] << " (" << opts.instructions
                  << " instructions)\n";
        emit(table, opts);
    }
    std::cout << "Expected shape: the 2:1 row's average chain length "
                 "sits near the paper's\n1.25 (gcc measured ~1.3); "
                 "denser tables (1:1) lengthen chains and raise\n"
                 "per-walk PTE loads, sparser tables (4:1) shorten "
                 "them.\n";
}

/**
 * Context-switch pressure: two grids on one quantum axis, untagged
 * (the paper's flush per switch) and ASID-tagged (each switch evicts
 * 16 random entries per side instead; only the TLB-based systems,
 * since tagging changes nothing for the others).
 */
void
printCtxSwitch(const BenchOptions &opts, const SweepResults &)
{
    banner("Context-switch pressure: VM overhead (VMCPI + intCPI@50) "
           "vs scheduling quantum");
    std::cout << "caches: 64KB/1MB, 64/128B lines; TLBs flushed per "
                 "switch (no ASIDs)\n\n";

    SweepRunner runner = makeRunner(opts);
    std::vector<SweepResults> results;
    for (bool asid : {false, true}) {
        std::vector<ConfigVariant> quanta;
        for (Counter q : {0, 1'000'000, 250'000, 50'000, 10'000})
            quanta.push_back({q ? std::to_string(q) : "no switch",
                              [q, asid](SimConfig &cfg) {
                                  cfg.ctxSwitchInterval = q;
                                  if (asid)
                                      cfg.tlbAsidBits = 6;
                              }});
        std::vector<SystemKind> kinds = kTlbKinds;
        if (!asid)
            kinds.insert(kinds.end(), {SystemKind::Notlb, SystemKind::Spur});
        results.push_back(runner.run(
            paperGrid(opts, kinds, {"gcc", "vortex"}).variants(quanta)));
    }

    for (std::size_t wi = 0; wi < 2; ++wi) {
        TextTable table;
        table.setHeader({"system", "no switch", "1M", "250K", "50K",
                         "10K"});
        for (std::size_t tagged = 0; tagged < 2; ++tagged) {
            const SweepResults &res = results[tagged];
            const SweepSpec &spec = res.spec();
            for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
                std::vector<std::string> row = {
                    std::string(kindName(spec.systemAxis()[ki])) +
                    (tagged ? " +ASID" : "")};
                for (std::size_t vi = 0; vi < spec.variantAxis().size();
                     ++vi)
                    row.push_back(TextTable::fmt(
                        res.meanMetric(
                            {.system = ki, .workload = wi, .variant = vi},
                            vmOverhead),
                        5));
                table.addRow(row);
            }
        }
        std::cout << results[0].spec().workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }
    std::cout << "Expected shape: software-managed TLBs degrade steeply "
                 "as the quantum\nshrinks; hardware-walked TLBs degrade "
                 "gently; NOTLB and SPUR rows are flat\n(no per-process "
                 "translation state); the +ASID rows flatten most of "
                 "the\ndegradation (switches cost partial eviction, not "
                 "a flush).\n";
}

} // anonymous namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {"table1_space", "T1", table1Spec, printTable1},
        {"table4_events", "T4", {}, printTable4},
        cacheGrid("fig6_vmcpi_gcc", "F6", "Figure 6", "gcc", false),
        cacheGrid("fig7_vmcpi_vortex", "F7", "Figure 7", "vortex", false),
        cacheGrid("fig8_breakdown_gcc", "F8", "Figure 8", "gcc", true),
        cacheGrid("fig9_breakdown_vortex", "F9", "Figure 9", "vortex",
                  true),
        systemRows(
            "interrupt_cost", "R1",
            {.banner = "Interrupt-cost sweep (paper Section 4.3, "
                       "reconstructed): interrupt CPI vs VMCPI",
             .intro = "caches: 64KB/1MB split direct-mapped, 64/128B "
                      "lines; interrupt cost in {10, 50, 200} cycles\n\n",
             .systems = paperVmSystems(),
             .workloads = workloadNames(),
             .columns =
                 {{"VMCPI", vmcpiOf, 5},
                  {"int/1Kinstr",
                   [](const Results &r) {
                       return 1000.0 *
                              static_cast<double>(r.vmStats().interrupts) /
                              static_cast<double>(r.userInstrs());
                   },
                   2},
                  {"int@10",
                   [](const Results &r) { return r.interruptCpiAt(10); },
                   5},
                  {"int@50",
                   [](const Results &r) { return r.interruptCpiAt(50); },
                   5},
                  {"int@200",
                   [](const Results &r) { return r.interruptCpiAt(200); },
                   5},
                  {"int share@200",
                   [](const Results &r) {
                       double v = r.vmcpi();
                       double i = r.interruptCpiAt(200);
                       return (v + i) > 0 ? 100 * (i / (v + i)) : 0.0;
                   },
                   1, "%"}},
             .expected = "Expected shape: INTEL's interrupt columns are "
                         "zero (hardware-managed TLB);\nfor the "
                         "software-managed schemes the interrupt share "
                         "at 200 cycles exceeds 50%,\nsupporting the "
                         "paper's call for cheaper precise-interrupt "
                         "handling.\n"}),
        {"fig10_interrupt_breakdown", "R1",
         [](const BenchOptions &opts) {
             return paperGrid(opts, paperVmSystems(), {"gcc", "vortex"})
                 .l1Sizes(paperL1Sizes(opts.full));
         },
         printFig10},
        {"total_overhead", "R2",
         [](const BenchOptions &opts) {
             return paperGrid(opts, kWithBase, workloadNames());
         },
         printTotalOverhead},
        systemRows(
            "tlb_size", "R3",
            {.banner = "TLB-size sensitivity (abstract result, "
                       "reconstructed): VMCPI vs TLB entries per side",
             .intro = "caches: 64KB/1MB split direct-mapped, 64/128B "
                      "lines; protected slots scale as entries/8 (16 at "
                      "the paper's 128)\n\n",
             .systems = kTlbKinds,
             .workloads = workloadNames(),
             .variants = variantsOf<unsigned>(
                 {{"16", 16}, {"32", 32}, {"64", 64}, {"128", 128},
                  {"256", 256}, {"512", 512}},
                 [](SimConfig &cfg, unsigned n) {
                     cfg.tlbEntries = n;
                     cfg.tlbProtectedSlots = n / 8;
                 }),
             .columns = {{"*", vmcpiOf, 5}},
             .expected = "Expected shape: VMCPI falls steeply with TLB "
                         "size until the workload's page\nworking set "
                         "fits, and vortex (the largest working set) "
                         "stays sensitive longest.\n",
             .caption = "VMCPI; "}),
        systemRows(
            "interpolated", "R4",
            {.banner = "Interpolated organizations (paper Section 4.2): "
                       "measured headline systems + hardware/table "
                       "recombinations",
             .intro = "caches: 64KB/1MB split direct-mapped, 64/128B "
                      "lines; 50-cycle interrupts\n\n",
             .systems = {SystemKind::Ultrix, SystemKind::Mach,
                         SystemKind::Intel, SystemKind::Parisc,
                         SystemKind::Notlb, SystemKind::HwInverted,
                         SystemKind::HwMips, SystemKind::Spur},
             .workloads = workloadNames(),
             .columns =
                 {{"VMCPI", vmcpiOf, 5},
                  {"uhandler",
                   [](const Results &r) {
                       return r.vmcpiBreakdown().uhandler;
                   },
                   5},
                  {"pte-cpi",
                   [](const Results &r) {
                       VmcpiBreakdown b = r.vmcpiBreakdown();
                       return b.upteL2 + b.upteMem + b.kpteL2 +
                              b.kpteMem + b.rpteL2 + b.rpteMem;
                   },
                   5},
                  {"intCPI", [](const Results &r) { return r.interruptCpi(); },
                   5},
                  {"MCPI", mcpiOf, 4},
                  {"total CPI",
                   [](const Results &r) { return r.totalCpi(); }, 4}},
             .expected = "Expected shape: HW-INVERTED (the "
                         "PowerPC/PA-7200 merge) combines INTEL's\n"
                         "zero-interrupt walk with the inverted table's "
                         "cache fit and should post the\nlowest "
                         "VM-related overhead of the TLB-based "
                         "schemes.\n"}),
        systemRows(
            "ablation_assoc", "A1",
            {.banner = "Ablation: cache associativity (paper simulates "
                       "direct-mapped only)",
             .intro = "caches: 64KB/1MB, 64/128B lines, LRU replacement "
                      "for associative configs\n\n",
             .systems = paperVmSystems(),
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<unsigned>(
                 {{"1way", 1}, {"2way", 2}, {"4way", 4}},
                 [](SimConfig &cfg, unsigned assoc) {
                     cfg.l1.assoc = assoc;
                     cfg.l2.assoc = assoc;
                     cfg.l1.repl = CacheRepl::LRU;
                     cfg.l2.repl = CacheRepl::LRU;
                 }),
             .columns = {{"MCPI@*", mcpiOf, 4}, {"VMCPI@*", vmcpiOf, 5}},
             .expected =
                 "Expected shape: associativity lowers VMCPI across the "
                 "board (page-table\nhotspots vanish, as the paper "
                 "predicts) and lowers MCPI for conflict-bound\n"
                 "workloads like gcc. Caveat: for cyclic access patterns "
                 "larger than the\ncache (vortex's cold chase), LRU "
                 "replacement thrashes where direct-mapped\nplacement "
                 "retains a working fraction - MCPI can rise with "
                 "associativity.\n"}),
        {"ablation_hpt", "A2", {}, printAblationHpt},
        systemRows(
            "ablation_protected", "A3",
            {.banner = "Ablation: protected TLB slots (16 reserved vs none)",
             .intro = "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs\n\n",
             .systems = {SystemKind::Ultrix, SystemKind::Mach,
                         SystemKind::HwMips},
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<unsigned>(
                 {{"16prot", 16}, {"0prot", 0}},
                 [](SimConfig &cfg, unsigned prot) {
                     cfg.tlbProtectedSlots = prot;
                 }),
             .columns = {{"nested walks@*",
                          [](const Results &r) {
                              return static_cast<double>(
                                  r.vmStats().rhandlerCalls +
                                  r.vmStats().khandlerCalls);
                          },
                          -1},
                         {"VMCPI@*", vmcpiOf, 5},
                         {"intCPI@*",
                          [](const Results &r) { return r.interruptCpi(); },
                          5}},
             .expected = "Expected shape: removing the partition "
                         "multiplies nested (kernel/root)\nwalks once "
                         "user pressure evicts the page-table-page "
                         "mappings.\n"}),
        systemRows(
            "ablation_pagesize", "A4",
            {.banner = "Ablation: page size (paper fixes 4 KB)",
             .intro = "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs\n\n",
             .systems = {SystemKind::Ultrix, SystemKind::Intel,
                         SystemKind::Parisc},
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<unsigned>(
                 {{"2KB", 11}, {"4KB", 12}, {"8KB", 13}, {"16KB", 14}},
                 [](SimConfig &cfg, unsigned bits) {
                     cfg.pageBits = bits;
                 }),
             .columns = {{"* walks/1Ki", walksPerK, 2},
                         {"* VMCPI", vmcpiOf, 5}},
             .expected = "Expected shape: doubling the page size roughly "
                         "halves user TLB misses for\nworking sets "
                         "limited by TLB reach (vortex), with "
                         "diminishing returns once\nthe page working set "
                         "fits the 128 entries.\n"}),
        systemRows(
            "ablation_tlbrepl", "A5",
            {.banner = "Ablation: TLB replacement policy (paper: random)",
             .intro = "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs\n\n",
             .systems = {SystemKind::Ultrix, SystemKind::Mach,
                         SystemKind::Intel, SystemKind::Parisc},
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<TlbRepl>(
                 {{"rnd", TlbRepl::Random},
                  {"LRU", TlbRepl::LRU},
                  {"FIFO", TlbRepl::FIFO}},
                 [](SimConfig &cfg, TlbRepl repl) { cfg.tlbRepl = repl; }),
             .columns = {{"misses/1Ki *", walksPerK, 2},
                         {"VMCPI *", vmcpiOf, 5}},
             .expected = "Expected shape: policies differ little when "
                         "the page working set fits or\nmassively "
                         "exceeds the TLB; LRU wins modestly in between, "
                         "and cyclic access\npatterns can favor random "
                         "over LRU.\n"}),
        systemRows(
            "ablation_unified", "A6",
            {.banner = "Ablation: split vs unified L2 (equal total capacity)",
             .intro = "caches: 64KB L1 per side, 64/128B lines; split = "
                      "2x1MB, unified = 1x2MB shared\n\n",
             .systems = paperVmSystems(),
             .workloads = workloadNames(),
             .variants = variantsOf<bool>(
                 {{"split", false}, {"unified", true}},
                 [](SimConfig &cfg, bool unified) {
                     cfg.unifiedL2 = unified;
                 }),
             .columns = {{"MCPI *", mcpiOf, 4}, {"VMCPI *", vmcpiOf, 5}},
             .expected = "Expected shape: unified L2 lets the dominant "
                         "side (data, for these\nworkloads) claim more "
                         "than half the capacity, generally lowering "
                         "MCPI;\nI/D conflict interference can cut the "
                         "other way for streaming-heavy mixes.\n"}),
        // Set-associative TLBs also give up the protected partition (a
        // real constraint of indexed TLBs): INTEL and PA-RISC have none
        // to lose, so only ULTRIX changes in two ways at once.
        systemRows(
            "ablation_tlbassoc", "A7",
            {.banner = "Ablation: TLB associativity (paper: fully associative)",
             .intro = "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs; "
                      "set-assoc configs drop the protected "
                      "partition\n\n",
             .systems = {SystemKind::Intel, SystemKind::Parisc,
                         SystemKind::Ultrix},
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<unsigned>(
                 {{"full", 0}, {"8-way", 8}, {"4-way", 4}, {"2-way", 2}},
                 [](SimConfig &cfg, unsigned assoc) {
                     cfg.tlbAssoc = assoc;
                     if (assoc != 0)
                         cfg.tlbProtectedSlots = 0;
                 }),
             .columns = {{"misses/1Ki *", walksPerK, 2},
                         {"VMCPI *", vmcpiOf, 5}},
             .expected = "Expected shape: full associativity is the "
                         "floor; lower associativity adds\nconflict "
                         "misses that grow as the page working set "
                         "concentrates in few sets\n(contiguous regions "
                         "index adjacent sets, so the penalty is usually "
                         "mild at\n8-way and visible by 2-way).\n"}),
        {"ctx_switch", "E1", {}, printCtxSwitch},
        cacheGrid("figA_vmcpi_ijpeg", "C1", "Companion figure", "ijpeg",
                  false),
        {"mcpi_sweep", "C2",
         [](const BenchOptions &opts) {
             return paperGrid(opts, kWithBase, workloadNames())
                 .l1Sizes(paperL1Sizes(opts.full));
         },
         printMcpiSweep},
        systemRows(
            "l2tlb", "E2",
            {.banner = "Unified L2 TLB sweep: VM overhead (VMCPI + "
                       "intCPI@50) vs L2 TLB entries",
             .intro = "caches: 64KB/1MB, 64/128B lines; 128-entry L1 "
                      "TLBs; 2-cycle L2 TLB hits\n\n",
             .systems = kTlbKinds,
             .workloads = {"gcc", "vortex"},
             .variants = variantsOf<unsigned>(
                 {{"none", 0}, {"256", 256}, {"512", 512}, {"1024", 1024},
                  {"2048", 2048}},
                 [](SimConfig &cfg, unsigned n) { cfg.l2TlbEntries = n; }),
             .columns = {{"*", vmOverhead, 5},
                         {"hit rate @1024",
                          [](const Results &r) {
                              const VmStats &s = r.vmStats();
                              auto walks = static_cast<double>(
                                  s.itlbMisses + s.dtlbMisses);
                              auto hits = static_cast<double>(s.l2TlbHits);
                              return walks ? 100.0 * hits / walks : 0.0;
                          },
                          1, "%", 3}},
             .expected = "Expected shape: overhead falls monotonically "
                         "with L2 TLB size; the\nsoftware-managed "
                         "schemes converge toward the hardware-walked "
                         "ones because\neach hit eliminates an interrupt "
                         "plus handler execution.\n"}),
    };
    return table;
}

void
runFigure(const Figure &fig, const BenchOptions &opts)
{
    fig.print(opts, fig.spec ? runSweep(opts, fig.spec(opts))
                             : SweepResults());
}

} // namespace vmsim::bench
