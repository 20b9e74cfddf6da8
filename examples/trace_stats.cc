/**
 * @file
 * trace_stats: offline analysis of a VMT1 trace file.
 *
 * Prints the locality profile that determines a trace's VM behavior —
 * record counts and memory-op mix, code/data page and line working
 * sets, data-stride distribution, and page-touch skew — so users can
 * sanity-check a recorded trace (or compare a real trace against the
 * synthetic stand-ins) before running simulations.
 *
 * Usage: trace_stats <trace.vmt>
 *        trace_stats --demo    (records a short gcc-like trace first)
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "vmsim.hh"

namespace
{

using namespace vmsim;

/** Absolute difference of two u32 addresses. */
std::uint32_t
absDelta(std::uint32_t a, std::uint32_t b)
{
    return a > b ? a - b : b - a;
}

} // anonymous namespace

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    std::string path;
    if (argc > 1 && std::string(argv[1]) == "--demo") {
        path = "/tmp/vmsim_trace_stats_demo.vmt";
        GccLikeWorkload w(7);
        TraceFileWriter out(path);
        TraceRecord rec;
        for (int i = 0; i < 400000; ++i) {
            w.next(rec);
            out.write(rec);
        }
        out.close();
        std::cout << "(demo mode: wrote " << path << ")\n\n";
    } else if (argc > 1) {
        path = argv[1];
    } else {
        std::cerr << "usage: trace_stats <trace.vmt> | --demo\n";
        return 1;
    }

    TraceFileReader reader(path);

    Counter loads = 0, stores = 0;
    std::map<std::uint32_t, Counter> code_pages, data_pages;
    std::map<std::uint32_t, Counter> code_lines, data_lines;
    Histogram stride_hist(0, 4096, 8);
    Counter seq_pc = 0;
    TraceRecord rec, prev{};
    bool have_prev = false;
    std::uint32_t prev_daddr = 0;
    bool have_daddr = false;

    while (reader.next(rec)) {
        ++code_pages[rec.pc >> 12];
        ++code_lines[rec.pc >> 6];
        if (have_prev && rec.pc == prev.pc + 4)
            ++seq_pc;
        if (rec.isMemOp()) {
            if (rec.isStore())
                ++stores;
            else
                ++loads;
            ++data_pages[rec.daddr >> 12];
            ++data_lines[rec.daddr >> 6];
            if (have_daddr)
                stride_hist.sample(absDelta(rec.daddr, prev_daddr));
            prev_daddr = rec.daddr;
            have_daddr = true;
        }
        prev = rec;
        have_prev = true;
    }

    Counter n = reader.recordsRead();
    if (n == 0) {
        std::cout << "empty trace\n";
        return 0;
    }

    auto skew = [](const std::map<std::uint32_t, Counter> &m) {
        // Fraction of touches landing on the hottest 10% of pages.
        std::vector<Counter> counts;
        Counter total = 0;
        for (const auto &[k, v] : m) {
            counts.push_back(v);
            total += v;
        }
        std::sort(counts.rbegin(), counts.rend());
        std::size_t top = std::max<std::size_t>(1, counts.size() / 10);
        Counter hot = 0;
        for (std::size_t i = 0; i < top; ++i)
            hot += counts[i];
        return total ? 100.0 * static_cast<double>(hot) /
                           static_cast<double>(total)
                     : 0.0;
    };

    TextTable t;
    t.setHeader({"metric", "value"});
    t.addRow({"records", std::to_string(n)});
    t.addRow({"loads", std::to_string(loads)});
    t.addRow({"stores", std::to_string(stores)});
    t.addRow({"memory-op rate",
              TextTable::fmt(100.0 * (loads + stores) / n, 1) + "%"});
    t.addRow({"sequential-PC rate",
              TextTable::fmt(100.0 * seq_pc / n, 1) + "%"});
    t.addRow({"code pages (4KB)", std::to_string(code_pages.size())});
    t.addRow({"data pages (4KB)", std::to_string(data_pages.size())});
    t.addRow({"code lines (64B)", std::to_string(code_lines.size())});
    t.addRow({"data lines (64B)", std::to_string(data_lines.size())});
    t.addRow({"code touch skew (top 10% pages)",
              TextTable::fmt(skew(code_pages), 1) + "%"});
    t.addRow({"data touch skew (top 10% pages)",
              TextTable::fmt(skew(data_pages), 1) + "%"});
    t.print(std::cout);

    std::cout << "\ndata-reference stride distribution (bytes):\n  "
              << stride_hist.toString("|stride|") << '\n';

    std::cout << "\nRules of thumb: data pages >> 128 stresses the "
                 "TLBs; low sequential-PC\nrate or weak touch skew "
                 "stresses the caches; compare against the synthetic\n"
                 "workloads' profiles in tests/synthetic_test.cc.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
