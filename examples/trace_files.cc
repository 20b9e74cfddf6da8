/**
 * @file
 * trace_files: recording and replaying binary traces.
 *
 * Demonstrates the VMT1 trace-file interchange path that lets real
 * traces (e.g. from a Pin or Valgrind tool) drive the simulator:
 *
 *   1. generate a synthetic gcc-like trace and record it to a file,
 *   2. inspect the file (record count, memory-op mix, footprint),
 *   3. replay it through two different VM organizations and verify
 *      the replay matches driving the generator directly.
 *
 * Usage: trace_files [path] [instructions]
 *   path:         trace file to write (default /tmp/vmsim_example.vmt)
 *   instructions: trace length (default 500000)
 */

#include <iostream>
#include <set>

#include "vmsim.hh"

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    std::string path = argc > 1 ? argv[1] : "/tmp/vmsim_example.vmt";
    Counter n =
        argc > 2 ? parseU64(argv[2], "instructions").orThrow() : 500'000;

    // 1. Record.
    std::cout << "Recording " << n << " instructions of gcc-like to "
              << path << " ...\n";
    {
        GccLikeWorkload workload(2026);
        TraceFileWriter writer(path);
        TraceRecord rec;
        for (Counter i = 0; i < n; ++i) {
            workload.next(rec);
            writer.write(rec);
        }
        writer.close();
    }

    // 2. Inspect.
    {
        TraceFileReader reader(path);
        Counter loads = 0, stores = 0;
        std::set<std::uint32_t> code_pages, data_pages;
        TraceRecord rec;
        while (reader.next(rec)) {
            code_pages.insert(rec.pc >> 12);
            if (rec.op == MemOp::Load)
                ++loads;
            if (rec.op == MemOp::Store)
                ++stores;
            if (rec.isMemOp())
                data_pages.insert(rec.daddr >> 12);
        }
        std::cout << "  records:    " << reader.recordCount() << '\n'
                  << "  loads:      " << loads << '\n'
                  << "  stores:     " << stores << '\n'
                  << "  code pages: " << code_pages.size() << '\n'
                  << "  data pages: " << data_pages.size() << "\n\n";
    }

    // 3. Replay through two organizations; verify against the direct
    //    generator path.
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Parisc}) {
        SimConfig cfg;
        cfg.kind = kind;
        cfg.l1 = CacheParams{32_KiB, 32};
        cfg.l2 = CacheParams{1_MiB, 64};
        cfg.seed = 2026;

        TraceFileReader replay(path);
        System from_file(cfg);
        Results rf = from_file.run(replay, n, "file");

        GccLikeWorkload direct(2026);
        System from_gen(cfg);
        Results rg = from_gen.run(direct, n, "generator");

        std::cout << kindName(kind) << ": replay VMCPI = "
                  << TextTable::fmt(rf.vmcpi(), 5)
                  << ", direct VMCPI = "
                  << TextTable::fmt(rg.vmcpi(), 5)
                  << (rf.vmcpi() == rg.vmcpi() ? "  [identical]"
                                               : "  [MISMATCH]")
                  << '\n';
    }

    std::cout << "\nAny tool that emits VMT1 records (header comment in "
                 "src/trace/trace_file.hh)\ncan drive every simulation "
                 "in place of the synthetic workloads.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
