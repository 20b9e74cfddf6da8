/**
 * @file
 * vmsim_bench: run one entry of the table of figures (figures.hh) —
 * a table or figure of the paper, a reconstruction of one of its
 * claims, an ablation or an extension — or all of them in table order.
 *
 * Usage: vmsim_bench --figure=NAME|all [--full] [--csv]
 *                    [--instructions=N] [--warmup=N] [--jobs=N]
 *                    [--seeds=N] [any other bench flag]
 *        vmsim_bench --list      (one "NAME ID" line per entry)
 *
 * --figure and --list are the driver's own flags; every other flag is
 * a BenchOptions flag, shared with the other bench binaries.
 */

#include <iostream>
#include <string_view>

#include "figures.hh"

namespace
{

int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    std::string figure;
    bool list = false;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg.starts_with("--figure="))
            figure = arg.substr(std::string_view("--figure=").size());
        else if (arg == "--list")
            list = true;
        else
            rest.push_back(argv[i]);
    }
    BenchOptions opts =
        BenchOptions::parse(static_cast<int>(rest.size()), rest.data());

    if (list) {
        for (const Figure &f : figures())
            std::cout << f.name << ' ' << f.id << '\n';
        return 0;
    }
    std::vector<const Figure *> chosen;
    std::string names;
    for (const Figure &f : figures()) {
        names += ", " + f.name;
        if (figure == "all" || f.name == figure)
            chosen.push_back(&f);
    }
    fatalIf(chosen.empty(),
            figure.empty() ? "--figure=NAME is required"
                           : "unknown figure '" + figure + "'",
            " (expected all", names, ")");
    // One journal or shard directory describes one grid.
    fatalIf(chosen.size() > 1 &&
                (!opts.journal.empty() || !opts.shardDir.empty()),
            "--figure=all runs many grids; give --journal or --shard-dir "
            "with a single --figure=NAME");
    for (const Figure *f : chosen)
        runFigure(*f, opts);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
