/**
 * @file
 * The table of figures: one entry per experiment of DESIGN.md's
 * experiment index — the paper's tables and figures, our
 * reconstructions of its claims, the ablations and the extensions.
 * Each entry holds its grid (a SweepSpec built from the bench options,
 * reduced or --full) and its printer, so this table is the one place
 * the paper's grids are written down. vmsim_bench runs any entry by
 * name; tests can link the grids through the vmsim_figures library.
 */

#ifndef VMSIM_BENCH_FIGURES_HH
#define VMSIM_BENCH_FIGURES_HH

#include <functional>
#include <string>
#include <vector>

#include "vmsim.hh"

namespace vmsim::bench
{

/** One experiment: a grid and the tables printed from its results. */
struct Figure
{
    std::string name; ///< --figure=NAME, e.g. fig6_vmcpi_gcc
    std::string id;   ///< DESIGN.md experiment ID: T1, F6, R3, A5, ...

    /** The grid under the given options; empty for the entries whose
     *  printer runs its own experiment (table4_events, ctx_switch,
     *  ablation_hpt). */
    std::function<SweepSpec(const BenchOptions &)> spec;

    /** Print the entry to stdout from its grid's results (empty
     *  results when spec is empty). */
    std::function<void(const BenchOptions &, const SweepResults &)> print;
};

/** Every entry, in the order of DESIGN.md's experiment index. */
const std::vector<Figure> &figures();

/** Run @p fig's grid under @p opts (see runSweep) and print it. */
void runFigure(const Figure &fig, const BenchOptions &opts);

} // namespace vmsim::bench

#endif // VMSIM_BENCH_FIGURES_HH
