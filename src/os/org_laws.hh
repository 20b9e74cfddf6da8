/**
 * @file
 * Per-organization invariant tables (the checkable face of Table 4).
 *
 * Each of the nine VM organizations implies exact arithmetic laws
 * over its VmStats: which handler levels can run, how interrupts
 * relate to handler invocations, how many PTE loads a miss costs,
 * and how FSM walk cycles decompose. This module keeps those laws
 * next to the organizations they describe: a capability row per
 * SystemKind plus a dispatch function evaluating the kind-specific
 * equations on a finished run.
 */

#ifndef VMSIM_OS_ORG_LAWS_HH
#define VMSIM_OS_ORG_LAWS_HH

#include "check/invariants.hh"
#include "core/results.hh"
#include "core/sim_config.hh"

namespace vmsim
{

/**
 * Structural capabilities of one organization — which counters it is
 * allowed to move at all. The zero-columns are themselves laws: a
 * hardware-walked system that ever counts a handler call is wrong.
 */
struct OrgLaws
{
    SystemKind kind;
    bool hasTlb;        ///< probes I/D TLBs (BASE/NOTLB/SPUR do not)
    bool usesUhandler;  ///< user-level miss handler can run
    bool usesKhandler;  ///< kernel-level handler can run (MACH only)
    bool usesRhandler;  ///< root-level (nested) handler can run
    bool usesHwWalk;    ///< hardware FSM walks (vs software refill)
    bool takesInterrupts; ///< refill raises precise interrupts
};

/** Capability row for one organization (panics on unknown kind). */
const OrgLaws &orgLaws(SystemKind kind);

/**
 * Cache lines one aligned PTE load of @p config's organization
 * touches: a hashed PTE is 16 bytes at a 16-aligned address, so a
 * narrower L1 line sees exactly 16/line lines; a hierarchical 4-byte
 * PTE always fits one line (the cache enforces lineSize >= 4).
 */
Counter pteLinesPerLoad(const SimConfig &config);

/**
 * Evaluate every law the organization implies on a finished run:
 * the capability zero-columns, the refill equations (misses =
 * handler calls + L2-TLB hits, interrupt and PTE-load budgets per
 * miss), the FSM cycle decomposition, and the per-class PTE
 * data-access attribution.
 */
void checkOrgLaws(const SimConfig &config, const HandlerCosts &costs,
                  const Results &r, CheckReport &rep);

} // namespace vmsim

#endif // VMSIM_OS_ORG_LAWS_HH
