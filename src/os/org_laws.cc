#include "os/org_laws.hh"

#include "base/logging.hh"
#include "os/hw_mips_vm.hh"
#include "os/spur_vm.hh"

namespace vmsim
{

namespace
{

// One row per organization, in SystemKind declaration order. The
// false columns are laws in themselves: counters an organization is
// structurally unable to move must stay zero.
constexpr OrgLaws kOrgLawsTable[] = {
    // kind                    tlb    uh     kh     rh     hw     irq
    {SystemKind::Ultrix,       true,  true,  false, true,  false, true},
    {SystemKind::Mach,         true,  true,  true,  true,  false, true},
    {SystemKind::Intel,        true,  false, false, false, true,  false},
    {SystemKind::Parisc,       true,  true,  false, false, false, true},
    {SystemKind::Notlb,        false, true,  false, true,  false, true},
    {SystemKind::Base,         false, false, false, false, false, false},
    {SystemKind::HwInverted,   true,  false, false, false, true,  false},
    {SystemKind::HwMips,       true,  false, false, false, true,  false},
    {SystemKind::Spur,         false, false, false, false, true,  false},
};

} // namespace

Counter
pteLinesPerLoad(const SimConfig &config)
{
    const bool hashed = config.kind == SystemKind::Parisc ||
                        config.kind == SystemKind::HwInverted;
    const unsigned line = config.l1.lineSize;
    return hashed && kHashedPteSize > line ? kHashedPteSize / line : 1;
}

const OrgLaws &
orgLaws(SystemKind kind)
{
    for (const OrgLaws &row : kOrgLawsTable)
        if (row.kind == kind)
            return row;
    panic("orgLaws: unknown SystemKind ",
          static_cast<unsigned>(kind));
}

void
checkOrgLaws(const SimConfig &config, const HandlerCosts &costs,
             const Results &r, CheckReport &rep)
{
    const OrgLaws &laws = orgLaws(config.kind);
    const VmStats &vm = r.vmStats();
    const MemSystemStats &m = r.memStats();

    const Counter T = vm.itlbMisses + vm.dtlbMisses;
    const Counter H = vm.l2TlbHits;
    const Counter U = vm.uhandlerCalls;
    const Counter K = vm.khandlerCalls;
    const Counter R = vm.rhandlerCalls;
    const Counter W = vm.hwWalks;
    const Counter P = vm.pteLoads;
    const Counter I = vm.interrupts;
    const Counter hitc = config.l2TlbEntries ? config.l2TlbHitCycles : 0;
    const Counter basec = costs.hwWalkCycles;
    const Counter userL2 = m.instOf(AccessClass::User).l2Misses +
                           m.dataOf(AccessClass::User).l2Misses;

    // --- capability columns -------------------------------------------
    if (!laws.hasTlb) {
        rep.check(T == 0, "org.no-tlb",
                  r.system(), " has no TLB but counted ", T,
                  " TLB misses");
        rep.check(H == 0, "org.no-l2tlb",
                  r.system(), " has no TLB but counted ", H,
                  " L2-TLB hits");
        // With no TLB state to invalidate there is nothing to shoot
        // down; the factory builds these organizations single-instance
        // even under a multicore schedule.
        rep.check(vm.shootdownsSent == 0 && vm.shootdownsRecv == 0 &&
                      vm.shootdownCycles == 0,
                  "org.no-shootdowns", r.system(),
                  " has no TLB but counted shootdowns: sent=",
                  vm.shootdownsSent, " recv=", vm.shootdownsRecv,
                  " cycles=", vm.shootdownCycles);
    }
    if (!laws.usesUhandler)
        rep.check(U == 0, "org.no-uhandler",
                  r.system(), " counted ", U, " user handler calls");
    if (!laws.usesKhandler)
        rep.check(K == 0, "org.no-khandler",
                  r.system(), " counted ", K, " kernel handler calls");
    if (!laws.usesRhandler)
        rep.check(R == 0, "org.no-rhandler",
                  r.system(), " counted ", R, " root handler calls");
    if (!laws.usesHwWalk)
        rep.check(W == 0, "org.no-hw-walk",
                  r.system(), " counted ", W, " hardware walks");
    if (!laws.takesInterrupts)
        rep.check(I == 0, "org.no-interrupts",
                  r.system(), " counted ", I, " interrupts");

    // --- handler length accounting ------------------------------------
    rep.check(vm.uhandlerInstrs == U * costs.userInstrs,
              "org.uhandler-instrs", "expected ", U, " calls x ",
              costs.userInstrs, " instrs, got ", vm.uhandlerInstrs);
    rep.check(vm.khandlerInstrs == K * costs.kernelInstrs,
              "org.khandler-instrs", "expected ", K, " calls x ",
              costs.kernelInstrs, " instrs, got ", vm.khandlerInstrs);
    rep.check(vm.rhandlerInstrs == R * costs.rootInstrs,
              "org.rhandler-instrs", "expected ", R, " calls x ",
              costs.rootInstrs, " instrs, got ", vm.rhandlerInstrs);
    rep.check(H <= T, "org.l2tlb-hits",
              "L2-TLB hits (", H, ") exceed TLB misses (", T, ")");

    // --- per-organization refill equations (Table 4) ------------------
    // Expected per-class PTE data-line accesses; filled per kind below.
    Counter pteU = 0, pteK = 0, pteR = 0;
    // Expected FSM cycle decomposition; every software-refill machine
    // accrues walk cycles only through L2-TLB hits.
    Counter cycles = H * hitc;

    switch (config.kind) {
      case SystemKind::Ultrix:
        rep.check(U == T - H, "ultrix.refills",
                  "handler calls ", U, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(R <= U, "ultrix.nesting",
                  "root calls ", R, " exceed user calls ", U);
        rep.check(I == U + R, "ultrix.interrupts",
                  "interrupts ", I, " != U+R = ", U + R);
        rep.check(P == U + R, "ultrix.pte-loads",
                  "PTE loads ", P, " != U+R = ", U + R);
        pteU = U;
        pteR = R;
        break;

      case SystemKind::Mach:
        rep.check(U == T - H, "mach.refills",
                  "handler calls ", U, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(K <= U && R <= K, "mach.nesting",
                  "expected R <= K <= U, got R=", R, " K=", K, " U=", U);
        rep.check(I == U + K + R, "mach.interrupts",
                  "interrupts ", I, " != U+K+R = ", U + K + R);
        rep.check(P == U + K + R, "mach.pte-loads",
                  "PTE loads ", P, " != U+K+R = ", U + K + R);
        pteU = U;
        pteK = K;
        // Root path: the RPTE load plus adminLoads bookkeeping reads,
        // all charged to the PteRoot class (only the RPTE is a PTE
        // load proper).
        pteR = R * (1 + costs.adminLoads);
        break;

      case SystemKind::Intel:
        rep.check(W == T - H, "intel.walks",
                  "hardware walks ", W, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(P == 2 * W, "intel.pte-loads",
                  "PTE loads ", P, " != 2 per walk = ", 2 * W);
        pteU = W;
        pteR = W;
        cycles = W * basec + H * hitc;
        break;

      case SystemKind::Parisc:
        rep.check(U == T - H, "parisc.refills",
                  "handler calls ", U, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(I == U, "parisc.interrupts",
                  "interrupts ", I, " != handler calls ", U);
        rep.check(P >= U, "parisc.chain",
                  "PTE loads ", P, " below one probe per miss (", U, ")");
        pteU = P * pteLinesPerLoad(config);
        break;

      case SystemKind::Notlb:
        rep.check(I == U + R, "notlb.interrupts",
                  "interrupts ", I, " != U+R = ", U + R);
        rep.check(P == U + R, "notlb.pte-loads",
                  "PTE loads ", P, " != U+R = ", U + R);
        rep.check(R <= U, "notlb.nesting",
                  "root calls ", R, " exceed user calls ", U);
        // A handler fires per user access whose worst level reached
        // memory; each such access misses L2 on one or two lines.
        rep.check(U <= userL2 && userL2 <= 2 * U, "notlb.l2-misses",
                  "handler calls ", U, " vs user L2 line misses ",
                  userL2);
        pteU = U;
        pteR = R;
        cycles = 0;
        break;

      case SystemKind::Base:
        rep.check(P == 0 && vm.hwWalkCycles == 0, "base.inert",
                  "BASE moved VM counters: pteLoads=", P,
                  " hwWalkCycles=", vm.hwWalkCycles);
        cycles = 0;
        break;

      case SystemKind::HwInverted:
        rep.check(W == T - H, "hw-inverted.walks",
                  "hardware walks ", W, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(P >= W, "hw-inverted.chain",
                  "PTE loads ", P, " below one probe per walk (", W,
                  ")");
        pteU = P * pteLinesPerLoad(config);
        // Base cost per walk plus one cycle per extra chain probe.
        cycles = W * basec + (P - W) + H * hitc;
        break;

      case SystemKind::HwMips:
        rep.check(W == T - H, "hw-mips.walks",
                  "hardware walks ", W, " != TLB misses ", T,
                  " - L2 hits ", H);
        rep.check(W <= P && P <= 2 * W, "hw-mips.pte-loads",
                  "PTE loads ", P, " outside [W, 2W] for W=", W);
        pteU = W;
        pteR = P - W;
        cycles = W * basec + (P - W) * HwMipsVm::kNestedWalkCycles +
                 H * hitc;
        break;

      case SystemKind::Spur:
        rep.check(W <= P && P <= 2 * W, "spur.pte-loads",
                  "PTE loads ", P, " outside [W, 2W] for W=", W);
        // An in-cache-TLB walk fires per user access whose worst
        // level reached memory (one or two L2 line misses each).
        rep.check(W <= userL2 && userL2 <= 2 * W, "spur.l2-misses",
                  "walks ", W, " vs user L2 line misses ", userL2);
        pteU = W;
        pteR = P - W;
        cycles = W * basec + (P - W) * SpurVm::kNestedWalkCycles;
        break;
    }

    rep.check(vm.hwWalkCycles == cycles, "org.walk-cycles",
              r.system(), " FSM cycle decomposition: expected ", cycles,
              ", got ", vm.hwWalkCycles);

    // --- per-class PTE data-access attribution ------------------------
    rep.check(m.dataOf(AccessClass::PteUser).accesses == pteU,
              "org.pte-user-accesses", r.system(), " expected ", pteU,
              " user-PTE line accesses, got ",
              m.dataOf(AccessClass::PteUser).accesses);
    rep.check(m.dataOf(AccessClass::PteKernel).accesses == pteK,
              "org.pte-kernel-accesses", r.system(), " expected ", pteK,
              " kernel-PTE line accesses, got ",
              m.dataOf(AccessClass::PteKernel).accesses);
    rep.check(m.dataOf(AccessClass::PteRoot).accesses == pteR,
              "org.pte-root-accesses", r.system(), " expected ", pteR,
              " root-PTE line accesses, got ",
              m.dataOf(AccessClass::PteRoot).accesses);
}

} // namespace vmsim
