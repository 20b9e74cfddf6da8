/**
 * @file
 * Trace records and the TraceSource interface.
 *
 * The paper drives its simulator from SPEC'95 integer traces. vmsim
 * consumes any TraceSource: the bundled deterministic synthetic
 * workloads (trace/synthetic/), a binary trace file recorded by an
 * external tool such as Pin or Valgrind (trace/trace_file.hh), or a
 * user-supplied generator.
 */

#ifndef VMSIM_TRACE_TRACE_HH
#define VMSIM_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "base/types.hh"

namespace vmsim
{

/** Kind of memory operation an instruction performs. */
enum class MemOp : std::uint8_t
{
    None = 0, ///< no data reference
    Load = 1,
    Store = 2,
};

/**
 * One executed instruction: its PC and, if it is a load or store, its
 * effective data address. Addresses are 32-bit virtual addresses of
 * the simulated machine.
 */
struct TraceRecord
{
    std::uint32_t pc = 0;
    std::uint32_t daddr = 0;
    MemOp op = MemOp::None;

    bool isMemOp() const { return op != MemOp::None; }
    bool isStore() const { return op == MemOp::Store; }

    bool
    operator==(const TraceRecord &o) const
    {
        return pc == o.pc && daddr == o.daddr && op == o.op;
    }
};

/** A stream of executed instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction into @p rec.
     * @return false when the trace is exhausted (synthetic sources are
     *         typically unbounded and always return true).
     */
    virtual bool next(TraceRecord &rec) = 0;

    /**
     * Produce up to @p n instructions into @p out. Returns the number
     * produced; fewer than @p n (possibly 0) means the trace is
     * exhausted. Record-for-record identical to n calls of next() —
     * the batched simulation loop depends on that equivalence.
     *
     * The default walks next(); sources with a cheaper bulk path
     * (synthetic generators, file readers, replay cursors) override it
     * to skip the per-record virtual dispatch.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t n)
    {
        std::size_t i = 0;
        while (i < n && next(out[i]))
            ++i;
        return i;
    }

    /**
     * Zero-copy variant of nextBatch() for sources that own contiguous
     * record storage: lend the caller a pointer to up to @p n records
     * and advance past them, setting @p got to the count (0 at
     * exhaustion). The pointer stays valid until the next call on the
     * source; a ReplayCursor's, until it is destroyed or rewound.
     *
     * Returns nullptr when the source cannot lend (the default) — the
     * caller must then fall back to nextBatch() into its own buffer.
     * Sources that do lend must yield the exact record sequence
     * nextBatch() would.
     */
    virtual const TraceRecord *
    lendBatch(std::size_t n, std::size_t &got)
    {
        (void)n;
        got = 0;
        return nullptr;
    }

    /**
     * True when this source always lends (lendBatch() never returns
     * nullptr) and every pointer it lends stays valid until the source
     * is destroyed, so a consumer may hand lent records to another
     * thread while it fetches the next batch. A ReplayCursor's shared,
     * immutable recording does; a buffer reused per call does not.
     */
    virtual bool lendsStableRecords() const { return false; }
};

} // namespace vmsim

#endif // VMSIM_TRACE_TRACE_HH
