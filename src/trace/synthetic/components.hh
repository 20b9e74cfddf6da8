/**
 * @file
 * Building blocks for the synthetic SPEC'95-stand-in workloads.
 *
 * The paper's benchmark behavior is driven by a handful of properties:
 * instruction-footprint size and reuse skew, data-footprint size,
 * spatial locality of data references, and the resulting TLB working
 * set. The components here model exactly those knobs:
 *
 *  - ZipfSampler:  skewed popularity (hot functions / hot records)
 *  - StreamWalker: sequential streaming with a stride (high spatial
 *                  locality; ijpeg-style image sweeps)
 *  - PointerChase: a permutation cycle over scattered nodes (poor
 *                  spatial locality; vortex-style database traversal)
 *  - StackModel:   small hot region with push/pop drift (call stacks)
 *  - ZipfRegionAccess: skewed record access with short spatial runs
 *                  (gcc-style heap behavior)
 *  - UniformAccess: uniformly random words (the no-locality diagnostic)
 *  - CodeModel:    functions of basic blocks with skewed invocation
 *
 * Everything is seeded and deterministic: the same seed always yields
 * the identical trace.
 */

#ifndef VMSIM_TRACE_SYNTHETIC_COMPONENTS_HH
#define VMSIM_TRACE_SYNTHETIC_COMPONENTS_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "trace/trace.hh"

namespace vmsim
{

/** A contiguous virtual address region. */
struct Region
{
    Addr base = 0;
    std::uint64_t size = 0;

    Addr end() const { return base + size; }
    bool contains(Addr a) const { return a >= base && a < end(); }
};

/**
 * Zipf-distributed sampler over [0, n): item i has weight
 * 1 / (i+1)^s. A sample is the CDF's std::lower_bound of one
 * uniformReal(), found in O(1) expected time through a guide table
 * (the cutpoint method): bucket floor(u * n) holds the lower bound of
 * the smallest u in that bucket, and a short forward scan finishes.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of items, > 0
     * @param s skew exponent; 0 = uniform, ~1 = classic Zipf
     */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one item index using @p rng. */
    std::uint64_t
    sample(Random &rng) const
    {
        return lookup(rng.uniformReal());
    }

    /** The first index whose CDF value is >= @p u. @pre 0 <= u <= 1 */
    std::uint64_t
    lookup(double u) const
    {
        std::uint32_t i = guide_[bucket(u)];
        while (cdf_[i] < u)
            ++i;
        return i;
    }

    /** Guide-table entry @p b: lookup()'s first candidate in bucket b. */
    std::uint32_t guideEntry(std::uint64_t b) const { return guide_[b]; }

  private:
    std::uint64_t
    bucket(double u) const
    {
        const auto b = static_cast<std::uint64_t>(u * scale_);
        return b < cdf_.size() ? b : cdf_.size() - 1;
    }

    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_; ///< bucket -> first candidate
    double scale_;                     ///< n, as a double
};

/**
 * Sequential streaming through a region with a fixed stride, wrapping
 * at the end — models image/buffer sweeps with high spatial locality.
 */
class StreamWalker
{
  public:
    StreamWalker(Region region, unsigned stride = 4);

    Addr nextAddr(Random &rng);

    /** Restart the sweep from the region base. */
    void restart() { offset_ = 0; }

  private:
    Region region_;
    unsigned stride_;
    std::uint64_t offset_ = 0;
};

/**
 * Pointer chasing over @p num_nodes node addresses scattered through a
 * region by a seeded permutation cycle — models linked-structure
 * traversal with poor spatial locality: successive references land on
 * unrelated lines and pages.
 */
class PointerChase
{
  public:
    /**
     * @param region address range holding the nodes
     * @param num_nodes nodes in the cycle (each node_size bytes apart)
     * @param node_size spacing between node slots, >= 4
     * @param seed permutation seed
     */
    PointerChase(Region region, std::uint64_t num_nodes,
                 unsigned node_size, std::uint64_t seed);

    Addr nextAddr(Random &rng);

  private:
    Region region_;
    unsigned nodeSize_;
    std::vector<std::uint32_t> nextIdx_; ///< permutation cycle
    std::uint32_t cur_ = 0;
};

/**
 * A call-stack model: references cluster near the current top of a
 * small region; the top drifts up and down with push/pop events.
 * Almost all references hit a handful of hot pages.
 */
class StackModel
{
  public:
    /**
     * @param region the stack region
     * @param frame_bytes typical frame size (drift step), >= 4
     * @param move_prob probability a reference pushes/pops first
     */
    StackModel(Region region, unsigned frame_bytes = 96,
               double move_prob = 0.03);

    Addr nextAddr(Random &rng);

    Addr top() const { return top_; }

  private:
    Region region_;
    unsigned frameBytes_;
    Bernoulli move_;
    Addr top_;
};

/**
 * Skewed record access with short spatial runs: pick a record by Zipf
 * popularity, then touch a few consecutive words inside it — models
 * heap behavior of a compiler-like workload (moderate spatial
 * locality, strong temporal skew).
 */
class ZipfRegionAccess
{
  public:
    /**
     * @param region heap region
     * @param record_bytes bytes per record (region is divided into
     *        size/record_bytes records)
     * @param skew Zipf exponent over records
     * @param run_len mean consecutive-word run per record visit
     * @param seed scatter seed (used only when @p scatter is true)
     * @param scatter if true, popularity ranks are shuffled across the
     *        region (hot records on scattered pages); if false
     *        (default), hot records cluster at low addresses like
     *        early heap allocations, preserving page-level locality
     */
    ZipfRegionAccess(Region region, unsigned record_bytes, double skew,
                     unsigned run_len, std::uint64_t seed,
                     bool scatter = false);

    Addr nextAddr(Random &rng);

  private:
    Region region_;
    unsigned recordBytes_;
    unsigned runLen_;
    ZipfSampler zipf_;
    std::vector<std::uint32_t> shuffle_; ///< rank -> slot (if scatter)
    Addr runAddr_ = 0;
    unsigned runLeft_ = 0;
};

/** Uniformly random word accesses over a region. */
class UniformAccess
{
  public:
    explicit UniformAccess(Region region);

    Addr nextAddr(Random &rng);

  private:
    Region region_;
};

/** The closed set of data-address generators a workload mixes. */
using DataGenerator = std::variant<StreamWalker, PointerChase, StackModel,
                                   ZipfRegionAccess, UniformAccess>;

/**
 * Instruction-side model: a set of functions, each a contiguous run of
 * instructions; invocation popularity is Zipf-skewed; within an
 * invocation, execution proceeds through basic blocks — mostly
 * sequential, with taken branches to other blocks of the same
 * function every several instructions and occasional short backward
 * loops — emitting one PC per call. The resulting sequential-fetch
 * rate (~85-95%) matches real integer code rather than pure
 * straight-line streaming.
 */
class CodeModel
{
  public:
    /**
     * @param code_base base of the text segment
     * @param num_funcs number of functions
     * @param min_instrs / @p max_instrs function length range
     * @param skew Zipf exponent over functions
     * @param loop_prob chance a function body re-runs a short loop
     * @param seed layout seed
     * @param branch_prob per-instruction chance of a taken branch to
     *        another basic block of the same function (0.12 gives an
     *        ~88% sequential-fetch rate, typical of integer code)
     */
    CodeModel(Addr code_base, unsigned num_funcs, unsigned min_instrs,
              unsigned max_instrs, double skew, double loop_prob,
              std::uint64_t seed, double branch_prob = 0.12);

    /** PC of the next executed instruction. */
    Addr nextPc(Random &rng);

    /** Total bytes of text the model spans. */
    std::uint64_t codeBytes() const { return codeBytes_; }

  private:
    struct Function
    {
        Addr base;
        unsigned numInstrs;
    };

    void enterFunction(Random &rng);

    std::vector<Function> funcs_;
    ZipfSampler zipf_;
    Bernoulli loop_;
    Bernoulli branch_;
    std::uint64_t codeBytes_;
    // Execution cursor.
    unsigned curFunc_ = 0;
    unsigned curInstr_ = 0;
    unsigned loopStart_ = 0;
    unsigned loopTripsLeft_ = 0;
    unsigned instrsLeft_ = 0; ///< budget for the current invocation
    bool inFunction_ = false;
};

/**
 * Shared skeleton of the synthetic workloads: a CodeModel for the
 * instruction stream and a weighted mixture of DataGenerators for
 * the data stream, with a fixed memory-operation rate and store
 * fraction. Subclasses just configure the pieces.
 */
class SyntheticWorkload : public TraceSource
{
  public:
    bool next(TraceRecord &rec) override;

    /**
     * Bulk generation: one virtual call fills @p n records (always
     * @p n — synthetic sources are unbounded). Draws from the same
     * RNG stream as next(), so the sequence is identical.
     */
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;

    /** Human-readable workload name ("gcc-like", ...). */
    const std::string &name() const { return name_; }

  protected:
    SyntheticWorkload(std::string name, std::uint64_t seed,
                      CodeModel code);

    /** Add a data generator with selection @p weight (relative). */
    void addData(DataGenerator gen, double weight);

    /** Set the fraction of instructions that are loads/stores. */
    void setMemOpRate(double rate) { memOp_ = Bernoulli(rate); }

    /** Set the fraction of memory operations that are stores. */
    void setStoreFrac(double frac) { store_ = Bernoulli(frac); }

    Random rng_;

  private:
    void generate(TraceRecord *out, std::size_t n);

    std::string name_;
    CodeModel code_;
    std::vector<DataGenerator> gens_;
    std::vector<double> weightCdf_;
    Bernoulli memOp_{0.35};
    Bernoulli store_{0.3};
};

} // namespace vmsim

#endif // VMSIM_TRACE_SYNTHETIC_COMPONENTS_HH
