#include "trace/synthetic/components.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/logging.hh"

namespace vmsim
{

namespace
{

/** @p region, once a StackModel frame of @p frame_bytes is known to fit. */
Region
stackRegion(Region region, unsigned frame_bytes)
{
    fatalIf(frame_bytes < 4, "stack frame size must be >= 4");
    fatalIf(region.size < 2 * std::uint64_t{frame_bytes},
            "stack region too small for its frame size");
    return region;
}

/** @p region, once it is known to hold records of @p record_bytes. */
Region
recordRegion(Region region, unsigned record_bytes)
{
    fatalIf(record_bytes < 4, "record size must be >= 4");
    fatalIf(region.size < record_bytes, "region smaller than one record");
    return region;
}

} // anonymous namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : scale_(static_cast<double>(n))
{
    fatalIf(n == 0, "ZipfSampler over zero items");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;
    cdf_.back() = 1.0; // guard against fp residue

    // Guide entry b is the lower bound of the smallest double in bucket
    // b. bucket() and the lower bound are both monotone in u, so the
    // entry is <= the answer for every u in the bucket, and lookup()'s
    // scan from it lands on exactly std::lower_bound's index. Those
    // smallest doubles ascend with b, so one cursor that only moves
    // forward finds every lower bound: n + n steps in all.
    guide_.resize(n);
    std::uint64_t at = 0;
    for (std::uint64_t b = 0; b < n; ++b) {
        double u = static_cast<double>(b) / scale_;
        while (u > 0.0 && bucket(std::nextafter(u, 0.0)) >= b)
            u = std::nextafter(u, 0.0);
        while (bucket(u) < b)
            u = std::nextafter(u, 1.0);
        while (cdf_[at] < u)
            ++at;
        guide_[b] = static_cast<std::uint32_t>(at);
    }
}

StreamWalker::StreamWalker(Region region, unsigned stride)
    : region_(region), stride_(stride)
{
    fatalIf(region.size == 0, "StreamWalker over empty region");
    fatalIf(stride == 0, "StreamWalker stride must be nonzero");
}

Addr
StreamWalker::nextAddr(Random &)
{
    Addr a = region_.base + offset_;
    offset_ += stride_;
    if (offset_ >= region_.size)
        offset_ = 0;
    return a;
}

PointerChase::PointerChase(Region region, std::uint64_t num_nodes,
                           unsigned node_size, std::uint64_t seed)
    : region_(region), nodeSize_(node_size)
{
    fatalIf(num_nodes < 2, "PointerChase needs at least two nodes");
    fatalIf(node_size < 4, "PointerChase node size must be >= 4");
    fatalIf(num_nodes * node_size > region.size,
            "PointerChase: ", num_nodes, " nodes of ", node_size,
            "B exceed region of ", region.size, "B");

    // Build one full cycle through a random permutation so every node
    // is visited exactly once per lap (a random *permutation cycle*,
    // not random jumps — matching real linked-list traversals).
    std::vector<std::uint32_t> order(num_nodes);
    std::iota(order.begin(), order.end(), 0);
    Random perm_rng(seed);
    for (std::uint64_t i = num_nodes - 1; i > 0; --i) {
        std::uint64_t j = perm_rng.uniform(i + 1);
        std::swap(order[i], order[j]);
    }
    nextIdx_.resize(num_nodes);
    for (std::uint64_t i = 0; i < num_nodes; ++i)
        nextIdx_[order[i]] = order[(i + 1) % num_nodes];
    cur_ = order[0];
}

Addr
PointerChase::nextAddr(Random &)
{
    Addr a = region_.base + static_cast<std::uint64_t>(cur_) * nodeSize_;
    cur_ = nextIdx_[cur_];
    return a;
}

StackModel::StackModel(Region region, unsigned frame_bytes,
                       double move_prob)
    : region_(stackRegion(region, frame_bytes)), frameBytes_(frame_bytes),
      move_(move_prob),
      // Stacks grow down; start in the middle so both directions have
      // headroom.
      top_(region.base + region.size / 2)
{}

Addr
StackModel::nextAddr(Random &rng)
{
    if (rng.chance(move_)) {
        // Push or pop one frame, staying inside the region.
        if (rng.chance(0.5)) {
            if (top_ >= region_.base + frameBytes_)
                top_ -= frameBytes_;
        } else {
            if (top_ + 2 * frameBytes_ <= region_.end())
                top_ += frameBytes_;
        }
    }
    // Touch a word within the current frame.
    std::uint64_t off = rng.uniform(frameBytes_ / 4) * 4;
    return top_ + off;
}

ZipfRegionAccess::ZipfRegionAccess(Region region, unsigned record_bytes,
                                   double skew, unsigned run_len,
                                   std::uint64_t seed, bool scatter)
    : region_(recordRegion(region, record_bytes)),
      recordBytes_(record_bytes), runLen_(run_len ? run_len : 1),
      zipf_(region.size / record_bytes, skew)
{
    if (scatter) {
        // Map popularity rank -> record slot through a shuffle so hot
        // records land on scattered pages rather than clustering.
        std::uint64_t n = region.size / record_bytes;
        shuffle_.resize(n);
        std::iota(shuffle_.begin(), shuffle_.end(), 0);
        Random perm_rng(seed);
        for (std::uint64_t i = n - 1; i > 0; --i) {
            std::uint64_t j = perm_rng.uniform(i + 1);
            std::swap(shuffle_[i], shuffle_[j]);
        }
    }
}

Addr
ZipfRegionAccess::nextAddr(Random &rng)
{
    if (runLeft_ > 0) {
        --runLeft_;
        runAddr_ += 4;
        return runAddr_;
    }
    std::uint64_t rank = zipf_.sample(rng);
    std::uint64_t slot = shuffle_.empty() ? rank : shuffle_[rank];
    runAddr_ = region_.base + slot * recordBytes_;
    // Short spatial run within the record, at least one access.
    runLeft_ = static_cast<unsigned>(rng.uniform(runLen_));
    std::uint64_t max_words = recordBytes_ / 4;
    if (runLeft_ >= max_words)
        runLeft_ = static_cast<unsigned>(max_words) - 1;
    return runAddr_;
}

UniformAccess::UniformAccess(Region region) : region_(region)
{
    fatalIf(region.size < 4, "UniformAccess region too small");
}

Addr
UniformAccess::nextAddr(Random &rng)
{
    return region_.base + rng.uniform(region_.size / 4) * 4;
}

CodeModel::CodeModel(Addr code_base, unsigned num_funcs,
                     unsigned min_instrs, unsigned max_instrs, double skew,
                     double loop_prob, std::uint64_t seed,
                     double branch_prob)
    : zipf_(num_funcs, skew), loop_(loop_prob), branch_(branch_prob)
{
    fatalIf(num_funcs == 0, "CodeModel needs at least one function");
    fatalIf(min_instrs == 0 || max_instrs < min_instrs,
            "bad function length range [", min_instrs, ", ", max_instrs,
            "]");
    Random layout_rng(seed);
    Addr cursor = code_base;
    funcs_.reserve(num_funcs);
    for (unsigned f = 0; f < num_funcs; ++f) {
        unsigned len = static_cast<unsigned>(
            layout_rng.uniformRange(min_instrs, max_instrs));
        funcs_.push_back(Function{cursor, len});
        cursor += std::uint64_t{len} * 4;
    }
    codeBytes_ = cursor - code_base;
}

void
CodeModel::enterFunction(Random &rng)
{
    curFunc_ = static_cast<unsigned>(zipf_.sample(rng));
    curInstr_ = 0;
    loopTripsLeft_ = 0;
    // The invocation retires about one function-length's worth of
    // instructions regardless of the control-flow path taken.
    instrsLeft_ = funcs_[curFunc_].numInstrs;
    inFunction_ = true;
}

Addr
CodeModel::nextPc(Random &rng)
{
    if (!inFunction_)
        enterFunction(rng);

    const Function &fn = funcs_[curFunc_];
    Addr pc = fn.base + std::uint64_t{curInstr_} * 4;

    --instrsLeft_;
    ++curInstr_;

    if (instrsLeft_ == 0 || curInstr_ >= fn.numInstrs) {
        if (loopTripsLeft_ > 0 && instrsLeft_ > 0) {
            // Re-run the tail loop.
            --loopTripsLeft_;
            curInstr_ = loopStart_;
        } else if (instrsLeft_ > 0 && rng.chance(loop_) &&
                   fn.numInstrs > 8) {
            // Start a short backward loop over the function tail.
            loopStart_ = fn.numInstrs -
                         static_cast<unsigned>(
                             rng.uniformRange(4, fn.numInstrs / 2));
            loopTripsLeft_ =
                static_cast<unsigned>(rng.uniformRange(1, 16));
            curInstr_ = loopStart_;
        } else {
            inFunction_ = false; // return; next call picks a function
        }
    } else if (rng.chance(branch_)) {
        // Taken branch to another basic block of this function.
        curInstr_ = static_cast<unsigned>(rng.uniform(fn.numInstrs));
    }
    return pc;
}

SyntheticWorkload::SyntheticWorkload(std::string name, std::uint64_t seed,
                                     CodeModel code)
    : rng_(seed), name_(std::move(name)), code_(std::move(code))
{}

void
SyntheticWorkload::addData(DataGenerator gen, double weight)
{
    fatalIf(!(weight > 0), "data generator weight must be positive");
    double prev = weightCdf_.empty() ? 0.0 : weightCdf_.back();
    gens_.push_back(std::move(gen));
    weightCdf_.push_back(prev + weight);
}

// Flattened so that the code model, every generator and every draw
// inline here; the RNG state, copied to a local, then stays in
// registers for the batch instead of round-tripping through memory.
[[gnu::flatten]] void
SyntheticWorkload::generate(TraceRecord *out, std::size_t n)
{
    Random rng = rng_;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &rec = out[i];
        rec.pc = static_cast<std::uint32_t>(code_.nextPc(rng));
        if (gens_.empty() || !rng.chance(memOp_)) {
            rec.daddr = 0;
            rec.op = MemOp::None;
            continue;
        }
        // Pick a generator by weight: as the CDF never decreases, the
        // count of bounds <= u is the first bound above u, branch-free.
        const double u = rng.uniformReal() * weightCdf_.back();
        std::size_t g = 0;
        for (std::size_t j = 0; j + 1 < weightCdf_.size(); ++j)
            g += u >= weightCdf_[j];
        rec.daddr = static_cast<std::uint32_t>(std::visit(
            [&rng](auto &gen) { return gen.nextAddr(rng); }, gens_[g]));
        rec.op = rng.chance(store_) ? MemOp::Store : MemOp::Load;
    }
    rng_ = rng;
}

bool
SyntheticWorkload::next(TraceRecord &rec)
{
    generate(&rec, 1);
    return true;
}

std::size_t
SyntheticWorkload::nextBatch(TraceRecord *out, std::size_t n)
{
    generate(out, n);
    return n;
}

} // namespace vmsim
