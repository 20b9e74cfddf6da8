/**
 * @file
 * Tests for the observability layer: event emission and its exact
 * reconciliation with the VM counters, interval sampling and its
 * reconstruction of the aggregate VMCPI, the JSONL / Chrome-trace
 * exporters (including JSON validity of the trace), and the
 * StatsRegistry / StatsSink aggregation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "check/invariants.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "counter_values.hh"
#include "obs/event.hh"
#include "obs/exporters.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "os/base_vm.hh"

namespace vmsim
{
namespace
{

/**
 * A minimal recursive-descent JSON validity checker — just enough to
 * assert that emitted Chrome traces and JSONL records parse, without
 * growing a parser dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** A small but eventful configuration: ULTRIX with context switches. */
SimConfig
ultrixConfig()
{
    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = CacheParams{4_KiB, 32};
    cfg.l2 = CacheParams{64_KiB, 64};
    cfg.ctxSwitchInterval = 20'000;
    return cfg;
}

constexpr Counter kInstrs = 100'000;

TEST(ObsEvent, KindNamesAreStableAndDistinct)
{
    std::vector<std::string> names;
    for (unsigned k = 0; k < kNumEventKinds; ++k)
        names.push_back(eventKindName(static_cast<EventKind>(k)));
    EXPECT_EQ(names.front(), "itlb_miss");
    EXPECT_EQ(names.back(), "eviction");
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ObsEvent, MultiSinkFansOutAndIgnoresNull)
{
    CollectingSink a, b;
    MultiSink multi;
    EXPECT_TRUE(multi.empty());
    multi.add(&a);
    multi.add(nullptr);
    multi.add(&b);
    EXPECT_FALSE(multi.empty());

    TraceEvent ev;
    ev.kind = EventKind::PteFetch;
    multi.event(ev);
    EXPECT_EQ(a.countOf(EventKind::PteFetch), 1u);
    EXPECT_EQ(b.countOf(EventKind::PteFetch), 1u);
}

/**
 * The headline acceptance test: every counter the VM system keeps has
 * a matching number of emitted events over the measured region.
 */
TEST(ObsReconcile, EventCountsMatchVmCounters)
{
    CollectingSink collected;
    std::ostringstream jsonl_out;
    JsonlEventWriter jsonl(jsonl_out);
    MultiSink sinks;
    sinks.add(&collected);
    sinks.add(&jsonl);

    RunHooks hooks;
    hooks.sink = &sinks;
    Results r = runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);
    const VmStats &vm = r.vmStats();

    // The run must actually exercise the machinery being reconciled.
    // (ULTRIX's nested path runs the *root* handler: the UPTE load's
    // own D-TLB miss is resolved from wired physical memory.)
    ASSERT_GT(vm.uhandlerCalls, 0u);
    ASSERT_GT(vm.rhandlerCalls, 0u);
    ASSERT_GT(vm.pteLoads, 0u);
    ASSERT_GT(vm.ctxSwitches, 0u);

    using K = EventKind;
    using L = EventLevel;
    EXPECT_EQ(collected.countOf(K::ItlbMiss), vm.itlbMisses);
    EXPECT_EQ(collected.countOf(K::DtlbMiss), vm.dtlbMisses);
    EXPECT_EQ(collected.countOf(K::Interrupt), vm.interrupts);
    EXPECT_EQ(collected.countOf(K::CtxSwitch), vm.ctxSwitches);
    EXPECT_EQ(collected.countOf(K::PteFetch), vm.pteLoads);
    EXPECT_EQ(collected.countOf(K::HandlerEnter, L::User),
              vm.uhandlerCalls);
    EXPECT_EQ(collected.countOf(K::HandlerEnter, L::Kernel),
              vm.khandlerCalls);
    EXPECT_EQ(collected.countOf(K::HandlerEnter, L::Root),
              vm.rhandlerCalls);
    EXPECT_EQ(collected.countOf(K::HandlerExit),
              vm.uhandlerCalls + vm.khandlerCalls + vm.rhandlerCalls);

    // The JSONL writer saw the identical stream, one line per event.
    EXPECT_EQ(jsonl.eventsWritten(), collected.events().size());
    std::istringstream lines(jsonl_out.str());
    std::string line;
    Counter n_lines = 0;
    while (std::getline(lines, line)) {
        ++n_lines;
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
    }
    EXPECT_EQ(n_lines, jsonl.eventsWritten());
}

TEST(ObsReconcile, WarmupEventsAreNotReported)
{
    CollectingSink collected;
    RunHooks hooks;
    hooks.sink = &collected;
    // Heavy warmup, tiny measured region: if warmup leaked events the
    // counts could not match the (post-warmup-reset) counters.
    Results r = runOnce(ultrixConfig(), "gcc", 10'000, 100'000, hooks);
    EXPECT_EQ(collected.countOf(EventKind::ItlbMiss),
              r.vmStats().itlbMisses);
    EXPECT_EQ(collected.countOf(EventKind::PteFetch),
              r.vmStats().pteLoads);
}

TEST(ObsInterval, SeriesReconstructsAggregateVmcpi)
{
    IntervalSampler sampler(10'000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    Results r = runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);

    ASSERT_EQ(sampler.intervals().size(), kInstrs / 10'000);
    Counter covered = 0;
    for (const IntervalRecord &iv : sampler.intervals()) {
        covered += iv.instrs();
        EXPECT_EQ(iv.results.userInstrs(), iv.instrs());
    }
    EXPECT_EQ(covered, kInstrs);

    auto vmcpi = [](const Results &res) { return res.vmcpi(); };
    auto mcpi = [](const Results &res) { return res.mcpi(); };
    auto icpi = [](const Results &res) { return res.interruptCpi(); };
    EXPECT_NEAR(sampler.weightedMetric(vmcpi), r.vmcpi(), 1e-9);
    EXPECT_NEAR(sampler.weightedMetric(mcpi), r.mcpi(), 1e-9);
    EXPECT_NEAR(sampler.weightedMetric(icpi), r.interruptCpi(), 1e-9);
}

TEST(ObsInterval, PartialTailIntervalIsClosedByFinish)
{
    IntervalSampler sampler(30'000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);
    // 100k instructions over 30k intervals: 3 full + 1 partial of 10k.
    ASSERT_EQ(sampler.intervals().size(), 4u);
    EXPECT_EQ(sampler.intervals().back().instrs(), 10'000u);
}

/** A BaseVm whose counters a test sets directly. */
struct CounterVm : BaseVm
{
    using BaseVm::BaseVm;
    VmStats &stats() { return stats_; }
};

TEST(ObsInterval, DeltaIsFieldByFieldSubtraction)
{
    MemSystem mem(CacheParams{16_KiB, 32}, CacheParams{1_MiB, 64});
    CounterVm vm(mem);
    const VmStats prev = distinctVmStats();
    VmStats cur = prev;
    Counter step = 1;
    for (const VmStatsField &f : kVmStatsFields)
        cur.*f.field += 100 * step++;
    for (CoreStats &cs : cur.perCore)
        for (const CoreStatsField &f : kCoreStatsFields)
            cs.*f.field += 7 * step++;

    IntervalSampler sampler(1000);
    sampler.configure(CostModel{}, "TEST", "hand");
    vm.stats() = prev;
    sampler.tick(0, vm);
    vm.stats() = cur;
    sampler.finish(500, vm);
    ASSERT_EQ(sampler.intervals().size(), 1u);
    const VmStats &d = sampler.intervals()[0].results.vmStats();
    for (const VmStatsField &f : kVmStatsFields)
        EXPECT_EQ(d.*f.field, cur.*f.field - prev.*f.field) << f.key;
    ASSERT_EQ(d.perCore.size(), cur.perCore.size());
    for (std::size_t c = 0; c < cur.perCore.size(); ++c)
        for (const CoreStatsField &f : kCoreStatsFields)
            EXPECT_EQ(d.perCore[c].*f.field,
                      cur.perCore[c].*f.field - prev.perCore[c].*f.field)
                << "core " << c << " " << f.key;
}

TEST(ObsInterval, CsvHasHeaderAndOneRowPerInterval)
{
    IntervalSampler sampler(25'000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);

    std::ostringstream out;
    sampler.writeCsv(out);
    std::istringstream lines(out.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header.rfind("start,end,instrs,", 0), 0u);
    EXPECT_NE(header.find("vmcpi"), std::string::npos);
    EXPECT_NE(header.find("pte_loads"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, sampler.intervals().size());
}

TEST(ObsInterval, SummaryAndJson)
{
    IntervalSampler sampler(20'000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);

    IntervalSummary s = summarizeIntervals(sampler.intervals());
    EXPECT_EQ(s.intervals, sampler.intervals().size());
    EXPECT_LE(s.minVmcpi, s.meanVmcpi);
    EXPECT_GE(s.maxVmcpi, s.meanVmcpi);

    Json j = intervalsToJson(sampler.intervals());
    EXPECT_TRUE(JsonChecker(j.dump()).valid());
}

TEST(ObsInterval, ZeroIntervalIsFatal)
{
    EXPECT_THROW(IntervalSampler(0), FatalError);
}

/**
 * Regression for the multicore stamp interaction: the quantum
 * scheduler rotates cores every 1K instructions, so a sampler fed
 * core-local instruction counts would see its timebase jump backward
 * at every rotation and close ragged (or no) intervals. On the global
 * timebase — which the multicore loops must use for setCurrentInstr
 * and tick alike, warmup included — the partition is exact and the
 * series still reconstructs the aggregate metrics.
 */
TEST(ObsInterval, MulticorePartitionsOnGlobalTimebase)
{
    SimConfig cfg = ultrixConfig();
    cfg.cores = 4;
    cfg.coreQuantum = 1'000;
    IntervalSampler sampler(10'000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    Results r = runOnce(cfg, "gcc", kInstrs, 25'000, hooks);

    ASSERT_EQ(sampler.intervals().size(), kInstrs / 10'000);
    Counter covered = 0;
    for (const IntervalRecord &iv : sampler.intervals()) {
        EXPECT_EQ(iv.instrs(), 10'000u);
        covered += iv.instrs();
    }
    EXPECT_EQ(covered, kInstrs);

    auto vmcpi = [](const Results &res) { return res.vmcpi(); };
    auto total = [](const Results &res) { return res.totalCpi(); };
    EXPECT_NEAR(sampler.weightedMetric(vmcpi), r.vmcpi(), 1e-9);
    // totalCpi includes the shootdown component, so this also checks
    // that the per-interval VmStats deltas carry the new counters.
    EXPECT_NEAR(sampler.weightedMetric(total), r.totalCpi(), 1e-9);
    EXPECT_GT(r.vmStats().shootdownCycles, 0u);
}

TEST(ObsChromeTrace, TracedRunEmitsValidJson)
{
    std::ostringstream out;
    {
        ChromeTraceWriter chrome(out);
        RunHooks hooks;
        hooks.sink = &chrome;
        runOnce(ultrixConfig(), "gcc", 20'000, 0, hooks);
        chrome.durationEvent("cell 0", "sweep-cell", 0.0, 1500.0,
                             ChromeTraceWriter::kWallPid, 0,
                             {{"workload", "gcc"}});
        chrome.finish();
        chrome.finish(); // idempotent
    }
    const std::string text = out.str();
    EXPECT_TRUE(JsonChecker(text).valid());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("user-handler"), std::string::npos);
    EXPECT_NE(text.find("sweep-cell"), std::string::npos);
    // B/E slices must balance or the viewer shows dangling spans.
    std::size_t begins = 0, ends = 0, pos = 0;
    while ((pos = text.find("\"ph\":\"B\"", pos)) != std::string::npos) {
        ++begins;
        pos += 8;
    }
    pos = 0;
    while ((pos = text.find("\"ph\":\"E\"", pos)) != std::string::npos) {
        ++ends;
        pos += 8;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

TEST(ObsChromeTrace, EscapesNamesInDurationEvents)
{
    std::ostringstream out;
    {
        ChromeTraceWriter chrome(out);
        chrome.durationEvent("quote\"back\\slash", "cat", 0, 1,
                             ChromeTraceWriter::kWallPid, 0);
        chrome.finish();
    }
    EXPECT_TRUE(JsonChecker(out.str()).valid());
}

TEST(ObsStatsRegistry, LookupReturnsSameInstanceAndDumpsInOrder)
{
    StatsRegistry registry;
    EXPECT_TRUE(registry.empty());
    CounterGroup &g1 = registry.counterGroup("zeta");
    CounterGroup &g2 = registry.counterGroup("alpha");
    EXPECT_EQ(&g1, &registry.counterGroup("zeta"));
    g1.add("x", 3);
    g2.add("y");
    registry.distribution("d").sample(2.0);
    registry.histogram("h", 0, 10, 5).sample(4.0);
    EXPECT_FALSE(registry.empty());

    std::string dump = registry.toJson().dump();
    EXPECT_TRUE(JsonChecker(dump).valid());
    // Registration order, not alphabetical.
    EXPECT_LT(dump.find("zeta"), dump.find("alpha"));

    registry.reset();
    EXPECT_EQ(registry.counterGroup("zeta").get("x"), 0u);
    EXPECT_EQ(registry.distribution("d").count(), 0u);
    EXPECT_EQ(registry.histogram("h", 0, 10, 5).count(), 0u);
}

TEST(ObsStatsRegistry, HistogramGeometryConflictWarnsAndKeepsFirst)
{
    StatsRegistry registry;
    Histogram &h = registry.histogram("g", 0.0, 10.0, 5);
    h.sample(1.0);
    // A later lookup with a different geometry warns and returns the
    // original histogram untouched.
    setQuiet(true);
    Histogram &again = registry.histogram("g", 0.0, 99.0, 7);
    setQuiet(false);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.numBuckets(), 5u);
    EXPECT_EQ(again.count(), 1u);

    // Prototype overload adopts log spacing.
    Histogram &lg =
        registry.histogram("lg", LatencyCollector::cycleHistogram());
    EXPECT_TRUE(lg.isLog());
}

TEST(ObsCollectingSink, CapsBufferAndCountsDropped)
{
    CollectingSink sink(3);
    TraceEvent ev;
    setQuiet(true); // swallow the one capacity warning
    for (int i = 0; i < 5; ++i)
        sink.event(ev);
    setQuiet(false);
    EXPECT_EQ(sink.events().size(), 3u);
    EXPECT_EQ(sink.droppedEvents(), 2u);
    EXPECT_EQ(sink.capacity(), 3u);
    sink.clear();
    EXPECT_EQ(sink.droppedEvents(), 0u);
    sink.event(ev);
    EXPECT_EQ(sink.events().size(), 1u);
}

TEST(ObsLatency, HistogramsReconcileWithCounters)
{
    LatencyCollector lat;
    RunHooks hooks;
    hooks.latency = &lat;
    Results r = runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);
    const VmStats &vm = r.vmStats();
    EXPECT_GT(vm.itlbMisses + vm.dtlbMisses, 0u);
    EXPECT_EQ(lat.mergedMissService().count(),
              vm.itlbMisses + vm.dtlbMisses);
    EXPECT_EQ(lat.mergedHwWalk().count(), vm.hwWalks);

    InvariantChecker checker(ultrixConfig());
    CheckReport rep = checker.checkAll(r, nullptr, nullptr, &lat);
    EXPECT_TRUE(rep.ok()) << rep.toString();

    StatsRegistry registry;
    exportLatency(lat, registry);
    std::string dump = registry.toJson().dump();
    EXPECT_TRUE(JsonChecker(dump).valid());
    EXPECT_NE(dump.find("latency.miss_service"), std::string::npos);
    EXPECT_NE(dump.find("tlb.itlb_lifetime"), std::string::npos);
}

TEST(ObsTelemetry, AccountingHeartbeatAndChecker)
{
    TelemetryOptions opts;
    opts.periodSeconds = 60.0; // only the final heartbeat will fire
    opts.progressPath = testing::TempDir() + "telemetry_progress.jsonl";
    std::remove(opts.progressPath.c_str());

    SweepTelemetry tel(opts, 3, 2);
    EXPECT_TRUE(tel.enabled());
    tel.preloadDone(1); // one cell restored from a resume journal
    tel.start();

    tel.beginCell(0, 1);
    std::atomic<Counter> *prog = tel.progressCounter(0);
    ASSERT_NE(prog, nullptr);
    prog->store(500);

    TelemetrySnapshot snap = tel.snapshot();
    EXPECT_EQ(snap.totalCells, 3u);
    EXPECT_EQ(snap.done, 1u);
    EXPECT_EQ(snap.pending, 2u);
    ASSERT_EQ(snap.workers.size(), 2u);
    EXPECT_EQ(snap.workers[0].cell, 1);
    EXPECT_EQ(snap.workers[0].instrs, 500u);
    EXPECT_EQ(snap.workers[1].cell, -1);
    CheckReport rep;
    checkTelemetry(snap, false, rep);
    EXPECT_TRUE(rep.ok()) << rep.toString();

    tel.endCell(0, true);
    tel.beginCell(1, 2);
    tel.noteRetry(1);
    tel.endCell(1, false);
    tel.stop();

    TelemetrySnapshot fin = tel.snapshot();
    EXPECT_EQ(fin.done, 2u);
    EXPECT_EQ(fin.failed, 1u);
    EXPECT_EQ(fin.retried, 1u);
    EXPECT_EQ(fin.pending, 0u);
    CheckReport frep;
    checkTelemetry(fin, true, frep);
    EXPECT_TRUE(frep.ok()) << frep.toString();
    EXPECT_EQ(tel.cellsDone(), 2u);
    EXPECT_EQ(tel.cellsFailed(), 1u);

    // Final heartbeat: one valid JSON object per line in the JSONL.
    std::ifstream in(opts.progressPath);
    ASSERT_TRUE(in.is_open());
    std::string line, last;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
        last = line;
        ++lines;
    }
    EXPECT_GE(lines, 1u);
    EXPECT_NE(last.find("\"pending\":0"), std::string::npos) << last;
}

TEST(ObsStatsSink, AggregatesEventStream)
{
    StatsRegistry registry;
    StatsSink sink(registry);
    RunHooks hooks;
    hooks.sink = &sink;
    Results r = runOnce(ultrixConfig(), "gcc", kInstrs, 0, hooks);
    const VmStats &vm = r.vmStats();

    const CounterGroup &events = registry.counterGroup("events");
    EXPECT_EQ(events.get("itlb_miss"), vm.itlbMisses);
    EXPECT_EQ(events.get("pte_fetch"), vm.pteLoads);
    EXPECT_EQ(events.get("ctx_switch"), vm.ctxSwitches);

    const CounterGroup &levels = registry.counterGroup("pte_fetch_levels");
    Counter by_level = levels.get("user") + levels.get("kernel") +
                       levels.get("root");
    EXPECT_EQ(by_level, vm.pteLoads);

    EXPECT_EQ(registry.distribution("handler_episodes").count(),
              vm.uhandlerCalls + vm.khandlerCalls + vm.rhandlerCalls);
}

TEST(ObsSweep, RunnerRecordsTimingsAndWritesArtifacts)
{
    SweepSpec spec;
    spec.systems({SystemKind::Ultrix, SystemKind::Mach})
        .workloads({"gcc"})
        .instructions(20'000)
        .warmup(Counter{0});

    ObsOptions obs;
    obs.interval = 5'000;
    obs.statsJson = testing::TempDir() + "obs_sweep_stats.json";
    obs.chromeTrace = testing::TempDir() + "obs_sweep_trace.json";

    SweepRunner runner(2);
    runner.observe(obs);
    SweepResults res = runner.run(spec);

    ASSERT_EQ(res.timings().size(), res.size());
    for (const CellTiming &t : res.timings()) {
        EXPECT_GT(t.wallSeconds, 0.0);
        EXPECT_GT(t.instrsPerSec, 0.0);
        EXPECT_LT(t.worker, 2u);
    }

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        EXPECT_TRUE(in.is_open()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string stats = slurp(obs.statsJson);
    EXPECT_TRUE(JsonChecker(stats).valid());
    EXPECT_NE(stats.find("sweep.wall_seconds"), std::string::npos);
    EXPECT_NE(stats.find("interval_summary"), std::string::npos);

    std::string trace = slurp(obs.chromeTrace);
    EXPECT_TRUE(JsonChecker(trace).valid());
    EXPECT_NE(trace.find("sweep-cell"), std::string::npos);
}

TEST(ObsOptions, ParseAndDefaults)
{
    ObsOptions none;
    EXPECT_FALSE(none.any());

    const char *argv[] = {"bench", "--trace-events=ev.jsonl",
                          "--chrome-trace=tr.json",
                          "--stats-json=st.json", "--interval=1000"};
    BenchOptions opts =
        BenchOptions::parse(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.obs.any());
    EXPECT_EQ(opts.obs.traceEvents, "ev.jsonl");
    EXPECT_EQ(opts.obs.chromeTrace, "tr.json");
    EXPECT_EQ(opts.obs.statsJson, "st.json");
    EXPECT_EQ(opts.obs.interval, 1000u);
}

} // anonymous namespace
} // namespace vmsim
