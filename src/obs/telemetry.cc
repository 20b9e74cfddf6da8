#include "obs/telemetry.hh"

#include <cstdio>

#include "base/logging.hh"

namespace vmsim
{

namespace
{

/** Smoothing factor for the throughput EWMAs (per tick). */
constexpr double kEwmaAlpha = 0.3;

} // anonymous namespace

Json
TelemetrySnapshot::toJson() const
{
    Json j = Json::object();
    j.set("ts", unixTime);
    j.set("elapsed_s", elapsedSeconds);
    j.set("cells_total", totalCells);
    j.set("done", done);
    j.set("failed", failed);
    j.set("retried", retried);
    j.set("pending", pending);
    j.set("instrs", instrs);
    j.set("instrs_per_sec", instrsPerSec);
    j.set("eta_s", etaSeconds);
    Json ws = Json::array();
    for (const WorkerSnapshot &w : workers) {
        Json wj = Json::object();
        wj.set("cell", std::int64_t{w.cell});
        wj.set("instrs", w.instrs);
        wj.set("instrs_per_sec", w.instrsPerSec);
        ws.push(std::move(wj));
    }
    j.set("workers", std::move(ws));
    return j;
}

SweepTelemetry::SweepTelemetry(const TelemetryOptions &opts,
                               std::uint64_t total_cells, unsigned workers)
    : opts_(opts), totalCells_(total_cells),
      workers_(workers ? workers : 1),
      slots_(std::make_unique<WorkerSlot[]>(workers_)),
      prevWorkerInstrs_(workers_, 0), workerEwma_(workers_, 0.0)
{
    fatalIf(opts_.periodSeconds <= 0,
            "telemetry period must be positive (got ",
            opts_.periodSeconds, ")");
}

SweepTelemetry::~SweepTelemetry()
{
    stop();
}

void
SweepTelemetry::start()
{
    if (!enabled() || running_)
        return;
    if (!opts_.progressPath.empty()) {
        jsonl_.open(opts_.progressPath, std::ios::app);
        if (!jsonl_)
            warn("telemetry: cannot open progress file '",
                 opts_.progressPath, "'; heartbeats disabled");
    }
    startTime_ = prevTime_ = std::chrono::steady_clock::now();
    prevInstrs_ = 0;
    ewma_ = 0;
    ewmaPrimed_ = false;
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread(&SweepTelemetry::emitterLoop, this);
}

void
SweepTelemetry::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopRequested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    // The closing heartbeat: emitted after every worker has finished,
    // so done + failed covers the whole grid.
    TelemetrySnapshot snap = snapshot();
    emit(snap);
    if (jsonl_.is_open())
        jsonl_.close();
    running_ = false;
}

void
SweepTelemetry::preloadDone(std::uint64_t n)
{
    done_.fetch_add(n, std::memory_order_relaxed);
    preloaded_.fetch_add(n, std::memory_order_relaxed);
}

void
SweepTelemetry::beginCell(unsigned w, std::uint64_t cell)
{
    WorkerSlot &s = slots_[w < workers_ ? w : workers_ - 1];
    s.instrs.store(0, std::memory_order_relaxed);
    s.cell.store(static_cast<std::int64_t>(cell),
                 std::memory_order_relaxed);
}

std::atomic<Counter> *
SweepTelemetry::progressCounter(unsigned w)
{
    return &slots_[w < workers_ ? w : workers_ - 1].instrs;
}

void
SweepTelemetry::endCell(unsigned w, bool ok)
{
    WorkerSlot &s = slots_[w < workers_ ? w : workers_ - 1];
    s.retired.fetch_add(s.instrs.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    s.instrs.store(0, std::memory_order_relaxed);
    s.cell.store(-1, std::memory_order_relaxed);
    if (ok)
        done_.fetch_add(1, std::memory_order_relaxed);
    else
        failed_.fetch_add(1, std::memory_order_relaxed);
}

void
SweepTelemetry::noteRetry(unsigned)
{
    retried_.fetch_add(1, std::memory_order_relaxed);
}

TelemetrySnapshot
SweepTelemetry::snapshot()
{
    std::lock_guard<std::mutex> lk(mu_);
    TelemetrySnapshot snap;
    const auto now = std::chrono::steady_clock::now();
    snap.unixTime = std::chrono::duration<double>(
                        std::chrono::system_clock::now()
                            .time_since_epoch())
                        .count();
    snap.elapsedSeconds =
        std::chrono::duration<double>(now - startTime_).count();
    snap.totalCells = totalCells_;
    snap.done = done_.load(std::memory_order_relaxed);
    snap.failed = failed_.load(std::memory_order_relaxed);
    snap.retried = retried_.load(std::memory_order_relaxed);
    const std::uint64_t finished = snap.done + snap.failed;
    snap.pending = totalCells_ > finished ? totalCells_ - finished : 0;

    snap.workers.resize(workers_);
    Counter total = 0;
    for (unsigned w = 0; w < workers_; ++w) {
        WorkerSlot &s = slots_[w];
        snap.workers[w].cell = s.cell.load(std::memory_order_relaxed);
        snap.workers[w].instrs =
            s.instrs.load(std::memory_order_relaxed);
        total += snap.workers[w].instrs +
                 s.retired.load(std::memory_order_relaxed);
    }
    snap.instrs = total;

    // Advance the EWMAs over the interval since the last snapshot.
    const double dt =
        std::chrono::duration<double>(now - prevTime_).count();
    if (dt > 1e-6) {
        const double rate =
            static_cast<double>(total - prevInstrs_) / dt;
        ewma_ = ewmaPrimed_ ? kEwmaAlpha * rate + (1 - kEwmaAlpha) * ewma_
                            : rate;
        for (unsigned w = 0; w < workers_; ++w) {
            const Counter wi = snap.workers[w].instrs +
                               slots_[w].retired.load(
                                   std::memory_order_relaxed);
            const double wr =
                static_cast<double>(wi - prevWorkerInstrs_[w]) / dt;
            workerEwma_[w] = ewmaPrimed_
                                 ? kEwmaAlpha * wr +
                                       (1 - kEwmaAlpha) * workerEwma_[w]
                                 : wr;
            prevWorkerInstrs_[w] = wi;
        }
        ewmaPrimed_ = true;
        prevInstrs_ = total;
        prevTime_ = now;
    }
    snap.instrsPerSec = ewma_;
    for (unsigned w = 0; w < workers_; ++w)
        snap.workers[w].instrsPerSec = workerEwma_[w];

    // ETA from the measured cell-completion rate (journal-resumed
    // cells completed instantly and would skew it, so they're
    // excluded from the numerator).
    const std::uint64_t measured =
        finished - preloaded_.load(std::memory_order_relaxed);
    snap.etaSeconds =
        (measured > 0 && snap.elapsedSeconds > 0)
            ? static_cast<double>(snap.pending) * snap.elapsedSeconds /
                  static_cast<double>(measured)
            : 0.0;
    return snap;
}

void
SweepTelemetry::emitterLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    const auto period = std::chrono::duration<double>(opts_.periodSeconds);
    while (!stopRequested_) {
        cv_.wait_for(lk, period, [this] { return stopRequested_; });
        if (stopRequested_)
            break;
        lk.unlock();
        TelemetrySnapshot snap = snapshot();
        emit(snap);
        lk.lock();
    }
}

void
SweepTelemetry::emit(TelemetrySnapshot &snap)
{
    if (opts_.toStderr) {
        std::fprintf(stderr,
                     "sweep: %llu/%llu done, %llu failed, %llu pending "
                     "| %.3g Minstr/s | eta %.0fs\n",
                     static_cast<unsigned long long>(snap.done),
                     static_cast<unsigned long long>(snap.totalCells),
                     static_cast<unsigned long long>(snap.failed),
                     static_cast<unsigned long long>(snap.pending),
                     snap.instrsPerSec / 1e6, snap.etaSeconds);
    }
    if (jsonl_.is_open()) {
        jsonl_ << snap.toJson().dump() << '\n';
        jsonl_.flush();
    }
}

} // namespace vmsim
