/**
 * @file
 * Live sweep telemetry: a background thread that periodically snapshots
 * per-worker progress counters and publishes them as append-only JSONL
 * heartbeats (one object per tick, machine readable, safe to tail
 * while the sweep runs) and/or one-line stderr updates.
 *
 * The workers' side of the contract is three relaxed atomic stores:
 * beginCell() notes which cell a worker entered, the RunHooks progress
 * counter (progressCounter()) receives instructions-executed at the
 * simulator's existing cancel-poll boundaries, and endCell() folds the
 * finished cell into the done/failed totals. No locks are taken on the
 * simulation path, and a sweep without telemetry constructs none of
 * this — overhead when off is exactly zero.
 */

#ifndef VMSIM_OBS_TELEMETRY_HH
#define VMSIM_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/types.hh"

namespace vmsim
{

/** Where and how often SweepTelemetry publishes. */
struct TelemetryOptions
{
    /** Seconds between heartbeats. */
    double periodSeconds = 2.0;

    /** JSONL heartbeat stream, appended one object per tick; empty
     *  disables the stream. */
    std::string progressPath;

    /** Also print a one-line human-readable heartbeat to stderr. */
    bool toStderr = false;

    bool
    any() const
    {
        return toStderr || !progressPath.empty();
    }
};

/** One worker's live state inside a TelemetrySnapshot. */
struct WorkerSnapshot
{
    std::int64_t cell = -1; ///< linear cell index; -1 when idle
    Counter instrs = 0;     ///< instructions into the current cell
    double instrsPerSec = 0; ///< EWMA throughput of this worker
};

/**
 * A consistent view of sweep progress at one instant. Produced by
 * SweepTelemetry::snapshot(); also the unit the emitters serialize.
 */
struct TelemetrySnapshot
{
    double unixTime = 0;       ///< wall-clock seconds since the epoch
    double elapsedSeconds = 0; ///< since SweepTelemetry::start()
    std::uint64_t totalCells = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;  ///< retry attempts, not distinct cells
    std::uint64_t pending = 0;  ///< totalCells - done - failed
    Counter instrs = 0;         ///< retired + in-flight instructions
    double instrsPerSec = 0;    ///< EWMA aggregate throughput
    double etaSeconds = 0;      ///< 0 when no completion rate yet
    std::vector<WorkerSnapshot> workers;

    /** One heartbeat object (the JSONL record). */
    Json toJson() const;
};

/**
 * Background publisher of sweep progress. Construct with the grid size
 * and worker count, hand each worker its progressCounter(), bracket
 * every cell with beginCell()/endCell(), and start()/stop() around the
 * sweep. Thread-safe; all worker-facing calls are wait-free.
 */
class SweepTelemetry
{
  public:
    SweepTelemetry(const TelemetryOptions &opts, std::uint64_t total_cells,
                   unsigned workers);
    ~SweepTelemetry();

    SweepTelemetry(const SweepTelemetry &) = delete;
    SweepTelemetry &operator=(const SweepTelemetry &) = delete;

    bool enabled() const { return opts_.any(); }

    /** Launch the emitter thread (no-op when no outputs configured). */
    void start();

    /**
     * Emit one final heartbeat and join the thread. The
     * final JSONL record therefore reflects the completed sweep:
     * done + failed == totalCells. Idempotent.
     */
    void stop();

    /** Cells already satisfied by a resume journal count as done. */
    void preloadDone(std::uint64_t n);

    /** Worker @p w is starting linear cell @p cell. */
    void beginCell(unsigned w, std::uint64_t cell);

    /**
     * The counter the simulator publishes instructions-executed into
     * for worker @p w (see RunHooks::progress). Stable address for the
     * telemetry's lifetime.
     */
    std::atomic<Counter> *progressCounter(unsigned w);

    /** Worker @p w finished its cell; @p ok false counts it failed. */
    void endCell(unsigned w, bool ok);

    /** A cell attempt failed and is being retried. */
    void noteRetry(unsigned w);

    /** Consistent snapshot of the current progress (any thread). */
    TelemetrySnapshot snapshot();

    std::uint64_t cellsDone() const { return done_.load(); }
    std::uint64_t cellsFailed() const { return failed_.load(); }

  private:
    /** Per-worker slots, padded so workers never share a cache line. */
    struct alignas(64) WorkerSlot
    {
        std::atomic<std::int64_t> cell{-1};
        std::atomic<Counter> instrs{0};  ///< in-flight, current cell
        std::atomic<Counter> retired{0}; ///< from completed cells
    };

    void emitterLoop();
    void emit(TelemetrySnapshot &snap);

    TelemetryOptions opts_;
    std::uint64_t totalCells_;
    unsigned workers_;
    std::unique_ptr<WorkerSlot[]> slots_;

    std::atomic<std::uint64_t> done_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> retried_{0};
    std::atomic<std::uint64_t> preloaded_{0};

    /** @name Emitter-thread state (EWMAs guarded by mu_). @{ */
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopRequested_ = false;
    bool running_ = false;
    std::thread thread_;
    std::ofstream jsonl_;
    std::chrono::steady_clock::time_point startTime_;
    std::chrono::steady_clock::time_point prevTime_;
    Counter prevInstrs_ = 0;
    double ewma_ = 0;
    bool ewmaPrimed_ = false;
    std::vector<Counter> prevWorkerInstrs_;
    std::vector<double> workerEwma_;
    /** @} */
};

} // namespace vmsim

#endif // VMSIM_OBS_TELEMETRY_HH
