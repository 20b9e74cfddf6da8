/**
 * @file
 * Signal-safe graceful shutdown for long-running sweeps.
 *
 * installShutdownHandler() arms SIGINT/SIGTERM with an async-signal-
 * safe handler that only sets an atomic flag. The sweep machinery
 * polls that flag (shutdownToken() plugs directly into the existing
 * cancel-poll sites), cancels in-flight cells, drains, flushes its
 * journal, and the process exits with kExitInterrupted — distinct
 * from both success (0) and failure (1) so restart loops and scripts
 * can tell "resumable, journal intact" from "broken".
 *
 * A second SIGINT/SIGTERM while shutdown is already pending restores
 * the default disposition and re-raises, so an impatient ^C^C still
 * kills the process immediately.
 */

#ifndef VMSIM_BASE_SIGNALS_HH
#define VMSIM_BASE_SIGNALS_HH

#include <atomic>

namespace vmsim
{

/**
 * Exit code for "interrupted by SIGINT/SIGTERM after a clean drain":
 * the journal is flushed and the run is resumable. 75 = EX_TEMPFAIL,
 * the sysexits convention for "transient failure, retry later".
 */
constexpr int kExitInterrupted = 75;

/**
 * Arm SIGINT and SIGTERM to request cooperative shutdown. Idempotent;
 * safe to call from any thread before workers start.
 */
void installShutdownHandler();

/** True once a shutdown signal arrived. */
bool shutdownRequested();

/** Which signal requested shutdown (0 when none yet). */
int shutdownSignal();

/**
 * The flag the handler sets — the same std::atomic<bool> the
 * simulation loops poll as RunHooks::cancel, so a SIGINT cancels
 * in-flight cells at the next poll boundary with zero extra plumbing.
 */
const std::atomic<bool> *shutdownToken();

/** Reset the flag (tests only; not async-signal-safe). */
void resetShutdownForTest();

} // namespace vmsim

#endif // VMSIM_BASE_SIGNALS_HH
