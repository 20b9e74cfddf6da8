/**
 * @file
 * Minimal POSIX subprocess helpers for the process-level crash fuzzer:
 * fork a callable (fork, run, _exit) and wait for it to exit.
 * ExitStatus distinguishes "exited with code N" from "killed by
 * signal S", which is the whole point: a SIGKILLed shard worker and
 * one that exited kExitInterrupted are different outcomes.
 */

#ifndef VMSIM_BASE_SUBPROCESS_HH
#define VMSIM_BASE_SUBPROCESS_HH

#include <functional>
#include <string>

#include <sys/types.h>

#include "base/error.hh"

namespace vmsim
{

/** How a child ended. */
struct ExitStatus
{
    bool exited = false;   ///< ended via exit()/_exit()
    int exitCode = 0;      ///< valid when exited
    bool signaled = false; ///< killed by a signal
    int signal = 0;        ///< valid when signaled

    /** "exit 0" / "signal 9 (SIGKILL)" style rendering. */
    std::string toString() const;
};

/**
 * fork and run @p fn in the child, then _exit with its return value.
 * An exception escaping @p fn prints and _exits 125. The child shares
 * nothing with the parent beyond the fork snapshot — the crash fuzzer
 * uses this to run shard workers in-process-image without an exec.
 */
Expected<pid_t> spawnFunction(const std::function<int()> &fn);

/**
 * Blocking waitpid for @p pid. EINTR is retried; a vanished child
 * (ECHILD) is an Error.
 */
Expected<ExitStatus> waitProcess(pid_t pid);

} // namespace vmsim

#endif // VMSIM_BASE_SUBPROCESS_HH
