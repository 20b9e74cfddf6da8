/**
 * @file
 * Durable file I/O helpers shared by every crash-tolerant artifact:
 *
 *  - atomicWriteFile(): write-to-temp + fsync + rename, so a reader
 *    (or a crash) never observes a torn file;
 *  - AppendLog: an O_APPEND line log whose append() writes each line
 *    with one write(2) call and (by default) fsyncs before returning,
 *    so a completed append survives power loss and a kill mid-append
 *    tears at most the final line;
 *  - fsync wrappers for FILE* streams and parent directories (a
 *    rename is only durable once the directory entry itself is
 *    synced).
 *
 * All functions report failures as structured Errors (base/error.hh);
 * none call fatal(). POSIX-only, like the rest of the process-level
 * robustness layer (see docs/robustness.md).
 */

#ifndef VMSIM_BASE_FSIO_HH
#define VMSIM_BASE_FSIO_HH

#include <cstdio>
#include <string>

#include "base/error.hh"

namespace vmsim
{

/** fsync the kernel buffers behind @p file (fflush first). */
Status fsyncStream(std::FILE *file, const std::string &path);

/**
 * fsync the directory containing @p path, making a completed rename
 * or O_CREAT durable. Failure to *open* the directory is reported;
 * filesystems that reject directory fsync (returning EINVAL) are
 * treated as success, matching fsync(2) guidance.
 */
Status fsyncParentDir(const std::string &path);

/**
 * Atomically and durably replace @p path with @p content: write to a
 * pid-unique "<path>.tmp.<pid>", fsync it, rename it over the
 * destination and fsync the directory. A crash at any point leaves
 * either the old complete file or the new complete file, never a mix;
 * concurrent writers race safely (the last rename wins with an intact
 * file).
 */
Status atomicWriteFile(const std::string &path, const std::string &content);

/**
 * Append-only line log with crash-safe framing. Each append() issues
 * exactly one write(2) of "line\n" on an O_APPEND descriptor — on a
 * local filesystem concurrent appenders never interleave within a
 * line — and fsyncs before returning unless the sync policy is off.
 *
 * This is the byte-level layer under the sweep and shard journals;
 * the CRC framing above it (crcFrameLine()/crcUnframeLine() in
 * base/crc.hh) is what turns "at most one torn tail line" into
 * "detectably torn".
 */
class AppendLog
{
  public:
    AppendLog() = default;
    ~AppendLog();

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /**
     * Open @p path for appending (creating it if absent). @p durable
     * selects fsync-per-append; journals default it on, high-rate
     * trace artifacts may turn it off.
     */
    Status open(const std::string &path, bool durable = true);
    const std::string &path() const { return path_; }

    /** Append @p line plus '\n' with a single write; fsync if durable. */
    Status append(const std::string &line);

    /**
     * Append only the first @p bytes bytes of @p line and no newline —
     * a deliberately torn record. Exists for the crash plan
     * (fault/fault.hh) and the torn-tail tests; never used by normal
     * operation.
     */
    Status appendTorn(const std::string &line, std::size_t bytes);

    /** Close the descriptor (final fsync when durable). Idempotent. */
    Status close();

  private:
    Status writeAll(const char *data, std::size_t len);

    int fd_ = -1;
    bool durable_ = true;
    std::string path_;
};

/**
 * Truncate @p path to @p bytes. Used by journal recovery to cut a
 * torn tail off at the last record boundary.
 */
Status truncateFile(const std::string &path, std::uint64_t bytes);

} // namespace vmsim

#endif // VMSIM_BASE_FSIO_HH
