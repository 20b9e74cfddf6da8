/**
 * @file
 * Structured, recoverable error reporting: vmsim::Error (a code plus
 * human-readable message and context), Expected<T> / Status return
 * types, and the VmsimError exception that carries an Error across
 * layers that still propagate by throwing.
 *
 * The division of labor with base/logging.hh:
 *
 *  - panic()        : internal invariant violated — a vmsim bug. Still
 *                     throws PanicError; never use Error for these.
 *  - Error/Expected : *recoverable* failures caused by the environment
 *                     or the user — unreadable trace files, corrupt
 *                     records, invalid configurations, exporter I/O.
 *                     Callers inspect the code, retry transient
 *                     failures, or mark one sweep cell failed without
 *                     taking down the campaign.
 *  - VmsimError     : the exception form of an Error, for paths where
 *                     a return value cannot carry it (constructors,
 *                     deep inside the simulation loop). It derives
 *                     from FatalError so legacy call sites that catch
 *                     user-level errors keep working, but unlike
 *                     fatal() it preserves the structured Error.
 *
 * See docs/robustness.md for the full error model.
 */

#ifndef VMSIM_BASE_ERROR_HH
#define VMSIM_BASE_ERROR_HH

#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "base/logging.hh"

namespace vmsim
{

/** Classification of a recoverable failure. */
enum class ErrorCode : std::uint8_t
{
    InvalidArgument, ///< malformed user input (flag, spec string, name)
    InvalidConfig,   ///< SimConfig::validate() rejected a field
    IoError,         ///< open/read/write/close failed (errno-style)
    ParseError,      ///< bytes were readable but not decodable
    Truncated,       ///< input ended before its header said it would
    Unsupported,     ///< recognized but unsupported (format version)
    Canceled,        ///< cooperative cancellation was requested
    Internal,        ///< an invariant violation crossed an isolation
                     ///  boundary (a PanicError captured by the runner)
    Unknown,         ///< a foreign exception with no classification
};

/** Stable lowercase identifier ("io_error", "canceled", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * One recoverable failure. The message is complete and human-readable
 * on its own; context names the thing that failed (a file path, a
 * config field, a sweep cell) so tools can group failures without
 * parsing messages. transient marks failures worth retrying
 * (interrupted I/O, injected ENOSPC) — see RetryPolicy.
 */
struct Error
{
    ErrorCode code = ErrorCode::Unknown;
    std::string message;
    std::string context;
    bool transient = false;

    /** "[io_error] cannot open 'x.trace': ... (context: x.trace)" */
    std::string toString() const;
};

/**
 * Exception form of an Error. Derives from FatalError (a user-caused
 * error) so existing handlers and tests that expect FatalError from
 * bad input continue to work; new code should catch VmsimError and
 * inspect error().code.
 */
class VmsimError : public FatalError
{
  public:
    explicit VmsimError(Error err)
        : FatalError(err.toString()), err_(std::move(err))
    {}

    const Error &error() const { return err_; }
    ErrorCode code() const { return err_.code; }

  private:
    Error err_;
};

/** Build an Error from streamable message parts. */
template <typename... Args>
Error
makeError(ErrorCode code, std::string context, Args &&...args)
{
    Error e;
    e.code = code;
    e.message = detail::concat(std::forward<Args>(args)...);
    e.context = std::move(context);
    return e;
}

/** makeError + throw VmsimError, for paths that cannot return one. */
template <typename... Args>
[[noreturn]] void
throwError(ErrorCode code, std::string context, Args &&...args)
{
    throw VmsimError(makeError(code, std::move(context),
                               std::forward<Args>(args)...));
}

/**
 * Build an IoError from the current errno, appending strerror text.
 * EINTR/EAGAIN-style interruptions are marked transient.
 */
Error errnoError(std::string context, const std::string &message);

/**
 * Convert an in-flight exception into an Error:
 *  - VmsimError keeps its structured Error;
 *  - PanicError becomes Internal (an invariant violation crossed an
 *    isolation boundary — still reported, never silently dropped);
 *  - FatalError becomes InvalidArgument (a legacy fatal() path);
 *  - any other std::exception becomes Unknown with its what();
 *  - a non-standard exception becomes Unknown.
 */
Error errorFromException(std::exception_ptr ep);

/**
 * Result of an operation with no value: success, or an Error. The
 * Expected<void> of this codebase.
 */
class Status
{
  public:
    /** Success. */
    Status() = default;

    /** Failure. */
    Status(Error err) : err_(std::move(err)) {}

    bool ok() const { return !err_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** The failure; panic() if ok(). */
    const Error &
    error() const
    {
        panicIf(ok(), "Status::error() on a success");
        return *err_;
    }

    /** Throw VmsimError if this is a failure. */
    void
    orThrow() const
    {
        if (!ok())
            throw VmsimError(*err_);
    }

  private:
    std::optional<Error> err_;
};

/**
 * A value of type T, or the Error explaining why there is none.
 * Factory functions return this instead of calling fatal(), so callers
 * choose between propagating, retrying, and isolating.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : v_(std::move(value)) {}
    Expected(Error err) : v_(std::move(err)) {}

    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    /** The value; panic() if this holds an Error. */
    T &
    value() &
    {
        panicIf(!ok(), "Expected::value() on an error");
        return std::get<T>(v_);
    }

    const T &
    value() const &
    {
        panicIf(!ok(), "Expected::value() on an error");
        return std::get<T>(v_);
    }

    T &&
    value() &&
    {
        panicIf(!ok(), "Expected::value() on an error");
        return std::get<T>(std::move(v_));
    }

    /** The error; panic() if this holds a value. */
    const Error &
    error() const
    {
        panicIf(ok(), "Expected::error() on a value");
        return std::get<Error>(v_);
    }

    /** The value, or @p fallback if this holds an Error. */
    T
    valueOr(T fallback) const &
    {
        return ok() ? std::get<T>(v_) : std::move(fallback);
    }

    /** The value, or throw the error as a VmsimError. */
    T &&
    orThrow() &&
    {
        if (!ok())
            throw VmsimError(std::get<Error>(std::move(v_)));
        return std::get<T>(std::move(v_));
    }

    T &
    orThrow() &
    {
        if (!ok())
            throw VmsimError(std::get<Error>(v_));
        return std::get<T>(v_);
    }

  private:
    std::variant<T, Error> v_;
};

/**
 * The error boundary of a command-line main: return @p body's exit
 * status, or 1 when an exception escapes it, with the error on one
 * stderr line. fatal() and panic() print their message as they throw,
 * so a plain FatalError or PanicError prints nothing more; a
 * VmsimError prints its [code] line and any other exception its
 * what(), after the program's name.
 */
int guardedMain(int argc, char **argv, int (*body)(int, char **));

} // namespace vmsim

#endif // VMSIM_BASE_ERROR_HH
