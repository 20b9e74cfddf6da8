#include "base/error.hh"

#include <cerrno>
#include <cstring>
#include <iostream>

namespace vmsim
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::InvalidArgument: return "invalid_argument";
      case ErrorCode::InvalidConfig:   return "invalid_config";
      case ErrorCode::IoError:         return "io_error";
      case ErrorCode::ParseError:      return "parse_error";
      case ErrorCode::Truncated:       return "truncated";
      case ErrorCode::Unsupported:     return "unsupported";
      case ErrorCode::Canceled:        return "canceled";
      case ErrorCode::Internal:        return "internal";
      case ErrorCode::Unknown:         return "unknown";
    }
    panic("unknown ErrorCode ", static_cast<unsigned>(code));
}

std::string
Error::toString() const
{
    std::string out = "[";
    out += errorCodeName(code);
    out += "] ";
    out += message;
    // Only repeat the context when the message doesn't already name it;
    // most messages embed the path/field for readability.
    if (!context.empty() && message.find(context) == std::string::npos) {
        out += " (context: ";
        out += context;
        out += ')';
    }
    return out;
}

Error
errnoError(std::string context, const std::string &message)
{
    const int err = errno;
    Error e;
    e.code = ErrorCode::IoError;
    e.context = std::move(context);
    e.message = message;
    if (err != 0) {
        e.message += ": ";
        e.message += std::strerror(err);
        e.message += " (errno ";
        e.message += std::to_string(err);
        e.message += ')';
    }
    e.transient = err == EINTR || err == EAGAIN || err == EBUSY;
    return e;
}

Error
errorFromException(std::exception_ptr ep)
{
    panicIf(!ep, "errorFromException with no exception");
    try {
        std::rethrow_exception(ep);
    } catch (const VmsimError &e) {
        return e.error();
    } catch (const PanicError &e) {
        return makeError(ErrorCode::Internal, "",
                         "invariant violation: ", e.what());
    } catch (const FatalError &e) {
        return makeError(ErrorCode::InvalidArgument, "", e.what());
    } catch (const std::exception &e) {
        return makeError(ErrorCode::Unknown, "", e.what());
    } catch (...) {
        return makeError(ErrorCode::Unknown, "",
                         "non-standard exception");
    }
}

int
guardedMain(int argc, char **argv, int (*body)(int, char **))
{
    std::string prog = argc > 0 ? argv[0] : "vmsim";
    prog = prog.substr(prog.find_last_of('/') + 1);
    try {
        return body(argc, argv);
    } catch (const VmsimError &e) {
        std::cerr << prog << ": " << e.error().toString() << '\n';
    } catch (const FatalError &) {
        // fatal() printed the message.
    } catch (const PanicError &) {
        // panic() printed the message.
    } catch (const std::exception &e) {
        std::cerr << prog << ": error: " << e.what() << '\n';
    }
    return 1;
}

} // namespace vmsim
