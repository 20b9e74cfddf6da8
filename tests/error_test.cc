/**
 * @file
 * Tests for the structured error layer: Error/ErrorCode formatting,
 * Status and Expected<T> semantics, errno and exception conversion,
 * and the VmsimError bridge to the legacy FatalError hierarchy.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <stdexcept>
#include <string>

#include "base/error.hh"
#include "base/logging.hh"

namespace vmsim
{
namespace
{

TEST(ErrorCodeName, CoversEveryCode)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument),
                 "invalid_argument");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidConfig),
                 "invalid_config");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::ParseError), "parse_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::Truncated), "truncated");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unsupported), "unsupported");
    EXPECT_STREQ(errorCodeName(ErrorCode::Canceled), "canceled");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unknown), "unknown");
}

TEST(Error, ToStringIncludesCodeAndContext)
{
    Error e = makeError(ErrorCode::IoError, "foo.trace",
                        "cannot read the file");
    std::string s = e.toString();
    EXPECT_NE(s.find("[io_error]"), std::string::npos) << s;
    EXPECT_NE(s.find("cannot read the file"), std::string::npos) << s;
    EXPECT_NE(s.find("(context: foo.trace)"), std::string::npos) << s;
}

TEST(Error, ToStringOmitsContextAlreadyInMessage)
{
    Error e = makeError(ErrorCode::ParseError, "foo.trace",
                        "cannot parse 'foo.trace'");
    EXPECT_EQ(e.toString().find("context:"), std::string::npos);
}

TEST(Error, MakeErrorConcatenatesStreamableParts)
{
    Error e = makeError(ErrorCode::Truncated, "t", "got ", 7,
                        " bytes, need ", 16);
    EXPECT_EQ(e.message, "got 7 bytes, need 16");
    EXPECT_EQ(e.code, ErrorCode::Truncated);
    EXPECT_FALSE(e.transient);
}

TEST(Error, ErrnoErrorCapturesStrerror)
{
    errno = ENOENT;
    Error e = errnoError("missing.trace", "cannot open");
    EXPECT_EQ(e.code, ErrorCode::IoError);
    EXPECT_EQ(e.context, "missing.trace");
    EXPECT_NE(e.message.find("cannot open"), std::string::npos);
    EXPECT_NE(e.message.find("errno 2"), std::string::npos) << e.message;
    EXPECT_FALSE(e.transient);
}

TEST(Error, ErrnoErrorMarksInterruptionsTransient)
{
    errno = EINTR;
    EXPECT_TRUE(errnoError("x", "read interrupted").transient);
    errno = EAGAIN;
    EXPECT_TRUE(errnoError("x", "would block").transient);
    errno = ENOSPC;
    EXPECT_FALSE(errnoError("x", "disk full").transient);
}

TEST(VmsimErrorTest, IsAFatalError)
{
    // Legacy EXPECT_THROW(..., FatalError) sites must keep passing
    // when the thrower migrates to structured errors.
    setQuiet(true);
    try {
        throwError(ErrorCode::InvalidConfig, "cfg.pageBits",
                   "pageBits must be positive");
        FAIL() << "throwError did not throw";
    } catch (const FatalError &e) {
        auto *ve = dynamic_cast<const VmsimError *>(&e);
        ASSERT_NE(ve, nullptr);
        EXPECT_EQ(ve->code(), ErrorCode::InvalidConfig);
        EXPECT_EQ(ve->error().context, "cfg.pageBits");
        EXPECT_NE(std::string(e.what()).find("pageBits"),
                  std::string::npos);
    }
    setQuiet(false);
}

TEST(ErrorFromException, PreservesVmsimError)
{
    Error in = makeError(ErrorCode::Canceled, "cell 3", "shut down");
    in.transient = false;
    Error out;
    try {
        throw VmsimError(in);
    } catch (...) {
        out = errorFromException(std::current_exception());
    }
    EXPECT_EQ(out.code, ErrorCode::Canceled);
    EXPECT_EQ(out.message, "shut down");
    EXPECT_EQ(out.context, "cell 3");
}

TEST(ErrorFromException, MapsLegacyAndForeignExceptions)
{
    auto convert = [](auto thrower) {
        try {
            thrower();
        } catch (...) {
            return errorFromException(std::current_exception());
        }
        return Error{};
    };

    setQuiet(true);
    Error p = convert([] { panic("broken invariant"); });
    EXPECT_EQ(p.code, ErrorCode::Internal);
    EXPECT_NE(p.message.find("broken invariant"), std::string::npos);

    Error f = convert([] { fatal("bad flag"); });
    EXPECT_EQ(f.code, ErrorCode::InvalidArgument);

    Error r = convert([] { throw std::runtime_error("oops"); });
    EXPECT_EQ(r.code, ErrorCode::Unknown);
    EXPECT_EQ(r.message, "oops");

    Error n = convert([] { throw 42; });
    EXPECT_EQ(n.code, ErrorCode::Unknown);
    setQuiet(false);
}

TEST(StatusTest, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(static_cast<bool>(s));
    EXPECT_NO_THROW(s.orThrow());
}

TEST(StatusTest, FailureCarriesErrorAndThrows)
{
    Status s(makeError(ErrorCode::IoError, "f", "boom"));
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, ErrorCode::IoError);
    setQuiet(true);
    try {
        s.orThrow();
        FAIL() << "orThrow did not throw";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::IoError);
    }
    setQuiet(false);
}

TEST(StatusTest, ErrorOnSuccessPanics)
{
    setQuiet(true);
    Status s;
    EXPECT_THROW(s.error(), PanicError);
    setQuiet(false);
}

TEST(ExpectedTest, ValueRoundTrip)
{
    Expected<int> e(7);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value(), 7);
    EXPECT_EQ(e.valueOr(99), 7);
    EXPECT_EQ(e.orThrow(), 7);
}

TEST(ExpectedTest, ErrorAlternative)
{
    Expected<int> e(makeError(ErrorCode::ParseError, "x", "nope"));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code, ErrorCode::ParseError);
    EXPECT_EQ(e.valueOr(99), 99);
    setQuiet(true);
    EXPECT_THROW(e.orThrow(), VmsimError);
    EXPECT_THROW(e.value(), PanicError);
    setQuiet(false);
}

TEST(ExpectedTest, MoveOnlyTypes)
{
    auto make = [](bool ok) -> Expected<std::unique_ptr<int>> {
        if (!ok)
            return makeError(ErrorCode::IoError, "p", "no");
        return std::make_unique<int>(5);
    };
    auto good = make(true);
    ASSERT_TRUE(good.ok());
    std::unique_ptr<int> p = std::move(good).orThrow();
    EXPECT_EQ(*p, 5);
    EXPECT_FALSE(make(false).ok());
}

} // anonymous namespace
} // namespace vmsim
