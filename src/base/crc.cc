#include "base/crc.hh"

#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vmsim
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

/**
 * Slicing-by-16 tables: t[0] is the classic byte table; t[k][b] is the
 * CRC contribution of byte b followed by k zero bytes, so sixteen
 * independent lookups fold one 16-byte block into the running CRC.
 */
constexpr CrcTables
makeTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr CrcTables kTables = makeTables();

/** Little-endian 32-bit load; byte assembly keeps it endian-neutral. */
inline std::uint32_t
load32le(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/** Slicing-by-16 over the inverted register @p c. */
std::uint32_t
tableUpdate(std::uint32_t c, const unsigned char *p, std::size_t len)
{
    const auto &t = kTables;
    for (; len >= 16; p += 16, len -= 16) {
        // Written out: -O2 does not unroll the equivalent 16-step loop,
        // and the unrolled form is what lets the lookups overlap.
        const std::uint32_t a = c ^ load32le(p);
        const std::uint32_t b = load32le(p + 4);
        const std::uint32_t d = load32le(p + 8);
        const std::uint32_t e = load32le(p + 12);
        c = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
            t[13][(a >> 16) & 0xFF] ^ t[12][a >> 24] ^
            t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
            t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^
            t[7][d & 0xFF] ^ t[6][(d >> 8) & 0xFF] ^
            t[5][(d >> 16) & 0xFF] ^ t[4][d >> 24] ^
            t[3][e & 0xFF] ^ t[2][(e >> 8) & 0xFF] ^
            t[1][(e >> 16) & 0xFF] ^ t[0][e >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c;
}

#if defined(__x86_64__)

/** Fold @p x forward over @p k's distance and add in @p next. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/**
 * Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
 * Generic Polynomials Using PCLMULQDQ", Intel, 2009) over the inverted
 * register @p c. @p len must be a multiple of 16 and at least 64.
 *
 * Each constant is x^k mod P(x) for the reflected polynomial, shifted
 * by one bit for the reflected domain: k1/k2 fold a 128-bit lane
 * forward 512 bits (four lanes), k3/k4 fold it forward 128 bits, k5
 * folds 64 bits to 32, and mu/P' drive the final Barrett reduction.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
foldUpdate(std::uint32_t c, const unsigned char *p, std::size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    const auto load = [](const unsigned char *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };

    __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                            static_cast<int>(c)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k1k2, load(p));
        x1 = fold(x1, k1k2, load(p + 16));
        x2 = fold(x2, k1k2, load(p + 32));
        x3 = fold(x3, k1k2, load(p + 48));
    }
    x0 = fold(x0, k3k4, x1);
    x0 = fold(x0, k3k4, x2);
    x0 = fold(x0, k3k4, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k3k4, load(p));

    // 128 -> 64 bits, then 64 -> 32 bits.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5,
                                            0x00));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif // __x86_64__

} // anonymous namespace

namespace detail
{

bool
hasFoldedCrc()
{
#if defined(__x86_64__)
    // Function-local so the probe runs on first use, even when that use
    // is a static initializer elsewhere.
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return supported;
#else
    return false;
#endif
}

std::uint32_t
crc32Table(const void *data, std::size_t len, std::uint32_t seed)
{
    return ~tableUpdate(~seed, static_cast<const unsigned char *>(data),
                        len);
}

std::uint32_t
crc32Folded(const void *data, std::size_t len, std::uint32_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~seed;
#if defined(__x86_64__)
    if (len >= 64) {
        const std::size_t body = len & ~std::size_t{15};
        c = foldUpdate(c, p, body);
        p += body;
        len -= body;
    }
#endif
    return ~tableUpdate(c, p, len);
}

} // namespace detail

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    return detail::hasFoldedCrc() ? detail::crc32Folded(data, len, seed)
                                  : detail::crc32Table(data, len, seed);
}

std::uint32_t
crc32(const std::string &s)
{
    return crc32(s.data(), s.size());
}

std::string
crc32Hex(std::uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

namespace
{

// The exact frame prefix/infix crcFrameLine() emits; unframing matches
// these textually so the checksummed payload bytes are recovered
// verbatim, independent of any JSON parser's whitespace choices.
constexpr const char kFramePrefix[] = "{\"crc\":\"";
constexpr std::size_t kFramePrefixLen = sizeof(kFramePrefix) - 1;
constexpr const char kFrameInfix[] = "\",\"data\":";
constexpr std::size_t kFrameInfixLen = sizeof(kFrameInfix) - 1;

} // anonymous namespace

std::string
crcFrameLine(const std::string &payload)
{
    std::string line;
    line.reserve(payload.size() + kFramePrefixLen + kFrameInfixLen + 9);
    line += kFramePrefix;
    line += crc32Hex(crc32(payload));
    line += kFrameInfix;
    line += payload;
    line += '}';
    return line;
}

FrameCheck
crcUnframeLine(const std::string &line, std::string &payload)
{
    if (line.compare(0, kFramePrefixLen, kFramePrefix) != 0) {
        payload = line;
        return FrameCheck::Legacy;
    }
    const std::size_t crcEnd = kFramePrefixLen + 8;
    if (line.size() < crcEnd + kFrameInfixLen + 1 ||
        line.compare(crcEnd, kFrameInfixLen, kFrameInfix) != 0 ||
        line.back() != '}')
        return FrameCheck::Malformed;
    std::uint32_t want = 0;
    if (!parseCrc32Hex(line.substr(kFramePrefixLen, 8), want))
        return FrameCheck::Malformed;
    const std::size_t dataBegin = crcEnd + kFrameInfixLen;
    std::string data =
        line.substr(dataBegin, line.size() - dataBegin - 1);
    if (crc32(data) != want)
        return FrameCheck::Mismatch;
    payload = std::move(data);
    return FrameCheck::Ok;
}

bool
parseCrc32Hex(const std::string &text, std::uint32_t &out)
{
    if (text.size() != 8)
        return false;
    std::uint32_t v = 0;
    for (char ch : text) {
        std::uint32_t digit;
        if (ch >= '0' && ch <= '9')
            digit = static_cast<std::uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            digit = static_cast<std::uint32_t>(ch - 'a' + 10);
        else if (ch >= 'A' && ch <= 'F')
            digit = static_cast<std::uint32_t>(ch - 'A' + 10);
        else
            return false;
        v = (v << 4) | digit;
    }
    out = v;
    return true;
}

} // namespace vmsim
