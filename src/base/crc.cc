#include "base/crc.hh"

#include <array>
#include <cstdio>

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

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto &t = kTables;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
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
    return c ^ 0xFFFFFFFFu;
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
