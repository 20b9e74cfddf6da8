/**
 * @file
 * CRC32 (IEEE 802.3, the zlib/Ethernet polynomial, reflected) — the record
 * checksum used by every durable artifact that must detect torn or
 * corrupted bytes after a crash: sweep/shard journal lines, VMT2 trace
 * records, and recorded-trace replay framing.
 *
 * Two implementations return the same values. On x86-64 hosts whose
 * CPU has PCLMULQDQ and SSE4.1, a carry-less-multiply folding kernel
 * (four 128-bit accumulators, 64 bytes per step, Barrett reduction to
 * 32 bits) takes the 16-byte-multiple prefix of every input of 64
 * bytes or more, and slicing-by-16 finishes the tail. Everywhere else,
 * and for every shorter input, portable slicing-by-16 (sixteen 256-entry
 * tables, byte-assembled loads, so results do not depend on host
 * endianness) does all the work. The platform picks the path once, at
 * the first call; nothing else selects it. Incremental use chains
 * through the `seed` parameter (pass the previous call's return value).
 * crc32Hex() renders the canonical 8-hex-digit form the JSONL journals
 * embed.
 */

#ifndef VMSIM_BASE_CRC_HH
#define VMSIM_BASE_CRC_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vmsim
{

/** CRC32 of @p len bytes at @p data, chained from @p seed (0 = fresh). */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

namespace detail
{

// For tests only: each path on its own, so both are pinned on every
// host. crc32() is crc32Folded() when hasFoldedCrc(), else crc32Table().

/** Slicing-by-16 alone. */
std::uint32_t crc32Table(const void *data, std::size_t len,
                         std::uint32_t seed = 0);

/**
 * Folding kernel for the 16-byte-multiple prefix of inputs of 64 bytes
 * or more, slicing-by-16 for the rest. Call only when hasFoldedCrc();
 * on non-x86 builds it is the table path.
 */
std::uint32_t crc32Folded(const void *data, std::size_t len,
                          std::uint32_t seed = 0);

/** True when this host runs the folding kernel. */
bool hasFoldedCrc();

} // namespace detail

/** Convenience overload for string payloads (journal lines). */
std::uint32_t crc32(const std::string &s);

/** Lowercase fixed-width hex rendering ("0007f3c2"). */
std::string crc32Hex(std::uint32_t crc);

/**
 * Parse an 8-hex-digit CRC as emitted by crc32Hex(). Returns false on
 * any other shape (wrong length, non-hex characters).
 */
bool parseCrc32Hex(const std::string &text, std::uint32_t &out);

/**
 * Wrap one JSONL payload in the checksum frame the journals write:
 *
 *     {"crc":"xxxxxxxx","data":<payload>}
 *
 * The CRC covers the payload's exact byte sequence, so verification
 * never depends on a JSON serializer round-tripping the same bytes.
 * @p payload must itself be a JSON value (conventionally an object).
 */
std::string crcFrameLine(const std::string &payload);

/** Outcome of crcUnframeLine(). */
enum class FrameCheck
{
    Ok,       ///< framed, checksum verified; payload extracted
    Legacy,   ///< not framed (pre-CRC journal line); passed through
    Mismatch, ///< framed, but checksum does not match the payload
    Malformed ///< frame prefix present but unparseable
};

/**
 * Undo crcFrameLine(): extract and verify @p line's payload into
 * @p payload. A line that does not start with the frame prefix is
 * reported as Legacy with the whole line as payload — older journals
 * stay loadable. Mismatch/Malformed leave @p payload untouched.
 */
FrameCheck crcUnframeLine(const std::string &line, std::string &payload);

} // namespace vmsim

#endif // VMSIM_BASE_CRC_HH
