/**
 * @file
 * Shared wire-format primitives for the LSRT trace format: the
 * little-endian/varint byte encoder and its strict bounds-checked
 * decoder, the word-wise checksum (wordHash), and zigzag mapping.
 *
 * Extracted from the trace reader/writer so the columnar codec layer
 * (trace/columnar.*) and the seekable file reader (trace/trace_file.*)
 * encode and reject bytes with exactly the same rules. Canonicality
 * matters for the byte-exact round-trip guarantee: the varint decoder
 * rejects a tenth byte carrying bits beyond the 64th and non-terminal
 * zero continuation bytes, both of which would decode "Ok" into a value
 * that re-encodes to different bytes.
 */

#ifndef LASER_TRACE_WIRE_H
#define LASER_TRACE_WIRE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace laser::trace::wire {

/** Little-endian u64 from the 8 bytes at @p p: one unaligned load. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/**
 * The format's one 64-bit hash: every block, index, meta and payload
 * checksum and the header's config hash. It consumes a little-endian
 * word per step, h = (h ^ word) * FNV prime, then h ^= h >> 29 so high
 * bits feed back into low ones, and finishes a ragged tail with
 * byte-wise FNV-1a. Every step is a bijection of h, so changing any one
 * word (or any one byte) of the input always changes the sum.
 */
inline std::uint64_t
wordHash(const std::uint8_t *data, std::size_t size)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t h = 1469598103934665603ull;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        h = (h ^ loadLe64(data + i)) * kPrime;
        h ^= h >> 29;
    }
    for (; i < size; ++i) {
        h ^= data[i];
        h *= kPrime;
    }
    return h;
}

inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append-only little-endian/varint encoder over a caller's buffer. */
struct ByteWriter
{
    std::vector<std::uint8_t> &buf;

    explicit ByteWriter(std::vector<std::uint8_t> &b) : buf(b) {}

    void u8(std::uint8_t v) { buf.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    var(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        buf.push_back(static_cast<std::uint8_t>(v));
    }

    void zig(std::int64_t v) { var(zigzagEncode(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        var(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
    }
};

/** Bounds-checked decoder: any overrun latches ok=false, reads yield 0. */
struct ByteReader
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool ok = true;

    ByteReader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

    void
    skip(std::size_t n)
    {
        if (n > remaining()) {
            ok = false;
            p = end;
            return;
        }
        p += n;
    }

    std::uint8_t
    u8()
    {
        if (p >= end) {
            ok = false;
            return 0;
        }
        return *p++;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        if (remaining() < 4) {
            ok = false;
            p = end;
            return 0;
        }
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*p++) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (remaining() < 8) {
            ok = false;
            p = end;
            return 0;
        }
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*p++) << (8 * i);
        return v;
    }

    std::uint64_t
    var()
    {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (p >= end) {
                ok = false;
                return 0;
            }
            const std::uint8_t byte = *p++;
            // Reject the tenth byte carrying bits beyond the 64th, and
            // non-canonical zero continuation bytes: both would parse
            // "Ok" into a value that re-encodes to different bytes.
            if ((shift == 63 && (byte & 0xfe)) ||
                    (byte == 0 && shift > 0)) {
                ok = false;
                return 0;
            }
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        ok = false; // > 10 bytes: malformed varint
        return 0;
    }

    std::int64_t zig() { return zigzagDecode(var()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    bool boolean() { return u8() != 0; }

    std::string
    str()
    {
        const std::uint64_t n = var();
        if (!ok || n > remaining()) {
            ok = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p),
                      static_cast<std::size_t>(n));
        p += n;
        return s;
    }
};

} // namespace laser::trace::wire

#endif // LASER_TRACE_WIRE_H
