#include "detect/cacheline_model.h"

#include <algorithm>
#include <bit>

namespace laser::detect {

namespace {

bool
validLineBytes(int line_bytes)
{
    return line_bytes >= 8 && line_bytes <= 128 &&
           std::has_single_bit(static_cast<unsigned>(line_bytes));
}

} // namespace

int
CacheLineModel::lineBytesOrDefault(int line_bytes)
{
    return validLineBytes(line_bytes) ? line_bytes : kDefaultLineBytes;
}

std::uint64_t
CacheLineModel::byteMask(std::uint64_t addr, int size, int line_bytes)
{
    if (size <= 0 || !validLineBytes(line_bytes))
        return 0;
    const int offset =
        static_cast<int>(addr & static_cast<std::uint64_t>(line_bytes - 1));
    const int end = std::min(offset + size, line_bytes);
    // Lines wider than 64 bytes track the footprint at line_bytes/64-byte
    // granules so it still fits one 64-bit word.
    const int granule = line_bytes > 64 ? line_bytes / 64 : 1;
    const int first = offset / granule;
    const int last = (end - 1) / granule;
    const int nbits = last - first + 1;
    const std::uint64_t bits =
        nbits >= 64 ? ~0ULL : (std::uint64_t(1) << nbits) - 1;
    return bits << first;
}

SharingOutcome
CacheLineModel::classify(std::uint64_t prev_mask, bool prev_write,
                         std::uint64_t mask, bool is_write)
{
    if (mask == 0 || prev_mask == 0)
        return SharingOutcome::None;
    if (!prev_write && !is_write)
        return SharingOutcome::None;
    return (prev_mask & mask) != 0 ? SharingOutcome::TrueSharing
                                   : SharingOutcome::FalseSharing;
}

} // namespace laser::detect
