#include "sim/ssb.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace laser::sim {

// Byte i of a buffered value is the byte at addr + i, so values are
// copied to and from chunk lanes as their in-memory bytes.
static_assert(std::endian::native == std::endian::little,
              "SSB lane copies assume a little-endian host");

namespace {

/** One chunk's share of an access: lanes [lane, lane + take). */
struct Piece
{
    std::uint64_t chunk; ///< address >> 3
    int lane;            ///< first lane within the chunk
    int take;            ///< bytes of the access in this chunk
    std::uint8_t mask;   ///< ((1 << take) - 1) << lane
};

/** The piece of the access [addr, addr+size) that starts at byte @p done. */
Piece
pieceAt(std::uint64_t addr, int size, int done)
{
    const std::uint64_t a = addr + done;
    const int lane = static_cast<int>(a & 7);
    const int take = std::min(size - done, 8 - lane);
    return {a >> 3, lane, take,
            static_cast<std::uint8_t>(((1u << take) - 1) << lane)};
}

/** Orders (chunk, slot) pairs against a chunk, for lower_bound. */
constexpr auto chunkBefore = [](const auto &entry, std::uint64_t chunk) {
    return entry.first < chunk;
};

/** The bytes of @p v, lowest first. */
std::uint8_t *
bytesOf(std::uint64_t &v)
{
    return reinterpret_cast<std::uint8_t *>(&v);
}

} // namespace

const SoftwareStoreBuffer::Slot *
SoftwareStoreBuffer::findSlot(std::uint64_t chunk) const
{
    auto it = std::lower_bound(slots_.begin(), slots_.end(), chunk,
                               chunkBefore);
    return it != slots_.end() && it->first == chunk ? &it->second : nullptr;
}

SoftwareStoreBuffer::Slot &
SoftwareStoreBuffer::slotAt(std::uint64_t chunk)
{
    auto it = std::lower_bound(slots_.begin(), slots_.end(), chunk,
                               chunkBefore);
    if (it == slots_.end() || it->first != chunk)
        it = slots_.insert(it, {chunk, Slot{}});
    return it->second;
}

void
SoftwareStoreBuffer::put(std::uint64_t addr, int size, std::uint64_t value,
                         std::uint64_t seq)
{
    ++totalPuts_;
    for (int done = 0; done < size;) {
        const Piece p = pieceAt(addr, size, done);
        Slot &slot = slotAt(p.chunk);
        if (slot.validMask == 0) {
            slot.minSeq = seq;
            slot.maxSeq = seq;
        } else {
            slot.minSeq = std::min(slot.minSeq, seq);
            slot.maxSeq = std::max(slot.maxSeq, seq);
        }
        slot.validMask |= p.mask;
        std::memcpy(slot.bytes + p.lane, bytesOf(value) + done, p.take);
        done += p.take;
    }
    if (mode_ == SsbMode::Fifo) {
        fifo_.push_back({addr, static_cast<std::uint8_t>(size), value,
                         seq});
    }
}

bool
SoftwareStoreBuffer::getFull(std::uint64_t addr, int size,
                             std::uint64_t *value) const
{
    std::uint64_t out = 0;
    for (int done = 0; done < size;) {
        const Piece p = pieceAt(addr, size, done);
        const Slot *slot = findSlot(p.chunk);
        if (!slot || (slot->validMask & p.mask) != p.mask)
            return false;
        std::memcpy(bytesOf(out) + done, slot->bytes + p.lane, p.take);
        done += p.take;
    }
    if (value)
        *value = out;
    return true;
}

bool
SoftwareStoreBuffer::containsAny(std::uint64_t addr, int size) const
{
    for (int done = 0; done < size;) {
        const Piece p = pieceAt(addr, size, done);
        const Slot *slot = findSlot(p.chunk);
        if (slot && (slot->validMask & p.mask))
            return true;
        done += p.take;
    }
    return false;
}

std::uint64_t
SoftwareStoreBuffer::merge(std::uint64_t addr, int size,
                           std::uint64_t mem_value) const
{
    std::uint64_t out = mem_value;
    for (int done = 0; done < size;) {
        const Piece p = pieceAt(addr, size, done);
        const Slot *slot = findSlot(p.chunk);
        const unsigned valid = slot ? slot->validMask & p.mask : 0;
        // A piece with no buffered lane keeps the memory bytes; a pure
        // miss then costs only the slot lookups.
        for (int i = 0; valid != 0 && i < p.take; ++i) {
            if (valid & (1u << (p.lane + i)))
                bytesOf(out)[done + i] = slot->bytes[p.lane + i];
        }
        done += p.take;
    }
    return out;
}

std::vector<SsbDrainEntry>
SoftwareStoreBuffer::drain()
{
    std::vector<SsbDrainEntry> out;
    if (mode_ == SsbMode::Fifo) {
        // One entry per chunk piece of each buffered store, in program
        // order, so the drain-entry format stays uniform.
        out.reserve(fifo_.size());
        for (FifoEntry &fe : fifo_) {
            for (int done = 0; done < fe.size;) {
                const Piece p = pieceAt(fe.addr, fe.size, done);
                SsbDrainEntry &e = out.emplace_back();
                e.addr = p.chunk << 3;
                e.validMask = p.mask;
                std::memcpy(e.bytes + p.lane, bytesOf(fe.value) + done,
                            p.take);
                e.minSeq = e.maxSeq = fe.seq;
                done += p.take;
            }
        }
        fifo_.clear();
        slots_.clear();
        return out;
    }

    out.reserve(slots_.size());
    for (const auto &[chunk, slot] : slots_) {
        SsbDrainEntry &e = out.emplace_back();
        e.addr = chunk << 3;
        e.validMask = slot.validMask;
        std::copy(std::begin(slot.bytes), std::end(slot.bytes), e.bytes);
        e.minSeq = slot.minSeq;
        e.maxSeq = slot.maxSeq;
    }
    slots_.clear();
    return out;
}

} // namespace laser::sim
