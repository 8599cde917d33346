#include "sim/ssb.h"

#include <algorithm>

namespace laser::sim {

void
SoftwareStoreBuffer::putByte(std::uint64_t addr, std::uint8_t byte,
                             std::uint64_t seq)
{
    Slot &slot = slots_[addr >> 3];
    const int lane = static_cast<int>(addr & 7);
    if (slot.validMask == 0) {
        slot.minSeq = seq;
        slot.maxSeq = seq;
    } else {
        slot.minSeq = std::min(slot.minSeq, seq);
        slot.maxSeq = std::max(slot.maxSeq, seq);
    }
    slot.validMask |= std::uint8_t(1u << lane);
    slot.bytes[lane] = byte;
}

void
SoftwareStoreBuffer::put(std::uint64_t addr, int size, std::uint64_t value,
                         std::uint64_t seq)
{
    ++totalPuts_;
    for (int i = 0; i < size; ++i)
        putByte(addr + i, std::uint8_t(value >> (8 * i)), seq);
    if (mode_ == SsbMode::Fifo) {
        fifo_.push_back({addr, static_cast<std::uint8_t>(size), value,
                         seq});
    }
}

const SoftwareStoreBuffer::Slot *
SoftwareStoreBuffer::slotFor(std::uint64_t chunk) const
{
    auto it = slots_.find(chunk);
    return it == slots_.end() ? nullptr : &it->second;
}

bool
SoftwareStoreBuffer::getFull(std::uint64_t addr, int size,
                             std::uint64_t *value) const
{
    std::uint64_t out = 0;
    for (int i = 0; i < size; ++i) {
        const std::uint64_t a = addr + i;
        const Slot *slot = slotFor(a >> 3);
        const int lane = static_cast<int>(a & 7);
        if (!slot || !(slot->validMask & (1u << lane)))
            return false;
        out |= std::uint64_t(slot->bytes[lane]) << (8 * i);
    }
    if (value)
        *value = out;
    return true;
}

bool
SoftwareStoreBuffer::containsAny(std::uint64_t addr, int size) const
{
    for (int i = 0; i < size; ++i) {
        const std::uint64_t a = addr + i;
        const Slot *slot = slotFor(a >> 3);
        if (slot && (slot->validMask & (1u << (a & 7))))
            return true;
    }
    return false;
}

std::uint64_t
SoftwareStoreBuffer::merge(std::uint64_t addr, int size,
                           std::uint64_t mem_value) const
{
    std::uint64_t out = mem_value;
    for (int i = 0; i < size; ++i) {
        const std::uint64_t a = addr + i;
        const Slot *slot = slotFor(a >> 3);
        const int lane = static_cast<int>(a & 7);
        if (slot && (slot->validMask & (1u << lane))) {
            out &= ~(std::uint64_t(0xff) << (8 * i));
            out |= std::uint64_t(slot->bytes[lane]) << (8 * i);
        }
    }
    return out;
}

std::vector<SsbDrainEntry>
SoftwareStoreBuffer::drain()
{
    std::vector<SsbDrainEntry> out;
    if (mode_ == SsbMode::Fifo) {
        // One entry per buffered store, in program order.
        out.reserve(fifo_.size());
        for (const FifoEntry &fe : fifo_) {
            SsbDrainEntry e;
            // Split the store into (at most two) chunk-aligned pieces so
            // the drain-entry format stays uniform.
            std::uint64_t a = fe.addr;
            int remaining = fe.size;
            std::uint64_t v = fe.value;
            while (remaining > 0) {
                const std::uint64_t chunk = a & ~7ULL;
                const int lane = static_cast<int>(a & 7);
                const int take = std::min(remaining, 8 - lane);
                e = SsbDrainEntry{};
                e.addr = chunk;
                e.minSeq = e.maxSeq = fe.seq;
                for (int i = 0; i < take; ++i) {
                    e.validMask |= std::uint8_t(1u << (lane + i));
                    e.bytes[lane + i] = std::uint8_t(v >> (8 * i));
                }
                out.push_back(e);
                a += take;
                // A whole 8-byte piece ends the store; shifting a 64-bit
                // value by 64 would be undefined.
                v = take < 8 ? v >> (8 * take) : 0;
                remaining -= take;
            }
        }
        fifo_.clear();
        slots_.clear();
        return out;
    }

    out.reserve(slots_.size());
    for (const auto &[chunk, slot] : slots_) {
        SsbDrainEntry e;
        e.addr = chunk << 3;
        e.validMask = slot.validMask;
        std::copy(std::begin(slot.bytes), std::end(slot.bytes), e.bytes);
        e.minSeq = slot.minSeq;
        e.maxSeq = slot.maxSeq;
        out.push_back(e);
    }
    slots_.clear();
    return out;
}

std::size_t
SoftwareStoreBuffer::entryCount() const
{
    return mode_ == SsbMode::Fifo ? fifo_.size() : slots_.size();
}

} // namespace laser::sim
