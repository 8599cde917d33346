#include "mem/memory.h"

#include <algorithm>
#include <cstring>

namespace laser::mem {

Memory::Page *
Memory::pageFor(std::uint64_t addr)
{
    std::unique_ptr<Page> &page = pages_[addr / kPageBytes];
    if (!page) {
        page = std::make_unique<Page>();
        page->fill(0);
    }
    return page.get();
}

const Memory::Page *
Memory::pageForConst(std::uint64_t addr) const
{
    const std::unique_ptr<Page> *page = pages_.find(addr / kPageBytes);
    return page ? page->get() : nullptr;
}

std::uint64_t
Memory::read(std::uint64_t addr, int size) const
{
    // Fast path: access contained in one page.
    const std::uint64_t off = addr % kPageBytes;
    if (off + std::uint64_t(size) <= kPageBytes) {
        const Page *page = pageForConst(addr);
        if (!page)
            return 0;
        std::uint64_t value = 0;
        std::memcpy(&value, page->data() + off, size);
        return value;
    }
    std::uint64_t value = 0;
    for (int i = 0; i < size; ++i)
        value |= std::uint64_t(readByte(addr + i)) << (8 * i);
    return value;
}

void
Memory::write(std::uint64_t addr, int size, std::uint64_t value)
{
    const std::uint64_t off = addr % kPageBytes;
    if (off + std::uint64_t(size) <= kPageBytes) {
        Page *page = pageFor(addr);
        std::memcpy(page->data() + off, &value, size);
        return;
    }
    for (int i = 0; i < size; ++i)
        writeByte(addr + i, std::uint8_t(value >> (8 * i)));
}

std::uint8_t
Memory::readByte(std::uint64_t addr) const
{
    const Page *page = pageForConst(addr);
    return page ? (*page)[addr % kPageBytes] : 0;
}

void
Memory::writeByte(std::uint64_t addr, std::uint8_t value)
{
    (*pageFor(addr))[addr % kPageBytes] = value;
}

void
Memory::writeBytes(std::uint64_t addr, const std::uint8_t *data,
                   std::size_t size)
{
    while (size > 0) {
        const std::uint64_t off = addr % kPageBytes;
        const std::size_t n =
            std::min<std::size_t>(size, kPageBytes - off);
        std::memcpy(pageFor(addr)->data() + off, data, n);
        addr += n;
        data += n;
        size -= n;
    }
}

} // namespace laser::mem
