#include "detect/maps_filter.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace laser::detect {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

PcClass
pcClassOf(const MapsEntry &e)
{
    if (!e.executable)
        return PcClass::Other;
    if (startsWith(e.path, "/app/"))
        return PcClass::Application;
    if (startsWith(e.path, "/usr/lib/") || startsWith(e.path, "/lib/"))
        return PcClass::Library;
    return PcClass::Other;
}

DataClass
dataClassOf(const MapsEntry &e)
{
    if (startsWith(e.path, "[stack"))
        return DataClass::Stack;
    if (e.path == "[heap]")
        return DataClass::Heap;
    if (e.executable)
        return DataClass::Code;
    return DataClass::Globals;
}

} // namespace

MapsFilter::MapsFilter(const std::string &maps_text)
{
    std::istringstream in(maps_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        unsigned long long start = 0, end = 0;
        char perms[8] = {};
        unsigned offset = 0, dev_major = 0, dev_minor = 0, inode = 0;
        char path[256] = {};
        const int n = std::sscanf(
            line.c_str(), "%llx-%llx %7s %x %x:%x %u %255s", &start, &end,
            perms, &offset, &dev_major, &dev_minor, &inode, path);
        if (n < 7)
            continue;
        MapsEntry e;
        e.start = start;
        e.end = end;
        e.executable = perms[2] == 'x';
        e.path = n >= 8 ? path : "";
        e.pcClass = pcClassOf(e);
        e.dataClass = dataClassOf(e);
        entries_.push_back(e);
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const MapsEntry &a, const MapsEntry &b) {
                  return a.start < b.start;
              });
}

const MapsEntry *
MapsFilter::find(std::uint64_t addr) const
{
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), addr,
        [](std::uint64_t a, const MapsEntry &e) { return a < e.start; });
    if (it == entries_.begin())
        return nullptr;
    --it;
    return (addr >= it->start && addr < it->end) ? &*it : nullptr;
}

PcClass
MapsFilter::classifyPc(std::uint64_t pc) const
{
    const MapsEntry *e = find(pc);
    return e ? e->pcClass : PcClass::Other;
}

DataClass
MapsFilter::classifyData(std::uint64_t addr) const
{
    // Kernel addresses never appear in a process maps file.
    if (addr >= 0xffff'8000'0000'0000ULL)
        return DataClass::Kernel;
    const MapsEntry *e = find(addr);
    return e ? e->dataClass : DataClass::Unmapped;
}

} // namespace laser::detect
