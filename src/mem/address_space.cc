#include "mem/address_space.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace laser::mem {

const char *
regionKindName(RegionKind kind)
{
    switch (kind) {
      case RegionKind::Unmapped: return "unmapped";
      case RegionKind::AppCode:  return "app-code";
      case RegionKind::LibCode:  return "lib-code";
      case RegionKind::Globals:  return "globals";
      case RegionKind::Heap:     return "heap";
      case RegionKind::Stack:    return "stack";
      case RegionKind::Kernel:   return "kernel";
    }
    return "???";
}

AddressSpace::AddressSpace(const isa::Program &prog, int num_threads)
    : numThreads_(num_threads)
{
    // Text mappings: one region per program segment, laid out contiguously
    // from kCodeBase (index -> pc stays a simple affine map).
    for (const isa::Segment &seg : prog.segments) {
        Region r;
        r.start = Layout::kCodeBase +
                  std::uint64_t(seg.begin) * isa::kInsnBytes;
        r.size = std::uint64_t(seg.end - seg.begin) * isa::kInsnBytes;
        r.kind = seg.isLibrary ? RegionKind::LibCode : RegionKind::AppCode;
        r.name = seg.isLibrary ? "/usr/lib/" + seg.name : "/app/" + seg.name;
        regions_.push_back(r);
        codeEnd_ = std::max(codeEnd_, r.end());
    }

    regions_.push_back({Layout::kGlobalsBase, Layout::kGlobalsSize,
                        RegionKind::Globals, "/app/" + prog.name, -1});
    regions_.push_back({Layout::kHeapBase, Layout::kHeapSize,
                        RegionKind::Heap, "[heap]", -1});
    for (int t = 0; t < num_threads; ++t) {
        regions_.push_back({stackBase(t), Layout::kStackSize,
                            RegionKind::Stack,
                            "[stack:" + std::to_string(1000 + t) + "]", t});
    }

    std::sort(regions_.begin(), regions_.end(),
              [](const Region &a, const Region &b) {
                  return a.start < b.start;
              });
}

RegionKind
AddressSpace::classify(std::uint64_t addr) const
{
    if (addr >= Layout::kKernelBase)
        return RegionKind::Kernel;
    const Region *r = find(addr);
    return r ? r->kind : RegionKind::Unmapped;
}

const Region *
AddressSpace::find(std::uint64_t addr) const
{
    // regions_ is sorted by start; binary search for the candidate.
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), addr,
        [](std::uint64_t a, const Region &r) { return a < r.start; });
    if (it == regions_.begin())
        return nullptr;
    --it;
    return it->contains(addr) ? &*it : nullptr;
}

std::uint64_t
AddressSpace::stackTop(int tid) const
{
    return stackBase(tid) + Layout::kStackSize - 64;
}

std::string
AddressSpace::renderProcMaps() const
{
    std::ostringstream os;
    for (const Region &r : regions_) {
        const bool exec =
            r.kind == RegionKind::AppCode || r.kind == RegionKind::LibCode;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%08llx-%08llx %s %08x %02x:%02x %-8d %s\n",
                      static_cast<unsigned long long>(r.start),
                      static_cast<unsigned long long>(r.end()),
                      exec ? "r-xp" : "rw-p", 0u, 8u, 1u,
                      exec ? 4321 : 0, r.name.c_str());
        os << line;
    }
    return os.str();
}

} // namespace laser::mem
