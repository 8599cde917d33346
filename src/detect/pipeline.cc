#include "detect/pipeline.h"

#include <algorithm>
#include <bit>
#include <map>

namespace laser::detect {

const char *
contentionTypeName(ContentionType type)
{
    switch (type) {
      case ContentionType::Unknown:      return "unknown";
      case ContentionType::TrueSharing:  return "TS";
      case ContentionType::FalseSharing: return "FS";
    }
    return "???";
}

const LineReport *
DetectionReport::findLine(const std::string &location) const
{
    for (const LineReport &lr : lines) {
        if (lr.location == location)
            return &lr;
    }
    return nullptr;
}

bool
reportsIdentical(const DetectionReport &a, const DetectionReport &b)
{
    if (a.totalRecords != b.totalRecords ||
            a.droppedPcFilter != b.droppedPcFilter ||
            a.droppedStackData != b.droppedStackData ||
            a.seconds != b.seconds ||
            a.repairRequested != b.repairRequested ||
            a.repairTriggerCycle != b.repairTriggerCycle ||
            a.repairPcs != b.repairPcs ||
            a.detectorCycles != b.detectorCycles ||
            a.lines.size() != b.lines.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.lines.size(); ++i) {
        const LineReport &la = a.lines[i];
        const LineReport &lb = b.lines[i];
        if (la.loc != lb.loc || la.location != lb.location ||
                la.library != lb.library || la.records != lb.records ||
                la.hitmRate != lb.hitmRate ||
                la.tsEvents != lb.tsEvents ||
                la.fsEvents != lb.fsEvents || la.type != lb.type) {
            return false;
        }
    }
    return true;
}

DetectorContext::DetectorContext(const isa::Program &prog,
                                 const mem::AddressSpace &space,
                                 std::string maps_text,
                                 const sim::TimingModel &timing,
                                 int line_bytes)
    : prog(prog),
      space(space),
      maps(std::move(maps_text)),
      sets(prog),
      timing(timing),
      lineBytes(CacheLineModel::lineBytesOrDefault(line_bytes)),
      lineShift(std::countr_zero(static_cast<unsigned>(lineBytes)))
{
    const std::uint64_t text_bytes =
        space.codeEnd() - mem::Layout::kCodeBase;
    pcInfo.resize(static_cast<std::size_t>(
        (text_bytes + isa::kInsnBytes - 1) / isa::kInsnBytes));
    for (std::size_t i = 0; i < pcInfo.size(); ++i) {
        const auto index = static_cast<std::uint32_t>(i);
        pcInfo[i].pcClass = maps.classifyPc(space.indexToPc(index));
        pcInfo[i].access = sets.lookup(index);
    }
    const std::vector<MapsEntry> &entries = maps.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].dataClass != DataClass::Stack)
            continue;
        std::uint64_t end = std::min(entries[i].end, kKernelAddrBase);
        if (i + 1 < entries.size())
            end = std::min(end, entries[i + 1].start);
        if (entries[i].start < end)
            stackRanges.push_back({entries[i].start,
                                   end - entries[i].start});
    }
}

DetectorPipeline::DetectorPipeline(const DetectorContext &ctx,
                                   DetectorConfig cfg, Mode mode)
    : ctx_(ctx), cfg_(cfg), mode_(mode)
{
    state_.pcStats.resize(ctx.pcInfo.size());
}

inline void
DetectorPipeline::step(std::uint64_t pc, std::uint64_t data_addr,
                       std::uint64_t cycle)
{
    ++state_.totalRecords;

    const std::int64_t index = ctx_.space.pcToIndex(pc);
    if (index < 0) {
        // Not an instruction address. Stage 1 drops it unless the maps
        // call it application or library code; stage 2 then drops it
        // as a stack access, or stage 3 as spurious (an executable
        // mapping but between instructions).
        if (ctx_.maps.classifyPc(pc) != PcClass::Other &&
                ctx_.maps.classifyData(data_addr) == DataClass::Stack)
            ++state_.droppedStack;
        else
            ++state_.droppedPc;
        return;
    }
    const auto pc_index = static_cast<std::uint32_t>(index);
    const DetectorContext::PcInfo &info = ctx_.pcInfo[pc_index];

    // Stage 1: PC filter against the process maps.
    if (info.pcClass == PcClass::Other) {
        ++state_.droppedPc;
        return;
    }

    // Stage 2: stack data addresses are ignored.
    if (ctx_.isStack(data_addr)) {
        ++state_.droppedStack;
        return;
    }

    // Stage 3: aggregate by PC (line aggregation happens at reporting).
    DetectorState::PcStats &ps = state_.pcStats[pc_index];
    ++ps.records;

    // Stage 4+5: decode the PC and run the cache-line model.
    SharingOutcome outcome = SharingOutcome::None;
    const isa::MemAccessInfo mi = info.access;
    if (mi.isLoad || mi.isStore) {
        // Instructions in both sets are treated as stores; the record
        // carries one address, so this is a documented inaccuracy
        // (Section 4.3).
        const bool is_write = mi.isStore;
        const std::uint64_t line = data_addr >> ctx_.lineShift;
        const std::uint64_t mask =
            CacheLineModel::byteMask(data_addr, mi.size, ctx_.lineBytes);

        auto [entry, inserted] = state_.lines.tryEmplace(line);
        DetectorState::LineState &ls = *entry;
        if (inserted) {
            // First touch of this line in this span: unclassifiable here;
            // remembered so a window-order merge can reclassify it
            // against the preceding span's last access.
            ls.firstMask = mask;
            ls.firstWrite = is_write;
            ls.firstPc = pc_index;
            ls.firstEvent = state_.rateEvents.size();
        } else {
            outcome = CacheLineModel::classify(ls.lastMask, ls.lastWrite,
                                               mask, is_write);
        }
        ls.lastMask = mask;
        ls.lastWrite = is_write;

        if (outcome == SharingOutcome::TrueSharing) {
            ++ps.ts;
            ++state_.tsEvents;
        } else if (outcome == SharingOutcome::FalseSharing) {
            ++ps.fs;
            ++state_.fsEvents;
        }
    }

    // Stage 6: periodic repair-rate check (Section 4.4) — online when
    // streaming, deferred to the merge-time scan when digesting a shard.
    if (mode_ == Mode::Streaming)
        scan_.step(cycle, outcome, cfg_);
    else
        state_.rateEvents.push_back({cycle, outcome});
}

void
DetectorPipeline::onRecord(const pebs::PebsRecord &rec)
{
    step(rec.pc, rec.dataAddr, rec.cycle);
}

void
DetectorPipeline::onColumns(const analysis::RecordColumns &cols)
{
    for (std::size_t i = 0; i < cols.size; ++i)
        step(cols.pc[i], cols.dataAddr[i], cols.cycle[i]);
}

DetectionReport
DetectorPipeline::finish(std::uint64_t total_cycles) const
{
    return buildReport(ctx_, cfg_, state_, scan_, total_cycles);
}

std::vector<LineReport>
aggregateLines(const DetectorContext &ctx, const DetectorState &state)
{
    // Aggregate per-PC stats into per-source-line findings.
    struct LineAgg
    {
        std::uint64_t records = 0;
        std::uint64_t ts = 0;
        std::uint64_t fs = 0;
    };
    std::map<isa::SourceLoc, LineAgg> by_line;
    for (std::uint32_t index = 0; index < state.pcStats.size(); ++index) {
        const DetectorState::PcStats &ps = state.pcStats[index];
        if (ps.records == 0)
            continue;
        const isa::SourceLoc loc = ctx.prog.locOf(index);
        LineAgg &agg = by_line[loc];
        agg.records += ps.records;
        agg.ts += ps.ts;
        agg.fs += ps.fs;
    }
    std::vector<LineReport> lines;
    lines.reserve(by_line.size());
    for (const auto &[loc, agg] : by_line) {
        LineReport &lr = lines.emplace_back();
        lr.loc = loc;
        lr.location = ctx.prog.locString(loc);
        lr.library = loc.file < ctx.prog.files.size() &&
                     ctx.prog.files[loc.file].isLibrary;
        lr.records = agg.records;
        lr.tsEvents = agg.ts;
        lr.fsEvents = agg.fs;
    }
    return lines;
}

DetectionReport
buildReport(const DetectorContext &ctx, const DetectorConfig &cfg,
            const DetectorState &state, const RateScanState &scan,
            std::uint64_t total_cycles)
{
    return buildReport(ctx, cfg, state, aggregateLines(ctx, state), scan,
                       total_cycles);
}

DetectionReport
buildReport(const DetectorContext &ctx, const DetectorConfig &cfg,
            const DetectorState &state,
            const std::vector<LineReport> &lines,
            const RateScanState &scan, std::uint64_t total_cycles)
{
    DetectionReport report;
    report.totalRecords = state.totalRecords;
    report.droppedPcFilter = state.droppedPc;
    report.droppedStackData = state.droppedStack;
    report.seconds = sim::representedSeconds(total_cycles);
    report.repairRequested = scan.repairRequested;
    report.repairTriggerCycle = scan.repairTriggerCycle;
    report.detectorCycles =
        state.totalRecords * std::uint64_t(ctx.timing.detectorPerRecord);

    for (const LineReport &line : lines) {
        const double rate =
            report.seconds > 0.0
                ? double(line.records) * cfg.sav / report.seconds
                : 0.0;
        if (!(rate >= cfg.rateThreshold)) // a NaN threshold reports none
            continue;
        LineReport &lr = report.lines.emplace_back(line);
        lr.hitmRate = rate;
        const std::uint64_t classified = lr.tsEvents + lr.fsEvents;
        if (classified < cfg.minClassifiedEvents ||
                double(classified) <
                    cfg.minClassifiedFraction * double(lr.records)) {
            lr.type = ContentionType::Unknown;
        } else if (lr.fsEvents > lr.tsEvents) {
            lr.type = ContentionType::FalseSharing;
        } else {
            lr.type = ContentionType::TrueSharing;
        }
    }

    // Tie-break equal rates on location so the report order is stable
    // across runs and identical between live and trace-replayed passes.
    std::sort(report.lines.begin(), report.lines.end(),
              [](const LineReport &a, const LineReport &b) {
                  if (a.hitmRate != b.hitmRate)
                      return a.hitmRate > b.hitmRate;
                  return a.location < b.location;
              });

    // PCs handed to LASERREPAIR: hot application-code PCs. Only memory
    // operations can contend, so non-memory PCs (record-skid artifacts)
    // are excluded before the static analysis sees them.
    if (scan.repairRequested) {
        std::uint64_t max_records = 0;
        for (const DetectorState::PcStats &ps : state.pcStats)
            max_records = std::max(max_records, ps.records);
        for (std::uint32_t index = 0; index < state.pcStats.size();
             ++index) {
            const DetectorState::PcStats &ps = state.pcStats[index];
            if (ps.records == 0 || ps.records * 4 < max_records)
                continue;
            const isa::MemAccessInfo mi = ctx.sets.lookup(index);
            if (!mi.isLoad && !mi.isStore)
                continue;
            const isa::Segment *seg = ctx.prog.segmentOf(index);
            if (seg && !seg->isLibrary)
                report.repairPcs.push_back(index);
        }
        std::sort(report.repairPcs.begin(), report.repairPcs.end());
    }
    return report;
}

} // namespace laser::detect
