#include "sim/protocol.h"

#include <bit>

#include "sim/protocol_dragon.h"
#include "sim/protocol_mesi.h"

namespace laser::sim {

const char *
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Mesi:   return "mesi";
      case ProtocolKind::Dragon: return "dragon";
    }
    return "???";
}

bool
parseProtocol(const std::string &name, ProtocolKind *out)
{
    if (name == "mesi") {
        *out = ProtocolKind::Mesi;
        return true;
    }
    if (name == "dragon") {
        *out = ProtocolKind::Dragon;
        return true;
    }
    return false;
}

CoherenceProtocol::CoherenceProtocol(int num_cores,
                                     const CacheGeometry &geometry)
    : numCores_(num_cores),
      geometry_(geometry.valid() ? geometry : CacheGeometry{}),
      lineShift_(static_cast<std::uint32_t>(
          std::countr_zero(geometry_.lineBytes))),
      filter_(static_cast<std::size_t>(num_cores) * kFilterSlots)
{
}

std::unique_ptr<CoherenceProtocol>
makeProtocol(ProtocolKind kind, int num_cores,
             const CacheGeometry &geometry)
{
    switch (kind) {
      case ProtocolKind::Mesi:
        return std::make_unique<MesiDirectory>(num_cores, geometry);
      case ProtocolKind::Dragon:
        return std::make_unique<DragonBus>(num_cores, geometry);
    }
    return std::make_unique<MesiDirectory>(num_cores, geometry);
}

} // namespace laser::sim
