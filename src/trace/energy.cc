#include "trace/energy.hh"

namespace neurocube
{

const char *
energyEventKindName(EnergyEventKind kind)
{
    switch (kind) {
      case EnergyEventKind::MacOp: return "mac_op";
      case EnergyEventKind::CacheRead: return "cache_read";
      case EnergyEventKind::CacheWrite: return "cache_write";
      case EnergyEventKind::BufferAccess: return "buffer_access";
      case EnergyEventKind::WeightRegRead: return "weight_reg_read";
      case EnergyEventKind::NocHop: return "noc_hop";
      case EnergyEventKind::NocLink: return "noc_link";
      case EnergyEventKind::PngOp: return "png_op";
      case EnergyEventKind::VaultXact: return "vault_xact";
      case EnergyEventKind::DramBit: return "dram_bit";
      case EnergyEventKind::KindCount: break;
    }
    return "unknown";
}

double
tracePjOf(const TraceEvent &event, const EnergyPrices &prices)
{
    const auto type = TraceEventType(event.type);
    switch (TraceComponent(event.component)) {
      case TraceComponent::Pe:
        // MacBusy's arg is the number of MACs that fired this burst;
        // CacheHit extracts `value` matches, CacheMiss scans `value`
        // entries, CacheInsert parks one entry.
        if (type == TraceEventType::MacBusy)
            return double(event.arg) * prices.macOpPj;
        if (type == TraceEventType::CacheHit ||
            type == TraceEventType::CacheMiss)
            return double(event.value) * prices.cacheAccessPj;
        if (type == TraceEventType::CacheInsert)
            return prices.cacheAccessPj;
        return 0.0;
      case TraceComponent::Router:
        if (type == TraceEventType::FlitSwitch)
            return prices.nocHopPj;
        // Stream estimate: a LinkFlit event carries no link length,
        // so it prices as one unit-distance segment. Exact distance-
        // weighted accounting is the registry's NocLink counter.
        if (type == TraceEventType::LinkFlit)
            return prices.nocLinkPj;
        return 0.0;
      case TraceComponent::Png:
        // PngIssue's value counts elements issued in this tick.
        if (type == TraceEventType::PngIssue)
            return double(event.value) * prices.pngOpPj;
        return 0.0;
      case TraceComponent::Vault:
        // DramWord's value is the bit count of the packed burst; it
        // pays the DRAM-die toll, the logic-die toll, and one
        // vault-controller transaction.
        if (type == TraceEventType::DramWord)
            return double(event.value) *
                       (prices.dramPjPerBit + prices.vaultLogicPjPerBit) +
                   prices.vaultXactPj;
        return 0.0;
      default:
        return 0.0;
    }
}

} // namespace neurocube
