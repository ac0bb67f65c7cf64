#include "trace/spatial.hh"

#include <sstream>

namespace neurocube
{

namespace
{

/** Element-wise a += b (a grows to fit). */
void
accumulate(std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    if (a.size() < b.size())
        a.resize(b.size(), 0);
    for (size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

uint64_t
sumOf(const std::vector<uint64_t> &v)
{
    uint64_t total = 0;
    for (uint64_t x : v)
        total += x;
    return total;
}

void
appendArray(std::ostringstream &os, const char *name,
            const std::vector<uint64_t> &v)
{
    os << "\"" << name << "\": [";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

} // namespace

SpatialSnapshot &
SpatialSnapshot::operator+=(const SpatialSnapshot &other)
{
    accumulate(linkFlits, other.linkFlits);
    accumulate(linkStalls, other.linkStalls);
    accumulate(linkOccupancy, other.linkOccupancy);
    accumulate(vaultBytes, other.vaultBytes);
    accumulate(vaultQueueTicks, other.vaultQueueTicks);
    accumulate(peMacOps, other.peMacOps);
    accumulate(nodeLateral, other.nodeLateral);
    accumulate(nodeLocal, other.nodeLocal);
    return *this;
}

uint64_t
SpatialSnapshot::totalLinkFlits() const
{
    return sumOf(linkFlits);
}

uint64_t
SpatialSnapshot::totalVaultBytes() const
{
    return sumOf(vaultBytes);
}

uint64_t
SpatialSnapshot::totalPeMacOps() const
{
    return sumOf(peMacOps);
}

std::string
spatialSnapshotJson(const SpatialTopology &topology,
                    const SpatialSnapshot &snapshot, uint64_t cycles)
{
    std::ostringstream os;
    os << "{\"nodes\": " << topology.numNodes
       << ", \"mesh_width\": " << topology.meshWidth
       << ", \"vaults\": " << topology.numVaults
       << ", \"pes\": " << topology.numPes
       << ", \"cycles\": " << cycles;
    os << ", \"vault_node\": [";
    for (size_t i = 0; i < topology.vaultNode.size(); ++i)
        os << (i ? ", " : "") << topology.vaultNode[i];
    os << "]";

    os << ", \"links\": [";
    const size_t links = topology.links.size();
    for (size_t i = 0; i < links; ++i) {
        auto at = [&](const std::vector<uint64_t> &v) {
            return i < v.size() ? v[i] : 0;
        };
        os << (i ? ", " : "") << "{\"src\": " << topology.links[i].src
           << ", \"dst\": " << topology.links[i].dst
           << ", \"flits\": " << at(snapshot.linkFlits)
           << ", \"credit_stalls\": " << at(snapshot.linkStalls)
           << ", \"occupancy_sum\": " << at(snapshot.linkOccupancy)
           << "}";
    }
    os << "]";

    os << ", ";
    appendArray(os, "vault_bytes", snapshot.vaultBytes);
    os << ", ";
    appendArray(os, "vault_queue_ticks", snapshot.vaultQueueTicks);
    os << ", ";
    appendArray(os, "pe_mac_ops", snapshot.peMacOps);
    os << ", ";
    appendArray(os, "node_lateral", snapshot.nodeLateral);
    os << ", ";
    appendArray(os, "node_local", snapshot.nodeLocal);

    os << ", \"link_flit_sum\": " << snapshot.totalLinkFlits()
       << ", \"vault_byte_sum\": " << snapshot.totalVaultBytes()
       << ", \"pe_mac_sum\": " << snapshot.totalPeMacOps() << "}";
    return os.str();
}

} // namespace neurocube
