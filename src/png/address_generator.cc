#include "png/address_generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neurocube
{

void
AddressGenerator::configure(const PngProgram &program)
{
    program_ = program;
    walk_.clear();
    chunks_.clear();
    chunk_ = 0;
    conn_ = 0;
    plane_ = 0;
    buffer_.clear();
    bufferPos_ = 0;
    generated_ = 0;
    totalPairs_ = 0;

    groupsPerDst_.assign(program.outTiles.numNodes(), 0);
    for (unsigned d = 0; d < program.outTiles.numNodes(); ++d) {
        groupsPerDst_[d] = uint32_t(
            (program.outTiles.tile(d).count() + macsPerPe - 1)
            / macsPerPe);
    }

    if (!program.enabled || program.outWalk.count() == 0
        || program.conns.empty()) {
        done_ = true;
        return;
    }

    // Enumerate the walked output neurons in row-major order and
    // precompute their routing coordinates.
    walk_.reserve(size_t(program.outWalk.count()));
    uint32_t walk_index = 0;
    const Rect &wr = program.outWalk;
    for (int32_t y = wr.y0; y < wr.y0 + wr.h; ++y) {
        for (int32_t x = wr.x0; x < wr.x0 + wr.w; ++x) {
            unsigned dst = program.outTiles.owner(x, y);
            uint64_t local = program.outTiles.localIndex(x, y);
            // dst is a tile index; relocate it and the home channel
            // onto mesh nodes (identity outside batch lanes).
            unsigned node =
                program.peNode.empty() ? dst : program.peNode[dst];
            unsigned home = program.homeTiles.owner(x, y);
            if (!program.homeNode.empty())
                home = program.homeNode[home];
            walk_.push_back({x, y, PeId(dst), MacId(local % macsPerPe),
                             uint32_t(local / macsPerPe), walk_index,
                             PeId(node), VaultId(home),
                             uint32_t(y) * program.outMapWidth
                                 + uint32_t(x)});
            ++walk_index;
        }
    }

    // Coalesce per (destination, group) so all of this vault's MACs
    // for one group are emitted together, connection by connection.
    // Ordering by group first interleaves destinations so boundary
    // operands reach neighbouring PEs in step with their OP-counter
    // progress instead of after this vault's own tile.
    std::stable_sort(walk_.begin(), walk_.end(),
                     [](const Walked &a, const Walked &b) {
                         if (a.group != b.group)
                             return a.group < b.group;
                         return a.dst < b.dst;
                     });
    uint32_t begin = 0;
    for (uint32_t i = 1; i <= walk_.size(); ++i) {
        if (i == walk_.size() || walk_[i].dst != walk_[begin].dst
            || walk_[i].group != walk_[begin].group) {
            chunks_.emplace_back(begin, i);
            begin = i;
        }
    }

    done_ = false;
    fillBuffer();
}

bool
AddressGenerator::owns(const Walked &entry, const Conn &conn) const
{
    if (!program_.filterByInput)
        return true;
    int32_t in_x = entry.x * int32_t(program_.strideX) + conn.dx;
    int32_t in_y = entry.y * int32_t(program_.strideY) + conn.dy;
    return program_.ownedInput.contains(in_x, in_y);
}

Addr
AddressGenerator::stateAddr(const Walked &entry, const Conn &conn) const
{
    int32_t in_x = entry.x * int32_t(program_.strideX) + conn.dx;
    int32_t in_y = entry.y * int32_t(program_.strideY) + conn.dy;
    return program_.input.addrOf(conn.inMap, in_x, in_y);
}

Addr
AddressGenerator::weightAddr(const Walked &entry,
                             uint32_t conn_index) const
{
    uint64_t column;
    if (!program_.weightConnMap.empty()) {
        column = program_.weightConnMap[conn_index];
        nc_assert(column != ~0u,
                  "weight read for unowned connection %u", conn_index);
    } else {
        nc_assert(conn_index >= program_.weightConnOffset,
                  "connection %u below weight slice offset",
                  conn_index);
        column = conn_index - program_.weightConnOffset;
    }
    if (program_.weightInterleaved && program_.weightNeuronStride) {
        uint64_t block = entry.walkIndex / macsPerPe;
        uint64_t lane = entry.walkIndex % macsPerPe;
        return program_.weights.base
            + block * program_.weightNeuronStride * macsPerPe
            + column * macsPerPe + lane;
    }
    return program_.weights.base
        + uint64_t(entry.walkIndex) * program_.weightNeuronStride
        + column;
}

void
AddressGenerator::fillBuffer()
{
    buffer_.clear();
    bufferPos_ = 0;

    unsigned planes = std::max(1u, program_.outPlanes);
    while (buffer_.empty()) {
        if (plane_ >= planes) {
            done_ = true;
            return;
        }
        auto [begin, end] = chunks_[chunk_];
        uint32_t conns = uint32_t(program_.conns.size());
        uint32_t block_end = std::min(conn_ + connBlockSize, conns);

        auto emit = [&](uint32_t c, bool weight_phase) {
            Conn conn = program_.conns[c];
            if (program_.planeInMapModulo) {
                // Channelwise plane rotation (the FSM's plane loop).
                conn.inMap = uint16_t((conn.inMap + plane_)
                                      % program_.planeInMapModulo);
            }
            for (uint32_t i = begin; i < end; ++i) {
                const Walked &entry = walk_[i];
                if (!owns(entry, conn))
                    continue;
                GeneratedOp op;
                op.dst = entry.node;
                op.mac = entry.mac;
                op.group = entry.group
                         + plane_ * groupsPerDst_[entry.dst];
                op.opId = c;
                op.neuron = plane_ * program_.outPlaneSize + entry.neuron;
                op.homeVault = entry.home;
                if (!weight_phase) {
                    op.kind = PacketKind::State;
                    op.addr = stateAddr(entry, conn);
                    if (!program_.streamWeights)
                        ++totalPairs_;
                } else {
                    op.kind = PacketKind::Weight;
                    op.addr = weightAddr(entry, c)
                            + plane_ * program_.weightPlaneStride;
                    ++totalPairs_;
                }
                buffer_.push_back(op);
            }
        };

        // States of the whole connection block first, then their
        // weights: lengthens each stream's sequential DRAM run.
        for (uint32_t c = conn_; c < block_end; ++c)
            emit(c, false);
        if (program_.streamWeights) {
            for (uint32_t c = conn_; c < block_end; ++c)
                emit(c, true);
        }

        conn_ = block_end;
        if (conn_ >= conns) {
            conn_ = 0;
            ++chunk_;
            if (chunk_ >= chunks_.size()) {
                chunk_ = 0;
                ++plane_;
            }
        }
    }
}

bool
AddressGenerator::next(GeneratedOp &op)
{
    if (done_)
        return false;
    op = buffer_[bufferPos_];
    ++generated_;
    if (++bufferPos_ >= buffer_.size())
        fillBuffer();
    return true;
}

} // namespace neurocube
