/**
 * @file
 * 2D geometry helpers: rectangles and tile maps.
 *
 * The Neurocube partitions every layer's input and output images into
 * per-vault tiles (paper Fig. 10). A TileMap describes one such grid
 * partition and answers the two questions the PNGs need: which node
 * owns a pixel, and what is the pixel's local (row-major-within-tile)
 * index, which determines the destination MAC and neuron group.
 */

#ifndef NEUROCUBE_COMMON_GEOMETRY_HH
#define NEUROCUBE_COMMON_GEOMETRY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace neurocube
{

/** An axis-aligned rectangle of pixels. */
struct Rect
{
    int32_t x0 = 0;
    int32_t y0 = 0;
    int32_t w = 0;
    int32_t h = 0;

    /** Number of pixels. */
    uint64_t count() const { return uint64_t(w) * uint64_t(h); }

    /** True when (x, y) lies inside. */
    bool
    contains(int32_t x, int32_t y) const
    {
        return x >= x0 && x < x0 + w && y >= y0 && y < y0 + h;
    }

    /** Row-major index of (x, y) within this rectangle. */
    uint64_t
    localIndex(int32_t x, int32_t y) const
    {
        nc_assert(contains(x, y), "pixel (%d,%d) outside rect", x, y);
        return uint64_t(y - y0) * uint64_t(w) + uint64_t(x - x0);
    }

    /** True when both rectangles are non-empty and share a pixel. */
    bool
    overlaps(const Rect &other) const
    {
        return count() > 0 && other.count() > 0 && x0 < other.x0 + other.w
            && other.x0 < x0 + w && y0 < other.y0 + other.h
            && other.y0 < y0 + h;
    }

    /** Grow by margin on every side, clipped to @p bounds. */
    Rect
    expandedWithin(int32_t margin, const Rect &bounds) const
    {
        int32_t nx0 = std::max(x0 - margin, bounds.x0);
        int32_t ny0 = std::max(y0 - margin, bounds.y0);
        int32_t nx1 = std::min(x0 + w + margin, bounds.x0 + bounds.w);
        int32_t ny1 = std::min(y0 + h + margin, bounds.y0 + bounds.h);
        return {nx0, ny0, nx1 - nx0, ny1 - ny0};
    }

    bool operator==(const Rect &other) const = default;
};

/**
 * A grid partition of a rectangle across nodes.
 *
 * Tiles are indexed row-major across the grid: node = ty * gridW + tx.
 * Degenerate tiles (zero pixels, when there are more nodes than rows
 * or columns) are allowed; such nodes simply own no neurons.
 */
class TileMap
{
  public:
    TileMap() = default;

    /**
     * Build a near-equal grid partition.
     *
     * @param area rectangle to partition
     * @param grid_w grid columns
     * @param grid_h grid rows
     */
    static TileMap
    grid(const Rect &area, unsigned grid_w, unsigned grid_h)
    {
        TileMap map;
        map.area_ = area;
        map.gridW_ = grid_w;
        map.gridH_ = grid_h;
        map.xBounds_ = splitAxis(area.x0, area.w, grid_w);
        map.yBounds_ = splitAxis(area.y0, area.h, grid_h);
        return map;
    }

    /** The node owning pixel (x, y). */
    unsigned
    owner(int32_t x, int32_t y) const
    {
        unsigned tx = axisIndex(xBounds_, x);
        unsigned ty = axisIndex(yBounds_, y);
        return ty * gridW_ + tx;
    }

    /** The tile rectangle of a node. */
    Rect
    tile(unsigned node) const
    {
        unsigned tx = node % gridW_;
        unsigned ty = node / gridW_;
        nc_assert(ty < gridH_, "node %u outside %ux%u grid", node,
                  gridW_, gridH_);
        return {xBounds_[tx], yBounds_[ty],
                xBounds_[tx + 1] - xBounds_[tx],
                yBounds_[ty + 1] - yBounds_[ty]};
    }

    /** Local row-major index of (x, y) within its owner tile. */
    uint64_t
    localIndex(int32_t x, int32_t y) const
    {
        return tile(owner(x, y)).localIndex(x, y);
    }

    /** Number of nodes (grid cells). */
    unsigned numNodes() const { return gridW_ * gridH_; }

    /** The partitioned area. */
    const Rect &area() const { return area_; }

  private:
    static std::vector<int32_t>
    splitAxis(int32_t origin, int32_t length, unsigned parts)
    {
        std::vector<int32_t> bounds(parts + 1);
        for (unsigned i = 0; i <= parts; ++i) {
            bounds[i] = origin
                + int32_t((uint64_t(length) * i) / parts);
        }
        return bounds;
    }

    static unsigned
    axisIndex(const std::vector<int32_t> &bounds, int32_t v)
    {
        nc_assert(!bounds.empty() && v >= bounds.front()
                      && v < bounds.back(),
                  "coordinate %d outside tile map", v);
        // Tiles are near-equal; start from the proportional guess.
        unsigned n = unsigned(bounds.size()) - 1;
        unsigned idx = unsigned((uint64_t(v - bounds.front()) * n)
                                / uint64_t(bounds.back()
                                           - bounds.front()));
        if (idx >= n)
            idx = n - 1;
        while (v < bounds[idx])
            --idx;
        while (v >= bounds[idx + 1])
            ++idx;
        return idx;
    }

    Rect area_;
    unsigned gridW_ = 1;
    unsigned gridH_ = 1;
    std::vector<int32_t> xBounds_{0, 0};
    std::vector<int32_t> yBounds_{0, 0};
};

} // namespace neurocube

#endif // NEUROCUBE_COMMON_GEOMETRY_HH
