#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace syncbench {

uint64_t Pack(const rsr::Point& p) {
  return (static_cast<uint64_t>(p[0]) << 32) | static_cast<uint64_t>(p[1]);
}

rsr::Point Unpack(uint64_t packed) {
  return rsr::Point{static_cast<int64_t>(packed >> 32),
                    static_cast<int64_t>(packed & 0xffffffffULL)};
}

std::vector<uint64_t> PackAll(const rsr::PointSet& points) {
  std::vector<uint64_t> out;
  out.reserve(points.size());
  for (const rsr::Point& p : points) out.push_back(Pack(p));
  return out;
}

Counts CountsOf(const std::vector<uint64_t>& packed) {
  Counts counts;
  counts.reserve(packed.size());
  for (uint64_t p : packed) ++counts[p];
  return counts;
}

uint64_t MixPoint(uint64_t packed) {
  // splitmix64 finaliser.
  uint64_t z = packed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string CheckExact(const std::vector<uint64_t>& client,
                       const std::vector<uint64_t>& result) {
  if (client.size() != result.size()) return "exact: size differs";
  std::vector<uint64_t> a = client;
  std::vector<uint64_t> b = result;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b ? "" : "exact: multiset differs";
}

namespace {

uint64_t CellKey(const GridView& grid, uint64_t packed, int level) {
  const int64_t x = static_cast<int64_t>(packed >> 32);
  const int64_t y = static_cast<int64_t>(packed & 0xffffffffULL);
  const uint64_t cx = static_cast<uint64_t>((x + grid.shift[0]) >> level);
  const uint64_t cy = static_cast<uint64_t>((y + grid.shift[1]) >> level);
  return (cx << 32) | cy;
}

uint64_t Representative(const GridView& grid, uint64_t cell, int level) {
  const int64_t side = int64_t{1} << level;
  const int64_t c[2] = {static_cast<int64_t>(cell >> 32),
                        static_cast<int64_t>(cell & 0xffffffffULL)};
  uint64_t coords[2];
  for (int i = 0; i < 2; ++i) {
    const int64_t v = std::clamp<int64_t>(
        c[i] * side + side / 2 - grid.shift[static_cast<size_t>(i)], 0,
        grid.delta - 1);
    coords[i] = static_cast<uint64_t>(v);
  }
  return (coords[0] << 32) | coords[1];
}

}  // namespace

std::string CheckQuadtree(const GridView& grid, int level,
                          const std::vector<uint64_t>& client,
                          const std::vector<uint64_t>& result,
                          const Counts& canonical) {
  if (level < 0 || level > 62) return "quadtree: no decoded level";
  if (result.size() != client.size()) return "quadtree: |S'_B| != |S_A|";
  Counts histogram;
  for (uint64_t p : client) ++histogram[CellKey(grid, p, level)];
  Counts kept;  // result points that are not their cell's representative
  for (uint64_t p : result) {
    const uint64_t cell = CellKey(grid, p, level);
    auto it = histogram.find(cell);
    if (it == histogram.end() || it->second == 0) {
      return "quadtree: cell histogram differs";
    }
    --it->second;
    if (Representative(grid, cell, level) != p) ++kept[p];
  }
  for (const auto& [p, count] : kept) {
    auto it = canonical.find(p);
    if (it == canonical.end() || it->second < count) {
      return "quadtree: point neither canonical nor a representative";
    }
  }
  return "";
}

std::string CheckGap(const std::vector<uint64_t>& client,
                     const std::vector<uint64_t>& result, double r2) {
  for (uint64_t a : client) {
    const int64_t ax = static_cast<int64_t>(a >> 32);
    const int64_t ay = static_cast<int64_t>(a & 0xffffffffULL);
    bool covered = false;
    for (uint64_t b : result) {
      const int64_t bx = static_cast<int64_t>(b >> 32);
      const int64_t by = static_cast<int64_t>(b & 0xffffffffULL);
      if (static_cast<double>(std::llabs(ax - bx) + std::llabs(ay - by)) <=
          r2) {
        covered = true;
        break;
      }
    }
    if (!covered) return "gap: client point not covered within r2";
  }
  return "";
}

double CellDiameter(int level) {
  return std::ldexp(1.0, level) * std::sqrt(2.0);
}

}  // namespace syncbench
