// Output checks. Each one is either computed by the benchmark itself or is
// a property the reconciliation method must have; none compares against
// recon::DrivePair or a stored copy of an earlier output. Every check
// returns "" on a pass and a short reason on a failure.

#ifndef SYNCBENCH_CHECKS_H_
#define SYNCBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/point.h"

namespace syncbench {

/// A 2-D point with coordinates below 2^32 packed into one word.
uint64_t Pack(const rsr::Point& p);
rsr::Point Unpack(uint64_t packed);
std::vector<uint64_t> PackAll(const rsr::PointSet& points);

/// Multiset of packed points: value -> multiplicity.
using Counts = std::unordered_map<uint64_t, int64_t>;
Counts CountsOf(const std::vector<uint64_t>& packed);

/// splitmix64 finaliser: a well-mixed 64-bit hash of one word.
uint64_t MixPoint(uint64_t packed);

/// Exact-key protocols (full-transfer, exact-iblt, riblt-oneshot): the
/// reconciled set equals the client's set as a multiset.
std::string CheckExact(const std::vector<uint64_t>& client,
                       const std::vector<uint64_t>& result);

/// The public shifted grid a quadtree session ran on: its per-coordinate
/// shift and the universe side Δ.
struct GridView {
  std::vector<int64_t> shift;
  int64_t delta = 0;
};

/// quadtree / quadtree-adaptive, given a result that reports success at
/// `level`:
///  * |S'_B| = |S_A|;
///  * S'_B and the client's set have identical level-`level` cell
///    histograms on the shifted grid;
///  * every point of S'_B is a point of the pinned canonical set (as a
///    multiset) or the representative (clamped centre) of its cell.
std::string CheckQuadtree(const GridView& grid, int level,
                          const std::vector<uint64_t>& client,
                          const std::vector<uint64_t>& result,
                          const Counts& canonical);

/// gap-lattice: every client point has a point of S'_B within L1 distance
/// r2 (brute force).
std::string CheckGap(const std::vector<uint64_t>& client,
                     const std::vector<uint64_t>& result, double r2);

/// Quadtree cell diameter (L2) at `level` in 2-D: 2^level * sqrt(2).
double CellDiameter(int level);

}  // namespace syncbench

#endif  // SYNCBENCH_CHECKS_H_
