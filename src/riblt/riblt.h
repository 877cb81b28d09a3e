// Robust Invertible Bloom Lookup Table (extension module).
//
// The RIBLT is the 2014 paper's future-work direction, formalised in the
// 2018 follow-up: an IBLT variant that tolerates *duplicate keys with
// different values* — exactly what happens when locality-sensitive keys
// collide for near-but-not-equal points. Differences from the plain IBLT:
//
//  1. Cells keep integer SUMS (not XORs) of keys, key checksums and
//     per-coordinate values, so c copies of one key are recognisable:
//     a cell is peelable when its key sum is divisible by its count C and
//     the checksum sum equals C · checksum(key_sum / C).
//  2. Peeling runs breadth-first (FIFO over cells), which is what bounds
//     error propagation to O(1) extra cells per residual error in the
//     sparse regime (cells > q(q-1) · entries).
//  3. Extracted values are the coordinate-wise average of the colliding
//     values, randomly rounded back into [0, Δ)^d (each extracted copy is
//     rounded independently).
//  4. Matched same-key pairs from the two parties cancel in the key/count/
//     checksum fields but may leave a VALUE residue in their cells; that
//     residue is silently absorbed into later extractions — the "error
//     propagation" the protocol's analysis bounds. Decode success is
//     therefore judged on counts/keys/checksums only.

#ifndef RSR_RIBLT_RIBLT_H_
#define RSR_RIBLT_RIBLT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "geometry/point.h"
#include "hash/checksum.h"
#include "hash/family.h"
#include "util/bitio.h"
#include "util/random.h"

namespace rsr {

/// Static configuration; both parties must agree (derived from public
/// parameters).
struct RibltConfig {
  size_t cells = 0;       ///< Rounded up to a multiple of q. The robust
                          ///< analysis wants cells > q(q-1) · entries.
  int q = 3;              ///< Hash functions / partitions.
  Universe universe;      ///< Value domain [Δ]^d (fixes field widths).
  size_t max_entries = 0; ///< Upper bound on inserted+erased pairs (fixes
                          ///< sum-field widths; overflow is the caller's
                          ///< responsibility to avoid).
  int count_bits = 16;
  uint64_t seed = 0;

  size_t RoundedCells() const;
  int KeySumBits() const;    ///< Width of the key / checksum sum fields.
  int CoordSumBits() const;  ///< Width of one value-coordinate sum field.
  size_t SerializedBits() const;
};

/// The largest max_entries over `universe` whose sum fields stay below
/// their width caps. Beyond it a sum could overflow its field, so no legal
/// table claims more entries.
uint64_t RibltMaxEntries(const Universe& universe);

/// One extracted entry: `copies` identical keys collapsed into one record;
/// `values` holds one independently rounded point per copy.
struct RibltEntry {
  uint64_t key = 0;
  std::vector<Point> values;  ///< size == copies.
  int sign = 0;               ///< +1 inserted side, -1 erased side.
};

struct RibltDecodeResult {
  bool success = false;
  std::vector<RibltEntry> entries;
};

class Riblt {
 public:
  explicit Riblt(const RibltConfig& config);

  const RibltConfig& config() const { return config_; }
  size_t cells() const { return m_; }

  /// Adds / removes one (key, point) pair. The point must lie in the
  /// configured universe.
  void Insert(uint64_t key, const Point& value);
  void Erase(uint64_t key, const Point& value);

  /// Cell-wise this -= other (configs must match).
  void Subtract(const Riblt& other);

  /// Breadth-first robust peeling. `rng` drives the randomised rounding of
  /// averaged values. If max_entries > 0, aborts once more than that many
  /// pairs (counting copies) have been extracted.
  RibltDecodeResult Decode(Rng* rng, size_t max_entries = 0) const;

  /// True when counts, key sums and checksum sums are all zero (value
  /// residue from matched noisy pairs is permitted).
  bool IsStructurallyEmpty() const;

  void Serialize(BitWriter* out) const;
  static std::optional<Riblt> Deserialize(const RibltConfig& config,
                                          BitReader* in);

 private:
  void Apply(uint64_t key, const Point& value, int direction);
  void RemoveGroup(uint64_t key, int64_t count,
                   const std::vector<int64_t>& value_sum);

  RibltConfig config_;
  size_t m_;
  int d_;
  IndexHasher indexer_;
  Checksum checksum_;
  std::vector<int64_t> counts_;
  std::vector<__int128> key_sums_;
  std::vector<__int128> check_sums_;
  std::vector<int64_t> value_sums_;  // m_ * d_, cell-major
};

}  // namespace rsr

#endif  // RSR_RIBLT_RIBLT_H_
