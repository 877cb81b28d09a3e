#include "iblt/iblt.h"

#include <deque>

#include "util/check.h"

namespace rsr {

size_t IbltConfig::RoundedCells() const {
  RSR_CHECK(q >= 1);
  const size_t q_sz = static_cast<size_t>(q);
  size_t m = cells == 0 ? q_sz : cells;
  if (m % q_sz != 0) m += q_sz - (m % q_sz);
  return m;
}

size_t IbltConfig::CellBits() const {
  return static_cast<size_t>(count_bits) + 64 +
         static_cast<size_t>(checksum_bits) + static_cast<size_t>(value_bits);
}

size_t IbltConfig::SerializedBits() const {
  return RoundedCells() * CellBits();
}

Iblt::Iblt(const IbltConfig& config)
    : config_(config),
      m_(config.RoundedCells()),
      value_bytes_((static_cast<size_t>(config.value_bits) + 7) / 8),
      indexer_(config.seed, config.q, m_),
      checksum_(config.seed ^ 0x636865636bULL),  // "check" tag
      counts_(m_, 0),
      key_xor_(m_, 0),
      check_xor_(m_, 0),
      values_(m_ * value_bytes_, 0) {
  RSR_CHECK(config.value_bits >= 0);
  RSR_CHECK(config.checksum_bits >= 1 && config.checksum_bits <= 64);
  RSR_CHECK(config.count_bits >= 2 && config.count_bits <= 64);
}

void Iblt::Apply(uint64_t key, const std::vector<uint8_t>& value,
                 int direction) {
  RSR_CHECK_MSG(value.size() == value_bytes_, "value width mismatch");
  const uint64_t check = checksum_.Truncated(key, config_.checksum_bits);
  for (int j = 0; j < config_.q; ++j) {
    const size_t cell = indexer_.Cell(key, j);
    counts_[cell] += direction;
    key_xor_[cell] ^= key;
    check_xor_[cell] ^= check;
    uint8_t* dst = values_.data() + cell * value_bytes_;
    for (size_t b = 0; b < value_bytes_; ++b) dst[b] ^= value[b];
  }
}

void Iblt::Insert(uint64_t key, const std::vector<uint8_t>& value) {
  Apply(key, value, +1);
}

void Iblt::Erase(uint64_t key, const std::vector<uint8_t>& value) {
  Apply(key, value, -1);
}

void Iblt::Subtract(const Iblt& other) {
  RSR_CHECK(m_ == other.m_);
  RSR_CHECK(config_.q == other.config_.q);
  RSR_CHECK(config_.value_bits == other.config_.value_bits);
  RSR_CHECK(config_.checksum_bits == other.config_.checksum_bits);
  RSR_CHECK(config_.seed == other.config_.seed);
  for (size_t i = 0; i < m_; ++i) {
    counts_[i] -= other.counts_[i];
    key_xor_[i] ^= other.key_xor_[i];
    check_xor_[i] ^= other.check_xor_[i];
  }
  for (size_t i = 0; i < values_.size(); ++i) values_[i] ^= other.values_[i];
}

bool Iblt::IsEmpty() const {
  for (size_t i = 0; i < m_; ++i) {
    if (counts_[i] != 0 || key_xor_[i] != 0 || check_xor_[i] != 0)
      return false;
  }
  for (uint8_t b : values_) {
    if (b != 0) return false;
  }
  return true;
}

IbltDecodeResult Iblt::Decode(size_t max_entries) const {
  IbltDecodeResult result;
  // Peeling mutates the table, so work on a copy (tables are O(k) cells).
  Iblt work = *this;

  std::deque<size_t> queue;
  std::vector<char> queued(m_, 0);
  auto maybe_enqueue = [&](size_t cell) {
    if (!queued[cell]) {
      queued[cell] = 1;
      queue.push_back(cell);
    }
  };
  for (size_t i = 0; i < m_; ++i) maybe_enqueue(i);

  while (!queue.empty()) {
    const size_t cell = queue.front();
    queue.pop_front();
    queued[cell] = 0;

    const int64_t count = work.counts_[cell];
    if (count != 1 && count != -1) continue;
    const uint64_t key = work.key_xor_[cell];
    const uint64_t expect =
        work.checksum_.Truncated(key, config_.checksum_bits);
    if (work.check_xor_[cell] != expect) continue;  // not pure

    IbltEntry entry;
    entry.key = key;
    entry.sign = static_cast<int>(count);
    entry.value.assign(work.values_.begin() +
                           static_cast<std::ptrdiff_t>(cell * value_bytes_),
                       work.values_.begin() +
                           static_cast<std::ptrdiff_t>((cell + 1) *
                                                       value_bytes_));
    // Remove the entry from the table; re-examine every touched cell.
    work.Apply(key, entry.value, -entry.sign);
    for (int j = 0; j < config_.q; ++j) maybe_enqueue(indexer_.Cell(key, j));

    result.entries.push_back(std::move(entry));
    if (max_entries > 0 && result.entries.size() > max_entries) {
      result.success = false;
      return result;
    }
  }

  result.success = work.IsEmpty();
  return result;
}

void Iblt::Serialize(BitWriter* out) const {
  for (size_t i = 0; i < m_; ++i) {
    out->WriteBits(static_cast<uint64_t>(counts_[i]), config_.count_bits);
    out->WriteBits(key_xor_[i], 64);
    out->WriteBits(check_xor_[i], config_.checksum_bits);
    const uint8_t* src = values_.data() + i * value_bytes_;
    int remaining = config_.value_bits;
    size_t byte = 0;
    while (remaining > 0) {
      const int take = remaining < 8 ? remaining : 8;
      out->WriteBits(src[byte], take);
      remaining -= take;
      ++byte;
    }
  }
}

std::optional<Iblt> Iblt::Deserialize(const IbltConfig& config,
                                      BitReader* in) {
  // The cell count is often claimed by the wire: refuse one the reader
  // cannot back before allocating a single cell (cells first, so that
  // rounding it up cannot overflow).
  if (!WireCountFits(config.cells, config.CellBits(), in->bits_remaining()) ||
      !WireCountFits(config.RoundedCells(), config.CellBits(),
                     in->bits_remaining())) {
    return std::nullopt;
  }
  Iblt table(config);
  const int count_bits = config.count_bits;
  for (size_t i = 0; i < table.m_; ++i) {
    uint64_t raw = 0;
    if (!in->ReadBits(count_bits, &raw)) return std::nullopt;
    // Sign-extend the two's-complement count field.
    int64_t count = static_cast<int64_t>(raw);
    if (count_bits < 64 && (raw >> (count_bits - 1)) & 1) {
      count -= int64_t{1} << count_bits;
    }
    table.counts_[i] = count;
    if (!in->ReadBits(64, &table.key_xor_[i])) return std::nullopt;
    if (!in->ReadBits(config.checksum_bits, &table.check_xor_[i]))
      return std::nullopt;
    uint8_t* dst = table.values_.data() + i * table.value_bytes_;
    int remaining = config.value_bits;
    size_t byte = 0;
    while (remaining > 0) {
      const int take = remaining < 8 ? remaining : 8;
      uint64_t v = 0;
      if (!in->ReadBits(take, &v)) return std::nullopt;
      dst[byte] = static_cast<uint8_t>(v);
      remaining -= take;
      ++byte;
    }
  }
  return table;
}

}  // namespace rsr
