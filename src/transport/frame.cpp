#include "transport/frame.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>

#include "transport/wire.hpp"
#include "util/hash.hpp"

namespace p2prank::transport {

namespace {

// Exception-free little-endian reader: a corrupted length field must not
// turn into a throw (or worse, a huge allocation) on the delivery path.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool read_u32le(std::uint32_t& out) noexcept {
    if (bytes_.size() - pos_ < 4) return false;
    std::uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap32(v);
    }
    pos_ += 4;
    out = v;
    return true;
  }

  bool read_varint(std::uint64_t& out) noexcept {
    std::uint64_t value = 0;
    int shift = 0;
    while (pos_ < bytes_.size() && shift < 64) {
      const std::uint8_t byte = bytes_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        out = value;
        return true;
      }
      shift += 7;
    }
    return false;  // truncated or over-long
  }

  bool read_double(double& out) noexcept {
    if (bytes_.size() - pos_ < 8) return false;
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    pos_ += 8;
    out = std::bit_cast<double>(v);
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_double_le(std::vector<std::uint8_t>& out, double d) {
  put_u64le(out, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) {
  return util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace

const char* frame_verdict_name(FrameVerdict v) noexcept {
  switch (v) {
    case FrameVerdict::kOk:
      return "ok";
    case FrameVerdict::kTruncated:
      return "truncated";
    case FrameVerdict::kBadMagic:
      return "bad-magic";
    case FrameVerdict::kBadVersion:
      return "bad-version";
    case FrameVerdict::kBadChecksum:
      return "bad-checksum";
    case FrameVerdict::kBadCount:
      return "bad-count";
    case FrameVerdict::kBadIndexOrder:
      return "bad-index-order";
    case FrameVerdict::kBadScore:
      return "bad-score";
  }
  return "unknown";
}

bool entries_valid(
    std::span<const std::pair<std::uint32_t, double>> entries) noexcept {
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [index, score] : entries) {
    if (!first && index <= prev) return false;
    if (!std::isfinite(score) || score < 0.0) return false;
    prev = index;
    first = false;
  }
  return true;
}

void encode_frame(const FrameHeader& header,
                  std::span<const std::pair<std::uint32_t, double>> entries,
                  std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(32 + entries.size() * 10);
  put_u32le(out, kFrameMagic);
  put_varint(out, kFrameVersion);
  put_varint(out, header.src);
  put_varint(out, header.dst);
  put_varint(out, header.epoch);
  put_varint(out, header.record_count);
  put_varint(out, entries.size());
  std::uint32_t prev = 0;
  bool first = true;
  for (const auto& [index, score] : entries) {
    // Delta-code strictly ascending indices (first entry stores the index
    // itself; later entries store index - prev, always >= 1).
    put_varint(out, first ? index : index - prev);
    put_double_le(out, score);
    prev = index;
    first = false;
  }
  const std::uint64_t sum =
      frame_checksum(std::span<const std::uint8_t>(out.data(), out.size()));
  put_u64le(out, sum);
}

std::vector<std::uint8_t> encode_frame(
    const FrameHeader& header,
    std::span<const std::pair<std::uint32_t, double>> entries) {
  std::vector<std::uint8_t> out;
  encode_frame(header, entries, out);
  return out;
}

namespace {

/// Walk `count` (delta, score) entries, checking each, and hand every
/// valid one to `emit`. Returns kOk only when all were valid.
template <typename Emit>
FrameVerdict read_entries(FrameReader& reader, std::uint64_t count, Emit&& emit) {
  std::uint64_t index = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    double score = 0.0;
    if (!reader.read_varint(delta) || !reader.read_double(score)) {
      return FrameVerdict::kTruncated;
    }
    index += delta;
    if (i > 0 && delta == 0) return FrameVerdict::kBadIndexOrder;
    if (index > UINT32_MAX) return FrameVerdict::kBadIndexOrder;
    if (!std::isfinite(score) || score < 0.0) return FrameVerdict::kBadScore;
    emit(static_cast<std::uint32_t>(index), score);
  }
  if (reader.remaining() != 0) return FrameVerdict::kBadCount;
  return FrameVerdict::kOk;
}

}  // namespace

FrameVerdict decode_frame(std::span<const std::uint8_t> bytes,
                          DecodedFrame& out) {
  // Checksum first: once it matches, the remaining fields are exactly what
  // the encoder wrote and parsing cannot go wrong; if it does not match we
  // never trust a length field.
  if (bytes.size() < 12) return FrameVerdict::kTruncated;
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - 8, 8);
  if constexpr (std::endian::native == std::endian::big) {
    trailer = __builtin_bswap64(trailer);
  }
  const std::uint64_t expect = frame_checksum(bytes.first(bytes.size() - 8));
  FrameReader reader(bytes.first(bytes.size() - 8));
  std::uint32_t magic = 0;
  if (!reader.read_u32le(magic)) return FrameVerdict::kTruncated;
  if (magic != kFrameMagic) return FrameVerdict::kBadMagic;
  std::uint64_t version = 0;
  if (!reader.read_varint(version)) return FrameVerdict::kTruncated;
  if (version != kFrameVersion) return FrameVerdict::kBadVersion;
  if (trailer != expect) return FrameVerdict::kBadChecksum;
  FrameHeader header;
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  if (!reader.read_varint(src) || !reader.read_varint(dst) ||
      !reader.read_varint(header.epoch) || !reader.read_varint(header.record_count)) {
    return FrameVerdict::kTruncated;
  }
  header.src = static_cast<std::uint32_t>(src);
  header.dst = static_cast<std::uint32_t>(dst);
  std::uint64_t count = 0;
  if (!reader.read_varint(count)) return FrameVerdict::kTruncated;
  // Each entry is at least 9 bytes (1-byte delta + 8-byte score).
  if (count > reader.remaining() / 9) return FrameVerdict::kBadCount;
  // Validate every entry before touching `out`, then decode the (now known
  // good) entries straight into its reused vector.
  const FrameReader entries_start = reader;
  const FrameVerdict verdict =
      read_entries(reader, count, [](std::uint32_t, double) {});
  if (verdict != FrameVerdict::kOk) return verdict;
  reader = entries_start;
  out.header = header;
  out.entries.clear();
  out.entries.reserve(count);
  static_cast<void>(read_entries(reader, count, [&](std::uint32_t index, double score) {
    out.entries.emplace_back(index, score);
  }));
  return FrameVerdict::kOk;
}

}  // namespace p2prank::transport
