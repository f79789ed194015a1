#include "licensing/license_serialization.h"

#include <vector>

#include "persist/framing.h"

namespace geolic {
namespace {

using framing::GetScalar;
using framing::PutScalar;

constexpr uint32_t kMaxStringSize = 1u << 16;
constexpr uint32_t kMaxDimensions = 1u << 10;

void AppendString(std::string_view text, std::string* out) {
  PutScalar(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

Result<std::string> ReadString(std::string_view bytes, size_t* pos) {
  uint32_t size = 0;
  if (!GetScalar(bytes, pos, &size) || size > kMaxStringSize) {
    return Status::ParseError("bad string in license blob");
  }
  if (bytes.size() - *pos < size) {
    return Status::ParseError("truncated string in license blob");
  }
  std::string text(bytes.substr(*pos, size));
  *pos += size;
  return text;
}

}  // namespace

void AppendLicenseBinary(const License& license, std::string* out) {
  AppendString(license.id(), out);
  AppendString(license.content_key(), out);
  PutScalar(out, static_cast<int32_t>(license.type()));
  PutScalar(out, static_cast<int32_t>(license.permission()));
  PutScalar(out, license.aggregate_count());
  PutScalar(out, static_cast<uint32_t>(license.rect().dimensions()));
  for (int d = 0; d < license.rect().dimensions(); ++d) {
    const ConstraintRange& range = license.rect().dim(d);
    if (range.is_interval()) {
      const Interval& interval = range.interval();
      PutScalar(out, uint8_t{0});
      // Serialise empty intervals canonically as [0, -1].
      PutScalar(out, interval.empty() ? int64_t{0} : interval.lo());
      PutScalar(out, interval.empty() ? int64_t{-1} : interval.hi());
    } else if (range.is_multi_interval()) {
      const MultiInterval& multi = range.multi_interval();
      PutScalar(out, uint8_t{2});
      PutScalar(out, static_cast<uint32_t>(multi.piece_count()));
      for (const Interval& piece : multi.pieces()) {
        PutScalar(out, piece.lo());
        PutScalar(out, piece.hi());
      }
    } else {
      PutScalar(out, uint8_t{1});
      PutScalar(out, range.categories().mask());
    }
  }
}

Result<License> ReadLicenseBinary(std::string_view bytes, size_t* pos) {
  GEOLIC_ASSIGN_OR_RETURN(std::string id, ReadString(bytes, pos));
  GEOLIC_ASSIGN_OR_RETURN(std::string content_key, ReadString(bytes, pos));
  int32_t type = 0;
  int32_t permission = 0;
  int64_t aggregate = 0;
  uint32_t dims = 0;
  if (!GetScalar(bytes, pos, &type) || !GetScalar(bytes, pos, &permission) ||
      !GetScalar(bytes, pos, &aggregate) || !GetScalar(bytes, pos, &dims)) {
    return Status::ParseError("truncated license header");
  }
  if (type < 0 || type > 1) {
    return Status::ParseError("bad license type in blob");
  }
  if (permission < 0 || permission >= kNumPermissions) {
    return Status::ParseError("bad permission in blob");
  }
  if (dims > kMaxDimensions) {
    return Status::ParseError("implausible dimension count in blob");
  }
  HyperRect rect;
  for (uint32_t d = 0; d < dims; ++d) {
    uint8_t kind = 0;
    if (!GetScalar(bytes, pos, &kind) || kind > 2) {
      return Status::ParseError("bad dimension kind in blob");
    }
    if (kind == 0) {
      int64_t lo = 0;
      int64_t hi = 0;
      if (!GetScalar(bytes, pos, &lo) || !GetScalar(bytes, pos, &hi)) {
        return Status::ParseError("truncated interval dimension");
      }
      rect.AddDim(ConstraintRange(Interval(lo, hi)));
    } else if (kind == 2) {
      uint32_t piece_count = 0;
      if (!GetScalar(bytes, pos, &piece_count) ||
          piece_count > kMaxDimensions) {
        return Status::ParseError("bad piece count in blob");
      }
      std::vector<Interval> pieces;
      for (uint32_t p = 0; p < piece_count; ++p) {
        int64_t lo = 0;
        int64_t hi = 0;
        if (!GetScalar(bytes, pos, &lo) || !GetScalar(bytes, pos, &hi)) {
          return Status::ParseError("truncated multi-interval dimension");
        }
        pieces.push_back(Interval(lo, hi));
      }
      rect.AddDim(ConstraintRange(MultiInterval::FromIntervals(pieces)));
    } else {
      uint64_t mask = 0;
      if (!GetScalar(bytes, pos, &mask)) {
        return Status::ParseError("truncated category dimension");
      }
      rect.AddDim(ConstraintRange(CategorySet(mask)));
    }
  }
  return License(std::move(id), std::move(content_key),
                 static_cast<LicenseType>(type),
                 static_cast<Permission>(permission), std::move(rect),
                 aggregate);
}

}  // namespace geolic
