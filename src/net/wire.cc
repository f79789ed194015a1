#include "net/wire.h"

#include "licensing/license_serialization.h"
#include "persist/framing.h"
#include "util/crc32c.h"

namespace geolic::net {

using framing::GetScalar;
using framing::PutScalar;

bool IsRequestKind(FrameKind kind) {
  return kind == FrameKind::kIssueRequest || kind == FrameKind::kPing ||
         kind == FrameKind::kTenantIssueRequest;
}

bool IsKnownKind(FrameKind kind) {
  switch (kind) {
    case FrameKind::kIssueRequest:
    case FrameKind::kPing:
    case FrameKind::kTenantIssueRequest:
    case FrameKind::kIssueResult:
    case FrameKind::kPong:
    case FrameKind::kShed:
    case FrameKind::kError:
      return true;
  }
  return false;
}

void EncodeFrame(FrameKind kind, uint64_t request_id,
                 std::string_view payload, std::string* out) {
  const size_t header_start = out->size();
  PutScalar(out, static_cast<uint32_t>(payload.size()));
  PutScalar(out, static_cast<uint32_t>(kind));
  PutScalar(out, request_id);
  PutScalar(out, Crc32c(std::string_view(out->data() + header_start, 16)));
  PutScalar(out, Crc32c(payload));
  out->append(payload);
}

DecodeResult TryDecodeFrame(std::string_view bytes, Frame* frame,
                            size_t* consumed, std::string* error) {
  if (bytes.size() < kWireHeaderBytes) {
    return DecodeResult::kNeedMore;
  }
  size_t pos = 0;
  uint32_t payload_len = 0;
  uint32_t kind_word = 0;
  uint64_t request_id = 0;
  uint32_t header_crc = 0;
  uint32_t payload_crc = 0;
  GetScalar(bytes, &pos, &payload_len);
  GetScalar(bytes, &pos, &kind_word);
  GetScalar(bytes, &pos, &request_id);
  GetScalar(bytes, &pos, &header_crc);
  GetScalar(bytes, &pos, &payload_crc);
  if (Crc32c(bytes.substr(0, 16)) != header_crc) {
    *error = "frame header crc mismatch";
    return DecodeResult::kBad;
  }
  // The header CRC held, so these fields are what the peer framed —
  // anything implausible now is a dialect mismatch, not line noise.
  if (payload_len > kWireMaxPayloadBytes) {
    *error = "implausible payload length " + std::to_string(payload_len);
    return DecodeResult::kBad;
  }
  if (!IsKnownKind(static_cast<FrameKind>(kind_word))) {
    *error = "unknown frame kind " + std::to_string(kind_word);
    return DecodeResult::kBad;
  }
  if (bytes.size() - pos < payload_len) {
    return DecodeResult::kNeedMore;
  }
  const std::string_view payload = bytes.substr(pos, payload_len);
  if (Crc32c(payload) != payload_crc) {
    *error = "frame payload crc mismatch";
    return DecodeResult::kBad;
  }
  frame->kind = static_cast<FrameKind>(kind_word);
  frame->request_id = request_id;
  frame->payload.assign(payload.data(), payload.size());
  *consumed = pos + payload_len;
  return DecodeResult::kFrame;
}

Status EncodeIssueRequest(const License& license, std::string* out) {
  AppendLicenseBinary(license, out);
  return Status::Ok();
}

Result<License> DecodeIssueRequest(std::string_view payload) {
  size_t pos = 0;
  GEOLIC_ASSIGN_OR_RETURN(License license, ReadLicenseBinary(payload, &pos));
  if (pos != payload.size()) {
    return Status::ParseError("trailing bytes after issue request license");
  }
  return license;
}

Status EncodeTenantIssueRequest(uint64_t tenant_id, const License& license,
                                std::string* out) {
  PutScalar(out, tenant_id);
  return EncodeIssueRequest(license, out);
}

Result<TenantIssueRequest> DecodeTenantIssueRequest(std::string_view payload) {
  size_t pos = 0;
  TenantIssueRequest request;
  if (!GetScalar(payload, &pos, &request.tenant_id)) {
    return Status::ParseError("tenant issue request payload truncated");
  }
  GEOLIC_ASSIGN_OR_RETURN(request.license,
                          DecodeIssueRequest(payload.substr(pos)));
  return request;
}

void EncodeIssueResult(const IssueResult& result, std::string* out) {
  PutScalar(out, static_cast<uint8_t>(result.outcome));
  PutScalar(out, result.catalog_epoch);
  PutScalar(out, result.equations_checked);
}

Status DecodeIssueResult(std::string_view payload, IssueResult* result) {
  size_t pos = 0;
  uint8_t outcome = 0;
  if (!GetScalar(payload, &pos, &outcome) ||
      !GetScalar(payload, &pos, &result->catalog_epoch) ||
      !GetScalar(payload, &pos, &result->equations_checked)) {
    return Status::ParseError("issue result payload truncated");
  }
  if (outcome > static_cast<uint8_t>(IssueResult::Outcome::kRejectedAggregate)) {
    return Status::ParseError("unknown issue result outcome");
  }
  if (pos != payload.size()) {
    return Status::ParseError("trailing bytes after issue result");
  }
  result->outcome = static_cast<IssueResult::Outcome>(outcome);
  return Status::Ok();
}

}  // namespace geolic::net
