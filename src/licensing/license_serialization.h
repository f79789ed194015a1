#ifndef GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_
#define GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "licensing/license.h"
#include "util/status.h"

namespace geolic {

// Binary (de)serialization of individual licenses, schema-independent:
// constraint ranges are stored raw (interval endpoints / category bitmask),
// so the reader needs no ConstraintSchema. Used by the journal's op frames,
// the service state payload and the wire protocol; the textual form in
// license_parser.h remains the human-facing format.
//
// Layout (little-endian): id, content key (both length-prefixed), type,
// permission, aggregate count, dimension count, then per dimension a kind
// byte (0 = interval, 1 = categories, 2 = multi-interval) and its payload
// (two int64 endpoints, one uint64 mask, or a u32 piece count and two
// int64 endpoints per piece).

// Appends one license to `out`.
void AppendLicenseBinary(const License& license, std::string* out);

// Reads one license written by AppendLicenseBinary at `*pos` and advances
// `*pos` past it; `*pos` is unspecified on failure.
Result<License> ReadLicenseBinary(std::string_view bytes, size_t* pos);

}  // namespace geolic

#endif  // GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_
