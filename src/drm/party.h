#ifndef GEOLIC_DRM_PARTY_H_
#define GEOLIC_DRM_PARTY_H_

#include <cstdint>
#include <string>

namespace geolic {

// Role of a participant in the content distribution chain (paper Section 1:
// owner → multiple levels of distributors → consumers).
enum class PartyRole : int32_t {
  kOwner = 0,        // Rights holder; issues licenses without restriction.
  kDistributor = 1,  // Holds redistribution licenses; issues new ones.
  kConsumer = 2,     // Receives usage licenses only.
};

// One participant in the distribution network.
struct Party {
  int id = -1;
  PartyRole role = PartyRole::kConsumer;
  std::string name;
  // The party this one obtains licenses from (-1 for the owner).
  int parent = -1;
};

}  // namespace geolic

#endif  // GEOLIC_DRM_PARTY_H_
