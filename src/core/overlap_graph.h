#ifndef GEOLIC_CORE_OVERLAP_GRAPH_H_
#define GEOLIC_CORE_OVERLAP_GRAPH_H_

#include "graph/adjacency_matrix.h"
#include "licensing/license_catalog.h"

namespace geolic {

// Builds the paper's overlap graph (Section 3.3): one vertex per
// redistribution license, an edge between i and j iff the two licenses are
// overlapping — every constraint dimension of L_D^i intersects the
// corresponding dimension of L_D^j.
AdjacencyMatrix BuildOverlapGraph(const LicenseCatalog& licenses);

}  // namespace geolic

#endif  // GEOLIC_CORE_OVERLAP_GRAPH_H_
