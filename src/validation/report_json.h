#ifndef GEOLIC_VALIDATION_REPORT_JSON_H_
#define GEOLIC_VALIDATION_REPORT_JSON_H_

#include <string>

#include "validation/validation_report.h"

namespace geolic {

// JSON export of validation results, for dashboards/tooling. Sets are
// rendered both as hex masks (machine) and 1-based license lists (human):
//
//   {"valid":false,"equations_evaluated":31,"nodes_visited":12,
//    "violations":[{"set_mask":"0x3","licenses":[1,2],
//                   "lhs":1240,"rhs":1000,"excess":240}]}
std::string ReportToJson(const ValidationReport& report);

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_REPORT_JSON_H_
