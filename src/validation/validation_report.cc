#include "validation/validation_report.h"

namespace geolic {

std::string ValidationReport::ToString() const {
  if (all_valid()) {
    return "OK (" + std::to_string(equations_evaluated) + " equations)";
  }
  std::string out = std::to_string(violations.size()) + " violation(s) in " +
                    std::to_string(equations_evaluated) + " equations:\n";
  for (const EquationResult& violation : violations) {
    out += "  C<" + (violation.set).ToString() +
           "> = " + std::to_string(violation.lhs) + " > A[" +
           (violation.set).ToString() +
           "] = " + std::to_string(violation.rhs) + "\n";
  }
  return out;
}

}  // namespace geolic
