#include "validation/report_json.h"

#include "util/json_writer.h"

namespace geolic {

std::string ReportToJson(const ValidationReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("valid", report.all_valid());
  json.KeyValue("equations_evaluated", report.equations_evaluated);
  json.KeyValue("nodes_visited", report.nodes_visited);
  json.Key("violations");
  json.BeginArray();
  for (const EquationResult& violation : report.violations) {
    json.BeginObject();
    json.KeyValue("set_mask", violation.set.ToHex());
    json.Key("licenses");
    json.BeginArray();
    for (int index : violation.set.Indexes()) {
      json.Int(index + 1);  // 1-based, matching the paper's L_D^i.
    }
    json.EndArray();
    json.KeyValue("lhs", violation.lhs);
    json.KeyValue("rhs", violation.rhs);
    json.KeyValue("excess", violation.lhs - violation.rhs);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
}

}  // namespace geolic
