// license_audit: a small CLI that audits an issuance log against a license
// file, the way a validation authority would run periodic offline checks.
//
// Usage:
//   license_audit [--licenses=FILE] [--log=FILE] [--json]
//
// The license file format is one license per line:
//   # comment
//   schema: C1, C2, C3         (interval dimensions, declared once, first)
//   LD1 (K; Play; C1=[0, 10]; C2=[5, 20]; C3=[0, 4]; A=1000)
//
// The log file is the LogStore text format ("id mask count", hex mask).
// Without arguments the tool writes a demo pair under $TEST_TMPDIR (else
// /tmp), audits it and removes it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/gain.h"
#include "licensing/license_parser.h"
#include "validation/report_json.h"
#include "validation/validate.h"
#include "validation/validation_tree.h"
#include "workload/workload.h"
#include "util/str_util.h"

namespace {

using namespace geolic;  // NOLINT

// Loads "schema:" + license lines; fills `schema` first, then licenses.
Status LoadLicenseFile(const std::string& path, ConstraintSchema* schema,
                       std::unique_ptr<LicenseCatalog>* licenses) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open license file: " + path);
  }
  std::string line;
  bool schema_seen = false;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    if (StartsWith(stripped, "schema:")) {
      if (schema_seen) {
        return Status::ParseError("duplicate schema line");
      }
      for (std::string_view name :
           SplitAndTrim(stripped.substr(7), ',')) {
        if (!name.empty()) {
          GEOLIC_RETURN_IF_ERROR(schema->AddIntervalDimension(name));
        }
      }
      schema_seen = true;
      *licenses = std::make_unique<LicenseCatalog>(schema);
      continue;
    }
    if (!schema_seen) {
      return Status::ParseError("license before schema line at " + path +
                                ":" + std::to_string(line_number));
    }
    const size_t space = stripped.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("expected '<id> (license)' at " + path + ":" +
                                std::to_string(line_number));
    }
    const std::string id(StripWhitespace(stripped.substr(0, space)));
    GEOLIC_ASSIGN_OR_RETURN(
        License license,
        ParseLicense(stripped.substr(space + 1), *schema,
                     LicenseType::kRedistribution, id));
    const Result<int> added = (*licenses)->Add(std::move(license));
    if (!added.ok()) {
      return added.status();
    }
  }
  if (!schema_seen) {
    return Status::ParseError("no schema line in " + path);
  }
  return Status::Ok();
}

// Writes a generated demo license/log pair.
Status WriteDemoFiles(const std::string& license_path,
                      const std::string& log_path) {
  WorkloadConfig config;
  config.num_licenses = 14;
  config.num_records = 4000;
  config.seed = 77;
  WorkloadGenerator generator(config);
  GEOLIC_ASSIGN_OR_RETURN(Workload workload, generator.Generate());

  std::ofstream out(license_path);
  if (!out) {
    return Status::IoError("cannot write " + license_path);
  }
  out << "# geolic demo licenses\n";
  out << "schema:";
  for (int d = 0; d < workload.schema->dimensions(); ++d) {
    out << (d == 0 ? " " : ", ") << workload.schema->name(d);
  }
  out << "\n";
  for (int i = 0; i < workload.licenses->size(); ++i) {
    const License& license = workload.licenses->at(i);
    out << license.id() << " " << license.ToString(*workload.schema) << "\n";
  }
  out.close();
  return workload.log.SaveText(log_path);
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

// `name` in $TEST_TMPDIR when set, else in /tmp.
std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TEST_TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         name;
}

// Removes the files it names when it goes out of scope, so every exit path
// leaves none behind.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool json_output = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json_output = true;
    }
  }
  std::string license_path = StringFlag(argc, argv, "licenses", "");
  std::string log_path = StringFlag(argc, argv, "log", "");
  RemoveOnExit demo_files;
  if (license_path.empty() || log_path.empty()) {
    license_path = TempPath("geolic_audit_licenses.txt");
    log_path = TempPath("geolic_audit.log");
    demo_files.paths = {license_path, log_path};
    const Status demo = WriteDemoFiles(license_path, log_path);
    if (!demo.ok()) {
      std::fprintf(stderr, "demo generation failed: %s\n",
                   demo.ToString().c_str());
      return 1;
    }
    std::printf("No inputs given; generated demo files:\n  %s\n  %s\n\n",
                license_path.c_str(), log_path.c_str());
  }

  ConstraintSchema schema;
  std::unique_ptr<LicenseCatalog> licenses;
  const Status loaded = LoadLicenseFile(license_path, &schema, &licenses);
  if (!loaded.ok()) {
    std::fprintf(stderr, "license file: %s\n", loaded.ToString().c_str());
    return 1;
  }
  Result<LogStore> log = LogStore::LoadText(log_path);
  if (!log.ok()) {
    std::fprintf(stderr, "log file: %s\n", log.status().ToString().c_str());
    return 1;
  }
  Result<ValidationOutcome> result =
      Validate(*licenses, *log, {.mode = ValidationMode::kGrouped});
  if (!result.ok()) {
    std::fprintf(stderr, "validation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (json_output) {
    std::printf("%s\n", ReportToJson(result->report).c_str());
    return result->report.all_valid() ? 0 : 2;
  }
  std::printf("Loaded %d redistribution licenses, %zu log records\n",
              licenses->size(), log->size());
  std::printf("Groups: %d (sizes", result->group_count);
  for (int size : result->group_sizes) {
    std::printf(" %d", size);
  }
  std::printf("), equations evaluated: %llu (exhaustive would need %llu, "
              "gain %.1fx)\n",
              static_cast<unsigned long long>(
                  result->report.equations_evaluated),
              static_cast<unsigned long long>(EquationCount(licenses->size())),
              TheoreticalGain(result->group_sizes));
  std::printf("\nAudit result: %s\n", result->report.ToString().c_str());
  return result->report.all_valid() ? 0 : 2;
}
