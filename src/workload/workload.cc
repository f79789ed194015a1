#include "workload/workload.h"

#include <algorithm>
#include <utility>

#include "core/instance_validator.h"

namespace geolic {

Status WorkloadConfig::Validate() const {
  if (num_licenses < 1 || num_licenses > kMaxLicensesLarge) {
    return Status::InvalidArgument(
        "num_licenses must be in [1, " +
        std::to_string(kMaxLicensesLarge) + "], got " +
        std::to_string(num_licenses));
  }
  if (dimensions < 1) {
    return Status::InvalidArgument("dimensions must be >= 1");
  }
  if (num_clusters < 1) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (!(min_extent > 0.0 && min_extent <= max_extent && max_extent <= 1.0)) {
    return Status::InvalidArgument(
        "extents must satisfy 0 < min_extent <= max_extent <= 1");
  }
  if (domain_size < 100 * num_clusters) {
    return Status::InvalidArgument("domain_size too small for the clusters");
  }
  if (aggregate_min < 1 || aggregate_min > aggregate_max) {
    return Status::InvalidArgument("bad aggregate range");
  }
  if (usage_count_min < 1 || usage_count_min > usage_count_max) {
    return Status::InvalidArgument("bad usage count range");
  }
  if (num_records < 0) {
    return Status::InvalidArgument("num_records must be >= 0");
  }
  return Status::Ok();
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(std::move(config)) {}

Result<Workload> WorkloadGenerator::GenerateLicensesOnly() {
  GEOLIC_RETURN_IF_ERROR(config_.Validate());
  Rng rng(config_.seed);

  Workload workload;
  workload.schema = std::make_unique<ConstraintSchema>();
  for (int d = 0; d < config_.dimensions; ++d) {
    GEOLIC_RETURN_IF_ERROR(
        workload.schema->AddIntervalDimension("C" + std::to_string(d + 1)));
  }
  workload.licenses = std::make_unique<LicenseCatalog>(workload.schema.get());

  // Each cluster owns the slab [cluster * width, cluster * width + usable)
  // of every dimension; a one-unit gap keeps slabs disjoint so licenses in
  // different clusters can never overlap.
  const int64_t width = config_.domain_size / config_.num_clusters;
  const int64_t usable = width - 1;

  for (int i = 0; i < config_.num_licenses; ++i) {
    const int64_t cluster =
        rng.UniformInt(0, config_.num_clusters - 1);
    LicenseBuilder builder(workload.schema.get());
    builder.SetId("LD" + std::to_string(i + 1))
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(
            rng.UniformInt(config_.aggregate_min, config_.aggregate_max));
    for (int d = 0; d < config_.dimensions; ++d) {
      const double extent_fraction =
          config_.min_extent +
          rng.UniformDouble() * (config_.max_extent - config_.min_extent);
      int64_t extent =
          static_cast<int64_t>(extent_fraction * static_cast<double>(usable));
      extent = std::clamp<int64_t>(extent, 1, usable);
      const int64_t slab_lo = cluster * width;
      const int64_t lo = slab_lo + rng.UniformInt(0, usable - extent);
      builder.SetInterval("C" + std::to_string(d + 1), lo, lo + extent - 1);
    }
    GEOLIC_ASSIGN_OR_RETURN(License license, builder.Build());
    const Result<int> added = workload.licenses->Add(std::move(license));
    if (!added.ok()) {
      return added.status();
    }
  }
  return workload;
}

License WorkloadGenerator::DrawUsageLicense(const Workload& workload,
                                            int index, Rng* rng,
                                            int64_t sequence) const {
  const License& parent = workload.licenses->at(index);
  LicenseBuilder builder(workload.schema.get());
  builder.SetId("LU" + std::to_string(sequence))
      .SetContentKey(parent.content_key())
      .SetType(LicenseType::kUsage)
      .SetPermission(parent.permission())
      .SetAggregateCount(
          rng->UniformInt(config_.usage_count_min, config_.usage_count_max));
  for (int d = 0; d < workload.schema->dimensions(); ++d) {
    const Interval& range = parent.rect().dim(d).interval();
    const int64_t lo = rng->UniformInt(range.lo(), range.hi());
    const int64_t hi = rng->UniformInt(lo, range.hi());
    builder.SetInterval(workload.schema->name(d), lo, hi);
  }
  Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *std::move(license);
}

Result<Workload> WorkloadGenerator::Generate() {
  GEOLIC_ASSIGN_OR_RETURN(Workload workload, GenerateLicensesOnly());
  Rng rng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  const SoaInstanceValidator instance_validator(workload.licenses.get());

  for (int r = 0; r < config_.num_records; ++r) {
    const int parent =
        static_cast<int>(rng.UniformInt(0, config_.num_licenses - 1));
    const License usage = DrawUsageLicense(workload, parent, &rng, r + 1);
    const LicenseSet set = instance_validator.SatisfyingSet(usage);
    // The drawn rectangle lies inside `parent`, so S is never empty.
    GEOLIC_CHECK((set).Contains(parent));
    LogRecord record;
    record.issued_license_id = usage.id();
    record.set = set;
    record.count = usage.aggregate_count();
    GEOLIC_RETURN_IF_ERROR(workload.log.Append(std::move(record)));
  }
  return workload;
}

WorkloadConfig PaperSweepConfig(int num_licenses, uint64_t seed) {
  WorkloadConfig config;
  config.num_licenses = num_licenses;
  config.seed = seed + static_cast<uint64_t>(num_licenses) * uint64_t{1000003};
  // 600 records at N = 1 rising linearly to 22000 at N = 35 (Section 5).
  const double fraction = (static_cast<double>(num_licenses) - 1.0) / 34.0;
  config.num_records =
      static_cast<int>(600.0 + fraction * (22000.0 - 600.0));
  return config;
}

}  // namespace geolic
