// Fuzz-style robustness: all external-input parsers (license text, log
// text/binary, license blobs, and the service state payload of service
// checkpoints and tenant spills) must reject random and mutated inputs
// with a clean Status — never crash, hang, or return inconsistent objects.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "licensing/license_parser.h"
#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "validation/log_store.h"
#include "util/random.h"

namespace geolic {
namespace {

std::string RandomBytes(Rng* rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng->UniformInt(0, 255));
  }
  return bytes;
}

// Random printable garbage with license-ish punctuation.
std::string RandomLicenseText(Rng* rng) {
  static constexpr char kAlphabet[] =
      "(;)=[]{},-0123456789 KPlayTRAsia\tEurope";
  std::string text;
  const size_t size = static_cast<size_t>(rng->UniformInt(0, 120));
  for (size_t i = 0; i < size; ++i) {
    text += kAlphabet[rng->UniformIndex(sizeof(kAlphabet) - 1)];
  }
  return text;
}

TEST(FuzzRobustnessTest, LicenseParserSurvivesGarbage) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  Rng rng(testing::TestSeed(1));
  for (int i = 0; i < 5000; ++i) {
    const std::string text = RandomLicenseText(&rng);
    const Result<License> license =
        ParseLicense(text, schema, LicenseType::kUsage, "F");
    if (license.ok()) {
      // Anything that parses must serialize back losslessly.
      const Result<License> reparsed = ParseLicense(
          license->ToString(schema), schema, LicenseType::kUsage, "F");
      EXPECT_TRUE(reparsed.ok()) << text;
    }
  }
}

TEST(FuzzRobustnessTest, LicenseParserSurvivesMutatedValidInput) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  const std::string valid =
      "(K; Play; T=[2009-03-10, 2009-03-20]; R={Asia, Europe}; A=2000)";
  Rng rng(testing::TestSeed(2));
  for (int i = 0; i < 5000; ++i) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.UniformIndex(mutated.size());
      mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    (void)ParseLicense(mutated, schema, LicenseType::kUsage, "F");
  }
}

TEST(FuzzRobustnessTest, LogTextLoaderSurvivesGarbage) {
  Rng rng(testing::TestSeed(3));
  const testing::ScopedTempPath path("fuzz_log_text.log");
  for (int i = 0; i < 300; ++i) {
    {
      std::ofstream out(path.path(), std::ios::binary);
      out << RandomBytes(&rng, static_cast<size_t>(rng.UniformInt(0, 400)));
    }
    (void)LogStore::LoadText(path.path());
  }
}

TEST(FuzzRobustnessTest, LogBinaryLoaderSurvivesMutations) {
  LogStore store;
  Rng rng(testing::TestSeed(4));
  for (int i = 0; i < 50; ++i) {
    GEOLIC_CHECK(store
                     .Append(LogRecord{"LU" + std::to_string(i),
                                       LicenseSet::FromWord(rng.Next() | 1) & LicenseSet::Full(30),
                                       rng.UniformInt(1, 100)})
                     .ok());
  }
  const testing::ScopedTempPath path("fuzz_log_binary.bin");
  ASSERT_TRUE(store.SaveBinary(path.path()).ok());
  std::ifstream in(path.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  for (int i = 0; i < 500; ++i) {
    std::string mutated = bytes;
    const int mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.UniformIndex(mutated.size())] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    {
      std::ofstream out(path.path(), std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    const Result<LogStore> loaded = LogStore::LoadBinary(path.path());
    if (loaded.ok()) {
      // If it loads, every record must satisfy the store invariants.
      for (const LogRecord& record : loaded->records()) {
        EXPECT_NE(record.set, testing::Mask(0));
        EXPECT_GT(record.count, 0);
      }
    }
  }
}

TEST(FuzzRobustnessTest, LicenseBlobReaderSurvivesRandomBytes) {
  Rng rng(testing::TestSeed(6));
  for (int i = 0; i < 2000; ++i) {
    const std::string bytes =
        RandomBytes(&rng, static_cast<size_t>(rng.UniformInt(0, 200)));
    size_t pos = 0;
    (void)ReadLicenseBinary(bytes, &pos);
  }
}

// --- One corruption matrix for the service state payload ------------------
//
// The service checkpoint and the tenant spill carry one payload
// (docs/FORMATS.md, "Service state payload"). Each case holds a wide set
// and a catalog evolved by acquire, revoke and expire.
// Every truncation and every byte flip of its payload is re-framed with a
// valid CRC, so the decoder is reached. A truncation must fail. A flip
// must fail or — where it turns the bytes into another well-formed state,
// such as a count or an interval endpoint — load exactly that state:
// re-encoding what the reader loaded gives back the mutated bytes. No
// reader loads a state its bytes do not carry.

// L0..L65 over [10i, 10i + 8]: pairwise disjoint, in content "K".
std::unique_ptr<LicenseCatalog> MatrixCatalog(const ConstraintSchema* schema) {
  auto catalog = std::make_unique<LicenseCatalog>(schema);
  for (int64_t i = 0; i < 66; ++i) {
    GEOLIC_CHECK(catalog
                     ->Add(testing::MakeRedistribution(
                         *schema, "L" + std::to_string(i),
                         {{10 * i, 10 * i + 8}}, 100))
                     .ok());
  }
  return catalog;
}

struct MatrixOps {
  std::function<void(const License&)> issue;
  std::function<void(const License&)> acquire;
  std::function<void(const std::string&)> revoke;
  std::function<void(int, int64_t)> expire;
};

// Admissions, then an acquire, a revoke and — last — an expire. Afterwards
// the records are {L2} = {0}, {L65} = {63} and {L65, N} = {63, 64}: a set
// past index 63.
void EvolveForMatrix(const ConstraintSchema& schema, const MatrixOps& ops) {
  ops.issue(testing::MakeUsage(schema, "U1", {{1, 2}}, 5));      // {L0}
  ops.issue(testing::MakeUsage(schema, "U2", {{651, 652}}, 7));  // {L65}
  ops.acquire(testing::MakeRedistribution(schema, "N", {{652, 700}}, 50));
  ops.issue(testing::MakeUsage(schema, "U3", {{653, 655}}, 4));  // {L65, N}
  ops.revoke("L1");
  ops.issue(testing::MakeUsage(schema, "U4", {{21, 22}}, 2));  // {L2}
  ops.expire(0, 9);  // L0 ends at 8.
}

MatrixOps ServiceOps(IssuanceService* service) {
  return {
      [service](const License& usage) {
        ASSERT_TRUE(service->TryIssue(usage)->accepted());
      },
      [service](const License& license) {
        ASSERT_TRUE(service->AcquireLicense(license).ok());
      },
      [service](const std::string& id) {
        ASSERT_TRUE(service->RevokeLicenseById(id).ok());
      },
      [service](int dim, int64_t cutoff) {
        ASSERT_EQ(*service->ExpireDimensionBelow(dim, cutoff), 1);
      }};
}

class MatrixSource : public TenantSource {
 public:
  Result<Workload> MakeTenant(uint64_t /*tenant_id*/) override {
    Workload workload;
    workload.schema =
        std::make_unique<ConstraintSchema>(testing::IntervalSchema(1));
    workload.licenses = MatrixCatalog(workload.schema.get());
    return workload;
  }
};

// Writes `payload` as a new file: truncating one in place costs a
// millisecond on filesystems that discard freed blocks.
Status WriteNewCheckpointFile(CheckpointKind kind, const std::string& payload,
                              const std::string& path) {
  std::remove(path.c_str());
  return WriteCheckpointFile(kind, payload, path);
}

struct MatrixReader {
  const char* name;
  std::string payload;  // A valid payload.
  // Loads `payload`, re-framed, and re-encodes the state it loaded.
  std::function<Result<std::string>(const std::string& payload)> load;
};

TEST(FuzzRobustnessTest, ServiceStatePayloadCorruptionMatrix) {
  const ConstraintSchema schema = testing::IntervalSchema(1);
  const std::unique_ptr<LicenseCatalog> base = MatrixCatalog(&schema);
  std::vector<MatrixReader> readers;

  // The service checkpoint, recovered with the journal it covers. Recover
  // restarts at epoch 0 without a journal, so the re-encoding takes the
  // epoch from the journal, which holds 3 reconfigurations, and the
  // covered sequence from the payload (offset 12): any sequence from the
  // journal's last frame on covers the whole journal.
  const testing::ScopedTempPath checkpoint_path("fuzz_matrix.ckpt");
  const testing::ScopedTempPath journal_path("fuzz_matrix.wal");
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(base.get());
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path.path());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    EvolveForMatrix(schema, ServiceOps(service->get()));
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path.path()).ok());
  }
  Result<std::string> payload =
      ReadCheckpointFile(CheckpointKind::kServiceSnapshot,
                         checkpoint_path.path());
  ASSERT_TRUE(payload.ok());
  readers.push_back(
      {"service checkpoint", *payload,
       [&](const std::string& bytes) -> Result<std::string> {
         GEOLIC_RETURN_IF_ERROR(
             WriteNewCheckpointFile(CheckpointKind::kServiceSnapshot, bytes,
                                    checkpoint_path.path()));
         GEOLIC_ASSIGN_OR_RETURN(
             std::unique_ptr<IssuanceService> recovered,
             IssuanceService::Recover(base.get(), {}, checkpoint_path.path(),
                                      journal_path.path()));
         ServiceState state = recovered->Snapshot();
         state.catalog_epoch = 3;
         size_t pos = 12;
         GEOLIC_CHECK(framing::GetScalar(bytes, &pos, &state.covered_seq));
         std::string again;
         GEOLIC_RETURN_IF_ERROR(EncodeServiceState(state, &again));
         return again;
       }});

  // The tenant spill, reloaded by a fresh catalog (in-memory journals).
  constexpr uint64_t kTenant = 7;
  MatrixSource source;
  CatalogOptions options;
  const testing::ScopedTempPath catalog_dir("fuzz_matrix_catalog");
  options.dir = catalog_dir.path();
  options.journal_file_factory =
      [](const std::string&, int) -> Result<std::unique_ptr<SyncFile>> {
    return std::unique_ptr<SyncFile>(std::make_unique<InMemorySyncFile>());
  };
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(&source, options);
    ASSERT_TRUE(catalog.ok());
    CatalogService* c = catalog->get();
    EvolveForMatrix(
        schema,
        {[c](const License& usage) {
           ASSERT_TRUE(c->TryIssue(kTenant, usage)->accepted());
         },
         [c](const License& license) {
           ASSERT_TRUE(c->AcquireLicense(kTenant, license).ok());
         },
         [c](const std::string& id) {
           ASSERT_TRUE(c->RevokeLicenseById(kTenant, id).ok());
         },
         [c](int dim, int64_t cutoff) {
           ASSERT_EQ(*c->ExpireDimensionBelow(kTenant, dim, cutoff), 1);
         }});
    ASSERT_TRUE(c->SpillTenant(kTenant).ok());
    payload = ReadCheckpointFile(CheckpointKind::kTenantSnapshot,
                                 c->SpillPath(kTenant));
    ASSERT_TRUE(payload.ok());
  }
  readers.push_back(
      {"tenant spill", *payload,
       [&](const std::string& bytes) -> Result<std::string> {
         GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<CatalogService> catalog,
                                 CatalogService::Create(&source, options));
         GEOLIC_RETURN_IF_ERROR(
             WriteCheckpointFile(CheckpointKind::kTenantSnapshot, bytes,
                                 catalog->SpillPath(kTenant)));
         GEOLIC_ASSIGN_OR_RETURN(CatalogService::TenantSnapshot tenant,
                                 catalog->SnapshotTenant(kTenant));
         ServiceState state;
         state.catalog_epoch = tenant.epoch;
         state.covered_seq = tenant.tenant_seq;
         state.licenses = std::make_unique<LicenseCatalog>(&schema);
         for (License& license : tenant.licenses) {
           GEOLIC_RETURN_IF_ERROR(
               state.licenses->Add(std::move(license)).status());
         }
         state.records = std::move(tenant.log);
         std::string again;
         framing::PutScalar(&again, kTenant);
         GEOLIC_RETURN_IF_ERROR(EncodeServiceState(state, &again));
         return again;
       }});

  for (const MatrixReader& reader : readers) {
    SCOPED_TRACE(reader.name);
    const Result<std::string> unmodified = reader.load(reader.payload);
    ASSERT_TRUE(unmodified.ok()) << unmodified.status().message();
    ASSERT_EQ(*unmodified, reader.payload);
    for (size_t keep = 0; keep < reader.payload.size(); ++keep) {
      EXPECT_FALSE(reader.load(reader.payload.substr(0, keep)).ok())
          << "truncated to " << keep << " bytes";
    }
    size_t other_states = 0;
    for (size_t i = 0; i < reader.payload.size(); ++i) {
      std::string mutated = reader.payload;
      mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
      const Result<std::string> loaded = reader.load(mutated);
      if (loaded.ok()) {
        ++other_states;
        EXPECT_EQ(*loaded, mutated) << "flipped byte " << i;
      }
    }
    // Counts and endpoints are free to take other values.
    EXPECT_GT(other_states, 0u);
  }
}

}  // namespace
}  // namespace geolic
