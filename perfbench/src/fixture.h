// The benchmark fixture: the default bench-scale DBLP database loaded into
// one XKeyword engine with the single XKeyword decomposition (B=2, M=6).

#ifndef XK_PERFBENCH_FIXTURE_H_
#define XK_PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"

namespace xkpb {

inline constexpr const char* kDecomposition = "XKeyword";

/// The DblpConfig of the repository's Section-7 benches (bench/bench_util.h):
/// 10 conferences x 6 years x ~20 papers, 20 citations per paper,
/// vocabularies of 200, seed 2003.
xk::datagen::DblpConfig BenchDblpConfig();
std::string DescribeDblpConfig(const xk::datagen::DblpConfig& config);

struct Fixture {
  // Declaration order matters: the engine points into the database.
  std::unique_ptr<xk::datagen::DblpDatabase> db;
  std::unique_ptr<xk::engine::XKeyword> xk;

  /// Destroys the engine before the database it points into. Call it before
  /// assigning a new fixture: member-wise assignment would free the old
  /// database first.
  void Reset() {
    xk.reset();
    db.reset();
  }
};

/// DblpDatabase::Generate + XKeyword::Load (spilling to pages on the disk
/// backend) + AddDecomposition(MakeXKeyword(tss, B=2, M=6)).
xk::Result<Fixture> BuildFixture(const xk::datagen::DblpConfig& config,
                                 const xk::storage::StorageOptions& storage);

/// A default top-k request (Z=6, K=10) for `keywords`.
xk::engine::QueryRequest MakeRequest(const std::vector<std::string>& keywords);

/// ISA the block kernels dispatch to, and the build type.
std::string SimdIsa();
const char* BuildType();

}  // namespace xkpb

#endif  // XK_PERFBENCH_FIXTURE_H_
