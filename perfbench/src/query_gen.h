// Seeded query generation. Every workload's queries come from --seed alone;
// the library only ever receives the generated keyword lists. Keywords are
// drawn from the database's author names and title words under the same
// Zipf law (theta 0.9) the DBLP generator used to place them.

#ifndef XK_PERFBENCH_QUERY_GEN_H_
#define XK_PERFBENCH_QUERY_GEN_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/dblp_gen.h"

namespace xkpb {

using Keywords = std::vector<std::string>;

/// XORed into --seed to derive the independent seeds of warm-up queries and
/// of request streams.
inline constexpr uint64_t kWarmupSalt = 0x9e3779b97f4a7c15ull;
inline constexpr uint64_t kStreamSalt = 0x2545f4914f6cdd1dull;

class QueryGenerator {
 public:
  QueryGenerator(const xk::datagen::DblpDatabase& db, uint64_t seed);

  /// `num_keywords` distinct keywords; each picks the author or the title
  /// vocabulary with equal odds, then a Zipf-ranked word from it.
  Keywords Draw(int num_keywords);

  /// `count` queries whose canonical form (sorted keywords) is not in
  /// `exclude`; each accepted query is added to `exclude`.
  std::vector<Keywords> DrawDistinct(size_t count, int num_keywords,
                                     std::set<Keywords>* exclude);

 private:
  const xk::datagen::DblpDatabase& db_;
  xk::Random rng_;
  xk::ZipfDistribution author_dist_;
  xk::ZipfDistribution word_dist_;
};

/// Sorted keyword list: the order-free identity of a query.
Keywords Canonical(Keywords keywords);

/// Digest of a query list (order-sensitive), recorded with every report.
uint64_t QueryDigest(const std::vector<Keywords>& queries);

/// Zipf(s) draws of indices in [0, n).
std::vector<size_t> ZipfIndexStream(size_t n, double s, size_t length,
                                    uint64_t seed);

}  // namespace xkpb

#endif  // XK_PERFBENCH_QUERY_GEN_H_
