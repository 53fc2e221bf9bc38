#include "query_gen.h"

#include <algorithm>

#include "stats.h"

namespace xkpb {

QueryGenerator::QueryGenerator(const xk::datagen::DblpDatabase& db, uint64_t seed)
    : db_(db),
      rng_(seed),
      author_dist_(db.author_names().size(), 0.9),
      word_dist_(db.title_words().size(), 0.9) {}

Keywords QueryGenerator::Draw(int num_keywords) {
  Keywords keywords;
  while (static_cast<int>(keywords.size()) < num_keywords) {
    const bool author = rng_.OneIn(2);
    const std::string& word =
        author ? db_.author_names()[author_dist_.Sample(&rng_)]
               : db_.title_words()[word_dist_.Sample(&rng_)];
    if (std::find(keywords.begin(), keywords.end(), word) == keywords.end()) {
      keywords.push_back(word);
    }
  }
  return keywords;
}

std::vector<Keywords> QueryGenerator::DrawDistinct(size_t count, int num_keywords,
                                                   std::set<Keywords>* exclude) {
  std::vector<Keywords> out;
  while (out.size() < count) {
    Keywords q = Draw(num_keywords);
    if (exclude->insert(Canonical(q)).second) out.push_back(std::move(q));
  }
  return out;
}

Keywords Canonical(Keywords keywords) {
  std::sort(keywords.begin(), keywords.end());
  return keywords;
}

uint64_t QueryDigest(const std::vector<Keywords>& queries) {
  uint64_t h = Fnv1a("");
  for (const Keywords& q : queries) {
    for (const std::string& k : q) h = Fnv1a(k + " ", h);
    h = Fnv1a("|", h);
  }
  return h;
}

std::vector<size_t> ZipfIndexStream(size_t n, double s, size_t length,
                                    uint64_t seed) {
  xk::Random rng(seed);
  xk::ZipfDistribution dist(n, s);
  std::vector<size_t> out(length);
  for (size_t& i : out) i = dist.Sample(&rng);
  return out;
}

}  // namespace xkpb
