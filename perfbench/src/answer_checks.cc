#include "answer_checks.h"

#include <algorithm>
#include <span>

#include "net/wire.h"
#include "stats.h"

namespace xkpb {

uint64_t AnswerDigest(const std::vector<xk::present::Mtton>& mttons) {
  return Fnv1a(xk::net::EncodeBatchFrame(
      0, std::span<const xk::present::Mtton>(mttons.data(), mttons.size())));
}

uint64_t AnswerSetDigest(std::vector<xk::present::Mtton> mttons) {
  std::sort(mttons.begin(), mttons.end(),
            [](const xk::present::Mtton& a, const xk::present::Mtton& b) {
              if (a.score != b.score) return a.score < b.score;
              if (a.ctssn_index != b.ctssn_index) return a.ctssn_index < b.ctssn_index;
              return a.objects < b.objects;
            });
  return AnswerDigest(mttons);
}

const std::vector<xk::storage::ObjectId>& KeywordOracle::ObjectsContaining(
    const std::string& keyword) {
  auto it = cache_.find(keyword);
  if (it != cache_.end()) return it->second;
  std::vector<xk::storage::ObjectId> ids;
  for (const xk::keyword::Posting& p : index_->ContainingList(keyword)) {
    ids.push_back(p.to_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return cache_.emplace(keyword, std::move(ids)).first->second;
}

size_t KeywordOracle::CountIncomplete(const std::vector<std::string>& keywords,
                                      const std::vector<xk::present::Mtton>& mttons) {
  size_t incomplete = 0;
  for (const xk::present::Mtton& m : mttons) {
    for (const std::string& k : keywords) {
      const std::vector<xk::storage::ObjectId>& ids = ObjectsContaining(k);
      const bool found = std::any_of(
          m.objects.begin(), m.objects.end(), [&](xk::storage::ObjectId o) {
            return std::binary_search(ids.begin(), ids.end(), o);
          });
      if (!found) {
        ++incomplete;
        break;
      }
    }
  }
  return incomplete;
}

void CheckDigests(const std::vector<RecordedAnswer>& answers,
                  const std::vector<uint64_t>& reference, Tally* tally) {
  for (const RecordedAnswer& a : answers) {
    if (a.query >= reference.size() || reference[a.query] != a.digest) ++tally->wrong;
  }
}

}  // namespace xkpb
