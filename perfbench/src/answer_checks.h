// Answer checks. Every check runs after the timed phase, so none of it is
// inside a timing: during the timed phase a workload keeps only a digest of
// each answer (the FNV-1a of its wire encoding, so equal digests mean
// byte-identical answers), and the checks compare those digests with a
// reference answer computed afterwards.
//
//   interactive   the top-k answer equals the QueryMode::kNaive answer, and
//                 every MTTON's objects jointly contain every keyword, checked
//                 against MasterIndex::ContainingList (which shares no code
//                 with CN generation);
//   serve_socket  each socket answer is byte-identical to in-process
//                 XKeyword::Run (cache hits included);
//   export_disk   each disk answer equals the memory-backend kAll answer as
//                 a set.

#ifndef XK_PERFBENCH_ANSWER_CHECKS_H_
#define XK_PERFBENCH_ANSWER_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "keyword/master_index.h"
#include "present/mtton.h"
#include "storage/value.h"

namespace xkpb {

/// Digest of an answer in its returned order.
uint64_t AnswerDigest(const std::vector<xk::present::Mtton>& mttons);
/// Digest of an answer as a set (order-free).
uint64_t AnswerSetDigest(std::vector<xk::present::Mtton> mttons);

/// Keyword-containment oracle over the master index: for each keyword, the
/// set of target objects whose containing list mentions it.
class KeywordOracle {
 public:
  explicit KeywordOracle(const xk::keyword::MasterIndex* index) : index_(index) {}

  /// MTTONs of `mttons` whose objects miss at least one keyword.
  size_t CountIncomplete(const std::vector<std::string>& keywords,
                         const std::vector<xk::present::Mtton>& mttons);

 private:
  const std::vector<xk::storage::ObjectId>& ObjectsContaining(const std::string& keyword);

  const xk::keyword::MasterIndex* index_;
  std::map<std::string, std::vector<xk::storage::ObjectId>> cache_;  // sorted ids
};

/// Outcome counts of one run: error_rate = (failed + rejected + wrong) /
/// attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;    // error Result or non-OK response status
  uint64_t rejected = 0;  // refused by admission control
  uint64_t wrong = 0;     // answered, but the answer check failed

  uint64_t errors() const { return failed + rejected + wrong; }
  double error_rate() const {
    return attempted == 0 ? 0 : static_cast<double>(errors()) /
                                    static_cast<double>(attempted);
  }
};

/// One answered query as recorded during the timed phase.
struct RecordedAnswer {
  size_t query = 0;     // index into the workload's distinct query list
  uint64_t digest = 0;  // AnswerDigest or AnswerSetDigest
};

/// Counts the recorded answers whose digest differs from the reference
/// digest of their query into `tally->wrong`.
void CheckDigests(const std::vector<RecordedAnswer>& answers,
                  const std::vector<uint64_t>& reference, Tally* tally);

}  // namespace xkpb

#endif  // XK_PERFBENCH_ANSWER_CHECKS_H_
