// Shows that the benchmark's answer checks count a corrupted answer as a
// failure: a small DBLP instance answers a query, and the recorded answer
// is then corrupted in each of the ways a wrong engine could corrupt it.
// Exit code 0 = every check behaved; each failure prints a line.

#include <cstdio>

#include "answer_checks.h"
#include "fixture.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAILED: %s\n", what);
  }
}

}  // namespace

int main() {
  using namespace xkpb;
  xk::datagen::DblpConfig config;  // the library's small default instance
  xk::Result<Fixture> built = BuildFixture(config, {});
  if (!built.ok()) {
    std::printf("FAILED: fixture: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const Fixture& f = *built;
  const std::vector<std::string> keywords = {"ullman", "widom"};
  xk::engine::QueryRequest request = MakeRequest(keywords);
  xk::Result<xk::engine::QueryResponse> topk = f.xk->Run(request);
  request.mode = xk::engine::QueryMode::kNaive;
  xk::Result<xk::engine::QueryResponse> naive = f.xk->Run(request);
  if (!topk.ok() || !naive.ok() || topk->mttons.size() < 2) {
    std::printf("FAILED: query did not produce at least two MTTONs\n");
    return 1;
  }
  const std::vector<xk::present::Mtton>& answer = topk->mttons;
  const std::vector<uint64_t> reference = {AnswerDigest(naive->mttons)};

  // The untouched answer passes every check.
  Tally clean;
  clean.attempted = 1;
  CheckDigests({RecordedAnswer{0, AnswerDigest(answer)}}, reference, &clean);
  Expect(clean.wrong == 0 && clean.error_rate() == 0, "correct answer passes");
  KeywordOracle oracle(&f.xk->master_index());
  Expect(oracle.CountIncomplete(keywords, answer) == 0, "correct MTTONs contain every keyword");

  // Corruptions: a changed object, a dropped MTTON, swapped ranks, a changed score.
  std::vector<std::vector<xk::present::Mtton>> corrupted(4, answer);
  corrupted[0][0].objects[0] += 1;
  corrupted[1].pop_back();
  std::swap(corrupted[2][0], corrupted[2][1]);
  if (corrupted[2] == answer) std::swap(corrupted[2][0], corrupted[2].back());
  corrupted[3][0].score += 1;
  for (size_t i = 0; i < corrupted.size(); ++i) {
    Tally tally;
    tally.attempted = 1;
    CheckDigests({RecordedAnswer{0, AnswerDigest(corrupted[i])}}, reference, &tally);
    Expect(tally.wrong == 1 && tally.error_rate() == 1.0, "corrupted answer counts as wrong");
  }
  // Order matters for top-k answers but not for kAll sets.
  Expect(AnswerSetDigest(corrupted[2]) == AnswerSetDigest(answer),
         "set digest ignores order");
  Expect(AnswerSetDigest(corrupted[1]) != AnswerSetDigest(answer),
         "set digest sees a dropped MTTON");

  // An MTTON whose objects lost a keyword fails the master-index oracle:
  // point every object at one that contains neither keyword.
  xk::storage::ObjectId stranger = 0;
  for (const xk::present::Mtton& m : answer) {
    for (xk::storage::ObjectId o : m.objects) stranger = std::max(stranger, o + 1);
  }
  std::vector<xk::present::Mtton> lost = answer;
  for (xk::storage::ObjectId& o : lost[0].objects) o = stranger;
  Expect(oracle.CountIncomplete(keywords, lost) == 1, "MTTON missing a keyword is caught");

  // error_rate counts failed + rejected + wrong over attempted.
  Tally mixed;
  mixed.attempted = 8;
  mixed.failed = 1;
  mixed.rejected = 1;
  mixed.wrong = 2;
  Expect(mixed.errors() == 4 && mixed.error_rate() == 0.5, "error_rate arithmetic");

  std::printf("%s\n", failures == 0 ? "answer checks: all passed" : "answer checks: FAILED");
  return failures == 0 ? 0 : 1;
}
