#include "fixture.h"

#include "common/simd.h"
#include "common/strings.h"
#include "decomp/decomposition.h"

namespace xkpb {

xk::datagen::DblpConfig BenchDblpConfig() {
  xk::datagen::DblpConfig config;
  config.num_conferences = 10;
  config.years_per_conference = 6;
  config.avg_papers_per_year = 20;
  config.avg_citations_per_paper = 20.0;
  config.author_vocab = 200;
  config.title_vocab = 200;
  config.seed = 2003;
  return config;
}

std::string DescribeDblpConfig(const xk::datagen::DblpConfig& c) {
  return xk::StrFormat(
      "conferences=%d years=%d papers/year=%g authors/paper=%g citations/paper=%g "
      "author_vocab=%d title_vocab=%d title_words=%d seed=%llu",
      c.num_conferences, c.years_per_conference, c.avg_papers_per_year,
      c.avg_authors_per_paper, c.avg_citations_per_paper, c.author_vocab,
      c.title_vocab, c.title_words, static_cast<unsigned long long>(c.seed));
}

xk::Result<Fixture> BuildFixture(const xk::datagen::DblpConfig& config,
                                 const xk::storage::StorageOptions& storage) {
  Fixture f;
  XK_ASSIGN_OR_RETURN(f.db, xk::datagen::DblpDatabase::Generate(config));
  XK_ASSIGN_OR_RETURN(
      f.xk, xk::engine::XKeyword::Load(&f.db->graph(), &f.db->schema(),
                                       &f.db->tss(), storage));
  XK_ASSIGN_OR_RETURN(xk::decomp::Decomposition d,
                      xk::decomp::MakeXKeyword(f.db->tss(), /*B=*/2, /*M=*/6));
  XK_RETURN_NOT_OK(f.xk->AddDecomposition(std::move(d)));
  return f;
}

xk::engine::QueryRequest MakeRequest(const std::vector<std::string>& keywords) {
  xk::engine::QueryRequest request;
  request.keywords = keywords;
  request.decomposition = kDecomposition;
  return request;
}

std::string SimdIsa() {
  return xk::simd::IsaLevelToString(xk::simd::KernelLevel(/*force_scalar=*/false));
}

const char* BuildType() { return XK_PERFBENCH_BUILD_TYPE; }

}  // namespace xkpb
