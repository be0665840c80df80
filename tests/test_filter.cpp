// Two-stage search test layer (docs/search.md): unit tests for the
// signature index plus the recall-differential suite - filtered vs
// exhaustive top-k across a threshold x identity x gap-profile grid -
// and the prefix-consistency invariant that makes the filter safe to
// reason about: filtered results are always the exhaustive ranking with
// dropped subjects removed, bit-identical scores included.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "filter/signature.h"
#include "obs/metrics.h"
#include "score/matrices.h"
#include "search/database_search.h"
#include "seq/generator.h"
#include "service/protocol.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

AlignConfig local_config() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

seq::Database encoded_db(const std::vector<std::vector<std::uint8_t>>& seqs) {
  seq::Database db;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    // append(), not "s" + to_string(i): GCC 12 flags the inlined
    // operator+(const char*, string&&) with a bogus -Wrestrict (PR105651).
    db.add(seq::EncodedSequence{std::string("s").append(std::to_string(i)),
                                seqs[i]});
  }
  return db;
}

// A background database with `homologs` mutated copies of `query` planted
// at the FRONT (original indices 0..homologs-1), so membership of the
// exhaustive top-k is known by construction.
std::vector<std::vector<std::uint8_t>> planted_workload(
    std::mt19937_64& rng, const std::vector<std::uint8_t>& query,
    std::size_t background, std::size_t homologs, double sub_rate,
    double indel_rate) {
  std::vector<std::vector<std::uint8_t>> seqs;
  seqs.reserve(background + homologs);
  for (std::size_t i = 0; i < homologs; ++i) {
    seqs.push_back(test::mutate(rng, query, sub_rate, indel_rate));
  }
  std::uniform_int_distribution<std::size_t> len(60, 320);
  for (std::size_t i = 0; i < background; ++i) {
    seqs.push_back(test::random_protein(rng, len(rng)));
  }
  return seqs;
}

search::SearchOptions search_options(filter::FilterMode mode,
                                     double threshold = -1.0) {
  search::SearchOptions opt;
  opt.threads = 1;
  opt.top_k = 8;
  opt.keep_all_scores = true;
  opt.query.isa = simd::best_available_isa();
  opt.filter.mode = mode;
  opt.filter.threshold = threshold;
  return opt;
}

// The core invariant: the filtered result must equal the exhaustive
// ranking restricted to survivors - same scores bit-exact, same
// tie-breaking, truncated to k - with dropped subjects carrying the
// sentinel and never surfacing in `top`.
void expect_prefix_consistent_subset(const search::SearchResult& exhaustive,
                                     const search::SearchResult& filtered,
                                     std::size_t top_k) {
  ASSERT_EQ(exhaustive.scores.size(), filtered.scores.size());
  std::vector<search::SearchHit> expected;
  for (std::size_t i = 0; i < filtered.scores.size(); ++i) {
    if (filtered.scores[i] == filter::kDroppedScore) continue;
    // Survivors rescore through the identical exact path.
    EXPECT_EQ(filtered.scores[i], exhaustive.scores[i]) << "subject " << i;
    expected.push_back(search::SearchHit{i, exhaustive.scores[i]});
  }
  std::sort(expected.begin(), expected.end(),
            [](const search::SearchHit& a, const search::SearchHit& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.index < b.index;
            });
  if (expected.size() > top_k) expected.resize(top_k);
  ASSERT_EQ(filtered.top.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(filtered.top[r].index, expected[r].index) << "rank " << r;
    EXPECT_EQ(filtered.top[r].score, expected[r].score) << "rank " << r;
    EXPECT_NE(filtered.top[r].score, filter::kDroppedScore);
  }
}

}  // namespace

TEST(Filter, ModeParsingRoundTrip) {
  for (filter::FilterMode m : {filter::FilterMode::Off, filter::FilterMode::On,
                               filter::FilterMode::Auto}) {
    const auto parsed = filter::parse_filter_mode(filter::filter_mode_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(filter::parse_filter_mode("").has_value());
  EXPECT_FALSE(filter::parse_filter_mode("never").has_value());
  EXPECT_FALSE(filter::parse_filter_mode("ON").has_value());
}

TEST(Filter, ActiveGating) {
  EXPECT_FALSE(filter::filter_active(filter::FilterMode::Off, true));
  EXPECT_FALSE(filter::filter_active(filter::FilterMode::Off, false));
  EXPECT_TRUE(filter::filter_active(filter::FilterMode::On, true));
  EXPECT_TRUE(filter::filter_active(filter::FilterMode::On, false));
  EXPECT_TRUE(filter::filter_active(filter::FilterMode::Auto, true));
  EXPECT_FALSE(filter::filter_active(filter::FilterMode::Auto, false));
}

TEST(Filter, IndexValidatesParams) {
  std::mt19937_64 rng(1);
  seq::Database db = encoded_db({test::random_protein(rng, 100)});
  filter::FilterParams bad_k;
  bad_k.k = 0;
  EXPECT_THROW(filter::SignatureIndex(db, bad_k), std::invalid_argument);
  filter::FilterParams bad_bits;
  bad_bits.bits = 1000;  // not a multiple of 512
  EXPECT_THROW(filter::SignatureIndex(db, bad_bits), std::invalid_argument);
  filter::FilterParams ok;
  ok.bits = 1024;
  const filter::SignatureIndex idx(db, ok);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.words_per_signature(), 1024u / 32u);
}

TEST(Filter, IndexFingerprintMatches) {
  std::mt19937_64 rng(2);
  seq::Database db = encoded_db(
      {test::random_protein(rng, 80), test::random_protein(rng, 120)});
  const filter::SignatureIndex idx(db);
  EXPECT_TRUE(idx.matches(db));
  seq::Database other = encoded_db({test::random_protein(rng, 80)});
  EXPECT_FALSE(idx.matches(other));
  db.add(seq::EncodedSequence{"extra", test::random_protein(rng, 64)});
  EXPECT_FALSE(idx.matches(db));
}

TEST(Filter, ShortQueryAutoPassesEverything) {
  std::mt19937_64 rng(3);
  std::vector<std::vector<std::uint8_t>> seqs;
  for (int i = 0; i < 32; ++i) seqs.push_back(test::random_protein(rng, 150));
  seq::Database db = encoded_db(seqs);
  const filter::SignatureIndex idx(db);
  const auto query = test::random_protein(rng, idx.params().min_query - 1);
  std::vector<std::uint8_t> alive;
  const filter::FilterStats fs =
      idx.scan(query, simd::IsaKind::Scalar, alive, /*threshold=*/100.0);
  EXPECT_EQ(fs.candidates, db.size());
  EXPECT_EQ(fs.survivors, db.size());
  EXPECT_EQ(fs.auto_pass, db.size());
  EXPECT_EQ(std::count(alive.begin(), alive.end(), 1),
            static_cast<long>(db.size()));
}

TEST(Filter, ShortSubjectsAlwaysSurvive) {
  std::mt19937_64 rng(4);
  std::vector<std::vector<std::uint8_t>> seqs;
  for (int i = 0; i < 16; ++i) seqs.push_back(test::random_protein(rng, 200));
  filter::FilterParams params;
  // One-residue and sub-min_subject subjects ride along unconditionally,
  // even at an absurd threshold no signature could clear.
  seqs.push_back(test::random_protein(rng, 1));
  seqs.push_back(test::random_protein(rng, params.min_subject - 1));
  seq::Database db = encoded_db(seqs);
  const filter::SignatureIndex idx(db, params);
  const auto query = test::random_protein(rng, 200);
  std::vector<std::uint8_t> alive;
  const filter::FilterStats fs =
      idx.scan(query, simd::IsaKind::Scalar, alive, /*threshold=*/100.0);
  EXPECT_EQ(alive[16], 1);
  EXPECT_EQ(alive[17], 1);
  EXPECT_GE(fs.auto_pass, 2u);
}

TEST(Filter, ScanBitIdenticalAcrossBackends) {
  std::mt19937_64 rng(5);
  std::vector<std::vector<std::uint8_t>> seqs;
  std::uniform_int_distribution<std::size_t> len(10, 500);
  for (int i = 0; i < 300; ++i) seqs.push_back(test::random_protein(rng, len(rng)));
  seq::Database db = encoded_db(seqs);
  const filter::SignatureIndex idx(db);
  const auto query = test::random_protein(rng, 250);
  const filter::QuerySignature qsig = idx.make_query_signature(query);

  std::vector<std::uint8_t> ref;
  const filter::FilterStats ref_fs =
      idx.scan(qsig, simd::IsaKind::Scalar, ref);
  for (simd::IsaKind isa : test::available_isas()) {
    std::vector<std::uint8_t> alive;
    const filter::FilterStats fs = idx.scan(qsig, isa, alive);
    EXPECT_EQ(alive, ref) << simd::isa_name(isa);
    EXPECT_EQ(fs.survivors, ref_fs.survivors) << simd::isa_name(isa);
    EXPECT_EQ(fs.auto_pass, ref_fs.auto_pass) << simd::isa_name(isa);
    EXPECT_EQ(fs.near_miss_drops, ref_fs.near_miss_drops)
        << simd::isa_name(isa);
  }
}

// The tentpole suite: filtered vs exhaustive top-k recall across a
// threshold x identity x gap-profile grid. At the calibrated default
// threshold every planted homolog the exhaustive scan ranks must survive
// the filter (recall >= 0.999 - here exactly 1.0); tightening the
// threshold may only ever shrink the survivor set (monotone recall), and
// the subset invariant holds at every point of the grid.
TEST(Filter, RecallDifferentialGrid) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_config();
  std::mt19937_64 rng(0xf117e4);
  const std::size_t kTopK = 8;

  const double identities[] = {0.10, 0.25, 0.40};     // substitution rates
  const double gap_profiles[] = {0.0, 0.03, 0.08};    // indel rates
  const double tighter[] = {0.08, 0.20};              // beyond-default cuts

  std::uint64_t ranked = 0, recalled = 0;
  for (double sub : identities) {
    for (double indel : gap_profiles) {
      const auto query = test::random_protein(rng, 200);
      seq::Database db = encoded_db(planted_workload(
          rng, query, /*background=*/240, /*homologs=*/kTopK, sub, indel));

      const search::DatabaseSearch exhaustive(
          matrix, cfg, search_options(filter::FilterMode::Off));
      const search::SearchResult base = exhaustive.search(query, db);
      ASSERT_EQ(base.top.size(), kTopK);
      EXPECT_FALSE(base.filtered);
      // Planted homologs (original indices < kTopK) fill the exhaustive
      // top-k by construction; the grid is meaningless otherwise.
      for (const search::SearchHit& hit : base.top) {
        ASSERT_LT(hit.index, kTopK)
            << "background outranked a planted homolog (sub=" << sub
            << " indel=" << indel << ")";
      }

      const search::DatabaseSearch at_default(
          matrix, cfg, search_options(filter::FilterMode::On));
      const search::SearchResult def = at_default.search(query, db);
      EXPECT_TRUE(def.filtered);
      expect_prefix_consistent_subset(base, def, kTopK);
      ranked += base.top.size();
      for (const search::SearchHit& hit : base.top) {
        recalled += static_cast<std::uint64_t>(
            def.scores[hit.index] != filter::kDroppedScore);
      }

      // Monotonicity: a tighter threshold never resurrects a subject.
      std::uint64_t prev_survivors = def.filter_stats.survivors;
      for (double thr : tighter) {
        const search::DatabaseSearch tight(
            matrix, cfg, search_options(filter::FilterMode::On, thr));
        const search::SearchResult res = tight.search(query, db);
        expect_prefix_consistent_subset(base, res, kTopK);
        EXPECT_LE(res.filter_stats.survivors, prev_survivors)
            << "thr=" << thr;
        prev_survivors = res.filter_stats.survivors;
      }
    }
  }
  // The acceptance bar: recall >= 0.999 at the default threshold. The
  // grid is seeded, so a calibration regression fails deterministically.
  ASSERT_GT(ranked, 0u);
  EXPECT_GE(static_cast<double>(recalled) / static_cast<double>(ranked),
            0.999);
}

// Gap-heavy near-identical homologs (the lazy-F adversarial workload):
// long indel runs shred alignment columns but leave most k-mers intact,
// so the signature must still route them into rescoring.
TEST(Filter, AdversarialHomologSurvives) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto& alphabet = matrix.alphabet();
  seq::SequenceGenerator gen(77);
  const seq::Sequence query = gen.protein(300, "q");
  std::vector<seq::Sequence> raw;
  raw.push_back(gen.adversarial_subject(query, {}, "adversary"));
  for (auto& s : gen.protein_database(200, 150.0, 0.5, 40, 400)) {
    raw.push_back(std::move(s));
  }
  seq::Database db(alphabet, raw);

  const search::DatabaseSearch engine(
      matrix, local_config(), search_options(filter::FilterMode::On));
  const search::SearchResult res =
      engine.search(alphabet.encode(query.residues), db);
  ASSERT_TRUE(res.filtered);
  ASSERT_FALSE(res.top.empty());
  EXPECT_EQ(res.top[0].index, 0u);  // the adversary is original index 0
  EXPECT_LT(res.filter_stats.survivors, res.filter_stats.candidates);
}

TEST(Filter, AutoModeGatesOnAlignKind) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(6);
  const auto query = test::random_protein(rng, 200);
  seq::Database db =
      encoded_db(planted_workload(rng, query, 100, 4, 0.2, 0.02));

  const search::DatabaseSearch local(
      matrix, local_config(), search_options(filter::FilterMode::Auto));
  EXPECT_TRUE(local.search(query, db).filtered);

  AlignConfig global = local_config();
  global.kind = AlignKind::Global;
  const search::DatabaseSearch glob(
      matrix, global, search_options(filter::FilterMode::Auto));
  EXPECT_FALSE(glob.search(query, db).filtered);
}

TEST(Filter, PrebuiltIndexSkipsRebuild) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(7);
  const auto query = test::random_protein(rng, 200);
  seq::Database db =
      encoded_db(planted_workload(rng, query, 120, 4, 0.2, 0.02));
  db.sort_by_length_desc();  // index the storage order searches will see

  search::SearchOptions opt = search_options(filter::FilterMode::On);
  opt.filter.index = std::make_shared<filter::SignatureIndex>(db);
  obs::Counter& builds = obs::registry().counter("filter.index_builds");
  const std::uint64_t before = builds.value();
  const search::DatabaseSearch engine(matrix, local_config(), opt);
  const search::SearchResult res = engine.search(query, db);
  EXPECT_TRUE(res.filtered);
  EXPECT_EQ(builds.value(), before);  // served by the prebuilt index

  // Without a prebuilt index every search() builds its own. (The build
  // counter only moves when instrumentation is compiled in.)
  opt.filter.index = nullptr;
  const search::DatabaseSearch rebuilding(matrix, local_config(), opt);
  rebuilding.search(query, db);
  EXPECT_EQ(builds.value(), before + (obs::metrics_enabled() ? 1 : 0));
}

TEST(Filter, BatchedAndSerialAgreeWithFilter) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(8);
  std::vector<std::vector<std::uint8_t>> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(test::random_protein(rng, 180));
  queries.push_back(queries.front());  // dedup path under filtering
  seq::Database db =
      encoded_db(planted_workload(rng, queries[0], 200, 4, 0.15, 0.02));

  const search::SearchOptions opt = search_options(filter::FilterMode::On);
  const search::DatabaseSearch be(matrix, local_config(), opt);
  const auto br = be.search_many(queries, db);
  const auto sr =
      test::serial_search_many(matrix, local_config(), opt, queries, db);
  ASSERT_EQ(br.size(), queries.size());
  ASSERT_EQ(sr.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_TRUE(br[qi].filtered);
    EXPECT_TRUE(sr[qi].filtered);
    EXPECT_EQ(br[qi].scores, sr[qi].scores) << "query " << qi;
    ASSERT_EQ(br[qi].top.size(), sr[qi].top.size()) << "query " << qi;
    for (std::size_t r = 0; r < br[qi].top.size(); ++r) {
      EXPECT_EQ(br[qi].top[r].index, sr[qi].top[r].index);
      EXPECT_EQ(br[qi].top[r].score, sr[qi].top[r].score);
    }
    EXPECT_EQ(br[qi].filter_stats.survivors, sr[qi].filter_stats.survivors);
  }
}

TEST(Filter, WireProtocolFilterField) {
  service::WireRequest req;
  std::string err;

  obs::Json doc = obs::Json::parse(
      R"({"id": 3, "queries": ["MKV"], "filter": "on"})", &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(service::parse_request(doc, req), "");
  EXPECT_EQ(req.filter, filter::FilterMode::On);
  EXPECT_TRUE(req.filter_explicit);

  doc = obs::Json::parse(R"({"id": 3, "queries": ["MKV"]})", &err);
  ASSERT_EQ(service::parse_request(doc, req), "");
  EXPECT_FALSE(req.filter_explicit);  // inherits the server default

  doc = obs::Json::parse(
      R"({"id": 3, "queries": ["MKV"], "filter": "sometimes"})", &err);
  EXPECT_NE(service::parse_request(doc, req), "");
  doc = obs::Json::parse(
      R"({"id": 3, "queries": ["MKV"], "filter": 1})", &err);
  EXPECT_NE(service::parse_request(doc, req), "");

  // Round trip: an explicit mode survives serialize -> parse.
  service::WireRequest out;
  out.queries = {"MKV"};
  out.filter = filter::FilterMode::Off;
  out.filter_explicit = true;
  ASSERT_EQ(service::parse_request(service::request_json(out), req), "");
  EXPECT_EQ(req.filter, filter::FilterMode::Off);
  EXPECT_TRUE(req.filter_explicit);

  // Response carries the filtered flag both ways.
  service::WireResponse resp;
  resp.ok = true;
  resp.filtered = true;
  const service::WireResponse back =
      service::parse_response(service::response_json(resp));
  EXPECT_TRUE(back.ok);
  EXPECT_TRUE(back.filtered);
}
