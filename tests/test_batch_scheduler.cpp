// BatchScheduler: the batched many-query search must be bit-identical to
// the serial per-query loop for every thread count x shard size x top_k
// combination; the profile LRU must behave like a textbook LRU with exact
// counters; hits must carry ORIGINAL database indices. Local batches run
// on the inter-sequence precision ladder, so they are also checked
// differentially against the striped serial search and the scalar oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/inter_engine.h"
#include "core/sequential.h"
#include "search/batch_scheduler.h"
#include "search/database_search.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "store/builder.h"
#include "store/loader.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 100.0) {
  seq::SequenceGenerator gen(seed);
  return seq::Database(score::Alphabet::protein(),
                       gen.protein_database(count, median_len, 0.6, 10, 400));
}

std::vector<std::vector<std::uint8_t>> make_queries(std::uint64_t seed) {
  seq::SequenceGenerator gen(seed);
  std::vector<std::vector<std::uint8_t>> qs;
  for (std::size_t len : {60, 150, 90, 220}) {
    qs.push_back(score::Alphabet::protein().encode(gen.protein(len).residues));
  }
  qs.push_back(qs[1]);  // a repeat, so the profile cache gets a hit
  return qs;
}

// The central contract: batched == serial, bit for bit, over the full
// scheduling parameter grid.
TEST(BatchScheduler, BitIdenticalToSerialLoopAcrossGrid) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto queries = make_queries(81);
  const seq::Database base_db = make_db(82, 90);

  // Serial oracle: one search() per query.
  search::SearchOptions serial_opt;
  serial_opt.threads = 2;
  serial_opt.top_k = 10;
  std::vector<search::SearchResult> oracle;
  {
    seq::Database db = base_db;
    oracle = test::serial_search_many(m, cfg, serial_opt, queries, db);
  }
  ASSERT_EQ(oracle.size(), queries.size());

  for (int threads : {1, 2, 8}) {
    for (std::size_t shard : {std::size_t{1}, std::size_t{7}, std::size_t{0},
                              std::size_t{64}}) {
      for (std::size_t top_k : {std::size_t{0}, std::size_t{3},
                                std::size_t{10}}) {
        search::SearchOptions opt;
        opt.threads = threads;
        opt.shard_size = shard;
        opt.top_k = top_k;
        seq::Database db = base_db;
        const auto got =
            search::DatabaseSearch(m, cfg, opt).search_many(queries, db);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t qi = 0; qi < got.size(); ++qi) {
          EXPECT_EQ(got[qi].scores, oracle[qi].scores)
              << "threads=" << threads << " shard=" << shard
              << " top_k=" << top_k << " query=" << qi;
          ASSERT_EQ(got[qi].top.size(), std::min(top_k, base_db.size()));
          for (std::size_t k = 0; k < got[qi].top.size(); ++k) {
            EXPECT_EQ(got[qi].top[k].index, oracle[qi].top[k].index);
            EXPECT_EQ(got[qi].top[k].score, oracle[qi].top[k].score);
          }
        }
      }
    }
  }
}

TEST(BatchScheduler, StatsAreCoherent) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions opt;
  opt.threads = 4;
  opt.shard_size = 8;
  search::BatchScheduler sched(m, cfg, opt);

  const auto queries = make_queries(83);
  seq::Database db = make_db(84, 50);
  const auto results = sched.run(queries, db);
  const search::BatchStats& st = sched.last_stats();

  EXPECT_EQ(st.queries, queries.size());
  EXPECT_EQ(st.subjects, db.size());
  EXPECT_EQ(st.shard_size, 8u);
  EXPECT_EQ(st.threads, 4);
  // 4 distinct queries + 1 repeat: tiles are generated per distinct
  // query (the repeat is deduped), ceil(50 / 8) = 7 tiles each.
  EXPECT_EQ(st.tiles, 4u * 7u);
  EXPECT_EQ(st.dedup_queries, 1u);
  // Cold cache with default capacity: one lookup per occurrence.
  EXPECT_EQ(st.cache_misses, 4u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_evictions, 0u);
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.busy_seconds, 0.0);
  EXPECT_GT(st.occupancy, 0.0);
  EXPECT_LE(st.occupancy, 1.0 + 1e-9);
  // Computed cells = sum over DISTINCT queries of |q| * total_residues;
  // the repeat's cells were never recomputed.
  std::size_t cells = 0;
  for (std::size_t qi = 0; qi + 1 < queries.size(); ++qi) {
    cells += queries[qi].size() * db.total_residues();
  }
  EXPECT_EQ(st.cells, cells);
  // Every result's seconds is the batch wall clock.
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.seconds, st.wall_seconds);
  }
}

// The cache resolves one lookup per query occurrence, in query order, so
// counters follow the textbook LRU trace exactly.
TEST(BatchScheduler, ProfileCacheEvictsLeastRecentlyUsed) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(85);
  const auto A = score::Alphabet::protein().encode(gen.protein(50).residues);
  const auto B = score::Alphabet::protein().encode(gen.protein(60).residues);
  const auto C = score::Alphabet::protein().encode(gen.protein(70).residues);

  search::SearchOptions opt;
  opt.threads = 2;
  opt.profile_cache_capacity = 2;
  search::BatchScheduler sched(m, cfg, opt);
  seq::Database db = make_db(86, 12);

  // A, B: two cold misses fill the cache.
  sched.run({A, B}, db);
  EXPECT_EQ(sched.cache().misses(), 2u);
  EXPECT_EQ(sched.cache().hits(), 0u);
  EXPECT_EQ(sched.cache().evictions(), 0u);
  EXPECT_EQ(sched.cache().size(), 2u);

  // C, A: C evicts A (LRU), then A misses again and evicts B.
  sched.run({C, A}, db);
  EXPECT_EQ(sched.cache().misses(), 4u);
  EXPECT_EQ(sched.cache().hits(), 0u);
  EXPECT_EQ(sched.cache().evictions(), 2u);
  EXPECT_EQ(sched.cache().size(), 2u);

  // A, C: both resident now -> two hits, nothing evicted.
  sched.run({A, C}, db);
  EXPECT_EQ(sched.cache().misses(), 4u);
  EXPECT_EQ(sched.cache().hits(), 2u);
  EXPECT_EQ(sched.cache().evictions(), 2u);
}

// Same residues, different config -> different cache entries.
TEST(BatchScheduler, CacheKeyIncludesConfig) {
  const auto& m = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(87);
  const auto q = score::Alphabet::protein().encode(gen.protein(40).residues);

  search::QueryProfileCache cache(8);
  AlignConfig local;
  local.kind = AlignKind::Local;
  local.pen = Penalties::symmetric(10, 2);
  AlignConfig global = local;
  global.kind = AlignKind::Global;

  core::QueryOptions qopt;
  const auto c1 = cache.get_or_build(m, local, qopt, q);
  const auto c2 = cache.get_or_build(m, global, qopt, q);
  const auto c3 = cache.get_or_build(m, local, qopt, q);
  EXPECT_NE(c1.get(), c2.get());
  EXPECT_EQ(c1.get(), c3.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// Hits must report ORIGINAL insertion indices even though the scheduler
// length-sorts the database internally.
TEST(BatchScheduler, HitsCarryOriginalIndices) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(88);
  const seq::Sequence qseq = gen.protein(120, "Q");
  const auto query = score::Alphabet::protein().encode(qseq.residues);

  // Short planted homolog inside longer decoys: length-sorting moves it,
  // original index must survive.
  seq::Database db = make_db(89, 40, 300.0);
  const std::size_t planted = db.size();
  db.add(seq::encode(
      score::Alphabet::protein(),
      seq::make_similar_subject(gen, qseq, {seq::Level::Hi, seq::Level::Hi})));

  search::SearchOptions opt;
  opt.threads = 3;
  opt.top_k = 1;
  const auto results =
      search::DatabaseSearch(m, cfg, opt).search_many({query}, db);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].top.size(), 1u);
  EXPECT_EQ(results[0].top[0].index, planted);
  EXPECT_TRUE(db.permuted());
  // scores[] is original-indexed too: verify against the oracle.
  EXPECT_EQ(results[0].scores[planted],
            core::align_sequential(m, cfg, query, db.by_original(planted).view()));
}

TEST(BatchScheduler, EmptyBatchAndEmptyDatabase) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions opt;
  opt.threads = 2;
  search::DatabaseSearch engine(m, cfg, opt);

  // No queries: no results, no crash.
  seq::Database db = make_db(90, 5);
  EXPECT_TRUE(engine.search_many({}, db).empty());

  // Empty database: per-query result with zero scores and no hits.
  seq::SequenceGenerator gen(91);
  const auto q = score::Alphabet::protein().encode(gen.protein(30).residues);
  seq::Database empty_db;
  const auto res = engine.search_many({q}, empty_db);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].scores.empty());
  EXPECT_TRUE(res[0].top.empty());

  // A zero-length query is rejected exactly like in the serial path.
  EXPECT_THROW(engine.search_many({{}}, db), std::invalid_argument);
}

TEST(BatchScheduler, UnsortedDatabaseStaysUnsorted) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions opt;
  opt.threads = 2;
  opt.sort_database = false;
  seq::Database db = make_db(92, 20);
  const auto queries = make_queries(93);

  seq::Database db2 = db;
  const auto oracle = test::serial_search_many(m, cfg, opt, queries, db2);
  const auto got =
      search::DatabaseSearch(m, cfg, opt).search_many(queries, db);
  EXPECT_FALSE(db.permuted());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(got[qi].scores, oracle[qi].scores) << "query " << qi;
  }
}

// ---------------------------------------------------------------------
// Inter tiles: the served local path.

constexpr auto kI8 = core::InterPrecision::I8;
constexpr auto kI16 = core::InterPrecision::I16;
constexpr auto kI32 = core::InterPrecision::I32;

std::size_t tier(core::InterPrecision p) { return static_cast<std::size_t>(p); }

// BLOSUM62 with tryptophan's self-score raised to 120, so a few hundred
// identical residues overflow int16 and planted copies climb all three
// ladder tiers at test-sized lengths. Mismatch scores are untouched.
const score::ScoreMatrix& hot_matrix() {
  static const score::ScoreMatrix m = [] {
    const auto& b62 = score::ScoreMatrix::blosum62();
    const int n = b62.size();
    std::vector<std::int8_t> v(static_cast<std::size_t>(n) * n);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        v[static_cast<std::size_t>(a) * n + b] = b62.at(a, b);
      }
    }
    const int w = b62.alphabet().encode("W")[0];
    v[static_cast<std::size_t>(w) * n + w] = 120;
    return score::ScoreMatrix(b62.alphabet(), "blosum62_hot_w", v);
  }();
  return m;
}

struct LadderWorkload {
  std::vector<std::vector<std::uint8_t>> queries;
  seq::Database db;
};

// Random queries plus a query carrying a 300-residue tryptophan run; the
// database holds random subjects and near-identical mutated copies of two
// queries: the plain one scores in the hundreds (int8 -> int16), the
// tryptophan one above 32767 (int16 -> int32).
LadderWorkload ladder_workload() {
  std::mt19937_64 rng(301);
  const auto& alphabet = score::Alphabet::protein();
  std::vector<std::uint8_t> hot = test::random_protein(rng, 20);
  hot.insert(hot.end(), 300, alphabet.encode("W")[0]);
  const auto tail = test::random_protein(rng, 10);
  hot.insert(hot.end(), tail.begin(), tail.end());

  LadderWorkload wl;
  wl.queries = {test::random_protein(rng, 120), hot,
                test::random_protein(rng, 60)};
  wl.queries.push_back(wl.queries[0]);  // a repeat: the dedup path
  seq::SequenceGenerator gen(302);
  wl.db = seq::Database(alphabet, gen.protein_database(30, 90.0, 0.6, 10, 300));
  for (std::size_t qi : {0, 1}) {
    for (int copy = 0; copy < 2; ++copy) {
      wl.db.add(seq::EncodedSequence{
          "planted" + std::to_string(qi) + "_" + std::to_string(copy),
          test::mutate(rng, wl.queries[qi], 0.03, 0.01)});
    }
  }
  return wl;
}

// oracle[q][original index] = align_sequential(query q, subject).
std::vector<std::vector<long>> oracle_scores(
    const score::ScoreMatrix& m, const AlignConfig& cfg,
    const std::vector<std::vector<std::uint8_t>>& queries,
    const seq::Database& db) {
  std::vector<std::vector<long>> out;
  for (const auto& q : queries) {
    std::vector<long> row(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      row[i] = core::align_sequential(m, cfg, q, db.by_original(i).view());
    }
    out.push_back(std::move(row));
  }
  return out;
}

// Local batches run on the ladder and match the striped serial search (the
// served path before the ladder) and the scalar oracle bit for bit, over
// every ISA x threads x shard size x filter mode, with symmetric and
// asymmetric penalties, while planted subjects climb every tier.
TEST(BatchScheduler, InterTilesMatchStripedAndOracleAcrossGrid) {
  const auto& m = hot_matrix();
  const LadderWorkload wl = ladder_workload();
  const std::size_t distinct = wl.queries.size() - 1;

  for (const Penalties& pen :
       {Penalties::symmetric(10, 2), Penalties{{12, 2}, {8, 3}}}) {
    AlignConfig cfg;
    cfg.kind = AlignKind::Local;
    cfg.pen = pen;
    ASSERT_TRUE(farrar_safe(m, pen));
    const auto oracle = oracle_scores(m, cfg, wl.queries, wl.db);

    for (const simd::IsaKind isa : test::available_isas()) {
      const core::InterEngine* engine = core::get_inter_engine(isa);
      ASSERT_NE(engine, nullptr) << simd::isa_name(isa);
      for (const filter::FilterMode mode :
           {filter::FilterMode::Off, filter::FilterMode::On,
            filter::FilterMode::Auto}) {
        search::SearchOptions ref_opt;
        ref_opt.threads = 2;
        ref_opt.query.isa = isa;
        ref_opt.filter.mode = mode;
        std::vector<search::SearchResult> striped;
        for (const auto& q : wl.queries) {
          seq::Database db = wl.db;
          striped.push_back(
              search::DatabaseSearch(m, cfg, ref_opt).search(q, db));
        }

        // The scalar backend emulates its lanes (~10x slower); one thread
        // count covers it, the vector backends get the full grid.
        const std::vector<int> thread_grid =
            isa == simd::IsaKind::Scalar ? std::vector<int>{3}
                                         : std::vector<int>{1, 3, 4};
        for (int threads : thread_grid) {
          for (std::size_t shard : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{0}}) {
            const std::string where =
                std::string(simd::isa_name(isa)) +
                " pen.q=" + std::to_string(pen.query.open) +
                " filter=" + std::to_string(static_cast<int>(mode)) +
                " threads=" + std::to_string(threads) +
                " shard=" + std::to_string(shard);
            search::SearchOptions opt = ref_opt;
            opt.threads = threads;
            opt.shard_size = shard;
            search::BatchScheduler sched(m, cfg, opt);
            seq::Database db = wl.db;
            const auto got = sched.run(wl.queries, db);
            ASSERT_EQ(got.size(), wl.queries.size()) << where;

            std::uint64_t promotions = 0;
            for (std::size_t qi = 0; qi < got.size(); ++qi) {
              EXPECT_EQ(got[qi].scores, striped[qi].scores)
                  << where << " query " << qi;
              ASSERT_EQ(got[qi].top.size(), striped[qi].top.size()) << where;
              for (std::size_t k = 0; k < got[qi].top.size(); ++k) {
                EXPECT_EQ(got[qi].top[k].index, striped[qi].top[k].index);
                EXPECT_EQ(got[qi].top[k].score, striped[qi].top[k].score);
              }
              for (std::size_t i = 0; i < got[qi].scores.size(); ++i) {
                if (got[qi].scores[i] == filter::kDroppedScore) {
                  EXPECT_NE(mode, filter::FilterMode::Off) << where;
                } else {
                  EXPECT_EQ(got[qi].scores[i], oracle[qi][i])
                      << where << " query " << qi << " subject " << i;
                }
              }
              // KernelStats is striped-only: zero on inter tiles.
              EXPECT_EQ(got[qi].stats.columns, 0u) << where;
              if (qi < distinct) promotions += got[qi].promotions;
            }

            // The ladder really ran, and planted subjects climbed it.
            const search::BatchStats& st = sched.last_stats();
            EXPECT_GT(st.tiers[tier(kI32)].subjects, 0u) << where;
            EXPECT_EQ(st.tiers[tier(kI32)].overflowed, 0u) << where;
            if (engine->lanes(kI8) > 0) {
              EXPECT_GT(st.tiers[tier(kI8)].overflowed, 0u) << where;
              EXPECT_GT(st.tiers[tier(kI16)].overflowed, 0u) << where;
            }
            EXPECT_EQ(promotions, st.tiers[tier(kI8)].overflowed +
                                      st.tiers[tier(kI16)].overflowed)
                << where;
          }
        }
      }
    }
  }
}

// A pinned width (the service's degraded requests pin W8) runs that single
// tier: no promotion, saturated lanes keep the rail score - the same
// answers the striped kernels give at a pinned width.
TEST(BatchScheduler, PinnedWidthRunsSingleInterTier) {
  const auto& m = hot_matrix();
  const LadderWorkload wl = ladder_workload();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const auto oracle = oracle_scores(m, cfg, wl.queries, wl.db);

  for (const simd::IsaKind isa : test::available_isas()) {
    const core::InterEngine* engine = core::get_inter_engine(isa);
    for (const core::InterPrecision p : core::kInterPrecisions) {
      if (engine->lanes(p) == 0) continue;
      const ScoreWidth width = p == kI8    ? ScoreWidth::W8
                               : p == kI16 ? ScoreWidth::W16
                                           : ScoreWidth::W32;
      search::SearchOptions opt;
      opt.threads = 3;
      opt.query.isa = isa;
      opt.query.width = width;
      search::BatchScheduler sched(m, cfg, opt);
      seq::Database db = wl.db;
      const auto got = sched.run(wl.queries, db);
      const std::string where = std::string(simd::isa_name(isa)) + " " +
                                core::to_string(p);
      for (std::size_t qi = 0; qi < got.size(); ++qi) {
        seq::Database striped_db = wl.db;
        EXPECT_EQ(got[qi].scores, search::DatabaseSearch(m, cfg, opt)
                                      .search(wl.queries[qi], striped_db)
                                      .scores)
            << where << " query " << qi;
        EXPECT_EQ(got[qi].promotions, 0u) << where;
        for (std::size_t i = 0; i < oracle[qi].size(); ++i) {
          EXPECT_EQ(got[qi].scores[i],
                    std::min(oracle[qi][i], core::inter_score_ceiling(p)))
              << where << " query " << qi << " subject " << i;
        }
      }
      const search::BatchStats& st = sched.last_stats();
      for (const core::InterPrecision other : core::kInterPrecisions) {
        if (other == p) {
          EXPECT_EQ(st.tiers[tier(other)].subjects,
                    (wl.queries.size() - 1) * wl.db.size())
              << where;
        } else {
          EXPECT_EQ(st.tiers[tier(other)].subjects, 0u) << where;
        }
      }
    }
  }
}

// mmap == FASTA through the ladder: per-slice batches over a mapped .aidx
// (slice signatures and profile LUTs attached, as aalignd serves a fleet
// shard) match the striped search of the same slice, and the slices
// assembled by fleet-global index match the FASTA-parsed database.
TEST(BatchScheduler, MappedShardSlicesMatchFastaThroughLadder) {
  const auto& m = hot_matrix();
  const LadderWorkload wl = ladder_workload();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::Database build_db = wl.db;
  const std::string path = ::testing::TempDir() + "batch_ladder.aidx";
  store::write_index(path, build_db, m);
  const store::MappedIndex idx = store::MappedIndex::open(path);

  for (const filter::FilterMode mode :
       {filter::FilterMode::Off, filter::FilterMode::On}) {
    search::SearchOptions opt;
    opt.threads = 3;
    opt.query.isa = simd::best_available_isa();
    opt.filter.mode = mode;

    seq::Database fasta_db = wl.db;
    const auto fasta = search::BatchScheduler(m, cfg, opt).run(wl.queries,
                                                                fasta_db);

    std::vector<std::vector<long>> assembled(
        wl.queries.size(), std::vector<long>(wl.db.size(), 0));
    const std::size_t shards = 2;
    for (std::size_t s = 0; s < shards; ++s) {
      const store::ShardSlice slice = idx.shard_slice(s, shards);
      const std::vector<std::size_t> orig = idx.original_indices(slice);
      search::SearchOptions sopt = opt;
      sopt.filter.index = idx.signatures(slice);
      sopt.query.lut.i8 = idx.profile_lut_i8();
      sopt.query.lut.i16 = idx.profile_lut_i16();
      sopt.query.lut.i32 = idx.profile_lut_i32();
      sopt.query.lut.stride = idx.header().lut_stride;
      sopt.query.lut.backing = idx.file();

      seq::Database slice_db = idx.database(slice);
      const auto got =
          search::BatchScheduler(m, cfg, sopt).run(wl.queries, slice_db);
      for (std::size_t qi = 0; qi < wl.queries.size(); ++qi) {
        seq::Database striped_db = idx.database(slice);
        const auto striped = search::DatabaseSearch(m, cfg, sopt)
                                 .search(wl.queries[qi], striped_db);
        EXPECT_EQ(got[qi].scores, striped.scores)
            << "slice " << s << " query " << qi;
        ASSERT_EQ(got[qi].scores.size(), orig.size());
        for (std::size_t i = 0; i < orig.size(); ++i) {
          assembled[qi][orig[i]] = got[qi].scores[i];
        }
      }
    }
    for (std::size_t qi = 0; qi < wl.queries.size(); ++qi) {
      EXPECT_EQ(assembled[qi], fasta[qi].scores)
          << "filter=" << static_cast<int>(mode) << " query " << qi;
    }
  }
  std::remove(path.c_str());
}

// Global (and semi-global) alignment keeps the striped loop: exact scores,
// striped kernel statistics, no ladder tier touched.
TEST(BatchScheduler, GlobalBatchStaysStripedAndExact) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const auto queries = make_queries(311);
  const seq::Database base_db = make_db(312, 40);
  const auto oracle = oracle_scores(m, cfg, queries, base_db);

  for (const simd::IsaKind isa : test::available_isas()) {
    search::SearchOptions opt;
    opt.threads = 3;
    opt.query.isa = isa;
    search::BatchScheduler sched(m, cfg, opt);
    seq::Database db = base_db;
    const auto got = sched.run(queries, db);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(got[qi].scores, oracle[qi])
          << simd::isa_name(isa) << " query " << qi;
      seq::Database serial_db = base_db;
      EXPECT_EQ(got[qi].scores, search::DatabaseSearch(m, cfg, opt)
                                    .search(queries[qi], serial_db)
                                    .scores);
      EXPECT_GT(got[qi].stats.columns, 0u);
    }
    for (const auto& t : sched.last_stats().tiers) {
      EXPECT_EQ(t.subjects, 0u) << simd::isa_name(isa);
    }
  }
}

// A token fired while inter tiles run throws CancelledError, and the same
// scheduler then answers the next batch exactly.
TEST(BatchScheduler, CancelDuringInterTilesThenNextBatchExact) {
  using namespace std::chrono_literals;
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  search::SearchOptions opt;
  opt.threads = 2;
  opt.query.isa = simd::best_available_isa();
  search::BatchScheduler sched(m, cfg, opt);

  // Hundreds of ms of ladder work even at tens of GCUPS; the token fires
  // 20 ms in, after the contexts are built and the tiles are running.
  seq::SequenceGenerator gen(321);
  std::vector<std::vector<std::uint8_t>> big_queries;
  for (int i = 0; i < 4; ++i) {
    big_queries.push_back(
        score::Alphabet::protein().encode(gen.protein(2000).residues));
  }
  seq::Database big_db = make_db(322, 4000, 400.0);
  core::CancelToken token;
  std::thread firer([&] {
    std::this_thread::sleep_for(20ms);
    token.cancel();
  });
  EXPECT_THROW(sched.run(big_queries, big_db, &token), core::CancelledError);
  firer.join();

  const auto queries = make_queries(323);
  const seq::Database base_db = make_db(324, 50);
  seq::Database db = base_db;
  const auto got = sched.run(queries, db);
  const auto oracle = oracle_scores(m, cfg, queries, base_db);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(got[qi].scores, oracle[qi]) << "query " << qi;
  }
  EXPECT_GT(sched.last_stats().tiers[tier(kI32)].subjects +
                sched.last_stats().tiers[tier(kI8)].subjects,
            0u);
}

}  // namespace
