#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "sim/joint_vocab.h"
#include "sim/params.h"
#include "sim/scores.h"

namespace her {
namespace {

struct TwoGraphs {
  Graph g1;
  Graph g2;
};

TwoGraphs MakeGraphs() {
  GraphBuilder b1;
  const VertexId u0 = b1.AddVertex("item");
  const VertexId u1 = b1.AddVertex("Germany");
  const VertexId u2 = b1.AddVertex("white");
  b1.AddEdge(u0, u1, "country");
  b1.AddEdge(u0, u2, "color");

  GraphBuilder b2;
  const VertexId v0 = b2.AddVertex("item");
  const VertexId v1 = b2.AddVertex("Germany");
  const VertexId v2 = b2.AddVertex("White");
  b2.AddEdge(v0, v1, "brandCountry");
  b2.AddEdge(v0, v2, "hasColor");
  b2.AddEdge(v1, v2, "country");  // shared label with g1

  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(JointVocabTest, SharedLabelsGetOneToken) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const LabelId c1 = tg.g1.edge_labels().Find("country");
  const LabelId c2 = tg.g2.edge_labels().Find("country");
  EXPECT_EQ(vocab.TokenOf(0, c1), vocab.TokenOf(1, c2));
  // 5 distinct labels: country, color, brandCountry, hasColor (+ country shared).
  EXPECT_EQ(vocab.size(), 4u);
  EXPECT_EQ(vocab.eos(), 4);
  EXPECT_EQ(vocab.size_with_eos(), 5u);
}

TEST(JointVocabTest, MapPathTranslatesLabels) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const LabelId c = tg.g1.edge_labels().Find("country");
  const LabelId col = tg.g1.edge_labels().Find("color");
  const auto mapped = vocab.MapPath(0, std::vector<LabelId>{c, col});
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(vocab.Name(mapped[0]), "country");
  EXPECT_EQ(vocab.Name(mapped[1]), "color");
}

TEST(JaccardVertexScorerTest, ExactAndPartial) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  EXPECT_DOUBLE_EQ(hv.Score(0, 0), 1.0);  // item ~ item
  EXPECT_DOUBLE_EQ(hv.Score(1, 1), 1.0);  // Germany ~ Germany
  EXPECT_DOUBLE_EQ(hv.Score(2, 2), 1.0);  // white ~ White (case-insensitive)
  EXPECT_DOUBLE_EQ(hv.Score(1, 2), 0.0);
}

TEST(EmbeddingVertexScorerTest, AgreesWithEmbedderOnIdentity) {
  const TwoGraphs tg = MakeGraphs();
  const HashedTextEmbedder emb;
  const EmbeddingVertexScorer hv(tg.g1, tg.g2, emb);
  EXPECT_NEAR(hv.Score(0, 0), 1.0, 1e-6);
  EXPECT_LT(hv.Score(1, 2), 0.5);
}

/// Two graphs with enough label variety to exercise the batch kernel's
/// 4-wide main loop plus its scalar tail.
TwoGraphs MakeWideGraphs(int n) {
  GraphBuilder b1;
  GraphBuilder b2;
  for (int i = 0; i < n; ++i) {
    b1.AddVertex("label one " + std::to_string(i % 7));
    b2.AddVertex("label two " + std::to_string(i % 5));
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(EmbeddingVertexScorerTest, ScoreBatchBitIdenticalToScore) {
  const TwoGraphs tg = MakeWideGraphs(37);
  const HashedTextEmbedder emb;
  const EmbeddingVertexScorer hv(tg.g1, tg.g2, emb);
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId u = static_cast<VertexId>(rng.Below(37));
    std::vector<VertexId> vs;
    const size_t len = rng.Below(37) + 1;  // covers tail sizes 1..3 too
    for (size_t i = 0; i < len; ++i) {
      vs.push_back(static_cast<VertexId>(rng.Below(37)));
    }
    std::vector<double> batch(vs.size());
    hv.ScoreBatch(u, vs, batch);
    for (size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(batch[i], hv.Score(u, vs[i]))
          << "u=" << u << " v=" << vs[i] << " i=" << i;
    }
  }
  EXPECT_EQ(hv.BatchCalls(), 20u);
}

TEST(VertexScorerTest, DefaultScoreBatchLoopsOverScore) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  hv.ScoreBatch(0, vs, out);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], hv.Score(0, vs[i]));
  }
  EXPECT_EQ(hv.BatchCalls(), 1u);
}

TEST(CachingVertexScorerTest, CachesAgreesAndCountsHits) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner);
  EXPECT_DOUBLE_EQ(cached.Score(0, 0), inner.Score(0, 0));
  EXPECT_EQ(cached.CacheSize(), 1u);
  EXPECT_EQ(cached.CacheHits(), 0u);
  EXPECT_DOUBLE_EQ(cached.Score(0, 0), inner.Score(0, 0));
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.CacheSize(), 1u);
}

TEST(CachingVertexScorerTest, ScoreBatchSharesTheMemoWithScore) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner);
  // Seed one entry via the scalar path; the batch must serve it as a hit
  // and insert the two misses.
  cached.Score(0, 1);
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  cached.ScoreBatch(0, vs, out);
  EXPECT_EQ(cached.CacheSize(), 3u);
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.BatchCalls(), 1u);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], inner.Score(0, vs[i]));
  }
  // A scalar probe after the batch hits the batch-inserted entry, and a
  // second batch is answered fully from the memo.
  EXPECT_DOUBLE_EQ(cached.Score(0, 2), inner.Score(0, 2));
  EXPECT_EQ(cached.CacheHits(), 2u);
  cached.ScoreBatch(0, vs, out);
  EXPECT_EQ(cached.CacheHits(), 5u);
  EXPECT_EQ(cached.CacheSize(), 3u);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], inner.Score(0, vs[i]));
  }
}

TEST(CachingVertexScorerTest, HitsNeverExceedProbesUnderMixedTraffic) {
  // Scalar hits used to count while only batched keys counted as probes,
  // so a scalar-heavy workload reported a memo hit rate above 1.
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner);
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  cached.ScoreBatch(0, vs, out);  // 3 probes, 0 hits
  for (int rep = 0; rep < 4; ++rep) {
    for (const VertexId v : vs) cached.Score(0, v);  // 12 probes, 12 hits
  }
  cached.ScoreBatch(0, vs, out);  // 3 probes, 3 hits
  EXPECT_EQ(cached.ProbeBatches(), 2u);
  EXPECT_EQ(cached.ProbeLen(), 18u);
  EXPECT_EQ(cached.CacheHits(), 15u);
  EXPECT_LE(cached.CacheHits(), cached.ProbeLen());
}

TEST(CachingVertexScorerTest, ScoreBatchEvictsAtTheShardCap) {
  const TwoGraphs tg = MakeWideGraphs(32);
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner, /*shard_cap=*/1);
  std::vector<VertexId> vs(32);
  for (VertexId v = 0; v < 32; ++v) vs[v] = v;
  std::vector<double> out(vs.size());
  for (VertexId u = 0; u < 32; ++u) cached.ScoreBatch(u, vs, out);
  EXPECT_GE(cached.CacheEvictions(), 1u);
  EXPECT_LE(cached.CacheSize(), 16u);  // <= shard_cap per shard
  EXPECT_DOUBLE_EQ(cached.Score(3, 4), inner.Score(3, 4));
}

TEST(CachingVertexScorerTest, ShardCapResetsAndCountsEvictions) {
  const TwoGraphs tg = MakeWideGraphs(32);
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner, /*shard_cap=*/1);
  for (VertexId u = 0; u < 32; ++u) {
    for (VertexId v = 0; v < 32; ++v) cached.Score(u, v);
  }
  EXPECT_GE(cached.CacheEvictions(), 1u);
  // Every shard holds at most shard_cap entries after the resets.
  EXPECT_LE(cached.CacheSize(), 16u);
  // Values stay correct after evictions.
  EXPECT_DOUBLE_EQ(cached.Score(3, 4), inner.Score(3, 4));
}

TEST(TokenOverlapPathScorerTest, PaperExamplePaths) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer mrho(&vocab);
  const auto p1 = vocab.MapPath(
      0, std::vector<LabelId>{tg.g1.edge_labels().Find("country")});
  const auto p2 = vocab.MapPath(
      1, std::vector<LabelId>{tg.g2.edge_labels().Find("brandCountry")});
  // tokens {country} vs {brand, country}: jaccard 1/2.
  EXPECT_DOUBLE_EQ(mrho.Score(p1, p2), 0.5);
}

TEST(CachingPathScorerTest, CachesAndAgrees) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner);
  const auto p1 = vocab.MapPath(
      0, std::vector<LabelId>{tg.g1.edge_labels().Find("country")});
  const auto p2 = vocab.MapPath(
      1, std::vector<LabelId>{tg.g2.edge_labels().Find("hasColor")});
  const double a = cached.Score(p1, p2);
  const double b = cached.Score(p1, p2);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, inner.Score(p1, p2));
  EXPECT_EQ(cached.CacheSize(), 1u);
}

TEST(CachingPathScorerTest, ShardCapResetsAndCountsEvictions) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner, /*shard_cap=*/1);
  // Distinct path pairs scatter over the shards; with a cap of one entry
  // per shard, repeats within a shard force a reset.
  for (int a = 0; a < static_cast<int>(vocab.size()); ++a) {
    for (int b = 0; b < static_cast<int>(vocab.size()); ++b) {
      const std::vector<int> p1 = {a};
      const std::vector<int> p2 = {b};
      for (int len = 1; len <= 3; ++len) {
        const std::vector<int> p3(static_cast<size_t>(len), b);
        cached.Score(p1, p3);
      }
      cached.Score(p1, p2);
    }
  }
  EXPECT_GE(cached.CacheEvictions(), 1u);
  EXPECT_LE(cached.CacheSize(), 16u);  // <= shard_cap per shard
  const std::vector<int> q1 = {0};
  const std::vector<int> q2 = {1};
  EXPECT_DOUBLE_EQ(cached.Score(q1, q2), inner.Score(q1, q2));
}

/// CachingPathScorer with every pair hashed to one bucket: all distinct
/// pairs alias, so each probe exercises the key-verification path.
class CollidingPathScorer : public CachingPathScorer {
 public:
  using CachingPathScorer::CachingPathScorer;

 protected:
  uint64_t HashPair(std::span<const int>, std::span<const int>) const override {
    return 0x1234;
  }
};

TEST(CachingPathScorerTest, VerifiesKeysAndCountsHashRejects) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CollidingPathScorer cached(&inner);
  const std::vector<int> p1 = {0};
  const std::vector<int> p2 = {1};
  const std::vector<int> p3 = {2};
  EXPECT_DOUBLE_EQ(cached.Score(p1, p2), inner.Score(p1, p2));
  EXPECT_EQ(cached.HashRejects(), 0u);
  // Same 64-bit key, different pair: without verification this would
  // silently return the (p1, p2) score. It must detect the collision,
  // recompute, and replace the entry.
  EXPECT_DOUBLE_EQ(cached.Score(p1, p3), inner.Score(p1, p3));
  EXPECT_EQ(cached.HashRejects(), 1u);
  EXPECT_EQ(cached.CacheHits(), 0u);
  // The fresher pair now owns the bucket and verifies as a real hit.
  EXPECT_DOUBLE_EQ(cached.Score(p1, p3), inner.Score(p1, p3));
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.HashRejects(), 1u);
  EXPECT_EQ(cached.CacheSize(), 1u);  // aliased pairs replace, never pile up
}

TEST(CachingPathScorerTest, ScoreBatchSharesTheMemoWithScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner);
  const std::vector<int> pa = {0};
  const std::vector<int> pb = {1};
  const std::vector<int> pc = {0, 1};
  cached.Score(pa, pb);  // seed one entry via the scalar path
  const std::vector<EmbeddedPath> p1s = {{pa, {}}, {pa, {}}};
  const std::vector<EmbeddedPath> p2s = {{pb, {}}, {pc, {}}};
  std::vector<double> out(2);
  cached.ScoreBatch(p1s, p2s, out);
  EXPECT_EQ(cached.CacheHits(), 1u);   // (pa, pb) served from the memo
  EXPECT_EQ(cached.CacheSize(), 2u);   // (pa, pc) inserted by the batch
  EXPECT_EQ(cached.BatchCalls(), 1u);
  EXPECT_DOUBLE_EQ(out[0], inner.Score(pa, pb));
  EXPECT_DOUBLE_EQ(out[1], inner.Score(pa, pc));
  // The batch-inserted entry serves the scalar path.
  EXPECT_DOUBLE_EQ(cached.Score(pa, pc), inner.Score(pa, pc));
  EXPECT_EQ(cached.CacheHits(), 2u);
}

TEST(MetricPathScorerTest, OutputsInUnitInterval) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  SgnsModel sgns;
  sgns.InitRandom(vocab.size_with_eos(), 8, 99);
  Mlp metric({32, 16, 1}, 7);
  const MetricPathScorer mrho(&sgns, &metric);
  const std::vector<int> p1 = {0};
  const std::vector<int> p2 = {1, 2};
  const double s = mrho.Score(p1, p2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(MetricPathScorerTest, ScoreBatchBitIdenticalToScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  SgnsModel sgns;
  sgns.InitRandom(vocab.size_with_eos(), 8, 99);
  Mlp metric({32, 16, 1}, 7);
  const MetricPathScorer mrho(&sgns, &metric);

  // Enough pairs to cover the 4-wide PredictBatch main loop and its tail.
  Rng rng(17);
  std::vector<std::vector<int>> paths;
  for (int i = 0; i < 11; ++i) {
    std::vector<int> p(rng.Below(3) + 1);
    for (int& t : p) t = static_cast<int>(rng.Below(vocab.size_with_eos()));
    paths.push_back(std::move(p));
  }
  std::vector<EmbeddedPath> p1s, p2s;
  std::vector<Vec> embeddings;  // stable storage for the spans
  embeddings.reserve(2 * paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    const auto& a = paths[i];
    const auto& b = paths[(i + 3) % paths.size()];
    // Alternate between precomputed-embedding operands and token-only
    // ones; both must reproduce the scalar Score exactly.
    if (i % 2 == 0) {
      embeddings.push_back(mrho.EmbedPath(a));
      p1s.push_back(EmbeddedPath{a, embeddings.back()});
      p2s.push_back(EmbeddedPath{b, {}});
    } else {
      embeddings.push_back(mrho.EmbedPath(b));
      p1s.push_back(EmbeddedPath{a, {}});
      p2s.push_back(EmbeddedPath{b, embeddings.back()});
    }
  }
  std::vector<double> batch(paths.size());
  mrho.ScoreBatch(p1s, p2s, batch);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(batch[i], mrho.Score(p1s[i].tokens, p2s[i].tokens)) << "i=" << i;
  }
  EXPECT_EQ(mrho.BatchCalls(), 1u);
}

TEST(PathScorerTest, DefaultScoreBatchLoopsOverScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer mrho(&vocab);
  EXPECT_TRUE(mrho.EmbedPath(std::vector<int>{0}).empty());
  const std::vector<int> pa = {0};
  const std::vector<int> pb = {1};
  const std::vector<EmbeddedPath> p1s = {{pa, {}}};
  const std::vector<EmbeddedPath> p2s = {{pb, {}}};
  std::vector<double> out(1);
  mrho.ScoreBatch(p1s, p2s, out);
  EXPECT_DOUBLE_EQ(out[0], mrho.Score(pa, pb));
  EXPECT_EQ(mrho.BatchCalls(), 1u);
}

TEST(PraRankerTest, RanksByPraAndRespectsK) {
  // root with children a (leaf), b -> c.
  GraphBuilder b1;
  const VertexId root = b1.AddVertex("root");
  const VertexId a = b1.AddVertex("a");
  const VertexId v_b = b1.AddVertex("b");
  const VertexId c = b1.AddVertex("c");
  b1.AddEdge(root, a, "ea");
  b1.AddEdge(root, v_b, "eb");
  b1.AddEdge(v_b, c, "ec");
  const Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const PraRanker hr(g1, g2);
  const auto top2 = hr.TopK(0, root, 2);
  ASSERT_EQ(top2.size(), 2u);
  // Children have PRA 1/2; c has 1/2*1/1 = 1/2; tie-break by endpoint id
  // keeps a and b first.
  std::set<VertexId> ids = {top2[0].descendant, top2[1].descendant};
  EXPECT_EQ(ids, (std::set<VertexId>{a, v_b}));
  const auto top3 = hr.TopK(0, root, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[2].descendant, c);
  EXPECT_EQ(top3[2].path.labels.size(), 2u);
}

TEST(PraRankerTest, LeafHasNoProperties) {
  GraphBuilder b1;
  b1.AddVertex("leaf");
  const Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();
  const PraRanker hr(g1, g2);
  EXPECT_TRUE(hr.TopK(0, 0, 5).empty());
}

TEST(LstmPraRankerTest, StopsAtEosAndRanksByPra) {
  // g: v -brandName-> n -follows-> deep. Train the LM so that after
  // "brandName" it prefers <eos>, so the walk stops at n.
  GraphBuilder b;
  const VertexId v = b.AddVertex("item");
  const VertexId n = b.AddVertex("Acme");
  const VertexId deep = b.AddVertex("deep");
  b.AddEdge(v, n, "brandName");
  b.AddEdge(n, deep, "follows");
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  const int brand_tok = vocab.TokenOf(0, g.edge_labels().Find("brandName"));
  // Training corpus: brandName <eos> (the paper's Example 6 behaviour).
  std::vector<std::vector<int>> corpus(
      50, std::vector<int>{brand_tok, vocab.eos()});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 20;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  const auto props = hr.TopK(0, v, 5);
  // The LM stopped at n (1-edge path); "deep" still competes as a
  // descendant through its max-PRA path (h_r ranks descendants).
  const auto it = std::find_if(props.begin(), props.end(),
                               [&](const RankedProperty& p) {
                                 return p.descendant == n;
                               });
  ASSERT_NE(it, props.end());
  EXPECT_EQ(it->path.labels.size(), 1u);
  // With k=1 only the best-PRA descendant survives: n (pra 1) beats deep.
  const auto top1 = hr.TopK(0, v, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].descendant, n);
}

TEST(LstmPraRankerTest, ContinuesWhenModelPrefersContinuation) {
  // g: v -factorySite-> f -isIn-> country. Train LM on (factorySite, isIn,
  // <eos>) so the walk extends one hop.
  GraphBuilder b;
  const VertexId v = b.AddVertex("brand");
  const VertexId f = b.AddVertex("Can Duoc");
  const VertexId country = b.AddVertex("VN");
  b.AddEdge(v, f, "factorySite");
  b.AddEdge(f, country, "isIn");
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  const int fs = vocab.TokenOf(0, g.edge_labels().Find("factorySite"));
  const int isin = vocab.TokenOf(0, g.edge_labels().Find("isIn"));
  std::vector<std::vector<int>> corpus(
      50, std::vector<int>{fs, isin, vocab.eos()});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 20;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  const auto props = hr.TopK(0, v, 5);
  // The walk continued through f to country; f itself is still ranked as
  // a descendant via its own (1-edge) path.
  const auto it = std::find_if(props.begin(), props.end(),
                               [&](const RankedProperty& p) {
                                 return p.descendant == country;
                               });
  ASSERT_NE(it, props.end());
  EXPECT_EQ(it->path.labels.size(), 2u);
}

TEST(LstmPraRankerTest, TopKBatchMatchesTopK) {
  // Synthetic graph with mixed fan-out, shared labels, cycles and leaves:
  // walks retire at different rounds (eos, dead ends, cycle blocks,
  // max_len), exercising the lockstep kernel's retirement paths.
  GraphBuilder b;
  constexpr size_t kN = 40;
  std::vector<VertexId> vs;
  vs.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    vs.push_back(b.AddVertex("v" + std::to_string(i)));
  }
  const char* labels[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  Rng rng(321);
  for (size_t i = 0; i < kN; ++i) {
    const size_t deg = rng.Below(4);  // 0..3 out-edges (0 = leaf)
    for (size_t e = 0; e < deg; ++e) {
      b.AddEdge(vs[i], vs[rng.Below(kN)], labels[rng.Below(5)]);
    }
  }
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  // Corpus with varied lengths so the LM's eos preference differs by
  // prefix (some walks stop early, others run to max_len).
  std::vector<std::vector<int>> corpus;
  for (int i = 0; i < 30; ++i) {
    for (size_t l0 = 0; l0 < 5; ++l0) {
      std::vector<int> seq;
      const size_t len = 1 + (i + l0) % 3;
      for (size_t s = 0; s < len; ++s) {
        seq.push_back(vocab.TokenOf(0, g.edge_labels().Find(
                                           labels[(l0 + s) % 5])));
      }
      seq.push_back(vocab.eos());
      corpus.push_back(std::move(seq));
    }
  }
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 4;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  for (const int k : {1, 3, 1 << 20}) {
    const auto batched = hr.TopKBatch(0, vs, k);
    ASSERT_EQ(batched.size(), vs.size());
    for (size_t i = 0; i < vs.size(); ++i) {
      const auto scalar = hr.TopK(0, vs[i], k);
      ASSERT_EQ(batched[i].size(), scalar.size())
          << "k=" << k << " v=" << vs[i];
      for (size_t j = 0; j < scalar.size(); ++j) {
        EXPECT_EQ(batched[i][j].descendant, scalar[j].descendant)
            << "k=" << k << " v=" << vs[i] << " j=" << j;
        EXPECT_EQ(batched[i][j].path.endpoint, scalar[j].path.endpoint);
        EXPECT_EQ(batched[i][j].path.labels, scalar[j].path.labels);
        EXPECT_EQ(batched[i][j].pra, scalar[j].pra);  // bit-exact
      }
    }
  }
  EXPECT_GT(hr.LstmBatchCalls(), 0u);
  EXPECT_GE(hr.LstmBatchLanes(), hr.LstmBatchCalls());
  EXPECT_EQ(hr.WalkRounds(), hr.LstmBatchCalls());
  EXPECT_EQ(hr.BatchCalls(), 3u);
}

TEST(SimulationParamsTest, PaperDefaults) {
  const SimulationParams p;
  EXPECT_DOUBLE_EQ(p.sigma, 0.8);
  EXPECT_DOUBLE_EQ(p.delta, 2.1);
  EXPECT_EQ(p.k, 20);
}

}  // namespace
}  // namespace her
