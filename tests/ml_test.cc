#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bytes.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/sgns.h"
#include "ml/text_embedder.h"
#include "ml/word_embedder.h"
#include "ml/tfidf.h"
#include "ml/vector_ops.h"
#include "tests/lstm_reference.h"

namespace her {
namespace {

TEST(VectorOpsTest, DotAndNorm) {
  const Vec a = {1, 2, 3};
  const Vec b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(VectorOpsTest, CosineBounds) {
  EXPECT_DOUBLE_EQ(Cosine({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(Cosine({1, 0}, {-1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(Cosine({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(Cosine({0, 0}, {1, 1}), 0.0);  // zero vector
}

TEST(VectorOpsTest, CosineToUnitClampsNegatives) {
  EXPECT_DOUBLE_EQ(CosineToUnit(-0.8), 0.0);
  EXPECT_DOUBLE_EQ(CosineToUnit(0.6), 0.6);
  EXPECT_DOUBLE_EQ(CosineToUnit(1.0), 1.0);
}

TEST(VectorOpsTest, NormalizeL2) {
  Vec v = {3, 4};
  NormalizeL2(v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);
}

TEST(VectorOpsTest, SigmoidSymmetric) {
  EXPECT_DOUBLE_EQ(Sigmoid(0), 0.5);
  EXPECT_NEAR(Sigmoid(10) + Sigmoid(-10), 1.0, 1e-9);
}

TEST(VectorOpsTest, SoftmaxSumsToOne) {
  Vec v = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-5);
  EXPECT_GT(v[2], v[1]);
  EXPECT_GT(v[1], v[0]);
}

TEST(TextEmbedderTest, IdenticalLabelsScoreOne) {
  HashedTextEmbedder emb;
  EXPECT_NEAR(emb.Similarity("Dame Basketball Shoes", "Dame Basketball Shoes"),
              1.0, 1e-6);
}

TEST(TextEmbedderTest, SharedTokensScoreHigherThanDisjoint) {
  HashedTextEmbedder emb;
  const double shared = emb.Similarity("Dame Basketball Shoes D7",
                                       "Dame Gen 7 Basketball Shoes");
  const double disjoint = emb.Similarity("Dame Basketball Shoes D7",
                                         "Organic Cotton Towel");
  EXPECT_GT(shared, 0.5);
  EXPECT_LT(disjoint, 0.35);
  EXPECT_GT(shared, disjoint + 0.3);
}

TEST(TextEmbedderTest, CaseAndSeparatorInsensitive) {
  HashedTextEmbedder emb;
  EXPECT_NEAR(emb.Similarity("made_in", "Made In"), 1.0, 1e-6);
}

TEST(TextEmbedderTest, DeterministicAcrossInstances) {
  HashedTextEmbedder a;
  HashedTextEmbedder b;
  EXPECT_EQ(a.Embed("factorySite"), b.Embed("factorySite"));
}

TEST(TextEmbedderTest, EmptyLabelEmbedsToZero) {
  HashedTextEmbedder emb;
  const Vec v = emb.Embed("");
  EXPECT_NEAR(Norm(v), 0.0, 1e-9);
}

TEST(TextEmbedderTest, IdfDownweightsUbiquitousTokens) {
  TextEmbedderConfig cfg;
  cfg.char_weight = 0.0;  // isolate word behaviour
  HashedTextEmbedder emb(cfg);
  std::vector<std::string> corpus_owner = {"shoe item", "shirt item",
                                           "hat item", "sock item"};
  std::vector<std::string_view> corpus(corpus_owner.begin(),
                                       corpus_owner.end());
  HashedTextEmbedder weighted(cfg);
  weighted.FitIdf(corpus);
  // With IDF, matching only on the stop-word "item" is worth less.
  const double unweighted = emb.Similarity("shoe item", "hat item");
  const double idf_weighted = weighted.Similarity("shoe item", "hat item");
  EXPECT_LT(idf_weighted, unweighted);
}

TEST(TextEmbedderTest, DimensionSweepPreservesIdentity) {
  for (const size_t dim : {16u, 64u, 256u}) {
    TextEmbedderConfig cfg;
    cfg.dim = dim;
    HashedTextEmbedder emb(cfg);
    EXPECT_NEAR(emb.Similarity("same label", "same label"), 1.0, 1e-6)
        << "dim=" << dim;
  }
}

TEST(SgnsTest, CooccurringTokensEmbedCloser) {
  // Tokens 0 and 1 always co-occur; token 2 appears alone with 3.
  std::vector<std::vector<int>> corpus;
  for (int i = 0; i < 200; ++i) {
    corpus.push_back({0, 1, 0, 1});
    corpus.push_back({2, 3, 2, 3});
  }
  SgnsModel model;
  SgnsConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 4;
  model.Train(corpus, 4, cfg);
  const double close = Cosine(model.Embedding(0), model.Embedding(1));
  const double far = Cosine(model.Embedding(0), model.Embedding(3));
  EXPECT_GT(close, far);
}

TEST(SgnsTest, EmbedSequenceIsUnitNorm) {
  SgnsModel model;
  model.InitRandom(5, 8, 42);
  const std::vector<int> seq = {0, 2, 4};
  EXPECT_NEAR(Norm(model.EmbedSequence(seq)), 1.0, 1e-5);
}

TEST(SgnsTest, EmptySequenceEmbedsToZero) {
  SgnsModel model;
  model.InitRandom(5, 8, 42);
  EXPECT_NEAR(Norm(model.EmbedSequence(std::vector<int>{})), 0.0, 1e-9);
}

TEST(MlpTest, LearnsLinearlySeparableData) {
  Mlp mlp({2, 8, 1}, 123);
  mlp.set_learning_rate(0.02);
  Rng rng(9);
  for (int it = 0; it < 4000; ++it) {
    const double x = rng.Uniform(-1, 1);
    const double y = rng.Uniform(-1, 1);
    const double target = (x + y > 0) ? 1.0 : 0.0;
    mlp.StepBce({static_cast<float>(x), static_cast<float>(y)}, target);
  }
  EXPECT_GT(mlp.Predict({0.5f, 0.5f}), 0.8);
  EXPECT_LT(mlp.Predict({-0.5f, -0.5f}), 0.2);
}

TEST(MlpTest, LearnsXorWithHiddenLayer) {
  Mlp mlp({2, 16, 1}, 77);
  mlp.set_learning_rate(0.02);
  const std::vector<std::pair<Vec, double>> data = {
      {{0, 0}, 0}, {{0, 1}, 1}, {{1, 0}, 1}, {{1, 1}, 0}};
  Rng rng(3);
  for (int it = 0; it < 6000; ++it) {
    const auto& [x, t] = data[rng.Below(4)];
    mlp.StepBce(x, t);
  }
  EXPECT_LT(mlp.Predict({0, 0}), 0.3);
  EXPECT_GT(mlp.Predict({0, 1}), 0.7);
  EXPECT_GT(mlp.Predict({1, 0}), 0.7);
  EXPECT_LT(mlp.Predict({1, 1}), 0.3);
}

TEST(MlpTest, TripletStepSeparatesScores) {
  Mlp mlp({4, 8, 1}, 5);
  mlp.set_learning_rate(0.05);
  const Vec pos = {1, 0, 1, 0};
  const Vec neg = {0, 1, 0, 1};
  for (int it = 0; it < 500; ++it) mlp.StepTriplet(pos, neg, 0.5);
  EXPECT_GT(mlp.Predict(pos), mlp.Predict(neg) + 0.3);
}

TEST(MlpTest, PairFeaturesShape) {
  const Vec f = PairFeatures({1, 2}, {3, 5});
  ASSERT_EQ(f.size(), 8u);
  EXPECT_FLOAT_EQ(f[0], 1);
  EXPECT_FLOAT_EQ(f[2], 3);
  EXPECT_FLOAT_EQ(f[4], 2);   // |1-3|
  EXPECT_FLOAT_EQ(f[6], 3);   // 1*3
}

TEST(MlpTest, PairFeaturesIntoMatchesPairFeatures) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t dim = rng.Below(16) + 1;
    Vec a(dim), b(dim);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = static_cast<float>(rng.Uniform(-2, 2));
      b[i] = static_cast<float>(rng.Uniform(-2, 2));
    }
    const Vec expect = PairFeatures(a, b);
    Vec row(4 * dim, -1.0f);
    PairFeaturesInto(a, b, row);
    ASSERT_EQ(row.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(row[i], expect[i]) << "dim=" << dim << " i=" << i;
    }
  }
}

TEST(MlpTest, PredictBatchBitIdenticalToPredict) {
  // A lightly trained net (non-trivial weights), a hidden layer wider than
  // the 4-row block, and batch sizes covering every n % 4 tail.
  Mlp mlp({6, 9, 1}, 123);
  Rng rng(8);
  for (int it = 0; it < 200; ++it) {
    Vec x(6);
    for (float& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
    mlp.StepBce(x, (x[0] > 0) ? 1.0 : 0.0);
  }
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u}) {
    std::vector<float> rows(n * 6);
    for (float& v : rows) v = static_cast<float>(rng.Uniform(-3, 3));
    std::vector<double> batch(n);
    mlp.PredictBatch(rows, batch);
    for (size_t r = 0; r < n; ++r) {
      const Vec x(rows.begin() + static_cast<long>(r * 6),
                  rows.begin() + static_cast<long>((r + 1) * 6));
      EXPECT_EQ(batch[r], mlp.Predict(x)) << "n=" << n << " row=" << r;
    }
  }
}

TEST(MlpTest, PredictBatchHandlesEmptyBatch) {
  const Mlp mlp({4, 8, 1}, 5);
  mlp.PredictBatch(std::span<const float>{}, std::span<double>{});
}

TEST(LstmTest, LearnsDeterministicSuccessor) {
  // Grammar: 0 -> 1 -> 2 -> eos(3). 100 copies.
  std::vector<std::vector<int>> corpus(60, std::vector<int>{0, 1, 2, 3});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 25;
  lm.Train(corpus, 4, cfg);

  LstmLm::State st = lm.InitialState();
  Vec p = lm.StepProb(st, -1);  // after BOS, expect 0
  EXPECT_GT(p[0], 0.8);
  p = lm.StepProb(st, 0);  // after 0, expect 1
  EXPECT_GT(p[1], 0.8);
  p = lm.StepProb(st, 1);  // after 1, expect 2
  EXPECT_GT(p[2], 0.8);
  p = lm.StepProb(st, 2);  // after 2, expect eos
  EXPECT_GT(p[3], 0.8);
}

TEST(LstmTest, SequenceLogProbPrefersTrainingData) {
  std::vector<std::vector<int>> corpus(60, std::vector<int>{0, 1, 2});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 20;
  lm.Train(corpus, 3, cfg);
  EXPECT_GT(lm.SequenceLogProb({0, 1, 2}), lm.SequenceLogProb({2, 0, 1}));
}

TEST(LstmTest, ContextSensitivePrediction) {
  // After 0: next is 1. After 2: next is 3. Shared middle token 4.
  std::vector<std::vector<int>> corpus;
  for (int i = 0; i < 80; ++i) {
    corpus.push_back({0, 4, 1});
    corpus.push_back({2, 4, 3});
  }
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 30;
  lm.Train(corpus, 5, cfg);
  {
    LstmLm::State st = lm.InitialState();
    lm.StepProb(st, -1);
    lm.StepProb(st, 0);
    const Vec p = lm.StepProb(st, 4);  // saw 0 then 4 -> expect 1
    EXPECT_GT(p[1], p[3]);
  }
  {
    LstmLm::State st = lm.InitialState();
    lm.StepProb(st, -1);
    lm.StepProb(st, 2);
    const Vec p = lm.StepProb(st, 4);  // saw 2 then 4 -> expect 3
    EXPECT_GT(p[3], p[1]);
  }
}

TEST(LstmTest, StepProbBatchBitIdenticalToStepProb) {
  // Non-trivial weights via a short training run over a mixed grammar.
  std::vector<std::vector<int>> corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.push_back({0, 1, 2, 5});
    corpus.push_back({3, 4, 0, 5});
    corpus.push_back({2, 2, 1, 5});
  }
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 6;
  lm.Train(corpus, 6, cfg);

  Rng rng(77);
  // Lane counts spanning both sides of the kernel's 8-lane group (1..9),
  // decoded for several rounds with lanes retiring mid-stream: the
  // surviving subset is re-batched each round, so group boundaries and
  // padding shift under the same logical lanes.
  for (size_t n = 1; n <= 9; ++n) {
    std::vector<LstmLm::State> batch_st(n), scalar_st(n);
    for (size_t r = 0; r < n; ++r) {
      batch_st[r] = lm.InitialState();
      scalar_st[r] = lm.InitialState();
    }
    std::vector<size_t> alive(n);
    for (size_t r = 0; r < n; ++r) alive[r] = r;
    for (int round = 0; round < 6 && !alive.empty(); ++round) {
      std::vector<int> tokens(alive.size());
      std::vector<LstmLm::State> states(alive.size());
      std::vector<Vec> probs(alive.size());
      for (size_t j = 0; j < alive.size(); ++j) {
        // First round feeds BOS on even lanes; afterwards random tokens.
        tokens[j] = (round == 0 && alive[j] % 2 == 0)
                        ? -1
                        : static_cast<int>(rng.Below(6));
        states[j] = batch_st[alive[j]];
      }
      lm.StepProbBatch(states, tokens, probs);
      for (size_t j = 0; j < alive.size(); ++j) {
        const size_t lane = alive[j];
        batch_st[lane] = std::move(states[j]);
        const Vec expect = lm.StepProb(scalar_st[lane], tokens[j]);
        EXPECT_EQ(probs[j], expect) << "n=" << n << " round=" << round
                                    << " lane=" << lane;
        EXPECT_EQ(batch_st[lane].h, scalar_st[lane].h)
            << "n=" << n << " round=" << round << " lane=" << lane;
        EXPECT_EQ(batch_st[lane].c, scalar_st[lane].c)
            << "n=" << n << " round=" << round << " lane=" << lane;
      }
      // Mixed retirement: each live lane survives with probability 2/3.
      std::vector<size_t> next;
      for (const size_t lane : alive) {
        if (rng.Below(3) != 0) next.push_back(lane);
      }
      alive = std::move(next);
    }
  }
}

TEST(LstmTest, StepProbBatchHandlesEmptyBatch) {
  std::vector<std::vector<int>> corpus(10, std::vector<int>{0, 1});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 1;
  lm.Train(corpus, 2, cfg);
  lm.StepProbBatch({}, {}, {});
}

std::string LstmBytes(const LstmLm& lm) {
  ByteWriter w;
  lm.SaveState(&w);
  return w.data();
}

// A seeded M_r-like corpus: `total` Zipf-weighted draws from `distinct`
// distinct paths of 1-4 labels plus <eos> (token vocab - 1). Most paths
// hold one label, as the max-PRA paths of the generated worlds do, and a
// label's successor depends on it, so the LM has structure to learn.
std::vector<std::vector<int>> DuplicateHeavyCorpus(size_t vocab,
                                                   size_t distinct,
                                                   size_t total,
                                                   uint64_t seed) {
  Rng rng(seed);
  const int labels = static_cast<int>(vocab) - 1;
  std::vector<std::vector<int>> pool;
  std::set<std::vector<int>> seen;
  while (pool.size() < distinct) {
    const size_t len = rng.Below(4) == 0 ? 2 + rng.Below(3) : 1;
    std::vector<int> seq;
    int tok = static_cast<int>(rng.Below(labels));
    for (size_t t = 0; t < len; ++t) {
      seq.push_back(tok);
      tok = (3 * tok + 1 + static_cast<int>(rng.Below(2))) % labels;
    }
    seq.push_back(labels);
    if (seen.insert(seq).second) pool.push_back(std::move(seq));
  }
  std::vector<double> cumulative;
  double mass = 0.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cumulative.push_back(mass);
  }
  std::vector<std::vector<int>> corpus;
  while (corpus.size() < total) {
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                     rng.Uniform() * mass);
    corpus.push_back(pool[std::min<size_t>(it - cumulative.begin(),
                                           pool.size() - 1)]);
  }
  return corpus;
}

TEST(LstmTest, TrainMatchesReferenceNll) {
  // The trie trainer's per-token NLL on its training corpus stays within
  // 1% of what the per-sequence reference trainer reaches, at the
  // production shape and default schedules of both.
  struct Case {
    size_t vocab, distinct, total;
  };
  for (const Case& c :
       {Case{8, 12, 150}, Case{24, 40, 250}, Case{56, 64, 300}}) {
    const auto corpus =
        DuplicateHeavyCorpus(c.vocab, c.distinct, c.total, c.vocab);
    ReferenceLstm ref;
    ref.Train(corpus, c.vocab, ReferenceLstm::DefaultConfig());
    LstmLm lm;
    lm.Train(corpus, c.vocab, LstmConfig{});
    const double ref_nll = PerTokenNll(ref.ToModel(), corpus);
    const double nll = PerTokenNll(lm, corpus);
    EXPECT_LE(nll, 1.01 * ref_nll) << "vocab=" << c.vocab;
  }
}

// LstmLm's SaveState bytes widened to double: the five parameter tensors
// (embedding, gate weights, gate bias, projection, projection bias), then
// their Adagrad accumulators in the same order.
struct LstmTensors {
  size_t vocab = 0, embed = 0, hidden = 0;
  std::vector<double> param[5];
  std::vector<double> g2[5];
};

LstmTensors ParseLstm(const LstmLm& lm) {
  const std::string bytes = LstmBytes(lm);
  ByteReader r(bytes);
  LstmTensors t;
  uint64_t dims[3];
  for (uint64_t& d : dims) EXPECT_TRUE(r.GetVarint(&d).ok());
  t.vocab = dims[0];
  t.embed = dims[1];
  t.hidden = dims[2];
  for (auto* tensors : {t.param, t.g2}) {
    for (int k = 0; k < 5; ++k) {
      std::vector<Vec> rows(1);
      const Status st =
          k == 2 || k == 4 ? r.GetFloatVec(&rows[0]) : r.GetFloatVecs(&rows);
      EXPECT_TRUE(st.ok());
      for (const Vec& row : rows) {
        tensors[k].insert(tensors[k].end(), row.begin(), row.end());
      }
    }
  }
  return t;
}

// The count-weighted training loss in double: weight * the summed
// per-token NLL of `corpus`, evaluated at `t`'s parameters.
double WeightedLoss(const LstmTensors& t,
                    const std::vector<std::vector<int>>& corpus,
                    double weight) {
  const size_t V = t.vocab, E = t.embed, H = t.hidden, W = E + H;
  auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  double loss = 0.0;
  for (const auto& seq : corpus) {
    std::vector<double> h(H, 0.0), c(H, 0.0), xh(W), z(4 * H), logits(V);
    int prev = -1;
    for (const int tok : seq) {
      const size_t row = prev < 0 ? V : static_cast<size_t>(prev);
      for (size_t i = 0; i < E; ++i) xh[i] = t.param[0][row * E + i];
      for (size_t i = 0; i < H; ++i) xh[E + i] = h[i];
      for (size_t r = 0; r < 4 * H; ++r) {
        z[r] = t.param[2][r];
        for (size_t i = 0; i < W; ++i) z[r] += t.param[1][r * W + i] * xh[i];
      }
      for (size_t i = 0; i < H; ++i) {
        c[i] = sigmoid(z[H + i]) * c[i] +
               sigmoid(z[i]) * std::tanh(z[3 * H + i]);
        h[i] = sigmoid(z[2 * H + i]) * std::tanh(c[i]);
      }
      double top = -1e300;
      for (size_t v = 0; v < V; ++v) {
        logits[v] = t.param[4][v];
        for (size_t i = 0; i < H; ++i) {
          logits[v] += t.param[3][v * H + i] * h[i];
        }
        top = std::max(top, logits[v]);
      }
      double sum = 0.0;
      for (size_t v = 0; v < V; ++v) sum += std::exp(logits[v] - top);
      loss += top + std::log(sum) - logits[tok];
      prev = tok;
    }
  }
  return weight * loss;
}

TEST(LstmTest, TrieGradientMatchesFiniteDifferences) {
  // A trie with shared prefixes and counts > 1: 14 sequences, 5 distinct.
  std::vector<std::vector<int>> corpus;
  const std::pair<std::vector<int>, int> distinct[] = {
      {{0, 1, 5}, 4}, {{0, 1, 2, 5}, 3}, {{0, 3, 5}, 2},
      {{2, 5}, 4},    {{2, 4, 1, 5}, 1}};
  for (const auto& [seq, count] : distinct) {
    for (int i = 0; i < count; ++i) corpus.push_back(seq);
  }
  const size_t vocab = 6;
  const double weight = 5.0 / 14.0;  // distinct / total sequences

  LstmConfig cfg;
  cfg.embed_dim = 3;
  cfg.hidden_dim = 4;
  cfg.clip = 1e30;  // no clip: the one Adagrad step sees the raw gradient
  cfg.lr = 1e-3;
  cfg.epochs = 0;
  LstmLm init;
  init.Train(corpus, vocab, cfg);
  cfg.epochs = 1;
  LstmLm stepped;
  stepped.Train(corpus, vocab, cfg);
  LstmTensors t = ParseLstm(init);
  const LstmTensors after = ParseLstm(stepped);

  // From zero accumulators one Adagrad step stores g2 = g^2 and moves the
  // weight against the sign of g, so |g| = sqrt(g2) and its sign is the
  // sign of the move. The float forward, float gradient sums and the g^2
  // rounding keep the analytic gradient within 1e-5 + 1e-4 |g| of the
  // double-precision central difference (step 1e-5); the largest error
  // seen on this corpus is 2e-7.
  const char* names[] = {"emb", "w_gates", "b_gates", "w_out", "b_out"};
  Rng rng(3);
  for (int k = 0; k < 5; ++k) {
    // Every entry of a small tensor, 16 sampled ones of a large one.
    const size_t n = t.param[k].size();
    for (size_t sample = 0; sample < std::min<size_t>(n, 16); ++sample) {
      const size_t j = n <= 16 ? sample : rng.Below(n);
      const double w0 = t.param[k][j];
      const double magnitude = std::sqrt(after.g2[k][j]);
      const double move = w0 - after.param[k][j];
      const double eps = 1e-5;
      t.param[k][j] = w0 + eps;
      const double up = WeightedLoss(t, corpus, weight);
      t.param[k][j] = w0 - eps;
      const double down = WeightedLoss(t, corpus, weight);
      t.param[k][j] = w0;
      const double numeric = (up - down) / (2 * eps);
      const double tol = 1e-5 + 1e-4 * std::abs(numeric);
      if (move == 0.0) {
        // A step below the weight's float resolution hides the sign.
        EXPECT_NEAR(magnitude, std::abs(numeric), tol)
            << names[k] << "[" << j << "]";
      } else {
        EXPECT_NEAR(move > 0 ? magnitude : -magnitude, numeric, tol)
            << names[k] << "[" << j << "]";
      }
    }
  }
}

TEST(LstmTest, LoadStateRejectsRaggedAccumulators) {
  // A well-formed stream whose g2_w_gates row 0 is one float short: every
  // length prefix is consistent, only the shape is wrong.
  const size_t vocab = 3, embed = 2, hidden = 2;
  auto matrix = [](size_t rows, size_t cols, size_t short_row) {
    std::vector<Vec> m(rows, Vec(cols, 0.5f));
    if (short_row < rows) m[short_row].pop_back();
    return m;
  };
  auto stream = [&](size_t short_row) {
    ByteWriter w;
    w.PutVarint(vocab);
    w.PutVarint(embed);
    w.PutVarint(hidden);
    w.PutFloatVecs(matrix(vocab + 1, embed, SIZE_MAX));
    w.PutFloatVecs(matrix(4 * hidden, embed + hidden, SIZE_MAX));
    w.PutFloatVec(Vec(4 * hidden, 0.0f));
    w.PutFloatVecs(matrix(vocab, hidden, SIZE_MAX));
    w.PutFloatVec(Vec(vocab, 0.0f));
    w.PutFloatVecs(matrix(vocab + 1, embed, SIZE_MAX));
    w.PutFloatVecs(matrix(4 * hidden, embed + hidden, short_row));
    w.PutFloatVec(Vec(4 * hidden, 0.0f));
    w.PutFloatVecs(matrix(vocab, hidden, SIZE_MAX));
    w.PutFloatVec(Vec(vocab, 0.0f));
    return w.data();
  };
  {
    const std::string good = stream(SIZE_MAX);
    ByteReader r(good);
    LstmLm lm;
    ASSERT_TRUE(lm.LoadState(&r).ok());
    EXPECT_TRUE(LstmBytes(lm) == good);
  }

  std::vector<std::vector<int>> corpus(10, std::vector<int>{0, 1});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 1;
  lm.Train(corpus, 2, cfg);
  const std::string before = LstmBytes(lm);
  const std::string bad = stream(0);
  ByteReader r(bad);
  const Status st = lm.LoadState(&r);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_TRUE(LstmBytes(lm) == before);

  // hidden = 2^62 makes 4 * hidden wrap to 0, so empty gate tensors would
  // pass a shape check; the dimension must fail against the payload size.
  ByteWriter w;
  w.PutVarint(0);
  w.PutVarint(0);
  w.PutVarint(uint64_t{1} << 62);
  for (int copy = 0; copy < 2; ++copy) {
    w.PutFloatVecs({Vec{}});
    w.PutFloatVecs({});
    w.PutFloatVec({});
    w.PutFloatVecs({});
    w.PutFloatVec({});
  }
  ByteReader wrapped(w.data());
  EXPECT_EQ(lm.LoadState(&wrapped).code(), StatusCode::kIOError);
  EXPECT_TRUE(LstmBytes(lm) == before);
}

TEST(RandomForestTest, LearnsThresholdRule) {
  Rng rng(11);
  std::vector<Vec> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    const float a = static_cast<float>(rng.Uniform());
    const float b = static_cast<float>(rng.Uniform());
    x.push_back({a, b});
    y.push_back(a > 0.6f ? 1 : 0);
  }
  RandomForest rf;
  RandomForestConfig cfg;
  cfg.num_trees = 20;
  rf.Train(x, y, cfg);
  EXPECT_TRUE(rf.Predict({0.9f, 0.5f}));
  EXPECT_FALSE(rf.Predict({0.1f, 0.5f}));
}

TEST(RandomForestTest, ProbabilitiesOrdered) {
  Rng rng(12);
  std::vector<Vec> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const float a = static_cast<float>(rng.Uniform());
    x.push_back({a});
    y.push_back(a > 0.5f ? 1 : 0);
  }
  RandomForest rf;
  rf.Train(x, y, {});
  EXPECT_GE(rf.PredictProba({0.95f}), rf.PredictProba({0.55f}));
  EXPECT_GE(rf.PredictProba({0.45f}), rf.PredictProba({0.05f}));
  EXPECT_GT(rf.PredictProba({0.95f}), 0.5);
  EXPECT_LT(rf.PredictProba({0.05f}), 0.5);
}

TEST(WordEmbedderTest, IdenticalLabelsScoreOne) {
  TrainedWordEmbedder we;
  std::vector<std::string_view> corpus = {"dame basketball shoes",
                                          "running shoes", "red", "white"};
  we.Fit(corpus, {});
  EXPECT_TRUE(we.trained());
  EXPECT_NEAR(we.Similarity("dame basketball shoes",
                            "dame basketball shoes"),
              1.0, 1e-6);
}

TEST(WordEmbedderTest, CooccurringWordsDrawLabelsCloser) {
  // "dame" and "lillard" always co-occur; "towel" never appears with them.
  std::vector<std::string> corpus_owner;
  for (int i = 0; i < 120; ++i) {
    corpus_owner.push_back("dame lillard shoes");
    corpus_owner.push_back("cotton towel");
  }
  std::vector<std::string_view> corpus(corpus_owner.begin(),
                                       corpus_owner.end());
  TrainedWordEmbedder we;
  TrainedWordEmbedder::Config cfg;
  cfg.sgns.epochs = 6;
  we.Fit(corpus, cfg);
  // Distributionally related labels beat unrelated ones.
  EXPECT_GT(we.Similarity("dame", "lillard"), we.Similarity("dame", "towel"));
}

TEST(WordEmbedderTest, OovWordsStillCompareByIdentity) {
  TrainedWordEmbedder we;
  std::vector<std::string_view> corpus = {"alpha beta", "gamma delta"};
  we.Fit(corpus, {});
  // "zzz" was never seen; identical OOV labels must still score 1.
  EXPECT_NEAR(we.Similarity("zzz", "zzz"), 1.0, 1e-6);
  EXPECT_LT(we.Similarity("zzz", "alpha"), 0.9);
}

TEST(WordEmbedderTest, EmptyLabelEmbedsToZero) {
  TrainedWordEmbedder we;
  std::vector<std::string_view> corpus = {"alpha"};
  we.Fit(corpus, {});
  EXPECT_NEAR(Norm(we.Embed("")), 0.0, 1e-9);
}

TEST(TfidfTest, IdenticalStringsSimilarityOne) {
  TfidfVectorizer vec;
  vec.Fit({"hello world", "other doc"});
  EXPECT_NEAR(vec.Similarity("hello world", "hello world"), 1.0, 1e-9);
}

TEST(TfidfTest, OverlapBeatsDisjoint) {
  TfidfVectorizer vec;
  vec.Fit({"dame basketball shoes", "running shoes", "cotton towel"});
  const double near = vec.Similarity("dame basketball shoes d7",
                                     "dame basketball shoes");
  const double far = vec.Similarity("dame basketball shoes d7",
                                    "cotton towel");
  EXPECT_GT(near, far + 0.3);
}

TEST(TfidfTest, SparseCosineOfDisjointIsZero) {
  SparseVec a = {{1, 1.0}};
  SparseVec b = {{2, 1.0}};
  EXPECT_DOUBLE_EQ(SparseCosine(a, b), 0.0);
}

}  // namespace
}  // namespace her
