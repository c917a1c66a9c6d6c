#include <gtest/gtest.h>

#include <cmath>

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

TEST(LstmTest, TrainBitIdenticalToReference) {
  // Vocab sizes around the 4- and 8-row chain blocks (tails of 0..7 rows),
  // a small and the production shape, clipping active (0.05) and not
  // (5.0), and empty, 1-token and 5-token sequences.
  const std::vector<std::pair<size_t, size_t>> shapes = {{5, 7}, {24, 48}};
  for (const size_t vocab : {1, 3, 7, 8, 9, 61}) {
    Rng rng(vocab);
    std::vector<std::vector<int>> corpus;
    for (int i = 0; i < 12; ++i) {
      corpus.push_back({});
      corpus.push_back({static_cast<int>(rng.Below(vocab))});
      std::vector<int> five;
      for (int t = 0; t < 5; ++t) {
        five.push_back(static_cast<int>(rng.Below(vocab)));
      }
      corpus.push_back(five);
    }
    for (const auto& [embed, hidden] : shapes) {
      for (const double clip : {0.05, 5.0}) {
        LstmConfig cfg;
        cfg.embed_dim = embed;
        cfg.hidden_dim = hidden;
        cfg.clip = clip;
        cfg.epochs = 2;
        ReferenceLstm ref;
        ref.Train(corpus, vocab, cfg);
        LstmLm lm;
        lm.Train(corpus, vocab, cfg);
        EXPECT_TRUE(LstmBytes(lm) == ref.SaveBytes())
            << "vocab=" << vocab << " embed=" << embed
            << " hidden=" << hidden << " clip=" << clip;
      }
    }
    // A diverging run must match bit for bit too: lr 1e300 overflows the
    // first Adagrad steps to inf and the weights go NaN (all but vocab 1,
    // whose softmax is constant), so NaN propagation through every kernel
    // and the masked lanes are compared as well.
    LstmConfig diverge;
    diverge.embed_dim = 5;
    diverge.hidden_dim = 7;
    diverge.lr = 1e300;
    diverge.epochs = 2;
    ReferenceLstm ref;
    ref.Train(corpus, vocab, diverge);
    LstmLm lm;
    lm.Train(corpus, vocab, diverge);
    EXPECT_TRUE(LstmBytes(lm) == ref.SaveBytes())
        << "diverging vocab=" << vocab;
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
