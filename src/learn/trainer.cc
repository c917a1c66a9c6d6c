#include "learn/trainer.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "graph/traversal.h"

namespace her {

namespace {

/// Random-walk edge-label corpus over a graph (Section IV: "construct a
/// corpus C by randomly walking in G and collecting edge labels").
void CollectWalks(const Graph& g, int graph_index, const JointVocab& vocab,
                  int walks_per_vertex, int walk_length, size_t max_walks,
                  Rng& rng, std::vector<std::vector<int>>& corpus) {
  for (VertexId v = 0; v < g.num_vertices() && corpus.size() < max_walks;
       ++v) {
    if (g.IsLeaf(v)) continue;
    for (int w = 0; w < walks_per_vertex; ++w) {
      std::vector<int> walk;
      VertexId cur = v;
      for (int step = 0; step < walk_length; ++step) {
        const auto edges = g.OutEdges(cur);
        if (edges.empty()) break;
        const Edge& e = edges[rng.Below(edges.size())];
        walk.push_back(vocab.TokenOf(graph_index, e.label));
        cur = e.dst;
      }
      if (walk.size() >= 2) corpus.push_back(std::move(walk));
    }
  }
}

}  // namespace

void CollectLstmPaths(const Graph& g, int graph_index, const JointVocab& vocab,
                      size_t max_len, size_t max_paths, double min_pra,
                      Rng& rng, std::vector<std::vector<int>>& out,
                      std::vector<VertexId>* sources) {
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  rng.Shuffle(order);  // "clustering and inspecting representative entities"
  for (const VertexId v : order) {
    if (out.size() >= max_paths) return;
    if (g.IsLeaf(v)) continue;
    for (const PraPath& p : MaxPraPaths(g, v, max_len)) {
      if (out.size() >= max_paths) return;
      if (p.pra < min_pra) continue;  // weak association: not a training path
      std::vector<int> seq = vocab.MapPath(graph_index, p.path.labels);
      seq.push_back(vocab.eos());
      out.push_back(std::move(seq));
      if (sources != nullptr) sources->push_back(v);
    }
  }
}

std::vector<int> TokensForPath(const JointVocab& vocab,
                               std::span<const std::string> labels) {
  std::vector<int> out;
  out.reserve(labels.size());
  for (const std::string& l : labels) {
    const int t = vocab.FindToken(l);
    if (t >= 0) out.push_back(t);
  }
  return out;
}

TrainedModels TrainModels(const Graph& gd, const Graph& g,
                          std::span<const PathPairExample> path_pairs,
                          const LearnConfig& config) {
  const WallTimer total;
  TrainedModels m;
  m.embedder = std::make_unique<HashedTextEmbedder>(config.embedder);
  {
    // IDF over all vertex labels of both graphs, so ubiquitous tokens
    // (type names, stop words) weigh less in M_v.
    std::vector<std::string_view> corpus;
    corpus.reserve(gd.num_vertices() + g.num_vertices());
    for (VertexId v = 0; v < gd.num_vertices(); ++v) {
      corpus.push_back(gd.label(v));
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      corpus.push_back(g.label(v));
    }
    m.embedder->FitIdf(corpus);
    if (config.train_word_embedder) {
      m.word_embedder = std::make_unique<TrainedWordEmbedder>();
      m.word_embedder->Fit(corpus, config.word_embedder);
    }
  }
  m.vocab = std::make_unique<JointVocab>(gd, g);
  Rng rng(config.seed);

  // (2) Pre-train edge-label embeddings on the random-walk corpus.
  WallTimer phase;
  std::vector<std::vector<int>> corpus;
  CollectWalks(g, 1, *m.vocab, config.walks_per_vertex, config.walk_length,
               config.max_corpus_walks, rng, corpus);
  CollectWalks(gd, 0, *m.vocab, config.walks_per_vertex, config.walk_length,
               config.max_corpus_walks, rng, corpus);
  m.sgns = std::make_unique<SgnsModel>();
  if (corpus.empty()) {
    m.sgns->InitRandom(m.vocab->size_with_eos(), config.sgns.dim,
                       config.sgns.seed);
  } else {
    m.sgns->Train(corpus, m.vocab->size_with_eos(), config.sgns);
  }
  m.seconds.sgns = phase.Seconds();
  phase.Restart();

  // (3) Metric model on annotated path pairs.
  std::vector<size_t> dims = {4 * m.sgns->dim()};
  dims.insert(dims.end(), config.metric_hidden.begin(),
              config.metric_hidden.end());
  dims.push_back(1);
  m.metric = std::make_unique<Mlp>(dims, config.seed ^ 0x9e37);
  m.metric->set_learning_rate(config.metric_lr);

  struct Example {
    Vec features;
    double target;
  };
  std::vector<Example> examples;
  std::unordered_set<int> seen_tokens;
  for (const PathPairExample& p : path_pairs) {
    const auto t1 = TokensForPath(*m.vocab, p.rel_path);
    const auto t2 = TokensForPath(*m.vocab, p.g_path);
    if (t1.empty() || t2.empty()) continue;
    examples.push_back({PairFeatures(m.sgns->EmbedSequence(t1),
                                     m.sgns->EmbedSequence(t2)),
                        p.match ? 1.0 : 0.0});
    for (const int t : t1) seen_tokens.insert(t);
    for (const int t : t2) seen_tokens.insert(t);
  }
  // Identity anchors: every label is maximally similar to itself.
  for (const int t : seen_tokens) {
    const std::vector<int> path = {t};
    const Vec e = m.sgns->EmbedSequence(path);
    examples.push_back({PairFeatures(e, e), 1.0});
  }
  // Rebalance: replicate the minority class so BCE sees a ~1:1 ratio.
  {
    size_t pos = 0;
    for (const Example& ex : examples) pos += ex.target > 0.5;
    const size_t neg = examples.size() - pos;
    const size_t minority = std::min(pos, neg);
    if (minority > 0 && pos != neg) {
      const double minority_target = pos < neg ? 1.0 : 0.0;
      const size_t copies = (std::max(pos, neg) / minority);
      const size_t original = examples.size();
      for (size_t c = 1; c < copies; ++c) {
        for (size_t i = 0; i < original; ++i) {
          if ((examples[i].target > 0.5) == (minority_target > 0.5)) {
            examples.push_back(examples[i]);
          }
        }
      }
    }
  }
  for (int epoch = 0; epoch < config.metric_epochs; ++epoch) {
    rng.Shuffle(examples);
    for (const Example& ex : examples) {
      m.metric->StepBce(ex.features, ex.target);
    }
  }
  m.seconds.metric = phase.Seconds();

  // (4) LSTM ranking model on max-PRA paths of both graphs.
  if (config.train_lstm) {
    phase.Restart();
    std::vector<std::vector<int>> sequences;
    CollectLstmPaths(g, 1, *m.vocab, config.lstm_path_len,
                     config.max_lstm_paths, config.lstm_min_pra, rng,
                     sequences);
    CollectLstmPaths(gd, 0, *m.vocab, config.lstm_path_len,
                     config.max_lstm_paths / 2, config.lstm_min_pra, rng,
                     sequences);
    if (!sequences.empty()) {
      m.lstm = std::make_unique<LstmLm>();
      m.lstm->Train(sequences, m.vocab->size_with_eos(), config.lstm);
      m.seconds.lstm = phase.Seconds();
    }
  }
  m.seconds.total = total.Seconds();
  return m;
}

void FineTuneMetric(Mlp& metric, const SgnsModel& sgns,
                    const JointVocab& vocab,
                    std::span<const PathPairExample> fp_evidence,
                    std::span<const PathPairExample> fn_evidence,
                    std::span<const PathPairExample> replay,
                    int epochs, double triplet_margin) {
  struct Feat {
    Vec features;
    double target;
  };
  std::vector<Feat> feats;
  auto add = [&](const PathPairExample& p, double target) {
    const auto t1 = TokensForPath(vocab, p.rel_path);
    const auto t2 = TokensForPath(vocab, p.g_path);
    if (t1.empty() || t2.empty()) return;
    feats.push_back({PairFeatures(sgns.EmbedSequence(t1),
                                  sgns.EmbedSequence(t2)),
                     target});
  };
  for (const auto& p : fp_evidence) add(p, 0.0);  // marked dissimilar
  for (const auto& p : fn_evidence) add(p, 1.0);  // marked similar
  if (feats.empty()) return;
  // Rehearsal: anchor the update with the original supervision.
  for (const auto& p : replay) add(p, p.match ? 1.0 : 0.0);
  // Gentle updates: feedback batches are small and must not destabilize
  // the pre-trained metric (the triplet pass already guards robustness).
  const double saved_lr = metric.learning_rate();
  metric.set_learning_rate(saved_lr * 0.1);
  for (int e = 0; e < epochs; ++e) {
    for (const Feat& f : feats) metric.StepBce(f.features, f.target);
    // Triplet pass pairing positive and negative evidence (robust against
    // residual false feedback, Section IV).
    for (const Feat& pos : feats) {
      if (pos.target < 0.5) continue;
      for (const Feat& neg : feats) {
        if (neg.target > 0.5) continue;
        metric.StepTriplet(pos.features, neg.features, triplet_margin);
      }
    }
  }
  metric.set_learning_rate(saved_lr);
}

}  // namespace her
