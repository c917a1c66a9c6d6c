#ifndef HER_LEARN_TRAINER_H_
#define HER_LEARN_TRAINER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "ml/sgns.h"
#include "ml/text_embedder.h"
#include "ml/word_embedder.h"
#include "sim/joint_vocab.h"

namespace her {

/// Hyperparameters of module Learn (Section IV).
struct LearnConfig {
  /// M_v embedder dimension (Table VII sweeps this).
  TextEmbedderConfig embedder;
  /// Train a word-embedding M_v on the label corpus (Appendix I's GloVe
  /// alternative) instead of relying on the hashed embedder alone.
  bool train_word_embedder = false;
  TrainedWordEmbedder::Config word_embedder;
  /// Edge-label embedding pre-training (the BERT-on-random-walk-corpus
  /// substitute).
  SgnsConfig sgns;
  int walks_per_vertex = 2;
  int walk_length = 8;
  size_t max_corpus_walks = 20000;
  /// Metric model (paper: 3-layer network); hidden widths after the
  /// pair-feature input layer.
  std::vector<size_t> metric_hidden = {64};
  int metric_epochs = 40;
  double metric_lr = 0.02;
  /// LSTM ranking model M_r; set train_lstm = false to fall back to the
  /// PRA-only ranker.
  bool train_lstm = true;
  LstmConfig lstm;
  size_t max_lstm_paths = 4000;
  size_t lstm_path_len = 4;  // paper: paths of at most 4 edges [56]
  /// Paths with PRA below this do not teach the LM to continue; it learns
  /// <eos> at weak-association boundaries instead (paper Example 6).
  double lstm_min_pra = 0.05;
  uint64_t seed = 42;
};

/// Wall seconds of cold training, in total and per phase. TrainModels
/// fills the model phases, HerSystem the property table and the random
/// search. A phase that did not run (LSTM off, no LSTM sequences, no
/// tuning) reports 0, and so does one restored from a snapshot.
struct TrainPhaseSeconds {
  double sgns = 0.0;    // edge-label embedding pre-training (walks + SGNS)
  double metric = 0.0;  // metric MLP M_rho (features + BCE epochs)
  double lstm = 0.0;    // LSTM M_r (path collection + training)
  double ptable = 0.0;  // HerSystem: PropertyTable::Build (h_r per vertex)
  double search = 0.0;  // HerSystem: cold random search of (sigma, delta, k)
  /// The whole TrainModels call; HerSystem::Train widens it to the whole
  /// Train call, and TrainOrLoad adds its cold ptable and search.
  double total = 0.0;
};

/// The learned parameter functions, ready to wire into a MatchContext.
struct TrainedModels {
  std::unique_ptr<HashedTextEmbedder> embedder;
  std::unique_ptr<TrainedWordEmbedder> word_embedder;  // null unless trained
  std::unique_ptr<JointVocab> vocab;
  std::unique_ptr<SgnsModel> sgns;
  std::unique_ptr<Mlp> metric;
  std::unique_ptr<LstmLm> lstm;  // null when not trained
  TrainPhaseSeconds seconds;
};

/// Trains all parameter functions:
///  1. builds the joint edge-label vocabulary of (G_D, G);
///  2. collects a random-walk edge-label corpus from G (and G_D) and
///     pre-trains the SGNS embedding on it (Section IV, corpus C);
///  3. trains the metric MLP on annotated path pairs (BCE), with identity
///     pairs as anchors;
///  4. optionally trains the LSTM LM on maximum-PRA paths of both graphs.
TrainedModels TrainModels(const Graph& gd, const Graph& g,
                          std::span<const PathPairExample> path_pairs,
                          const LearnConfig& config);

/// Fine-tunes the metric model from user feedback (Section IV,
/// "Interaction and refinement"): FP pairs' path matches become dissimilar
/// samples (score 0), FN pairs' become similar (score 1), plus a triplet
/// pass for robustness. `replay` (typically the original supervised path
/// pairs) is rehearsed alongside the feedback so that a small, noisy
/// feedback batch cannot catastrophically overwrite the learned predicate
/// alignment.
void FineTuneMetric(Mlp& metric, const SgnsModel& sgns, const JointVocab& vocab,
                    std::span<const PathPairExample> fp_evidence,
                    std::span<const PathPairExample> fn_evidence,
                    std::span<const PathPairExample> replay,
                    int epochs, double triplet_margin);

/// Appends M_r's training sequences from graph `g` (joint-vocab side
/// `graph_index`) to `out` until it holds `max_paths`: per vertex, in an
/// order shuffled by `rng`, the maximum-PRA path to each descendant, as
/// joint tokens terminated by <eos> (Section IV, Training). Paths with PRA
/// below `min_pra` are skipped; the LM then learns to emit <eos> where the
/// association weakens — the paper's Example 6 behaviour (stop before
/// high-fanout vertices whose descendants "diverge and weaken the
/// semantic association"). `sources`, when given, receives each appended
/// sequence's start vertex.
void CollectLstmPaths(const Graph& g, int graph_index, const JointVocab& vocab,
                      size_t max_len, size_t max_paths, double min_pra,
                      Rng& rng, std::vector<std::vector<int>>& out,
                      std::vector<VertexId>* sources = nullptr);

/// Maps a label-string path to joint tokens, skipping unknown labels.
std::vector<int> TokensForPath(const JointVocab& vocab,
                               std::span<const std::string> labels);

}  // namespace her

#endif  // HER_LEARN_TRAINER_H_
