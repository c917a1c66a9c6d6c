#ifndef HER_ML_LSTM_H_
#define HER_ML_LSTM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "ml/vector_ops.h"

namespace her {

/// LSTM language-model hyperparameters. The paper (Section VII) uses a
/// word-level LSTM LM over edge labels; we default to small dimensions that
/// train in seconds on laptop-scale corpora.
struct LstmConfig {
  size_t embed_dim = 24;
  size_t hidden_dim = 48;
  double lr = 0.3;
  int epochs = 80;    // full-batch passes over the corpus
  double clip = 20.0;  // per-pass gradient-norm clip
  uint64_t seed = 0x157a;
};

/// Single-layer LSTM language model over token ids, implemented from
/// scratch (embedding + LSTM cell + softmax projection), trained with
/// full-batch BPTT over the corpus's prefix trie and Adagrad.
///
/// This is the paper's M_r model: trained on maximum-PRA paths, it guides
/// h_r's greedy walk and emits the end-of-sentence token to stop a path.
/// Token ids are caller-defined; the model internally prepends a
/// beginning-of-sequence token (id == vocab_size).
class LstmLm {
 public:
  /// Mutable per-decode recurrent state.
  struct State {
    Vec h;
    Vec c;
  };

  /// Trains on sequences of tokens in [0, vocab_size); each sequence should
  /// end with the caller's end-of-sentence token. The objective is the
  /// corpus's summed per-token NLL, each sequence weighted by
  /// distinct / total sequences. Every pass runs one forward step per
  /// distinct prefix (the trie of the sorted corpus, parents first), sums
  /// the children's dh and dc into each parent on the way back, then
  /// takes one global clip and one Adagrad step. Deterministic and
  /// single-threaded; the result depends only on the corpus multiset.
  void Train(const std::vector<std::vector<int>>& sequences,
             size_t vocab_size, const LstmConfig& config);

  bool trained() const { return vocab_ > 0; }
  size_t vocab_size() const { return vocab_; }

  /// Fresh state, positioned after the implicit BOS token.
  State InitialState() const;

  /// Feeds `token` (or -1 for BOS), advances `state`, and returns the
  /// probability distribution over the next token (size vocab_size()).
  Vec StepProb(State& state, int token) const;

  /// Advances N independent decode lanes in one interleaved, cache-blocked
  /// forward pass over the shared weights: lane r consumes tokens[r] (or
  /// -1 for BOS), updates states[r] in place and writes its next-token
  /// distribution to probs[r] (resized to vocab_size()). Lane states are
  /// gathered into an SoA layout so each weight row streams through the
  /// cache once per lane group instead of once per lane, with one
  /// independent accumulator chain per lane in ascending index order —
  /// per lane the arithmetic is exactly StepProb's, so results are
  /// bit-identical to N scalar calls (test-enforced). Callers retire
  /// lanes by simply omitting them from the next call; the remaining
  /// lanes are unaffected.
  void StepProbBatch(std::span<State> states, std::span<const int> tokens,
                     std::span<Vec> probs) const;

  /// Log-probability of a full sequence (with implicit BOS), for
  /// perplexity-style evaluation in tests.
  double SequenceLogProb(const std::vector<int>& seq) const;

  /// Serializes parameters and Adagrad accumulators for the durable
  /// snapshot; LoadState restores the model bit for bit.
  void SaveState(ByteWriter* w) const;
  Status LoadState(ByteReader* r);

 private:
  struct StepCache;  // forward activations kept for BPTT

  /// One forward step on `token` (-1 for BOS) from the hidden_-float
  /// states h_prev / c_prev.
  void ForwardStep(int token, const float* h_prev, const float* c_prev,
                   StepCache* cache) const;

  /// Embedding row of `token`, or of BOS for -1.
  const float* EmbRow(int token) const {
    return emb_.data() +
           (token < 0 ? vocab_ : static_cast<size_t>(token)) * embed_;
  }

  size_t vocab_ = 0;
  size_t embed_ = 0;
  size_t hidden_ = 0;

  // Parameters as contiguous row-major arenas, and their Adagrad
  // accumulators in the same shapes. SaveState writes each matrix row by
  // row, in the ragged-matrix format of ByteWriter::PutFloatVecs.
  Vec emb_;        // [vocab+1][embed]; last row is BOS
  Vec w_gates_;    // [4*hidden][embed+hidden]
  Vec b_gates_;    // [4*hidden]
  Vec w_out_;      // [vocab][hidden]
  Vec b_out_;      // [vocab]

  Vec g2_emb_;
  Vec g2_w_gates_;
  Vec g2_b_gates_;
  Vec g2_w_out_;
  Vec g2_b_out_;
};

}  // namespace her

#endif  // HER_ML_LSTM_H_
