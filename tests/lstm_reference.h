#ifndef HER_TESTS_LSTM_REFERENCE_H_
#define HER_TESTS_LSTM_REFERENCE_H_

// Test-only quality oracle for LstmLm::Train: the per-sequence SGD
// trainer (shuffled epochs, one BPTT pass and one clip-norm plus Adagrad
// step per sequence) over ragged per-row weight vectors. It optimises the
// same summed per-token NLL as LstmLm's full-batch trie trainer, so its
// per-token NLL, reached with DefaultConfig(), is the bar that trainer
// must meet (LstmTest.TrainMatchesReferenceNll and the held-out check in
// learn_test). It writes LstmLm::SaveState's format, so ToModel() can score
// it with LstmLm::SequenceLogProb.

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "ml/lstm.h"
#include "ml/vector_ops.h"

namespace her {

class ReferenceLstm {
 public:
  /// The schedule this trainer was tuned with: 12 shuffled epochs at
  /// lr 0.1, each sequence's gradient clipped to norm 5.
  static LstmConfig DefaultConfig() {
    LstmConfig config;
    config.lr = 0.1;
    config.epochs = 12;
    config.clip = 5.0;
    return config;
  }

  void Train(const std::vector<std::vector<int>>& sequences,
             size_t vocab_size, const LstmConfig& config) {
    vocab_ = vocab_size;
    embed_ = config.embed_dim;
    hidden_ = config.hidden_dim;

    Rng rng(config.seed);
    const double es = 0.5 / std::sqrt(static_cast<double>(embed_));
    const double ws = 1.0 / std::sqrt(static_cast<double>(embed_ + hidden_));
    const double os = 1.0 / std::sqrt(static_cast<double>(hidden_));

    emb_.assign(vocab_ + 1, Vec());
    for (auto& e : emb_) e = RandomVec(embed_, es, rng);
    w_gates_.assign(4 * hidden_, Vec());
    for (auto& w : w_gates_) w = RandomVec(embed_ + hidden_, ws, rng);
    b_gates_.assign(4 * hidden_, 0.0f);
    for (size_t i = 0; i < hidden_; ++i) b_gates_[kForget * hidden_ + i] = 1.0f;
    w_out_.assign(vocab_, Vec());
    for (auto& w : w_out_) w = RandomVec(hidden_, os, rng);
    b_out_.assign(vocab_, 0.0f);

    g2_emb_.assign(vocab_ + 1, Vec(embed_, 0.0f));
    g2_w_gates_.assign(4 * hidden_, Vec(embed_ + hidden_, 0.0f));
    g2_b_gates_.assign(4 * hidden_, 0.0f);
    g2_w_out_.assign(vocab_, Vec(hidden_, 0.0f));
    g2_b_out_.assign(vocab_, 0.0f);

    const size_t H = hidden_;
    std::vector<Vec> d_emb(vocab_ + 1, Vec(embed_, 0.0f));
    std::vector<Vec> d_w_gates(4 * H, Vec(embed_ + H, 0.0f));
    Vec d_b_gates(4 * H, 0.0f);
    std::vector<Vec> d_w_out(vocab_, Vec(H, 0.0f));
    Vec d_b_out(vocab_, 0.0f);

    std::vector<size_t> order(sequences.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      rng.Shuffle(order);
      for (const size_t si : order) {
        const auto& seq = sequences[si];
        if (seq.empty()) continue;

        std::vector<StepCache> steps(seq.size());
        Vec h = Vec(H, 0.0f);
        Vec c = Vec(H, 0.0f);
        int prev = -1;
        for (size_t t = 0; t < seq.size(); ++t) {
          ForwardStep(prev, h, c, &steps[t]);
          h = steps[t].h;
          c = steps[t].c;
          prev = seq[t];
        }

        for (auto& g : d_emb) std::fill(g.begin(), g.end(), 0.0f);
        for (auto& g : d_w_gates) std::fill(g.begin(), g.end(), 0.0f);
        std::fill(d_b_gates.begin(), d_b_gates.end(), 0.0f);
        for (auto& g : d_w_out) std::fill(g.begin(), g.end(), 0.0f);
        std::fill(d_b_out.begin(), d_b_out.end(), 0.0f);

        Vec dh(H, 0.0f);
        Vec dc(H, 0.0f);
        for (size_t t = seq.size(); t-- > 0;) {
          const StepCache& sc = steps[t];
          const int target = seq[t];
          for (size_t v = 0; v < vocab_; ++v) {
            const double dlogit =
                sc.probs[v] - (static_cast<int>(v) == target ? 1.0 : 0.0);
            if (dlogit == 0.0) continue;
            Vec& dw = d_w_out[v];
            const Vec& wv = w_out_[v];
            for (size_t i = 0; i < H; ++i) {
              dw[i] += static_cast<float>(dlogit * sc.h[i]);
              dh[i] += static_cast<float>(dlogit * wv[i]);
            }
            d_b_out[v] += static_cast<float>(dlogit);
          }
          Vec dgates(4 * H, 0.0f);
          for (size_t i = 0; i < H; ++i) {
            const double in = sc.gates[kIn * H + i];
            const double fg = sc.gates[kForget * H + i];
            const double ou = sc.gates[kOut * H + i];
            const double g = sc.gates[kCell * H + i];
            const double dho = dh[i];
            const double d_o = dho * sc.tanh_c[i];
            double d_c = dc[i] + dho * ou * TanhD(sc.tanh_c[i]);
            const double d_i = d_c * g;
            const double d_f = d_c * sc.c_prev[i];
            const double d_g = d_c * in;
            dc[i] = static_cast<float>(d_c * fg);
            dgates[kIn * H + i] = static_cast<float>(d_i * in * (1 - in));
            dgates[kForget * H + i] = static_cast<float>(d_f * fg * (1 - fg));
            dgates[kOut * H + i] = static_cast<float>(d_o * ou * (1 - ou));
            dgates[kCell * H + i] = static_cast<float>(d_g * TanhD(g));
          }
          Vec dx(embed_, 0.0f);
          std::fill(dh.begin(), dh.end(), 0.0f);
          for (size_t r = 0; r < 4 * H; ++r) {
            const double dz = dgates[r];
            if (dz == 0.0) continue;
            const Vec& w = w_gates_[r];
            Vec& dw = d_w_gates[r];
            for (size_t i = 0; i < embed_; ++i) {
              dw[i] += static_cast<float>(dz * sc.x[i]);
              dx[i] += static_cast<float>(dz * w[i]);
            }
            for (size_t i = 0; i < H; ++i) {
              dw[embed_ + i] += static_cast<float>(dz * sc.h_prev[i]);
              dh[i] += static_cast<float>(dz * w[embed_ + i]);
            }
            d_b_gates[r] += static_cast<float>(dz);
          }
          const size_t emb_row =
              sc.token < 0 ? vocab_ : static_cast<size_t>(sc.token);
          Axpy(1.0, dx, d_emb[emb_row]);
        }

        double norm2 = 0.0;
        auto acc_norm = [&](const Vec& g) { norm2 += Dot(g, g); };
        for (const auto& g : d_emb) acc_norm(g);
        for (const auto& g : d_w_gates) acc_norm(g);
        acc_norm(d_b_gates);
        for (const auto& g : d_w_out) acc_norm(g);
        acc_norm(d_b_out);
        const double norm = std::sqrt(norm2);
        const double scale = norm > config.clip ? config.clip / norm : 1.0;

        auto update = [&](Vec& w, Vec& g2, const Vec& g) {
          for (size_t i = 0; i < w.size(); ++i) {
            const double gi = g[i] * scale;
            if (gi == 0.0) continue;
            g2[i] += static_cast<float>(gi * gi);
            w[i] -= static_cast<float>(config.lr * gi /
                                       (std::sqrt(g2[i]) + 1e-6));
          }
        };
        for (size_t i = 0; i < emb_.size(); ++i) {
          update(emb_[i], g2_emb_[i], d_emb[i]);
        }
        for (size_t i = 0; i < w_gates_.size(); ++i) {
          update(w_gates_[i], g2_w_gates_[i], d_w_gates[i]);
        }
        update(b_gates_, g2_b_gates_, d_b_gates);
        for (size_t i = 0; i < w_out_.size(); ++i) {
          update(w_out_[i], g2_w_out_[i], d_w_out[i]);
        }
        update(b_out_, g2_b_out_, d_b_out);
      }
    }
  }

  /// LstmLm::SaveState's byte format.
  std::string SaveBytes() const {
    ByteWriter w;
    w.PutVarint(vocab_);
    w.PutVarint(embed_);
    w.PutVarint(hidden_);
    w.PutFloatVecs(emb_);
    w.PutFloatVecs(w_gates_);
    w.PutFloatVec(b_gates_);
    w.PutFloatVecs(w_out_);
    w.PutFloatVec(b_out_);
    w.PutFloatVecs(g2_emb_);
    w.PutFloatVecs(g2_w_gates_);
    w.PutFloatVec(g2_b_gates_);
    w.PutFloatVecs(g2_w_out_);
    w.PutFloatVec(g2_b_out_);
    return w.data();
  }

  /// The trained weights as an LstmLm, for scoring.
  LstmLm ToModel() const {
    const std::string bytes = SaveBytes();
    ByteReader r(bytes);
    LstmLm lm;
    HER_CHECK(lm.LoadState(&r).ok());
    return lm;
  }

 private:
  enum Gate { kIn = 0, kForget = 1, kOut = 2, kCell = 3 };

  struct StepCache {
    int token = -1;
    Vec x;
    Vec h_prev, c_prev;
    Vec gates;
    Vec c, tanh_c, h;
    Vec probs;
  };

  static double TanhD(double y) { return 1.0 - y * y; }

  void ForwardStep(int token, const Vec& h_prev, const Vec& c_prev,
                   StepCache* cache) const {
    cache->token = token;
    cache->x = emb_[token < 0 ? vocab_ : static_cast<size_t>(token)];
    cache->h_prev = h_prev;
    cache->c_prev = c_prev;

    const size_t H = hidden_;
    cache->gates.assign(4 * H, 0.0f);
    for (size_t r = 0; r < 4 * H; ++r) {
      const Vec& w = w_gates_[r];
      double z = b_gates_[r];
      for (size_t i = 0; i < embed_; ++i) {
        z += static_cast<double>(w[i]) * cache->x[i];
      }
      for (size_t i = 0; i < H; ++i) {
        z += static_cast<double>(w[embed_ + i]) * h_prev[i];
      }
      const size_t gate = r / H;
      cache->gates[r] =
          static_cast<float>(gate == kCell ? std::tanh(z) : Sigmoid(z));
    }
    cache->c.assign(H, 0.0f);
    cache->tanh_c.assign(H, 0.0f);
    cache->h.assign(H, 0.0f);
    for (size_t i = 0; i < H; ++i) {
      const double in = cache->gates[kIn * H + i];
      const double fg = cache->gates[kForget * H + i];
      const double ou = cache->gates[kOut * H + i];
      const double g = cache->gates[kCell * H + i];
      const double c = fg * c_prev[i] + in * g;
      cache->c[i] = static_cast<float>(c);
      const double tc = std::tanh(c);
      cache->tanh_c[i] = static_cast<float>(tc);
      cache->h[i] = static_cast<float>(ou * tc);
    }
    cache->probs.assign(vocab_, 0.0f);
    for (size_t v = 0; v < vocab_; ++v) {
      cache->probs[v] =
          static_cast<float>(b_out_[v] + Dot(w_out_[v], cache->h));
    }
    SoftmaxInPlace(cache->probs);
  }

  size_t vocab_ = 0;
  size_t embed_ = 0;
  size_t hidden_ = 0;
  std::vector<Vec> emb_, w_gates_, w_out_;
  Vec b_gates_, b_out_;
  std::vector<Vec> g2_emb_, g2_w_gates_, g2_w_out_;
  Vec g2_b_gates_, g2_b_out_;
};

/// Mean per-token NLL (nats) of `corpus` under `lm`.
inline double PerTokenNll(const LstmLm& lm,
                          std::span<const std::vector<int>> corpus) {
  double nll = 0.0;
  size_t tokens = 0;
  for (const auto& seq : corpus) {
    nll -= lm.SequenceLogProb(seq);
    tokens += seq.size();
  }
  return tokens == 0 ? 0.0 : nll / static_cast<double>(tokens);
}

}  // namespace her

#endif  // HER_TESTS_LSTM_REFERENCE_H_
