#include "ml/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "common/rng.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace her {

namespace {

// Gate slots inside the 4*hidden pre-activation vector.
enum Gate { kIn = 0, kForget = 1, kOut = 2, kCell = 3 };

double TanhD(double y) { return 1.0 - y * y; }  // derivative via output

// Lane count of the batched decode pass (mirrors Mlp::PredictBatch):
// enough independent accumulator chains to saturate the FP-add pipes,
// and one streaming pass over each weight row per lane group instead of
// per lane.
constexpr size_t kLanes = 8;

#if defined(__GNUC__) || defined(__clang__)
#define HER_LSTM_PACKED_LANES 1
// Native 128-bit pairs (SSE2-class on x86): two lanes per register halve
// the uop count per lane without touching any lane's reduction order.
typedef double Vd2 __attribute__((vector_size(16)));
#endif

// Row-chain width of the forward step. A row reduction (a gate or output
// pre-activation) is one dependent chain of double adds, so a single row
// runs at FP-add latency; reducing 8 rows at once keeps 8 independent
// chains in flight. Each row still owns its accumulator and adds its terms
// in ascending index order, so every row sum is bit-identical to the
// one-row-at-a-time loop (and StepProb to StepProbBatch).
constexpr size_t kRowChains = 8;

// Calls fn(r0, std::integral_constant<size_t, N>{}) over the rows
// [0, rows) in blocks of N = kRowChains, then 4, then single rows.
template <typename Fn>
void ForRowBlocks(size_t rows, Fn&& fn) {
  size_t r = 0;
  for (; r + kRowChains <= rows; r += kRowChains) {
    fn(r, std::integral_constant<size_t, kRowChains>{});
  }
  for (; r + 4 <= rows; r += 4) fn(r, std::integral_constant<size_t, 4>{});
  for (; r < rows; ++r) fn(r, std::integral_constant<size_t, 1>{});
}

// s[r] += sum_i double(w[r * stride + i]) * double(in[i]) over i < n for
// the N rows starting at w. One chain per row in ascending i. The SSE2
// path holds rows 2p and 2p+1 in the two lanes of one register; a lane
// does exactly the scalar multiply and add, so the sums are bit-identical.
template <size_t N>
inline void RowChains(const float* w, size_t stride, const float* in,
                      size_t n, double* s) {
  size_t i = 0;
#if defined(__SSE2__)
  if constexpr (N % 2 == 0) {
    constexpr size_t P = N / 2;
    __m128d acc[P];
    for (size_t p = 0; p < P; ++p) acc[p] = _mm_set_pd(s[2 * p + 1], s[2 * p]);
    for (; i + 4 <= n; i += 4) {
      const __m128 xv = _mm_loadu_ps(in + i);
      const __m128d x01 = _mm_cvtps_pd(xv);
      const __m128d x23 = _mm_cvtps_pd(_mm_movehl_ps(xv, xv));
      const __m128d x[4] = {
          _mm_unpacklo_pd(x01, x01), _mm_unpackhi_pd(x01, x01),
          _mm_unpacklo_pd(x23, x23), _mm_unpackhi_pd(x23, x23)};
      for (size_t p = 0; p < P; ++p) {
        const __m128 va = _mm_loadu_ps(w + 2 * p * stride + i);
        const __m128 vb = _mm_loadu_ps(w + (2 * p + 1) * stride + i);
        const __m128 lo = _mm_unpacklo_ps(va, vb);  // a0 b0 a1 b1
        const __m128 hi = _mm_unpackhi_ps(va, vb);  // a2 b2 a3 b3
        const __m128d c[4] = {_mm_cvtps_pd(lo),
                              _mm_cvtps_pd(_mm_movehl_ps(lo, lo)),
                              _mm_cvtps_pd(hi),
                              _mm_cvtps_pd(_mm_movehl_ps(hi, hi))};
        for (size_t k = 0; k < 4; ++k) {
          acc[p] = _mm_add_pd(acc[p], _mm_mul_pd(c[k], x[k]));
        }
      }
    }
    for (size_t p = 0; p < P; ++p) {
      _mm_storel_pd(s + 2 * p, acc[p]);
      _mm_storeh_pd(s + 2 * p + 1, acc[p]);
    }
  }
#endif
  for (; i < n; ++i) {
    for (size_t r = 0; r < N; ++r) {
      s[r] += static_cast<double>(w[r * stride + i]) * in[i];
    }
  }
}

// dw[i] += dz * in[i] and dacc[i] += dz * w[i] over i < n. A product of
// two floats is exact in double, so the float products here equal the
// double products rounded to float.
inline void AddOuterRow(float dz, const float* __restrict in,
                        const float* __restrict w, float* __restrict dw,
                        float* __restrict dacc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dw[i] += dz * in[i];
    dacc[i] += dz * w[i];
  }
}

// One Adagrad step over n parameters, fused with zeroing the gradient
// for the next pass. A slot whose scaled gradient is exactly zero keeps
// its weight and accumulator bits.
void AdagradStep(float* w, float* g2, float* g, size_t n, double scale,
                 double lr) {
  for (size_t i = 0; i < n; ++i) {
    const double gi = g[i] * scale;
    g[i] = 0.0f;
    if (gi == 0.0) continue;
    g2[i] += static_cast<float>(gi * gi);
    w[i] -= static_cast<float>(lr * gi / (std::sqrt(g2[i]) + 1e-6));
  }
}

// Writes a row-major [rows][cols] arena in ByteWriter::PutFloatVecs's
// ragged-matrix format.
void PutRows(ByteWriter* w, const Vec& arena, size_t rows, size_t cols) {
  w->PutVarint(rows);
  for (size_t r = 0; r < rows; ++r) {
    w->PutVarint(cols);
    for (size_t i = 0; i < cols; ++i) w->PutFloat(arena[r * cols + i]);
  }
}

// Reads a PutFloatVecs matrix that must be exactly [rows][cols] into a
// row-major arena.
Status GetRows(ByteReader* r, size_t rows, size_t cols, const char* what,
               Vec* arena) {
  std::vector<Vec> ragged;
  HER_RETURN_NOT_OK(r->GetFloatVecs(&ragged));
  if (ragged.size() != rows) {
    return Status::IOError(std::string("lstm: ") + what +
                           " shape does not match dimensions");
  }
  for (const Vec& row : ragged) {
    if (row.size() != cols) {
      return Status::IOError(std::string("lstm: ragged ") + what);
    }
  }
  arena->clear();
  arena->reserve(rows * cols);
  for (const Vec& row : ragged) {
    arena->insert(arena->end(), row.begin(), row.end());
  }
  return Status::OK();
}

}  // namespace

struct LstmLm::StepCache {
  Vec xh;       // the step's input [x ; h_prev] (embed + hidden)
  Vec gates;    // post-activation i,f,o,g (4*hidden)
  Vec c, tanh_c, h;
  Vec probs;    // softmax over vocab
};

void LstmLm::ForwardStep(int token, const float* h_prev, const float* c_prev,
                         StepCache* cache) const {
  HER_DCHECK(token < static_cast<int>(vocab_));
  const size_t H = hidden_;
  const size_t E = embed_;
  const size_t W = E + H;
  const float* x = EmbRow(token);
  cache->xh.resize(W);
  std::copy(x, x + E, cache->xh.begin());
  std::copy(h_prev, h_prev + H, cache->xh.begin() + E);

  // Gate pre-activations: each row's chain starts at its bias and adds the
  // x terms, then the h_prev terms, in ascending index order.
  cache->gates.resize(4 * H);
  ForRowBlocks(4 * H, [&](size_t r0, auto chains) {
    constexpr size_t N = decltype(chains)::value;
    double z[N];
    for (size_t r = 0; r < N; ++r) z[r] = b_gates_[r0 + r];
    RowChains<N>(w_gates_.data() + r0 * W, W, cache->xh.data(), W, z);
    for (size_t r = 0; r < N; ++r) {
      const bool is_cell = (r0 + r) / H == kCell;
      cache->gates[r0 + r] =
          static_cast<float>(is_cell ? std::tanh(z[r]) : Sigmoid(z[r]));
    }
  });
  cache->c.resize(H);
  cache->tanh_c.resize(H);
  cache->h.resize(H);
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
  // Output logits: bias + Dot(w_out row, h), the dot chain starting at 0.
  cache->probs.resize(vocab_);
  const float* h = cache->h.data();
  ForRowBlocks(vocab_, [&](size_t v0, auto chains) {
    constexpr size_t N = decltype(chains)::value;
    double s[N] = {};
    RowChains<N>(w_out_.data() + v0 * H, H, h, H, s);
    for (size_t r = 0; r < N; ++r) {
      cache->probs[v0 + r] = static_cast<float>(b_out_[v0 + r] + s[r]);
    }
  });
  SoftmaxInPlace(cache->probs);
}

LstmLm::State LstmLm::InitialState() const {
  return State{Vec(hidden_, 0.0f), Vec(hidden_, 0.0f)};
}

Vec LstmLm::StepProb(State& state, int token) const {
  HER_CHECK(trained());
  StepCache cache;
  ForwardStep(token, state.h.data(), state.c.data(), &cache);
  state.h = std::move(cache.h);
  state.c = std::move(cache.c);
  return std::move(cache.probs);
}

void LstmLm::StepProbBatch(std::span<State> states,
                           std::span<const int> tokens,
                           std::span<Vec> probs) const {
  HER_CHECK(trained());
  const size_t n = states.size();
  HER_DCHECK(tokens.size() == n && probs.size() == n);
  if (n == 0) return;
  const size_t H = hidden_;
  const size_t E = embed_;
  const size_t W = E + H;
  // Lane-interleaved scratch (element i of lane r at [kLanes*i + r]): the
  // inputs are widened to double once per step — the widening is exact,
  // so per-lane products match StepProb's double(w[i]) * float operand
  // arithmetic bit for bit.
  std::vector<double> in_buf(kLanes * W);
  std::vector<float> gates(kLanes * 4 * H);
  std::vector<double> h_buf(kLanes * H, 0.0);

  for (size_t g0 = 0; g0 < n; g0 += kLanes) {
    const size_t lanes = std::min<size_t>(kLanes, n - g0);
    // Short groups pad with the last real lane; padded lanes compute
    // alongside and are simply not scattered back.
    for (size_t r = 0; r < kLanes; ++r) {
      const size_t lane = g0 + std::min(r, lanes - 1);
      const int tok = tokens[lane];
      HER_DCHECK(tok < static_cast<int>(vocab_));
      const float* x = EmbRow(tok);
      const Vec& h_prev = states[lane].h;
      for (size_t i = 0; i < E; ++i) in_buf[kLanes * i + r] = x[i];
      for (size_t i = 0; i < H; ++i) {
        in_buf[kLanes * (E + i) + r] = h_prev[i];
      }
    }

    // Gate pre-activations: one pass over each weight row for the whole
    // lane group, one independent accumulator chain per lane in ascending
    // index order. Each chain is seeded with the bias because StepProb
    // starts z at the bias before accumulating — same addition order,
    // bit-identical sums.
    for (size_t rr = 0; rr < 4 * H; ++rr) {
      const float* w = w_gates_.data() + rr * W;
      const double b = b_gates_[rr];
      double s[kLanes];
#ifdef HER_LSTM_PACKED_LANES
      Vd2 acc0 = {b, b}, acc1 = {b, b}, acc2 = {b, b}, acc3 = {b, b};
      for (size_t i = 0; i < W; ++i) {
        const double wi = w[i];
        const double* c = in_buf.data() + kLanes * i;
        Vd2 c0, c1, c2, c3;
        std::memcpy(&c0, c + 0, sizeof c0);
        std::memcpy(&c1, c + 2, sizeof c1);
        std::memcpy(&c2, c + 4, sizeof c2);
        std::memcpy(&c3, c + 6, sizeof c3);
        acc0 += wi * c0;
        acc1 += wi * c1;
        acc2 += wi * c2;
        acc3 += wi * c3;
      }
      s[0] = acc0[0];
      s[1] = acc0[1];
      s[2] = acc1[0];
      s[3] = acc1[1];
      s[4] = acc2[0];
      s[5] = acc2[1];
      s[6] = acc3[0];
      s[7] = acc3[1];
#else
      for (size_t r = 0; r < kLanes; ++r) s[r] = b;
      for (size_t i = 0; i < W; ++i) {
        const double wi = w[i];
        const double* c = in_buf.data() + kLanes * i;
        for (size_t r = 0; r < kLanes; ++r) s[r] += wi * c[r];
      }
#endif
      const bool is_cell = rr / H == kCell;
      for (size_t r = 0; r < kLanes; ++r) {
        gates[kLanes * rr + r] =
            static_cast<float>(is_cell ? std::tanh(s[r]) : Sigmoid(s[r]));
      }
    }

    // Cell/hidden update per real lane — exactly ForwardStep's arithmetic
    // (gate values round through float first, tanh runs on the unrounded
    // double cell).
    for (size_t r = 0; r < lanes; ++r) {
      State& st = states[g0 + r];
      for (size_t i = 0; i < H; ++i) {
        const double in = gates[kLanes * (kIn * H + i) + r];
        const double fg = gates[kLanes * (kForget * H + i) + r];
        const double ou = gates[kLanes * (kOut * H + i) + r];
        const double g = gates[kLanes * (kCell * H + i) + r];
        const double c = fg * st.c[i] + in * g;
        st.c[i] = static_cast<float>(c);
        const double tc = std::tanh(c);
        const float h = static_cast<float>(ou * tc);
        st.h[i] = h;
        h_buf[kLanes * i + r] = h;
      }
    }

    // Output projection over the new hidden states, then per-lane softmax
    // on the float logits (same SoftmaxInPlace as the scalar path).
    for (size_t r = 0; r < lanes; ++r) probs[g0 + r].assign(vocab_, 0.0f);
    for (size_t v = 0; v < vocab_; ++v) {
      const float* w = w_out_.data() + v * H;
      double s[kLanes];
#ifdef HER_LSTM_PACKED_LANES
      Vd2 acc0 = {0.0, 0.0}, acc1 = {0.0, 0.0};
      Vd2 acc2 = {0.0, 0.0}, acc3 = {0.0, 0.0};
      for (size_t i = 0; i < H; ++i) {
        const double wi = w[i];
        const double* c = h_buf.data() + kLanes * i;
        Vd2 c0, c1, c2, c3;
        std::memcpy(&c0, c + 0, sizeof c0);
        std::memcpy(&c1, c + 2, sizeof c1);
        std::memcpy(&c2, c + 4, sizeof c2);
        std::memcpy(&c3, c + 6, sizeof c3);
        acc0 += wi * c0;
        acc1 += wi * c1;
        acc2 += wi * c2;
        acc3 += wi * c3;
      }
      s[0] = acc0[0];
      s[1] = acc0[1];
      s[2] = acc1[0];
      s[3] = acc1[1];
      s[4] = acc2[0];
      s[5] = acc2[1];
      s[6] = acc3[0];
      s[7] = acc3[1];
#else
      for (size_t r = 0; r < kLanes; ++r) s[r] = 0.0;
      for (size_t i = 0; i < H; ++i) {
        const double wi = w[i];
        const double* c = h_buf.data() + kLanes * i;
        for (size_t r = 0; r < kLanes; ++r) s[r] += wi * c[r];
      }
#endif
      for (size_t r = 0; r < lanes; ++r) {
        probs[g0 + r][v] = static_cast<float>(b_out_[v] + s[r]);
      }
    }
    for (size_t r = 0; r < lanes; ++r) SoftmaxInPlace(probs[g0 + r]);
  }
}

double LstmLm::SequenceLogProb(const std::vector<int>& seq) const {
  State st = InitialState();
  double lp = 0.0;
  int prev = -1;  // BOS
  for (const int tok : seq) {
    const Vec probs = StepProb(st, prev);
    lp += std::log(std::max(1e-12, static_cast<double>(probs[tok])));
    prev = tok;
  }
  return lp;
}

void LstmLm::Train(const std::vector<std::vector<int>>& sequences,
                   size_t vocab_size, const LstmConfig& config) {
  vocab_ = vocab_size;
  embed_ = config.embed_dim;
  hidden_ = config.hidden_dim;
  HER_CHECK(vocab_ > 0);
  const size_t H = hidden_;
  const size_t E = embed_;
  const size_t W = E + H;

  Rng rng(config.seed);
  const double es = 0.5 / std::sqrt(static_cast<double>(E));
  const double ws = 1.0 / std::sqrt(static_cast<double>(W));
  const double os = 1.0 / std::sqrt(static_cast<double>(H));
  // Gaussian init over a whole arena: the same draws, in the same order,
  // as RandomVec row by row.
  auto init = [&](Vec& arena, size_t n, double scale) {
    arena.resize(n);
    for (float& x : arena) x = static_cast<float>(rng.Normal() * scale);
  };
  init(emb_, (vocab_ + 1) * E, es);
  init(w_gates_, 4 * H * W, ws);
  b_gates_.assign(4 * H, 0.0f);
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (size_t i = 0; i < H; ++i) b_gates_[kForget * H + i] = 1.0f;
  init(w_out_, vocab_ * H, os);
  b_out_.assign(vocab_, 0.0f);

  g2_emb_.assign(emb_.size(), 0.0f);
  g2_w_gates_.assign(w_gates_.size(), 0.0f);
  g2_b_gates_.assign(b_gates_.size(), 0.0f);
  g2_w_out_.assign(w_out_.size(), 0.0f);
  g2_b_out_.assign(b_out_.size(), 0.0f);

  // The prefix trie of the corpus. Node 0 is BOS, every other node one
  // distinct prefix; a node holds how many sequences continue past its
  // prefix and the counts of the tokens they continue with. Sequences are
  // inserted in sorted order, so the numbering depends only on the corpus
  // multiset and every parent is numbered before its children.
  struct Node {
    size_t parent = 0;
    int token = -1;  // the node's input: the last token of its prefix
    double n = 0.0;
    std::vector<std::pair<int, double>> next;  // ascending token
  };
  std::vector<const std::vector<int>*> sorted;
  for (const auto& seq : sequences) {
    if (!seq.empty()) sorted.push_back(&seq);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return *a < *b; });
  std::vector<Node> trie;
  std::vector<size_t> path;  // path[d]: node of the length-d prefix
  size_t distinct = 0;
  const std::vector<int>* prev = nullptr;
  for (const std::vector<int>* seq : sorted) {
    // The previous sequence has a node for each of its proper prefixes;
    // the ones this sequence shares are reused.
    size_t keep = 0;
    if (prev != nullptr) {
      const size_t lcp = static_cast<size_t>(
          std::mismatch(prev->begin(), prev->end(), seq->begin(), seq->end())
              .first -
          prev->begin());
      keep = std::min(lcp, prev->size() - 1) + 1;
    }
    if (prev == nullptr || *prev != *seq) ++distinct;
    path.resize(keep);
    for (size_t d = keep; d < seq->size(); ++d) {
      Node node;
      if (d > 0) {
        node.parent = path[d - 1];
        node.token = (*seq)[d - 1];
      }
      path.push_back(trie.size());
      trie.push_back(std::move(node));
    }
    for (size_t d = 0; d < seq->size(); ++d) {
      const int tok = (*seq)[d];
      HER_DCHECK(tok >= 0 && static_cast<size_t>(tok) < vocab_);
      Node& node = trie[path[d]];
      node.n += 1.0;
      if (node.next.empty() || node.next.back().first != tok) {
        node.next.emplace_back(tok, 0.0);
      }
      node.next.back().second += 1.0;
    }
    prev = seq;
  }
  if (trie.empty()) return;
  // Each sequence's loss counts count / mean count, so the gradient of a
  // pass is on the scale of one step per distinct sequence.
  const double weight =
      static_cast<double>(distinct) / static_cast<double>(sorted.size());

  // Gradients. They are all zero between passes: AdagradStep clears every
  // slot it consumes.
  Vec d_emb(emb_.size(), 0.0f);
  Vec d_w_gates(w_gates_.size(), 0.0f);
  Vec d_b_gates(b_gates_.size(), 0.0f);
  Vec d_w_out(w_out_.size(), 0.0f);
  Vec d_b_out(b_out_.size(), 0.0f);
  struct Tensor {
    Vec* w;
    Vec* g2;
    Vec* g;
  };
  const Tensor tensors[] = {{&emb_, &g2_emb_, &d_emb},
                            {&w_gates_, &g2_w_gates_, &d_w_gates},
                            {&b_gates_, &g2_b_gates_, &d_b_gates},
                            {&w_out_, &g2_w_out_, &d_w_out},
                            {&b_out_, &g2_b_out_, &d_b_out}};

  std::vector<StepCache> steps(trie.size());
  const Vec zeros(H, 0.0f);  // h and c before BOS
  // dh and dc of each node's output state, summed over its children.
  Vec dh_nodes(trie.size() * H), dc_nodes(trie.size() * H);
  Vec dxh(W), dgates(4 * H);  // dxh = [dx ; dh_prev]
  std::vector<double> dlogits(vocab_);

  for (int pass = 0; pass < config.epochs; ++pass) {
    for (size_t i = 0; i < trie.size(); ++i) {
      const float* h = i == 0 ? zeros.data() : steps[trie[i].parent].h.data();
      const float* c = i == 0 ? zeros.data() : steps[trie[i].parent].c.data();
      ForwardStep(trie[i].token, h, c, &steps[i]);
    }

    // Backward through the trie, children first.
    std::fill(dh_nodes.begin(), dh_nodes.end(), 0.0f);
    std::fill(dc_nodes.begin(), dc_nodes.end(), 0.0f);
    for (size_t k = trie.size(); k-- > 0;) {
      const Node& node = trie[k];
      const StepCache& sc = steps[k];
      float* dh = dh_nodes.data() + k * H;
      const float* dc = dc_nodes.data() + k * H;
      float* dh_parent = k == 0 ? nullptr : dh_nodes.data() + node.parent * H;
      float* dc_parent = k == 0 ? nullptr : dc_nodes.data() + node.parent * H;
      const float* c_prev = k == 0 ? zeros.data() : steps[node.parent].c.data();
      // Softmax-CE gradient of the node's logits: n * p - counts.
      for (size_t v = 0; v < vocab_; ++v) dlogits[v] = node.n * sc.probs[v];
      for (const auto& [tok, count] : node.next) dlogits[tok] -= count;
      for (size_t v = 0; v < vocab_; ++v) {
        const float dl = static_cast<float>(weight * dlogits[v]);
        AddOuterRow(dl, sc.h.data(), w_out_.data() + v * H,
                    d_w_out.data() + v * H, dh, H);
        d_b_out[v] += dl;
      }
      // Through h = o * tanh(c).
      for (size_t i = 0; i < H; ++i) {
        const double in = sc.gates[kIn * H + i];
        const double fg = sc.gates[kForget * H + i];
        const double ou = sc.gates[kOut * H + i];
        const double g = sc.gates[kCell * H + i];
        const double dho = dh[i];
        const double d_o = dho * sc.tanh_c[i];
        const double d_c = dc[i] + dho * ou * TanhD(sc.tanh_c[i]);
        if (dc_parent != nullptr) dc_parent[i] += static_cast<float>(d_c * fg);
        dgates[kIn * H + i] = static_cast<float>(d_c * g * in * (1 - in));
        dgates[kForget * H + i] =
            static_cast<float>(d_c * c_prev[i] * fg * (1 - fg));
        dgates[kOut * H + i] = static_cast<float>(d_o * ou * (1 - ou));
        dgates[kCell * H + i] = static_cast<float>(d_c * in * TanhD(g));
      }
      // Through the gate linear layer into x and h_prev.
      std::fill(dxh.begin(), dxh.end(), 0.0f);
      for (size_t r = 0; r < 4 * H; ++r) {
        const float dz = dgates[r];
        if (dz == 0.0f) continue;
        AddOuterRow(dz, sc.xh.data(), w_gates_.data() + r * W,
                    d_w_gates.data() + r * W, dxh.data(), W);
        d_b_gates[r] += dz;
      }
      const size_t row =
          node.token < 0 ? vocab_ : static_cast<size_t>(node.token);
      float* de = d_emb.data() + row * E;
      for (size_t i = 0; i < E; ++i) de[i] += dxh[i];
      if (dh_parent != nullptr) {
        for (size_t i = 0; i < H; ++i) dh_parent[i] += dxh[E + i];
      }
    }

    // One global-norm clip and one Adagrad step per pass; the updates
    // also zero the gradients for the next pass.
    double norm2 = 0.0;
    for (const Tensor& t : tensors) {
      for (const float g : *t.g) norm2 += static_cast<double>(g) * g;
    }
    const double norm = std::sqrt(norm2);
    const double scale = norm > config.clip ? config.clip / norm : 1.0;
    for (const Tensor& t : tensors) {
      AdagradStep(t.w->data(), t.g2->data(), t.g->data(), t.w->size(), scale,
                  config.lr);
    }
  }
}

void LstmLm::SaveState(ByteWriter* w) const {
  w->PutVarint(vocab_);
  w->PutVarint(embed_);
  w->PutVarint(hidden_);
  // A never-trained model has no rows at all.
  const bool empty = vocab_ + embed_ + hidden_ == 0;
  const size_t emb_rows = empty ? 0 : vocab_ + 1;
  PutRows(w, emb_, emb_rows, embed_);
  PutRows(w, w_gates_, 4 * hidden_, embed_ + hidden_);
  w->PutFloatVec(b_gates_);
  PutRows(w, w_out_, vocab_, hidden_);
  w->PutFloatVec(b_out_);
  PutRows(w, g2_emb_, emb_rows, embed_);
  PutRows(w, g2_w_gates_, 4 * hidden_, embed_ + hidden_);
  w->PutFloatVec(g2_b_gates_);
  PutRows(w, g2_w_out_, vocab_, hidden_);
  w->PutFloatVec(g2_b_out_);
}

Status LstmLm::LoadState(ByteReader* r) {
  // Every dimension is bounded by the bytes left: a well-formed stream
  // holds at least one float per unit of each (b_out, an embedding row,
  // b_gates), so a corrupt huge count fails here and no shape product
  // below can overflow.
  uint64_t vocab = 0, embed = 0, hidden = 0;
  HER_RETURN_NOT_OK(r->GetCount(&vocab, 4));
  HER_RETURN_NOT_OK(r->GetCount(&embed, 4));
  HER_RETURN_NOT_OK(r->GetCount(&hidden, 4));
  const size_t emb_rows = vocab + embed + hidden == 0 ? 0 : vocab + 1;
  const size_t gate_rows = 4 * hidden;
  const size_t gate_cols = embed + hidden;
  LstmLm fresh;
  fresh.vocab_ = vocab;
  fresh.embed_ = embed;
  fresh.hidden_ = hidden;
  HER_RETURN_NOT_OK(GetRows(r, emb_rows, embed, "embedding", &fresh.emb_));
  HER_RETURN_NOT_OK(
      GetRows(r, gate_rows, gate_cols, "gate weights", &fresh.w_gates_));
  HER_RETURN_NOT_OK(r->GetFloatVec(&fresh.b_gates_));
  HER_RETURN_NOT_OK(GetRows(r, vocab, hidden, "projection", &fresh.w_out_));
  HER_RETURN_NOT_OK(r->GetFloatVec(&fresh.b_out_));
  HER_RETURN_NOT_OK(
      GetRows(r, emb_rows, embed, "embedding accumulators", &fresh.g2_emb_));
  HER_RETURN_NOT_OK(GetRows(r, gate_rows, gate_cols, "gate accumulators",
                            &fresh.g2_w_gates_));
  HER_RETURN_NOT_OK(r->GetFloatVec(&fresh.g2_b_gates_));
  HER_RETURN_NOT_OK(
      GetRows(r, vocab, hidden, "projection accumulators", &fresh.g2_w_out_));
  HER_RETURN_NOT_OK(r->GetFloatVec(&fresh.g2_b_out_));
  if (fresh.b_gates_.size() != gate_rows || fresh.b_out_.size() != vocab ||
      fresh.g2_b_gates_.size() != gate_rows ||
      fresh.g2_b_out_.size() != vocab) {
    return Status::IOError("lstm: bias shapes do not match dimensions");
  }
  *this = std::move(fresh);
  return Status::OK();
}

}  // namespace her
