#include "core/drivers.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace her {

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return all;
}

namespace {

/// Bulk candidate scans touch each (u, v) pair once by construction, so
/// routing them through the memo decorator would only thrash its shards
/// (and the shard locks serialize the ParallelFor fan-out); score them
/// against the raw kernel instead. Scalar probes and the small repeated
/// per-descendant batches inside EvalOnce keep the coherent memo.
const VertexScorer* BulkScorer(const VertexScorer* hv) {
  const auto* caching = dynamic_cast<const CachingVertexScorer*>(hv);
  return caching != nullptr ? caching->inner() : hv;
}

/// Filters candidate vertices by h_v(u_t, .) >= sigma, one batch call.
std::vector<VertexId> FilterBySigma(MatchEngine& engine, VertexId u_t,
                                    std::span<const VertexId> candidates) {
  const MatchContext& ctx = engine.context();
  std::vector<double> scores(candidates.size());
  BulkScorer(ctx.hv)->ScoreBatch(u_t, candidates, scores);
  std::vector<VertexId> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= ctx.params.sigma) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace

std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t) {
  const MatchContext& ctx = engine.context();
  const auto all = ctx.all_vertices.Get(*ctx.g);
  return engine.MatchCandidates(u_t, FilterBySigma(engine, u_t, all));
}

std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t,
                                 const InvertedIndex& index) {
  const auto blocked = index.Lookup(engine.context().gd->label(u_t));
  return engine.MatchCandidates(u_t, FilterBySigma(engine, u_t, blocked));
}

std::vector<MatchPair> GenerateCandidates(
    const MatchContext& ctx, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* index, size_t num_threads) {
  // Fig. 8 lines 1-3: candidate set C across G_D and G. One ScoreBatch
  // per tuple vertex over its pool; tuple vertices fan out across the
  // ParallelFor workers into per-vertex buffers.
  struct Cand {
    VertexId u, v;
    size_t degree;  // of v, for the increasing-degree order (line 4)
  };
  const std::span<const VertexId> all = index == nullptr
                                            ? ctx.all_vertices.Get(*ctx.g)
                                            : std::span<const VertexId>{};
  std::vector<std::vector<Cand>> per_tuple(tuple_vertices.size());
  const VertexScorer* hv = BulkScorer(ctx.hv);

  ParallelFor(tuple_vertices.size(), num_threads, [&](size_t i) {
    const VertexId u = tuple_vertices[i];
    std::vector<VertexId> blocked;
    if (index != nullptr) blocked = index->Lookup(ctx.gd->label(u));
    const std::span<const VertexId> pool =
        index == nullptr ? all : std::span<const VertexId>(blocked);
    std::vector<double> scores(pool.size());
    hv->ScoreBatch(u, pool, scores);
    auto& out = per_tuple[i];
    for (size_t j = 0; j < pool.size(); ++j) {
      if (scores[j] >= ctx.params.sigma) {
        out.push_back(Cand{u, pool[j], ctx.g->Degree(pool[j])});
      }
    }
  });
  // Merge (Fig. 8 line 4): increasing degree, ties broken by (u, v).
  // Each per-tuple buffer holds one u and is already v-sorted, so a
  // stable counting scatter by degree -- visiting buffers in u-ascending
  // order -- yields exactly the (degree, u, v) sequence a comparison
  // sort would, in O(N + max_degree) instead of O(N log N). Buffers are
  // indexed by tuple position, never completion order, so the output is
  // byte-identical for every num_threads.
  std::vector<size_t> order(per_tuple.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tuple_vertices[a] != tuple_vertices[b]) {
      return tuple_vertices[a] < tuple_vertices[b];
    }
    return a < b;
  });
  // The scatter runs in parallel: `order` splits into contiguous chunks,
  // each chunk histograms its buffers' degrees, a serial pass turns the
  // histograms into absolute write cursors (exclusive prefix in (degree,
  // chunk) order), and each chunk then scatters independently. Chunk t's
  // degree-d elements land exactly where the serial order-sequence
  // scatter would put them, so the output stays byte-identical for every
  // num_threads.
  const size_t nbuckets = ctx.g->MaxDegree() + 1;
  const size_t chunks =
      std::max<size_t>(1, std::min(num_threads, per_tuple.size()));
  const auto chunk_begin = [&](size_t t) { return t * order.size() / chunks; };
  std::vector<std::vector<size_t>> cursor(chunks,
                                          std::vector<size_t>(nbuckets, 0));
  ParallelFor(chunks, num_threads, [&](size_t t) {
    auto& hist = cursor[t];
    for (size_t k = chunk_begin(t); k < chunk_begin(t + 1); ++k) {
      for (const Cand& c : per_tuple[order[k]]) ++hist[c.degree];
    }
  });
  size_t total = 0;
  for (size_t d = 0; d < nbuckets; ++d) {
    for (size_t t = 0; t < chunks; ++t) {
      const size_t count = cursor[t][d];
      cursor[t][d] = total;
      total += count;
    }
  }
  std::vector<MatchPair> out(total);
  ParallelFor(chunks, num_threads, [&](size_t t) {
    auto& cur = cursor[t];
    for (size_t k = chunk_begin(t); k < chunk_begin(t + 1); ++k) {
      for (const Cand& c : per_tuple[order[k]]) {
        out[cur[c.degree]++] = MatchPair(c.u, c.v);
      }
    }
  });
  return out;
}

namespace {

std::vector<MatchPair> AllParaMatchImpl(
    MatchEngine& engine, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* index, const RunOptions* options = nullptr) {
  if (options != nullptr) engine.SetRunOptions(*options);
  WallTimer gen_timer;
  const std::vector<MatchPair> candidates =
      GenerateCandidates(engine.context(), tuple_vertices, index);
  engine.RecordCandidateGen(gen_timer.Seconds());
  // Line 5 of Fig. 8: verify each candidate as in VParaMatch (cache-aware).
  // After a stop every Match call is a cheap refusal that records the pair
  // as unresolved, so the loop still terminates promptly.
  std::vector<MatchPair> result;
  for (const MatchPair& c : candidates) {
    if (engine.Match(c.first, c.second)) result.push_back(c);
  }
  if (engine.Stopped()) {
    // Degraded run: call-time verdicts are unreliable (a pair proved early
    // may rest on a witness later abandoned). Rebuild Pi from the
    // support-closure resolver and account every non-proved candidate as
    // unresolved or disproved explicitly.
    result.clear();
    const std::vector<PairOutcome> outcomes =
        engine.ResolveOutcomes(candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (outcomes[i] == PairOutcome::kProved) {
        result.push_back(candidates[i]);
      } else if (outcomes[i] == PairOutcome::kUnresolved) {
        engine.NoteUnresolved(candidates[i]);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices) {
  return AllParaMatchImpl(engine, tuple_vertices, nullptr);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index) {
  return AllParaMatchImpl(engine, tuple_vertices, &index);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const RunOptions& options) {
  return AllParaMatchImpl(engine, tuple_vertices, nullptr, &options);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index,
                                    const RunOptions& options) {
  return AllParaMatchImpl(engine, tuple_vertices, &index, &options);
}

}  // namespace her
