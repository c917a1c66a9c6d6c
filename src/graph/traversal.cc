#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/check.h"

namespace her {

std::vector<VertexId> ReachableFrom(const Graph& g, VertexId root,
                                    size_t max_depth) {
  std::vector<VertexId> out;
  std::vector<char> seen(g.num_vertices(), 0);
  seen[root] = 1;
  std::deque<std::pair<VertexId, size_t>> queue;
  queue.emplace_back(root, 0);
  while (!queue.empty()) {
    auto [v, d] = queue.front();
    queue.pop_front();
    if (max_depth != 0 && d >= max_depth) continue;
    for (const Edge& e : g.OutEdges(v)) {
      if (!seen[e.dst]) {
        seen[e.dst] = 1;
        out.push_back(e.dst);
        queue.emplace_back(e.dst, d + 1);
      }
    }
  }
  return out;
}

double PraScore(const std::vector<size_t>& out_degrees) {
  double r = 1.0;
  for (const size_t d : out_degrees) {
    HER_DCHECK(d > 0);
    r /= static_cast<double>(d);
  }
  return r;
}

std::vector<PraPath> MaxPraPaths(const Graph& g, VertexId root,
                                 size_t max_len) {
  // Layered relaxation: paths of length 1..max_len. Every improvement is a
  // step (vertex, predecessor step, edge label, pra); best[v] = (pra, hop,
  // step) of the best path found so far ending at v. A path rebuilds
  // through its own chain of steps, never through a predecessor's later
  // best: a longer path may win v after v's children were relaxed from
  // its older path, and those children's pra was computed from the older
  // one.
  struct Step {
    VertexId v = kInvalidVertex;
    LabelId label = kInvalidLabel;
    double pra = 0.0;
    size_t pred = 0;  // index of the predecessor's step
  };
  struct Best {
    double pra = 0.0;
    size_t hop = 0;
    size_t step = 0;
  };
  std::unordered_map<VertexId, Best> best;
  std::vector<Step> steps = {Step{root, kInvalidLabel, 1.0, 0}};

  // Frontier: the steps of the current length, in vertex order.
  std::vector<size_t> frontier = {0};
  // This layer's step per vertex. Hoisted out of the relaxation loop:
  // clear() keeps the bucket array, so after the first round the map
  // rehashes (and allocates) nothing.
  std::unordered_map<VertexId, size_t> layer_step;
  layer_step.reserve(g.OutDegree(root));

  for (size_t len = 1; len <= max_len && !frontier.empty(); ++len) {
    layer_step.clear();
    for (const size_t from : frontier) {
      const VertexId v = steps[from].v;
      const size_t deg = g.OutDegree(v);
      if (deg == 0) continue;
      const double child_pra = steps[from].pra / static_cast<double>(deg);
      for (const Edge& e : g.OutEdges(v)) {
        if (e.dst == root) continue;  // a cycle back to the root is useless
        auto it = best.find(e.dst);
        if (it != best.end() && child_pra <= it->second.pra) continue;
        // A later improvement in the same layer replaces the earlier step.
        auto [slot, fresh] = layer_step.try_emplace(e.dst, steps.size());
        if (fresh) steps.emplace_back();
        steps[slot->second] = Step{e.dst, e.label, child_pra, from};
        best[e.dst] = Best{child_pra, len, slot->second};
      }
    }
    frontier.clear();
    for (const auto& [v, step] : layer_step) frontier.push_back(step);
    // Deterministic relaxation order across runs.
    std::sort(frontier.begin(), frontier.end(), [&](size_t a, size_t b) {
      return steps[a].v < steps[b].v;
    });
  }

  std::vector<PraPath> out;
  out.reserve(best.size());
  for (const auto& [v, entry] : best) {
    PraPath p;
    p.pra = entry.pra;
    p.path.endpoint = v;
    p.path.labels.resize(entry.hop);
    size_t step = entry.step;
    for (size_t hop = entry.hop; hop > 0; --hop) {
      p.path.labels[hop - 1] = steps[step].label;
      step = steps[step].pred;
    }
    HER_DCHECK(step == 0);
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const PraPath& a, const PraPath& b) {
    if (a.pra != b.pra) return a.pra > b.pra;
    return a.path.endpoint < b.path.endpoint;
  });
  return out;
}

bool HasCycle(const Graph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> indeg(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (const Edge& e : g.OutEdges(v)) ++indeg[e.dst];
  }
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  size_t removed = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    ++removed;
    for (const Edge& e : g.OutEdges(v)) {
      if (--indeg[e.dst] == 0) queue.push_back(e.dst);
    }
  }
  return removed != n;
}

}  // namespace her
