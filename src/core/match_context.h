#ifndef HER_CORE_MATCH_CONTEXT_H_
#define HER_CORE_MATCH_CONTEXT_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/joint_vocab.h"
#include "sim/params.h"
#include "sim/scores.h"

namespace her {

/// The identity candidate pool [0, |V(G)|), materialized at most once and
/// shared by every copy of a MatchContext (the BSP engine copies the
/// context for its candidate scan; the pool state is behind a shared_ptr
/// so every copy reuses one vector instead of re-allocating |V| ids per
/// driver call). Thread-safe via call_once. Valid as long as
/// the graph's vertex count is stable, which MatchContext guarantees
/// (UpdateGraph swaps graph versions with an identical vertex set).
class SharedVertexPool {
 public:
  SharedVertexPool() : state_(std::make_shared<State>()) {}

  std::span<const VertexId> Get(const Graph& g) const {
    State& s = *state_;
    std::call_once(s.once, [&] {
      s.ids.resize(g.num_vertices());
      for (VertexId v = 0; v < g.num_vertices(); ++v) s.ids[v] = v;
    });
    return s.ids;
  }

 private:
  struct State {
    std::once_flag once;
    std::vector<VertexId> ids;
  };
  std::shared_ptr<State> state_;
};

/// Everything parametric simulation is parameterized by: the two graphs,
/// the score functions (h_v, M_rho, h_r), the joint edge-label vocabulary,
/// and the thresholds (sigma, delta, k). All pointers are borrowed and must
/// outlive any MatchEngine built on the context. All referenced objects are
/// immutable/thread-safe, so one context can be shared by many engines
/// (the BSP workers do exactly that).
struct MatchContext {
  const Graph* gd = nullptr;  // G_D (canonical graph of the database)
  const Graph* g = nullptr;   // G
  const VertexScorer* hv = nullptr;
  const PathScorer* mrho = nullptr;
  const DescendantRanker* hr = nullptr;
  const JointVocab* vocab = nullptr;
  /// Optional offline h_r materialization (see PropertyTable in
  /// match_engine.h); engines fall back to calling hr lazily when null.
  const class PropertyTable* properties = nullptr;
  SimulationParams params;
  /// Lazily materialized identity pool for the exhaustive scans; shared
  /// across context copies (one |V| vector per system, not per call).
  SharedVertexPool all_vertices;

  /// Strategy switches for the optimizations of Section V; production
  /// keeps both on — they exist so the ablation bench can price them.
  /// MaxSco early termination (Fig. 4 lines 12-14, 25-27).
  bool enable_early_termination = true;
  /// Increasing-degree candidate order in VPair/APair (Fig. 5 line 4).
  bool enable_degree_sort = true;
};

}  // namespace her

#endif  // HER_CORE_MATCH_CONTEXT_H_
