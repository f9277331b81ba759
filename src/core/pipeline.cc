// Copyright 2026 The gkmeans Authors.

#include "core/pipeline.h"

#include "common/macros.h"
#include "common/timer.h"

namespace gkm {

PipelineResult GkMeansCluster(const Matrix& data,
                              const PipelineParams& params) {
  GkMeansParams clustering = params.clustering;
  clustering.k = params.k;

  PipelineResult out;
  Timer timer;
  // One pool per call builds the τ round trees, then the final clustering's
  // tree, which graph construction queues right behind its own so that it
  // runs while the last rounds do.
  const std::unique_ptr<ThreadPool> pool =
      MakeTreePool(params.graph.threads, params.graph.tau + 1);
  PendingStart final_start(data, clustering);
  out.graph = BuildKnnGraph(data, params.graph, nullptr, {}, pool.get(),
                            &final_start);
  out.graph_seconds = timer.Seconds();

  // Every tree is built once the final start is taken, so the idle tree
  // pool flattens the graph for the final clustering and computes its
  // epochs' Δ-I decisions.
  out.clustering = GkMeansWithGraph(data, out.graph, clustering,
                                    final_start.Take(), pool.get());
  // Fold the graph cost into the reported init/total so pipeline timings
  // match the paper's accounting (Tab. 2 counts graph build as Init.).
  out.clustering.init_seconds += out.graph_seconds;
  out.clustering.total_seconds += out.graph_seconds;
  for (IterStat& s : out.clustering.trace) {
    s.elapsed_seconds += out.graph_seconds;
  }
  return out;
}

}  // namespace gkm
