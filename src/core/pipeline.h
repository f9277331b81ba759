// Copyright 2026 The gkmeans Authors.
// The end-to-end GK-means pipeline (§4, summary paragraph): first Alg. 3
// builds an approximate KNN graph by repeatedly calling the fast k-means on
// itself; then Alg. 2 runs the graph-supported clustering to the requested
// k. This is the "GK-means" line in every figure and table of §5, and the
// one-call public entry point for library users.

#ifndef GKM_CORE_PIPELINE_H_
#define GKM_CORE_PIPELINE_H_

#include "core/gk_means.h"
#include "core/graph_builder.h"
#include "kmeans/types.h"

namespace gkm {

/// Options for the full pipeline.
struct PipelineParams {
  std::size_t k = 8;           ///< final number of clusters
  GkMeansParams clustering;    ///< Alg. 2 options (k is overridden)
  /// Alg. 3 options; `graph.threads` also sizes the pool that builds the
  /// final clustering's tree behind the round trees and then computes the
  /// final clustering's Δ-I decisions.
  GraphBuildParams graph;
};

/// Result of the full pipeline: the clustering plus the graph that powered
/// it (callers often reuse the graph, e.g. for ANN search — §4.3).
struct PipelineResult {
  ClusteringResult clustering;
  KnnGraph graph;
  double graph_seconds = 0.0;  ///< Alg. 3 wall-clock (part of init cost)
};

/// Runs graph construction followed by graph-supported clustering.
PipelineResult GkMeansCluster(const Matrix& data, const PipelineParams& params);

}  // namespace gkm

#endif  // GKM_CORE_PIPELINE_H_
