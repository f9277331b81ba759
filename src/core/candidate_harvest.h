// Copyright 2026 The gkmeans Authors.
// The candidate-cluster harvesting step shared by batch GK-means (Alg. 2)
// and the streaming subsystem's mini-batch epochs: collect the distinct
// cluster ids of a sample's graph neighbors. Deduplication uses an
// epoch-stamped array — O(kappa) with no clearing. The Delta-I move step
// that scores the harvest lives here too, so both pipelines run one copy.

#ifndef GKM_CORE_CANDIDATE_HARVEST_H_
#define GKM_CORE_CANDIDATE_HARVEST_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "kmeans/cluster_state.h"

namespace gkm {

/// Collects the distinct cluster ids of the neighbors in `nbrs[0..kappa)`
/// into `cand`, excluding `skip` (pass an impossible label, e.g. k, to keep
/// all). `nbrs` entries of UINT32_MAX terminate the scan (short lists).
/// `stamp`/`cur_stamp` implement the allocation-free dedup; the caller
/// increments `cur_stamp` before every call.
inline void HarvestCandidates(const std::uint32_t* nbrs, std::size_t kappa,
                              const std::vector<std::uint32_t>& labels,
                              std::uint32_t skip,
                              std::vector<std::uint32_t>& stamp,
                              std::uint32_t cur_stamp,
                              std::vector<std::uint32_t>& cand) {
  cand.clear();
  for (std::size_t j = 0; j < kappa; ++j) {
    const std::uint32_t nb = nbrs[j];
    if (nb == std::numeric_limits<std::uint32_t>::max()) break;
    const std::uint32_t c = labels[nb];
    if (c == skip || stamp[c] == cur_stamp) continue;
    stamp[c] = cur_stamp;
    cand.push_back(c);
  }
}

/// A candidate cluster and its arrival gain.
struct Arrival {
  std::uint32_t cluster;
  double gain;
};

/// The candidate with the largest arrival gain for `x` (squared norm `xn`),
/// scored with one batched GainArriveBatch into `gains`. Candidates are
/// scanned in harvest order and only a strictly larger gain replaces the
/// best, so ties keep the earliest. The cluster is `none` when `cand` is
/// empty or no gain compares greater than the lowest double.
inline Arrival BestArrival(const ClusterState& state, const float* x, float xn,
                           const std::vector<std::uint32_t>& cand,
                           std::uint32_t none, std::vector<double>& gains) {
  gains.resize(cand.size());
  state.GainArriveBatch(x, xn, cand.data(), cand.size(), gains.data());
  Arrival best{none, -std::numeric_limits<double>::max()};
  for (std::size_t ci = 0; ci < cand.size(); ++ci) {
    if (gains[ci] > best.gain) best = {cand[ci], gains[ci]};
  }
  return best;
}

/// One Delta-I move step (Alg. 2): point `x` in cluster `u` moves to its
/// best harvested candidate when the total gain (arrival + leave) is
/// positive. Returns the cluster `x` ends in: the destination after a
/// move, `u` otherwise.
inline std::uint32_t DeltaIStep(ClusterState& state, const float* x, float xn,
                                std::uint32_t u,
                                const std::vector<std::uint32_t>& cand,
                                std::vector<double>& gains) {
  const Arrival best = BestArrival(state, x, xn, cand, u, gains);
  if (best.cluster == u) return u;
  if (best.gain + state.GainLeave(x, xn, u) > 0.0) {
    state.Move(x, u, best.cluster);
    return best.cluster;
  }
  return u;
}

}  // namespace gkm

#endif  // GKM_CORE_CANDIDATE_HARVEST_H_
