#pragma once

/// \file spectral_oracle.hpp
/// Reference oracle for the lazy walk's power iteration.
///
/// This is the dense formulation the library shipped before the planned
/// iteration: every step rebuilds x = D^{1/2} y, pushes it through
/// spectral::lazy_step (senders in ascending order, each adding its lazy
/// half and then one share per adjacency slot), and scales back, with
/// fresh vectors every iteration.  spectral_diff_test holds
/// spectral::lazy_power_iteration to it bit for bit at every team width.

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/lazy_walk.hpp"
#include "spectral/mixing.hpp"
#include "util/check.hpp"

namespace xd::oracle {

/// The power iteration, as one dense lazy step per iteration.
inline spectral::LazySpectrum lazy_power_iteration_dense(const Graph& g,
                                                          int iterations = 400) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 2);
  const double vol = static_cast<double>(g.volume());
  XD_CHECK(vol > 0);

  std::vector<double> top(n);
  for (VertexId v = 0; v < n; ++v) top[v] = std::sqrt(g.degree(v) / vol);

  std::vector<double> y(n);
  for (VertexId v = 0; v < n; ++v) {
    y[v] = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
  }

  auto deflate = [&](std::vector<double>& vec) {
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += vec[i] * top[i];
    for (std::size_t i = 0; i < n; ++i) vec[i] -= dot * top[i];
  };
  auto norm = [&](const std::vector<double>& vec) {
    double s = 0;
    for (double x : vec) s += x * x;
    return std::sqrt(s);
  };
  // N y: x = D^{1/2} y, x' = M x, y' = D^{-1/2} x'.
  auto apply = [&](const std::vector<double>& vec) {
    std::vector<double> x(n);
    for (VertexId v = 0; v < n; ++v) {
      x[v] = vec[v] * std::sqrt(static_cast<double>(g.degree(v)));
    }
    x = spectral::lazy_step(g, x);
    for (VertexId v = 0; v < n; ++v) {
      const double d = g.degree(v);
      x[v] = d > 0 ? x[v] / std::sqrt(d) : 0.0;
    }
    return x;
  };

  spectral::LazySpectrum out;
  deflate(y);
  for (int it = 0; it < iterations; ++it) {
    const double len = norm(y);
    if (len < 1e-300) {
      out.mixes_in_one_step = true;
      break;
    }
    for (double& x : y) x /= len;
    std::vector<double> next = apply(y);
    deflate(next);
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += next[i] * y[i];
    out.lambda = dot;
    y = std::move(next);
  }
  out.y = std::move(y);
  return out;
}

}  // namespace xd::oracle
