#pragma once

// Shared test harness: hand-crafted underlays with exactly known RTTs, and
// a bundled simulator + session so protocol behaviour can be asserted
// case by case against the paper's worked examples.

#include <cmath>
#include <memory>
#include <vector>

#include "net/matrix_underlay.hpp"
#include "overlay/metric.hpp"
#include "overlay/protocol.hpp"
#include "overlay/session.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vdm::testutil {

/// Underlay where host i sits at position[i] on a line and
/// rtt(a, b) = |position[a] - position[b]| (one-way delay is half that).
/// This realizes the paper's 1-D directionality diagrams literally.
inline net::MatrixUnderlay line_underlay(const std::vector<double>& position) {
  const std::size_t n = position.size();
  std::vector<double> delay(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) delay[a * n + b] = std::abs(position[a] - position[b]) / 2.0;
    }
  }
  return net::MatrixUnderlay(n, std::move(delay));
}

/// Underlay from an explicit symmetric RTT matrix (upper triangle given as
/// rtt[a][b]); lets tests realize triples that no 1-D embedding can.
inline net::MatrixUnderlay rtt_underlay(const std::vector<std::vector<double>>& rtt) {
  const std::size_t n = rtt.size();
  std::vector<double> delay(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) delay[a * n + b] = rtt[a][b] / 2.0;
    }
  }
  return net::MatrixUnderlay(n, std::move(delay));
}

/// Simulator + session bundle with paranoid invariant checking enabled.
struct Harness {
  sim::Simulator sim;
  net::MatrixUnderlay underlay;
  overlay::DelayMetric metric;
  overlay::Protocol& protocol;
  overlay::Session session;

  Harness(net::MatrixUnderlay u, overlay::Protocol& p, int source_degree = 8,
          std::uint64_t seed = 1, double chunk_rate = 2.0)
      : underlay(std::move(u)), metric(0.0), protocol(p),
        session(sim, underlay, protocol, metric,
                make_params(source_degree, chunk_rate), util::Rng(seed)) {
    session.start();
  }

  static overlay::SessionParams make_params(int source_degree, double chunk_rate) {
    overlay::SessionParams sp;
    sp.source = 0;
    sp.source_degree_limit = source_degree;
    sp.chunk_rate = chunk_rate;
    sp.paranoid_checks = true;
    return sp;
  }

  /// Joins `h` now and returns its chosen parent.
  net::HostId join(net::HostId h, int degree_limit = 8) {
    session.join(h, degree_limit);
    return session.tree().member(h).parent;
  }

  net::HostId parent(net::HostId h) const { return session.tree().member(h).parent; }
};

/// True if `ancestor` is on `node`'s root path (node included), by a plain
/// parent-pointer walk: the reference for Membership::is_ancestor.
inline bool on_root_path(const overlay::Membership& m, net::HostId ancestor,
                         net::HostId node) {
  for (net::HostId at = node; at != net::kInvalidHost; at = m.member(at).parent) {
    if (at == ancestor) return true;
  }
  return false;
}

/// A random forest over `n` alive hosts rooted at source 0: degree limits
/// 1..4 (limit-1 members are pure leaves), about one member in six left as
/// a detached fragment root that others hang under, then a few crashed
/// interior members whose children become orphan fragments with subtrees.
inline overlay::Membership random_forest(std::size_t n, util::Rng& rng) {
  overlay::Membership m(n, /*source=*/0);
  for (net::HostId h = 0; h < n; ++h) {
    m.activate(h, static_cast<int>(rng.uniform_int(1, 4)));
  }
  const auto any_host = [&] {
    return static_cast<net::HostId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (net::HostId h = 1; h < n; ++h) {
    if (rng.chance(1.0 / 6.0)) continue;
    // A few tries per member; each candidate must have room and must not
    // sit below h (that would close a cycle).
    for (int tries = 0; tries < 4; ++tries) {
      const net::HostId p = any_host();
      if (p == h || !m.member(p).has_free_degree() || on_root_path(m, h, p)) continue;
      m.attach(h, p, 1.0);
      break;
    }
  }
  for (int i = 0; i < 4; ++i) {
    const net::HostId victim = any_host();
    if (victim != 0 && m.member(victim).alive) m.deactivate(victim);
  }
  m.validate();
  return m;
}

}  // namespace vdm::testutil
