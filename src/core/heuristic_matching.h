// Algorithm 2 (Section 6): iterated min-cost maximum matching.
//
// Round l builds the bipartite graph G_l between cloudlets that still have
// residual capacity and the remaining items; an edge (u, I_{i,k}) with cost
// c(f_i, k, u) (Eq. 3) exists when u lies in N_l^+(v_i) and fits c(f_i).
// Each round's min-cost maximum matching M_l is applied in full (capacities
// decremented, matched items retired), and rounds repeat until the budget
// rule fires or no edges remain. Never violates capacities (Theorem 6.2).
//
// Each round's graph holds only the cheapest min(remaining, m_i) items of
// each function f_i, m_i being its usable cloudlets, and yields the full
// graph's matching bit for bit. The remaining items of f_i share one edge
// set, and every free right node carries the same potential (each
// augmentation raises all of them by the path length), so a free item is
// never nearer than a lower-k free item of its function and sorts after it
// in the heap. A round thus takes f_i's items as a prefix (Lemma 4.2), at
// most m_i of them, and an item past the first m_i never ends an augmenting
// path: while a kept item is free, that item wins; once all are matched,
// every usable cloudlet of f_i is taken and the item is unreachable. The
// loop asserts the prefix property round by round.
#pragma once

#include "core/augmentation.h"

namespace mecra::core {

/// Runs on a per-thread workspace; safe from any number of threads.
[[nodiscard]] AugmentationResult augment_heuristic(
    const BmcgapInstance& instance, const AugmentOptions& options = {});

}  // namespace mecra::core
