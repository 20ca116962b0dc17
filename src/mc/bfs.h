/**
 * @file
 * The breadth-first search shared by mc::explore (flat bus) and
 * mc::exploreHier (two-level fabric).
 *
 * Both searches are one skeleton instantiated over a model's state
 * type and its five functions: initial state, transition executor,
 * invariant check, canonical key and legal-event generator.  The
 * skeleton never asks which model it serves.
 *
 * The frontier is the unexpanded suffix of nodes[]: nodes are appended
 * in discovery order, so expanding them in index order is FIFO order.
 * A transition allocates nothing unless it discovers a node - the
 * successor state, the choice feed and the trace step are scratch
 * objects reused across transitions, and a step is copied into a node
 * only when its successor is new.
 */

#ifndef FBSIM_MC_BFS_H_
#define FBSIM_MC_BFS_H_

#include <algorithm>

#include "common/flat_map.h"
#include "mc/explorer.h"

namespace fbsim {
namespace mc {
namespace detail {

/** splitmix64 finalizer: the same mixer FlatMap64 uses, good avalanche
 *  for the order-independent fingerprint sums. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline std::uint64_t
eventCode(const ModelEvent &ev)
{
    return (static_cast<std::uint64_t>(ev.cache) << 10) |
           (static_cast<std::uint64_t>(ev.line) << 8) |
           static_cast<std::uint64_t>(ev.ev);
}

/**
 * Exhaustive BFS from init(cfg), invariant-checking every successor
 * before deduplication and stopping at the first violation with a
 * minimal-depth counterexample, or after max_nodes distinct states.
 * Result is ExploreResult or HierExploreResult; its counterexample,
 * step and state types follow from it.
 */
template <class Result, class Config, class State>
Result
bfsExplore(const Config &cfg, std::size_t max_nodes,
           State (*init)(const Config &),
           StepResult (*step_fn)(const Config &, State &,
                                 const ModelEvent &, ChoiceFeed &,
                                 std::vector<ChoiceRecord> *),
           std::vector<std::string> (*invariants)(const Config &,
                                                  const State &),
           std::uint64_t (*key_fn)(const Config &, const State &),
           std::vector<ModelEvent> (*events)(const Config &,
                                             const State &))
{
    using Cex = typename decltype(Result::counterexample)::value_type;
    using Step = typename decltype(Cex::steps)::value_type;
    constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

    /** One discovered state, with enough breadcrumbs to rebuild the
     *  path that first reached it. */
    struct Node
    {
        State state;
        std::uint64_t key = 0;
        std::size_t depth = 0;
        /** Index of the BFS predecessor; kRoot for the initial state. */
        std::size_t parent = kRoot;
        /** The step that produced this node from its parent. */
        Step via;
    };

    Result res;
    std::vector<Node> nodes;
    FlatMap64<std::uint32_t> visited;   // canonical key -> node index

    const State root = init(cfg);
    nodes.push_back({root, key_fn(cfg, root), 0, kRoot, {}});
    visited[nodes[0].key] = 0;
    res.nodeFingerprint += mix64(nodes[0].key);

    // Stop with the parent chain into `from` plus the violating step.
    auto fail = [&](std::size_t from, const Step &last,
                    std::vector<std::string> violations,
                    const State &final_state) {
        Cex cex;
        for (std::size_t i = from; nodes[i].parent != kRoot;
             i = nodes[i].parent)
            cex.steps.push_back(nodes[i].via);
        std::reverse(cex.steps.begin(), cex.steps.end());
        cex.steps.push_back(last);
        cex.violations = std::move(violations);
        cex.finalState = final_state;
        res.nodes = nodes.size();
        res.counterexample = std::move(cex);
        return res;
    };

    OdoFeed odo;
    Step step;
    State succ;
    for (std::size_t cur = 0; cur < nodes.size(); ++cur) {
        // nodes[] may reallocate as successors are appended; copy the
        // expansion state out first.
        const State cur_state = nodes[cur].state;
        const std::uint64_t cur_key = nodes[cur].key;
        const std::size_t cur_depth = nodes[cur].depth;
        res.depth = std::max(res.depth, cur_depth);

        for (const ModelEvent &ev : events(cfg, cur_state)) {
            step.event = ev;
            do {
                odo.rewind();
                succ = cur_state;
                step.choices.clear();
                StepResult r = step_fn(cfg, succ, ev, odo, &step.choices);
                ++res.edges;
                if (!r.ok)
                    return fail(cur, step, std::move(r.violations), succ);
                // Invariant-check BEFORE dedup: the canonical key only
                // abstracts clean states.
                std::vector<std::string> bad = invariants(cfg, succ);
                if (!bad.empty())
                    return fail(cur, step, std::move(bad), succ);

                const std::uint64_t key = key_fn(cfg, succ);
                res.edgeFingerprint +=
                    mix64(cur_key ^ mix64(key ^ eventCode(ev)));
                if (visited.find(key))
                    continue;
                if (nodes.size() >= max_nodes) {
                    res.nodes = nodes.size();
                    return res;   // capped: complete stays false
                }
                visited[key] = static_cast<std::uint32_t>(nodes.size());
                res.nodeFingerprint += mix64(key);
                nodes.push_back({succ, key, cur_depth + 1, cur, step});
            } while (odo.advance());
        }
    }

    res.nodes = nodes.size();
    res.complete = true;
    return res;
}

} // namespace detail
} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_BFS_H_
