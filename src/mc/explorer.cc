#include "mc/explorer.h"

#include "mc/bfs.h"

namespace fbsim {
namespace mc {

ExploreResult
explore(const ExploreConfig &cfg)
{
    return detail::bfsExplore<ExploreResult>(
        cfg.model, cfg.maxNodes, initialState, stepModel,
        checkInvariants, canonicalKey, legalEvents);
}

} // namespace mc
} // namespace fbsim
