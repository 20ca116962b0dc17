/**
 * @file
 * Exhaustive model checker tests: the compatibility theorem holds over
 * the full bounded state space of every shipped protocol, the state
 * graphs match pinned golden fingerprints, and a deliberately corrupted
 * table yields a short counterexample that reproduces on the real
 * engine.
 */

#include <gtest/gtest.h>

#include "mc/explorer.h"
#include "mc/hier_model.h"
#include "mc/replay.h"
#include "protocols/factory.h"

namespace fbsim {
namespace {

mc::ExploreResult
exploreHomogeneous(ProtocolKind kind, std::size_t caches,
                   std::size_t lines)
{
    mc::ExploreConfig cfg;
    cfg.model.tables.assign(caches, &protocolTable(kind));
    cfg.model.lines = lines;
    return mc::explore(cfg);
}

// The theorem's base case: every protocol of Tables 1-7, alone, keeps
// the invariants over its ENTIRE reachable space - every event at
// every cache under every table-alternative combination.
TEST(McExhaustive, EveryProtocolCleanTwoCaches)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::ExploreResult res = exploreHomogeneous(kind, 2, 1);
        EXPECT_TRUE(res.complete)
            << protocolKindName(kind) << " did not finish";
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
        EXPECT_GT(res.nodes, 4u);
    }
}

// Wider geometry: three caches, two lines, still exhaustive.
TEST(McExhaustive, EveryProtocolCleanThreeCachesTwoLines)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::ExploreResult res = exploreHomogeneous(kind, 3, 2);
        EXPECT_TRUE(res.complete) << protocolKindName(kind);
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
    }
}

// The compatibility claim proper: protocols that keep ownership
// transfer on the bus (MOESI, Berkeley, Dragon, Illinois, Firefly)
// can be mixed freely on one bus.
TEST(McExhaustive, MixedOwnershipProtocolsCompatible)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&moesiTable(), &berkeleyTable(),
                        &dragonTable()};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];

    cfg.model.tables = {&moesiTable(), &berkeleyTable(), &dragonTable(),
                        &illinoisTable()};
    res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Golden state-graph fingerprints (2 caches x 1 line).  These pin the
// exact reachable graph - node count, transition count and the
// order-independent hashes over states and edges - so ANY change to a
// table cell, to choice enumeration or to the transition semantics
// shows up as a diff here before it shows up anywhere subtler.
TEST(McGolden, BerkeleyFingerprint)
{
    mc::ExploreResult res =
        exploreHomogeneous(ProtocolKind::Berkeley, 2, 1);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 10u);
    EXPECT_EQ(res.edges, 58u);
    EXPECT_EQ(res.depth, 3u);
    EXPECT_EQ(res.nodeFingerprint, 0x08726ee66a899084ull);
    EXPECT_EQ(res.edgeFingerprint, 0xce0728863f72ef92ull);
}

TEST(McGolden, IllinoisFingerprint)
{
    mc::ExploreResult res =
        exploreHomogeneous(ProtocolKind::Illinois, 2, 1);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 8u);
    EXPECT_EQ(res.edges, 42u);
    EXPECT_EQ(res.depth, 3u);
    EXPECT_EQ(res.nodeFingerprint, 0x15794a61d0c7818aull);
    EXPECT_EQ(res.edgeFingerprint, 0xab2952b69e607678ull);
}

// The deep graphs: the nightly mc-deep set, every protocol at 4 caches
// x 2 lines plus the four compatible 3-cache mixes at 2 lines.  One row
// per exploration; the values were recorded before the explorer's BFS
// loop was rewritten and must never move with the loop's mechanics.
TEST(McGolden, DeepGraphs)
{
    using K = ProtocolKind;
    struct Row
    {
        std::vector<K> tables;
        std::size_t nodes, edges, depth;
        std::uint64_t nodeFp, edgeFp;
    };
    auto four = [](K k) { return std::vector<K>(4, k); };
    const Row rows[] = {
        {four(K::Moesi), 8464, 493856, 8, 0x2aeb01d6f656b882ull,
         0xc925dbd3f58aa244ull},
        {four(K::Berkeley), 2704, 59072, 8, 0x92e4bd57363cd4d4ull,
         0x09bd2be3c48ad3a1ull},
        {four(K::Dragon), 8464, 186208, 8, 0x2aeb01d6f656b882ull,
         0x2b28c071125b303eull},
        {four(K::WriteOnce), 576, 14592, 8, 0xbd713e735366a0a5ull,
         0xe3f19b2adab56d1aull},
        {four(K::Illinois), 576, 11328, 8, 0xbd713e735366a0a5ull,
         0xa7795283deb2d106ull},
        {four(K::Firefly), 576, 11328, 8, 0xbd713e735366a0a5ull,
         0x8ef4e8ae52b019c6ull},
        {{K::Moesi, K::Berkeley, K::Dragon}, 1225, 29680, 6,
         0xc249ffb5f042da3full, 0x08525c1620880fcfull},
        {{K::Moesi, K::Illinois, K::Firefly}, 529, 12558, 6,
         0xc9af7fce22abb05aull, 0xa51d1b93052d6016ull},
        {{K::Berkeley, K::Dragon, K::Illinois}, 676, 12740, 6,
         0x100b97115f89911eull, 0x4f3c45a3555eefcbull},
        {{K::Illinois, K::Firefly, K::Moesi}, 529, 12558, 6,
         0x275a90a38dfcd2f1ull, 0x92eb1e5a7513fe86ull},
    };
    for (const Row &row : rows) {
        mc::ExploreConfig cfg;
        std::string name;
        for (K kind : row.tables) {
            cfg.model.tables.push_back(&protocolTable(kind));
            name += std::string(protocolKindName(kind)) + " ";
        }
        cfg.model.lines = 2;
        mc::ExploreResult res = mc::explore(cfg);
        SCOPED_TRACE(name + "x2");
        ASSERT_TRUE(res.complete);
        EXPECT_FALSE(res.counterexample);
        EXPECT_EQ(res.nodes, row.nodes);
        EXPECT_EQ(res.edges, row.edges);
        EXPECT_EQ(res.depth, row.depth);
        EXPECT_EQ(res.nodeFingerprint, row.nodeFp);
        EXPECT_EQ(res.edgeFingerprint, row.edgeFp);
    }
}

// A deliberately corrupted Illinois table: S on a local write silently
// jumps to M without any bus transaction (the classic forgotten
// invalidate).  The checker must find it, the counterexample must be
// short, and it must REPRODUCE on the real engine: replaying the
// recorded choice script through real caches leaves the live
// CoherenceChecker reporting violations of the same invariants.
TEST(McCounterexample, CorruptedTableFoundAndReplayed)
{
    ProtocolTable bad = illinoisTable();
    LocalAction silent_jump;
    silent_jump.next = toState(State::M);
    silent_jump.usesBus = false;
    bad.setLocal(State::S, LocalEvent::Write, {silent_jump});

    mc::ExploreConfig cfg;
    cfg.model.tables = {&bad, &bad};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);

    ASSERT_TRUE(res.counterexample.has_value());
    const mc::Counterexample &cex = *res.counterexample;
    EXPECT_LE(cex.steps.size(), 20u);
    ASSERT_FALSE(cex.violations.empty());

    mc::ReplayResult rr =
        mc::replayTrace(cfg.model, cex.steps, /*expect_violation=*/true);
    EXPECT_TRUE(rr.ok) << (rr.errors.empty() ? "" : rr.errors[0]);
    EXPECT_FALSE(rr.systemViolations.empty());
}

// A genuine finding, pinned as a regression: Write-Once's write-through
// write (column 6, one word on the bus) collides with an O-state
// owner's DI response - the owner captures the word instead of memory
// and then invalidates per column 6, dropping the only current copy,
// while the Write-Once master moves to E believing memory caught it.
// Homogeneous Write-Once can never pair an S writer with a dirty
// owner, so the shipped Table 5 is self-consistent; the mix is not.
TEST(McCounterexample, WriteOnceOwnerCollisionPinned)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&moesiTable(), &writeOnceTable()};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);

    ASSERT_TRUE(res.counterexample.has_value());
    const mc::Counterexample &cex = *res.counterexample;
    EXPECT_LE(cex.steps.size(), 20u);
    bool v2 = false;
    for (const std::string &v : cex.violations)
        v2 = v2 || v.find("V2") != std::string::npos;
    EXPECT_TRUE(v2);

    // It is no model artifact: the real engine reaches the same state.
    mc::ReplayResult rr =
        mc::replayTrace(cfg.model, cex.steps, /*expect_violation=*/true);
    EXPECT_TRUE(rr.ok) << (rr.errors.empty() ? "" : rr.errors[0]);
    EXPECT_FALSE(rr.systemViolations.empty());

    // Without the O state on the other side the collision cannot
    // arise: Illinois and Firefly abort-push instead of intervening.
    cfg.model.tables = {&illinoisTable(), &writeOnceTable()};
    res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Conformance sampling: replay clean traces (BFS paths to the deepest
// states) through the engine and require byte-identical state vectors
// at every step.  The corrupted-table and differential tests cover the
// violating and random-walk cases; this covers canonical clean paths.
TEST(McReplay, CleanPathsMatchEngine)
{
    for (ProtocolKind kind :
         {ProtocolKind::Moesi, ProtocolKind::Dragon,
          ProtocolKind::WriteOnce}) {
        mc::ExploreConfig cfg;
        cfg.model.tables.assign(2, &protocolTable(kind));
        cfg.model.lines = 1;

        // Drive a fixed exercise sequence, recording choices with the
        // odometer's first combination (the paper-preferred one).
        mc::ModelState st = mc::initialState(cfg.model);
        mc::PreferredFeed feed;
        std::vector<mc::TraceStep> steps;
        const mc::ModelEvent seq[] = {
            {0, 0, LocalEvent::Read},  {1, 0, LocalEvent::Write},
            {0, 0, LocalEvent::Read},  {0, 0, LocalEvent::Write},
            {1, 0, LocalEvent::Read},  {0, 0, LocalEvent::Flush},
            {1, 0, LocalEvent::Write}, {0, 0, LocalEvent::Read},
        };
        for (const mc::ModelEvent &ev : seq) {
            // Skip events illegal in the current state (e.g. Flush
            // with nothing held - the engine treats it as a no-op that
            // draws nothing, so skipping keeps the tapes aligned).
            bool legal = false;
            for (const mc::ModelEvent &l :
                 mc::legalEvents(cfg.model, st))
                legal = legal || (l == ev);
            if (!legal)
                continue;
            mc::TraceStep step;
            step.event = ev;
            mc::StepResult r =
                mc::stepModel(cfg.model, st, ev, feed, &step.choices);
            ASSERT_TRUE(r.ok) << protocolKindName(kind);
            steps.push_back(std::move(step));
        }
        ASSERT_GE(steps.size(), 6u);

        mc::ReplayResult rr = mc::replayTrace(cfg.model, steps,
                                              /*expect_violation=*/false);
        EXPECT_TRUE(rr.ok)
            << protocolKindName(kind) << ": "
            << (rr.errors.empty() ? "" : rr.errors[0]);
    }
}

// The odometer itself: a cell of size 3 then a dependent tail must
// enumerate exactly the leaves of the choice tree, in order.
TEST(McOdometer, EnumeratesChoiceTree)
{
    mc::OdoFeed odo;
    std::vector<std::vector<std::size_t>> seen;
    do {
        odo.rewind();
        std::vector<std::size_t> run;
        run.push_back(odo.pick(0, 3));
        // The tail exists only on branch 1 (mimicking a choice that
        // opens further choices).
        if (run[0] == 1)
            run.push_back(odo.pick(0, 2));
        seen.push_back(run);
    } while (odo.advance());

    const std::vector<std::vector<std::size_t>> want = {
        {0}, {1, 0}, {1, 1}, {2}};
    EXPECT_EQ(seen, want);
}

// --- Two-level hierarchy: BusBridge semantics in the model ---

mc::HierExploreResult
exploreHier2x2(ProtocolKind kind)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &protocolTable(kind));
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    return mc::exploreHier(cfg);
}

// Every MOESI-class protocol keeps the flat invariants AND the bridge
// filter invariants (H1 inclusion, H2 remote visibility) over the full
// reachable space of a 2-leaf x 2-cache hierarchy.
TEST(McHier, MoesiClassCleanTwoClusters)
{
    for (ProtocolKind kind : {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                              ProtocolKind::Dragon}) {
        mc::HierExploreResult res = exploreHier2x2(kind);
        EXPECT_TRUE(res.complete)
            << protocolKindName(kind) << " did not finish";
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
        EXPECT_GT(res.nodes, 16u);
    }
}

// Mixed MOESI-class tables across the two leaves: the compatibility
// claim survives the bridge.
TEST(McHier, MixedClustersCompatible)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = {&moesiTable(), &berkeleyTable(),
                             &dragonTable(), &moesiTable()};
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Golden hierarchical state-graph fingerprint (2 leaves x 2 caches,
// MOESI, 1 line).  The canonical key includes every bridge's
// localHeld/remoteShared bits, so any drift in the bridge's forward,
// filter-maintenance or CH-propagation rules - in the model or,
// via the differential suite, in the engine - lands here first.
TEST(McHierGolden, MoesiTwoLeafFingerprint)
{
    mc::HierExploreResult res = exploreHier2x2(ProtocolKind::Moesi);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 117u);
    EXPECT_EQ(res.edges, 3196u);
    EXPECT_EQ(res.depth, 4u);
    EXPECT_EQ(res.nodeFingerprint, 0x2f36effa7436cfacull);
    EXPECT_EQ(res.edgeFingerprint, 0x31e6485c196cba92ull);
}

// Abort-class protocols cannot live below a bridge: BS cannot cross,
// so the explorer must surface a counterexample that says exactly
// that, rather than wandering into undefined behaviour.
TEST(McHier, AbortProtocolRejectedUnderBridge)
{
    mc::HierExploreResult res = exploreHier2x2(ProtocolKind::Illinois);
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_NE(res.counterexample->violations[0].find(
                  "asserted BS on a leaf bus"),
              std::string::npos)
        << res.counterexample->violations[0];
}

} // namespace
} // namespace fbsim
