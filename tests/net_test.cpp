// Unit tests for the net module: flooding discovery, path collection,
// announcements, BFS oracle, path forwarding, and that each of them frees
// its state once the simulator drains.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "net/flooding.hpp"

namespace {
std::int64_t g_live_blocks = 0;  // operator new blocks not yet deleted
}  // namespace

// Counting hooks for the leak tests.  Only counts; all storage still comes
// from the default heap.
void* operator new(std::size_t n) {
  ++g_live_blocks;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p) --g_live_blocks;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace refer::net {
namespace {

using sim::EnergyBucket;
using sim::NodeId;

class NetTest : public ::testing::Test {
 protected:
  NetTest() { energy.resize(64); }

  /// A chain of sensors spaced 80 m apart (range 100 m): only adjacent
  /// nodes hear each other.
  std::vector<NodeId> make_chain(int n) {
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          world.add_static_sensor({80.0 * i, 0}, 100));
    }
    return ids;
  }

  sim::Simulator sim;
  sim::World world{{{0, 0}, {2000, 2000}}, sim};
  sim::EnergyTracker energy;
  sim::Channel channel{sim, world, energy, Rng(1)};
  Flooder flooder{sim, world, channel};
};

TEST_F(NetTest, DiscoverFindsChainPath) {
  const auto ids = make_chain(4);
  std::optional<std::vector<NodeId>> found;
  bool called = false;
  flooder.discover(ids[0], ids[3], 5, EnergyBucket::kMaintenance,
                   [&](auto path) {
                     called = true;
                     found = path;
                   });
  sim.run_all();
  ASSERT_TRUE(called);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (std::vector<NodeId>{ids[0], ids[1], ids[2], ids[3]}));
}

TEST_F(NetTest, DiscoverRespectsTtl) {
  const auto ids = make_chain(5);
  std::optional<std::vector<NodeId>> found = std::vector<NodeId>{};
  flooder.discover(ids[0], ids[4], 2,  // needs 4 hops, TTL 2
                   EnergyBucket::kMaintenance,
                   [&](auto path) { found = path; });
  sim.run_all();
  EXPECT_FALSE(found.has_value());
}

TEST_F(NetTest, DiscoverTimesOutWhenPartitioned) {
  const auto a = world.add_static_sensor({0, 0}, 100);
  const auto b = world.add_static_sensor({1000, 1000}, 100);
  bool called = false;
  std::optional<std::vector<NodeId>> found = std::vector<NodeId>{};
  flooder.discover(a, b, 8, EnergyBucket::kMaintenance, [&](auto path) {
    called = true;
    found = path;
  });
  sim.run_all();
  EXPECT_TRUE(called);
  EXPECT_FALSE(found.has_value());
}

TEST_F(NetTest, DiscoveryChargesFloodEnergy) {
  make_chain(4);
  flooder.discover(0, 3, 5, EnergyBucket::kMaintenance, [](auto) {});
  sim.run_all();
  // At least: 3 forwarding broadcasts + reply unicasts.
  EXPECT_GT(energy.total(EnergyBucket::kMaintenance), 6.0);
  EXPECT_DOUBLE_EQ(energy.total(EnergyBucket::kData), 0.0);
}

TEST_F(NetTest, CollectPathsFindsMultipleRoutes) {
  // Diamond: s - {a, b} - t, two node-disjoint 2-hop paths.
  const auto s = world.add_static_sensor({0, 0}, 100);
  const auto a = world.add_static_sensor({70, 50}, 100);
  const auto b = world.add_static_sensor({70, -50}, 100);
  const auto t = world.add_static_sensor({140, 0}, 100);
  std::vector<std::vector<NodeId>> paths;
  flooder.collect_paths(s, t, 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths = p; });
  sim.run_all();
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.front(), s);
    EXPECT_EQ(p.back(), t);
    EXPECT_TRUE(p[1] == a || p[1] == b);
  }
  EXPECT_NE(paths[0][1], paths[1][1]);
}

TEST_F(NetTest, CollectPathsRespectsTtl) {
  const auto ids = make_chain(5);
  std::vector<std::vector<NodeId>> paths;
  flooder.collect_paths(ids[0], ids[4], 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths = p; });
  sim.run_all();
  EXPECT_TRUE(paths.empty());
  // TTL=2 means up to 2 intermediate forwarders: target 3 hops away IS
  // reachable.
  std::vector<std::vector<NodeId>> paths3;
  flooder.collect_paths(ids[0], ids[3], 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths3 = p; });
  sim.run_all();
  ASSERT_EQ(paths3.size(), 1u);
  EXPECT_EQ(paths3[0].size(), 4u);
}

TEST_F(NetTest, AnnounceReachesAllWithinTtlWithParents) {
  const auto ids = make_chain(6);
  std::unordered_map<NodeId, std::pair<int, NodeId>> seen;
  flooder.announce(ids[0], 3, EnergyBucket::kConstruction,
                   [&](NodeId n, int hops, NodeId parent) {
                     seen[n] = {hops, parent};
                     return true;
                   });
  sim.run_all();
  ASSERT_EQ(seen.size(), 3u);  // nodes 1..3
  EXPECT_EQ(seen[ids[1]], (std::pair{1, ids[0]}));
  EXPECT_EQ(seen[ids[2]], (std::pair{2, ids[1]}));
  EXPECT_EQ(seen[ids[3]], (std::pair{3, ids[2]}));
  EXPECT_FALSE(seen.contains(ids[4]));
}

TEST_F(NetTest, DiscoverRejectsAsymmetricLinks) {
  // An actuator's 250 m first hop must not appear in a discovered route:
  // the reply (and later data) could never travel back over it.  The
  // symmetric route goes through the 80 m chain instead.
  const auto act = world.add_actuator({0, 0}, 250);
  const auto s1 = world.add_static_sensor({80, 0}, 100);
  const auto s2 = world.add_static_sensor({160, 0}, 100);
  const auto target = world.add_static_sensor({240, 0}, 100);
  std::optional<std::vector<NodeId>> found;
  flooder.discover(act, target, 6, EnergyBucket::kMaintenance,
                   [&](auto path) { found = path; });
  sim.run_all();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (std::vector<NodeId>{act, s1, s2, target}))
      << "route must use hops every receiver can reach back";
}

TEST_F(NetTest, BroadcastRangeOverrideLimitsReceivers) {
  const auto a = world.add_actuator({0, 0}, 250);
  world.add_static_sensor({60, 0}, 100);
  world.add_static_sensor({180, 0}, 100);  // inside 250, outside 100
  int received = 0;
  channel.broadcast(a, 64, EnergyBucket::kConstruction,
                    [&](NodeId) { ++received; }, /*range_override=*/100);
  sim.run_all();
  EXPECT_EQ(received, 1) << "power control must shrink the footprint";
}

TEST_F(NetTest, BfsPathMatchesChain) {
  const auto ids = make_chain(4);
  const auto path = bfs_path(world, ids[0], ids[3]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{ids[0], ids[1], ids[2], ids[3]}));
}

TEST_F(NetTest, BfsPathHonoursExclusions) {
  const auto s = world.add_static_sensor({0, 0}, 100);
  const auto a = world.add_static_sensor({70, 50}, 100);
  const auto b = world.add_static_sensor({70, -50}, 100);
  const auto t = world.add_static_sensor({140, 0}, 100);
  std::unordered_set<NodeId> exclude{a};
  const auto path = bfs_path(world, s, t, &exclude);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{s, b, t}));
  exclude.insert(b);
  EXPECT_FALSE(bfs_path(world, s, t, &exclude).has_value());
}

TEST_F(NetTest, BfsPathNoRoute) {
  const auto a = world.add_static_sensor({0, 0}, 100);
  const auto b = world.add_static_sensor({500, 500}, 100);
  EXPECT_FALSE(bfs_path(world, a, b).has_value());
}

TEST_F(NetTest, SendAlongPathDeliversAndCharges) {
  const auto ids = make_chain(4);
  std::size_t hops = 0;
  bool ok = false;
  send_along_path(channel, {ids[0], ids[1], ids[2], ids[3]}, 1000,
                  EnergyBucket::kData, [&](std::size_t h, bool s) {
                    hops = h;
                    ok = s;
                  });
  sim.run_all();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hops, 3u);
  // 3 tx + 3 rx.
  EXPECT_DOUBLE_EQ(energy.total(EnergyBucket::kData), 3 * 2.0 + 3 * 0.75);
}

TEST_F(NetTest, SendAlongPathReportsFailingHop) {
  const auto ids = make_chain(4);
  world.set_alive(ids[2], false);
  std::size_t hops = 99;
  bool ok = true;
  send_along_path(channel, {ids[0], ids[1], ids[2], ids[3]}, 1000,
                  EnergyBucket::kData, [&](std::size_t h, bool s) {
                    hops = h;
                    ok = s;
                  });
  sim.run_all();
  EXPECT_FALSE(ok);
  EXPECT_EQ(hops, 1u);  // failed at hop ids[1] -> ids[2]
}

TEST_F(NetTest, SendAlongTrivialPathSucceedsImmediately) {
  bool ok = false;
  send_along_path(channel, {0}, 100, EnergyBucket::kData,
                  [&](std::size_t, bool s) { ok = s; });
  EXPECT_TRUE(ok);
}

// Leak regressions: a flood or path transfer owns its state only through
// its in-flight frames and deadline, so once the simulator drains, the
// completion callback (and whatever it captured) must be gone, and so
// must every heap block the operation allocated.
class NetLeakTest : public NetTest {
 protected:
  /// Runs `start(token)` twice: first without a token, so the simulator's
  /// and the world's reusable tables reach their steady size, then with
  /// one for the callback to capture.  After the test's own reference is
  /// dropped and the simulator drained, the live heap block count must be
  /// back where it was and the token must have expired.  (The token's own
  /// block stays: `watch` keeps it until the end of the scope.)
  template <typename Start>
  void expect_released(Start start) {
    start(nullptr);
    sim.run_all();
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    const std::int64_t live = g_live_blocks;
    start(std::move(token));
    sim.run_all();
    EXPECT_EQ(g_live_blocks, live) << "heap blocks outlived the operation";
    EXPECT_TRUE(watch.expired()) << "the completion callback was leaked";
  }
};

TEST_F(NetLeakTest, DiscoverReleasesItsStateWhenDrained) {
  const auto ids = make_chain(4);
  int found = 0;
  expect_released([&](std::shared_ptr<int> token) {
    flooder.discover(ids[0], ids[3], 5, EnergyBucket::kMaintenance,
                     [&found, token](auto path) { found += path.has_value(); });
  });
  EXPECT_EQ(found, 2);
}

TEST_F(NetLeakTest, TimedOutDiscoverReleasesItsStateWhenDrained) {
  const auto ids = make_chain(5);
  int timeouts = 0;
  expect_released([&](std::shared_ptr<int> token) {
    flooder.discover(ids[0], ids[4], 2, EnergyBucket::kMaintenance,
                     [&timeouts, token](auto path) {
                       timeouts += !path.has_value();
                     });
  });
  EXPECT_EQ(timeouts, 2);
}

TEST_F(NetLeakTest, CollectPathsReleasesItsStateWhenDrained) {
  const auto ids = make_chain(4);
  std::size_t arrived = 0;
  expect_released([&](std::shared_ptr<int> token) {
    flooder.collect_paths(ids[0], ids[3], 2, EnergyBucket::kConstruction,
                          [&arrived, token](auto p) { arrived += p.size(); });
  });
  EXPECT_EQ(arrived, 2u);
}

TEST_F(NetLeakTest, AnnounceReleasesItsStateWhenDrained) {
  const auto ids = make_chain(6);
  int accepted = 0;
  expect_released([&](std::shared_ptr<int> token) {
    flooder.announce(ids[0], 3, EnergyBucket::kConstruction,
                     [&accepted, token](NodeId, int, NodeId) {
                       ++accepted;
                       return true;
                     });
  });
  EXPECT_EQ(accepted, 6);
}

TEST_F(NetLeakTest, SendAlongPathReleasesItsStateWhenDrained) {
  const auto ids = make_chain(4);
  int delivered = 0;
  expect_released([&](std::shared_ptr<int> token) {
    send_along_path(channel, {ids[0], ids[1], ids[2], ids[3]}, 1000,
                    EnergyBucket::kData,
                    [&delivered, token](std::size_t, bool ok) {
                      delivered += ok;
                    });
  });
  EXPECT_EQ(delivered, 2);
}

}  // namespace
}  // namespace refer::net
