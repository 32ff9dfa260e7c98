// SessionStore structural tests: free-list reuse, canonical group order
// under churn (the erase-on-zero count-map regression), cursor/restore of a
// store with holes, an A/B sweep against a map-based reference model of
// the container this store replaced, and the explicit-delta API the shard
// coordinator's session book uses (slot_of/remove, +inf ends, re-adds).
#include "sim/session_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

namespace vdx::sim {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

core::CityId city(std::uint32_t c) { return core::CityId{c}; }

/// Ids for_each_live visits, in visiting order.
std::vector<std::uint32_t> live_ids(const SessionStore& store) {
  std::vector<std::uint32_t> ids;
  store.for_each_live([&](std::uint32_t id, std::uint32_t) { ids.push_back(id); });
  return ids;
}

/// The container SessionStore replaced: a session map plus a
/// (city, kbps, isp) count tree, grouped by in-order tree traversal.
struct ReferenceModel {
  struct Rec {
    std::uint32_t city;
    double bitrate_mbps;
    double end_s;
  };
  std::map<std::uint32_t, Rec> sessions;

  bool admit(std::uint32_t id, std::uint32_t c, double bitrate, double end_s,
             double now) {
    if (end_s <= now) return false;
    sessions.emplace(id, Rec{c, bitrate, end_s});
    return true;
  }

  std::size_t drop_until(double t) {
    std::size_t dropped = 0;
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->second.end_s <= t) {
        it = sessions.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::size_t shed_lowest(std::size_t n) {
    n = std::min(n, sessions.size());
    for (std::size_t i = 0; i < n; ++i) {
      auto victim = sessions.begin();
      for (auto it = sessions.begin(); it != sessions.end(); ++it) {
        if (it->second.bitrate_mbps < victim->second.bitrate_mbps) victim = it;
        // ties fall to the lowest id, which the id-ordered scan already gives
      }
      sessions.erase(victim);
    }
    return n;
  }

  [[nodiscard]] std::vector<broker::ClientGroup> groups() const {
    std::map<std::tuple<std::uint32_t, std::int64_t>, std::uint32_t> counts;
    for (const auto& [id, rec] : sessions) {
      const auto kbps =
          static_cast<std::int64_t>(std::llround(rec.bitrate_mbps * 1000.0));
      ++counts[{rec.city, kbps}];
    }
    std::vector<broker::ClientGroup> out;
    for (const auto& [key, count] : counts) {
      broker::ClientGroup g;
      g.id = broker::ShareId{static_cast<std::uint32_t>(out.size())};
      g.city = core::CityId{std::get<0>(key)};
      g.isp = 0;
      g.bitrate_mbps = static_cast<double>(std::get<1>(key)) / 1000.0;
      g.client_count = static_cast<double>(count);
      out.push_back(g);
    }
    return out;
  }

  [[nodiscard]] std::vector<state::ActiveSession> cursor_active() const {
    std::vector<state::ActiveSession> out;
    for (const auto& [id, rec] : sessions) {
      out.push_back(state::ActiveSession{id, rec.city, rec.bitrate_mbps, rec.end_s});
    }
    return out;
  }
};

void expect_groups_equal(std::span<const broker::ClientGroup> got,
                         const std::vector<broker::ClientGroup>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id.value(), want[i].id.value()) << "group " << i;
    EXPECT_EQ(got[i].city.value(), want[i].city.value()) << "group " << i;
    EXPECT_EQ(got[i].isp, want[i].isp) << "group " << i;
    EXPECT_EQ(got[i].bitrate_mbps, want[i].bitrate_mbps) << "group " << i;
    EXPECT_EQ(got[i].client_count, want[i].client_count) << "group " << i;
  }
}

TEST(SessionStore, FreeListReusesSlotsAfterMassDeparture) {
  SessionStore store;
  for (std::uint32_t id = 0; id < 1000; ++id) {
    // Ids 0..899 end by t=900; the last hundred live to t=2000.
    const double end = id < 900 ? 1.0 + id : 2000.0;
    ASSERT_TRUE(store.admit(id, city(id % 7), 1.0 + (id % 3), end, 0.0));
  }
  EXPECT_EQ(store.slot_capacity(), 1000u);
  EXPECT_EQ(store.free_count(), 0u);

  EXPECT_EQ(store.drop_until(900.0), 900u);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.free_count(), 900u);
  EXPECT_EQ(store.slot_capacity(), 1000u);  // slots retained, not reallocated

  // A second wave the same size as the departure fits entirely in the holes.
  for (std::uint32_t id = 1000; id < 1900; ++id) {
    ASSERT_TRUE(store.admit(id, city(id % 7), 2.0, 3000.0, 900.0));
  }
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.free_count(), 0u);
  EXPECT_EQ(store.slot_capacity(), 1000u);

  // The recycled population still serializes in id order.
  const state::StreamCursor cursor = store.cursor();
  ASSERT_EQ(cursor.active.size(), 1000u);
  for (std::size_t i = 1; i < cursor.active.size(); ++i) {
    EXPECT_LT(cursor.active[i - 1].id, cursor.active[i].id);
  }
}

TEST(SessionStore, GroupOrderIsCanonicalRegardlessOfChurnHistory) {
  // Two populations with identical live sets but wildly different
  // insertion/erasure histories. The old count map erased keys on zero and
  // reinserted them, so iteration order was history-free only because
  // std::map sorts; a hash map (or any order-carrying bug) diverges here.
  SessionStore direct;
  for (std::uint32_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(direct.admit(id, city(id % 5), 1.0 + (id % 4), 100.0, 0.0));
  }

  SessionStore churned;
  // Same 60 sessions, but interleaved with 300 transients that drain cells
  // to zero and repopulate them between every survivor.
  std::uint32_t transient = 1000;
  for (std::uint32_t id = 0; id < 60; ++id) {
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(
          churned.admit(transient++, city((id + k) % 5), 1.0 + (k % 4), 50.0, 0.0));
    }
    ASSERT_TRUE(churned.admit(id, city(id % 5), 1.0 + (id % 4), 100.0, 0.0));
    churned.drop_until(50.0);  // all transients out; cells hit zero repeatedly
  }
  ASSERT_EQ(churned.size(), 60u);

  const auto a = direct.groups();
  const auto b = churned.groups();
  expect_groups_equal(b, std::vector<broker::ClientGroup>(a.begin(), a.end()));
}

TEST(SessionStore, CursorRestoreRoundTripsAStoreWithHoles) {
  SessionStore store;
  for (std::uint32_t id = 0; id < 500; ++id) {
    const double end = (id % 2 == 0) ? 10.0 : 100.0 + id;
    ASSERT_TRUE(store.admit(id, city(id % 11), 0.5 + (id % 6), end, 0.0));
  }
  store.drop_until(10.0);   // every even id leaves a hole
  store.shed_lowest(25);    // and a few more holes out of victim order
  ASSERT_EQ(store.size(), 225u);
  ASSERT_GT(store.free_count(), 0u);

  const state::StreamCursor snapshot = store.cursor();
  SessionStore resumed;
  resumed.restore(snapshot.active);

  EXPECT_EQ(resumed.size(), store.size());
  EXPECT_EQ(resumed.cursor().active, snapshot.active);
  {
    const auto want = store.groups();
    expect_groups_equal(resumed.groups(),
                        std::vector<broker::ClientGroup>(want.begin(), want.end()));
  }

  // Derived state (the departure heap) was rebuilt, so both stores must now
  // evolve identically through further departures and admissions.
  for (double t : {150.0, 300.0, 480.0}) {
    EXPECT_EQ(store.drop_until(t), resumed.drop_until(t));
    const std::uint32_t id = 10'000 + static_cast<std::uint32_t>(t);
    EXPECT_EQ(store.admit(id, city(3), 2.0, 600.0, t),
              resumed.admit(id, city(3), 2.0, 600.0, t));
    EXPECT_EQ(store.cursor().active, resumed.cursor().active);
  }
}

TEST(SessionStore, RestoreKeepsFirstOfDuplicateIdsAndSortsInput) {
  std::vector<state::ActiveSession> active = {
      {7, 2, 3.0, 90.0},
      {3, 1, 1.0, 50.0},
      {7, 4, 9.0, 99.0},  // duplicate id: the first occurrence wins
      {1, 0, 2.0, 70.0},
  };
  SessionStore store;
  store.restore(active);
  ASSERT_EQ(store.size(), 3u);
  const auto out = store.cursor().active;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (state::ActiveSession{1, 0, 2.0, 70.0}));
  EXPECT_EQ(out[1], (state::ActiveSession{3, 1, 1.0, 50.0}));
  EXPECT_EQ(out[2], (state::ActiveSession{7, 2, 3.0, 90.0}));
}

TEST(SessionStore, AdmitSkipsSessionsThatAlreadyEnded) {
  SessionStore store;
  EXPECT_FALSE(store.admit(0, city(0), 1.0, 5.0, 5.0));   // end_s == now
  EXPECT_FALSE(store.admit(1, city(0), 1.0, 4.0, 5.0));   // ended earlier
  EXPECT_TRUE(store.admit(2, city(0), 1.0, 6.0, 5.0));
  EXPECT_EQ(store.size(), 1u);
}

TEST(SessionStore, AssignmentLaneTracksTheLatestEpochOnly) {
  SessionStore store;
  for (std::uint32_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(store.admit(id, city(0), 1.0, 100.0, 0.0));
  }
  std::vector<std::pair<std::uint32_t, cdn::ClusterId>> first = {
      {0, cdn::ClusterId{5}}, {2, cdn::ClusterId{6}}};
  store.apply_assignment(first);
  std::vector<std::pair<std::uint32_t, cdn::ClusterId>> second = {
      {2, cdn::ClusterId{7}}, {3, cdn::ClusterId{8}}};
  store.apply_assignment(second);

  std::vector<std::uint32_t> assigned;
  store.for_each_live([&](std::uint32_t, std::uint32_t slot) {
    assigned.push_back(store.assigned_cluster_of_slot(slot));
  });
  // Id 0's epoch-1 assignment no longer counts; only epoch 2 survives.
  const std::vector<std::uint32_t> want = {SessionStore::kNoCluster,
                                           SessionStore::kNoCluster, 7, 8};
  EXPECT_EQ(assigned, want);
}

TEST(SessionStore, MatchesMapReferenceModelThroughRandomizedChurn) {
  // Deterministic LCG so the drill is reproducible; ~40 epochs of mixed
  // arrivals, departures, and shedding, checking every observable surface
  // against the map-based model after each step.
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  const auto next = [&lcg](std::uint32_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((lcg >> 33) % bound);
  };

  SessionStore store;
  ReferenceModel reference;
  std::uint32_t next_id = 0;
  double now = 0.0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const std::uint32_t arrivals = 20 + next(60);
    for (std::uint32_t i = 0; i < arrivals; ++i) {
      const std::uint32_t id = next_id++;
      const std::uint32_t c = next(9);
      const double bitrate = 0.5 * (1 + next(8));
      const double end = now + static_cast<double>(next(120));  // may be <= now
      EXPECT_EQ(store.admit(id, city(c), bitrate, end, now),
                reference.admit(id, c, bitrate, end, now));
    }
    now += 30.0;
    EXPECT_EQ(store.drop_until(now), reference.drop_until(now));
    if (epoch % 5 == 4) {
      const std::size_t shed = next(10);
      EXPECT_EQ(store.shed_lowest(shed), reference.shed_lowest(shed));
    }

    ASSERT_EQ(store.size(), reference.sessions.size()) << "epoch " << epoch;
    expect_groups_equal(store.groups(), reference.groups());
    EXPECT_EQ(store.cursor().active, reference.cursor_active()) << "epoch " << epoch;
  }
  // The drill must actually have exercised the free list.
  EXPECT_GT(store.free_count() + store.size(), 0u);
  EXPECT_LT(store.slot_capacity(), static_cast<std::size_t>(next_id));
}

TEST(SessionStore, RemoveThenReAddListsTheIdExactlyOnce) {
  SessionStore store;
  for (std::uint32_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(store.admit(id, city(id % 3), 1.0, kForever, 0.0));
  }
  EXPECT_FALSE(store.remove(42));  // unknown id: no-op
  EXPECT_FALSE(store.slot_of(42).has_value());

  // Same id back into its own (reused) slot: the old order entry must not
  // come back to life next to the new one.
  const std::uint32_t slot5 = *store.slot_of(5);
  ASSERT_TRUE(store.remove(5));
  EXPECT_FALSE(store.slot_of(5).has_value());
  EXPECT_FALSE(store.remove(5));
  ASSERT_TRUE(store.admit(5, city(2), 2.5, kForever, 0.0));
  EXPECT_EQ(store.slot_of(5), slot5);

  // Same id into a different slot, after a newer id took its old one.
  ASSERT_TRUE(store.remove(3));
  ASSERT_TRUE(store.admit(20, city(0), 1.0, kForever, 0.0));
  ASSERT_TRUE(store.remove(7));
  ASSERT_TRUE(store.admit(3, city(1), 4.0, kForever, 0.0));

  const std::vector<std::uint32_t> want = {0, 1, 2, 3, 4, 5, 6, 8, 9, 20};
  EXPECT_EQ(live_ids(store), want);
  const auto active = store.cursor().active;
  ASSERT_EQ(active.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(active[i].id, want[i]);
  EXPECT_EQ(active[3], (state::ActiveSession{3, 1, 4.0, kForever}));
  EXPECT_EQ(active[5], (state::ActiveSession{5, 2, 2.5, kForever}));
  EXPECT_EQ(store.size(), want.size());
}

TEST(SessionStore, ExplicitChurnWithInfiniteEndsNeverGrowsTheDepartureHeap) {
  SessionStore store;
  std::uint32_t head = 0;
  std::uint32_t tail = 0;
  for (; tail < 500; ++tail) {
    ASSERT_TRUE(store.admit(tail, city(tail % 9), 1.2, kForever, 0.0));
  }
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 50; ++k) {
      ASSERT_TRUE(store.admit(tail, city(tail % 9), 3.6, kForever, 0.0));
      ++tail;
      ASSERT_TRUE(store.remove(head++));
    }
    // Every tenth round one removed id comes back (out-of-order re-add).
    if (round % 10 == 9) {
      ASSERT_TRUE(store.admit(head - 7, city(1), 1.2, kForever, 0.0));
      ASSERT_TRUE(store.remove(head - 7));
    }
    EXPECT_EQ(store.drop_until(1e300), 0u);
  }
  EXPECT_EQ(store.departure_backlog(), 0u);
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(store.slot_capacity(), 501u);  // the free list absorbed the churn
  EXPECT_EQ(live_ids(store).front(), head);
}

TEST(SessionStore, CursorRestoreRoundTripsAfterRemoves) {
  SessionStore store;
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(store.admit(id, city(id % 13), 0.8 + (id % 3), kForever, 0.0));
  }
  for (std::uint32_t id = 0; id < 300; id += 4) ASSERT_TRUE(store.remove(id));
  ASSERT_TRUE(store.admit(8, city(5), 6.4, kForever, 0.0));  // a re-add

  const state::StreamCursor snapshot = store.cursor();
  SessionStore resumed;
  resumed.restore(snapshot.active);
  EXPECT_EQ(resumed.cursor().active, snapshot.active);
  EXPECT_EQ(resumed.departure_backlog(), 0u);
  {
    const auto want = store.groups();
    expect_groups_equal(resumed.groups(),
                        std::vector<broker::ClientGroup>(want.begin(), want.end()));
  }
  // Both must keep evolving identically through further removes/re-adds.
  for (const std::uint32_t id : {8u, 9u, 12u, 299u}) {
    EXPECT_EQ(store.remove(id), resumed.remove(id));
  }
  EXPECT_EQ(store.admit(12, city(0), 1.0, kForever, 0.0),
            resumed.admit(12, city(0), 1.0, kForever, 0.0));
  EXPECT_EQ(store.cursor().active, resumed.cursor().active);
}

TEST(SessionStore, GroupsEqualGroupSessionsOverTheLiveSet) {
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  const auto next = [&lcg](std::uint32_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((lcg >> 33) % bound);
  };
  SessionStore store;
  std::map<std::uint32_t, std::pair<std::uint32_t, double>> live;
  for (int step = 0; step < 3000; ++step) {
    const std::uint32_t id = next(400);
    if (live.contains(id)) {
      ASSERT_TRUE(store.remove(id));
      live.erase(id);
    } else {
      const std::uint32_t c = next(11);
      const double bitrate = 0.4 * (1 + next(6));
      ASSERT_TRUE(store.admit(id, city(c), bitrate, kForever, 0.0));
      live.emplace(id, std::pair{c, bitrate});
    }
    if (step % 500 != 499) continue;
    std::vector<trace::Session> sessions;
    for (const auto& [sid, data] : live) {
      trace::Session s;
      s.id = trace::SessionId{sid};
      s.city = city(data.first);
      s.bitrate_mbps = data.second;
      sessions.push_back(s);
    }
    ASSERT_EQ(store.size(), live.size());
    expect_groups_equal(store.groups(), broker::group_sessions(sessions));
  }
  EXPECT_EQ(store.departure_backlog(), 0u);
}

}  // namespace
}  // namespace vdx::sim
