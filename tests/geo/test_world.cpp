#include "geo/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace vdx::geo {
namespace {

WorldConfig small_config() {
  WorldConfig config;
  config.country_count = 5;
  config.city_count = 14;
  config.cost_spread = 10.0;
  config.seed = 99;
  return config;
}

TEST(WorldGenerate, RespectsCounts) {
  const World world = World::generate(small_config());
  EXPECT_EQ(world.countries().size(), 5u);
  EXPECT_EQ(world.cities().size(), 14u);
}

TEST(WorldGenerate, DeterministicForSameSeed) {
  const World a = World::generate(small_config());
  const World b = World::generate(small_config());
  for (std::size_t i = 0; i < a.countries().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.countries()[i].bandwidth_cost_factor,
                     b.countries()[i].bandwidth_cost_factor);
  }
  for (std::size_t i = 0; i < a.cities().size(); ++i) {
    EXPECT_EQ(a.cities()[i].location, b.cities()[i].location);
    EXPECT_DOUBLE_EQ(a.cities()[i].demand_weight, b.cities()[i].demand_weight);
  }
}

TEST(WorldGenerate, CostLadderDescendsFromA) {
  const World world = World::generate({});
  const auto countries = world.countries();
  EXPECT_EQ(countries.front().name, "A");
  for (std::size_t i = 1; i < countries.size(); ++i) {
    EXPECT_GE(countries[i - 1].bandwidth_cost_factor,
              countries[i].bandwidth_cost_factor);
  }
}

TEST(WorldGenerate, CostSpreadRoughlyMatchesConfig) {
  const World world = World::generate({});
  const double top = world.countries().front().bandwidth_cost_factor;
  const double bottom = world.countries().back().bandwidth_cost_factor;
  // ~30x configured; jitter allows modest deviation. (Paper Fig. 3: ~30x.)
  EXPECT_GT(top / bottom, 20.0);
  EXPECT_LT(top / bottom, 45.0);
}

TEST(WorldGenerate, DemandWeightsNormalized) {
  const World world = World::generate({});
  double city_total = 0.0;
  for (const auto& city : world.cities()) {
    EXPECT_GT(city.demand_weight, 0.0);
    city_total += city.demand_weight;
  }
  EXPECT_NEAR(city_total, 1.0, 1e-9);

  double country_total = 0.0;
  for (const auto& country : world.countries()) country_total += country.demand_share;
  EXPECT_NEAR(country_total, 1.0, 1e-9);
}

TEST(WorldGenerate, DemandIsPowerLawSkewed) {
  const World world = World::generate({});
  std::vector<double> weights;
  for (const auto& city : world.cities()) weights.push_back(city.demand_weight);
  std::sort(weights.rbegin(), weights.rend());
  const double top_share = weights[0] + weights[1] + weights[2];
  EXPECT_GT(top_share, 0.3);  // heavy head
}

TEST(WorldGenerate, EveryCountryHasAtLeastTwoCities) {
  const World world = World::generate({});
  for (const auto& country : world.countries()) {
    EXPECT_GE(world.cities_in(country.id).size(), 2u) << country.name;
  }
}

TEST(WorldGenerate, RejectsBadConfig) {
  WorldConfig config;
  config.country_count = 0;
  EXPECT_THROW(World::generate(config), std::invalid_argument);
  config = {};
  config.city_count = config.country_count;  // < 2 per country
  EXPECT_THROW(World::generate(config), std::invalid_argument);
  config = {};
  config.cost_spread = 0.5;
  EXPECT_THROW(World::generate(config), std::invalid_argument);
}

TEST(World, LookupsAndErrors) {
  const World world = World::generate(small_config());
  const auto& city = world.cities().front();
  EXPECT_EQ(world.city(city.id).name, city.name);
  EXPECT_EQ(world.country_of(city.id).id, city.country);
  EXPECT_THROW((void)world.city(CityId{999}), std::out_of_range);
  EXPECT_THROW((void)world.country(CountryId{999}), std::out_of_range);
  EXPECT_THROW((void)world.city(CityId{}), std::out_of_range);
}

TEST(World, DistanceSymmetricZeroOnSelf) {
  const World world = World::generate(small_config());
  const CityId a = world.cities()[0].id;
  const CityId b = world.cities()[5].id;
  EXPECT_DOUBLE_EQ(world.distance_km(a, b), world.distance_km(b, a));
  EXPECT_DOUBLE_EQ(world.distance_km(a, a), 0.0);
}

TEST(World, WeightedCostFactorBetweenExtremes) {
  const World world = World::generate({});
  const double avg = world.demand_weighted_cost_factor();
  EXPECT_GT(avg, world.countries().back().bandwidth_cost_factor);
  EXPECT_LT(avg, world.countries().front().bandwidth_cost_factor);
}

TEST(World, ConstructorValidatesIds) {
  std::vector<Country> countries{{CountryId{0}, "A", 1.0, 1.0, 1.0}};
  std::vector<City> cities{{CityId{1}, "A1", CountryId{0}, {0, 0}, 1.0}};
  EXPECT_THROW((World{countries, cities}), std::invalid_argument);  // gap in city ids

  cities = {{CityId{0}, "A1", CountryId{3}, {0, 0}, 1.0}};
  EXPECT_THROW((World{countries, cities}), std::invalid_argument);  // bad country ref
}

}  // namespace
}  // namespace vdx::geo
