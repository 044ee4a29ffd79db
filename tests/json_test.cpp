// Tests for the JSON document model and the RunStats JSON round-trip that
// the sweep result cache and the --json artifacts depend on.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/report.hpp"

namespace csmt {
namespace {

TEST(Json, ScalarsRoundTrip) {
  for (const char* text : {"null", "true", "false", "0", "-17", "3.5",
                           "\"hello\"", "[]", "{}"}) {
    const auto v = json::Value::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(v->dump(), text);
  }
}

TEST(Json, StringEscapes) {
  json::Value v(std::string("a\"b\\c\nd\te"));
  const std::string dumped = v.dump();
  const auto back = json::Value::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), "a\"b\\c\nd\te");
  // Standard \uXXXX escapes parse too.
  const auto uni = json::Value::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(uni.has_value());
  EXPECT_EQ(uni->as_string(), "A\xc3\xa9");
}

TEST(Json, NestedDocument) {
  json::Value doc = json::Value::object();
  doc["name"] = "fig7";
  doc["points"] = 24;
  json::Value arr = json::Value::array();
  arr.push_back(1.5);
  arr.push_back(json::Value(std::uint64_t{123456789}));
  doc["values"] = std::move(arr);

  const auto back = json::Value::parse(doc.dump(2));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->find("name")->as_string(), "fig7");
  EXPECT_EQ(back->find("points")->as_unsigned(), 24u);
  ASSERT_EQ(back->find("values")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(back->find("values")->items()[0].as_number(), 1.5);
  EXPECT_EQ(back->find("values")->items()[1].as_u64(), 123456789u);
}

TEST(Json, MalformedInputsRejected) {
  for (const char* text :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 trailing",
        "{\"a\" 1}", "[1 2]"}) {
    EXPECT_FALSE(json::Value::parse(text).has_value()) << text;
  }
}

TEST(Json, NestingIsBounded) {
  const auto nest = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(json::Value::parse(nest(256)).has_value());
  EXPECT_FALSE(json::Value::parse(nest(257)).has_value());
  // Far past the bound: rejected, not a stack overflow.
  EXPECT_FALSE(json::Value::parse(std::string(1 << 20, '[')).has_value());
}

TEST(Json, ExactU64RejectsWhatACastCannotHold) {
  EXPECT_EQ(json::Value(0.0).exact_u64(), 0u);
  EXPECT_EQ(json::Value(9007199254740992.0).exact_u64(), 9007199254740992u);
  EXPECT_EQ(json::Value(18446744073709549568.0).exact_u64(),
            18446744073709549568u);  // the largest double below 2^64
  for (const double bad : {-1.0, 1.5, 18446744073709551616.0, 1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(json::Value(bad).exact_u64().has_value()) << bad;
    EXPECT_EQ(json::Value(bad).as_u64(7), 7u) << bad;
  }
  EXPECT_FALSE(json::Value("12").exact_u64().has_value());
  EXPECT_EQ(json::Value(4294967296.0).as_unsigned(3), 3u);
  EXPECT_EQ(json::Value(4294967295.0).as_unsigned(3), 4294967295u);
}

TEST(Json, NumberPrecisionSurvives) {
  const double values[] = {0.3333333333333333, 1e-12, 9.0e14, 123456.789};
  for (const double d : values) {
    const auto back = json::Value::parse(json::Value(d).dump());
    ASSERT_TRUE(back.has_value());
    EXPECT_DOUBLE_EQ(back->as_number(), d);
  }
}

/// A result with every field populated, including the optional DASH block
/// and spec overrides.
sim::ExperimentResult full_result() {
  sim::ExperimentResult r;
  r.spec.workload = "ocean";
  r.spec.arch = core::ArchKind::kSmt2;
  r.spec.chips = 4;
  r.spec.scale = 2;
  r.spec.fetch_policy = core::FetchPolicy::kIcount;
  r.spec.window_size = 32;
  r.spec.l1_private = true;

  r.stats.cycles = 123456789;
  r.stats.slots[core::Slot::kUseful] = 1000.5;
  r.stats.slots[core::Slot::kSync] = 250.25;
  r.stats.slots[core::Slot::kMemory] = 83.125;
  r.stats.slots[core::Slot::kFetch] = 10.0625;
  r.stats.committed_useful = 987654321;
  r.stats.committed_sync = 4242;
  r.stats.fetched = 1000000007;
  r.stats.timed_out = false;
  r.stats.avg_running_threads = 6.75;
  r.stats.predictor.cond_lookups = 1111;
  r.stats.predictor.cond_mispredicts = 22;
  r.stats.predictor.btb_misses = 3;
  r.stats.mem.loads = 555;
  r.stats.mem.stores = 444;
  r.stats.mem.by_level = {1, 2, 3, 4, 5, 6};
  r.stats.mem.bank_rejections = 7;
  r.stats.mem.mshr_rejections = 8;
  r.stats.mem.upgrades = 9;
  r.stats.mem.l1_cross_invalidations = 10;
  r.stats.mem.l1_miss_rate = 0.0625;
  r.stats.mem.l2_miss_rate = 0.03125;
  r.stats.mem.tlb_miss_rate = 0.015625;
  noc::DashStats dash;
  dash.fetches = 100;
  dash.remote_fetches = 60;
  dash.interventions = 5;
  dash.dirty_remote_supplies = 4;
  dash.invalidations_sent = 3;
  dash.upgrades = 2;
  dash.writebacks = 1;
  r.stats.dash = dash;
  r.validated = true;
  return r;
}

TEST(ResultJson, RoundTripPreservesEverything) {
  const sim::ExperimentResult r = full_result();
  const std::string text = sim::to_json(r).dump(2);
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto back = sim::result_from_json(*doc);
  ASSERT_TRUE(back.has_value());

  EXPECT_EQ(back->spec, r.spec);
  EXPECT_EQ(back->stats.cycles, r.stats.cycles);
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    EXPECT_DOUBLE_EQ(back->stats.slots.slots[i], r.stats.slots.slots[i]) << i;
  }
  // IPC and hazard shares (derived values) match exactly.
  EXPECT_DOUBLE_EQ(back->stats.useful_ipc(), r.stats.useful_ipc());
  EXPECT_DOUBLE_EQ(back->stats.slots.fraction(core::Slot::kSync),
                   r.stats.slots.fraction(core::Slot::kSync));
  EXPECT_EQ(back->stats.committed_useful, r.stats.committed_useful);
  EXPECT_EQ(back->stats.committed_sync, r.stats.committed_sync);
  EXPECT_EQ(back->stats.fetched, r.stats.fetched);
  EXPECT_EQ(back->stats.timed_out, r.stats.timed_out);
  EXPECT_DOUBLE_EQ(back->stats.avg_running_threads,
                   r.stats.avg_running_threads);
  EXPECT_EQ(back->stats.predictor.cond_lookups, r.stats.predictor.cond_lookups);
  EXPECT_EQ(back->stats.predictor.cond_mispredicts,
            r.stats.predictor.cond_mispredicts);
  EXPECT_EQ(back->stats.predictor.btb_misses, r.stats.predictor.btb_misses);
  EXPECT_EQ(back->stats.mem.loads, r.stats.mem.loads);
  EXPECT_EQ(back->stats.mem.stores, r.stats.mem.stores);
  EXPECT_EQ(back->stats.mem.by_level, r.stats.mem.by_level);
  EXPECT_EQ(back->stats.mem.l1_cross_invalidations,
            r.stats.mem.l1_cross_invalidations);
  EXPECT_DOUBLE_EQ(back->stats.mem.l1_miss_rate, r.stats.mem.l1_miss_rate);
  ASSERT_TRUE(back->stats.dash.has_value());
  EXPECT_EQ(back->stats.dash->remote_fetches, r.stats.dash->remote_fetches);
  EXPECT_EQ(back->stats.dash->writebacks, r.stats.dash->writebacks);
  EXPECT_EQ(back->validated, r.validated);
}

TEST(ResultJson, OmitsAbsentOptionals) {
  sim::ExperimentResult r = full_result();
  r.spec.fetch_policy.reset();
  r.spec.window_size.reset();
  r.spec.l1_private.reset();
  r.stats.dash.reset();
  const json::Value doc = sim::to_json(r);
  EXPECT_EQ(doc.find("spec")->find("fetch_policy"), nullptr);
  EXPECT_EQ(doc.find("spec")->find("window_size"), nullptr);
  EXPECT_EQ(doc.find("stats")->find("dash"), nullptr);

  const auto back = sim::result_from_json(doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec, r.spec);
  EXPECT_FALSE(back->stats.dash.has_value());
}

TEST(ResultJson, MissingRequiredFieldsRejected) {
  json::Value doc = sim::to_json(full_result());
  // No "spec" member at all.
  json::Value broken = json::Value::object();
  broken["stats"] = *doc.find("stats");
  broken["validated"] = true;
  EXPECT_FALSE(sim::result_from_json(broken).has_value());

  // An architecture name that arch_from_name() does not know.
  json::Value bad_arch = doc;
  bad_arch["spec"]["arch"] = "FA99";
  EXPECT_FALSE(sim::result_from_json(bad_arch).has_value());
}

TEST(ResultJson, OutOfRangeFieldsRejected) {
  const json::Value good = sim::to_json(full_result());
  ASSERT_TRUE(sim::result_from_json(good).has_value());
  const std::vector<std::function<void(json::Value&)>> corruptions = {
      [](json::Value& d) { d["stats"]["cycles"] = -1; },
      [](json::Value& d) { d["stats"]["cycles"] = 1.5; },
      [](json::Value& d) { d["stats"]["cycles"] = 1e20; },
      [](json::Value& d) { d["stats"]["cycles"] = "many"; },
      [](json::Value& d) { d["stats"]["fetched"] = nullptr; },
      [](json::Value& d) { d["stats"]["slots"]["memory"] = -0.5; },
      [](json::Value& d) { d["stats"]["avg_running_threads"] = -1.0; },
      [](json::Value& d) { d["stats"]["mem"]["l1_miss_rate"] = 1.5; },
      [](json::Value& d) { d["stats"]["mem"]["tlb_miss_rate"] = -0.1; },
      [](json::Value& d) { d["stats"]["mem"]["by_level"].items()[2] = -3; },
      [](json::Value& d) { d["stats"]["dash"]["fetches"] = -1; },
      [](json::Value& d) { d["stats"]["timed_out"] = 0; },
      [](json::Value& d) { d["validated"] = 1; },
      [](json::Value& d) { d["spec"]["chips"] = 4294967296.0; },
      [](json::Value& d) {
        json::Value speed = json::Value::object();
        speed["sim_cycles"] = -5;
        d["sim_speed"] = std::move(speed);
      },
  };
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    json::Value doc = good;
    corruptions[i](doc);
    EXPECT_FALSE(sim::result_from_json(doc).has_value())
        << "corruption " << i;
  }
}

TEST(ResultJson, RenderJsonIsParsableDocument) {
  const std::vector<sim::ExperimentResult> results = {full_result(),
                                                      full_result()};
  const auto doc = json::Value::parse(sim::render_json(results));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "csmt-sweep-results");
  ASSERT_NE(doc->find("results"), nullptr);
  ASSERT_EQ(doc->find("results")->items().size(), 2u);
  const auto back = sim::result_from_json(doc->find("results")->items()[0]);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stats.cycles, results[0].stats.cycles);
}

}  // namespace
}  // namespace csmt
