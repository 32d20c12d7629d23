// Registry round-trip suite: every registered protocol constructs from its
// canonical name and reports that name back, specs parse and print
// canonically, every failure mode raises the typed ConfigError, and a
// registry-constructed protocol is run-for-run identical to direct
// construction.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/bsub_protocol.h"
#include "core/protocol_registry.h"
#include "routing/pull.h"
#include "routing/push.h"
#include "routing/spray.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub {
namespace {

const sim::ProtocolRegistry& registry() {
  static const sim::ProtocolRegistry r = core::make_protocol_registry();
  return r;
}

TEST(ProtocolRegistry, EveryEntryConstructsAndReportsItsKey) {
  ASSERT_GE(registry().entries().size(), 4u);
  for (const auto& entry : registry().entries()) {
    auto protocol = registry().make(entry.name);
    ASSERT_NE(protocol, nullptr) << entry.name;
    EXPECT_EQ(protocol->name(), entry.name)
        << "registered key and Protocol::name() must agree";
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
  }
}

TEST(ProtocolRegistry, LookupIsCaseInsensitiveAndAliasAware) {
  EXPECT_STREQ(registry().make("push")->name(), "PUSH");
  EXPECT_STREQ(registry().make("Pull")->name(), "PULL");
  EXPECT_STREQ(registry().make("spray")->name(), "SPRAY");
  EXPECT_STREQ(registry().make("bsub")->name(), "B-SUB");
  EXPECT_STREQ(registry().make("B-sub")->name(), "B-SUB");
}

TEST(ProtocolRegistry, UnknownNameRaisesTypedErrorListingTheTable) {
  try {
    registry().make("gossip");
    FAIL() << "expected util::ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gossip"), std::string::npos);
    // The message enumerates what IS available.
    EXPECT_NE(what.find("B-SUB"), std::string::npos);
    EXPECT_NE(what.find("SPRAY"), std::string::npos);
  }
}

TEST(ProtocolRegistry, UnknownParameterIsRejectedNotIgnored) {
  EXPECT_THROW(registry().make("push:copies=3"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:coppies=3"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:dff=0.5"), util::ConfigError);
}

TEST(ProtocolRegistry, MalformedAndOutOfDomainValuesAreRejected) {
  EXPECT_THROW(registry().make(""), util::ConfigError);
  EXPECT_THROW(registry().make("spray:copies"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:=3"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:copies=0"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:copies=-1"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:copies=many"), util::ConfigError);
  EXPECT_THROW(registry().make("spray:copies=3,copies=4"),
               util::ConfigError);
  EXPECT_THROW(registry().make("bsub:df=-0.1"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:df=nan"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:merge=x"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:counter=0"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:bl=5,bu=3"), util::ConfigError);
  EXPECT_THROW(registry().make("bsub:gated=maybe"), util::ConfigError);
}

TEST(ProtocolRegistry, RetiredReferenceKeysAreUnknown) {
  // The naive/eager reference paths live in tests now; their spec keys are
  // gone and must be rejected like any other unknown key.
  for (const char* spec :
       {"bsub:reference=1", "bsub:reference_state=1", "push:reference=1",
        "pull:reference=1", "spray:reference=1"}) {
    EXPECT_THROW(registry().make(spec), util::ConfigError) << spec;
  }
  EXPECT_THROW(core::bsub_config_from_spec("bsub:reference=1"),
               util::ConfigError);
}

TEST(ProtocolRegistry, SpecParsePrintRoundTrips) {
  for (const char* s :
       {"PUSH", "SPRAY:copies=8", "B-SUB:df=0.5,merge=a,copies=5"}) {
    EXPECT_EQ(sim::ProtocolSpec::parse(s).str(), s);
  }
}

TEST(ProtocolRegistry, BsubSpecReproducesTheConfigExactly) {
  core::BsubConfig cfg;
  cfg.filter_params = {1024, 6};
  cfg.initial_counter = 40.0;
  cfg.df_per_minute = 0.12345678901234567;  // needs all 17 digits
  cfg.copy_limit = 7;
  cfg.broker_lower = 2;
  cfg.broker_upper = 9;
  cfg.election_window = 3 * util::kHour;
  cfg.broker_merge = core::BrokerMergeMode::kAMerge;
  cfg.relay_gated_delivery = false;
  cfg.adaptive_df = true;
  cfg.df_window = 7 * util::kHour;

  const std::string spec = core::bsub_spec(cfg);
  const core::BsubConfig back = core::bsub_config_from_spec(spec);
  EXPECT_EQ(back.filter_params, cfg.filter_params);
  EXPECT_EQ(back.initial_counter, cfg.initial_counter);
  EXPECT_EQ(back.df_per_minute, cfg.df_per_minute);
  EXPECT_EQ(back.copy_limit, cfg.copy_limit);
  EXPECT_EQ(back.broker_lower, cfg.broker_lower);
  EXPECT_EQ(back.broker_upper, cfg.broker_upper);
  EXPECT_EQ(back.election_window, cfg.election_window);
  EXPECT_EQ(back.broker_merge, cfg.broker_merge);
  EXPECT_EQ(back.relay_gated_delivery, cfg.relay_gated_delivery);
  EXPECT_EQ(back.adaptive_df, cfg.adaptive_df);
  EXPECT_EQ(back.df_window, cfg.df_window);

  // Defaults render with no parameters at all.
  EXPECT_EQ(core::bsub_spec(core::BsubConfig{}), "B-SUB");
  // A config that only came from a spec round-trips textually too.
  EXPECT_EQ(core::bsub_spec(back), spec);
}

TEST(ProtocolRegistry, NonBsubSpecCannotBecomeABsubConfig) {
  EXPECT_THROW(core::bsub_config_from_spec("push"), util::ConfigError);
  EXPECT_THROW(core::bsub_config_from_spec("SPRAY:copies=3"),
               util::ConfigError);
}

// Same scenario, same seed: the registry-made protocol must produce
// Collector output identical to a directly constructed instance — the
// factory adds configuration plumbing, never behavior.
class RegistryDeterminism : public ::testing::Test {
 protected:
  metrics::RunResults run(sim::Protocol& protocol) {
    trace::SyntheticTraceConfig tcfg;
    tcfg.node_count = 25;
    tcfg.contact_count = 4000;
    tcfg.duration = util::kDay;
    tcfg.seed = 77;
    const auto trace = trace::generate_trace(tcfg);
    const auto keys = workload::twitter_trend_keys();
    workload::WorkloadConfig wcfg;
    wcfg.ttl = 4 * util::kHour;
    wcfg.seed = 78;
    const workload::Workload w(trace, keys, wcfg);
    return sim::Simulator().run(trace, w, protocol);
  }

  void expect_identical(const metrics::RunResults& a,
                        const metrics::RunResults& b) {
    EXPECT_EQ(a.interested_deliveries, b.interested_deliveries);
    EXPECT_EQ(a.false_deliveries, b.false_deliveries);
    EXPECT_EQ(a.forwardings, b.forwardings);
    EXPECT_EQ(a.message_bytes, b.message_bytes);
    EXPECT_EQ(a.control_bytes, b.control_bytes);
    EXPECT_EQ(a.expected_deliveries, b.expected_deliveries);
    EXPECT_DOUBLE_EQ(a.mean_delay_minutes, b.mean_delay_minutes);
    EXPECT_DOUBLE_EQ(a.median_delay_minutes, b.median_delay_minutes);
    EXPECT_DOUBLE_EQ(a.max_delay_minutes, b.max_delay_minutes);
  }
};

TEST_F(RegistryDeterminism, Push) {
  routing::PushProtocol direct;
  auto via_registry = registry().make("PUSH");
  expect_identical(run(*via_registry), run(direct));
}

TEST_F(RegistryDeterminism, Pull) {
  routing::PullProtocol direct;
  auto via_registry = registry().make("PULL");
  expect_identical(run(*via_registry), run(direct));
}

TEST_F(RegistryDeterminism, SprayWithCopiesParameter) {
  routing::SprayProtocol direct(8);
  auto via_registry = registry().make("SPRAY:copies=8");
  expect_identical(run(*via_registry), run(direct));
}

TEST_F(RegistryDeterminism, BsubWithParameters) {
  core::BsubConfig cfg;
  cfg.df_per_minute = 0.25;
  cfg.copy_limit = 5;
  cfg.broker_merge = core::BrokerMergeMode::kAMerge;
  core::BsubProtocol direct(cfg);
  auto via_registry = registry().make("bsub:df=0.25,copies=5,merge=a");
  expect_identical(run(*via_registry), run(direct));
  // And through the exact-round-trip spec printer.
  auto via_spec = registry().make(core::bsub_spec(cfg));
  expect_identical(run(*via_spec), run(direct));
}

}  // namespace
}  // namespace bsub
