// Node-state differential: the lazy, pooled, cache-dense per-node layouts
// (lazy relay materialization, pooled ring + open-addressing election
// state, interest-filter caches deduplicated by interest set) change where
// bytes live, never what the protocol computes.
//
// Two oracles hold that contract:
//   - the simulator half compares each city run, serially and through the
//     windowed parallel executor, bit for bit against a table recorded
//     while the eager layouts still ran beside the lazy ones (and were
//     proven equal to them on exactly these seeds and thread counts);
//     re-recording is deliberate, see tests/testing/run_table.h;
//   - the election half runs core::BrokerElection in lock-step with the
//     plain deque + two-map model in tests/testing/reference_election.h
//     over the same city contact sequences, comparing after every contact.
#include <gtest/gtest.h>

#include "core/bsub_protocol.h"
#include "sim/simulator.h"
#include "testing/reference_election.h"
#include "testing/run_table.h"
#include "trace/city.h"
#include "trace/contact_stream.h"
#include "workload/workload.h"

namespace bsub {
namespace {

using testing::RunRow;

trace::CityTraceConfig city_for(std::uint64_t seed) {
  trace::CityTraceConfig cfg;
  cfg.node_count = 300;
  cfg.contact_count = 4000;
  cfg.days = 1;
  cfg.seed = seed;
  return cfg;
}

// B-SUB at df = 0.5 on the 300-node city, seeds 31..40. The serial run and
// the 4-thread windowed run must both reproduce the row.
constexpr RunRow kCityRows[] = {
    {31, 119289, 1988667, 82595, 150, 388211, 27341075, 640538,
     0x3fa543cb0d73de76, 0x406852e206b3310e, 0x40690319ab138636,
     0x40767ffe0530323f, 0x4012ccfad21ff7c5, 0x3f5dc13c649bc767,
     156760, 148856, 82595, 1594, 0x3f5b2be673609ef9},
    {32, 357803, 5537212, 224960, 199, 1100665, 77460329, 604955,
     0x3fa4cd0e04c73a8d, 0x406835037dd5a7c5, 0x4068d18022f3d93a,
     0x40767ffb6d1712fa, 0x40139223afe2de22, 0x3f4cfc93b361cfc9,
     479664, 396041, 224960, 3768, 0x3f6827e8e4f4b5b2},
    {33, 117646, 1882361, 74763, 18, 369965, 26115686, 624667,
     0x3fa455dffb4de0d8, 0x40681e31fad837ea, 0x4068b2a5119ce076,
     0x40767fe0f04c756b, 0x4013cb449dda7de8, 0x3f2f8e978f54e6e2,
     153849, 141353, 74763, 972, 0x3f64238d20508e35},
    {34, 352663, 5742788, 224190, 42, 1095810, 77283923, 616345,
     0x3fa3fcdbb0d79b84, 0x40680547b3f451ef, 0x406889bc01a36e2e,
     0x40767fff74309b1a, 0x40138d2bf387d3e1, 0x3f288e1fbfc30cf1,
     466278, 405342, 224190, 1738, 0x3f61477b86a24d24},
    {35, 89055, 1414407, 56772, 39, 297227, 20874079, 657615,
     0x3fa48d0468927890, 0x406832f19d4ff859, 0x4068d0190dca34b4,
     0x40767fce075f6fd2, 0x4014f119f490834f, 0x3f46829fd82c966e,
     123946, 116509, 56772, 1042, 0x3f6c0d51d5d2303c},
    {36, 178983, 3135134, 125718, 18, 550357, 38805689, 587787,
     0x3fa487f3601da83c, 0x40682c4a70baa28c, 0x4068c896cd12b480,
     0x40767fd95c6edd75, 0x401182c685f6de85, 0x3f22c43e1d8aedc9,
     229668, 194971, 125718, 875, 0x3f57d2dc43b59a70},
    {37, 118867, 1967530, 82369, 18, 393558, 27745729, 643429,
     0x3fa56f3844a4a3d9, 0x40682c498f7cb191, 0x4068b372b020c49c,
     0x40767ffae147ae14, 0x40131ca896a6385f, 0x3f2ca49c3b3026d6,
     157959, 153230, 82369, 910, 0x3f604518ce7cbc69},
    {38, 117909, 1912927, 75969, 17, 395640, 27960802, 637578,
     0x3fa4555378ce53b7, 0x4067f9e8051b7b7d, 0x40686f728d2ceb62,
     0x40767fffcb923a2a, 0x4014d4e757dc5587, 0x3f2d54a8ccbfaffd,
     164031, 155640, 75969, 1305, 0x3f67e02a721291e8},
    {39, 70893, 1194776, 47676, 26, 215543, 15245106, 599402,
     0x3fa46e4276b090c8, 0x40680dfabece92fa, 0x406895c710cb295f,
     0x40767fef235cb4c5, 0x4012157ff240fe4e, 0x3f41deb567e3fe06,
     91011, 76856, 47676, 643, 0x3f61bce8ae0a5469},
    {40, 89712, 1517516, 59158, 19, 273882, 19249649, 598583,
     0x3fa3f5a3521a1ce7, 0x4067ed1222cf0935, 0x40684b1f212d7732,
     0x40767ffcb923a29c, 0x401284c822226dc3, 0x3f350c66fdf2e58b,
     115025, 99699, 59158, 601, 0x3f5dd4ce8a47c811},
};

TEST(NodeStateDifferential, SimulatorIsBitIdenticalLazyVsEager) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (const RunRow& want : kCityRows) {
    const std::uint64_t seed = want.seed;
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace trace = trace::materialize(*stream);
    ASSERT_FALSE(trace.empty());

    workload::WorkloadConfig wcfg;
    wcfg.ttl = 6 * util::kHour;
    wcfg.seed = seed + 1;
    const workload::Workload w(trace, keys, wcfg);

    core::BsubConfig cfg;
    cfg.df_per_minute = 0.5;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      sim::SimulatorConfig scfg;
      scfg.threads = threads;
      scfg.window_events = 256;  // several windows even at this size
      sim::Simulator simulator(scfg);

      core::BsubProtocol proto(cfg);
      const metrics::RunResults r = simulator.run(trace, w, proto);
      EXPECT_TRUE(
          testing::matches_recorded(want, testing::row_of(seed, r, proto)));
      // The runs must exercise the protocol and the laziness must bite:
      // some relays materialize (brokers exist), most nodes' never do.
      EXPECT_GT(r.messages_created, 0u);
      EXPECT_GT(r.forwardings, 0u);
      EXPECT_GT(proto.interests().materialized_relays(), 0u);
      EXPECT_LT(proto.interests().materialized_relays(), trace.node_count());
    }
  }
}

TEST(NodeStateDifferential, ElectionMatchesReferenceModelOnCitySeeds) {
  const core::BrokerElection::Config config{3, 5, 5 * util::kHour};
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    SCOPED_TRACE("city seed " + std::to_string(seed));
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace trace = trace::materialize(*stream);
    ASSERT_FALSE(trace.empty());

    core::BrokerElection election(trace.node_count(), config);
    testing::ReferenceElection model(trace.node_count(), config);
    for (const trace::Contact& c : trace.contacts()) {
      election.on_contact(c.a, c.b, c.start);
      model.on_contact(c.a, c.b, c.start);
      ASSERT_TRUE(
          testing::agree_after_contact(election, model, c.a, c.b, c.start));
    }
    EXPECT_GT(election.promotions(), 0u);
    EXPECT_EQ(election.broker_count(), model.broker_count());
  }
}

}  // namespace
}  // namespace bsub
