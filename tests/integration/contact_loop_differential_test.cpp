// Differential test for the contact-loop fast path.
//
// The fast path (expiry watermark + index, cached encodings and exact wire
// sizes, interned probe indices, shared payloads) claims *exactly* the
// observable semantics of the seed's naive loop — not statistically
// similar, identical. The naive loop used to run beside it behind
// reference/naive-purge switches; while both existed, this test proved them
// equal on exactly the scenarios below, and the tables here are what both
// produced. Every (protocol, seed) run is now compared against its recorded
// row bit for bit: every semantic RunResults field (doubles by bit pattern)
// and, for B-SUB, the traffic breakdown, the false-injection count and the
// measured relay FPR. Only the hot_path execution-shape counters are free.
//
// Re-recording is deliberate (see tests/testing/run_table.h): a failing row
// prints its actual values as a brace initializer; paste it over the
// recorded row only when a change is meant to alter protocol behavior.
#include <gtest/gtest.h>

#include <span>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "metrics/collector.h"
#include "routing/pull.h"
#include "routing/push.h"
#include "routing/spray.h"
#include "sim/simulator.h"
#include "testing/run_table.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace bsub {
namespace {

using testing::RunRow;

struct ScenarioCase {
  // Workload holds a pointer to the KeySet, so the set lives here too.
  workload::KeySet keys;
  trace::ContactTrace trace;
  workload::Workload workload;

  explicit ScenarioCase(std::uint64_t seed,
                        std::uint32_t interests_per_node = 1)
      : keys(workload::twitter_trend_keys()),
        trace(trace::generate_trace(trace_config(seed))),
        workload(trace, keys, workload_config(seed, interests_per_node)) {}

  static trace::SyntheticTraceConfig trace_config(std::uint64_t seed) {
    trace::SyntheticTraceConfig tcfg;
    tcfg.name = "diff";
    tcfg.node_count = 14 + seed % 7;
    tcfg.contact_count = 1500 + 100 * (seed % 5);
    tcfg.duration = util::kDay;
    tcfg.community_count = 3;
    tcfg.seed = seed;
    return tcfg;
  }

  static workload::WorkloadConfig workload_config(
      std::uint64_t seed, std::uint32_t interests_per_node) {
    workload::WorkloadConfig wcfg;
    wcfg.ttl = static_cast<util::Time>(2 + seed % 6) * util::kHour;
    wcfg.interests_per_node = interests_per_node;
    wcfg.seed = seed + 1;
    return wcfg;
  }
};

// B-SUB with the Eq. 5 DF for a 4 h TTL, seeds 1..10.
constexpr RunRow kBsubRows[] = {
    {1, 937, 745, 646, 0, 2504, 175465, 263416,
     0x3febbf660e6ea5a0, 0x404b4e6a3f217d1f, 0x404643c66207eb3f,
     0x40664fbdeaf94f53, 0x400f0260b1891d53, 0x0000000000000000,
     1088, 770, 646, 0, 0x3f52f405ca8ffde5},
    {2, 1912, 1902, 1521, 0, 4228, 297821, 448718,
     0x3fe9970409b0dba9, 0x404acd76e4b771fd, 0x403eabb2fec56d5d,
     0x406df3e4d4722451, 0x40063ceda7780159, 0x0000000000000000,
     1660, 1047, 1521, 0, 0x3f52214beb6de9dc},
    {3, 950, 891, 864, 0, 3404, 240710, 245645,
     0x3fef07c1f07c1f08, 0x404fd4906f92b142, 0x40453f3c7bf8e678,
     0x4072205f06f69446, 0x400f84bda12f684c, 0x0000000000000000,
     1389, 1151, 864, 0, 0x3f640e7c3d48b482},
    {4, 1262, 1346, 1127, 0, 3848, 268212, 313493,
     0x3feacb205534dfab, 0x40500012d8712998, 0x40437b1ccefc0a60,
     0x40767b7cdc177bd6, 0x400b50a38c9b5f2d, 0x0000000000000000,
     1509, 1212, 1127, 0, 0x3f55def98c4d6c5f},
    {5, 4716, 5162, 3776, 0, 10926, 773179, 292121,
     0x3fe76871781d5bf2, 0x404fab71e1567d82, 0x4042604c2f837b4a,
     0x4079e99b3d07c84b, 0x400725f75270d045, 0x0000000000000000,
     4278, 2872, 3776, 0, 0x3f5c29454f81c294},
    {6, 1881, 1782, 887, 0, 4293, 303186, 321548,
     0x3fdfdb392d1bdeac, 0x404540b8e5b0a491, 0x404118b17e4b17e5,
     0x405de787080e3310, 0x40135c115119afc4, 0x0000000000000000,
     1986, 1420, 887, 0, 0x3f664025df922ad8},
    {7, 1127, 922, 689, 0, 3317, 233264, 400788,
     0x3fe7e9c99444dbe8, 0x404a938fc1776f70, 0x404342861363427e,
     0x40667682869f32a7, 0x401341c3cef47b5b, 0x0000000000000000,
     1471, 1157, 689, 0, 0x3f57f8825744ba86},
    {8, 793, 722, 659, 0, 2416, 179742, 317094,
     0x3fed352f8330ee45, 0x404b2a2605c6d38b, 0x40441c8dfea27984,
     0x406d3f3333333333, 0x400d544c23bd2f01, 0x0000000000000000,
     986, 771, 659, 0, 0x3f5534593c4cddc3},
    {9, 1513, 1135, 1022, 0, 4368, 319396, 361685,
     0x3fecd068a7cf47f3, 0x404fda3966278a46, 0x40443d6eba812919,
     0x40729727ef9db22d, 0x4011188c46231189, 0x0000000000000000,
     1770, 1576, 1022, 0, 0x3f59b5e1ab6fc7c2},
    {10, 994, 855, 771, 0, 3206, 230960, 245667,
     0x3fecdb2c0397cdb3, 0x40520baf2d18fd4d, 0x404a8ee978d4fdf4,
     0x4076638369d0369d, 0x4010a208a208a209, 0x0000000000000000,
     1210, 1225, 771, 0, 0x3f55cca815cca816},
};

// B-SUB as above, with three interests per node (same traces and message
// schedules): every consumer report matches several keys, so direct
// delivery walks messages of several keys in one id-ordered pass. Recorded
// with the buffers still in id order, before they were bucketed by key.
constexpr RunRow kBsubMultiInterestRows[] = {
    {1, 937, 2304, 2030, 0, 4756, 330735, 340193,
     0x3fec31c71c71c71c, 0x4048f19089c8ecfb, 0x404325265da97018,
     0x40667f816f0068dc, 0x4002be2be2be2be3, 0x0000000000000000,
     1579, 1147, 2030, 0, 0x3f7e45c223898adc},
    {2, 1912, 5200, 3439, 0, 8445, 601549, 598017,
     0x3fe529bf68c35902, 0x404e155d41b2c134, 0x4041d478263ab597,
     0x406dfbe0530323e9, 0x4003a52ed2aa77d9, 0x0000000000000000,
     2937, 2069, 3439, 0, 0x3f8020138651c276},
    {3, 950, 2151, 2037, 0, 5585, 395535, 318939,
     0x3fee4dd5de701c90, 0x4051b0c3d57f7320, 0x4047b4564a0045e8,
     0x4072847777777777, 0x4005ef28d82938ae, 0x0000000000000000,
     1922, 1626, 2037, 0, 0x3f82864486d326b8},
    {4, 1262, 4000, 3307, 0, 7854, 547578, 408313,
     0x3fea74bc6a7ef9db, 0x405013e7f3427f16, 0x4045b7ef11e2c828,
     0x40763c56270c6cae, 0x4002ffec2ec1af07, 0x0000000000000000,
     2465, 2082, 3307, 0, 0x3f84570beb70f6b4},
    {5, 4716, 14475, 9092, 0, 19751, 1393341, 367287,
     0x3fe41989c0eed3c5, 0x405172cb27ee8c38, 0x404321d108541ac2,
     0x407a3c397b043b87, 0x400160f8ade531e5, 0x0000000000000000,
     6430, 4229, 9092, 0, 0x3f84456e94d14457},
    {6, 1881, 4753, 2586, 0, 8231, 573809, 424116,
     0x3fe169150f3e19f6, 0x4045b8bb762dffd6, 0x404189e99bc8d72d,
     0x405dff404ea4a8c1, 0x4009769873a02c59, 0x0000000000000000,
     3219, 2426, 2586, 32, 0x3f8aa132c61ff4a3},
    {7, 1127, 2373, 1879, 0, 5270, 370464, 511006,
     0x3fe956a0bdde8e9e, 0x4048771acad35173, 0x4040edce075f6fd2,
     0x40667343b874df5e, 0x40066ffdd1f33175, 0x0000000000000000,
     1870, 1521, 1879, 0, 0x3f74699efe5086d6},
    {8, 793, 1514, 1380, 0, 4242, 309967, 427194,
     0x3fed2af2cfa4040f, 0x404a979c4e449d9d, 0x40433dcac083126e,
     0x406d037381d7dbf5, 0x4008975fb8c3e549, 0x0000000000000000,
     1588, 1274, 1380, 17, 0x3f899f4128dce14c},
    {9, 1513, 3749, 3350, 0, 8999, 646188, 470319,
     0x3fec982382152b16, 0x404ec50856510341, 0x40428fb645a1cac0,
     0x4072bf5ed288ce70, 0x40057d7a6be6ef57, 0x0000000000000000,
     2959, 2690, 3350, 0, 0x3f83621f223f4599},
    {10, 994, 2446, 2196, 0, 6411, 451352, 319745,
     0x3fecbab6f264e494, 0x40544392005ac994, 0x404df0601e955e12,
     0x4076640ded288ce7, 0x40075aedd06fe99e, 0x0000000000000000,
     2089, 2126, 2196, 0, 0x3f86843b16843b17},
};

// PUSH, PULL and SPRAY (3 copies), seeds 11..20.
constexpr RunRow kPushRows[] = {
    {11, 2718, 2500, 2433, 0, 44636, 3172870, 0,
     0x3fef2474538ef34d, 0x40502a01c0384c05, 0x4045c2fb7e90ff97,
     0x407a12de9e1b089a, 0x403258985bc0727b, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {12, 1217, 1092, 928, 0, 18014, 1264278, 0,
     0x3feb31b31b31b31b, 0x4041b1bce136ce6c, 0x4038fcd242e6bdc8,
     0x405d85a4cbb52e03, 0x403369611a7b9612, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {13, 1036, 1223, 1158, 0, 18334, 1331861, 0,
     0x3fee4c9c92866262, 0x404769ae145bf8d8, 0x404018fdadce932e,
     0x406657d288ce703b, 0x402faa397a792595, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {14, 719, 411, 405, 0, 9250, 637601, 0,
     0x3fef8868a4701de6, 0x403c3d4ffb8a0b68, 0x4032ec63f141205c,
     0x4069649b3d07c84b, 0x4036d6e9e06522c4, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {15, 976, 754, 722, 0, 13152, 929746, 0,
     0x3feea454339b8057, 0x4046fb4f8d83c4b4, 0x403d0201e955e124,
     0x407201191f442150, 0x403237502209ed90, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {16, 1124, 870, 837, 0, 16542, 1146498, 0,
     0x3feec944daec944e, 0x404b31b878a180b9, 0x4042a0432ca57a78,
     0x40763a6e978d4fdf, 0x4033c370dc370dc3, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {17, 1041, 1035, 994, 0, 16055, 1143264, 0,
     0x3feebb7c69dce096, 0x404d4aa74500ac39, 0x4043c2d4b80c03d3,
     0x4076c0d4a6921736, 0x403026e3ab86704a, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {18, 1411, 1649, 1209, 0, 18608, 1338715, 0,
     0x3fe7762453d526f7, 0x4044ef5f20f41b8a, 0x4040640da740da74,
     0x405de06ff513cc1e, 0x402ec84f9dc00d8d, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {19, 1004, 1037, 945, 0, 16801, 1180457, 0,
     0x3fed293a0374c481, 0x404447a28e1dc70d, 0x403b527bb2fec56d,
     0x4065e1219652bd3c, 0x4031c761cb720c76, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {20, 2990, 2552, 1762, 0, 38991, 2736870, 0,
     0x3fe61813429bafc0, 0x4054571ca0a5491a, 0x40506b013a92a305,
     0x406df959050d3e65, 0x403620fb0f669308, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
};
constexpr RunRow kPullRows[] = {
    {11, 2718, 2500, 701, 0, 701, 47834, 36936,
     0x3fd1f212d77318fc, 0x405cab61852235d2, 0x4051031eb851eb85,
     0x407a251f671529a5, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {12, 1217, 1092, 457, 0, 457, 35547, 38825,
     0x3fdac8ac8ac8ac8b, 0x40455e0661357057, 0x40413cd9e83e425b,
     0x405dd39c54a69217, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {13, 1036, 1223, 503, 0, 503, 36355, 39135,
     0x3fda5278fcdc34c0, 0x4051a8e84663a9f7, 0x404e8d79ec9cbd82,
     0x40667a48c5b344ad, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {14, 719, 411, 296, 0, 296, 20948, 46314,
     0x3fe70bd5a50f9260, 0x405075392b3147f7, 0x4044f28bcf64e5ec,
     0x406df3e8842a0d61, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {15, 976, 754, 504, 0, 504, 35418, 34090,
     0x3fe563d1d32edaa7, 0x4056378660c85a63, 0x405278119ce075f7,
     0x407271f0068db8bb, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {16, 1124, 870, 457, 0, 457, 32346, 32406,
     0x3fe0cf276e0cf277, 0x405ccbfe281a414d, 0x40566452bd3c3611,
     0x407672478b20a1a8, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {17, 1041, 1035, 601, 0, 601, 43385, 40812,
     0x3fe294e6860f55d4, 0x405d9e363da2a7bf, 0x40549fc504816f00,
     0x407a31741f212d77, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {18, 1411, 1649, 459, 0, 459, 32945, 35352,
     0x3fd1d07eae2f8152, 0x4045368d33ecda1f, 0x4040f0bf258bf259,
     0x405dfc3ab596de8d, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {19, 1004, 1037, 563, 0, 563, 41290, 43105,
     0x3fe15f89811c63bc, 0x40511b714482891b, 0x404d8c78b20a1a7d,
     0x40665095182a9931, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {20, 2990, 2552, 832, 0, 832, 57605, 32920,
     0x3fd4dd7dfe651db1, 0x4051d525d18401b7, 0x40489b9397b043b8,
     0x406dfd0aec33e1f6, 0x3ff0000000000000, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
};
constexpr RunRow kSprayRows[] = {
    {11, 2718, 2500, 2267, 0, 9283, 658983, 0,
     0x3fed04816f0068dc, 0x4052bde23e4272a4, 0x40492eb2dbd19423,
     0x407a12de9e1b089a, 0x4010611d792b0636, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {12, 1217, 1092, 722, 0, 3846, 270847, 0,
     0x3fe5285285285285, 0x404562149157b2ac, 0x40416ee703afb7e9,
     0x405deb88ab7c61c2, 0x40154eb6f55ce5c3, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {13, 1036, 1223, 1027, 0, 3944, 286277, 0,
     0x3feadf22f4e7ed94, 0x404db98ca5c59de2, 0x4046e204a462d9a2,
     0x406674a8e448a2bf, 0x400eb8f54809f886, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {14, 719, 411, 400, 0, 2527, 175033, 0,
     0x3fef24bfd822e17b, 0x40444254ba24e2c5, 0x4038f5c54a692173,
     0x406ad9c54a692173, 0x4019451eb851eb85, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {15, 976, 754, 703, 0, 3554, 251258, 0,
     0x3fedd5e6323fd48b, 0x404fe91fe834045f, 0x4046c3983c131d5b,
     0x407201191f442150, 0x401438ced6d9c38d, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {16, 1124, 870, 814, 0, 4119, 287952, 0,
     0x3fedf0b2e7df0b2e, 0x405170e70d380a70, 0x4049585aa87b6d17,
     0x40754cf8263ab597, 0x40143da42ac580f2, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {17, 1041, 1035, 958, 0, 3955, 282147, 0,
     0x3fed9e8bff02b885, 0x405461ba0df0f3ef, 0x404bbee932ed4b81,
     0x4079a021dc3a6faf, 0x4010837951c535fb, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {18, 1411, 1649, 879, 0, 4102, 295106, 0,
     0x3fe10ebf92b50431, 0x4046fc0a57538b7f, 0x40438c2c3c9eecc0,
     0x405ded0369d0369d, 0x4012aaaaaaaaaaab, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {19, 1004, 1037, 847, 0, 3715, 262608, 0,
     0x3fea230e1244a0f5, 0x404b0128fe779959, 0x4044d1f671529a48,
     0x406673fa66f235cb, 0x40118b5588ea8a6d, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
    {20, 2990, 2552, 1523, 0, 8320, 582737, 0,
     0x3fe318e0b3c30268, 0x40551443d263c9d1, 0x40514f013a92a305,
     0x406dfbe0300f4aaf, 0x4015da03068e341c, 0x0000000000000000,
     0, 0, 0, 0, 0x0000000000000000},
};

/// Runs B-SUB with the Eq. 5 DF for a 4 h TTL over every row's scenario
/// and checks the row.
void expect_bsub_table(std::span<const RunRow> table,
                       std::uint32_t interests_per_node) {
  for (const RunRow& want : table) {
    const std::uint64_t seed = want.seed;
    const ScenarioCase sc(seed, interests_per_node);
    core::BsubConfig cfg;
    cfg.df_per_minute =
        core::compute_df(sc.trace, 4 * util::kHour, cfg.filter_params,
                         cfg.initial_counter)
            .df_per_minute;

    core::BsubProtocol bsub(cfg);
    const metrics::RunResults r =
        sim::Simulator().run(sc.trace, sc.workload, bsub);
    EXPECT_TRUE(testing::matches_recorded(want, testing::row_of(seed, r, bsub)))
        << "bsub, " << interests_per_node << " interest(s) per node";

    // The fast path must actually be exercising its machinery, not silently
    // falling back to scans and re-encodes.
    EXPECT_GT(r.hot_path.encode_cache_hits, 0u) << "s" << seed;
    EXPECT_GT(r.hot_path.purge_scans_skipped, 0u) << "s" << seed;
    EXPECT_GT(r.hot_path.payload_copies_avoided, 0u) << "s" << seed;
    EXPECT_EQ(r.hot_path.payload_copies_made, 0u) << "s" << seed;
  }
}

TEST(ContactLoopDifferential, BsubFastPathMatchesReferenceOnTenSeeds) {
  expect_bsub_table(kBsubRows, 1);
}

TEST(ContactLoopDifferential, BsubMultiInterestMatchesRecordedOnTenSeeds) {
  expect_bsub_table(kBsubMultiInterestRows, 3);
}

template <class Make>
void expect_table(std::span<const RunRow> table, const char* what,
                  Make make_protocol) {
  for (const RunRow& want : table) {
    const ScenarioCase sc(want.seed);
    auto protocol = make_protocol();
    const metrics::RunResults r =
        sim::Simulator().run(sc.trace, sc.workload, protocol);
    EXPECT_TRUE(testing::matches_recorded(want, testing::row_of(want.seed, r)))
        << what;
  }
}

TEST(ContactLoopDifferential, BaselinesMatchNaivePurgeOnTenSeeds) {
  expect_table(kPushRows, "push", [] { return routing::PushProtocol(); });
  expect_table(kPullRows, "pull", [] { return routing::PullProtocol(); });
  expect_table(kSprayRows, "spray", [] { return routing::SprayProtocol(3); });
}

}  // namespace
}  // namespace bsub
