// Tests for run-report metrics helpers (core/metrics.h).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/metrics.h"

namespace jaws::core {
namespace {

QueryOutcome outcome(double visible_s, double completed_s) {
    QueryOutcome o;
    o.visible = util::SimTime::from_seconds(visible_s);
    o.completed = util::SimTime::from_seconds(completed_s);
    return o;
}

TEST(Metrics, ResponseIsCompletedMinusVisible) {
    const QueryOutcome o = outcome(2.0, 5.5);
    EXPECT_DOUBLE_EQ(o.response().seconds(), 3.5);
}

TEST(Metrics, FillResponseStatsEmptyIsNoop) {
    RunReport report;
    fill_response_stats({}, report);
    EXPECT_EQ(report.mean_response_ms, 0.0);
}

TEST(Metrics, EmptyRunPercentilesAreNaNAndRenderAsNA) {
    // Percentiles of an empty completion set are NaN — a 0.0 would read as
    // "zero latency" — and the summary line renders them "n/a".
    RunReport report;
    report.scheduler_name = "empty";
    fill_response_stats({}, report);
    EXPECT_TRUE(std::isnan(report.median_response_ms));
    EXPECT_TRUE(std::isnan(report.p95_response_ms));
    EXPECT_TRUE(std::isnan(report.p99_response_ms));
    EXPECT_TRUE(std::isnan(report.p999_response_ms));
    const std::string line = report.summary();
    EXPECT_NE(line.find("n/a"), std::string::npos);
}

TEST(Metrics, TailPercentilesAreMonotone) {
    std::vector<QueryOutcome> outcomes;
    for (int i = 1; i <= 1000; ++i) outcomes.push_back(outcome(0.0, i * 0.001));
    RunReport report;
    fill_response_stats(outcomes, report);
    EXPECT_GE(report.p99_response_ms, report.p95_response_ms);
    EXPECT_GE(report.p999_response_ms, report.p99_response_ms);
    EXPECT_EQ(report.response_ms.size(), 1000u);  // pooled samples retained
}

TEST(Metrics, FillResponseStatsMeanMedianP95) {
    std::vector<QueryOutcome> outcomes;
    for (int i = 1; i <= 100; ++i) outcomes.push_back(outcome(0.0, i * 0.001));
    RunReport report;
    fill_response_stats(outcomes, report);
    EXPECT_NEAR(report.mean_response_ms, 50.5, 1e-9);
    EXPECT_NEAR(report.median_response_ms, 50.5, 0.6);
    EXPECT_NEAR(report.p95_response_ms, 95.05, 0.6);
}

TEST(Metrics, SummaryMentionsSchedulerAndNumbers) {
    RunReport report;
    report.scheduler_name = "JAWS-test";
    report.throughput_qps = 1.25;
    report.cache.hits = 3;
    report.cache.misses = 1;
    const std::string s = report.summary();
    EXPECT_NE(s.find("JAWS-test"), std::string::npos);
    EXPECT_NE(s.find("1.25"), std::string::npos);
    EXPECT_NE(s.find("75.0%"), std::string::npos);
}

TEST(Metrics, CacheStatsHitRate) {
    cache::CacheStats stats;
    EXPECT_EQ(stats.hit_rate(), 0.0);
    stats.hits = 9;
    stats.misses = 1;
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.9);
}

TEST(Metrics, QosStatsRates) {
    sched::QosStats qos;
    EXPECT_EQ(qos.miss_rate(), 0.0);
    EXPECT_EQ(qos.mean_tardiness_ms(), 0.0);
    qos.guaranteed = 10;
    qos.misses = 2;
    qos.tardiness_ms_sum = 50.0;
    EXPECT_DOUBLE_EQ(qos.miss_rate(), 0.2);
    EXPECT_DOUBLE_EQ(qos.mean_tardiness_ms(), 25.0);
}

TEST(Metrics, PrefetchAccuracy) {
    sched::PrefetchStats stats;
    EXPECT_EQ(stats.accuracy(), 0.0);
    stats.hits = 3;
    stats.wasted = 1;
    EXPECT_DOUBLE_EQ(stats.accuracy(), 0.75);
}

}  // namespace
}  // namespace jaws::core
