// cosmo::obs — span tracer, metrics registry, cross-rank aggregation, and
// the Chrome trace export. These tests drive the observability layer the
// same way the workflows do: spans from rank threads, counters sharded per
// rank, reductions over a real communicator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "obs/aggregate.h"
#include "obs/obs.h"

using namespace cosmo;
using comm::Comm;
using comm::ReduceOp;
using comm::run_spmd;

namespace {

/// Fresh-slate fixture: every test starts with an empty tracer and zeroed
/// metrics (both are process singletons).
class Obs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().set_enabled(true);
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().reset();
  }
};

std::vector<obs::Span> spans_named(const std::string& name) {
  std::vector<obs::Span> out;
  for (auto& s : obs::Tracer::instance().snapshot())
    if (s.name == name) out.push_back(std::move(s));
  return out;
}

// --- spans -----------------------------------------------------------------

TEST_F(Obs, ScopedSpanRecordsOnDestruction) {
  {
    obs::ScopedSpan span("unit.outer");
    (void)span;
  }
  const auto found = spans_named("unit.outer");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_GE(found[0].end_us, found[0].start_us);
  EXPECT_EQ(found[0].depth, 0);
  EXPECT_EQ(found[0].rank, -1);  // not inside any SPMD rank
}

TEST_F(Obs, NestedSpansCarryDepthAndContainment) {
  {
    obs::ScopedSpan outer("unit.outer");
    {
      obs::ScopedSpan inner("unit.inner");
      (void)inner;
    }
    (void)outer;
  }
  const auto outer = spans_named("unit.outer");
  const auto inner = spans_named("unit.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0);
  EXPECT_EQ(inner[0].depth, 1);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner[0].start_us, outer[0].start_us);
  EXPECT_LE(inner[0].end_us, outer[0].end_us);
}

TEST_F(Obs, SpanRecordsOnExceptionUnwind) {
  try {
    obs::ScopedSpan span("unit.throws");
    (void)span;
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(spans_named("unit.throws").size(), 1u);
  // Depth bookkeeping unwound too: a following span is top-level again.
  { COSMO_TRACE_SPAN("unit.after"); }
  const auto after = spans_named("unit.after");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].depth, 0);
}

TEST_F(Obs, MacroSpansNestViaCounter) {
  {
    COSMO_TRACE_SPAN("unit.a");
    COSMO_TRACE_SPAN("unit.b");  // same scope: distinct variable names
  }
  EXPECT_EQ(spans_named("unit.a").size(), 1u);
  EXPECT_EQ(spans_named("unit.b").size(), 1u);
}

TEST_F(Obs, FinishReturnsRecordedDuration) {
  obs::ScopedSpan span("unit.finish");
  const double d = span.finish();
  const auto found = spans_named("unit.finish");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_DOUBLE_EQ(found[0].seconds(), d);
  EXPECT_DOUBLE_EQ(span.finish(), 0.0);  // second finish is a no-op
}

TEST_F(Obs, TimedSpanLedgerMatchesTrace) {
  obs::TimedSpan t("unit.timed", "testcat");
  const double ledger = t.finish();
  const auto found = spans_named("unit.timed");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].cat, "testcat");
  if (found[0].seconds() > 0.0) {
    EXPECT_DOUBLE_EQ(found[0].seconds(), ledger);
  }
}

TEST_F(Obs, RingOverflowDropsOldestAndCounts) {
  obs::Tracer::instance().set_ring_capacity(8);
  // A fresh thread gets a fresh ring at the new capacity.
  std::thread([] {
    for (int i = 0; i < 20; ++i) {
      obs::ScopedSpan span("unit.ring" + std::to_string(i));
      (void)span;
    }
  }).join();
  obs::Tracer::instance().set_ring_capacity(
      obs::Tracer::kDefaultRingCapacity);
  std::size_t ring_spans = 0;
  for (const auto& s : obs::Tracer::instance().snapshot())
    if (s.name.rfind("unit.ring", 0) == 0) ++ring_spans;
  EXPECT_EQ(ring_spans, 8u);
  EXPECT_GE(obs::Tracer::instance().dropped(), 12u);
  // The survivors are the newest spans.
  EXPECT_TRUE(spans_named("unit.ring19").size() == 1u);
  EXPECT_TRUE(spans_named("unit.ring0").empty());
}

TEST_F(Obs, RuntimeDisableSuppressesRecording) {
  obs::Tracer::instance().set_enabled(false);
  { COSMO_TRACE_SPAN("unit.suppressed"); }
  // TimedSpan still measures with tracing off: cosmobench's measured rounds
  // and every untraced workflow take their phase times from it.
  obs::TimedSpan timed("unit.suppressed_timed", "cat");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double d = timed.finish();
  obs::Tracer::instance().set_enabled(true);
  EXPECT_GE(d, 0.004);
  EXPECT_TRUE(spans_named("unit.suppressed").empty());
  EXPECT_TRUE(spans_named("unit.suppressed_timed").empty());
}

// --- Chrome trace export ---------------------------------------------------

namespace json {

// Minimal JSON parser — just enough to validate the exporter's output
// (objects, arrays, strings with escapes, numbers, bools, null).
struct Parser {
  const std::string& s;
  std::size_t i = 0;

  explicit Parser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool literal(const char* lit) {
    const std::string l = lit;
    if (s.compare(i, l.size(), l) != 0) return false;
    i += l.size();
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s[i]))) digits = true;
      ++i;
    }
    return digits && i > start;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      if (!string()) return false;
      if (!eat(':')) return false;
      if (!value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool parse_document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

}  // namespace json

TEST_F(Obs, ChromeTraceExportIsWellFormedJson) {
  run_spmd(2, [&](Comm& c) {
    COSMO_TRACE_SPAN_CAT("unit.phase", "variant \"quoted\"\n");
    c.barrier();
  });
  std::ostringstream os;
  obs::Tracer::instance().export_chrome_trace(os);
  const std::string text = os.str();

  json::Parser p(text);
  EXPECT_TRUE(p.parse_document()) << "invalid JSON near offset " << p.i;

  // Structure: the trace-event envelope and our spans are present.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("unit.phase"), std::string::npos);
  // The category with quote + newline was escaped, not emitted raw.
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
}

TEST_F(Obs, SpansFromRankThreadsCarryTheRank) {
  run_spmd(3, [&](Comm& c) {
    COSMO_TRACE_SPAN("unit.ranked");
    c.barrier();
  });
  const auto found = spans_named("unit.ranked");
  ASSERT_EQ(found.size(), 3u);
  std::vector<int> ranks;
  for (const auto& s : found) ranks.push_back(s.rank);
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
}

// --- metrics ---------------------------------------------------------------

TEST_F(Obs, CounterShardsPerRankAndTotals) {
  run_spmd(4, [&](Comm& c) {
    for (int k = 0; k <= c.rank(); ++k) COSMO_COUNT("unit.work", 1);
    c.barrier();
  });
  auto& counter = obs::MetricsRegistry::instance().counter("unit.work");
  EXPECT_EQ(counter.total(), 10u);  // 1+2+3+4
  EXPECT_EQ(counter.local(0), 1u);
  EXPECT_EQ(counter.local(3), 4u);
  EXPECT_EQ(counter.local(-1), 0u);
}

TEST_F(Obs, CounterAggregationAcrossRanks) {
  run_spmd(4, [&](Comm& c) {
    COSMO_COUNT("unit.agg", c.rank() + 1);
    c.barrier();
    const auto a = obs::aggregate_counter(c, "unit.agg");
    EXPECT_EQ(a.sum, 10u);
    EXPECT_EQ(a.min, 1u);
    EXPECT_EQ(a.max, 4u);
  });
}

TEST_F(Obs, AggregateAllCountersCoversRegisteredNames) {
  run_spmd(2, [&](Comm& c) {
    COSMO_COUNT("unit.all_a", 1);
    COSMO_COUNT("unit.all_b", 2);
    c.barrier();
    const auto all = obs::aggregate_all_counters(c);
    bool saw_a = false, saw_b = false;
    for (const auto& [name, agg] : all) {
      if (name == "unit.all_a") {
        saw_a = true;
        EXPECT_EQ(agg.sum, 2u);
      }
      if (name == "unit.all_b") {
        saw_b = true;
        EXPECT_EQ(agg.sum, 4u);
      }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
  });
}

// --- the instrumented runtime ---------------------------------------------

TEST_F(Obs, CommInstrumentationCountsTraffic) {
  run_spmd(4, [&](Comm& c) {
    c.barrier();
    std::vector<double> payload(16, 1.0);
    if (c.rank() == 0) c.send<double>(1, 7, payload);
    if (c.rank() == 1) {
      const auto got = c.recv<double>(0, 7);
      EXPECT_EQ(got.size(), 16u);
    }
    c.barrier();
  });
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_GE(reg.counter("comm.barrier").total(), 8u);
  EXPECT_GE(reg.counter("comm.msgs_sent").total(), 1u);
  EXPECT_GE(reg.counter("comm.bytes_sent").total(), 16 * sizeof(double));
  EXPECT_GE(reg.counter("comm.msgs_recv").total(), 1u);
  // The spmd runtime put one span on every rank thread.
  EXPECT_EQ(spans_named("spmd.rank").size(), 4u);
}

TEST_F(Obs, SummaryAggregatesPerName) {
  { COSMO_TRACE_SPAN("unit.sum"); }
  { COSMO_TRACE_SPAN("unit.sum"); }
  const auto summary = obs::Tracer::instance().summary();
  bool found = false;
  for (const auto& st : summary) {
    if (st.name != "unit.sum") continue;
    found = true;
    EXPECT_EQ(st.count, 2u);
    EXPECT_GE(st.total_s, st.max_s);
    EXPECT_LE(st.mean_s(), st.max_s);
  }
  EXPECT_TRUE(found);
}

TEST_F(Obs, PrintSummaryAndMetricsProduceOutput) {
  { COSMO_TRACE_SPAN("unit.print"); }
  COSMO_COUNT("unit.print_counter", 3);
  std::ostringstream t, m;
  obs::Tracer::instance().print_summary(t);
  obs::MetricsRegistry::instance().print(m);
  EXPECT_NE(t.str().find("unit.print"), std::string::npos);
  EXPECT_NE(m.str().find("unit.print_counter"), std::string::npos);
}

}  // namespace
