#include "src/sim/cpu.hpp"

#include <gtest/gtest.h>

#include "src/obs/trace.hpp"

namespace rasc::sim {
namespace {

/// Test process executing a fixed list of segment durations.
class ScriptedProcess final : public Process {
 public:
  ScriptedProcess(std::string name, int priority, std::vector<Duration> segments,
                  Simulator& sim)
      : Process(std::move(name), priority), segments_(std::move(segments)), sim_(sim) {}

  std::optional<Segment> next_segment() override {
    if (next_ >= segments_.size()) return std::nullopt;
    const Duration d = segments_[next_++];
    return Segment{d, [this] { completions_.push_back(sim_.now()); }};
  }

  const std::vector<Time>& completions() const { return completions_; }

 private:
  std::vector<Duration> segments_;
  std::size_t next_ = 0;
  Simulator& sim_;
  std::vector<Time> completions_;
};

TEST(Cpu, RunsSegmentsBackToBack) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {10, 20, 30}, sim);
  cpu.make_ready(p);
  sim.run();
  EXPECT_EQ(p.completions(), (std::vector<Time>{10, 30, 60}));
  EXPECT_EQ(cpu.consumed("p"), 60u);
}

TEST(Cpu, HigherPriorityWinsAtDispatch) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess low("low", 1, {10}, sim);
  ScriptedProcess high("high", 9, {10}, sim);
  cpu.make_ready(low);
  cpu.make_ready(high);
  sim.run();
  EXPECT_EQ(high.completions()[0], 10u);
  EXPECT_EQ(low.completions()[0], 20u);
}

TEST(Cpu, SegmentIsNotPreempted) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess long_task("long", 1, {100}, sim);
  ScriptedProcess urgent("urgent", 9, {5}, sim);
  cpu.make_ready(long_task);
  // Urgent work arrives mid-segment: must wait for the segment boundary.
  sim.schedule_at(50, [&] { cpu.make_ready(urgent); });
  sim.run();
  EXPECT_EQ(long_task.completions()[0], 100u);
  EXPECT_EQ(urgent.completions()[0], 105u);
}

TEST(Cpu, PreemptionAtSegmentBoundary) {
  Simulator sim;
  Cpu cpu(sim);
  // Low-priority work split into small segments (interruptible).
  ScriptedProcess chunks("chunks", 1, {10, 10, 10, 10}, sim);
  ScriptedProcess urgent("urgent", 9, {5}, sim);
  cpu.make_ready(chunks);
  sim.schedule_at(12, [&] { cpu.make_ready(urgent); });
  sim.run();
  // Urgent runs after the in-flight chunk [10,20) finishes.
  EXPECT_EQ(urgent.completions()[0], 25u);
  EXPECT_EQ(chunks.completions().back(), 45u);
}

TEST(Cpu, FifoAmongEqualPriorities) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess a("a", 5, {10}, sim);
  ScriptedProcess b("b", 5, {10}, sim);
  cpu.make_ready(a);
  cpu.make_ready(b);
  sim.run();
  EXPECT_LT(a.completions()[0], b.completions()[0]);
}

TEST(Cpu, ParkedProcessCanBeReactivated) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess once("once", 1, {10}, sim);
  cpu.make_ready(once);
  sim.run();
  ASSERT_EQ(once.completions().size(), 1u);
  // Re-activating a process with no work is harmless.
  cpu.make_ready(once);
  sim.run();
  EXPECT_EQ(once.completions().size(), 1u);
}

TEST(Cpu, MakeReadyIsIdempotentWhileQueued) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {10}, sim);
  cpu.make_ready(p);
  cpu.make_ready(p);
  cpu.make_ready(p);
  sim.run();
  EXPECT_EQ(p.completions().size(), 1u);
}

TEST(Cpu, RemoveDequeues) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess a("a", 1, {10}, sim);
  ScriptedProcess b("b", 2, {10}, sim);
  cpu.make_ready(a);
  cpu.make_ready(b);
  cpu.remove(b);
  sim.run();
  EXPECT_EQ(a.completions().size(), 1u);
  EXPECT_TRUE(b.completions().empty());
}

TEST(Cpu, BusyReflectsRunningSegment) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {100}, sim);
  cpu.make_ready(p);
  bool was_busy = false;
  Time busy_until = 0;
  sim.schedule_at(50, [&] {
    was_busy = cpu.busy();
    busy_until = cpu.busy_until();
  });
  sim.run();
  EXPECT_TRUE(was_busy);
  EXPECT_EQ(busy_until, 100u);
  EXPECT_FALSE(cpu.busy());
}

TEST(Cpu, ConsumedUnknownProcessIsZero) {
  Simulator sim;
  Cpu cpu(sim);
  EXPECT_EQ(cpu.consumed("ghost"), 0u);
}

TEST(Cpu, SegmentsReportToAttachedTraceSink) {
  Simulator sim;
  obs::TraceSink sink;
  obs::Observer observer(&sink);
  sim.set_observer(&observer);
  Cpu cpu(sim);
  cpu.set_trace_track("cpu/test");
  ScriptedProcess p("worker", 1, {10, 20}, sim);
  cpu.make_ready(p);
  sim.run();
  const auto spans = sink.spans_named("worker");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].track, "cpu/test");
  EXPECT_EQ(spans[0].start, 0u);
  EXPECT_EQ(spans[0].end, 10u);
  EXPECT_EQ(spans[1].start, 10u);
  EXPECT_EQ(spans[1].end, 30u);
}

}  // namespace
}  // namespace rasc::sim
