// Differential proof for the scheduler-layer policy/mechanism split: every
// pre-existing scheduler must produce *bit-identical* results before and
// after the refactor. The proof is a golden file captured on the
// pre-refactor tree (tests/golden/scheduler_equiv.tsv): for each
// (scheduler, scenario, fault-plan) cell of a randomized grid the test runs
// the simulation with a FlowAuditProbe and an always-dump
// FlightRecorderProbe attached and asserts that
//
//   - the SimReport JSON,
//   - the flow-audit table JSON (exact per-flow counters), and
//   - the flight-recorder event sequence JSON
//
// hash to the CRC32s recorded in the golden file. Fault cells use
// random_fault_plan schedules, so drain/remap, rehash, and emergency-grant
// paths are all pinned.
//
// Regenerating (only legitimate when a PR *intends* to change scheduler
// behaviour): run the binary with LAPS_REGEN_GOLDEN=1; the Regenerate test
// rewrites the golden file and every comparison case then passes against
// the fresh capture. A regenerated golden must be called out in review.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "baselines/adaptive_hash.h"
#include "baselines/afs.h"
#include "baselines/batch.h"
#include "baselines/fcfs.h"
#include "baselines/oracle_topk.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"
#include "util/crc.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

const char* kGoldenPath = LAPS_SOURCE_DIR "/tests/golden/scheduler_equiv.tsv";

// ------------------------------------------------------------- the grid ---

enum class Kind {
  kFcfs,
  kStaticHash,
  kAfs,
  kAdaptive,
  kCombined,
  kBatch,
  kOracle,
  kLaps,
  kLapsGated,
};

constexpr Kind kAllKinds[] = {
    Kind::kFcfs,     Kind::kStaticHash, Kind::kAfs,
    Kind::kAdaptive, Kind::kCombined,   Kind::kBatch,
    Kind::kOracle,   Kind::kLaps,       Kind::kLapsGated,
};

std::string kind_label(Kind kind) {
  switch (kind) {
    case Kind::kFcfs: return "FCFS";
    case Kind::kStaticHash: return "StaticHash";
    case Kind::kAfs: return "AFS";
    case Kind::kAdaptive: return "AdaptiveHash";
    case Kind::kCombined: return "Adaptive+AFD";
    case Kind::kBatch: return "Batch";
    case Kind::kOracle: return "OracleTop16";
    case Kind::kLaps: return "LAPS";
    case Kind::kLapsGated: return "LAPS+power";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_kind(Kind kind, std::size_t num_services) {
  switch (kind) {
    case Kind::kFcfs: return std::make_unique<FcfsScheduler>();
    case Kind::kStaticHash: return std::make_unique<StaticHashScheduler>();
    case Kind::kAfs: return std::make_unique<AfsScheduler>();
    case Kind::kAdaptive: return std::make_unique<AdaptiveHashScheduler>();
    case Kind::kCombined: return std::make_unique<CombinedAdaptiveScheduler>();
    case Kind::kBatch: return std::make_unique<BatchScheduler>();
    case Kind::kOracle: return std::make_unique<OracleTopKScheduler>(16);
    case Kind::kLaps: {
      LapsConfig cfg;
      cfg.num_services = num_services;
      return std::make_unique<LapsScheduler>(cfg);
    }
    case Kind::kLapsGated: {
      LapsConfig cfg;
      cfg.num_services = num_services;
      cfg.power_gating = true;
      return std::make_unique<LapsScheduler>(cfg);
    }
  }
  return nullptr;
}

// gtest has no printer for Cell, so --gtest_list_tests shows each case's raw
// object bytes and gtest_discover_tests copies that text into the ctest
// name. Every byte of a Cell is therefore a zero-filled member: with a
// std::string member and padding after `kind`, the names carried heap
// pointer bits and changed from build to build under ASLR. `name_tag` fills
// the old padding slot with the value that reproduces the prefix the grid's
// names were first registered under; `scenario` is sized so the record
// keeps its registered 48-byte image.
struct Cell {
  Kind kind;
  std::uint32_t name_tag = 0x51;
  char scenario[39] = {};  // NUL-terminated: "T1", "T5", or "single:caida1"
  bool faulted = false;
};
static_assert(sizeof(Cell) == 48 &&
                  std::has_unique_object_representations_v<Cell>,
              "Cell must stay a 48-byte record without padding");

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (Kind kind : kAllKinds) {
    for (const char* scenario : {"T1", "T5", "single:caida1"}) {
      for (bool faulted : {false, true}) {
        Cell cell{};
        cell.kind = kind;
        std::strncpy(cell.scenario, scenario, sizeof cell.scenario - 1);
        cell.faulted = faulted;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::string cell_key(const Cell& cell) {
  return kind_label(cell.kind) + "|" + cell.scenario + "|" +
         (cell.faulted ? "faults" : "clean");
}

// ----------------------------------------------------------- one capture ---

struct Capture {
  std::uint32_t report_crc = 0;
  std::uint32_t audit_crc = 0;
  std::uint32_t flight_crc = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t migrations = 0;
};

std::uint32_t crc_of(const std::string& s) {
  return crc32_ieee({reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size()});
}

Capture run_cell(const Cell& cell) {
  ScenarioOptions options;
  options.seconds = 0.01;
  options.num_cores = 16;
  // Seed derived from the cell so every cell sees distinct traffic and a
  // distinct fault schedule.
  options.seed = mix64(crc_of(cell_key(cell)));

  ScenarioConfig config;
  std::size_t num_services = kNumServices;
  const std::string scenario = cell.scenario;
  if (scenario.rfind("single:", 0) == 0) {
    num_services = 1;
    config = make_single_service_scenario(scenario.substr(7), options);
  } else {
    config = make_paper_scenario(scenario, options);
  }
  if (cell.faulted) {
    RandomFaultParams params;
    params.horizon = from_seconds(options.seconds);
    params.num_cores = options.num_cores;
    config.faults = std::make_shared<const FaultPlan>(
        random_fault_plan(options.seed, params));
  }

  auto scheduler = make_kind(cell.kind, num_services);

  FlowAuditProbe audit(FlowAuditProbe::Options{16, 0});
  FlightRecorderConfig flight_cfg;
  flight_cfg.always_dump = true;
  FlightRecorderProbe flight(flight_cfg);
  ProbeSet extra;
  extra.add(&audit);
  extra.add(&flight);

  const SimReport report = run_scenario(config, *scheduler, extra);

  Capture cap;
  cap.report_crc = crc_of(report_to_json(report));
  cap.audit_crc = crc_of(audit.to_json());
  cap.flight_crc = crc_of(flight.to_json());
  cap.offered = report.offered;
  cap.delivered = report.delivered;
  cap.dropped = report.dropped;
  cap.out_of_order = report.out_of_order;
  cap.migrations = report.flow_migrations;
  return cap;
}

// ----------------------------------------------------------- golden file ---

std::string capture_line(const std::string& key, const Capture& c) {
  std::ostringstream out;
  out << key << '\t' << c.report_crc << '\t' << c.audit_crc << '\t'
      << c.flight_crc << '\t' << c.offered << '\t' << c.delivered << '\t'
      << c.dropped << '\t' << c.out_of_order << '\t' << c.migrations;
  return out.str();
}

std::map<std::string, std::string> load_golden() {
  std::ifstream in(kGoldenPath);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    lines[line.substr(0, tab)] = line;
  }
  return lines;
}

bool regen_requested() {
  const char* env = std::getenv("LAPS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Rewrites the golden file from the current tree. Skipped unless
// LAPS_REGEN_GOLDEN=1: regeneration means "I intend to change scheduler
// behaviour", never a routine test run.
TEST(SchedulerEquivGolden, Regenerate) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kGoldenPath;
  }
  std::ofstream out(kGoldenPath, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
  out << "# scheduler-equivalence goldens: key, CRC32(report JSON), "
         "CRC32(flow-audit JSON), CRC32(flight-recorder JSON), offered, "
         "delivered, dropped, ooo, migrations\n"
      << "# regenerate with: LAPS_REGEN_GOLDEN=1 ./scheduler_equiv_test "
         "--gtest_filter='SchedulerEquivGolden.Regenerate'\n";
  for (const Cell& cell : grid()) {
    out << capture_line(cell_key(cell), run_cell(cell)) << "\n";
  }
  ASSERT_TRUE(out.good());
}

// ------------------------------------------------------- comparison cases ---

class SchedulerEquiv : public ::testing::TestWithParam<Cell> {};

TEST_P(SchedulerEquiv, BitIdenticalToGolden) {
  if (regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  const Cell& cell = GetParam();
  const auto golden = load_golden();
  const std::string key = cell_key(cell);
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end())
      << "no golden entry for '" << key << "' in " << kGoldenPath
      << " — regenerate with LAPS_REGEN_GOLDEN=1 (and justify it in review)";
  EXPECT_EQ(it->second, capture_line(key, run_cell(cell)))
      << "scheduler behaviour diverged from the pre-refactor golden for '"
      << key << "'. A CRC mismatch in column 2/3/4 means the report / "
      << "flow-audit / flight-recorder bytes changed.";
}

std::string cell_test_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = cell_key(info.param);
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, SchedulerEquiv, ::testing::ValuesIn(grid()),
                         cell_test_name);

}  // namespace
}  // namespace laps
