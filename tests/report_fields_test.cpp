// Field coverage of the declared field lists (core/report_fields.hpp).
//
// For every report struct: bumping any declared field moves hash()
// unless the field is declared JSON-only, and moves json() (and shows
// its key) unless it is declared hash-only.  The declared fields must
// also tile the struct's bytes up to alignment padding, so a member left
// out of fields() fails here instead of silently dropping out of the
// replay hash.  For CostModel: operator+= sums every declared field and
// reset_fault_counters() zeroes exactly the fault group.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/report_fields.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "network/cost_model.hpp"
#include "service/router/pool_router.hpp"
#include "service/router/router_report.hpp"
#include "service/service_report.hpp"
#include "stream/stream_report.hpp"

namespace prodsort {
namespace {

enum class Role { kBoth, kHashOnly, kJsonOnly };

struct Leaf {
  std::string name;
  Role role;
};

/// One declared value's bytes: a scalar, or a vector/string as a whole.
struct Region {
  std::uintptr_t addr;
  std::size_t size;
  std::size_t align;
};

/// Walks a declared field list in place.  Records every scalar leaf
/// (with the role it inherits from an enclosing hash_only list) and the
/// bytes of every declared value; bumps leaf number `target`.
class Bumper {
 public:
  explicit Bumper(int target = -1) : target_(target) {}

  template <class T, class... Opt>
  void operator()(const char* name, T& value, const Opt&... opt) {
    visit(name, role_, value, opt...);
  }
  template <class T, class... Opt>
  void hash_only(const char* name, T& value, const Opt&... opt) {
    visit(name, Role::kHashOnly, value, opt...);
  }
  template <class T>
  void json_only(const char* name, T& value) {
    visit(name, Role::kJsonOnly, value);
  }
  void micro(const char* name, double& value) { leaf(name, role_, value); }
  /// Labels flip between 0 and 1, the values every labeled enum names.
  template <class T, class Text>
  void label(const char* name, T& value, const Text& /*text*/) {
    leaf(name, role_, value, /*toggle=*/true);
  }

  std::vector<Leaf> leaves;
  std::vector<Region> regions;

 private:
  template <class T>
  void region(const T& value) {
    regions.push_back({reinterpret_cast<std::uintptr_t>(&value), sizeof(T),
                       alignof(T)});
  }
  template <class T, class... Opt>
  void visit(const char* name, Role role, T& value, const Opt&... opt) {
    if constexpr (kIsVector<T>) {
      region(value);
      for (auto& item : value) nested(role, item, opt...);
    } else if constexpr (std::is_class_v<T> &&
                         !std::is_same_v<T, std::string>) {
      nested(role, value, opt...);
    } else {
      leaf(name, role, value);
    }
  }
  template <class T, class... Opt>
  void nested(Role role, T& item, const Opt&... opt) {
    const Role outer = role_;
    role_ = role;
    visit_fields(*this, item, opt...);
    role_ = outer;
  }
  template <class T>
  void leaf(const char* name, Role role, T& value, bool toggle = false) {
    region(value);
    leaves.push_back({name, role});
    if (static_cast<int>(leaves.size()) - 1 != target_) return;
    if constexpr (std::is_same_v<T, std::string>)
      value += "x";
    else if constexpr (std::is_same_v<T, bool>)
      value = !value;
    else if constexpr (std::is_floating_point_v<T>)
      value += 0.5;
    else if constexpr (std::is_enum_v<T>)
      value = value == T{} ? static_cast<T>(1) : T{};
    else
      value = toggle ? (value == 0 ? 1 : 0) : value + 1;
  }

  int target_;
  Role role_ = Role::kBoth;
};

/// json() without its trailing "hash" key (which moves with any hashed
/// field, printed or not).
std::string without_hash(const std::string& json) {
  return json.substr(0, json.rfind(",\"hash\":"));
}

template <class Report>
void expect_every_field_covered(const Report& base) {
  Bumper walk;
  Report scratch = base;
  Report::fields(walk, scratch);
  ASSERT_FALSE(walk.leaves.empty());
  const std::uint64_t base_hash = base.hash();
  const std::string base_json = without_hash(base.json());
  for (std::size_t k = 0; k < walk.leaves.size(); ++k) {
    const Leaf& leaf = walk.leaves[k];
    SCOPED_TRACE("field #" + std::to_string(k) + " " + leaf.name);
    Report bumped = base;
    Bumper bump(static_cast<int>(k));
    Report::fields(bump, bumped);
    const std::string json = without_hash(bumped.json());
    EXPECT_EQ(bumped.hash() != base_hash, leaf.role != Role::kJsonOnly);
    EXPECT_EQ(json != base_json, leaf.role != Role::kHashOnly);
    if (leaf.role != Role::kHashOnly) {
      EXPECT_NE(json.find("\"" + leaf.name + "\":"), std::string::npos);
    }
  }
}

/// The declared values of a default `S` cover every byte of it except
/// the padding alignment forces between and after them.
template <class S, class... Opt>
void expect_declared_layout(const Opt&... opt) {
  S s{};
  Bumper walk;
  S::fields(walk, s, opt...);
  const auto base = reinterpret_cast<std::uintptr_t>(&s);
  std::vector<Region> own;
  for (const Region& r : walk.regions)
    if (r.addr >= base && r.addr < base + sizeof(S)) own.push_back(r);
  std::sort(own.begin(), own.end(),
            [](const Region& a, const Region& b) { return a.addr < b.addr; });
  const auto align_up = [](std::size_t at, std::size_t align) {
    return (at + align - 1) / align * align;
  };
  std::size_t end = 0;
  for (const Region& r : own) {
    const std::size_t offset = r.addr - base;
    EXPECT_EQ(offset, align_up(end, r.align))
        << "undeclared bytes before offset " << offset;
    end = offset + r.size;
  }
  EXPECT_EQ(align_up(end, alignof(S)), sizeof(S))
      << "undeclared bytes after offset " << end;
}

// --- reports ---------------------------------------------------------------

BackendHealth one_backend() {
  BackendHealth b;
  b.sdc_nodes = {{4, 2}};
  return b;
}

JobRecord one_job() {
  JobRecord job;
  job.spec.tenant = 1;
  return job;
}

TEST(ReportFields, ServiceReportCoversEveryField) {
  ServiceReport report;
  report.backends = {one_backend()};
  report.jobs = {one_job()};
  expect_every_field_covered(report);
}

TEST(ReportFields, RouterReportCoversEveryField) {
  RouterReport report;
  report.tenants.resize(1);
  report.pools.resize(1);
  report.pools[0].backends = {one_backend()};
  report.jobs = {one_job()};
  expect_every_field_covered(report);
}

TEST(ReportFields, StreamReportCoversEveryField) {
  expect_every_field_covered(StreamReport{});
}

TEST(ReportFields, DeclaredFieldsTileEveryStruct) {
  expect_declared_layout<StreamReport>();
  expect_declared_layout<ServiceReport>();
  expect_declared_layout<RouterReport>();
  expect_declared_layout<TenantStats>();
  expect_declared_layout<PoolHealth>();
  expect_declared_layout<BackendHealth>(/*with_sdc_nodes=*/true);
  expect_declared_layout<LatencyStats>();
  expect_declared_layout<CostModel>();
  // JobRecord folds only the spec's id and tenant (the rest follows
  // from the seed and the id), so it can't tile; pin its leaf count.
  JobRecord job;
  Bumper walk;
  JobRecord::fields(walk, job, /*with_tenant=*/true);
  EXPECT_EQ(walk.leaves.size(), 11u);
}

// ServiceReport folds and prints each backend's sdc_nodes, RouterReport
// does neither; only RouterReport folds each job's tenant.
TEST(ReportFields, PerReportVariantsOfSharedStructs) {
  ServiceReport service;
  service.backends = {one_backend()};
  EXPECT_NE(service.json().find("\"sdc_nodes\":[{\"node\":4,\"hits\":2}]"),
            std::string::npos);
  RouterReport router;
  router.pools.resize(1);
  router.pools[0].backends = {one_backend()};
  const std::uint64_t before = router.hash();
  router.pools[0].backends[0].sdc_nodes.clear();
  EXPECT_EQ(router.hash(), before);
  EXPECT_EQ(router.json().find("sdc_nodes"), std::string::npos);

  router.jobs = {JobRecord{}};
  service.jobs = {JobRecord{}};
  const std::uint64_t router_hash = router.hash();
  const std::uint64_t service_hash = service.hash();
  router.jobs[0].spec.tenant = 1;
  service.jobs[0].spec.tenant = 1;
  EXPECT_NE(router.hash(), router_hash);
  EXPECT_EQ(service.hash(), service_hash);
}

// --- JSON strings ----------------------------------------------------------

TEST(ReportJson, TenantNamesAreEscaped) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  RouterConfig config;
  config.seed = 11;
  config.jobs = 6;
  config.tenants = {{"a\"b\\c\n", 1.0, 4, 8}, {"tenant0", 1.0, 4, 8}};
  std::vector<PoolSpec> pools(1);
  pools[0].backends.resize(1);
  PoolRouter router(pg, config, pools, &oet);
  const std::string json = router.run().json();
  EXPECT_NE(json.find(R"("name":"a\"b\\c\u000a")"), std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("name":"tenant0")"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ReportJson, ControlCharactersAreEscaped) {
  TenantStats tenant;
  tenant.name = std::string("\x01\x1f\t", 3);
  RouterReport report;
  report.tenants = {tenant};
  EXPECT_NE(report.json().find(R"("name":"\u0001\u001f\u0009")"),
            std::string::npos);
}

// --- CostModel -------------------------------------------------------------

TEST(CostModelFields, PlusEqualsSumsEveryDeclaredField) {
  CostModel a;
  CostModel b;
  int i = 0;
  CostModel::fields(
      [&i](const char*, auto& x, auto& y) {
        ++i;
        x = i;
        y = 100 * i;
      },
      a, b);
  EXPECT_EQ(i, 21);
  CostModel sum = a;
  sum += b;
  CostModel::fields(
      [](const char* name, const auto& s, const auto& x, const auto& y) {
        EXPECT_EQ(s, x + y) << name;
      },
      sum, a, b);
}

TEST(CostModelFields, ResetZeroesExactlyTheFaultGroup) {
  const std::set<std::string> fault_group = {
      "retries",       "reroutes",   "degraded_phases", "recovery_steps",
      "crashes",       "reexec_phases", "checkpoints",  "checkpoint_steps",
      "rollbacks",     "remap_sorts",   "tmr_phases",   "tmr_masked",
      "repair_passes", "cert_steps",    "certificates"};
  CostModel before;
  int i = 0;
  CostModel::fields([&i](const char*, auto& x) { x = ++i; }, before);
  std::set<std::string> declared;
  CostModel::fault_fields(
      [&declared](const char* name, auto&) { declared.insert(name); },
      before);
  EXPECT_EQ(declared, fault_group);

  CostModel after = before;
  after.reset_fault_counters();
  CostModel::fields(
      [&](const char* name, const auto& got, const auto& old) {
        if (fault_group.count(name) != 0)
          EXPECT_EQ(got, 0) << name;
        else
          EXPECT_EQ(got, old) << name;
      },
      after, before);
}

}  // namespace
}  // namespace prodsort
