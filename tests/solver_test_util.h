// Helpers shared by the solver and sweep test suites: the ACloud-shaped
// benchmark model and sanitizer detection for wall-clock-sensitive
// assertions.
#ifndef COLOGNE_TESTS_SOLVER_TEST_UTIL_H_
#define COLOGNE_TESTS_SOLVER_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "solver/model.h"

namespace cologne::solver {

// True when compiled with ASan or TSan. Sanitizer instrumentation slows
// search nodes 10-50x, so wall-clock-budgeted assertions are skipped (their
// deterministic node-budget variants always run) and stress loops shrink
// their fixed work to fit the ctest timeout.
inline constexpr bool kSanitizerBuild =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

// ACloud-shaped model: `vms` VMs on `hosts` hosts via 0/1 decision
// variables, exactly one host per VM, minimize the squared load imbalance.
inline std::unique_ptr<Model> MakeACloudModel(int vms, int hosts) {
  auto m = std::make_unique<Model>();
  std::vector<std::vector<IntVar>> v(static_cast<size_t>(vms));
  for (int i = 0; i < vms; ++i) {
    LinExpr one;
    for (int h = 0; h < hosts; ++h) {
      IntVar b = m->NewBool();
      m->MarkDecision(b);
      v[static_cast<size_t>(i)].push_back(b);
      one += LinExpr(b);
    }
    m->PostRel(one, Rel::kEq, LinExpr(1));
  }
  LinExpr obj;
  for (int h = 0; h < hosts; ++h) {
    LinExpr load;
    for (int i = 0; i < vms; ++i) {
      load += LinExpr::Term(10 + (i * 13) % 50,
                            v[static_cast<size_t>(i)][static_cast<size_t>(h)]);
    }
    obj += LinExpr(m->MakeSquare(load));
  }
  m->Minimize(obj);
  return m;
}

}  // namespace cologne::solver

#endif  // COLOGNE_TESTS_SOLVER_TEST_UTIL_H_
