#include "policy/compile.h"

namespace sdx::policy {

Classifier CompilePredicate(const Predicate& predicate) {
  switch (predicate.kind()) {
    case Predicate::Kind::kTrue:
      return Classifier::PassAll();
    case Predicate::Kind::kFalse:
      return Classifier::DropAll();
    case Predicate::Kind::kTest:
      return Classifier::Permit(predicate.test());
    case Predicate::Kind::kAnd:
      // Conjunction is sequential composition of filters.
      return CompilePredicate(predicate.left())
          .Sequential(CompilePredicate(predicate.right()));
    case Predicate::Kind::kOr:
      // Disjunction is parallel composition; stay actions dedupe to one.
      return CompilePredicate(predicate.left())
          .Parallel(CompilePredicate(predicate.right()));
    case Predicate::Kind::kNot:
      return CompilePredicate(predicate.operand()).Negate();
  }
  return Classifier::DropAll();
}

Classifier Compile(const Policy& policy) {
  switch (policy.kind()) {
    case Policy::Kind::kDrop:
      return Classifier::DropAll();
    case Policy::Kind::kIdentity:
      return Classifier::PassAll();
    case Policy::Kind::kFilter:
      return CompilePredicate(policy.predicate());
    case Policy::Kind::kMod:
      return Classifier::Always(
          dataplane::Action{policy.rewrites(), net::kNoPort});
    case Policy::Kind::kFwd:
      return Classifier::Always(
          dataplane::Action{dataplane::Rewrites(), policy.port()});
    case Policy::Kind::kParallel:
      return Compile(policy.left()).Parallel(Compile(policy.right()));
    case Policy::Kind::kSequential:
      return Compile(policy.left()).Sequential(Compile(policy.right()));
    case Policy::Kind::kIf: {
      Classifier guard = CompilePredicate(policy.predicate());
      Classifier then_branch = guard.Sequential(Compile(policy.left()));
      Classifier else_branch =
          guard.Negate().Sequential(Compile(policy.right()));
      return then_branch.Parallel(else_branch);
    }
  }
  return Classifier::DropAll();
}

std::vector<Classifier> CompileBatch(const std::vector<Policy>& policies,
                                     util::ThreadPool* pool) {
  std::vector<Classifier> out(policies.size());
  if (pool == nullptr) {
    for (std::size_t i = 0; i < policies.size(); ++i) {
      out[i] = Compile(policies[i]);
    }
    return out;
  }
  pool->ParallelFor(policies.size(),
                    [&](std::size_t i) { out[i] = Compile(policies[i]); });
  return out;
}

}  // namespace sdx::policy
