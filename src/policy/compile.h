// Policy → classifier compilation.
//
// The recursive Pyretic algorithm: leaves compile to one- or two-rule
// classifiers; composite nodes compose their children's classifiers.
//
// CompileBatch fans independent compilations out across a thread pool with
// a deterministic merge: results come back in input order no matter how the
// work was scheduled, so parallel compilation is byte-identical to running
// Compile in a loop.
#pragma once

#include <vector>

#include "policy/classifier.h"
#include "policy/policy.h"
#include "policy/predicate.h"
#include "util/thread_pool.h"

namespace sdx::policy {

// Compiles a predicate to a permit/drop classifier.
Classifier CompilePredicate(const Predicate& predicate);

// Compiles a policy to a total classifier.
Classifier Compile(const Policy& policy);

// Compiles policies[i] for every i across `pool` (the caller participates);
// result[i] == Compile(policies[i]). A null pool compiles inline.
std::vector<Classifier> CompileBatch(const std::vector<Policy>& policies,
                                     util::ThreadPool* pool);

}  // namespace sdx::policy
