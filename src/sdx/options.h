// Consolidated runtime configuration (the knob surface of SdxRuntime).
//
// Every per-runtime behavior knob lives in one RuntimeOptions value applied
// atomically through SdxRuntime::Configure, which journals the change and
// returns the previous options.
#pragma once

#include <cstddef>

#include "dataplane/flow_table.h"

namespace sdx::core {

// How FullCompile runs. Defaults give the fastest correct behavior: fan
// work out across SDX_COMPILE_THREADS (or hardware) cores and reuse every
// memoized result whose inputs provably did not change. Both paths are
// behavior-equivalent to a sequential from-scratch compile (tests/oracle).
struct CompileOptions {
  bool incremental = true;  // reuse unchanged state across FullCompile calls
  // Worker pool size for the parallelizable stages; 1 compiles inline on
  // the calling thread, 0 = util::ThreadPool::DefaultThreadCount().
  int threads = 0;

  friend bool operator==(const CompileOptions&, const CompileOptions&) =
      default;
};

// The whole knob surface in one value. Defaults reproduce a freshly
// constructed runtime.
struct RuntimeOptions {
  CompileOptions compile;
  // Auto-flush threshold for EnqueueUpdate, in raw (pre-coalesce) updates;
  // 0 = only an explicit Flush()/ApplyUpdates() drains the queue.
  std::size_t batch_window = 0;
  // Data-plane lookup backend (DESIGN.md §11): kCompiled is the production
  // fast path, kLinear the reference scan the equivalence oracle uses.
  dataplane::FlowTable::Backend backend =
      dataplane::FlowTable::Backend::kCompiled;

  friend bool operator==(const RuntimeOptions&, const RuntimeOptions&) =
      default;
};

}  // namespace sdx::core
