// Random plan-eligible interface types, shared by the suites that sweep
// the specializer's input space (the three-tier differential suite and
// the shape-probe suite).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "idl/types.h"

namespace tempo::test {

// The specializer only residualizes types whose layout is static once
// the variable-array counts are pinned: scalars, fixed opaques, structs,
// fixed arrays, and variable arrays whose *element* layout is fixed.
// Strings / optionals / unions stay on the generic path, and variable
// arrays must not nest under another array (their count would multiply).
inline idl::TypePtr random_eligible_type(Rng& rng, int depth,
                                         bool allow_var) {
  using namespace idl;
  // Leaf-only once nested two deep, to keep shapes bounded.
  const std::uint32_t kinds = depth >= 2 ? 8u : (allow_var ? 11u : 10u);
  switch (rng.next_below(kinds)) {
    case 0: return t_int();
    case 1: return t_uint();
    case 2: return t_bool();
    case 3: return t_hyper();
    case 4: return t_uhyper();
    case 5: return t_float();
    case 6: return t_double();
    case 7:
      // 1..17 exercises every pad4 tail residue.
      return t_opaque_fixed(1 + rng.next_below(17));
    case 8: {
      std::vector<Field> fields;
      const std::uint32_t n = 1 + rng.next_below(4);
      for (std::uint32_t i = 0; i < n; ++i) {
        fields.push_back({"f" + std::to_string(i),
                          random_eligible_type(rng, depth + 1, allow_var)});
      }
      return t_struct("s" + std::to_string(depth), std::move(fields));
    }
    case 9:
      return t_array_fixed(random_eligible_type(rng, depth + 1, false),
                           1 + rng.next_below(6));
    default:
      // Bounds past ~85 push iterations*body over the JIT's full-unroll
      // threshold, so kept loops get native coverage too.
      return t_array_var(random_eligible_type(rng, depth + 1, false),
                         1 + rng.next_below(300));
  }
}

}  // namespace tempo::test
