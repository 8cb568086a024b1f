// Flattened user-data layout for specialized stubs.
//
// Residual plans do not walk C++ objects; they copy between the wire
// buffer and a flat block of 32-bit slots whose layout is a *static*
// function of the interface type (plus the per-specialization array
// counts).  This mirrors what Tempo's residual C code does: it addresses
// argument memory at fixed offsets computed at specialization time.
//
// Layout rules (preorder over the type):
//  * int/uint/bool/enum/float: 1 slot (float bits in the slot),
//  * hyper/uhyper/double: 2 slots, most-significant word first,
//  * fixed opaque[n]: pad4(n)/4 slots holding the raw bytes,
//  * struct: fields in order,
//  * fixed array[n]: n * slots(elem),
//  * variable array<bound>: count0 * slots(elem) where count0 is the
//    *specialization-time* count (the count itself is not stored in the
//    block; the plan writes it as a constant),
//  * string / optional / union: not plan-eligible (the specializing stub
//    front end falls back to the generic path for these).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "idl/types.h"
#include "idl/value.h"
#include "xdr/xdr.h"

namespace tempo::pe {

using Slots = std::vector<std::uint32_t>;

// True if the type can be laid out as slots (everything except
// string/optional/union/var-opaque anywhere inside).
bool plan_eligible(const idl::Type& t);

// Number of variable-array counts that must be pinned at specialization
// time (preorder).  Nested variable arrays (a var array inside a var
// array element) are not eligible; this returns kInvalidArgument then.
Result<std::uint32_t> count_params(const idl::Type& t);

// Slot count given pinned counts (consumed in preorder).
Result<std::int64_t> type_slots(const idl::Type& t,
                                std::span<const std::uint32_t> counts);

// Value -> slots.  Fails if the value's variable-array sizes do not
// match `counts` (the run-time guard for guarded specialization).
Status flatten_value(const idl::Type& t, const idl::Value& v,
                     std::span<const std::uint32_t> counts, Slots& out);

// Slots -> value (sizes taken from `counts`).
Result<idl::Value> unflatten_value(const idl::Type& t,
                                   std::span<const std::uint32_t> counts,
                                   std::span<const std::uint32_t> slots);

// Extracts the preorder var-array counts actually present in a value
// (used to check against the specialization's pinned counts).
Status collect_counts(const idl::Type& t, const idl::Value& v,
                      std::vector<std::uint32_t>& out);

// Reads a value's preorder var-array counts straight off the wire,
// without decoding it.  Built once per plan-eligible type: the type
// flattens into steps, each a run of static bytes followed by one
// count word and count * (static element size) bytes.  Nested var
// arrays are not plan-eligible, so a probe costs O(type nodes), not
// O(elements).
class ShapeProbe {
 public:
  // kInvalidArgument for types that are not plan-eligible.
  static Result<ShapeProbe> build(const idl::Type& t);

  // Number of counts read_counts() fills in (== count_params(t)).
  std::size_t count_params() const { return steps_.size(); }

  // Fills `counts` (count_params() entries) and returns true when the
  // stream holds a whole value of the type: every count within its
  // bound and every byte present.  The cursor ends where it started
  // either way.  A stream that cannot rewind is refused before any
  // byte is read.
  bool read_counts(xdr::XdrStream& in, std::span<std::uint32_t> counts) const;

  struct Step {
    std::size_t skip = 0;        // static bytes before the count word
    std::uint32_t bound = 0;     // the var array's bound
    std::size_t elem_bytes = 0;  // static wire size of one element
  };

 private:
  bool walk(xdr::XdrStream& in, std::span<std::uint32_t> counts) const;

  std::vector<Step> steps_;
  std::size_t tail_ = 0;  // static bytes after the last count word
};

}  // namespace tempo::pe
