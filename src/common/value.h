// Value: the tagged-union datum stored in Datalog tuples.
//
// Colog tables mix regular attributes (integers, doubles, strings, node
// addresses) with *solver* attributes, whose runtime representation is a
// symbolic reference into the constraint network (kSym).  See Section 4.2 of
// the paper for the regular/solver attribute distinction.
#ifndef COLOGNE_COMMON_VALUE_H_
#define COLOGNE_COMMON_VALUE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace cologne {

/// Identifier of a node (location) in a distributed deployment.
using NodeId = int32_t;

/// Runtime type tag of a Value. The enumerator order is the cross-type sort
/// order of Value::operator<.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt,     ///< 64-bit signed integer (the workhorse type; solver domain type).
  kDouble,  ///< IEEE double (used for measured statistics such as CPU stdev).
  kString,  ///< Interned string (see Value::Str).
  kNode,    ///< Node address (location specifier value).
  kSym,     ///< Symbolic reference: index of an expression in the constraint
            ///< network built during solver-rule evaluation.
};

/// \brief A single datum within a tuple.
///
/// Values are small, regular, and totally ordered (ordering first by type tag
/// then by payload), which lets tables index and sort heterogeneous columns
/// deterministically.
///
/// Layout: a one-byte tag plus an 8-byte payload (16 bytes, trivially
/// copyable). The payload holds the int64, the double's bits, the node or
/// sym index, or a pointer to the string's entry in a process-wide,
/// append-only interner. Equal strings share one entry, so string equality
/// is pointer equality; string *order* is by content, never by interning
/// order, so sorted scans do not depend on which string was seen first.
class Value {
 public:
  constexpr Value() = default;
  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    return Value(ValueType::kInt, static_cast<uint64_t>(v));
  }
  static Value Double(double v) {
    return Value(ValueType::kDouble, std::bit_cast<uint64_t>(v));
  }
  /// Interns `v` (takes a lock; meant for the lexer, knobs and tests, not
  /// hot paths).
  static Value Str(std::string v);
  static Value Node(NodeId v) {
    return Value(ValueType::kNode, static_cast<uint64_t>(v));
  }
  /// A symbolic reference to constraint-network expression `idx`.
  static Value Sym(int32_t idx) {
    return Value(ValueType::kSym, static_cast<uint64_t>(idx));
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_node() const { return type_ == ValueType::kNode; }
  bool is_sym() const { return type_ == ValueType::kSym; }
  /// True for any numeric (int or double) payload.
  bool is_numeric() const { return is_int() || is_double(); }

  int64_t as_int() const {
    assert(is_int());
    return static_cast<int64_t>(bits_);
  }
  double as_double() const {
    assert(is_numeric());
    return is_int() ? static_cast<double>(static_cast<int64_t>(bits_))
                    : std::bit_cast<double>(bits_);
  }
  const std::string& as_string() const {
    assert(is_string());
    return *reinterpret_cast<const std::string*>(bits_);
  }
  NodeId as_node() const {
    assert(is_node());
    return static_cast<NodeId>(bits_);
  }
  int32_t sym_index() const {
    assert(is_sym());
    return static_cast<int32_t>(bits_);
  }

  bool operator==(const Value& o) const {
    if (type_ != o.type_) return false;
    // Doubles compare as doubles: 0.0 == -0.0 and NaN != NaN.
    if (type_ == ValueType::kDouble) {
      return std::bit_cast<double>(bits_) == std::bit_cast<double>(o.bits_);
    }
    return bits_ == o.bits_;
  }
  bool operator!=(const Value& o) const { return !(*this == o); }
  bool operator<(const Value& o) const {
    if (type_ != o.type_) return type_ < o.type_;
    switch (type_) {
      case ValueType::kNull:
        return false;
      case ValueType::kDouble:
        return std::bit_cast<double>(bits_) < std::bit_cast<double>(o.bits_);
      case ValueType::kString:
        return bits_ != o.bits_ && as_string() < o.as_string();
      default:  // int, node and sym payloads are stored sign-extended
        return static_cast<int64_t>(bits_) < static_cast<int64_t>(o.bits_);
    }
  }

  /// Stable 64-bit hash (FNV-1a over the canonical encoding). Consistent
  /// with ==: both zeros hash as +0.0.
  uint64_t Hash() const;

  /// Render for debugging/printing: ints bare, strings quoted, nodes as @N,
  /// syms as $k.
  std::string ToString() const;

  /// Approximate serialized size in bytes, used by the network simulator for
  /// bandwidth accounting (Figure 5).
  size_t WireSize() const;

 private:
  constexpr Value(ValueType t, uint64_t bits) : type_(t), bits_(bits) {}

  ValueType type_ = ValueType::kNull;
  uint64_t bits_ = 0;
};

static_assert(sizeof(Value) == 16);
static_assert(std::is_trivially_copyable_v<Value>);

/// A row: ordered list of Values.
using Row = std::vector<Value>;

/// Hash of an entire row (order-sensitive).
uint64_t HashRow(const Row& row);

/// Render a row as "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace cologne

#endif  // COLOGNE_COMMON_VALUE_H_
