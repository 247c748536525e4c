#pragma once

// PF+=2 policy functions (§3.3).
//
// `with` predicates call boolean functions over values drawn from the
// @src/@dst response dictionaries.  The predefined set is
//   eq gt lt gte lte member includes allowed verify
// and the registry is open: administrators and application developers can
// register new functions ("Functions are user-definable and new functions
// can be added").

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace identxx::crypto {
class SchnorrVerifier;
}

namespace identxx::pf {

class EvalContext;
struct FuncCall;

/// An absent dictionary key.  Every builtin predicate is false when any
/// argument is Undefined — a policy cannot match on information that was
/// never provided.
struct Undefined {
  [[nodiscard]] bool operator==(const Undefined&) const noexcept = default;
};

using Value = std::variant<Undefined, std::string, std::vector<std::string>>;

[[nodiscard]] inline bool is_undefined(const Value& v) noexcept {
  return std::holds_alternative<Undefined>(v);
}

/// Undefined -> nullopt; list -> items joined with ','.
[[nodiscard]] std::optional<std::string> value_to_string(const Value& v);

/// Undefined -> nullopt; string -> singleton list.
[[nodiscard]] std::optional<std::vector<std::string>> value_to_list(
    const Value& v);

/// A policy function: receives the evaluation context, the syntactic call
/// (for error messages) and the evaluated arguments.
using PolicyFunction = std::function<bool(
    const EvalContext&, const FuncCall&, const std::vector<Value>&)>;

/// A per-function warm-up hook over resolved argument vectors.  Nothing in
/// evaluation runs one: every flow calls its functions directly.  The type
/// and the registry members that carry it (register_batch_preparer,
/// batch_preparer, and the `flow_invariant` flag) stay only because the
/// wall-clock benchmark's registry wrapper (perfbench/driver.cpp) still
/// names them; none of them changes a verdict or the work evaluation does.
using BatchPreparer = std::function<void(
    const std::vector<std::vector<Value>>& calls)>;

class FunctionRegistry {
 public:
  /// Empty registry (no functions).
  FunctionRegistry() = default;

  /// Registry pre-loaded with the paper's predefined functions.
  [[nodiscard]] static FunctionRegistry with_builtins();

  /// Register or replace a function.  `flow_invariant` is recorded and
  /// reported by flow_invariant() but not read by evaluation (see
  /// BatchPreparer).
  void register_function(std::string name, PolicyFunction fn,
                         bool flow_invariant = false);

  [[nodiscard]] const PolicyFunction* find(std::string_view name) const;

  /// Attach a warm-up hook to `name`.  Stored, never run by evaluation
  /// (see BatchPreparer).
  void register_batch_preparer(std::string name, BatchPreparer preparer);

  /// The hook registered for `name`, or null (no builtin has one).
  [[nodiscard]] const BatchPreparer* batch_preparer(
      std::string_view name) const;

  /// Was `name` registered flow-invariant?  False for unknown names.
  [[nodiscard]] bool flow_invariant(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> names() const;

  /// The Schnorr verifier backing the `verify` builtin: per-key precomputed
  /// tables plus the bounded (key, message digest, signature) memo, so
  /// identical attestations across flows and retransmissions verify once.
  /// Copies of a registry share one verifier; null for registries built
  /// without the builtins.  PolicyDecisionEngine registers the policy's
  /// dict-embedded public keys here at construction (DESIGN.md §9).
  [[nodiscard]] const std::shared_ptr<crypto::SchnorrVerifier>& verifier()
      const noexcept {
    return verifier_;
  }

 private:
  struct Entry {
    PolicyFunction fn;
    bool flow_invariant = false;
  };
  std::map<std::string, Entry, std::less<>> functions_;
  std::map<std::string, BatchPreparer, std::less<>> preparers_;
  std::shared_ptr<crypto::SchnorrVerifier> verifier_;
};

}  // namespace identxx::pf
