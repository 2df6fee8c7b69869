// Interprocedural machinery behind the static taint engine: method table,
// liveness roots, CHA dispatch, summaries, framework models, field cells and
// implicit-flow regions. The intra-method dataflow lives in its one subclass,
// BytecodeEngine (static_taint.cpp): a per-pc worklist over raw LDEX. Like
// the tools its presets model, it walks constant-false branches unless the
// preset is value-sensitive (StaticTaint.DeadCodeFalsePositives pins this).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/report.h"
#include "src/analysis/tool_config.h"
#include "src/bytecode/insn.h"
#include "src/dex/dex.h"

namespace dexlego::analysis {

// Taint words: low 32 bits = source bits, bits 32+ = argument tokens.
using Taint = uint64_t;
inline constexpr Taint kSourceMask = 0xffffffffull;
inline constexpr int kMaxArgs = 8;
inline Taint arg_token(size_t i) { return 1ull << (32 + i); }
inline Taint source_bits(Taint t) { return t & kSourceMask; }
inline Taint token_bits(Taint t) { return t & ~kSourceMask; }

std::string source_name_for_bit(uint32_t bit);

// Per-method summary accumulated across fixpoint rounds.
struct Summary {
  Taint ret = 0;
  std::vector<std::pair<std::string, Taint>> sinks;        // sink name, word
  std::map<std::string, Taint> field_writes;               // cell key -> word
  int depth = 1;

  bool merge_ret(Taint t) {
    Taint merged = ret | t;
    bool changed = merged != ret;
    ret = merged;
    return changed;
  }
  bool merge_sink(const std::string& sink, Taint t) {
    for (auto& [name, word] : sinks) {
      if (name == sink) {
        Taint merged = word | t;
        bool changed = merged != word;
        word = merged;
        return changed;
      }
    }
    sinks.emplace_back(sink, t);
    return true;
  }
  bool merge_field(const std::string& key, Taint t) {
    Taint& slot = field_writes[key];
    Taint merged = slot | t;
    bool changed = merged != slot;
    slot = merged;
    return changed;
  }
};

struct AMethod {
  const dex::MethodDef* def = nullptr;
  std::string class_descriptor;
  std::string name;
  std::string shorty;
  size_t num_args = 0;  // including `this` for instance methods
  bool is_static = false;
  bool analyzed = false;
  Summary summary;
};

// Abstract value: taint word plus optional constant views used by reflection
// resolution and constant-branch pruning.
struct AbsValue {
  Taint taint = 0;
  std::optional<int64_t> int_const;
  std::optional<std::string> str_const;
  std::string reflect_class;            // set on Class.forName results
  std::string reflect_method;           // "class|name" on getMethod results
  std::string known_class;              // from new-instance (CHA aid)
  bool is_builder = false;              // StringBuilder tracking (value-sens.)

  bool operator==(const AbsValue&) const = default;

  void merge(const AbsValue& other) {
    taint |= other.taint;
    if (int_const != other.int_const) int_const.reset();
    if (str_const != other.str_const) str_const.reset();
    if (reflect_class != other.reflect_class) reflect_class.clear();
    if (reflect_method != other.reflect_method) reflect_method.clear();
    if (known_class != other.known_class) known_class.clear();
    is_builder = is_builder && other.is_builder;
  }
};

// Field-override map: intra-method strong updates (flow-sensitive heap).
using FieldOverrides = std::map<std::string, Taint>;

class TaintCore {
 public:
  TaintCore(const ToolConfig& cfg, const dex::DexFile& file)
      : cfg_(cfg), file_(file) {}
  virtual ~TaintCore() = default;

  // Global fixpoint: rounds over all analyzed methods until summaries, cells
  // and flows stabilize. Calls the engine's analyze_method per method.
  AnalysisResult run();

 protected:
  // Engine hook: intra-method dataflow for one method with code.
  virtual void analyze_method(AMethod& method) = 0;

  // --- Interprocedural skeleton ---
  void build_method_table();
  void compute_liveness();
  AMethod* find_method(const std::string& cls, const std::string& name,
                       const std::string& shorty);
  std::vector<AMethod*> resolve_targets(const std::string& cls,
                                        const std::string& name,
                                        const std::string& shorty);
  bool is_subclass(const std::string& sub, const std::string& super) const;

  // Call-site transfer: resolves app targets (CHA, receiver type narrowing),
  // falls back to the framework model, applies summaries. If the call is a
  // value-sensitive StringBuilder <init>, `update_receiver` asks the engine
  // to rebind the receiver to `receiver`.
  struct InvokeResult {
    AbsValue result;
    bool update_receiver = false;
    AbsValue receiver;
  };
  InvokeResult invoke_transfer(AMethod& caller, bc::Op op, uint32_t method_idx,
                               const std::vector<AbsValue>& args);

  AbsValue apply_summary(AMethod& caller, AMethod& callee,
                         const std::vector<AbsValue>& args);
  AbsValue framework_call(AMethod& caller, const std::string& cls,
                          const std::string& name,
                          const std::vector<AbsValue>& args);
  void record_sink(AMethod& method, const std::string& sink, Taint word);
  void write_cell(AMethod& method, FieldOverrides& overrides,
                  const std::string& key, Taint word);
  Taint read_cell(const FieldOverrides& overrides,
                  const std::string& key) const;
  // Publishes override cells into the global store (method-exit fold).
  void publish_overrides(const FieldOverrides& overrides);
  std::string field_key(const std::string& cls, const std::string& name) const {
    return cfg_.field_collision_heap ? name : cls + "." + name;
  }

  // Implicit-flow context at `pc`: union of recorded condition taints whose
  // forward-branch region (b, t) contains pc (HornDroid preset only).
  Taint implicit_context(const AMethod& method, size_t pc) const;
  // Records a conditional branch's condition taint for implicit flows.
  void record_branch_taint(const AMethod& method, size_t pc, Taint cond);

  const ToolConfig& cfg_;
  const dex::DexFile& file_;
  std::deque<AMethod> methods_;
  std::map<std::string, std::vector<AMethod*>> by_class_;
  std::map<std::string, std::string> super_of_;
  std::set<std::string> live_classes_;
  std::map<std::string, Taint> global_cells_;  // fields + intent extras + tags
  // Implicit-flow support: conditional branch pc (per method) -> cond taint.
  std::map<std::pair<const AMethod*, size_t>, Taint> branch_taint_;
  AnalysisResult result_;
  bool changed_ = false;
};

}  // namespace dexlego::analysis
