#include "src/analysis/taint_core.h"

#include <algorithm>
#include <span>

#include "src/runtime/source_sink.h"
#include "src/support/bytes.h"

namespace dexlego::analysis {

using bc::Insn;
using bc::Op;

std::string source_name_for_bit(uint32_t bit) {
  for (const rt::SourceSpec& s : rt::taint_sources()) {
    if (s.taint == bit) {
      return std::string(s.class_descriptor) + "->" + s.method;
    }
  }
  return "source#" + std::to_string(bit);
}

void TaintCore::build_method_table() {
  for (const dex::ClassDef& cls : file_.classes) {
    const std::string& desc = file_.type_descriptor(cls.type_idx);
    if (cls.super_type_idx != dex::kNoIndex) {
      super_of_[desc] = file_.type_descriptor(cls.super_type_idx);
    }
    auto add = [&](const dex::MethodDef& def) {
      AMethod m;
      m.def = &def;
      m.class_descriptor = desc;
      m.name = file_.method_name(def.method_ref);
      m.shorty = file_.proto_shorty(file_.methods[def.method_ref].proto);
      m.is_static = (def.access_flags & dex::kAccStatic) != 0;
      size_t params =
          file_.protos[file_.methods[def.method_ref].proto].param_types.size();
      m.num_args = params + (m.is_static ? 0 : 1);
      methods_.push_back(std::move(m));
      by_class_[desc].push_back(&methods_.back());
    };
    for (const dex::MethodDef& def : cls.direct_methods) add(def);
    for (const dex::MethodDef& def : cls.virtual_methods) add(def);
  }
}

bool TaintCore::is_subclass(const std::string& sub,
                            const std::string& super) const {
  std::string cur = sub;
  for (int i = 0; i < 64; ++i) {
    if (cur == super) return true;
    auto it = super_of_.find(cur);
    if (it == super_of_.end()) return false;
    cur = it->second;
  }
  return false;
}

void TaintCore::compute_liveness() {
  // Live: activity components, instantiated classes, forName-able strings.
  std::set<std::string> instantiated;
  std::set<std::string> named;
  for (const dex::ClassDef& cls : file_.classes) {
    for (const auto* mv : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& def : *mv) {
        if (!def.code) continue;
        std::span<const uint16_t> insns(def.code->insns);
        size_t pc = 0;
        while (pc < insns.size()) {
          Insn insn = bc::decode_at(insns, pc);
          if (insn.op == Op::kNewInstance) {
            instantiated.insert(file_.type_descriptor(insn.idx));
          } else if (insn.op == Op::kConstString) {
            const std::string& s = file_.string_at(insn.idx);
            if (!s.empty() && s.front() == 'L' && s.back() == ';') named.insert(s);
          }
          pc += bc::consumed_units(insn);
        }
      }
    }
  }
  for (const dex::ClassDef& cls : file_.classes) {
    const std::string& desc = file_.type_descriptor(cls.type_idx);
    bool activity = false;
    std::string cur = desc;
    for (int i = 0; i < 64; ++i) {
      auto it = super_of_.find(cur);
      std::string super = it != super_of_.end() ? it->second : "";
      if (super.empty()) break;
      if (super == "Landroid/app/Activity;") activity = true;
      cur = super;
    }
    if (activity || instantiated.contains(desc) || named.contains(desc) ||
        desc == "Ldexlego/Modification;") {
      live_classes_.insert(desc);
    }
  }
  for (AMethod& m : methods_) {
    if (live_classes_.contains(m.class_descriptor)) {
      m.analyzed = m.def->code.has_value();
    } else if (cfg_.orphan_callbacks && m.name.rfind("on", 0) == 0) {
      // FlowDroid-style lifecycle over-approximation: callbacks of classes
      // never instantiated are still treated as potentially invocable.
      m.analyzed = m.def->code.has_value();
    }
  }
}

AMethod* TaintCore::find_method(const std::string& cls, const std::string& name,
                                const std::string& shorty) {
  std::string cur = cls;
  for (int i = 0; i < 64; ++i) {
    auto it = by_class_.find(cur);
    if (it != by_class_.end()) {
      for (AMethod* m : it->second) {
        if (m->name == name && (shorty.empty() || m->shorty == shorty)) return m;
      }
      // Name-only fallback mirrors the runtime's lenient dispatch.
      for (AMethod* m : it->second) {
        if (m->name == name) return m;
      }
    }
    auto sit = super_of_.find(cur);
    if (sit == super_of_.end()) return nullptr;
    cur = sit->second;
  }
  return nullptr;
}

std::vector<AMethod*> TaintCore::resolve_targets(const std::string& cls,
                                                 const std::string& name,
                                                 const std::string& shorty) {
  std::vector<AMethod*> targets;
  if (AMethod* m = find_method(cls, name, shorty)) targets.push_back(m);
  // CHA: overriding definitions in subclasses.
  for (auto& [desc, methods] : by_class_) {
    if (desc == cls || !is_subclass(desc, cls)) continue;
    for (AMethod* m : methods) {
      if (m->name == name && m->shorty == shorty &&
          std::find(targets.begin(), targets.end(), m) == targets.end()) {
        targets.push_back(m);
      }
    }
  }
  return targets;
}

void TaintCore::record_sink(AMethod& method, const std::string& sink,
                            Taint word) {
  Taint src = source_bits(word);
  for (uint32_t bit = 0; bit < 32; ++bit) {
    if (src & (1u << bit)) {
      Flow flow{source_name_for_bit(1u << bit), sink,
                method.class_descriptor + "->" + method.name};
      if (result_.flows.insert(flow).second) changed_ = true;
    }
  }
  if (token_bits(word) != 0) {
    changed_ |= method.summary.merge_sink(sink, token_bits(word));
  }
}

void TaintCore::write_cell(AMethod& method, FieldOverrides& overrides,
                           const std::string& key, Taint word) {
  if (cfg_.flow_sensitive_fields) {
    overrides[key] = word;  // strong update
  }
  Taint src = source_bits(word);
  if (src != 0 && !cfg_.flow_sensitive_fields) {
    Taint& cell = global_cells_[key];
    if ((cell | src) != cell) {
      cell |= src;
      changed_ = true;
    }
  }
  if (token_bits(word) != 0) {
    changed_ |= method.summary.merge_field(key, token_bits(word));
  }
}

Taint TaintCore::read_cell(const FieldOverrides& overrides,
                           const std::string& key) const {
  auto it = overrides.find(key);
  Taint local = it != overrides.end() ? it->second : 0;
  auto git = global_cells_.find(key);
  Taint global = (it != overrides.end() && cfg_.flow_sensitive_fields)
                     ? 0  // strong update shadows the global cell on this path
                     : (git != global_cells_.end() ? git->second : 0);
  return local | global;
}

void TaintCore::publish_overrides(const FieldOverrides& overrides) {
  if (!cfg_.flow_sensitive_fields) return;
  for (const auto& [key, word] : overrides) {
    Taint src = source_bits(word);
    if (src != 0) {
      Taint& cell = global_cells_[key];
      if ((cell | src) != cell) {
        cell |= src;
        changed_ = true;
      }
    }
  }
}

Taint TaintCore::implicit_context(const AMethod& method, size_t pc) const {
  if (!cfg_.implicit_flows) return 0;
  Taint implicit = 0;
  for (const auto& [key, taint] : branch_taint_) {
    if (key.first != &method) continue;
    // Region of a forward branch at b with target t: (b, t).
    size_t b = key.second;
    std::span<const uint16_t> insns(method.def->code->insns);
    Insn branch = bc::decode_at(insns, b);
    size_t t = b + static_cast<size_t>(branch.off);
    if (t > b && pc > b && pc < t) implicit |= taint;
  }
  return implicit;
}

void TaintCore::record_branch_taint(const AMethod& method, size_t pc,
                                    Taint cond) {
  if (!cfg_.implicit_flows || cond == 0) return;
  Taint& slot = branch_taint_[{&method, pc}];
  if ((slot | cond) != slot) {
    slot |= cond;
    changed_ = true;
  }
}

AbsValue TaintCore::apply_summary(AMethod& caller, AMethod& callee,
                                  const std::vector<AbsValue>& args) {
  AbsValue out;
  // Reachability: a callee of an analyzed method joins the analyzed set
  // (covers classes only reachable through resolved reflection or code
  // revealed by DexLego — the initial set is just components + callbacks).
  if (!callee.analyzed && callee.def->code.has_value()) {
    callee.analyzed = true;
    changed_ = true;
  }
  if (callee.summary.depth >= cfg_.max_summary_depth) {
    return out;  // DroidSafe-style call-chain cut: no propagation
  }
  auto resolve = [&](Taint word) {
    Taint resolved = source_bits(word);
    for (size_t i = 0; i < args.size() && i < kMaxArgs; ++i) {
      if (word & arg_token(i)) resolved |= args[i].taint;
    }
    return resolved;
  };
  out.taint = resolve(callee.summary.ret);
  for (const auto& [sink, word] : callee.summary.sinks) {
    record_sink(caller, sink, resolve(word));
  }
  for (const auto& [key, word] : callee.summary.field_writes) {
    Taint resolved = resolve(word);
    Taint src = source_bits(resolved);
    if (src != 0) {
      Taint& cell = global_cells_[key];
      if ((cell | src) != cell) {
        cell |= src;
        changed_ = true;
      }
    }
    if (token_bits(resolved) != 0) {
      changed_ |= caller.summary.merge_field(key, token_bits(resolved));
    }
  }
  int depth = callee.summary.depth + 1;
  if (depth > caller.summary.depth) {
    caller.summary.depth = depth;
    changed_ = true;
  }
  return out;
}

AbsValue TaintCore::framework_call(AMethod& caller, const std::string& cls,
                                   const std::string& name,
                                   const std::vector<AbsValue>& args) {
  AbsValue out;
  // Sources and sinks from the shared registry.
  if (const rt::SourceSpec* src = rt::find_source(cls, name)) {
    out.taint = src->taint;
    return out;
  }
  if (const rt::SinkSpec* sink = rt::find_sink(cls, name)) {
    Taint word = 0;
    for (const AbsValue& a : args) word |= a.taint;
    record_sink(caller, sink->sink_name, word);
    return out;
  }

  // Reflection.
  if (cls == "Ljava/lang/Class;" && name == "forName") {
    if (!args.empty() && args[0].str_const) out.reflect_class = *args[0].str_const;
    return out;
  }
  if (cls == "Ljava/lang/Class;" && name == "getMethod") {
    if (args.size() > 1 && !args[0].reflect_class.empty() && args[1].str_const) {
      out.reflect_method = args[0].reflect_class + "|" + *args[1].str_const;
    }
    return out;
  }
  if (cls == "Ljava/lang/reflect/Method;" && name == "invoke") {
    if (!args.empty() && !args[0].reflect_method.empty()) {
      auto bar = args[0].reflect_method.find('|');
      std::string tcls = args[0].reflect_method.substr(0, bar);
      std::string tname = args[0].reflect_method.substr(bar + 1);
      if (AMethod* target = find_method(tcls, tname, "")) {
        std::vector<AbsValue> call_args;
        size_t skip = target->is_static ? 2 : 1;
        for (size_t i = skip; i < args.size(); ++i) call_args.push_back(args[i]);
        if (!target->is_static && args.size() > 1) {
          call_args.insert(call_args.begin(), args[1]);
        }
        return apply_summary(caller, *target, call_args);
      }
    }
    // Unresolved reflection: conservative no-flow (this is precisely the gap
    // DexLego's direct-call replacement closes).
    return out;
  }
  if (cls == "Ljava/lang/Class;" && name == "newInstance") {
    if (!args.empty() && !args[0].reflect_class.empty()) {
      out.known_class = args[0].reflect_class;
      if (AMethod* ctor = find_method(args[0].reflect_class, "<init>", "()V")) {
        apply_summary(caller, *ctor, {out});
      }
    }
    return out;
  }

  // Intent / ICC cells.
  if (cls == "Landroid/content/Intent;" && name == "putExtra") {
    std::string key = (args.size() > 1 && args[1].str_const)
                          ? "intent:" + *args[1].str_const
                          : "intent:*";
    Taint word = args.size() > 2 ? args[2].taint : 0;
    // Writes happen regardless of the tool's ICC support; only reads differ.
    Taint src = source_bits(word);
    if (src != 0) {
      Taint& cell = global_cells_[key];
      if ((cell | src) != cell) {
        cell |= src;
        changed_ = true;
      }
    }
    if (token_bits(word) != 0) {
      changed_ |= caller.summary.merge_field(key, token_bits(word));
    }
    if (!args.empty()) out = args[0];  // returns the intent
    return out;
  }
  if (cls == "Landroid/content/Intent;" && name == "getStringExtra") {
    if (cfg_.icc) {
      std::string key = (args.size() > 1 && args[1].str_const)
                            ? "intent:" + *args[1].str_const
                            : "intent:*";
      auto it = global_cells_.find(key);
      if (it != global_cells_.end()) out.taint |= it->second;
      auto wild = global_cells_.find("intent:*");
      if (wild != global_cells_.end()) out.taint |= wild->second;
    }
    return out;
  }

  // View tags: a single coarse cell — the framework summary every tool uses
  // (keeps Button1/3-style flows detectable; causes coarse-tag FPs).
  if (cls == "Landroid/view/View;" && name == "setTag") {
    Taint word = args.size() > 1 ? args[1].taint : 0;
    Taint src = source_bits(word);
    if (src != 0) {
      Taint& cell = global_cells_["viewtag"];
      if ((cell | src) != cell) {
        cell |= src;
        changed_ = true;
      }
    }
    if (token_bits(word) != 0) {
      changed_ |= caller.summary.merge_field("viewtag", token_bits(word));
    }
    return out;
  }
  if (cls == "Landroid/view/View;" && name == "getTag") {
    auto it = global_cells_.find("viewtag");
    if (it != global_cells_.end()) out.taint = it->second;
    return out;
  }

  // External files: no tool models this channel (paper, PrivateDataLeak3).
  if (cls == "Ldexlego/api/Io;") return out;
  // Sanitizer clears taint.
  if (cls == "Ldexlego/api/Sanitizer;") return out;

  // Handler.post: edge into the runnable's run() when its class is known.
  if (cls == "Landroid/os/Handler;" && name == "post") {
    if (cfg_.handler_edges && args.size() > 1 && !args[1].known_class.empty()) {
      if (AMethod* run = find_method(args[1].known_class, "run", "()V")) {
        apply_summary(caller, *run, {args[1]});
      }
    }
    return out;
  }

  // Value-sensitive string building (HornDroid): evaluate xor decoding and
  // concatenation over known constants so runtime-built reflection strings
  // resolve statically.
  if (cfg_.value_sensitive) {
    if (cls == "Ldexlego/api/Crypto;" && name == "xorDecode" && args.size() > 1 &&
        args[0].str_const && args[1].int_const) {
      std::string s = *args[0].str_const;
      for (char& c : s) c = static_cast<char>(c ^ static_cast<char>(*args[1].int_const));
      out.str_const = s;
    } else if (cls == "Ljava/lang/String;" && name == "concat" &&
               args.size() > 1 && args[0].str_const && args[1].str_const) {
      out.str_const = *args[0].str_const + *args[1].str_const;
    } else if (cls == "Ljava/lang/StringBuilder;" && name == "append" &&
               args.size() > 1 && args[0].str_const && args[1].str_const) {
      out.str_const = *args[0].str_const + *args[1].str_const;
      out.is_builder = true;
    } else if (cls == "Ljava/lang/StringBuilder;" && name == "toString" &&
               !args.empty() && args[0].str_const) {
      out.str_const = args[0].str_const;
    }
  }

  // Default framework summary: taint-preserving (result = union of args).
  for (const AbsValue& a : args) out.taint |= a.taint;
  return out;
}

TaintCore::InvokeResult TaintCore::invoke_transfer(
    AMethod& caller, Op op, uint32_t method_idx,
    const std::vector<AbsValue>& args) {
  InvokeResult r;
  const dex::MethodRef& ref = file_.methods.at(method_idx);
  std::string cls = file_.type_descriptor(ref.class_type);
  std::string name = file_.string_at(ref.name);
  std::string shorty = file_.proto_shorty(ref.proto);

  // Prefer the receiver's known dynamic class for virtual dispatch.
  std::string dispatch_cls = cls;
  if (op == Op::kInvokeVirtual && !args.empty() &&
      !args[0].known_class.empty()) {
    dispatch_cls = args[0].known_class;
  }

  std::vector<AMethod*> targets =
      op == Op::kInvokeVirtual ? resolve_targets(dispatch_cls, name, shorty)
                               : resolve_targets(cls, name, shorty);
  if (targets.empty()) {
    r.result = framework_call(caller, cls, name, args);
    // new StringBuilder() constructor: start constant tracking.
    if (cfg_.value_sensitive && name == "<init>" &&
        cls == "Ljava/lang/StringBuilder;" && !args.empty()) {
      r.receiver = args[0];
      r.receiver.str_const = args.size() > 1 && args[1].str_const
                                 ? *args[1].str_const
                                 : std::string();
      r.receiver.is_builder = true;
      r.update_receiver = true;
    }
    return r;
  }
  AbsValue merged;
  for (AMethod* target : targets) {
    AbsValue sub = apply_summary(caller, *target, args);
    merged.taint |= sub.taint;
  }
  r.result = merged;
  return r;
}

AnalysisResult TaintCore::run() {
  build_method_table();
  compute_liveness();

  for (int round = 0; round < cfg_.max_rounds; ++round) {
    changed_ = false;
    for (AMethod& method : methods_) {
      if (method.analyzed) analyze_method(method);
    }
    if (!changed_) break;
  }
  return std::move(result_);
}

}  // namespace dexlego::analysis
