#include "src/core/reassembler.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/dex/builder.h"

namespace dexlego::core {

using bc::Insn;
using bc::Op;

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

// One method-body emitter. Linearizes the tree into a flat item list —
// instructions carried over from the tree (with their owning node for
// target resolution), guards, synthetic gotos and the landing pad — then
// emits the list through a bc::MethodAssembler. Each item binds one label,
// and every branch, guard, goto and switch target is a label, so the
// assembler places the code and range-checks every offset.
class TreeEmitter {
 public:
  TreeEmitter(dex::DexBuilder& builder, const MethodRecord& rec,
              const TreeNode& root, const ReassembleOptions& options,
              ReassembleStats& stats, size_t guard_field_base)
      : builder_(builder),
        rec_(rec),
        root_(root),
        options_(options),
        stats_(stats),
        guard_field_base_(guard_field_base) {}

  dex::CodeItem emit();
  size_t guards_used() const { return guards_used_; }

 private:
  using Label = bc::MethodAssembler::Label;
  struct Item {
    enum class Kind { kInsn, kGuard, kGoto, kPad } kind;
    const TreeNode* node = nullptr;   // kInsn: owning node; kGoto: resolves from
    size_t il_index = 0;              // kInsn
    uint32_t guard_field = 0;         // kGuard: field pool index (new file)
    const TreeNode* child = nullptr;  // kGuard: the child block it enters
    uint16_t goto_pc = 0;             // kGoto: original-pc target
    Label label = 0;                  // bound where the item starts
    size_t start = 0, end = 0;        // kInsn: where the assembler put it
  };

  void build_node(const TreeNode& node);
  // Resolves an original pc starting from `node` (self, ancestors, then
  // descendants) to its item's label, or to the pad's.
  Label resolve(const TreeNode* node, uint16_t pc);
  size_t find_in(const TreeNode* node, uint16_t pc) const;
  uint8_t guard_reg() const { return static_cast<uint8_t>(frame_registers_ - 1); }
  uint16_t new_pool_index(const SymRef& ref);
  void emit_insn(const Item& item, bc::MethodAssembler& as);

  dex::DexBuilder& builder_;
  const MethodRecord& rec_;
  const TreeNode& root_;
  const ReassembleOptions& options_;
  ReassembleStats& stats_;
  size_t guard_field_base_;
  size_t guards_used_ = 0;

  std::vector<Item> items_;
  // The item of each carried-over instruction by owning node and original
  // pc, sorted once build_node is done.
  struct InsnKey {
    const TreeNode* node;
    uint16_t pc;
    size_t item;
  };
  static bool key_less(const InsnKey& a, const InsnKey& b) {
    if (a.node != b.node) return std::less<const TreeNode*>{}(a.node, b.node);
    return a.pc != b.pc ? a.pc < b.pc : a.item < b.item;
  }
  std::vector<InsnKey> insn_items_;
  std::map<const TreeNode*, size_t> child_block_start_;
  size_t pad_item_ = SIZE_MAX;
  uint16_t frame_registers_ = 0;
};

void TreeEmitter::build_node(const TreeNode& node) {
  for (size_t i = 0; i < node.il.size(); ++i) {
    const ILEntry& entry = node.il[i];
    // Divergence guards for children forking at this pc: the guard branches
    // to the child block (emitted after the main stream), the fallthrough
    // executes this node's version (paper Code 4 structure).
    for (const auto& child : node.children) {
      if (child->sm_start == entry.pc && !child->il.empty()) {
        std::string field_name =
            sanitize(rec_.key.class_descriptor + "_" + rec_.key.name) + "_" +
            std::to_string(guard_field_base_ + guards_used_);
        items_.push_back(
            {.kind = Item::Kind::kGuard,
             .guard_field =
                 builder_.intern_field(kModificationClass, "I", field_name),
             .child = child.get()});
        ++guards_used_;
        ++stats_.guards;
      }
    }

    insn_items_.push_back({&node, entry.pc, items_.size()});
    items_.push_back({.kind = Item::Kind::kInsn, .node = &node, .il_index = i});

    // Explicit fallthrough: if the next recorded instruction of this node is
    // not the natural successor, synthesize a goto to it.
    Insn insn = bc::decode_at(entry.units, 0);
    if (bc::can_continue(insn.op)) {
      uint16_t fall_pc = static_cast<uint16_t>(entry.pc + insn.width);
      bool natural = (i + 1 < node.il.size()) && node.il[i + 1].pc == fall_pc;
      if (!natural) {
        items_.push_back(
            {.kind = Item::Kind::kGoto, .node = &node, .goto_pc = fall_pc});
      }
    }
  }

  // Child blocks follow the node's main stream.
  for (const auto& child : node.children) {
    if (child->il.empty()) continue;
    child_block_start_[child.get()] = items_.size();
    build_node(*child);
  }
}

size_t TreeEmitter::find_in(const TreeNode* node, uint16_t pc) const {
  // A node that recorded one pc twice resolves it to its last item.
  auto it = std::ranges::upper_bound(insn_items_, InsnKey{node, pc, SIZE_MAX},
                                     key_less);
  if (it == insn_items_.begin()) return SIZE_MAX;
  --it;
  return it->node == node && it->pc == pc ? it->item : SIZE_MAX;
}

TreeEmitter::Label TreeEmitter::resolve(const TreeNode* node, uint16_t pc) {
  // Own IL, then ancestors (convergence), then descendants (code first
  // executed while a divergence layer was active).
  for (const TreeNode* n = node; n != nullptr; n = n->parent) {
    size_t found = find_in(n, pc);
    if (found != SIZE_MAX) return items_[found].label;
  }
  std::vector<const TreeNode*> queue;
  for (const auto& c : node->children) queue.push_back(c.get());
  while (!queue.empty()) {
    const TreeNode* n = queue.back();
    queue.pop_back();
    size_t found = find_in(n, pc);
    if (found != SIZE_MAX) return items_[found].label;
    for (const auto& c : n->children) queue.push_back(c.get());
  }
  ++stats_.pad_edges;
  return items_[pad_item_].label;
}

uint16_t TreeEmitter::new_pool_index(const SymRef& ref) {
  uint32_t idx = 0;
  switch (ref.kind) {
    case bc::RefKind::kString:
      idx = builder_.intern_string(ref.parts.at(0));
      break;
    case bc::RefKind::kType:
      idx = builder_.intern_type(ref.parts.at(0));
      break;
    case bc::RefKind::kField:
      idx = builder_.intern_field(ref.parts.at(0), ref.parts.at(1),
                                  ref.parts.at(2));
      break;
    case bc::RefKind::kMethod: {
      std::vector<std::string> params;
      for (size_t i = 3; i < ref.parts.size(); ++i) {
        if (!ref.parts[i].empty() && ref.parts[i][0] == '#') continue;  // marker
        params.push_back(ref.parts[i]);
      }
      idx = builder_.intern_method(ref.parts.at(0), ref.parts.at(1),
                                   ref.parts.at(2), params);
      break;
    }
    case bc::RefKind::kNone:
      break;
  }
  if (idx > 0xffff) throw std::runtime_error("pool overflow in reassembly");
  return static_cast<uint16_t>(idx);
}

void TreeEmitter::emit_insn(const Item& item, bc::MethodAssembler& as) {
  const ILEntry& entry = item.node->il[item.il_index];
  Insn insn = bc::decode_at(entry.units, 0);

  // Reflective call sites recorded at this pc become direct calls.
  if (options_.replace_reflection && bc::is_invoke(insn.op)) {
    auto rit = rec_.reflection_targets.find(entry.pc);
    if (rit != rec_.reflection_targets.end() && insn.a >= 1) {
      const SymRef& target = rit->second;
      bool is_static =
          !target.parts.empty() && target.parts.back() == "#static";
      // Method.invoke(methodObj, receiver, args...): drop the Method object;
      // static targets also drop the receiver. Same 4-unit footprint as the
      // original invoke.
      size_t skip = std::min<size_t>(is_static ? 2 : 1, insn.a);
      as.invoke(is_static ? Op::kInvokeStatic : Op::kInvokeVirtual,
                new_pool_index(target),
                std::vector<uint8_t>(insn.args.begin() + skip,
                                     insn.args.begin() + insn.a));
      ++stats_.reflection_replaced;
      return;
    }
  }

  // Carry the recorded units over with the pool operand re-interned and
  // the branch or switch targets retargeted to the new layout.
  std::span<uint16_t> units = as.raw(entry.units);
  if (entry.ref) {
    size_t at = bc::pool_index_unit(insn.op);
    if (at >= units.size()) {
      throw std::out_of_range("reassembled operand past its instruction");
    }
    units[at] = new_pool_index(*entry.ref);
  }
  if (insn.op == Op::kGoto || bc::is_conditional_branch(insn.op)) {
    as.raw_branch(
        resolve(item.node, static_cast<uint16_t>(entry.pc + insn.off)));
  } else if (insn.op == Op::kPackedSwitch) {
    const SwitchSnapshot& sw = entry.switch_payload.value();
    std::vector<Label> targets;
    targets.reserve(sw.target_pcs.size());
    for (uint16_t pc : sw.target_pcs) targets.push_back(resolve(item.node, pc));
    as.raw_switch(sw.first_key, std::move(targets));
  }
}

dex::CodeItem TreeEmitter::emit() {
  build_node(root_);
  std::ranges::sort(insn_items_, key_less);
  // Landing pad for never-executed edges.
  pad_item_ = items_.size();
  items_.push_back({.kind = Item::Kind::kPad});

  // Frame: one extra register for guards when any exist (also used by the
  // pad's constant for value-returning methods).
  bool needs_scratch = guards_used_ > 0 || rec_.return_type != "V";
  frame_registers_ = static_cast<uint16_t>(
      std::max<uint16_t>(rec_.registers_size, rec_.ins_size) +
      (needs_scratch ? 1 : 0));
  if (frame_registers_ == 0) frame_registers_ = 1;
  if (frame_registers_ > 255) throw std::runtime_error("frame overflow");
  bc::MethodAssembler as(frame_registers_, rec_.ins_size);
  for (Item& item : items_) item.label = as.make_label();

  // Growing the frame moves the incoming arguments up (the interpreter banks
  // ins at the top of the frame), while the carried-over code still addresses
  // them at their original registers. A prologue of moves puts every argument
  // back where the original code expects it. Latent until the fuzzer made
  // control flow depend on an argument register (replay file
  // tests/data/fuzz/bytecode-arg-shift-fixed.lfz).
  uint16_t old_base = static_cast<uint16_t>(
      std::max<uint16_t>(rec_.registers_size, rec_.ins_size) - rec_.ins_size);
  uint16_t new_base = static_cast<uint16_t>(frame_registers_ - rec_.ins_size);
  // Increasing order is overlap-safe: each move reads above every register
  // written so far.
  for (uint16_t i = 0; new_base != old_base && i < rec_.ins_size; ++i) {
    as.move(static_cast<uint8_t>(old_base + i),
            static_cast<uint8_t>(new_base + i));
  }

  // Only carried-over instructions start a line entry, at their original
  // line.
  const dex::LineTable line_of(options_.keep_debug_info
                                   ? std::span<const dex::LineEntry>(rec_.lines)
                                   : std::span<const dex::LineEntry>());
  for (Item& item : items_) {
    as.bind(item.label);
    switch (item.kind) {
      case Item::Kind::kInsn:
        as.line(line_of.at(item.node->il[item.il_index].pc));
        item.start = as.current_pc();
        emit_insn(item, as);
        item.end = as.current_pc();
        break;
      case Item::Kind::kGuard:
        as.line(0);
        as.sget(guard_reg(), static_cast<uint16_t>(item.guard_field));
        as.if_testz(Op::kIfEqz, guard_reg(),
                    items_[child_block_start_.at(item.child)].label);
        break;
      case Item::Kind::kGoto:
        as.line(0);
        as.goto_(resolve(item.node, item.goto_pc));
        break;
      case Item::Kind::kPad:
        as.line(0);
        if (rec_.return_type == "V") {
          as.return_void();
        } else if (rec_.return_type == "I" || rec_.return_type == "J" ||
                   rec_.return_type == "Z") {
          as.const16(guard_reg(), 0);
          as.return_value(guard_reg());
        } else {
          as.const_null(guard_reg());
          as.nop();  // keeps the pad 3 units wide, as in every revealed file
          as.return_value(guard_reg());
        }
        break;
    }
  }
  dex::CodeItem out = as.finish();

  if (options_.keep_debug_info) {
    // Tries: cover the emitted span of each original range when its handler
    // was executed; never-executed handlers vanish with the dead code.
    for (const dex::TryItem& t : rec_.tries) {
      size_t handler = find_in(&root_, t.handler_pc);
      if (handler == SIZE_MAX) continue;
      size_t lo = SIZE_MAX, hi = 0;
      for (const Item& item : items_) {
        if (item.kind != Item::Kind::kInsn || item.node != &root_) continue;
        uint16_t pc = item.node->il[item.il_index].pc;
        if (pc >= t.start_pc && pc < t.end_pc) {
          lo = std::min(lo, item.start);
          hi = std::max(hi, item.end);
        }
      }
      if (lo < hi) {
        out.tries.push_back({.start_pc = static_cast<uint16_t>(lo),
                             .end_pc = static_cast<uint16_t>(hi),
                             .handler_pc =
                                 static_cast<uint16_t>(items_[handler].start)});
      }
    }
  }
  stats_.output_code_units += out.insns.size();
  return out;
}

}  // namespace

// --- whole-file reassembly ---

namespace {

// Builds the guarded dispatcher body used when a method has several unique
// instruction arrays ("Merging Instruction Arrays", paper IV-B): selector
// guards pick one variant call block, the last one the fallthrough's.
dex::CodeItem build_dispatcher(const MethodRecord& rec,
                               const std::vector<uint32_t>& variant_refs,
                               const std::vector<uint32_t>& selector_fields) {
  uint16_t ins = rec.ins_size;
  bc::MethodAssembler as(static_cast<uint16_t>(ins + 1), ins);  // v0 = scratch
  std::vector<uint8_t> args;
  for (uint16_t i = 0; i < ins; ++i) args.push_back(static_cast<uint8_t>(1 + i));
  Op invoke_op = (rec.access_flags & dex::kAccStatic) != 0 ? Op::kInvokeStatic
                                                           : Op::kInvokeVirtual;

  std::vector<bc::MethodAssembler::Label> calls;
  for (size_t v = 0; v < variant_refs.size(); ++v) calls.push_back(as.make_label());
  for (size_t k = 0; k + 1 < variant_refs.size(); ++k) {
    as.sget(0, static_cast<uint16_t>(selector_fields[k]));
    as.if_testz(Op::kIfEqz, 0, calls[k]);
  }
  as.goto_(calls.back());
  for (size_t v = 0; v < variant_refs.size(); ++v) {
    as.bind(calls[v]);
    as.invoke(invoke_op, static_cast<uint16_t>(variant_refs[v]), args);
    if (rec.return_type == "V") {
      as.return_void();
    } else {
      as.move_result(0);
      as.return_value(0);
    }
  }
  return as.finish();
}

dex::EncodedValue encode_static_value(dex::DexBuilder& builder,
                                      const CollectedValue& v) {
  switch (v.kind) {
    case CollectedValue::Kind::kInt:
      return dex::DexBuilder::int_value(v.i);
    case CollectedValue::Kind::kString:
      return builder.string_value(v.s);
    case CollectedValue::Kind::kNull:
      return dex::DexBuilder::null_value();
  }
  return dex::DexBuilder::null_value();
}

}  // namespace

ReassembleResult reassemble(const CollectionOutput& input,
                            const ReassembleOptions& options) {
  ReassembleResult result;
  dex::DexBuilder builder;
  ReassembleStats& stats = result.stats;

  // Group methods by declaring class; include classes that somehow have
  // method records but no class record (defensive completeness).
  std::map<std::string, std::vector<const MethodRecord*>> by_class;
  for (const auto& [key, rec] : input.methods) {
    by_class[key.class_descriptor].push_back(&rec);
  }
  std::set<std::string> class_descriptors;
  for (const CollectedClass& c : input.classes) class_descriptors.insert(c.descriptor);

  size_t guard_counter = 0;

  auto emit_class = [&](const CollectedClass* cls, const std::string& descriptor) {
    std::string super =
        (cls != nullptr && !cls->super_descriptor.empty()) ? cls->super_descriptor
                                                           : "Ljava/lang/Object;";
    builder.start_class(descriptor, super,
                        cls != nullptr ? cls->access_flags : dex::kAccPublic);
    ++stats.classes;
    if (cls != nullptr) {
      for (const CollectedField& f : cls->instance_fields) {
        builder.add_instance_field(f.name, f.type_descriptor, f.access_flags);
      }
      for (const CollectedField& f : cls->static_fields) {
        builder.add_static_field(f.name, f.type_descriptor,
                                 encode_static_value(builder, f.static_value),
                                 f.access_flags);
      }
    }

    auto mit = by_class.find(descriptor);
    if (mit == by_class.end()) return;
    // Synthetic variant names must never collide with a method already in
    // the input: a once-revealed app carries the previous round's name$vN
    // variants, and re-defining one made invoke resolution ambiguous (the
    // first definition — a traced dispatcher body invoking its own name —
    // recursed to StackOverflowError; fuzzer finding, replay file
    // tests/data/fuzz/bytecode-variant-collision-fixed.lfz).
    std::set<std::string> taken_names;
    for (const MethodRecord* r : mit->second) taken_names.insert(r->key.name);
    for (const MethodRecord* rec : mit->second) {
      ++stats.methods;
      bool is_direct = (rec->access_flags &
                        (dex::kAccStatic | dex::kAccPrivate | dex::kAccConstructor)) != 0 ||
                       rec->key.name == "<init>" || rec->key.name == "<clinit>";
      // Adds `code` as method `name` of rec's proto, among the direct or the
      // virtual methods as rec belongs.
      auto add_method = [&](const std::string& name, dex::CodeItem code,
                            uint32_t access_flags) {
        return is_direct
                   ? builder.add_direct_method(name, rec->return_type,
                                               rec->param_types,
                                               std::move(code), access_flags)
                   : builder.add_virtual_method(name, rec->return_type,
                                                rec->param_types,
                                                std::move(code), access_flags);
      };
      if (rec->is_native) {
        builder.add_native_method(rec->key.name, rec->return_type,
                                  rec->param_types, rec->access_flags);
        continue;
      }
      if (rec->trees.empty()) {
        // Entered but nothing recorded (aborted immediately): emit a stub so
        // references still resolve.
        bc::MethodAssembler as(std::max<uint16_t>(rec->registers_size, 1),
                               rec->ins_size);
        if (rec->return_type == "V") {
          as.return_void();
        } else if (rec->return_type == "I" || rec->return_type == "J" ||
                   rec->return_type == "Z") {
          as.const16(0, 0);
          as.return_value(0);
        } else {
          as.const_null(0);
          as.return_value(0);
        }
        add_method(rec->key.name, as.finish(), rec->access_flags);
        continue;
      }

      // Emit one body per unique tree.
      std::vector<dex::CodeItem> bodies;
      for (const auto& tree : rec->trees) {
        TreeEmitter emitter(builder, *rec, *tree, options, stats, guard_counter);
        bodies.push_back(emitter.emit());
        guard_counter += emitter.guards_used();
      }
      if (bodies.size() == 1) {
        add_method(rec->key.name, std::move(bodies[0]), rec->access_flags);
        continue;
      }

      // Method variants + guarded dispatcher (paper IV-B, merging arrays).
      std::vector<uint32_t> variant_refs;
      std::vector<uint32_t> selector_fields;
      for (size_t v = 0; v < bodies.size(); ++v) {
        std::string vname;
        for (size_t ordinal = v;; ++ordinal) {
          vname = rec->key.name + "$v" + std::to_string(ordinal);
          if (taken_names.insert(vname).second) break;
        }
        variant_refs.push_back(add_method(
            vname, std::move(bodies[v]),
            (rec->access_flags & ~dex::kAccConstructor) | dex::kAccSynthetic));
        ++stats.variants;
        if (v + 1 < bodies.size()) {
          std::string fname =
              sanitize(rec->key.class_descriptor + "_" + rec->key.name) +
              "_variant_" + std::to_string(v);
          selector_fields.push_back(
              builder.intern_field(kModificationClass, "I", fname));
        }
      }
      add_method(rec->key.name,
                 build_dispatcher(*rec, variant_refs, selector_fields),
                 rec->access_flags);
    }
  };

  // The reassembler owns the instrument class: a once-revealed input already
  // carries Ldexlego/Modification;, and emitting the collected copy *and*
  // the synthesized one below produced a duplicate class definition on
  // re-reveal (found by the fuzzer's idempotence oracle, replay file
  // tests/data/fuzz/bytecode-idempotence-fixed.lfz). Hold the collected copy
  // back and fold its fields into the synthesized definition instead.
  const CollectedClass* collected_instrument = nullptr;
  for (const CollectedClass& cls : input.classes) {
    if (cls.descriptor == kModificationClass) {
      collected_instrument = &cls;
      continue;
    }
    emit_class(&cls, cls.descriptor);
  }
  for (const auto& [descriptor, _] : by_class) {
    if (descriptor == kModificationClass) continue;
    if (!class_descriptors.contains(descriptor)) emit_class(nullptr, descriptor);
  }

  // The instrument class: every Ldexlego/Modification; field interned by the
  // emitters becomes a static int field initialized to 0 (value is irrelevant
  // to static analysis; reachability of both branches is what matters).
  // Collected fields come first so the definition is stable across repeated
  // reveals even when this round's emitters interned nothing new.
  {
    std::vector<std::string> field_names;
    std::set<std::string> seen_fields;
    if (collected_instrument != nullptr) {
      for (const CollectedField& f : collected_instrument->static_fields) {
        if (seen_fields.insert(f.name).second) field_names.push_back(f.name);
      }
    }
    const dex::DexFile& partial = builder.file();
    for (const dex::FieldRef& f : partial.fields) {
      if (partial.type_descriptor(f.class_type) == kModificationClass) {
        std::string name = partial.string_at(f.name);
        if (seen_fields.insert(name).second) field_names.push_back(name);
      }
    }
    if (!field_names.empty()) {
      builder.start_class(kModificationClass);
      ++stats.classes;
      for (const std::string& name : field_names) {
        builder.add_static_field(name, "I", dex::DexBuilder::int_value(0));
      }
    }
  }

  result.file = std::move(builder).build();
  return result;
}

}  // namespace dexlego::core
